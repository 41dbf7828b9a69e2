"""Whole-scenario benchmark of the FastGL simulator: host cost per layer.

Run from the repository root::

    python3 perfbench/run.py --workload cluster-papers --seed 0 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: it sets the
workload up several times (dataset build + one warm-up run, each time
from a different derived seed) and reports the median set-up time, then
repeats the scenario back to back (a closed loop) for ``--seconds``
and reports medians over those runs. ``--trace 1`` sets up once, then
alternates untraced and traced runs for ``--seconds`` and reports the
per-layer metrics of the traced runs; their spans go to
``perfbench/out/trace-<workload>-seed<seed>.json`` (Chrome trace, one
process per run id).

Every run's outputs are checked (see ``workloads.py``); at the default
seed the modeled outputs must also match ``reference.json``. The last
stdout line is the JSON result; the line before it carries provenance
and the workload-specific numbers no gate reads. The exit code is 0 only
when every check passed. ``--write-reference`` regenerates
``reference.json`` for one workload at the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

# One host thread end to end: pin the BLAS pool before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

DEFAULT_SEED = 0
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Extra set-ups use ``seed + i * stride`` so no cache keyed by the
#: dataset or seed can make a later set-up cheaper than the first.
SETUP_SEED_STRIDE = 1_000_003
#: Relative tolerance of the reference comparison: bit-identity is what
#: a host-only change must keep, but last-ulp differences between CPU
#: instruction sets (vectorized exp/log, reduction widths) are not a
#: changed result.
REFERENCE_REL_TOL = 1e-9

END_TO_END_UNITS = {
    "setup_s": "s",
    "batches_per_s": "1/s",
    "seeds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "modeled_s": "s",
    "modeled_p99_ms": "ms",
}

PER_LAYER_UNITS = {
    "sampling.calls": "count",
    "sampling.self_s": "s",
    "sampling.edges": "count",
    "sampling.calls_per_batch": "ratio",
    "idmap.calls": "count",
    "idmap.self_s": "s",
    "idmap.ids": "count",
    "transfer.cache_build.calls": "count",
    "transfer.cache_build.incl_s": "s",
    "transfer.cache_build.self_s": "s",
    "transfer.plan.calls": "count",
    "transfer.plan.self_s": "s",
    "transfer.resident_rate": "ratio",
    "transfer.bytes": "B",
    "graph.gather.rows": "count",
    "graph.gather.self_s": "s",
    "reorder.calls": "count",
    "reorder.self_s": "s",
    "compute_model.self_s": "s",
    "nn.steps": "count",
    "nn.forward.self_s": "s",
    "nn.backward.self_s": "s",
    "nn.optim.self_s": "s",
    "cluster.partition.self_s": "s",
    "cluster.halo.calls": "count",
    "cluster.halo.self_s": "s",
    "cluster.halo.hit_rate": "ratio",
    "cluster.halo.bytes": "B",
    "serve.route.calls": "count",
    "serve.route.self_s": "s",
    "serve.route.affinity_frac": "ratio",
    "serve.batches": "count",
    "serve.tier.calls": "count",
    "serve.tier.self_s": "s",
    "serve.tier.hit_rate": "ratio",
    "serve.device_hit_rate": "ratio",
    "serve.profile_build.incl_s": "s",
    "serve.profile_build.self_s": "s",
    "driver.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
    "modeled.sample_s": "s",
    "modeled.idmap_s": "s",
    "modeled.memory_io_s": "s",
    "modeled.network_s": "s",
    "modeled.compute_s": "s",
    "modeled.allreduce_s": "s",
    "modeled.stall_s": "s",
    "modeled.p50_ms": "ms",
    "modeled.device_hit_rate": "ratio",
}

#: Span layer -> per-layer metric prefix, where they differ.
LAYER_METRIC = {"sampling.idmap": "idmap"}


class Ledger:
    """Runs one workload and keeps the failure accounting.

    A failure is a run that raised, a run whose outputs failed a check
    (all of its operations count as failed), or a fleet request that was
    shed or dropped.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._reference = None

    def fail(self, message: str, operations: int = 0) -> None:
        self.problems.append(message)
        self.failed += operations

    def run(self, dataset, seed: int, expected=None, recorder=None):
        """One checked run. Returns ``(report, seconds)``, where only the
        scenario itself is timed, or ``(None, None)`` if it raised.

        ``expected`` is the modeled output an earlier run of the same
        inputs produced; this run must reproduce it exactly. A
        ``recorder`` traces the run through the layer wrappers.
        """
        import layers

        workload = self.workload
        scope = (layers.traced(recorder) if recorder is not None
                 else contextlib.nullcontext())
        try:
            with scope:
                start = time.perf_counter()
                report = workload.run(dataset, seed)
                seconds = time.perf_counter() - start
        except Exception:  # the benchmark reports the failure and goes on
            traceback.print_exc(file=sys.stderr)
            self.attempted += workload.operations_per_run
            self.fail(f"run raised (seed {seed})",
                      workload.operations_per_run)
            return None, None
        attempted, failed = workload.operations(report)
        self.attempted += attempted
        self.failed += failed
        problems = workload.check(report)
        modeled = workload.modeled(report)
        if expected is not None and modeled != expected:
            problems.append("modeled outputs differ from the warm-up run "
                            "of the same inputs")
        if seed == DEFAULT_SEED:
            problems.extend(self.reference_mismatches(modeled))
        if problems:
            self.fail(f"seed {seed}: " + "; ".join(problems),
                      attempted - failed)
        return report, seconds

    def reference_mismatches(self, modeled: dict) -> list:
        """At the default seed the modeled outputs must match the
        committed reference."""
        if self._reference is None:
            data = json.loads(REFERENCE.read_text())
            self._reference = data.get(self.workload.name, {})
        if not self._reference:
            return [f"no reference for {self.workload.name}"]
        diffs = _mismatches(self._reference, json.loads(json.dumps(modeled)))
        if diffs:
            return [f"modeled outputs differ from {REFERENCE.name}: "
                    + "; ".join(diffs[:5])]
        return []

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _mismatches(expected, actual, path: str = "") -> list:
    """Paths where ``actual`` differs from the reference ``expected``."""
    import math

    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for key in expected
                for m in _mismatches(expected[key], actual[key],
                                     f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in _mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=REFERENCE_REL_TOL,
                        abs_tol=1e-15):
            return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{path}: {expected!r} != {actual!r}"]


def _median(values):
    """Median; counts that agree across runs stay whole numbers."""
    middle = statistics.median(values)
    if all(isinstance(v, int) for v in values) and middle == int(middle):
        return int(middle)
    return float(middle)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_end_to_end(workload, seed: int, seconds: float,
                       ledger: Ledger) -> tuple:
    """Set up ``SETUP_PROBES`` times, then run closed-loop for
    ``seconds``. Returns ``(metrics, detail)``."""
    clock = time.perf_counter
    setup_times = []
    for probe in reversed(range(SETUP_PROBES)):
        probe_seed = seed + probe * SETUP_SEED_STRIDE
        start = clock()
        dataset = workload.make_dataset(seed=probe_seed)
        build_s = clock() - start
        warm, warm_s = ledger.run(dataset, probe_seed)
        if warm is None:
            raise RuntimeError(f"warm-up run raised (seed {probe_seed})")
        setup_times.append(build_s + warm_s)
        if probe:
            del dataset, warm
    expected = workload.modeled(warm)

    run_times, batch_rates, seed_rates = [], [], []
    peak_rss_mb = None
    began = clock()
    attempts = 0
    while not attempts or clock() - began < seconds:
        attempts += 1
        report, elapsed = ledger.run(dataset, seed, expected=expected)
        if report is None:
            continue
        if peak_rss_mb is None:
            # Read once, so the figure does not grow with the number of
            # runs a faster program fits into the window.
            peak_rss_mb = _peak_rss_mb()
        run_times.append(elapsed)
        batch_rates.append(workload.batches(report) / elapsed)
        seed_rates.append(workload.seeds(report, dataset) / elapsed)
    if not run_times:
        raise RuntimeError("every timed run raised")

    metrics = {
        "setup_s": _median(setup_times),
        "batches_per_s": _median(batch_rates),
        "seeds_per_s": _median(seed_rates),
        "peak_rss_mb": peak_rss_mb,
        **workload.modeled_end_to_end(warm),
    }
    detail = {
        "runs": len(run_times),
        "run_s": run_times,
        "setup_s": setup_times,
        **workload.detail(warm, run_times),
    }
    return metrics, detail


def layer_metrics(workload, recorder, report, run_s: float) -> dict:
    """The per-layer metrics of one traced run."""
    import layers

    spans = recorder.tracer.spans
    own = layers.self_times(spans)
    incl = layers.inclusive_times(spans)
    stats = recorder.stats

    def count(layer, key="calls"):
        return stats.get(layer, {}).get(key, 0)

    plan_wanted = count("transfer.plan", "wanted")
    routes = count("serve.route")
    out = {
        "sampling.calls": count("sampling"),
        "sampling.edges": count("sampling", "edges"),
        "sampling.calls_per_batch":
            count("sampling") / max(1, workload.batches(report)),
        "idmap.calls": count("sampling.idmap"),
        "idmap.ids": count("sampling.idmap", "ids"),
        "transfer.cache_build.calls": count("transfer.cache_build"),
        "transfer.cache_build.incl_s": incl.get("transfer.cache_build", 0.0),
        "transfer.plan.calls": count("transfer.plan"),
        "transfer.resident_rate":
            count("transfer.plan", "resident") / plan_wanted
            if plan_wanted else 0.0,
        "transfer.bytes": count("transfer.plan", "bytes"),
        "graph.gather.rows": count("graph.gather", "rows"),
        "reorder.calls": count("reorder"),
        "nn.steps": count("nn.optim", "steps"),
        "cluster.halo.calls": count("cluster.halo"),
        "cluster.halo.hit_rate": 0.0,
        "cluster.halo.bytes": 0,
        "serve.route.calls": routes,
        "serve.route.affinity_frac":
            1.0 - count("serve.jsq_fallback") / routes if routes else 0.0,
        "serve.batches": 0,
        "serve.tier.calls": count("serve.tier"),
        "serve.tier.hit_rate": 0.0,
        "serve.device_hit_rate": 0.0,
        "serve.profile_build.incl_s": incl.get("serve.profile_build", 0.0),
        "trace.run_s": run_s,
    }
    timed = {probe.layer for probe in layers.PROBES if probe.timed}
    for layer in (*timed, layers.ROOT):
        prefix = LAYER_METRIC.get(layer, layer)
        out[f"{prefix}.self_s"] = own.get(layer, 0.0)
    out.update(workload.report_counters(report))
    out.update(workload.modeled_layers(report))
    return out


def measure_layers(workload, seed: int, seconds: float, ledger: Ledger,
                   trace_path: Path) -> tuple:
    """Set up once, then alternate untraced and traced runs for
    ``seconds``. Returns ``(metrics, detail)``."""
    import layers

    clock = time.perf_counter
    start = clock()
    dataset = workload.make_dataset(seed=seed)
    build_s = clock() - start
    warm, warm_s = ledger.run(dataset, seed)
    if warm is None:
        raise RuntimeError(f"warm-up run raised (seed {seed})")
    expected = workload.modeled(warm)

    untraced, traced_runs, events = [], [], []
    began = clock()
    attempts = 0
    while not attempts or clock() - began < seconds:
        attempts += 1
        if layers.installed_wrappers():
            ledger.fail("benchmark wrappers installed outside a traced run")
        report, elapsed = ledger.run(dataset, seed, expected=expected)
        if report is not None:
            untraced.append(elapsed)

        recorder = layers.LayerRecorder()
        report, _ = ledger.run(dataset, seed, expected=expected,
                               recorder=recorder)
        if report is None:
            continue
        root = next(s for s in recorder.tracer.spans
                    if s.name == layers.ROOT)
        run_id = f"{workload.name}/seed{seed}/run{len(traced_runs)}"
        events.extend(recorder.tracer.to_chrome_events(pid=run_id))
        traced_runs.append(layer_metrics(workload, recorder, report,
                                         root.duration))
    if not traced_runs or not untraced:
        raise RuntimeError("every traced or every untraced run raised")

    metrics = {key: _median([run[key] for run in traced_runs])
               for key in traced_runs[0]}
    metrics["trace.overhead_frac"] = (
        metrics["trace.run_s"] / _median(untraced) - 1.0)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "traceEvents": events, "displayTimeUnit": "ms",
        "otherData": {"workload": workload.name, "seed": seed},
    }))
    detail = {"setup_s": build_s + warm_s, "untraced_run_s": untraced,
              "traced_runs": len(traced_runs), "trace_file":
              os.path.relpath(trace_path, ROOT)}
    return metrics, detail


def print_layer_table(metrics: dict) -> None:
    """Self time per layer, largest first, as a share of the run."""
    run_s = metrics["trace.run_s"]
    rows = sorted(((key[:-len(".self_s")], value)
                   for key, value in metrics.items()
                   if key.endswith(".self_s")), key=lambda r: -r[1])
    print(f"{'layer':<24}{'self_s':>10}{'share':>8}")
    for layer, value in rows:
        if value > 0:
            print(f"{layer:<24}{value:>10.4f}{value / run_s:>8.1%}")
    covered = 1.0 - metrics["driver.self_s"] / run_s
    print(f"{'traced run':<24}{run_s:>10.4f}  named layers cover "
          f"{covered:.1%}, tracing overhead "
          f"{metrics['trace.overhead_frac']:+.1%}")


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas() -> dict:
    """BLAS library name and its live thread count, when readable."""
    import ctypes
    import glob

    import numpy as np

    info = {"name": None, "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")[
            "Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def provenance(workload, seed: int, trace: int, host_s: float) -> dict:
    import platform

    import numpy as np

    return {
        "workload": workload.name,
        "spec": workload.describe(),
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "host_seconds": host_s,
    }


def _stop_helpers() -> None:
    """Stop the shared-memory resource tracker the fleet's cache tier
    starts, and wait for it, so no process outlives the benchmark."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def write_reference(workload) -> None:
    dataset = workload.make_dataset(seed=DEFAULT_SEED)
    report = workload.run(dataset, DEFAULT_SEED)
    problems = workload.check(report)
    if problems:
        raise SystemExit("; ".join(problems))
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data[workload.name] = workload.modeled(report)
    REFERENCE.write_text(json.dumps(data, sort_keys=True) + "\n")


def main(argv=None) -> int:
    began = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    ledger = Ledger(workload)
    try:
        if args.write_reference:
            write_reference(workload)
            return 0
        if args.trace:
            trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
            values, detail = measure_layers(workload, args.seed,
                                            args.seconds, ledger, trace_path)
            print_layer_table(values)
            units = PER_LAYER_UNITS
        else:
            values, detail = measure_end_to_end(workload, args.seed,
                                                args.seconds, ledger)
            units = END_TO_END_UNITS
    finally:
        _stop_helpers()
    detail["failed_frac"] = ledger.failed / max(1, ledger.attempted)
    detail["problems"] = ledger.problems
    print(json.dumps({
        "provenance": provenance(workload, args.seed, args.trace,
                                 time.perf_counter() - began),
        "detail": detail,
    }))
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
