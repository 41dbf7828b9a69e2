"""One gate over every committed baseline: ``python -m repro.gate``.

Usage::

    python -m repro.gate                       # check every scenario
    python -m repro.gate cluster pipeline      # check the named ones
    python -m repro.gate obs --write           # refresh a baseline
    python -m repro.gate --out gate-artifacts  # also keep the artifacts

Each entry of :data:`SCENARIOS` replays one small deterministic run and
returns an :class:`Outcome`: its flat metrics, the invariants it broke,
and the files worth keeping (metrics snapshots, the serving Chrome
traces, ``BENCH_repro.json``). The metrics are checked against the
scenario's committed baseline under ``benchmarks/results/`` by the one
:func:`check`:

* ``obs`` — one epoch each of dgl, fastgl and fastgl-ooc: the sampling,
  ID-map, transfer, cache and storage counters behind Fig. 10 / Tab. 2;
* ``cluster`` — the 4-node mini cluster, greedy edge-cut partitioning
  with a frequency remote cache vs random partitioning with none;
* ``pipeline`` — the sequential driver vs the bounded stage-graph
  pipeline (the sample/IO/compute overlap);
* ``serve`` — dgl and fastgl serving one request schedule;
* ``fleet`` — 4 fastgl replicas behind every routing policy;
* ``bench`` — the hot kernels at the small and medium sizes: seeded work
  counters pinned exactly, speedups over the reference implementations
  held above floors (wall clock, so it stays out of the unit tests).

Every modeled value is counted work under the fixed cost model, so the
first five scenarios are bit-identical across runs and machines; any
drift is a behavioural change, not noise.

Exit status: 0 when every named scenario keeps its invariants and its
baseline; 1 on a broken invariant or a baseline violation; 2 when a
baseline file is missing. ``--write`` refreshes the named baselines
only when every named scenario kept its invariants.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.bench.kernels import run_bench
from repro.cluster.spec import ClusterSpec
from repro.config import RunConfig
from repro.frameworks import FRAMEWORKS
from repro.graph.datasets import Dataset, DatasetSpec, PaperScale
from repro.obs import flatten_snapshot, instrumented, to_snapshot
from repro.pipeline import ExecutionSpec, PipelineSpec
from repro.serve.fleet import FleetSpec, fleet_demo_dataset, simulate_fleet
from repro.serve.routing import ROUTER_POLICIES
from repro.serve.server import ServeConfig, simulate

#: Reconciliation tolerance between a timeline's extent and the modeled
#: epoch time (or serving makespan).
RECONCILE_TOL = 1e-6

#: Achieved pipelined epoch vs the ``max(stage totals) + fill`` bound.
BOUND_SLACK = 1.15


@dataclass
class Outcome:
    """What one scenario run produced."""

    #: Flat ``name{labels}`` -> value, the quantities a baseline names.
    metrics: dict
    #: One message per broken invariant; empty when the run is sound.
    failures: list = field(default_factory=list)
    #: What the run covered; recorded as ``suite`` in a written baseline.
    suite: list = field(default_factory=list)
    #: File name -> ``writer(path)``, written under ``--out``.
    artifacts: dict = field(default_factory=dict)


def _value_entry(name: str, value: float) -> dict:
    return {"value": value}


@dataclass(frozen=True)
class Scenario:
    run: Callable[[], Outcome]
    #: Committed baseline; relative to the working directory, which is
    #: the repository root in CI.
    baseline: str
    #: ``default_tolerance`` of a written baseline.
    tolerance: float
    #: Baseline entry a written baseline holds for one metric (``None``
    #: leaves the metric ungated).
    entry: Callable[[str, float], dict | None] = _value_entry


# -- the scenarios ----------------------------------------------------------

#: The cluster and pipeline graph. ``DatasetSpec.name`` seeds the graph,
#: so the two scenarios keep their own names.
_SMOKE_GRAPH = dict(
    num_nodes=4000,
    avg_degree=10.0,
    feature_dim=128,
    num_classes=8,
    train_fraction=0.2,
    paper=PaperScale(300_000, 3_000_000, 1 << 30),
)

#: A 20 Gb/s fabric (vs the 100 Gb/s default) so halo traffic is a
#: visible share of the mini epochs.
_FABRIC = dict(link_bandwidth=2.5e9, nic_bandwidth=2.5e9)

CLUSTER_VARIANTS = {
    "greedy+freq": ClusterSpec(num_nodes=4, partitioner="greedy",
                               remote_cache="freq", **_FABRIC),
    "random+none": ClusterSpec(num_nodes=4, partitioner="random",
                               remote_cache="none", **_FABRIC),
}

_SERVE_RUN = RunConfig(num_gpus=1, fanouts=(5, 10, 15), seed=0)


def _write_json(path, doc) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _publish(registry, help_text: str, labels: dict, **values) -> None:
    """Expose a run's summary as gauges, so the baseline names it."""
    for metric, value in values.items():
        registry.gauge(metric, help_text).labels(**labels).set(float(value))


def _snapshot_outcome(name: str, registry, failures: list, suite: list,
                      artifacts: dict | None = None) -> Outcome:
    snapshot = to_snapshot(registry)
    artifacts = dict(artifacts or {})
    artifacts[f"{name}-snapshot.json"] = partial(_write_json, doc=snapshot)
    return Outcome(flatten_snapshot(snapshot), failures, suite, artifacts)


def _timeline_failures(label: str, report) -> list:
    extent = max((span.end for span in report.timeline()), default=0.0)
    if abs(extent - report.epoch_time) > RECONCILE_TOL:
        return [f"{label}: timeline extent {extent!r} vs epoch_time "
                f"{report.epoch_time!r}"]
    return []


def run_obs() -> Outcome:
    frameworks = ("dgl", "fastgl", "fastgl-ooc")
    dataset = Dataset(DatasetSpec(
        name="obs-regress",
        num_nodes=3000,
        avg_degree=12.0,
        feature_dim=32,
        num_classes=8,
        train_fraction=0.2,
        # Sized so the cache budget covers ~25% of the feature table:
        # enough for hits and misses to both occur.
        paper=PaperScale(30_000, 360_000, 1_000_000),
    ), seed=0)
    config = RunConfig(batch_size=128, fanouts=(5, 5), num_gpus=2,
                       reorder_window=8, seed=0)
    with instrumented() as registry:
        for name in frameworks:
            FRAMEWORKS[name]().run_epoch(dataset, config, model_name="gcn")
    return _snapshot_outcome("obs", registry, [], list(frameworks))


def run_cluster() -> Outcome:
    frameworks = ("dgl", "fastgl-ooc")
    dataset = Dataset(DatasetSpec(name="cluster-smoke", **_SMOKE_GRAPH),
                      seed=0)
    # Three epochs so the remote caches see repeat traffic.
    config = RunConfig(batch_size=64, fanouts=(5, 5), num_gpus=2,
                       num_epochs=3, seed=0)
    failures, epoch = [], {}
    with instrumented() as registry:
        for name in frameworks:
            for variant, spec in CLUSTER_VARIANTS.items():
                report = FRAMEWORKS[name]().run_epoch(
                    dataset, config, model_name="gcn",
                    execution=ExecutionSpec(cluster=spec))
                cluster = report.extras.get("cluster", {})
                halo = cluster.get("halo", {})
                _publish(
                    registry, "Cluster smoke summary statistic",
                    {"framework": report.framework, "variant": variant},
                    repro_cluster_epoch_seconds=report.epoch_time,
                    repro_cluster_network_seconds=report.phases.network,
                    repro_cluster_halo_hit_rate=halo.get("hit_rate", 0.0),
                    repro_cluster_halo_bytes=halo.get("bytes_moved", 0),
                    repro_cluster_cut_fraction_run=cluster.get(
                        "partition", {}).get("cut_fraction", 0.0))
                failures += _timeline_failures(f"{name}/{variant}", report)
                epoch[name, variant] = report.epoch_time
    for name in frameworks:
        informed = epoch[name, "greedy+freq"]
        uninformed = epoch[name, "random+none"]
        if not informed < uninformed:
            failures.append(f"{name}: greedy+freq ({informed:.6f}s) not "
                            f"faster than random+none ({uninformed:.6f}s)")
    suite = [f"{name}/{variant}" for name in frameworks
             for variant in CLUSTER_VARIANTS]
    return _snapshot_outcome("cluster", registry, failures, suite)


def run_pipeline() -> Outcome:
    frameworks = ("dgl", "fastgl")
    dataset = Dataset(DatasetSpec(name="pipeline-smoke", **_SMOKE_GRAPH),
                      seed=0)
    # Small batches so every stage runs many rounds: the pipeline needs
    # rounds in flight before overlap shows.
    config = RunConfig(batch_size=32, fanouts=(5, 5), num_gpus=2,
                       num_epochs=2, seed=0)
    pipelined_exec = ExecutionSpec(pipeline=PipelineSpec(
        mode="pipelined", queue_depth=2))
    failures = []
    with instrumented() as registry:
        for name in frameworks:
            sequential = FRAMEWORKS[name]().run_epoch(
                dataset, config, model_name="gcn")
            pipelined = FRAMEWORKS[name]().run_epoch(
                dataset, config, model_name="gcn", execution=pipelined_exec)
            info = pipelined.extras["pipeline"]
            bound = info["bound_seconds"]
            hideable = sequential.epoch_time - bound
            overlap = ((sequential.epoch_time - pipelined.epoch_time)
                       / hideable if hideable > 1e-12 else 1.0)
            _publish(
                registry, "Pipeline smoke summary statistic",
                {"framework": name},
                repro_pipeline_sequential_epoch_seconds=sequential.epoch_time,
                repro_pipeline_pipelined_epoch_seconds=pipelined.epoch_time,
                repro_pipeline_bound_seconds=bound,
                repro_pipeline_overlap_ratio=overlap,
                repro_pipeline_total_stall_seconds=sum(
                    info["stall_seconds"].values()))
            failures += _timeline_failures(f"{name}/sequential", sequential)
            failures += _timeline_failures(f"{name}/pipelined", pipelined)
            if pipelined.losses != sequential.losses:
                failures.append(f"{name}: model state diverged between "
                                "sequential and pipelined runs")
            if pipelined.epoch_time > sequential.epoch_time + 1e-9:
                failures.append(
                    f"{name}: pipelined ({pipelined.epoch_time:.6f}s) "
                    f"slower than sequential ({sequential.epoch_time:.6f}s)")
            if pipelined.epoch_time > bound * BOUND_SLACK:
                failures.append(
                    f"{name}: pipelined epoch ({pipelined.epoch_time:.6f}s) "
                    f"misses the overlap bound ({bound:.6f}s) by more than "
                    f"{BOUND_SLACK - 1:.0%}")
    return _snapshot_outcome("pipeline", registry, failures,
                             list(frameworks))


def run_serve() -> Outcome:
    frameworks = ("dgl", "fastgl")
    dataset = Dataset(DatasetSpec(
        name="serve-smoke",
        num_nodes=3000,
        avg_degree=10.0,
        feature_dim=32,
        num_classes=8,
        train_fraction=0.3,
        paper=PaperScale(300_000, 3_000_000, 1 << 30),
    ), seed=0)
    serve_config = ServeConfig(
        rate=50_000.0, num_requests=400, arrival="poisson",
        seeds_per_request=8, max_batch=16, batch_window_s=2e-3,
        queue_capacity=128, slo_s=0.5, seed=0,
    )
    failures, traces = [], {}
    with instrumented() as registry:
        for name in frameworks:
            report = simulate(name, dataset, run_config=_SERVE_RUN,
                              serve_config=serve_config)
            _publish(registry, "Serving summary statistic",
                     {"framework": report.framework},
                     repro_serve_p50_seconds=report.p50,
                     repro_serve_p95_seconds=report.p95,
                     repro_serve_p99_seconds=report.p99,
                     repro_serve_throughput_rps=report.throughput,
                     repro_serve_makespan_seconds=report.makespan)
            if not report.reconciles(RECONCILE_TOL):
                failures.append(
                    f"{name}: timeline extent {report.timeline_extent!r} "
                    f"vs makespan {report.makespan!r}")
            traces[f"serve_{name}.json"] = report.write_chrome_trace
    return _snapshot_outcome("serve", registry, failures, list(frameworks),
                             traces)


def run_fleet() -> Outcome:
    dataset = fleet_demo_dataset()
    serve_config = ServeConfig(
        rate=2000.0, num_requests=500, arrival="poisson",
        seeds_per_request=16, max_batch=4, batch_window_s=2e-3,
        queue_capacity=512, slo_s=5.0, seed=0, num_users=32,
    )
    failures = []
    with instrumented() as registry:
        for policy in ROUTER_POLICIES:
            report = simulate_fleet(
                "fastgl", dataset, run_config=_SERVE_RUN,
                serve_config=serve_config,
                fleet=FleetSpec(num_replicas=4, router=policy))
            _publish(registry, "Fleet summary statistic", {"policy": policy},
                     repro_fleet_p50_seconds=report.p50,
                     repro_fleet_p99_seconds=report.p99,
                     repro_fleet_throughput_rps=report.throughput,
                     repro_fleet_device_hit_rate=report.device_hit_rate,
                     repro_fleet_tier_hit_rate=report.tier_hit_rate,
                     repro_fleet_replicas=len(report.replicas))
            if not report.reconciles(RECONCILE_TOL):
                failures.append(
                    f"{policy}: fleet timeline extent "
                    f"{report.timeline_extent!r} vs makespan "
                    f"{report.makespan!r}")
    return _snapshot_outcome("fleet", registry, failures,
                             sorted(ROUTER_POLICIES))


def flatten_bench(doc: dict) -> dict:
    """``kernel/size:field`` -> number of a ``BENCH_repro.json`` doc."""
    flat = {}
    for record in doc.get("kernels", []):
        prefix = f"{record['kernel']}/{record['size']}"
        flat[f"{prefix}:best_s"] = float(record["best_s"])
        flat[f"{prefix}:mean_s"] = float(record["mean_s"])
        for key in ("speedup_vs_legacy", "speedup_vs_exact",
                    "legacy_s", "exact_s"):
            if key in record:
                flat[f"{prefix}:{key}"] = float(record[key])
        for key, value in record.get("work", {}).items():
            flat[f"{prefix}:work.{key}"] = float(value)
    return flat


#: Speedup floors sit at this fraction of the measured speedup: slack
#: for slower machines, while a de-vectorization still trips them.
SPEEDUP_FLOOR_FRACTION = 0.4


def bench_entry(name: str, value: float) -> dict | None:
    """The bench baseline rule: exact work counters and speedup floors.
    Absolute seconds are never gated."""
    if ":work." in name:
        return {"value": value}
    if ":speedup_vs_" in name:
        return {"min": round(max(1.5, value * SPEEDUP_FLOOR_FRACTION), 2)}
    return None


def run_bench_scenario() -> Outcome:
    doc = run_bench(medium=True)
    return Outcome(flatten_bench(doc), artifacts={
        "BENCH_repro.json": partial(_write_json, doc=doc)})


SCENARIOS = {
    "obs": Scenario(run_obs, "benchmarks/results/baseline.json", 0.05),
    "cluster": Scenario(run_cluster,
                        "benchmarks/results/cluster_baseline.json", 0.02),
    "pipeline": Scenario(run_pipeline,
                         "benchmarks/results/pipeline_baseline.json", 0.02),
    "serve": Scenario(run_serve, "benchmarks/results/serve_baseline.json",
                      0.02),
    "fleet": Scenario(run_fleet, "benchmarks/results/fleet_baseline.json",
                      0.02),
    "bench": Scenario(run_bench_scenario,
                      "benchmarks/results/bench_baseline.json", 0.0,
                      bench_entry),
}


# -- baselines --------------------------------------------------------------

def build_baseline(scenario: Scenario, outcome: Outcome) -> dict:
    """The baseline document ``--write`` stores for one scenario run."""
    metrics = {}
    for name, value in sorted(outcome.metrics.items()):
        entry = scenario.entry(name, value)
        if entry is not None:
            metrics[name] = entry
    doc = {"default_tolerance": scenario.tolerance, "metrics": metrics}
    if outcome.suite:
        doc["suite"] = list(outcome.suite)
    return doc


def check(metrics: dict, baseline: dict) -> list:
    """Violations of ``baseline`` by the flat ``metrics``.

    A baseline entry may hold ``value`` (relative drift within
    ``tolerance``, else the document's ``default_tolerance``), ``min``
    and ``max``. A metric violates when it is missing, not finite, or
    outside any bound its entry sets. Metrics the baseline does not
    name are new, not regressions, and are ignored.
    """
    default_tol = float(baseline.get("default_tolerance", 0.0))
    violations = []
    for name, entry in baseline.get("metrics", {}).items():
        if name not in metrics:
            violations.append({"metric": name, "reason": "missing"})
            continue
        actual = float(metrics[name])
        if not math.isfinite(actual):
            violations.append({"metric": name, "reason": "non-finite",
                               "actual": actual})
            continue
        if "min" in entry and actual < float(entry["min"]):
            violations.append({"metric": name, "reason": "below-min",
                               "actual": actual, "min": float(entry["min"])})
        if "max" in entry and actual > float(entry["max"]):
            violations.append({"metric": name, "reason": "above-max",
                               "actual": actual, "max": float(entry["max"])})
        if "value" in entry:
            expected = float(entry["value"])
            tolerance = float(entry.get("tolerance", default_tol))
            drift = abs(actual - expected) / max(abs(expected), 1e-12)
            if drift > tolerance:
                violations.append({
                    "metric": name, "reason": "drift",
                    "expected": expected, "actual": actual,
                    "drift": drift, "tolerance": tolerance,
                })
    return violations


def format_violation(violation: dict) -> str:
    metric, reason = violation["metric"], violation["reason"]
    if reason == "missing":
        return f"MISSING {metric}"
    if reason == "non-finite":
        return f"NONFINITE {metric}: {violation['actual']}"
    if reason == "below-min":
        return (f"BELOW   {metric}: {violation['actual']:g} "
                f"< min {violation['min']:g}")
    if reason == "above-max":
        return (f"ABOVE   {metric}: {violation['actual']:g} "
                f"> max {violation['max']:g}")
    return (f"DRIFT   {metric}: {violation['expected']:g} -> "
            f"{violation['actual']:g} ({violation['drift']:+.1%} vs "
            f"tolerance {violation['tolerance']:.1%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gate",
        description="Run the deterministic gate scenarios and check each "
                    "against its committed baseline.",
    )
    parser.add_argument("names", nargs="*", metavar="SCENARIO",
                        help="scenarios to run (default: all of "
                             + ", ".join(SCENARIOS) + ")")
    parser.add_argument("--write", action="store_true",
                        help="refresh the named baselines from this run "
                             "instead of checking them")
    parser.add_argument("--out", type=pathlib.Path, metavar="DIR",
                        help="write each scenario's snapshot and artifacts "
                             "here")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario(s): {unknown}; "
                     f"available: {list(SCENARIOS)}")
    names = args.names or list(SCENARIOS)

    outcomes = {}
    for name in names:
        outcome = outcomes[name] = SCENARIOS[name].run()
        for message in outcome.failures:
            print(f"{name}: INVARIANT FAILED: {message}", file=sys.stderr)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            for file_name, writer in outcome.artifacts.items():
                writer(args.out / file_name)
                print(f"{name}: wrote {args.out / file_name}")
    broken = [name for name in names if outcomes[name].failures]

    if args.write:
        if broken:
            print(f"no baseline written: invariants failed in "
                  f"{', '.join(broken)}", file=sys.stderr)
            return 1
        for name in names:
            scenario = SCENARIOS[name]
            baseline = build_baseline(scenario, outcomes[name])
            _write_json(scenario.baseline, baseline)
            print(f"{name}: wrote {scenario.baseline} "
                  f"({len(baseline['metrics'])} metrics)")
        return 0

    status = 1 if broken else 0
    for name in names:
        path = SCENARIOS[name].baseline
        try:
            with open(path) as handle:
                baseline = json.load(handle)
        except FileNotFoundError:
            print(f"{name}: no baseline at {path}; create one with --write",
                  file=sys.stderr)
            status = 2
            continue
        violations = check(outcomes[name].metrics, baseline)
        checked = len(baseline.get("metrics", {}))
        if violations:
            print(f"{name}: {len(violations)} of {checked} metrics "
                  "regressed:")
            for violation in violations:
                print("  " + format_violation(violation))
            status = max(status, 1)
        else:
            print(f"{name}: ok, {checked} metrics within bounds")
    return status


if __name__ == "__main__":
    sys.exit(main())
