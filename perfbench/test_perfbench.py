"""Tests of the benchmark itself, on shrunken copies of its workloads.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.graph.datasets import Dataset, DatasetSpec, PaperScale  # noqa: E402
from repro.obs.trace import Span  # noqa: E402

#: Not the default seed, so the full-size reference is not consulted.
SEED = 1


def _tiny(name: str, nodes: int, dim: int, train: float):
    spec = DatasetSpec(name=name, num_nodes=nodes, avg_degree=12.0,
                       feature_dim=dim, num_classes=8, train_fraction=train,
                       paper=PaperScale(nodes * 100, nodes * 1200, 1 << 28))
    return functools.partial(Dataset, spec)


SMALL = {
    "cluster-papers": dataclasses.replace(
        workloads.WORKLOADS["cluster-papers"],
        make_dataset=_tiny("tiny-papers", 6000, 32, 0.15),
        config={"num_gpus": 2, "batch_size": 32}),
    "train-products": dataclasses.replace(
        workloads.WORKLOADS["train-products"],
        make_dataset=_tiny("tiny-products", 3000, 24, 0.2),
        config={"num_gpus": 1, "train_model": True, "batch_size": 64,
                "hidden_dim": 16}),
    "fleet-affinity": dataclasses.replace(
        workloads.WORKLOADS["fleet-affinity"],
        serve=dict(workloads.WORKLOADS["fleet-affinity"].serve,
                   num_requests=120)),
}


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", SMALL)


def _main(*argv) -> tuple:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run.main(list(argv))
    lines = buffer.getvalue().strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    code, extra, result = _main("--workload", name, "--seed", str(SEED),
                                "--seconds", "0.01", "--trace", str(trace))
    assert code == 0, extra["detail"]["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), key
        if not trace:
            assert metric["value"] > 0, key
    provenance = extra["provenance"]
    for key in ("spec", "seed", "python", "numpy", "git_sha", "nproc",
                "blas", "host_seconds"):
        assert key in provenance
    assert provenance["seed"] == SEED
    if trace:
        events = json.loads(
            (tmp_path / f"trace-{name}-seed{SEED}.json").read_text())
        assert {e["pid"] for e in events["traceEvents"]} == \
            {f"{name}/seed{SEED}/run0"}


@pytest.mark.parametrize("name", list(SMALL))
def test_self_times_add_up_to_the_traced_run(name, tmp_path):
    ledger = run.Ledger(SMALL[name])
    metrics, _ = run.measure_layers(SMALL[name], SEED, 0.01, ledger,
                                    tmp_path / "trace.json")
    assert ledger.correct, ledger.problems
    own = sum(v for k, v in metrics.items()
              if k.endswith(".self_s") and not k.startswith("modeled."))
    assert own == pytest.approx(metrics["trace.run_s"], rel=0.05)
    assert metrics["sampling.calls"] > 0
    assert metrics["transfer.plan.calls"] > 0


def test_workload_layers_are_traced_where_they_run(tmp_path):
    seen = {}
    for name, workload in SMALL.items():
        ledger = run.Ledger(workload)
        seen[name], _ = run.measure_layers(workload, SEED, 0.01, ledger,
                                           tmp_path / f"{name}.json")
    assert seen["cluster-papers"]["cluster.halo.calls"] > 0
    assert seen["cluster-papers"]["cluster.partition.self_s"] > 0
    assert seen["cluster-papers"]["reorder.calls"] > 0
    assert seen["train-products"]["nn.steps"] > 0
    assert seen["train-products"]["graph.gather.rows"] > 0
    assert seen["train-products"]["cluster.halo.calls"] == 0
    assert seen["fleet-affinity"]["serve.route.calls"] == 120
    assert seen["fleet-affinity"]["serve.tier.calls"] > 0
    assert seen["fleet-affinity"]["nn.steps"] == 0


def _bindings_now() -> list:
    return [(owner, attr, value) for probe in layers.PROBES
            for owner, attr, value in layers._bindings(probe)]


def test_wrappers_are_absent_from_untraced_runs():
    workload = SMALL["fleet-affinity"]
    dataset = workload.make_dataset(seed=SEED)
    workload.run(dataset, SEED)  # load every module the run touches
    before = _bindings_now()
    recorder = layers.LayerRecorder()
    with layers.traced(recorder):
        assert layers.installed_wrappers()
        workload.run(dataset, SEED)
    assert not layers.installed_wrappers()
    after = _bindings_now()
    assert [(o, a) for o, a, _ in after] == [(o, a) for o, a, _ in before]
    assert all(x is y for (_, _, x), (_, _, y) in zip(before, after))
    spans, stats = len(recorder.tracer.spans), dict(recorder.stats)
    workload.run(dataset, SEED)
    assert len(recorder.tracer.spans) == spans and recorder.stats == stats


def test_wrappers_removed_when_the_traced_run_raises():
    with pytest.raises(RuntimeError):
        with layers.traced(layers.LayerRecorder()):
            raise RuntimeError("boom")
    assert not layers.installed_wrappers()


@pytest.mark.parametrize("name", list(SMALL))
def test_seed_changes_the_generated_inputs(name):
    make = SMALL[name].make_dataset
    first, again, other = make(seed=3), make(seed=3), make(seed=4)
    assert np.array_equal(first.graph.indices, again.graph.indices)
    assert np.array_equal(first.train_ids, again.train_ids)
    assert not (np.array_equal(first.graph.indices, other.graph.indices)
                and np.array_equal(first.train_ids, other.train_ids))
    workload = SMALL[name]
    assert workload.modeled(workload.run(first, 3)) != \
        workload.modeled(workload.run(other, 4))


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("driver", 0.0, 10.0, depth=0),
        Span("a", 1.0, 4.0, depth=1),
        Span("b", 2.0, 1.0, depth=2),
        Span("c", 3.5, 0.5, depth=2),
        Span("a", 6.0, 2.0, depth=1),
    ]
    own = layers.self_times(spans)
    assert own == pytest.approx({"driver": 4.0, "a": 4.5, "b": 1.0,
                                 "c": 0.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_reference_comparison_flags_changed_values_only():
    reference = {"t": 1.0, "n": 3, "xs": [0.5, None, "completed"]}
    same = {"t": 1.0 + 1e-13, "n": 3, "xs": [0.5, None, "completed"]}
    assert run._mismatches(reference, same) == []
    changed = {"t": 1.0 + 1e-6, "n": 3, "xs": [0.5, None, "dropped"]}
    assert len(run._mismatches(reference, changed)) == 2


def test_failed_check_counts_against_the_run(monkeypatch):
    workload = SMALL["train-products"]
    monkeypatch.setattr(type(workload), "check",
                        staticmethod(lambda report: ["broken"]))
    ledger = run.Ledger(workload)
    ledger.run(workload.make_dataset(seed=SEED), SEED)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert not ledger.correct


def test_exits_nonzero_without_program_source(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run.main(["--workload", "fleet-affinity"])
    assert code != 0 and buffer.getvalue() == ""
