"""Invariants every declared epoch layout must keep, for every framework.

Each framework declares its epoch as stages on one engine
(:func:`repro.pipeline.pipelined_epoch_layout`); whatever the
declaration, the rendered timeline must be a faithful picture of the
modeled epoch: no lane runs two things at once, the trace ends at
``epoch_time``, and the gradient sync the phases charge is drawn.
"""

from __future__ import annotations

import pytest

from helpers import make_spec
from repro.cluster.spec import ClusterSpec
from repro.config import RunConfig
from repro.frameworks import create
from repro.frameworks.registry import available_frameworks
from repro.graph.datasets import Dataset
from repro.pipeline import PIPELINE_OFF, ExecutionSpec

RECONCILE_TOL = 1e-6
#: Back-to-back spans share an endpoint computed along two summation
#: paths; allow last-ulp disagreement, never a real overlap.
OVERLAP_TOL = 1e-12


@pytest.fixture(scope="module")
def dataset():
    spec = make_spec(name="layouts", num_nodes=600, avg_degree=6.0,
                     feature_dim=8, num_classes=4, train_fraction=0.3)
    return Dataset(spec, seed=11)


def _config() -> RunConfig:
    return RunConfig(batch_size=32, fanouts=(3, 3), num_gpus=3,
                     hidden_dim=8, seed=5)


def _run(name, dataset, mode, nodes=None):
    cluster = ClusterSpec(num_nodes=nodes) if nodes else None
    return create(name).run_epoch(
        dataset, _config(),
        execution=ExecutionSpec(pipeline=mode, cluster=cluster))


@pytest.mark.parametrize("nodes", [None, 2])
@pytest.mark.parametrize("mode", ["off", "pipelined"])
@pytest.mark.parametrize("name", available_frameworks())
def test_layout_invariants(name, mode, nodes, dataset):
    report = _run(name, dataset, mode, nodes)
    spans = report.timeline()
    assert spans

    # Work spans never overlap on a lane; stall spans never overlap
    # within their stage. Retry overlays are nested (depth 1) by design.
    by_track: dict = {}
    for span in spans:
        if span.depth:
            continue
        track = (span.lane, span.args.get("stage"))
        by_track.setdefault(track, []).append(span)
    for track, lane_spans in by_track.items():
        lane_spans.sort(key=lambda s: s.start)
        for a, b in zip(lane_spans, lane_spans[1:]):
            assert a.end <= b.start + OVERLAP_TOL, (track, a, b)

    extent = max(span.end for span in spans)
    assert abs(extent - report.epoch_time) <= RECONCILE_TOL

    stages, _ = create(name)._epoch_stages(_config(), nodes or 1,
                                           PIPELINE_OFF, False)
    if mode == "off" and len(stages) == 1 and stages[0].lane is None:
        # Lockstep: every trainer attends every sync, so every gpuN lane
        # ends exactly at the epoch makespan.
        ends: dict = {}
        for span in spans:
            ends[span.lane] = max(ends.get(span.lane, 0.0), span.end)
        assert set(ends) == {f"gpu{t}" for t in range(report.num_trainers)}
        for end in ends.values():
            assert end == pytest.approx(report.epoch_time,
                                        abs=RECONCILE_TOL)


@pytest.mark.parametrize("mode", ["off", "pipelined"])
@pytest.mark.parametrize("name", available_frameworks())
def test_allreduce_is_drawn(name, mode, dataset):
    """Every lane that carries the gradient sync carries all of it —
    no layout may hide the allreduce inside another span."""
    report = create(name).run_epoch(
        dataset, RunConfig(batch_size=32, fanouts=(3, 3), num_gpus=2,
                           hidden_dim=8, seed=5),
        execution=ExecutionSpec(pipeline=mode))
    per_lane: dict = {}
    for span in report.timeline():
        if span.category == "allreduce":
            per_lane[span.lane] = per_lane.get(span.lane, 0.0) + \
                span.duration
    if report.phases.allreduce > 0:
        assert per_lane
    for total in per_lane.values():
        assert total == pytest.approx(report.phases.allreduce, rel=1e-9)
