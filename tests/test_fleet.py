"""Fleet routing, autoscaling and cache-tier behavior.

Three Hypothesis properties pin the fleet's load-bearing claims:

* **affinity dominance** — on overlapping user streams, match-affinity
  routing never produces a worse mean device cache-hit rate than
  round-robin (the FastGL Match insight survives the lift from batching
  to routing);
* **JSQ scaling** — p99 is monotone non-increasing in replica count at
  a fixed arrival rate (singleton batching, so queueing is the only
  effect);
* **no flapping** — the autoscaler's hysteresis + cooldown never emit a
  scale action within one cooldown window of the previous one,
  whatever occupancy signal it observes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_spec
from repro.config import RunConfig
from repro.graph.datasets import Dataset
from repro.serve import (
    Autoscaler,
    AutoscalerConfig,
    CacheTier,
    CacheTierConfig,
    FleetSpec,
    InferenceRequest,
    JoinShortestQueueRouter,
    MatchAffinityRouter,
    RoundRobinRouter,
    ServeConfig,
    build_router,
    simulate_fleet,
)


@pytest.fixture(scope="module")
def fleet_dataset() -> Dataset:
    spec = make_spec(name="fleet-prop", num_nodes=800, avg_degree=8.0,
                     feature_dim=16, num_classes=4, train_fraction=0.3)
    return Dataset(spec, seed=3)


def _run_config() -> RunConfig:
    return RunConfig(num_gpus=1, fanouts=(3, 3), seed=3)


# -- routers (unit) ----------------------------------------------------------
class FakeReplica:
    def __init__(self, index, load=0, resident=()):
        self.replica_id = index
        self.load = load
        self.resident_nodes = np.asarray(resident, dtype=np.int64)


def _request(seeds):
    return InferenceRequest(req_id=0, arrival=0.0,
                            seeds=np.asarray(seeds, dtype=np.int64),
                            deadline=float("inf"))


def test_round_robin_cycles_in_index_order():
    router = RoundRobinRouter()
    replicas = [FakeReplica(i) for i in range(3)]
    picks = [router.choose(replicas, _request([1])).replica_id
             for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_jsq_picks_shortest_then_lowest_index():
    router = JoinShortestQueueRouter()
    replicas = [FakeReplica(0, load=5), FakeReplica(1, load=2),
                FakeReplica(2, load=2)]
    assert router.choose(replicas, _request([1])).replica_id == 1


def test_match_affinity_routes_to_best_overlap():
    router = MatchAffinityRouter(threshold=0.25)
    replicas = [FakeReplica(0, resident=[100, 101]),
                FakeReplica(1, resident=[1, 2, 3, 4]),
                FakeReplica(2, resident=[1, 2])]
    # Seeds overlap replica 1 and 2 equally in count, but match degree
    # normalizes by the smaller set — tie broken by lowest index.
    assert router.choose(replicas, _request([1, 2])).replica_id == 1


def test_match_affinity_falls_back_to_jsq_below_threshold():
    router = MatchAffinityRouter(threshold=0.5)
    replicas = [FakeReplica(0, load=4, resident=[100]),
                FakeReplica(1, load=1, resident=[200])]
    # No replica clears the threshold for these seeds -> JSQ.
    assert router.choose(replicas, _request([1, 2, 3, 4])).replica_id == 1


def test_match_affinity_bounded_load_guard():
    router = MatchAffinityRouter(threshold=0.1, load_slack=2)
    hot = FakeReplica(0, load=10, resident=[1, 2, 3, 4])
    cold = FakeReplica(1, load=0, resident=[99])
    # Perfect overlap with the hot replica, but it is load_slack past
    # the shortest queue -> affinity may not pick it.
    assert router.choose([hot, cold], _request([1, 2])).replica_id == 1


def test_build_router_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown routing policy"):
        build_router("consistent-hash")


# -- cache tier (unit) -------------------------------------------------------
def test_cache_tier_ttl_split():
    tier = CacheTier(CacheTierConfig(enabled=True, capacity_rows=8,
                                     row_bytes=32, ttl_s=1.0))
    tier.insert(np.array([1, 2, 3]), now=0.0)
    hits, stale, missed = tier.lookup(np.array([1, 2, 3, 4]), now=0.5)
    assert hits.tolist() == [1, 2, 3] and missed.tolist() == [4]
    hits, stale, missed = tier.lookup(np.array([1, 2]), now=2.0)
    assert hits.tolist() == [] and stale.tolist() == [1, 2]
    assert tier.stats.hits == 3 and tier.stats.stale == 2
    assert tier.stats.misses == 1


def test_cache_tier_fifo_eviction_is_deterministic():
    tier = CacheTier(CacheTierConfig(enabled=True, capacity_rows=2,
                                     row_bytes=16, ttl_s=0.0))
    tier.insert(np.array([10]), now=0.0)
    tier.insert(np.array([20]), now=0.1)
    assert tier.insert(np.array([30]), now=0.2) == 1  # evicts 10
    hits, _, missed = tier.lookup(np.array([10, 20, 30]), now=0.3)
    assert missed.tolist() == [10] and hits.tolist() == [20, 30]


# -- hypothesis properties ---------------------------------------------------
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=50),
       users=st.sampled_from([8, 16, 32]))
def test_affinity_hit_rate_dominates_round_robin(fleet_dataset, seed,
                                                 users):
    """Match-affinity never yields a worse mean device cache-hit rate
    than round-robin on overlapping user streams."""
    cfg = ServeConfig(rate=2_000.0, num_requests=150,
                      seeds_per_request=8, max_batch=4,
                      batch_window_s=0.002, queue_capacity=256,
                      slo_s=10.0, seed=seed, num_users=users)
    rates = {}
    for policy in ("round-robin", "match-affinity"):
        report = simulate_fleet(
            "fastgl", fleet_dataset, run_config=_run_config(),
            serve_config=cfg,
            fleet=FleetSpec(num_replicas=4, router=policy))
        rates[policy] = report.device_hit_rate
    assert rates["match-affinity"] >= rates["round-robin"] - 1e-9


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=50),
       rate=st.sampled_from([3_000.0, 8_000.0]))
def test_jsq_p99_monotone_in_replica_count(fleet_dataset, seed, rate):
    """At a fixed arrival rate, adding JSQ replicas never makes p99
    worse (singleton batching isolates the queueing effect)."""
    cfg = ServeConfig(rate=rate, num_requests=150, seeds_per_request=4,
                      max_batch=1, batch_window_s=0.0,
                      queue_capacity=256, slo_s=10.0, seed=seed)
    p99s = []
    for replicas in (1, 2, 4):
        report = simulate_fleet(
            "dgl", fleet_dataset, run_config=_run_config(),
            serve_config=cfg,
            fleet=FleetSpec(num_replicas=replicas, router="jsq"))
        p99s.append(report.p99)
    assert p99s[1] <= p99s[0] + 1e-9
    assert p99s[2] <= p99s[1] + 1e-9


@settings(max_examples=50, deadline=None, derandomize=True)
@given(samples=st.lists(st.floats(min_value=0.0, max_value=1.0),
                        min_size=2, max_size=60),
       cooldown=st.floats(min_value=0.01, max_value=0.2))
def test_autoscaler_never_flaps(samples, cooldown):
    """Whatever occupancy signal arrives, hysteresis + cooldown forbid
    a scale action within one cooldown window of the previous one."""
    scaler = Autoscaler(AutoscalerConfig(
        enabled=True, add_occupancy=0.6, drain_occupancy=0.2,
        interval_s=0.01, cooldown_s=cooldown, min_replicas=1,
        max_replicas=8))
    live = 2
    for i, sample in enumerate(samples):
        now = i * 0.01
        scaler.observe_occupancy(sample)
        action = scaler.decide(now, live)
        if action == "add":
            live += 1
        elif action == "drain":
            live -= 1
    events = scaler.events
    for prev, cur in zip(events, events[1:]):
        assert cur.time - prev.time >= cooldown - 1e-12
        if prev.action == "add":
            # An add is never immediately reversed inside the window.
            assert not (cur.action == "drain"
                        and cur.time - prev.time < cooldown)


def test_autoscaler_hysteresis_requires_dead_band():
    with pytest.raises(ValueError, match="hysteresis"):
        AutoscalerConfig(enabled=True, add_occupancy=0.3,
                         drain_occupancy=0.3)


# -- autoscaler end-to-end ---------------------------------------------------
def test_autoscaler_adds_replicas_under_load(fleet_dataset):
    cfg = ServeConfig(rate=50_000.0, num_requests=300,
                      seeds_per_request=8, max_batch=2,
                      batch_window_s=0.001, queue_capacity=64,
                      slo_s=10.0, seed=1)
    report = simulate_fleet(
        "dgl", fleet_dataset, run_config=_run_config(),
        serve_config=cfg,
        fleet=FleetSpec(num_replicas=1, router="jsq",
                        autoscaler=AutoscalerConfig(
                            enabled=True, add_occupancy=0.2,
                            drain_occupancy=0.05, interval_s=0.002,
                            cooldown_s=0.01, max_replicas=4)))
    adds = [e for e in report.scale_events if e.action == "add"]
    assert adds, "saturated single replica must trigger scale-up"
    assert len(report.replicas) > 1
    assert report.reconciles(1e-6)


def test_fleet_spec_validation():
    with pytest.raises(ValueError, match="num_replicas"):
        FleetSpec(num_replicas=0)
    with pytest.raises(ValueError, match="unknown router"):
        FleetSpec(router="random")
