"""Online inference serving for sampled GNNs (modeled time).

The paper optimizes the three phases of sampling-based *training*;
online *serving* runs the same three phases per request — sample the
k-hop neighborhood, fetch its feature rows, aggregate — so the same
GPU-efficiency techniques (Fused-Map, Match residency, Memory-Aware
aggregation) decide serving latency too. This package simulates that
request path end to end:

    arrivals -> admission control -> micro-batching -> GPU hot path

Quickstart::

    from repro import get_dataset
    from repro.serve import ServeConfig, simulate

    report = simulate("fastgl", get_dataset("reddit"),
                      serve_config=ServeConfig(rate=800, num_requests=300))
    print(report.summary())          # p50/p95/p99, throughput, shed rate

or from the command line (dgl vs fastgl over a rate sweep)::

    python -m repro.experiments ext_serve
"""

from repro.serve.autoscale import Autoscaler, AutoscalerConfig, ScaleEvent
from repro.serve.batcher import (
    MicroBatch,
    MicroBatcher,
    plan_dispatch_order,
    select_next_batch,
)
from repro.serve.cache_tier import CacheTier, CacheTierConfig, CacheTierStats
from repro.serve.fleet import FleetReport, FleetSim, FleetSpec, simulate_fleet
from repro.serve.profiles import ServiceTimes, ServingProfile
from repro.serve.request import (
    ARRIVAL_PROCESSES,
    InferenceRequest,
    RequestQueue,
    build_schedule,
    bursty_arrivals,
    diurnal_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
    replay_arrivals,
)
from repro.serve.routing import (
    ROUTER_POLICIES,
    JoinShortestQueueRouter,
    MatchAffinityRouter,
    RoundRobinRouter,
    Router,
    build_router,
)
from repro.serve.server import (
    LATENCY_BUCKETS,
    ReplicaEngine,
    ServeConfig,
    ServeReport,
    ServerSim,
    simulate,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "Autoscaler",
    "AutoscalerConfig",
    "CacheTier",
    "CacheTierConfig",
    "CacheTierStats",
    "FleetReport",
    "FleetSim",
    "FleetSpec",
    "InferenceRequest",
    "JoinShortestQueueRouter",
    "LATENCY_BUCKETS",
    "MatchAffinityRouter",
    "MicroBatch",
    "MicroBatcher",
    "ROUTER_POLICIES",
    "ReplicaEngine",
    "RequestQueue",
    "RoundRobinRouter",
    "Router",
    "ScaleEvent",
    "ServeConfig",
    "ServeReport",
    "ServerSim",
    "ServiceTimes",
    "ServingProfile",
    "build_router",
    "build_schedule",
    "bursty_arrivals",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
    "plan_dispatch_order",
    "poisson_arrivals",
    "replay_arrivals",
    "select_next_batch",
    "simulate",
    "simulate_fleet",
]
