"""Planet-scale serving-fleet simulation.

:class:`FleetSim` runs N :class:`~repro.serve.server.ReplicaEngine`
replicas on **one** shared event loop behind a pluggable
:class:`~repro.serve.routing.Router` — the same discrete-event clock
the single server always used, so a fleet of one replica is
bit-identical to :class:`~repro.serve.server.ServerSim` (pinned by the
fleet conformance suite). On top of the replica set sit the fleet-only
mechanisms:

* an :class:`~repro.serve.autoscale.Autoscaler` sampling queue
  occupancy (EWMA) and a running p99 estimate, adding or draining
  replicas mid-trace under cooldown + hysteresis;
* a fleet-shared :class:`~repro.serve.cache_tier.CacheTier` of
  embedding rows with TTL staleness (every replica runs on the one
  event loop, so the tier is ordinary process memory);
* **replica loss** via the ``replica_crash`` fault site: a killed
  replica's queued/batching/in-flight requests are recovered and
  re-routed (never silently lost), the router re-anchors, and the
  availability accounting keeps an exact ledger
  (``completed + shed + dropped + outage == scheduled``);
* a :class:`FleetReport` reconciling every replica's modeled timeline
  against the fleet makespan, with fleet-level p50/p95/p99,
  throughput, availability and the cache-hit tier split.

Entry points: :func:`simulate_fleet` (mirrors
:func:`repro.serve.server.simulate`) and
``api.serve(fleet=FleetSpec(...))``; ``python -m repro.experiments
ext_fleet_routing`` compares the routing policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import RunConfig
from repro.faults import get_fault_plan
from repro.obs import get_registry
from repro.serve.autoscale import Autoscaler, AutoscalerConfig
from repro.serve.cache_tier import CacheTier, CacheTierConfig
from repro.serve.profiles import ServingProfile
from repro.serve.routing import ROUTER_POLICIES, build_router
from repro.serve.server import (
    ReplicaEngine,
    ServeConfig,
    ServeReport,
    schedule_requests,
)
from repro.serve.request import AdmissionStats
from repro.sim.events import EventLoop

#: Crash windows land inside the arrival horizon: fraction bounds of
#: the schedule's last arrival time.
CRASH_WINDOW = (0.1, 0.9)


@dataclass(frozen=True)
class FleetSpec:
    """Topology + policy of one serving fleet."""

    #: Replicas at t=0 (the autoscaler may add/drain more).
    num_replicas: int = 1
    #: Routing policy: "round-robin", "jsq" or "match-affinity".
    router: str = "round-robin"
    #: Match-affinity score floor; below it the router falls back to JSQ.
    match_threshold: float = 0.125
    autoscaler: AutoscalerConfig = AutoscalerConfig()
    cache: CacheTierConfig = CacheTierConfig()

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.router not in ROUTER_POLICIES:
            raise ValueError(
                f"unknown router {self.router!r}; registered: "
                f"{sorted(ROUTER_POLICIES)}")


@dataclass
class FleetReport:
    """Everything one fleet simulation produced."""

    framework: str
    dataset: str
    config: ServeConfig
    spec: FleetSpec
    #: The full request schedule (terminal outcomes set in place).
    requests: list
    #: Per-replica :class:`ServeReport`, index = replica id; replicas
    #: added by the autoscaler appear after the initial set.
    replicas: list
    #: Fleet clock at the last terminal event (exit or crash).
    makespan: float
    scale_events: list = field(default_factory=list)
    #: ``(time, replica_id, requests_recovered)`` per injected crash.
    crash_events: list = field(default_factory=list)
    #: Requests recovered from crashed replicas and offered again.
    rerouted: int = 0
    #: Requests shed because no replica was accepting traffic.
    outage_shed: int = 0
    #: Fleet-level spans (outage sheds) outside any replica timeline.
    orphan_timeline: list = field(default_factory=list)
    #: Shared cache tier counters (None when the tier was disabled).
    cache: object = None

    # -- request outcomes ----------------------------------------------------
    @property
    def num_completed(self) -> int:
        return sum(1 for r in self.requests if r.outcome == "completed")

    @property
    def num_shed(self) -> int:
        return sum(1 for r in self.requests if r.outcome == "shed")

    @property
    def num_dropped(self) -> int:
        return sum(1 for r in self.requests if r.outcome == "dropped")

    @property
    def num_terminal(self) -> int:
        return self.num_completed + self.num_shed + self.num_dropped

    @property
    def availability(self) -> float:
        """Completed fraction of everything scheduled — the SLO ledger
        a crash dents exactly by what could not be re-routed."""
        if not self.requests:
            return 1.0
        return self.num_completed / len(self.requests)

    @property
    def admission(self) -> AdmissionStats:
        """Merged admission counters across every replica."""
        total = AdmissionStats()
        for report in self.replicas:
            if report.admission is not None:
                total.merge(report.admission)
        return total

    # -- latency / throughput ------------------------------------------------
    @property
    def latencies(self) -> np.ndarray:
        return np.array([r.latency for r in self.requests
                         if r.outcome == "completed"], dtype=float)

    def percentile(self, q: float) -> float:
        lat = self.latencies
        if len(lat) == 0:
            return float("nan")
        return float(np.percentile(lat, q))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean_latency(self) -> float:
        lat = self.latencies
        return float(lat.mean()) if len(lat) else float("nan")

    @property
    def throughput(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.num_completed / self.makespan

    # -- cache tiers ---------------------------------------------------------
    @property
    def device_hit_rate(self) -> float:
        """Replica-device (Match residency) reuse: reused / wanted rows
        summed over every replica's transfer accounting."""
        wanted = reused = 0
        for report in self.replicas:
            if report.transfer is not None:
                wanted += report.transfer.num_wanted
                reused += report.transfer.num_reused
        return reused / wanted if wanted else 0.0

    @property
    def tier_hit_rate(self) -> float:
        """Shared-tier fresh-hit rate (0.0 when the tier was off)."""
        return self.cache.hit_rate if self.cache is not None else 0.0

    @property
    def tier_stale_rate(self) -> float:
        return self.cache.stale_rate if self.cache is not None else 0.0

    # -- timeline ------------------------------------------------------------
    def merged_timeline(self) -> list:
        """Every replica's spans plus fleet-level orphan spans."""
        spans = []
        for report in self.replicas:
            spans.extend(report.timeline)
        spans.extend(self.orphan_timeline)
        return spans

    @property
    def timeline_extent(self) -> float:
        spans = self.merged_timeline()
        if not spans:
            return 0.0
        return max(s["start"] + s["dur"] for s in spans)

    def reconciles(self, tol: float = 1e-6) -> bool:
        """Fleet timeline extent must match the fleet makespan, and each
        replica's own timeline must reconcile with its lifetime."""
        if abs(self.timeline_extent - self.makespan) > tol:
            return False
        return all(r.reconciles(tol) for r in self.replicas)

    def summary(self) -> str:
        tier = (f", tier hit {self.tier_hit_rate:.0%}"
                if self.cache is not None else "")
        return (
            f"fleet[{self.spec.router} x{len(self.replicas)}] "
            f"{self.framework} served {self.num_completed}/"
            f"{len(self.requests)} on {self.dataset}: "
            f"p50 {self.p50 * 1e3:.2f}ms, p99 {self.p99 * 1e3:.2f}ms, "
            f"{self.throughput:.0f} req/s, "
            f"availability {self.availability:.1%}, "
            f"device hit {self.device_hit_rate:.0%}{tier}, "
            f"rerouted {self.rerouted}, outage {self.outage_shed}"
        )


class FleetSim:
    """N serving replicas, one event loop, one router.

    ``profile_factory`` builds one fresh :class:`ServingProfile` per
    replica (each replica owns its device residency state, exactly like
    N independent GPUs). The factory runs once per initial replica and
    once per autoscaler add.
    """

    def __init__(self, profile_factory, serve_config: ServeConfig,
                 spec: FleetSpec) -> None:
        self.profile_factory = profile_factory
        self.serve_config = serve_config or ServeConfig()
        self.spec = spec or FleetSpec()

    def run(self) -> FleetReport:
        cfg = self.serve_config
        spec = self.spec
        loop = EventLoop()
        plan = get_fault_plan()
        router = build_router(spec.router, spec.match_threshold)
        autoscaler = (Autoscaler(spec.autoscaler)
                      if spec.autoscaler.enabled else None)
        cache = CacheTier(spec.cache) if spec.cache.enabled else None

        engines: list = []
        orphan_timeline: list = []
        crash_events: list = []
        state = {"terminal": 0, "rerouted": 0, "outage": 0,
                 "last_exit": 0.0}

        registry = get_registry()
        obs_routed = registry.counter(
            "repro_fleet_routed_total",
            "Requests routed to a replica, by policy",
        ).labels(policy=spec.router)
        obs_rerouted = registry.counter(
            "repro_fleet_rerouted_total",
            "Requests recovered from crashed replicas and re-routed",
        )
        obs_outage = registry.counter(
            "repro_fleet_outage_shed_total",
            "Requests shed because no replica was accepting",
        )

        def on_exit(request, now):
            state["terminal"] += 1
            state["last_exit"] = max(state["last_exit"], now)
            if autoscaler is not None and request.outcome == "completed":
                autoscaler.observe_latency(request.latency)

        def new_engine() -> ReplicaEngine:
            engine = ReplicaEngine(
                loop, self.profile_factory(), cfg,
                replica_id=len(engines), cache_tier=cache,
                fault_plan=plan)
            engine.on_exit = on_exit
            engines.append(engine)
            return engine

        for _ in range(spec.num_replicas):
            new_engine()
        requests = schedule_requests(engines[0].profile, cfg)
        horizon = requests[-1].arrival if requests else 0.0

        def route(request, now) -> None:
            accepting = [e for e in engines if e.accepting]
            if not accepting:
                # Total outage: nothing can take the request; it is
                # shed at fleet level and charged to availability.
                request.outcome = "shed"
                orphan_timeline.append({
                    "lane": "requests",
                    "name": f"outage[{request.req_id}]",
                    "cat": "queue", "start": request.arrival,
                    "dur": max(0.0, now - request.arrival),
                    "request": request.req_id,
                })
                state["outage"] += 1
                obs_outage.inc()
                on_exit(request, now)
                return
            replica = router.choose(accepting, request)
            obs_routed.inc()
            replica.offer(request, now)

        def arrivals():
            for request in requests:
                yield max(0.0, request.arrival - loop.now)
                route(request, loop.now)

        def crash(engine) -> None:
            if not engine.alive:
                return
            now = loop.now
            plan.record("replica_crash", engine.replica_id, 0, "crash")
            router.replica_lost(engine)
            stranded = engine.crash(now)
            crash_events.append((now, engine.replica_id, len(stranded)))
            for request in stranded:
                state["rerouted"] += 1
                obs_rerouted.inc()
                route(request, now)

        if plan.enabled and plan.spec("replica_crash") is not None:
            lo, hi = CRASH_WINDOW
            for engine in list(engines):
                if plan.should_crash("replica_crash",
                                     key=engine.replica_id, attempt=0):
                    frac = plan.jitter_rng(
                        "replica_crash", engine.replica_id).random()
                    at = (lo + (hi - lo) * frac) * horizon
                    loop.call_later(at, lambda e=engine: crash(e))

        def monitor():
            interval = spec.autoscaler.interval_s
            deadline = horizon * 10.0 + 10.0  # runaway backstop
            while state["terminal"] < len(requests):
                yield interval
                if (state["terminal"] >= len(requests)
                        or loop.now > deadline):
                    return
                live = [e for e in engines if e.accepting]
                # Total outage reads as full pressure: the controller
                # is the only path back to serving (replica restart).
                occupancy = 1.0 if not live else float(np.mean(
                    [e.load / cfg.queue_capacity for e in live]))
                autoscaler.observe_occupancy(occupancy)
                action = autoscaler.decide(loop.now, len(live))
                if action == "add":
                    new_engine().spawn()
                elif action == "drain":
                    victim = live[-1]  # youngest accepting replica
                    victim.draining = True
                    victim.stopped_at = loop.now
                    router.replica_lost(victim)

        # Spawn order mirrors ServerSim (arrivals, then each replica's
        # batching + gpu) so a one-replica fleet replays bit-identically.
        loop.spawn(arrivals())
        for engine in engines:
            engine.spawn()
        if autoscaler is not None and requests:
            loop.spawn(monitor())
        loop.run()

        # The loop's end time can trail the last terminal event (stale
        # monitor wake-ups, abandoned in-flight service); the fleet
        # clock stops at the last exit or crash instead.
        makespan = max([state["last_exit"]]
                       + [e.crashed_at for e in engines
                          if e.crashed_at is not None])

        replica_reports = []
        for engine in engines:
            touched = sorted(engine.touched, key=lambda r: r.req_id)
            span = engine.last_exit
            if engine.crashed_at is not None:
                span = max(span, engine.crashed_at)
            replica_reports.append(engine.report(touched, span))

        cache_stats = cache.stats if cache is not None else None

        report = FleetReport(
            framework=engines[0].profile.name,
            dataset=engines[0].profile.dataset.name,
            config=cfg,
            spec=spec,
            requests=requests,
            replicas=replica_reports,
            makespan=makespan,
            scale_events=(list(autoscaler.events)
                          if autoscaler is not None else []),
            crash_events=crash_events,
            rerouted=state["rerouted"],
            outage_shed=state["outage"],
            orphan_timeline=orphan_timeline,
            cache=cache_stats,
        )
        registry.gauge(
            "repro_fleet_availability",
            "Completed fraction of scheduled requests",
        ).labels(policy=spec.router).set(report.availability)
        return report


def fleet_demo_dataset(name: str = "fleet-smoke", seed: int = 0):
    """The fleet gate's self-contained dataset: wide feature rows so
    memory IO dominates modeled service time and routing locality is
    visible in p99 (shared by the ``fleet`` gate scenario and the
    ext_fleet experiments)."""
    from repro.graph.datasets import Dataset, DatasetSpec, PaperScale

    spec = DatasetSpec(
        name=name,
        num_nodes=4000,
        avg_degree=16.0,
        feature_dim=4096,
        num_classes=8,
        train_fraction=0.3,
        paper=PaperScale(400_000, 6_400_000, 1 << 30),
    )
    return Dataset(spec, seed=seed)


def simulate_fleet(
    framework,
    dataset,
    *,
    run_config: RunConfig | None = None,
    serve_config: ServeConfig | None = None,
    fleet: FleetSpec | None = None,
    model: str = "gcn",
    spec=None,
) -> FleetReport:
    """Build per-replica profiles for ``framework`` and run one fleet."""
    run_config = run_config or RunConfig(num_gpus=1)

    def factory() -> ServingProfile:
        return ServingProfile.build(framework, dataset, run_config,
                                    model=model, spec=spec)

    return FleetSim(factory, serve_config or ServeConfig(),
                    fleet or FleetSpec()).run()
