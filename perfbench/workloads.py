"""The benchmark's three whole-scenario workloads.

Each workload is one call into the public API (:func:`repro.api.run` or
:func:`repro.api.serve`) on inputs generated from the workload seed. The
seed feeds the dataset generator and ``RunConfig.seed`` /
``ServeConfig.seed``; nothing else varies between runs. Faults are off
and ``jobs=1`` throughout.

A workload also knows how to check one run's outputs (invariants that
hold at any seed), which modeled values pin its results (compared with
``reference.json`` at the default seed, and between the runs of one
process), and which modeled numbers it reports. "Batch" means a
training mini-batch on the epoch workloads and a served micro-batch on
the fleet; "seeds" are the target nodes those batches computed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro import api
from repro.api import ExecutionSpec, FleetSpec, RunConfig, ServeConfig
from repro.cluster.spec import ClusterSpec
from repro.graph.datasets import DATASETS, Dataset
from repro.serve.cache_tier import CacheTierConfig
from repro.serve.fleet import fleet_demo_dataset

#: Tolerance of the extent-vs-makespan reconciliation checks (seconds).
RECONCILE_TOL = 1e-6


def _percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) * 1e3


@dataclass(frozen=True)
class EpochWorkload:
    """One ``api.run`` epoch of ``fastgl`` on a generated dataset."""

    name: str
    #: ``seed -> Dataset``.
    make_dataset: object
    #: ``RunConfig`` fields other than ``seed``.
    config: dict
    cluster: ClusterSpec | None = None
    pipeline: str = "off"
    framework: str = "fastgl"

    def describe(self) -> dict:
        return {"api": "repro.api.run", "framework": self.framework,
                "config": dict(self.config), "pipeline": self.pipeline,
                "cluster": repr(self.cluster)}

    def run(self, dataset, seed: int):
        return api.run(
            self.framework, dataset,
            config=RunConfig(seed=seed, **self.config),
            exec=ExecutionSpec(cluster=self.cluster, pipeline=self.pipeline),
        )

    #: Operations one run counts as: the run itself.
    operations_per_run = 1

    @staticmethod
    def batches(report) -> int:
        return report.num_batches

    def seeds(self, report, dataset) -> int:
        # Every training node lands in exactly one mini-batch per epoch.
        return len(dataset.train_ids) * self.config.get("num_epochs", 1)

    @staticmethod
    def operations(report) -> tuple:
        """``(attempted, failed)`` inside one finished run: the run."""
        return 1, 0

    @staticmethod
    def check(report) -> list:
        """Invariants that hold at any seed; returns the violations."""
        problems = []
        extent = max((s.end for s in report.timeline()), default=0.0)
        if abs(extent - report.epoch_time) > RECONCILE_TOL:
            problems.append(f"timeline extent {extent!r} != epoch_time "
                            f"{report.epoch_time!r}")
        if report.num_batches <= 0 or not report.epoch_time > 0:
            problems.append("empty epoch")
        if report.losses and (
                len(report.losses) != report.num_batches
                or not all(math.isfinite(x) for x in report.losses)):
            problems.append("expected one finite loss per batch")
        return problems

    @staticmethod
    def modeled(report) -> dict:
        """The modeled outputs a host-only change must leave alone."""
        return {
            "epoch_time": report.epoch_time,
            "num_batches": report.num_batches,
            "phases": {key: getattr(report.phases, key) for key in (
                "sample", "idmap", "memory_io", "network", "compute",
                "preprocess", "allreduce")},
            "transfer": {key: int(getattr(report.transfer, key)) for key in (
                "num_wanted", "num_loaded", "num_reused", "num_cache_hits",
                "feature_bytes", "structure_bytes")},
            "losses": [float(x) for x in report.losses],
        }

    @staticmethod
    def _batch_latencies(report) -> list:
        """Modeled sample + IO + compute seconds of every mini-batch."""
        return [sum(it) for lane in report.extras["iterations"]
                for it in lane]

    def modeled_end_to_end(self, report) -> dict:
        return {"modeled_s": report.epoch_time,
                "modeled_p99_ms": _percentile_ms(
                    self._batch_latencies(report), 99)}

    @staticmethod
    def detail(report, run_times) -> dict:
        """Numbers printed beside the result that no gate reads."""
        out = {"modeled_epoch_s": report.epoch_time}
        if report.losses:
            out["train_loss"] = report.avg_loss
        return out

    def modeled_layers(self, report) -> dict:
        """Modeled phase seconds (``sample`` excludes the ID map), the
        pipeline's stall seconds and the per-batch median latency."""
        phases = report.phases
        stalls = report.extras.get("pipeline", {}).get("stall_seconds", {})
        return {
            "modeled.sample_s": phases.sample - phases.idmap,
            "modeled.idmap_s": phases.idmap,
            "modeled.memory_io_s": phases.memory_io,
            "modeled.network_s": phases.network,
            "modeled.compute_s": phases.compute,
            "modeled.allreduce_s": phases.allreduce,
            "modeled.stall_s": float(sum(stalls.values())),
            "modeled.p50_ms": _percentile_ms(
                self._batch_latencies(report), 50),
            "modeled.device_hit_rate": report.cache_stats().resident_rate,
        }

    @staticmethod
    def report_counters(report) -> dict:
        """Per-layer counters read from the report rather than a span."""
        halo = report.extras.get("cluster", {}).get("halo", {})
        return {"cluster.halo.hit_rate": float(halo.get("hit_rate", 0.0)),
                "cluster.halo.bytes": int(halo.get("bytes_moved", 0))}


@dataclass(frozen=True)
class FleetWorkload:
    """One ``api.serve`` fleet simulation of ``fastgl`` replicas."""

    name: str
    #: ``seed -> Dataset``.
    make_dataset: object
    #: ``ServeConfig`` fields other than ``seed``.
    serve: dict
    fleet: FleetSpec
    framework: str = "fastgl"

    def describe(self) -> dict:
        return {"api": "repro.api.serve", "framework": self.framework,
                "serve": dict(self.serve), "fleet": repr(self.fleet)}

    def run(self, dataset, seed: int):
        return api.serve(
            self.framework, dataset,
            run_config=RunConfig(num_gpus=1, seed=seed),
            serve_config=ServeConfig(seed=seed, **self.serve),
            fleet=self.fleet,
        )

    @property
    def operations_per_run(self) -> int:
        """Operations one run counts as: each scheduled request."""
        return self.serve["num_requests"]

    @staticmethod
    def batches(report) -> int:
        return sum(len(replica.batches) for replica in report.replicas)

    @staticmethod
    def seeds(report, dataset) -> int:
        return sum(len(r.seeds) for r in report.requests
                   if r.outcome == "completed")

    @staticmethod
    def operations(report) -> tuple:
        """``(attempted, failed)``: each scheduled request; a shed or
        dropped request failed."""
        return len(report.requests), report.num_shed + report.num_dropped

    def check(self, report) -> list:
        problems = []
        if not report.reconciles(RECONCILE_TOL):
            problems.append("fleet timeline does not reconcile with the "
                            "makespan")
        scheduled = len(report.requests)
        if report.num_terminal != scheduled:
            problems.append(f"completed+shed+dropped={report.num_terminal} "
                            f"!= scheduled={scheduled}")
        if scheduled != self.serve["num_requests"]:
            problems.append(f"scheduled {scheduled} requests, expected "
                            f"{self.serve['num_requests']}")
        return problems

    @staticmethod
    def modeled(report) -> dict:
        return {
            "makespan": report.makespan,
            "requests": [
                [r.req_id, r.outcome,
                 r.latency if r.outcome == "completed" else None]
                for r in sorted(report.requests, key=lambda r: r.req_id)],
        }

    @staticmethod
    def modeled_end_to_end(report) -> dict:
        return {"modeled_s": report.makespan,
                "modeled_p99_ms": report.p99 * 1e3}

    @staticmethod
    def detail(report, run_times) -> dict:
        """Numbers printed beside the result that no gate reads."""
        return {"modeled_p99_ms": report.p99 * 1e3,
                "requests_per_s": float(np.median(
                    [report.num_completed / t for t in run_times]))}

    @staticmethod
    def modeled_layers(report) -> dict:
        """Replica busy seconds per serving phase (``sample`` includes
        the ID map there), request p50 and device (Match) hit rate."""
        busy: dict = {}
        for replica in report.replicas:
            for phase, seconds in replica.phase_busy.items():
                busy[phase] = busy.get(phase, 0.0) + seconds
        return {
            "modeled.sample_s": busy.get("sample", 0.0),
            "modeled.idmap_s": 0.0,
            "modeled.memory_io_s": busy.get("memory_io", 0.0),
            "modeled.network_s": 0.0,
            "modeled.compute_s": busy.get("compute", 0.0),
            "modeled.allreduce_s": 0.0,
            "modeled.stall_s": 0.0,
            "modeled.p50_ms": report.p50 * 1e3,
            "modeled.device_hit_rate": report.device_hit_rate,
        }

    def report_counters(self, report) -> dict:
        return {"serve.batches": self.batches(report),
                "serve.tier.hit_rate": report.tier_hit_rate,
                "serve.device_hit_rate": report.device_hit_rate}


def _dataset(name: str):
    return functools.partial(Dataset, DATASETS[name])


#: Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    # The paper's large-scale regime: the cache is far smaller than the
    # working set, and the run crosses the cluster layer.
    EpochWorkload(
        name="cluster-papers",
        make_dataset=_dataset("papers100m"),
        config={"num_gpus": 2},
        cluster=ClusterSpec(num_nodes=4, partitioner="greedy",
                            remote_cache="freq"),
        pipeline="pipelined",
    ),
    # The single-worker baseline with real autograd; the cache holds
    # the whole working set.
    EpochWorkload(
        name="train-products",
        make_dataset=_dataset("products"),
        config={"num_gpus": 1, "train_model": True},
        pipeline="off",
    ),
    # Many tiny micro-batches instead of a few large ones, with routing
    # and the shared cache tier on the request path.
    FleetWorkload(
        name="fleet-affinity",
        make_dataset=functools.partial(fleet_demo_dataset, "fleet-smoke"),
        serve={"rate": 2000.0, "num_requests": 2000, "seeds_per_request": 16,
               "num_users": 32, "max_batch": 4, "batch_window_s": 0.002,
               "queue_capacity": 512, "slo_s": 5.0},
        fleet=FleetSpec(num_replicas=4, router="match-affinity",
                        cache=CacheTierConfig(enabled=True)),
    ),
)}
