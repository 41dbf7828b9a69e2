"""Shared ID-map interface and work accounting."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.config import CostModelConfig, DEFAULT_COST_MODEL
from repro.obs import get_registry


@dataclass(frozen=True)
class IdMapReport:
    """Counted device work of one (or several, when summed) ID maps."""

    num_input_ids: int = 0
    num_unique: int = 0
    #: atomicCAS executions (hash-table key insertions, incl. duplicates).
    cas_ops: int = 0
    #: Extra CAS retries from linear probing past occupied slots.
    probe_retries: int = 0
    #: atomicAdd executions (Fused-Map local-ID allocation).
    add_ops: int = 0
    #: Thread-synchronization events (baseline step-2; zero for Fused-Map).
    sync_events: int = 0
    #: Hash-table reads in the translate kernel.
    lookups: int = 0
    kernel_launches: int = 0
    #: "gpu" or "cpu"; decides which throughput constants apply.
    device: str = "gpu"

    def __add__(self, other: "IdMapReport") -> "IdMapReport":
        if self.device != other.device:
            raise ValueError("cannot sum reports from different devices")
        return IdMapReport(
            num_input_ids=self.num_input_ids + other.num_input_ids,
            num_unique=self.num_unique + other.num_unique,
            cas_ops=self.cas_ops + other.cas_ops,
            probe_retries=self.probe_retries + other.probe_retries,
            add_ops=self.add_ops + other.add_ops,
            sync_events=self.sync_events + other.sync_events,
            lookups=self.lookups + other.lookups,
            kernel_launches=self.kernel_launches + other.kernel_launches,
            device=self.device,
        )

    def modeled_time(self, cost: CostModelConfig = DEFAULT_COST_MODEL) -> float:
        """Seconds of ID-map work under the calibrated cost model."""
        if self.device == "cpu":
            return self.num_input_ids / cost.cpu_idmap_ids_per_s
        atomic_ops = self.cas_ops + self.probe_retries + self.add_ops
        return (
            self.kernel_launches * cost.kernel_launch_s
            + atomic_ops / cost.atomic_ops_per_s
            + self.sync_events * cost.sync_cost_per_unique_s
            + self.lookups / cost.table_lookups_per_s
        )


def record_idmap_metrics(kind: str, report: "IdMapReport") -> None:
    """Report one ID-map invocation's counted work to the registry.

    ``kind`` labels the implementation ("baseline", "fused", "cpu").
    Probe length is the average linear-probe displacement per insertion —
    the open-addressing collision signal the paper's Fused-Map analysis
    (Table 8) is built on.
    """
    registry = get_registry()
    if not registry.enabled:
        return
    labels = {"idmap": kind}
    registry.counter(
        "repro_idmap_ids_total", "Input IDs mapped (with duplicates)",
    ).labels(**labels).inc(report.num_input_ids)
    registry.counter(
        "repro_idmap_unique_total", "Unique IDs assigned local slots",
    ).labels(**labels).inc(report.num_unique)
    registry.counter(
        "repro_idmap_cas_ops_total", "atomicCAS executions",
    ).labels(**labels).inc(report.cas_ops)
    registry.counter(
        "repro_idmap_probe_retries_total",
        "Hash-table collisions (linear-probe retries past occupied slots)",
    ).labels(**labels).inc(report.probe_retries)
    registry.counter(
        "repro_idmap_sync_events_total",
        "Thread-synchronization events (zero for Fused-Map)",
    ).labels(**labels).inc(report.sync_events)
    if report.cas_ops > 0:
        registry.histogram(
            "repro_idmap_probe_length",
            "Average probe displacement per hash-table insertion",
            buckets=(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2, 4, 8),
        ).labels(**labels).observe(report.probe_retries / report.cas_ops)


@dataclass
class MapResult:
    """Output of one ID map invocation.

    ``unique_globals[local]`` is the global ID of local node ``local``;
    ``locals_of_input[i]`` is the local ID assigned to ``input_ids[i]``.
    """

    unique_globals: np.ndarray
    locals_of_input: np.ndarray
    report: IdMapReport


class IdMap(ABC):
    """An ID-map strategy; stateless apart from configuration."""

    device = "gpu"

    @abstractmethod
    def map(self, ids: np.ndarray) -> MapResult:
        """Map ``ids`` (with duplicates) to consecutive local IDs."""
