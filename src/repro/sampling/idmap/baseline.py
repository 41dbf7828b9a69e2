"""Baseline ID maps: the DGL-style GPU pipeline and a CPU map.

The DGL-style map (paper Fig. 4) runs three kernels:

1. **construct** — every thread atomically inserts its global ID into the
   hash table (atomicCAS + linear probing);
2. **assign** — local IDs are computed for the unique keys; concurrent
   threads racing on the same global ID must synchronize so each unique ID
   is counted exactly once — one synchronization event per unique ID, the
   overhead Fused-Map removes;
3. **translate** — every thread looks its global ID up.

Functionally the mapping is identical to Fused-Map's; only the counted
device work differs.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.idmap.base import (
    IdMap,
    IdMapReport,
    MapResult,
    record_idmap_metrics,
)
from repro.sampling.idmap.hash_table import estimate_probe_stats, table_capacity
from repro.utils.arrays import first_occurrence_unique


class BaselineIdMap(IdMap):
    """DGL-style three-kernel GPU ID map with per-unique-ID syncs."""

    device = "gpu"

    def __init__(self, load_factor: float = 0.5) -> None:
        if not 0.0 < load_factor <= 0.9:
            raise ValueError("load_factor must be in (0, 0.9]")
        self.load_factor = float(load_factor)

    def map(self, ids: np.ndarray) -> MapResult:
        ids = np.asarray(ids, dtype=np.int64)
        unique, inverse = first_occurrence_unique(ids)
        capacity = table_capacity(len(unique), self.load_factor)
        probes = estimate_probe_stats(
            unique, num_duplicates=len(ids) - len(unique), capacity=capacity
        )
        report = IdMapReport(
            num_input_ids=len(ids),
            num_unique=len(unique),
            cas_ops=len(ids),
            probe_retries=probes.probe_retries,
            add_ops=0,
            sync_events=len(unique),
            lookups=len(ids),
            kernel_launches=3,
            device="gpu",
        )
        record_idmap_metrics("baseline", report)
        return MapResult(unique_globals=unique, locals_of_input=inverse,
                         report=report)


class CpuIdMap(IdMap):
    """Host-side ID map (PyG performs the whole sample phase on CPU)."""

    device = "cpu"

    def map(self, ids: np.ndarray) -> MapResult:
        ids = np.asarray(ids, dtype=np.int64)
        unique, inverse = first_occurrence_unique(ids)
        report = IdMapReport(
            num_input_ids=len(ids),
            num_unique=len(unique),
            kernel_launches=0,
            device="cpu",
        )
        record_idmap_metrics("cpu", report)
        return MapResult(unique_globals=unique, locals_of_input=inverse,
                         report=report)
