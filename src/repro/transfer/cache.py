"""Static GPU feature caches and their admission policies.

Both compared systems pin a *static* set of feature rows on the device:

* **PaGraph** ranks nodes by degree (high-degree nodes are sampled most
  often);
* **GNNLab** ranks by visit frequency observed in a pre-sampling pass,
  which tracks the actual sampler/train-set distribution.

A cache is sized in bytes; hits cost nothing on PCIe, misses are loaded.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.features import FeatureStore
from repro.utils.arrays import unique_ints
from repro.utils.rng import ensure_rng


class StaticFeatureCache:
    """A pinned set of node IDs whose features live on the device."""

    def __init__(self, cached_ids: np.ndarray, bytes_per_node: int) -> None:
        self.cached_ids = unique_ints(np.asarray(cached_ids, dtype=np.int64))
        self.bytes_per_node = int(bytes_per_node)
        self.hits = 0
        self.misses = 0

    @property
    def num_cached(self) -> int:
        return len(self.cached_ids)

    @property
    def capacity_bytes(self) -> int:
        return self.num_cached * self.bytes_per_node

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def partition(self, wanted: np.ndarray) -> tuple:
        """Split ``wanted`` into (cached, uncached); updates hit counters."""
        wanted = np.asarray(wanted, dtype=np.int64)
        if self.num_cached == 0:
            self.misses += len(wanted)
            return np.empty(0, dtype=np.int64), wanted.copy()
        pos = np.searchsorted(self.cached_ids, wanted)
        pos = np.minimum(pos, self.num_cached - 1)
        hit = self.cached_ids[pos] == wanted
        self.hits += int(hit.sum())
        self.misses += int((~hit).sum())
        return wanted[hit], wanted[~hit]


class DegreeCachePolicy:
    """PaGraph-style: cache the highest-degree nodes that fit."""

    @staticmethod
    def build(graph: CSRGraph, store: FeatureStore,
              capacity_bytes: int) -> StaticFeatureCache:
        slots = max(0, int(capacity_bytes // store.bytes_per_node))
        slots = min(slots, graph.num_nodes)
        if slots == 0:
            ids = np.empty(0, dtype=np.int64)
        else:
            ids = np.argpartition(graph.degrees, -slots)[-slots:]
        return StaticFeatureCache(ids, store.bytes_per_node)


class PresampleCachePolicy:
    """GNNLab-style: cache the nodes most visited by a pre-sampling pass."""

    @staticmethod
    def build(
        sampler,
        train_ids: np.ndarray,
        store: FeatureStore,
        capacity_bytes: int,
        batch_size: int = 256,
        num_batches: int = 6,
        rng=None,
    ) -> StaticFeatureCache:
        """Run ``num_batches`` sample draws and rank nodes by visit count.

        Ties (nodes visited equally often — common for the long tail) are
        broken by degree, which tracks future visit probability; GNNLab's
        hotness metric behaves the same way in expectation.
        """
        slots = max(0, int(capacity_bytes // store.bytes_per_node))
        slots = min(slots, store.num_nodes)
        if slots == 0:
            return StaticFeatureCache(np.empty(0, dtype=np.int64),
                                      store.bytes_per_node)
        rng = ensure_rng(rng)
        counts = np.zeros(store.num_nodes, dtype=np.float64)
        for _ in range(num_batches):
            size = min(batch_size, len(train_ids))
            seeds = rng.choice(train_ids, size=size, replace=False)
            subgraph = sampler.sample(seeds)
            counts[subgraph.input_nodes] += 1
        graph = getattr(sampler, "graph", None)
        if graph is not None:
            deg = graph.degrees.astype(np.float64)
            counts += deg / (deg.max() + 1.0)  # sub-integer tiebreak
        ranked = np.argsort(counts, kind="stable")[::-1][:slots]
        return StaticFeatureCache(ranked, store.bytes_per_node)
