"""A fleet-shared embedding cache tier with TTL staleness.

Between each replica's device-resident Match cache and host DRAM sits
one fleet-wide tier holding recently fetched embedding rows — the
simulated analogue of a memcached/Redis side-cache in front of the
feature store. A row found **fresh** (inserted within ``ttl_s``) skips
part of the modeled host fetch (``io_savings`` of the per-row memory-IO
cost); a row found **stale** counts separately — it must be re-fetched,
which is exactly the consistency price a TTL cache pays for embeddings
that retrain underneath it.

The row index and the row *payload* (a ``numpy`` slab, one slot per
cached row) live in ordinary process memory: the fleet's replicas share
one event loop in one process. Eviction is deterministic FIFO by
insertion order (slot reuse in arrival order), so fleet runs replay
bit-identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CacheTierConfig:
    """Sizing and staleness knobs of the shared tier."""

    enabled: bool = False
    #: Rows the tier can hold (FIFO eviction beyond this).
    capacity_rows: int = 4096
    #: Bytes per cached row payload (feature dim x dtype size).
    row_bytes: int = 256
    #: Seconds a row stays fresh; <= 0 means rows never go stale.
    ttl_s: float = 1.0
    #: Fraction of the per-row host-fetch cost a fresh hit saves.
    io_savings: float = 0.8

    def __post_init__(self) -> None:
        if self.capacity_rows < 1:
            raise ValueError("capacity_rows must be >= 1")
        if self.row_bytes < 1:
            raise ValueError("row_bytes must be >= 1")
        if not 0.0 <= self.io_savings <= 1.0:
            raise ValueError("io_savings must be in [0, 1]")


@dataclass
class CacheTierStats:
    """Aggregate counters over the tier's lifetime."""

    lookups: int = 0
    hits: int = 0
    stale: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def stale_rate(self) -> float:
        return self.stale / self.lookups if self.lookups else 0.0


class CacheTier:
    """Fleet-shared embedding row cache with TTL freshness.

    ``lookup(nodes, now)`` partitions the requested rows into
    ``(fresh_hits, stale, misses)``; ``insert(nodes, now)`` (re)fills
    rows, evicting the oldest entries FIFO when full. All decisions are
    pure functions of the call sequence — no clocks, no RNG.

    The index is dense: ``slot_of[node]`` (grown on demand, ``-1`` when
    absent) and per-slot ``node_of``/``inserted_at``/``stamp_of``, so a
    lookup is a few vectorized masks. Node IDs must be non-negative.
    """

    def __init__(self, config: CacheTierConfig) -> None:
        self.config = config
        self.stats = CacheTierStats()
        capacity = config.capacity_rows
        self._slot_of = np.full(0, -1, dtype=np.int64)
        self._node_of = np.full(capacity, -1, dtype=np.int64)
        self._inserted_at = np.zeros(capacity, dtype=np.float64)
        #: Insertion stamp of each slot; FIFO age is stamp order.
        self._stamp_of = np.zeros(capacity, dtype=np.int64)
        self._next_stamp = 0
        #: ``(stamp, slot)`` in insertion order. An entry is live while
        #: its slot still carries its stamp: a re-insert appends a new
        #: entry, which moves the row to the young end.
        self._fifo: deque = deque()
        #: Slots are handed out in order and never freed, only reused.
        self._used = 0
        self._slab = np.zeros(capacity * config.row_bytes, dtype=np.uint8)

    def __len__(self) -> int:
        return self._used

    def _row(self, slot: int) -> np.ndarray:
        offset = slot * self.config.row_bytes
        return self._slab[offset:offset + self.config.row_bytes]

    def lookup(self, nodes: np.ndarray, now: float):
        """Partition ``nodes`` into ``(fresh_hits, stale, misses)``, each
        in input order.

        Stale rows stay indexed (their slot is reused on re-insert);
        only the counters distinguish them from fresh hits.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        slots = np.full(len(nodes), -1, dtype=np.int64)
        known = (nodes >= 0) & (nodes < len(self._slot_of))
        slots[known] = self._slot_of[nodes[known]]
        cached = slots >= 0
        fresh = cached
        if self.config.ttl_s > 0:
            fresh = cached.copy()
            fresh[cached] = ((now - self._inserted_at[slots[cached]])
                             <= self.config.ttl_s)
        hits = nodes[fresh]
        stale = nodes[cached & ~fresh]
        misses = nodes[~cached]
        self.stats.lookups += len(nodes)
        self.stats.hits += len(hits)
        self.stats.stale += len(stale)
        self.stats.misses += len(misses)
        return hits, stale, misses

    def insert(self, nodes: np.ndarray, now: float) -> int:
        """(Re)fill rows for ``nodes`` at time ``now``; returns how many
        evictions that cost. Re-inserting a present row refreshes its
        timestamp in place (no eviction)."""
        nodes = np.ascontiguousarray(nodes, dtype=np.int64)
        if len(nodes) == 0:
            return 0
        if nodes.min() < 0:
            raise ValueError("cache tier node ids must be non-negative")
        self._reserve(int(nodes.max()) + 1)
        slot_of, node_of = self._slot_of, self._node_of
        stamp_of, inserted_at = self._stamp_of, self._inserted_at
        # The payload tag of a row is its node id's bytes.
        tags = nodes.view(np.uint8).reshape(len(nodes), -1)
        width = min(tags.shape[1], self.config.row_bytes)
        evicted = 0
        for position, node in enumerate(nodes.tolist()):
            slot = int(slot_of[node])
            if slot < 0:
                if self._used < len(node_of):
                    slot = self._used
                    self._used += 1
                else:
                    slot = self._pop_oldest()
                    slot_of[node_of[slot]] = -1
                    evicted += 1
                node_of[slot] = node
                slot_of[node] = slot
                # Touch the payload slot: the write is what a real tier
                # pays; the simulation only needs the addressing right.
                self._row(slot)[:width] = tags[position, :width]
            stamp_of[slot] = self._next_stamp
            inserted_at[slot] = now
            self._fifo.append((self._next_stamp, slot))
            self._next_stamp += 1
        if len(self._fifo) > 2 * len(node_of):
            self._compact_fifo()
        self.stats.inserts += len(nodes)
        self.stats.evictions += evicted
        return evicted

    def _reserve(self, size: int) -> None:
        """Grow ``slot_of`` to cover node IDs below ``size``."""
        if size > len(self._slot_of):
            grown = np.full(max(size, 2 * len(self._slot_of)), -1,
                            dtype=np.int64)
            grown[:len(self._slot_of)] = self._slot_of
            self._slot_of = grown

    def _pop_oldest(self) -> int:
        """Slot of the oldest live FIFO entry, removed from the queue."""
        while True:
            stamp, slot = self._fifo.popleft()
            if self._stamp_of[slot] == stamp:
                return slot

    def _compact_fifo(self) -> None:
        """Drop superseded FIFO entries (every used slot is live)."""
        order = np.argsort(self._stamp_of[:self._used])
        self._fifo = deque(zip(self._stamp_of[order].tolist(),
                               order.tolist()))
