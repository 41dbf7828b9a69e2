"""Stateful equivalence of the dense-index :class:`CacheTier`.

``ReferenceTier`` is the ``OrderedDict`` index the tier used before its
index became dense arrays: a per-row loop whose dict order is the FIFO
eviction order (re-insert moves a row to the young end). Random
interleaved ``lookup``/``insert`` sequences must produce the same
``(hits, stale, misses)``, eviction counts, stats, length and slot
payloads on both.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.cache_tier import CacheTier, CacheTierConfig, CacheTierStats


class ReferenceTier:
    """The per-row ``OrderedDict`` tier, payload slab included."""

    def __init__(self, config: CacheTierConfig) -> None:
        self.config = config
        self.stats = CacheTierStats()
        self._index: OrderedDict = OrderedDict()
        self._free_slots = list(range(config.capacity_rows - 1, -1, -1))
        self.slab = np.zeros(config.capacity_rows * config.row_bytes,
                             dtype=np.uint8)

    def __len__(self) -> int:
        return len(self._index)

    def _fresh(self, inserted_at: float, now: float) -> bool:
        ttl = self.config.ttl_s
        return ttl <= 0 or (now - inserted_at) <= ttl

    def lookup(self, nodes, now):
        hits, stale, misses = [], [], []
        for node in np.asarray(nodes, dtype=np.int64).tolist():
            entry = self._index.get(node)
            if entry is None:
                misses.append(node)
            elif self._fresh(entry[1], now):
                hits.append(node)
            else:
                stale.append(node)
        self.stats.lookups += len(hits) + len(stale) + len(misses)
        self.stats.hits += len(hits)
        self.stats.stale += len(stale)
        self.stats.misses += len(misses)
        return (np.asarray(hits, dtype=np.int64),
                np.asarray(stale, dtype=np.int64),
                np.asarray(misses, dtype=np.int64))

    def insert(self, nodes, now) -> int:
        evicted = 0
        row = self.config.row_bytes
        for node in np.asarray(nodes, dtype=np.int64).tolist():
            entry = self._index.pop(node, None)
            if entry is not None:
                slot = entry[0]
            else:
                if not self._free_slots:
                    _, (slot, _) = self._index.popitem(last=False)
                    evicted += 1
                else:
                    slot = self._free_slots.pop()
                tag = np.frombuffer(np.int64(node).tobytes(), dtype=np.uint8)
                width = min(len(tag), row)
                self.slab[slot * row:slot * row + width] = tag[:width]
            self._index[node] = (slot, now)
            self.stats.inserts += 1
        self.stats.evictions += evicted
        return evicted


def _ops(max_node: int):
    nodes = st.lists(st.integers(0, max_node), max_size=12)
    return st.lists(
        st.tuples(st.sampled_from(["lookup", "insert", "through"]), nodes,
                  st.floats(0.0, 0.5)),
        min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.sampled_from([1, 2, 3, 5, 16]),
    row_bytes=st.sampled_from([4, 8, 16]),
    ttl=st.sampled_from([-1.0, 0.0, 0.25, 1.0]),
    ops=_ops(max_node=40),
    jump=st.integers(0, 5000),
)
def test_tier_matches_ordered_dict_reference(capacity, row_bytes, ttl, ops,
                                             jump):
    config = CacheTierConfig(enabled=True, capacity_rows=capacity,
                             row_bytes=row_bytes, ttl_s=ttl)
    tier, reference = CacheTier(config), ReferenceTier(config)
    now = 0.0
    for step, (op, nodes, dt) in enumerate(ops):
        now += dt
        nodes = np.asarray(nodes, dtype=np.int64)
        if step % 3 == 2:
            # IDs far past the current ``slot_of`` size.
            nodes = nodes + jump
        if op == "lookup":
            got = tier.lookup(nodes, now)
            want = reference.lookup(nodes, now)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tolist() == w.tolist()
        elif op == "insert":
            assert tier.insert(nodes, now) == reference.insert(nodes, now)
        else:
            # The serving path: look up, then refill stale + missed.
            _, stale, missed = tier.lookup(nodes, now)
            reference.lookup(nodes, now)
            refill = np.concatenate([stale, missed])
            assert tier.insert(refill, now) == reference.insert(refill, now)
        assert tier.stats == reference.stats
        assert len(tier) == len(reference)
    assert tier._slab.tobytes() == reference.slab.tobytes()


def test_fifo_survives_compaction():
    """Many refreshes past the FIFO's compaction point keep the order."""
    config = CacheTierConfig(enabled=True, capacity_rows=3, row_bytes=8,
                             ttl_s=0.0)
    tier, reference = CacheTier(config), ReferenceTier(config)
    rng = np.random.default_rng(0)
    for step in range(200):
        nodes = rng.integers(0, 6, size=int(rng.integers(1, 5)))
        assert tier.insert(nodes, float(step)) == reference.insert(
            nodes, float(step))
        got = tier.lookup(np.arange(6), float(step))
        want = reference.lookup(np.arange(6), float(step))
        assert [g.tolist() for g in got] == [w.tolist() for w in want]
    assert tier.stats == reference.stats
    assert tier._slab.tobytes() == reference.slab.tobytes()


def test_insert_rejects_negative_ids():
    tier = CacheTier(CacheTierConfig(enabled=True, capacity_rows=2))
    with pytest.raises(ValueError, match="non-negative"):
        tier.insert(np.array([1, -2]), now=0.0)
    assert len(tier) == 0
    hits, stale, missed = tier.lookup(np.array([-2, 1]), now=0.0)
    assert missed.tolist() == [-2, 1]
