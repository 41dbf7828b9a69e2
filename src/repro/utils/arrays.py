"""Integer set operations on node-ID arrays.

numpy 2.x routes a flagless integer ``np.unique`` through a hash table
and then sorts its output; on int64 node IDs that is one to two orders
of magnitude slower than a plain sort followed by an adjacent-difference
mask, for the same bytes out. Every flagless integer unique in the
package goes through :func:`unique_ints` instead (a source-scan test
keeps it that way).

:func:`first_occurrence_unique` is the sequential ID map: the host
analogue of the paper's Fused-Map table (Algorithm 2) is a table indexed
by node ID, so when the IDs are dense it replaces the two sorts of the
``np.unique``-based formulation with a few scatters and gathers.
"""

from __future__ import annotations

import numpy as np

#: The direct-address ID map allocates one table entry per ID in
#: ``[0, ids.max()]``; past this many entries per input ID (plus a fixed
#: allowance that keeps small batches over a large graph on the table
#: path) the sort path is cheaper in time and memory.
_DIRECT_SPAN_PER_ID = 32
_DIRECT_MIN_SPAN = 1 << 16


def unique_ints(a) -> np.ndarray:
    """Sorted unique values of integer array ``a``, flattened.

    Bytewise equal to ``np.unique(a)`` for integer input (values, dtype
    and shape), via one sort and an adjacent-difference mask.
    """
    flat = np.sort(np.asarray(a), axis=None)
    if flat.size < 2:
        return flat
    keep = np.empty(flat.shape, dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def first_occurrence_unique(ids) -> tuple:
    """``(unique, inverse)`` with ``unique`` ordered by first occurrence.

    This is the mapping a deterministic sequential ID map produces; all
    GPU variants here emit the same mapping (the concurrency harness in
    :mod:`repro.sampling.idmap.fused` demonstrates that *any*
    interleaving yields a valid bijection, merely a permuted one).
    ``unique[inverse]`` reproduces ``ids``.

    Non-negative IDs over a range not much wider than the input use a
    table indexed by ID; anything else takes the sort path. Both return
    the same int64 arrays.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    if n == 0 or ids.min() < 0:
        return _first_occurrence_sorted(ids)
    span = int(ids.max()) + 1
    if span > _DIRECT_SPAN_PER_ID * n + _DIRECT_MIN_SPAN:
        return _first_occurrence_sorted(ids)
    position = np.arange(n, dtype=np.int64)
    # table[id] = first index of id (scatter-min) ...
    table = np.full(span, n, dtype=np.int64)
    np.minimum.at(table, ids, position)
    unique = ids[table[ids] == position]
    # ... then reused as table[id] = local id (every read is a set entry).
    table[unique] = np.arange(len(unique), dtype=np.int64)
    return unique, table[ids]


def _first_occurrence_sorted(ids: np.ndarray) -> tuple:
    """:func:`first_occurrence_unique` by sorting, for any int64 IDs."""
    unique_sorted, first_idx, inverse_sorted = np.unique(
        ids, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    # rank[k] = local id of unique_sorted[k]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return unique_sorted[order], rank[inverse_sorted]
