"""Training-node splits, mini-batch planning, and partition accounting.

Sampling-based training splits the training nodes into mini-batches and
samples one subgraph per batch (Fig. 2 of the paper). ``MinibatchPlan``
produces those batches deterministically per epoch; the Reorder strategy
later permutes *whole batches*, never their contents.

This module also owns the *assignment* vocabulary the multi-node layer
(:mod:`repro.cluster`) builds on: a node→partition assignment is a dense
``int`` array with one entry per node. :func:`validate_assignment`
rejects anything that does not cover every node exactly once, and
:func:`partition_stats` reports the edge-cut / balance / halo statistics
every partitioner is judged by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.utils.arrays import unique_ints
from repro.utils.rng import ensure_rng


def validate_assignment(assignment, num_nodes: int,
                        num_parts: int | None = None) -> np.ndarray:
    """Check that ``assignment`` maps every node to exactly one partition.

    Returns the assignment as an ``int64`` array. Raises
    :class:`~repro.errors.ConfigError` when the assignment misses nodes
    (wrong length), labels a node with a negative or out-of-range
    partition, or is not integral — the silent-acceptance failure modes
    that used to surface later as wrong halo traffic.
    """
    assignment = np.asarray(assignment)
    if assignment.ndim != 1 or len(assignment) != num_nodes:
        raise ConfigError(
            f"assignment must cover every node exactly once: expected "
            f"{num_nodes} entries, got shape {assignment.shape}"
        )
    if not np.issubdtype(assignment.dtype, np.integer):
        raise ConfigError(
            f"assignment must be integral, got dtype {assignment.dtype}"
        )
    assignment = assignment.astype(np.int64, copy=False)
    if num_nodes:
        low = int(assignment.min())
        high = int(assignment.max())
        if low < 0:
            raise ConfigError(
                f"assignment leaves node(s) unassigned (partition {low})"
            )
        if num_parts is not None and high >= num_parts:
            raise ConfigError(
                f"assignment references partition {high} but only "
                f"{num_parts} partition(s) exist"
            )
    return assignment


@dataclass(frozen=True)
class PartitionStats:
    """Edge-cut / balance / halo accounting of one node→part assignment.

    ``edge_cut`` counts *directed adjacency entries* whose endpoints live
    in different partitions (an undirected edge stored both ways counts
    twice — consistent across partitioners, which is all comparisons
    need). ``halo_nodes[p]`` is the number of distinct remote nodes
    adjacent to partition ``p`` — the boundary set a mini-batch on ``p``
    may have to fetch. ``balance`` is ``max(sizes) / ideal`` (1.0 is a
    perfectly even split).
    """

    num_parts: int
    sizes: tuple
    edge_cut: int
    cut_fraction: float
    balance: float
    halo_nodes: tuple

    @property
    def max_size(self) -> int:
        return max(self.sizes) if self.sizes else 0


def partition_stats(graph, assignment,
                    num_parts: int | None = None) -> PartitionStats:
    """Compute :class:`PartitionStats` for ``assignment`` over ``graph``.

    Validates the assignment first (every node exactly once, partitions
    in range) and derives ``num_parts`` from the assignment when not
    given.
    """
    assignment = validate_assignment(assignment, graph.num_nodes,
                                     num_parts=num_parts)
    if num_parts is None:
        num_parts = int(assignment.max()) + 1 if graph.num_nodes else 1
    if num_parts < 1:
        raise ConfigError("num_parts must be >= 1")
    sizes = np.bincount(assignment, minlength=num_parts)
    ideal = graph.num_nodes / num_parts if num_parts else 0.0
    balance = float(sizes.max() / ideal) if ideal > 0 else 1.0

    degrees = graph.degrees
    src_part = np.repeat(assignment, degrees)
    dst_part = assignment[graph.indices]
    cut_mask = src_part != dst_part
    edge_cut = int(np.count_nonzero(cut_mask))
    total = int(graph.indices.shape[0])
    cut_fraction = edge_cut / total if total else 0.0

    # Distinct remote neighbors per partition: unique (part, remote node)
    # pairs over the cut entries.
    halo = np.zeros(num_parts, dtype=np.int64)
    if edge_cut:
        pairs = (src_part[cut_mask].astype(np.int64) * graph.num_nodes
                 + graph.indices[cut_mask])
        unique_pairs = unique_ints(pairs)
        halo = np.bincount(unique_pairs // graph.num_nodes,
                           minlength=num_parts)
    return PartitionStats(
        num_parts=int(num_parts),
        sizes=tuple(int(s) for s in sizes),
        edge_cut=edge_cut,
        cut_fraction=float(cut_fraction),
        balance=balance,
        halo_nodes=tuple(int(h) for h in halo),
    )


def train_split(num_nodes: int, train_fraction: float, rng=None) -> np.ndarray:
    """Choose a random ``train_fraction`` of nodes as training seeds."""
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigError("train_fraction must be in (0, 1]")
    rng = ensure_rng(rng)
    num_train = max(1, int(round(train_fraction * num_nodes)))
    perm = rng.permutation(num_nodes)
    return np.sort(perm[:num_train]).astype(np.int64)


class MinibatchPlan:
    """Splits training nodes into mini-batches, per epoch.

    ``locality`` in [0, 1] controls batch composition: 0 is a uniform
    shuffle; at higher values that fraction of each batch is drawn from a
    contiguous run of the (ID-sorted) training nodes. Real benchmark splits
    are not uniform — OGB-Products' training set is sales-rank-ordered and
    Reddit's is time-ordered — and the synthetic generators here lay
    communities out contiguously by node ID, so contiguous runs model the
    community-correlated batches such splits produce. This heterogeneity is
    what gives the Greedy Reorder strategy its headroom (the paper's
    Table 4 reports a 4-7% match-degree spread).
    """

    def __init__(self, train_ids: np.ndarray, batch_size: int,
                 drop_last: bool = False, locality: float = 0.0) -> None:
        train_ids = np.asarray(train_ids, dtype=np.int64)
        if batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if len(train_ids) == 0:
            raise ConfigError("train_ids must be non-empty")
        if not 0.0 <= locality <= 1.0:
            raise ConfigError("locality must be in [0, 1]")
        self.train_ids = train_ids
        self.batch_size = int(batch_size)
        self.drop_last = bool(drop_last)
        self.locality = float(locality)

    @property
    def num_batches(self) -> int:
        full, rem = divmod(len(self.train_ids), self.batch_size)
        if rem and not self.drop_last:
            return full + 1
        return max(1, full)

    def _slice_batches(self, ids: np.ndarray) -> list:
        out = []
        for start in range(0, len(ids), self.batch_size):
            batch = ids[start:start + self.batch_size]
            if len(batch) < self.batch_size and self.drop_last and out:
                break
            out.append(batch)
        return out

    def batches(self, rng=None) -> list:
        """Return this epoch's batches (a new shuffle per call)."""
        rng = ensure_rng(rng)
        if self.locality <= 0.0:
            return self._slice_batches(rng.permutation(self.train_ids))

        num_batches = self.num_batches
        local_per_batch = int(round(self.batch_size * self.locality))
        ids_sorted = np.sort(self.train_ids)
        # Contiguous chunk per batch: the head of each equal slice of the
        # sorted IDs becomes the batch's local part; the tails are pooled,
        # shuffled, and dealt out to fill the remaining slots.
        slices = np.array_split(ids_sorted, num_batches)
        local_parts = []
        pooled = []
        for piece in slices:
            take = min(local_per_batch, len(piece))
            local_parts.append(piece[:take])
            pooled.append(piece[take:])
        pool = rng.permutation(np.concatenate(pooled)) if pooled else (
            np.empty(0, dtype=np.int64)
        )
        order = rng.permutation(num_batches)
        out = []
        cursor = 0
        for rank, idx in enumerate(order):
            remaining_batches = num_batches - rank
            fill = (len(pool) - cursor) // remaining_batches
            batch = np.concatenate(
                [local_parts[idx], pool[cursor:cursor + fill]]
            )
            cursor += fill
            out.append(rng.permutation(batch))
        return [b for b in out if len(b)]
