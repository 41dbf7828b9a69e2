"""Immutable CSR graph storage.

Row ``u`` of the CSR holds ``N(u)`` — the neighbors node ``u`` aggregates
from (Eq. 1 of the paper). Graph generators symmetrize, so for synthetic
datasets the structure is undirected; the sampler only ever reads rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError


@dataclass(frozen=True)
class CSRGraph:
    """Compressed-sparse-row adjacency.

    Attributes
    ----------
    indptr:
        ``int64[num_nodes + 1]`` row offsets into ``indices``.
    indices:
        ``int64[num_edges]`` neighbor IDs; row ``u`` is
        ``indices[indptr[u]:indptr[u+1]]``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    _degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        self._validate()
        object.__setattr__(self, "_degrees", np.diff(indptr))
        indptr.setflags(write=False)
        indices.setflags(write=False)

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or len(self.indptr) < 1:
            raise GraphError("indptr must be a 1-D array of length >= 1")
        if self.indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if self.indptr[-1] != len(self.indices):
            raise GraphError("indptr[-1] must equal len(indices)")
        n = len(self.indptr) - 1
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise GraphError("indices contain out-of-range node IDs")

    # -- basic properties ---------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree (= |N(u)|) of every node."""
        return self._degrees

    @property
    def avg_degree(self) -> float:
        if self.num_nodes == 0:
            return 0.0
        return self.num_edges / self.num_nodes

    def neighbors(self, node: int) -> np.ndarray:
        """The neighbor row of one node (a read-only view)."""
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def structure_bytes(self) -> int:
        """Bytes occupied by the topology (what moves when a subgraph's
        structure is transferred to the GPU)."""
        return self.indptr.nbytes + self.indices.nbytes

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int,
        symmetrize: bool = False,
        dedup: bool = True,
        drop_self_loops: bool = True,
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list ``src[i] -> dst[i]``.

        ``symmetrize`` adds the reversed edges; ``dedup`` removes parallel
        edges. Rows come out sorted by neighbor ID.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise GraphError("src and dst must have the same shape")
        if len(src) and (
            min(src.min(), dst.min()) < 0
            or max(src.max(), dst.max()) >= num_nodes
        ):
            raise GraphError("edge endpoints out of range")
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if drop_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        if dedup and len(src):
            key = src * np.int64(num_nodes) + dst
            key = np.unique(key)
            src, dst = key // num_nodes, key % num_nodes
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        return cls(indptr=indptr, indices=dst)

    def to_edges(self) -> tuple:
        """Return the (src, dst) edge list of this graph."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                        self._degrees)
        return src, self.indices.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSRGraph(num_nodes={self.num_nodes}, "
                f"num_edges={self.num_edges}, "
                f"avg_degree={self.avg_degree:.1f})")
