"""Sampled-subgraph representation.

A :class:`SampledSubgraph` is the per-mini-batch object all three training
phases consume (paper Fig. 2): the sample phase builds it, the memory-IO
phase loads features for its *input nodes*, and the computation phase runs
one GNN layer per :class:`LayerBlock`.

Blocks follow the message-flow-graph convention: ``layers[0]`` is the first
hop from the seed nodes; the block's ``src_global`` always begins with its
``dst_global`` (targets are sources too, enabling self-connections), and
edges are stored with *local* indices produced by the ID map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sampling.idmap.base import IdMapReport


@dataclass
class LayerBlock:
    """One hop's bipartite block: ``num_dst`` targets aggregate from
    ``num_src`` sources along ``num_edges`` sampled edges."""

    #: Global IDs of target nodes (the previous frontier).
    dst_global: np.ndarray
    #: Global IDs of source nodes; the first ``len(dst_global)`` entries are
    #: the targets themselves.
    src_global: np.ndarray
    #: Edge endpoints as local indices into ``src_global`` / ``dst_global``.
    edge_src: np.ndarray
    edge_dst: np.ndarray

    @property
    def num_dst(self) -> int:
        return len(self.dst_global)

    @property
    def num_src(self) -> int:
        return len(self.src_global)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    def in_degrees(self) -> np.ndarray:
        """Sampled in-degree of every target node (|N(u)| in Eq. 1)."""
        return np.bincount(self.edge_dst, minlength=self.num_dst)

    def validate(self) -> None:
        """Structural invariants; raises AssertionError on violation."""
        assert len(self.edge_src) == len(self.edge_dst)
        if self.num_edges:
            assert self.edge_src.min() >= 0
            assert self.edge_src.max() < self.num_src
            assert self.edge_dst.min() >= 0
            assert self.edge_dst.max() < self.num_dst
        assert np.array_equal(self.src_global[: self.num_dst],
                              self.dst_global)

    def structure_bytes(self) -> int:
        """Bytes of topology that must reside on the device (int64 CSR-ish:
        two endpoint arrays plus the node-ID arrays)."""
        return 8 * (2 * self.num_edges + self.num_src + self.num_dst)


@dataclass
class SampledSubgraph:
    """The full k-hop sample for one mini-batch."""

    seeds: np.ndarray
    #: Hop blocks ordered seeds-outward; compute iterates them reversed.
    layers: list
    #: Merged ID-map work accounting across hops.
    idmap_report: IdMapReport
    #: Total neighbor draws performed by the sampler (cost-model input).
    num_sampled_edges: int = 0
    extras: dict = field(default_factory=dict)
    #: Memoized ``np.unique(input_nodes)`` (see :meth:`unique_input_nodes`).
    _unique_input_cache: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def input_nodes(self) -> np.ndarray:
        """Global IDs whose features the memory-IO phase must provide (the
        outermost frontier — sources of the deepest block)."""
        if not self.layers:
            return self.seeds
        return self.layers[-1].src_global

    def unique_input_nodes(self) -> np.ndarray:
        """Sorted unique ``input_nodes``, computed once and cached.

        The match/reorder/cache paths all need the sorted-unique view of
        the same frontier; caching it here means the ``np.unique`` pass
        runs once per subgraph instead of once per consumer. Callers must
        not mutate the returned array.
        """
        if self._unique_input_cache is None:
            self._unique_input_cache = np.unique(
                np.asarray(self.input_nodes, dtype=np.int64)
            )
        return self._unique_input_cache

    @property
    def num_nodes(self) -> int:
        """Unique nodes across the whole subgraph (= outermost frontier,
        since every block's sources contain its targets)."""
        return len(self.input_nodes)

    @property
    def num_edges(self) -> int:
        return sum(block.num_edges for block in self.layers)

    def structure_bytes(self) -> int:
        """Device bytes of all blocks' topology."""
        return sum(block.structure_bytes() for block in self.layers)

    def validate(self) -> None:
        for i, block in enumerate(self.layers):
            block.validate()
            if i == 0:
                assert np.array_equal(block.dst_global, self.seeds)
            else:
                assert np.array_equal(block.dst_global,
                                      self.layers[i - 1].src_global)
