"""Property tests for the cluster partitioners and partition accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.partitioner import (
    greedy_partition,
    hash_partition,
    partition_graph,
    random_partition,
)
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.generators import community_graph
from repro.graph.partition import partition_stats, validate_assignment


@st.composite
def graph_and_parts(draw):
    num_nodes = draw(st.integers(min_value=60, max_value=240))
    avg_degree = draw(st.floats(min_value=3.0, max_value=8.0))
    num_parts = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    graph, _ = community_graph(num_nodes, avg_degree,
                               num_communities=num_parts, rng=seed)
    return graph, num_parts, seed


class TestPartitionerProperties:
    @settings(max_examples=30, deadline=None)
    @given(graph_and_parts())
    def test_every_node_assigned_exactly_once(self, case):
        graph, num_parts, seed = case
        for method in ("greedy", "random", "hash"):
            assignment = partition_graph(graph, num_parts, method=method,
                                         seed=seed)
            assert len(assignment) == graph.num_nodes
            assert assignment.min() >= 0
            assert assignment.max() < num_parts
            # validate_assignment accepts what the partitioners emit.
            validate_assignment(assignment, graph.num_nodes, num_parts)

    @settings(max_examples=30, deadline=None)
    @given(graph_and_parts())
    def test_greedy_respects_balance_slack(self, case):
        graph, num_parts, seed = case
        slack = 0.05
        assignment = greedy_partition(graph, num_parts,
                                      balance_slack=slack)
        sizes = np.bincount(assignment, minlength=num_parts)
        ideal = graph.num_nodes / num_parts
        capacity = max(int(np.ceil(ideal)),
                       int(np.ceil(ideal * (1.0 + slack))))
        assert sizes.max() <= capacity

    @settings(max_examples=30, deadline=None)
    @given(graph_and_parts())
    def test_greedy_cut_never_worse_than_random(self, case):
        graph, num_parts, seed = case
        greedy = partition_stats(
            graph, greedy_partition(graph, num_parts), num_parts)
        random = partition_stats(
            graph, random_partition(graph.num_nodes, num_parts, seed=seed),
            num_parts)
        assert greedy.edge_cut <= random.edge_cut


def greedy_partition_reference(graph, num_parts, balance_slack=0.05,
                               block_size=64):
    """The per-node greedy loop :func:`greedy_partition` must reproduce.

    Blockwise affinity (``np.add.at``), then one argmax and one size
    update per node, in stream order; the refinement pass rescores each
    node's own partition as if the node had left it.
    """
    n = graph.num_nodes
    if num_parts == 1:
        return np.zeros(n, dtype=np.int64)
    capacity = max(
        math.ceil(n / num_parts),
        math.ceil(n / num_parts * (1.0 + balance_slack)),
    )
    indptr = graph.indptr
    indices = graph.indices
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_parts, dtype=np.int64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = stop - start
        lo, hi = int(indptr[start]), int(indptr[stop])
        neigh_parts = assignment[indices[lo:hi]]
        degs = np.diff(indptr[start:stop + 1])
        rows = np.repeat(np.arange(block), degs)
        placed = neigh_parts >= 0
        affinity = np.zeros((block, num_parts), dtype=np.float64)
        np.add.at(affinity, (rows[placed], neigh_parts[placed]), 1.0)
        for i in range(block):
            score = affinity[i] * (1.0 - sizes / capacity)
            score[sizes >= capacity] = -np.inf
            best = int(np.argmax(score))
            assignment[start + i] = best
            sizes[best] += 1
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = stop - start
        lo, hi = int(indptr[start]), int(indptr[stop])
        neigh_parts = assignment[indices[lo:hi]]
        degs = np.diff(indptr[start:stop + 1])
        rows = np.repeat(np.arange(block), degs)
        affinity = np.zeros((block, num_parts), dtype=np.float64)
        np.add.at(affinity, (rows, neigh_parts), 1.0)
        for i in range(block):
            node = start + i
            current = int(assignment[node])
            score = affinity[i] * (1.0 - sizes / capacity)
            score[sizes >= capacity] = -np.inf
            score[current] = affinity[i][current] * (
                1.0 - (sizes[current] - 1) / capacity
            )
            best = int(np.argmax(score))
            if best != current:
                assignment[node] = best
                sizes[current] -= 1
                sizes[best] += 1
    return assignment


def _random_csr(num_nodes, num_edges, seed, local=False):
    """A random directed CSR graph (duplicates and self-loops allowed).
    ``local`` draws each edge's target near its source, so consecutive
    IDs cluster the way the community generators lay them out."""
    rng = np.random.default_rng(seed)
    if num_nodes == 0:
        return CSRGraph(indptr=np.zeros(1, dtype=np.int64),
                        indices=np.empty(0, dtype=np.int64))
    src = np.sort(rng.integers(0, num_nodes, size=num_edges))
    if local:
        dst = (src + rng.integers(-6, 7, size=num_edges)) % num_nodes
    else:
        dst = rng.integers(0, num_nodes, size=num_edges)
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(src, minlength=num_nodes))])
    return CSRGraph(indptr=indptr, indices=dst)


@st.composite
def oracle_cases(draw):
    num_nodes = draw(st.integers(min_value=0, max_value=400))
    avg_degree = draw(st.integers(min_value=0, max_value=8))
    graph = _random_csr(num_nodes, num_nodes * avg_degree,
                        seed=draw(st.integers(0, 2**16)),
                        local=draw(st.booleans()))
    return (graph,
            draw(st.integers(min_value=2, max_value=8)),
            draw(st.sampled_from([0.0, 0.01, 0.05, 0.5])),
            draw(st.sampled_from([1, 3, 64])))


def _assert_matches_reference(graph, num_parts, slack, block_size):
    got = greedy_partition(graph, num_parts, balance_slack=slack,
                           block_size=block_size)
    expected = greedy_partition_reference(graph, num_parts, slack,
                                          block_size)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    return got


class TestGreedyMatchesReference:
    """The block-speculative placement is bytewise the per-node loop."""

    @settings(max_examples=200, deadline=None)
    @given(oracle_cases())
    def test_random_csr_graphs(self, case):
        _assert_matches_reference(*case)

    @pytest.mark.parametrize("block_size", [1, 3, 64])
    def test_empty_graph(self, block_size):
        graph = _random_csr(0, 0, seed=0)
        got = _assert_matches_reference(graph, 4, 0.05, block_size)
        assert got.size == 0

    @pytest.mark.parametrize("block_size", [1, 3, 64])
    def test_fewer_nodes_than_parts(self, block_size):
        graph = _random_csr(3, 9, seed=1)
        got = _assert_matches_reference(graph, 8, 0.0, block_size)
        assert np.bincount(got).max() == 1

    @pytest.mark.parametrize("block_size", [1, 3, 64])
    def test_partitions_fill_to_capacity(self, block_size):
        # One dense community wants every node in partition 0; with no
        # slack each partition fills exactly to capacity.
        n = 200
        graph = _random_csr(n, n * 8, seed=2, local=True)
        got = _assert_matches_reference(graph, 4, 0.0, block_size)
        np.testing.assert_array_equal(np.bincount(got, minlength=4),
                                      [50, 50, 50, 50])

    def test_community_graph(self):
        graph, _ = community_graph(2000, 6.0, num_communities=5, rng=3)
        for slack in (0.0, 0.05):
            _assert_matches_reference(graph, 5, slack, 64)

    @pytest.mark.parametrize("block_size", [0, -1, -64])
    def test_block_size_below_one_rejected(self, block_size):
        graph = _random_csr(10, 30, seed=0)
        with pytest.raises(ConfigError, match="block_size"):
            greedy_partition(graph, 2, block_size=block_size)


class TestBaselinePartitioners:
    def test_random_is_balanced(self):
        assignment = random_partition(1001, 4, seed=3)
        sizes = np.bincount(assignment, minlength=4)
        assert sizes.max() - sizes.min() <= 1

    def test_random_is_seeded(self):
        a = random_partition(500, 4, seed=7)
        b = random_partition(500, 4, seed=7)
        c = random_partition(500, 4, seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_hash_is_round_robin(self):
        assignment = hash_partition(10, 3)
        np.testing.assert_array_equal(assignment,
                                      np.arange(10, dtype=np.int64) % 3)

    def test_unknown_method_rejected(self):
        graph, _ = community_graph(100, 4.0, num_communities=2, rng=0)
        with pytest.raises(ConfigError):
            partition_graph(graph, 2, method="metis-real")


class TestPartitionStats:
    def _path_graph(self):
        # 0-1-2-3: three undirected edges stored both ways.
        indptr = np.array([0, 1, 3, 5, 6])
        indices = np.array([1, 0, 2, 1, 3, 2])
        return CSRGraph(indptr=indptr, indices=indices)

    def test_handmade_cut_and_halo(self):
        graph = self._path_graph()
        assignment = np.array([0, 0, 1, 1])
        stats = partition_stats(graph, assignment, num_parts=2)
        # Only the 1-2 edge crosses, stored in both directions.
        assert stats.edge_cut == 2
        assert stats.cut_fraction == pytest.approx(2 / 6)
        assert stats.sizes == (2, 2)
        assert stats.balance == pytest.approx(1.0)
        # Partition 0 must import node 2; partition 1 must import node 1.
        assert stats.halo_nodes == (1, 1)

    def test_single_partition_has_no_cut(self):
        graph = self._path_graph()
        stats = partition_stats(graph, np.zeros(4, dtype=np.int64),
                                num_parts=1)
        assert stats.edge_cut == 0
        assert stats.halo_nodes == (0,)

    def test_validate_rejects_wrong_length(self):
        with pytest.raises(ConfigError):
            validate_assignment(np.zeros(3, dtype=np.int64), num_nodes=4)

    def test_validate_rejects_negative_and_out_of_range(self):
        with pytest.raises(ConfigError):
            validate_assignment(np.array([0, -1, 0]), num_nodes=3)
        with pytest.raises(ConfigError):
            validate_assignment(np.array([0, 2, 0]), num_nodes=3,
                                num_parts=2)

    def test_validate_rejects_non_integral(self):
        with pytest.raises(ConfigError):
            validate_assignment(np.array([0.0, 1.0]), num_nodes=2)
