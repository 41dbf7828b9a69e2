"""pytest-benchmark suite over the five named hot kernels.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/perf --benchmark-only

Unlike ``python -m repro.bench`` (which writes ``BENCH_repro.json``;
``python -m repro.gate bench`` gates it), this suite gives statistically robust per-kernel
distributions — min/median/stddev over many rounds — for local perf work
and A/B comparison via ``--benchmark-compare``. Each benchmark reuses
the exact workloads from :mod:`repro.bench.kernels` at the ``small``
size, so numbers line up with the ``--quick`` CLI run; the two
vectorized kernels also assert equivalence with their kept reference
implementations once per session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.kernels import SIZES, _bench_dataset, _node_sets
from repro.bench.oracles import match_degree_matrix_legacy
from repro.core.reorder import greedy_reorder, match_degree_matrix
from repro.graph.features import MaterializedFeatureStore
from repro.sampling import FusedIdMap, NeighborSampler
from repro.sampling.idmap.hash_table import (
    ExactOpenAddressTable,
    VectorOpenAddressTable,
    table_capacity,
)

SEED = 0


@pytest.fixture(scope="module")
def match_sets():
    return _node_sets(SIZES["match_degree_matrix"]["small"], SEED)


def test_match_degree_matrix(benchmark, match_sets):
    matrix = benchmark(match_degree_matrix, match_sets)
    assert np.array_equal(matrix, match_degree_matrix_legacy(match_sets))


def test_match_degree_matrix_legacy_reference(benchmark, match_sets):
    benchmark(match_degree_matrix_legacy, match_sets)


def test_greedy_reorder(benchmark):
    node_sets = _node_sets(SIZES["reorder_blocked"]["small"], SEED)
    order = benchmark(greedy_reorder, node_sets)
    assert sorted(order) == list(range(len(node_sets)))


def test_fused_map_insert(benchmark):
    params = SIZES["fused_map_insert"]["small"]
    rng = np.random.default_rng(SEED)
    ids = rng.integers(0, params["id_space"], size=params["num_ids"],
                       dtype=np.int64)
    capacity = table_capacity(len(np.unique(ids)))

    def run():
        table = VectorOpenAddressTable(capacity)
        table.fused_map_insert_batch(ids)
        return table

    table = benchmark(run)
    exact = ExactOpenAddressTable(capacity)
    for gid in ids:
        exact.fused_map_insert(int(gid))
    assert table.mapping() == exact.mapping()


def test_neighbor_sampling(benchmark):
    params = SIZES["neighbor_sampling"]["small"]
    dataset = _bench_dataset(params["num_nodes"], SEED)
    batch_rng = np.random.default_rng(SEED + 1)
    batches = [
        batch_rng.choice(dataset.train_ids, size=params["batch_size"],
                         replace=False)
        for _ in range(params["batches"])
    ]

    def run():
        sampler = NeighborSampler(
            dataset.graph, params["fanouts"], idmap=FusedIdMap(),
            rng=np.random.default_rng(SEED + 2),
        )
        return [sampler.sample(batch) for batch in batches]

    subgraphs = benchmark(run)
    assert len(subgraphs) == params["batches"]


def test_feature_gather(benchmark):
    params = SIZES["feature_gather"]["small"]
    rng = np.random.default_rng(SEED)
    store = MaterializedFeatureStore(
        rng.standard_normal(
            (params["num_nodes"], params["dim"])
        ).astype(np.float32)
    )
    requests = [
        rng.choice(params["num_nodes"], size=params["rows"], replace=False)
        for _ in range(params["gathers"])
    ]

    def run():
        return sum(len(store.gather(request)) for request in requests)

    total = benchmark(run)
    assert total == params["gathers"] * params["rows"]
