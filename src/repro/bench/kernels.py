"""The named hot-kernel benchmarks behind ``python -m repro.bench``.

Each kernel is a function ``bench_<name>(params, repeats, rng_seed)``
returning a JSON-able record: wall-clock times (best-of-``repeats``),
deterministic work counters, and — where a reference implementation
exists — the reference time and speedup. Wall-clock numbers vary by
machine; the work counters are seeded and bit-stable, which is what the
``bench`` scenario of :mod:`repro.gate` pins.

The seven kernels cover the per-batch hot path end to end, plus the
cluster tier's one-off partitioning:

* ``match_degree_matrix`` — the Reorder strategy's pairwise overlap
  product (vs the legacy O(n^2) ``np.intersect1d`` loop);
* ``reorder_blocked`` — Algorithm 1 chaining from raw node sets: the
  blocked top-k reorder pipeline (pair-counted matrix + candidate-block
  chain) vs the kept legacy path (``match_degree_matrix_legacy`` + full
  argmax sweep), orders asserted identical;
* ``fused_map_insert`` — the batch-vectorized Algorithm 2 hash-table
  insert (vs the exact per-operation oracle);
* ``neighbor_sampling`` — k-hop uniform sampling with the fused ID map;
* ``feature_gather`` — the memory-IO phase's host-side feature copy;
* ``halo_gather`` — the cluster tier's owner-grouping of a sampled
  frontier plus the per-peer feature-row gather (:mod:`repro.cluster`);
* ``greedy_partition`` — the streaming edge-cut partitioner the cluster
  runs before every epoch, on a planted-community graph.
"""

from __future__ import annotations

import platform
import time

import numpy as np

from repro.bench.oracles import (
    greedy_reorder_legacy,
    match_degree_matrix_legacy,
)
from repro.core.reorder import greedy_reorder, match_degree_matrix
from repro.graph.datasets import Dataset, DatasetSpec, PaperScale
from repro.graph.features import MaterializedFeatureStore
from repro.sampling import FusedIdMap, NeighborSampler
from repro.sampling.idmap.hash_table import (
    ExactOpenAddressTable,
    VectorOpenAddressTable,
    table_capacity,
)
from repro.utils.arrays import unique_ints

#: Per-kernel parameters at the two benchmark scales. ``large`` for
#: ``match_degree_matrix`` is the acceptance size: 256 batches of 4k
#: nodes (the ISSUE's >=10x speedup target is measured there).
SIZES = {
    "match_degree_matrix": {
        "small": {"batches": 48, "nodes": 1024, "id_space": 50_000},
        "large": {"batches": 256, "nodes": 4096, "id_space": 200_000},
    },
    # The acceptance size for the blocked top-k reorder is the *medium*
    # tier (256 batches x 4k nodes), so the O(batches^2) regression
    # surface is exercised by the CI --medium run, not only --full.
    "reorder_blocked": {
        "small": {"batches": 48, "nodes": 1024, "id_space": 50_000},
        "medium": {"batches": 256, "nodes": 4096, "id_space": 200_000},
    },
    "fused_map_insert": {
        "small": {"num_ids": 20_000, "id_space": 60_000},
        "large": {"num_ids": 1_000_000, "id_space": 3_000_000},
    },
    "neighbor_sampling": {
        "small": {"num_nodes": 20_000, "batch_size": 512, "batches": 4,
                  "fanouts": (10, 10)},
        "large": {"num_nodes": 100_000, "batch_size": 1024, "batches": 8,
                  "fanouts": (15, 10)},
    },
    "feature_gather": {
        "small": {"num_nodes": 50_000, "dim": 128, "rows": 20_000,
                  "gathers": 8},
        "large": {"num_nodes": 500_000, "dim": 256, "rows": 100_000,
                  "gathers": 8},
    },
    "halo_gather": {
        "small": {"num_nodes": 50_000, "dim": 64, "parts": 4,
                  "rows": 20_000, "batches": 8},
        "large": {"num_nodes": 400_000, "dim": 128, "parts": 16,
                  "rows": 100_000, "batches": 8},
    },
    "greedy_partition": {
        "small": {"num_nodes": 20_000, "avg_degree": 10.0, "parts": 4},
        "medium": {"num_nodes": 200_000, "avg_degree": 15.0, "parts": 8},
    },
}

#: Sizes at which the slow reference implementations are also timed
#: (the exact hash table is a Python loop; keep its workload bounded).
REFERENCE_SIZES = {
    "match_degree_matrix": ("small", "large"),
    "fused_map_insert": ("small",),
    "reorder_blocked": ("small", "medium"),
}


def _time(fn, repeats: int) -> list:
    """Wall-clock seconds per repeat (list, first may include warmup)."""
    times = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _record(name, size, params, times, work, reference=None):
    record = {
        "kernel": name,
        "size": size,
        "params": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in params.items()},
        "repeats": len(times),
        "best_s": min(times),
        "mean_s": sum(times) / len(times),
        "times_s": times,
        "work": work,
    }
    if reference is not None:
        record.update(reference)
    return record


def _node_sets(params, seed):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, params["id_space"], size=params["nodes"],
                     dtype=np.int64)
        for _ in range(params["batches"])
    ]


def bench_match_degree_matrix(size: str, repeats: int, seed: int) -> dict:
    params = SIZES["match_degree_matrix"][size]
    node_sets = _node_sets(params, seed)
    times = _time(lambda: match_degree_matrix(node_sets), repeats)
    matrix = match_degree_matrix(node_sets)
    work = {
        "batches": params["batches"],
        "total_ids": params["batches"] * params["nodes"],
        "matrix_sum": round(float(matrix.sum()), 6),
    }
    reference = None
    if size in REFERENCE_SIZES["match_degree_matrix"]:
        legacy_times = _time(
            lambda: match_degree_matrix_legacy(node_sets),
            min(repeats, 2),
        )
        reference = {
            "legacy_s": min(legacy_times),
            "speedup_vs_legacy": min(legacy_times) / min(times),
        }
    return _record("match_degree_matrix", size, params, times, work,
                   reference)


def bench_reorder_blocked(size: str, repeats: int, seed: int) -> dict:
    """The full blocked top-k reorder pipeline from raw node sets
    (pair-counted match matrix + candidate-block chain) against the kept
    legacy path (``match_degree_matrix_legacy`` + full argmax sweep).
    Orders must be identical — including ties — or the record refuses to
    report a speedup at all."""
    params = SIZES["reorder_blocked"][size]
    node_sets = _node_sets(params, seed)
    times = _time(
        lambda: greedy_reorder(node_sets, assume_unique=False), repeats
    )
    order = greedy_reorder(node_sets)
    work = {
        "batches": params["batches"],
        "order_checksum": int(np.dot(np.arange(len(order)), order)),
    }
    reference = None
    if size in REFERENCE_SIZES["reorder_blocked"]:
        legacy_times = _time(
            lambda: greedy_reorder_legacy(node_sets), min(repeats, 2)
        )
        legacy_order = greedy_reorder_legacy(node_sets)
        if legacy_order != order:  # pragma: no cover - pinned by tests
            raise AssertionError(
                "blocked reorder diverged from the legacy sweep")
        work["orders_match"] = 1
        reference = {
            "legacy_s": min(legacy_times),
            "speedup_vs_legacy": min(legacy_times) / min(times),
        }
    return _record("reorder_blocked", size, params, times, work, reference)


def bench_fused_map_insert(size: str, repeats: int, seed: int) -> dict:
    params = SIZES["fused_map_insert"][size]
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, params["id_space"], size=params["num_ids"],
                       dtype=np.int64)
    capacity = table_capacity(len(unique_ints(ids)))

    def run():
        table = VectorOpenAddressTable(capacity)
        table.fused_map_insert_batch(ids)
        return table

    times = _time(run, repeats)
    table = run()
    work = {
        "capacity": capacity,
        "inserts": table.stats.inserts,
        "duplicate_hits": table.stats.duplicate_hits,
        "local_id": table.local_id,
    }
    reference = None
    if size in REFERENCE_SIZES["fused_map_insert"]:
        def run_exact():
            exact = ExactOpenAddressTable(capacity)
            for gid in ids:
                exact.fused_map_insert(int(gid))

        exact_times = _time(run_exact, 1)
        reference = {
            "exact_s": min(exact_times),
            "speedup_vs_exact": min(exact_times) / min(times),
        }
    return _record("fused_map_insert", size, params, times, work, reference)


def _bench_dataset(num_nodes: int, seed: int) -> Dataset:
    spec = DatasetSpec(
        name=f"bench-{num_nodes}",
        num_nodes=num_nodes,
        avg_degree=15.0,
        feature_dim=64,
        num_classes=8,
        train_fraction=0.3,
        paper=PaperScale(num_nodes * 10, num_nodes * 150, 1_000_000),
    )
    return Dataset(spec, seed=seed)


def bench_neighbor_sampling(size: str, repeats: int, seed: int) -> dict:
    params = SIZES["neighbor_sampling"][size]
    dataset = _bench_dataset(params["num_nodes"], seed)
    batch_rng = np.random.default_rng(seed + 1)
    batches = [
        batch_rng.choice(dataset.train_ids, size=params["batch_size"],
                         replace=False)
        for _ in range(params["batches"])
    ]

    def run():
        sampler = NeighborSampler(
            dataset.graph, params["fanouts"], idmap=FusedIdMap(),
            rng=np.random.default_rng(seed + 2),
        )
        return [sampler.sample(batch) for batch in batches]

    times = _time(run, repeats)
    subgraphs = run()
    work = {
        "batches": len(batches),
        "sampled_edges": int(sum(sg.num_sampled_edges for sg in subgraphs)),
        "input_nodes": int(sum(sg.num_nodes for sg in subgraphs)),
    }
    return _record("neighbor_sampling", size, params, times, work)


def bench_feature_gather(size: str, repeats: int, seed: int) -> dict:
    params = SIZES["feature_gather"][size]
    rng = np.random.default_rng(seed)
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
        total = 0
        for request in requests:
            total += len(store.gather(request))
        return total

    times = _time(run, repeats)
    work = {
        "gathers": params["gathers"],
        "rows": params["gathers"] * params["rows"],
        "bytes": params["gathers"] * params["rows"] * store.bytes_per_node,
    }
    return _record("feature_gather", size, params, times, work)


def bench_halo_gather(size: str, repeats: int, seed: int) -> dict:
    """Owner-grouping plus per-peer feature gather of a halo exchange:
    the per-batch hot path of :class:`repro.cluster.halo.HaloExchange`."""
    from repro.cluster.halo import group_by_owner

    params = SIZES["halo_gather"][size]
    rng = np.random.default_rng(seed)
    owners = rng.integers(0, params["parts"], size=params["num_nodes"],
                          dtype=np.int64)
    features = rng.standard_normal(
        (params["num_nodes"], params["dim"])
    ).astype(np.float32)
    requests = [
        rng.choice(params["num_nodes"], size=params["rows"], replace=False)
        for _ in range(params["batches"])
    ]

    def run():
        moved = 0
        for request in requests:
            grouped, counts = group_by_owner(request, owners,
                                             params["parts"])
            offset = 0
            for count in counts:
                peer_rows = features[grouped[offset:offset + count]]
                moved += peer_rows.nbytes
                offset += count
        return moved

    times = _time(run, repeats)
    grouped, counts = group_by_owner(requests[0], owners, params["parts"])
    work = {
        "batches": params["batches"],
        "rows": params["batches"] * params["rows"],
        "bytes": run(),
        "counts_checksum": int(np.dot(np.arange(len(counts)), counts)),
    }
    return _record("halo_gather", size, params, times, work)


def bench_greedy_partition(size: str, repeats: int, seed: int) -> dict:
    """The greedy edge-cut partitioner on a planted-community graph with
    one community per partition. The assignment checksum and the edge
    cut pin its output exactly."""
    from repro.cluster.partitioner import greedy_partition
    from repro.graph.generators import community_graph
    from repro.graph.partition import partition_stats

    params = SIZES["greedy_partition"][size]
    graph, _ = community_graph(params["num_nodes"], params["avg_degree"],
                               num_communities=params["parts"], rng=seed)
    times = _time(lambda: greedy_partition(graph, params["parts"]), repeats)
    assignment = greedy_partition(graph, params["parts"])
    work = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "assignment_checksum": int(
            np.dot(np.arange(graph.num_nodes), assignment)),
        "edge_cut": partition_stats(graph, assignment,
                                    params["parts"]).edge_cut,
    }
    return _record("greedy_partition", size, params, times, work)


#: Kernel name -> callable(size, repeats, seed) in report order.
KERNELS = {
    "match_degree_matrix": bench_match_degree_matrix,
    "reorder_blocked": bench_reorder_blocked,
    "fused_map_insert": bench_fused_map_insert,
    "neighbor_sampling": bench_neighbor_sampling,
    "feature_gather": bench_feature_gather,
    "halo_gather": bench_halo_gather,
    "greedy_partition": bench_greedy_partition,
}


def run_bench(kernels=None, quick: bool = False, medium: bool = False,
              repeats: int = 3, seed: int = 0) -> dict:
    """Run the selected kernels; returns the BENCH document.

    Size tiers nest: ``quick`` runs ``small`` only, ``medium`` adds the
    ``medium`` sizes (the acceptance size of the blocked-reorder gate —
    256 batches x 4k nodes — kept cheap enough for CI), the default
    runs everything a kernel defines. Kernels without a given tier are
    simply skipped at it.
    """
    names = list(kernels) if kernels else list(KERNELS)
    if quick:
        sizes = ("small",)
    elif medium:
        sizes = ("small", "medium")
    else:
        sizes = ("small", "medium", "large")
    records = []
    for name in names:
        fn = KERNELS[name]
        for size in sizes:
            if size not in SIZES[name]:
                continue
            records.append(fn(size, repeats, seed))
    return {
        "version": 1,
        "quick": bool(quick),
        "medium": bool(medium),
        "seed": int(seed),
        "repeats": int(repeats),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernels": records,
    }
