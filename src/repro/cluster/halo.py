"""Per-mini-batch halo (boundary-node) feature exchange.

When a mini-batch's sampled subgraph needs input features owned by
another node's partition, those **halo rows** must cross the fabric
before the forward pass can start. This module models that exchange:

* :func:`group_by_owner` buckets the requested node IDs by owning
  partition (the gather kernel the bench suite times);
* each node runs a **remote-feature cache** over rows it has pulled
  before — FastSample-style observed-frequency
  (:class:`~repro.storage.cache.FrequencyPageCache`), BGL-style
  partition-aware pinning
  (:class:`~repro.storage.cache.PartitionAwarePageCache`), plain LRU,
  or none — so hot halo rows stop paying fabric trips;
* the residual misses become per-peer pulls priced by
  :meth:`NetworkFabric.gather_time`, with the ``net_stall`` fault site
  injecting link stalls that the retry layer absorbs (backoff delay
  lands in the exchange time) or, past the budget, escalates to
  :class:`~repro.errors.NetworkStallError`.

Everything is deterministic: the cache walk (one batched
:meth:`~repro.storage.cache.PageCache.access_many` call) visits the
unique rows by owner, ascending ID within an owner; fault keys are an
explicit per-exchange sequence; and the traffic matrix double-entry
(bytes sent == bytes received == fetched rows x row bytes) is pinned by
the conservation tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.fabric import NetworkFabric
from repro.cluster.spec import ClusterSpec
from repro.errors import NetworkStallError
from repro.faults.retry import RetryPolicy, call_with_faults
from repro.obs import get_registry
from repro.storage.cache import (
    FrequencyPageCache,
    LRUPageCache,
    PartitionAwarePageCache,
)
from repro.utils.arrays import unique_ints

#: Resident-marker frame for cached remote rows — the sim caches row
#: *identity*, not payload.
_RESIDENT = True


def group_by_owner(ids, owners, num_parts: int):
    """Bucket node ``ids`` by owning partition.

    Returns ``(sorted_ids, counts)``: ``sorted_ids`` reorders ``ids`` so
    every partition's members are contiguous (ascending partition, stable
    within one), and ``counts[p]`` is how many rows partition ``p`` owns.
    ``np.cumsum(counts)`` recovers the segment boundaries. This is the
    send-buffer packing kernel every distributed GNN runtime runs per
    mini-batch; :mod:`repro.bench` times it as ``halo_gather``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    owners = np.asarray(owners, dtype=np.int64)
    parts = owners[ids]
    order = np.argsort(parts, kind="stable")
    counts = np.bincount(parts, minlength=num_parts).astype(np.int64)
    return ids[order], counts


@dataclass
class HaloReport:
    """What one mini-batch's halo exchange requested, hit, and paid."""

    node: int
    #: Distinct remote rows the batch needed.
    requested_rows: int = 0
    #: Of those, rows served by the local remote-feature cache.
    cache_hits: int = 0
    #: Rows actually pulled over the fabric (requested - hits).
    fetched_rows: int = 0
    #: Bytes pulled from each peer node (misses only).
    bytes_by_peer: dict = field(default_factory=dict)
    #: Modeled seconds the exchange took (gather + retry backoff).
    exchange_s: float = 0.0
    #: Seconds of that spent in ``net_stall`` retry backoff.
    retry_delay_s: float = 0.0
    #: Link-stall retries absorbed.
    retries: int = 0

    @property
    def bytes_total(self) -> int:
        return sum(self.bytes_by_peer.values())


class HaloExchange:
    """The halo-exchange engine of one simulated cluster.

    Owns the node->partition ``assignment``, one remote-feature cache per
    node, the cumulative traffic matrix, and the ``net_stall`` fault-key
    sequence. One instance is shared by every mini-batch of an epoch, so
    cache state (and therefore hit rates) evolves in execution order —
    callers must drive exchanges in a deterministic order.
    """

    def __init__(self, assignment: np.ndarray, fabric: NetworkFabric,
                 spec: ClusterSpec, bytes_per_row: int,
                 degrees: np.ndarray | None = None,
                 train_ids: np.ndarray | None = None,
                 retry_policy: RetryPolicy | None = None) -> None:
        self.assignment = np.asarray(assignment, dtype=np.int64)
        self.fabric = fabric
        self.spec = spec
        self.bytes_per_row = int(bytes_per_row)
        self.num_nodes = fabric.num_nodes
        self.retry_policy = retry_policy
        num_graph_nodes = len(self.assignment)
        capacity = int(spec.remote_cache_ratio * num_graph_nodes)
        self._caches = [
            self._build_cache(node, capacity, degrees, train_ids)
            for node in range(self.num_nodes)
        ]
        #: Cumulative bytes moved, ``traffic[src, dst]``.
        self.traffic = np.zeros((self.num_nodes, self.num_nodes),
                                dtype=np.int64)
        self.requested_rows = 0
        self.cache_hits = 0
        self.fetched_rows = 0
        self.exchange_s_total = 0.0
        self.retry_delay_s_total = 0.0
        self.retries = 0
        self._fault_seq = 0

    def _build_cache(self, node: int, capacity: int,
                     degrees: np.ndarray | None,
                     train_ids: np.ndarray | None):
        policy = self.spec.remote_cache
        if policy == "none" or capacity <= 0:
            return None
        if policy == "lru":
            return LRUPageCache(capacity)
        if policy == "freq":
            return FrequencyPageCache(capacity)
        # "partition": pin the rows whose owner partitions are training-hot
        # (degree mass x train density, as the storage tier does), with the
        # node's own rows scored out — local rows never cross the fabric.
        num_graph_nodes = len(self.assignment)
        sizes = np.bincount(self.assignment, minlength=self.num_nodes)
        if train_ids is None:
            train_counts = np.zeros(self.num_nodes)
        else:
            train_counts = np.bincount(
                self.assignment[np.asarray(train_ids, dtype=np.int64)],
                minlength=self.num_nodes,
            )
        density = train_counts / np.maximum(sizes, 1)
        mean_density = density.mean() if density.size else 0.0
        if mean_density > 0:
            density = density / mean_density
        if degrees is None:
            degrees = np.ones(num_graph_nodes, dtype=np.float64)
        hotness = np.asarray(degrees, dtype=np.float64) * (
            0.25 + density[self.assignment]
        )
        hotness[self.assignment == node] = -1.0
        return PartitionAwarePageCache(capacity, hotness)

    def cache_of(self, node: int):
        return self._caches[node]

    def next_fault_key(self) -> int:
        """The next ``net_stall`` operation key (explicit sequence — stays
        deterministic as long as exchanges run in a fixed order)."""
        key = self._fault_seq
        self._fault_seq += 1
        return key

    def exchange(self, node: int, input_nodes: np.ndarray) -> HaloReport:
        """Resolve one mini-batch's input features on ``node``.

        Splits the batch's unique input rows into local and halo,
        consults the node's remote cache for the halo rows, pulls the
        misses from their owners, and prices the pull on the fabric.
        """
        report = HaloReport(node=node)
        if self.num_nodes <= 1:
            return report
        ids = np.asarray(input_nodes, dtype=np.int64)
        remote = unique_ints(ids[self.assignment[ids] != node])
        report.requested_rows = int(remote.size)
        if remote.size == 0:
            return report
        sorted_ids, _counts = group_by_owner(remote, self.assignment,
                                             self.num_nodes)
        cache = self._caches[node]
        if cache is None:
            hit = np.zeros(sorted_ids.size, dtype=bool)
        else:
            hit = cache.access_many(sorted_ids, _RESIDENT)
        misses_by_peer = np.bincount(self.assignment[sorted_ids[~hit]],
                                     minlength=self.num_nodes)
        report.cache_hits = int(np.count_nonzero(hit))
        report.fetched_rows = report.requested_rows - report.cache_hits
        report.bytes_by_peer = {
            peer: rows * self.bytes_per_row
            for peer, rows in enumerate(misses_by_peer.tolist()) if rows
        }
        for peer, num_bytes in report.bytes_by_peer.items():
            self.traffic[peer, node] += num_bytes
            key = self.next_fault_key()
            _, stats = call_with_faults(
                lambda: None,
                site="net_stall",
                policy=self.retry_policy,
                key=key,
                exc_factory=lambda attempts, src=peer: NetworkStallError(
                    src=src, dst=node, attempts=attempts
                ),
            )
            report.retry_delay_s += stats.delay_s
            report.retries += stats.num_retries
        report.exchange_s = (
            self.fabric.gather_time(report.bytes_by_peer, node)
            + report.retry_delay_s
        )
        self._accumulate(report)
        return report

    def _accumulate(self, report: HaloReport) -> None:
        self.requested_rows += report.requested_rows
        self.cache_hits += report.cache_hits
        self.fetched_rows += report.fetched_rows
        self.exchange_s_total += report.exchange_s
        self.retry_delay_s_total += report.retry_delay_s
        self.retries += report.retries
        registry = get_registry()
        if registry.enabled and report.requested_rows:
            node = str(report.node)
            registry.counter(
                "repro_halo_requested_rows_total",
                "Distinct remote feature rows requested by mini-batches",
            ).labels(node=node).inc(report.requested_rows)
            registry.counter(
                "repro_halo_cache_hits_total",
                "Halo rows served from the remote-feature cache",
            ).labels(node=node).inc(report.cache_hits)
            registry.counter(
                "repro_halo_bytes_total",
                "Halo feature bytes pulled over the fabric",
            ).labels(node=node).inc(report.bytes_total)
            registry.histogram(
                "repro_halo_exchange_seconds",
                "Modeled halo-exchange time per mini-batch",
            ).labels(node=node).observe(report.exchange_s)

    # -- conservation accounting --------------------------------------------
    @property
    def bytes_sent_total(self) -> int:
        """Bytes leaving every owner node (traffic-matrix row sums)."""
        return int(self.traffic.sum())

    @property
    def bytes_received_total(self) -> int:
        """Bytes arriving at every requesting node (column sums) — equal
        to :attr:`bytes_sent_total` by construction; exposed separately so
        the conservation tests state the invariant against both views."""
        return int(self.traffic.sum(axis=0).sum())

    @property
    def hit_rate(self) -> float:
        if self.requested_rows == 0:
            return 0.0
        return self.cache_hits / self.requested_rows

    def summary(self) -> dict:
        """Cumulative exchange statistics (lands in ``extras['cluster']``)."""
        return {
            "requested_rows": self.requested_rows,
            "cache_hits": self.cache_hits,
            "fetched_rows": self.fetched_rows,
            "hit_rate": self.hit_rate,
            "bytes_moved": self.bytes_sent_total,
            "exchange_s": self.exchange_s_total,
            "retry_delay_s": self.retry_delay_s_total,
            "retries": self.retries,
        }
