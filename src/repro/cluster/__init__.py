"""Multi-node distributed training simulation.

The cluster tier scales the single-node epoch model across simulated
machines: a METIS-style graph partitioner assigns every node of the
graph to a machine, mini-batches pay a **halo exchange** for the input
features their machine does not own (softened by a per-machine remote
feature cache), and each optimizer step pays a hierarchical gradient
sync — intra-node NCCL plus an inter-node ring or tree allreduce over a
contended fabric model. All of it lands in the ``network`` lane of the
epoch timeline, which still reconciles to the epoch time.

Entry points: pass ``cluster=ClusterSpec(...)`` to
:func:`repro.api.run` / :meth:`Framework.run_epoch`, or run the scaling
experiment (``python -m repro.experiments ext_cluster_strong``). The
``cluster`` scenario of ``python -m repro.gate`` gates a 4-node mini
cluster against its committed baseline.
"""

from repro.cluster.engine import ClusterState
from repro.cluster.fabric import NetworkFabric
from repro.cluster.halo import HaloExchange, HaloReport, group_by_owner
from repro.cluster.partitioner import (
    greedy_partition,
    hash_partition,
    partition_graph,
    random_partition,
)
from repro.cluster.spec import (
    ALLREDUCE_ALGOS,
    PARTITIONERS,
    REMOTE_CACHES,
    TOPOLOGIES,
    ClusterSpec,
)

__all__ = [
    "ALLREDUCE_ALGOS",
    "PARTITIONERS",
    "REMOTE_CACHES",
    "TOPOLOGIES",
    "ClusterSpec",
    "ClusterState",
    "HaloExchange",
    "HaloReport",
    "NetworkFabric",
    "greedy_partition",
    "group_by_owner",
    "hash_partition",
    "partition_graph",
    "random_partition",
]
