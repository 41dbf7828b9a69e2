"""Shared epoch driver for all compared frameworks.

Each framework (PyG, DGL, GNNAdvisor, GNNLab, FastGL) is one strategy
bundle over the common substrate — Table 5 of the paper:

=============  ========  ============  ==============  ===============
framework      sampling  ID map        memory IO       computation
=============  ========  ============  ==============  ===============
PyG            CPU       CPU           naive           naive
DGL            GPU       3-kernel      naive           naive
GNNAdvisor     GPU       3-kernel      naive           2D workload (+preprocess)
GNNLab         GPU       3-kernel      static cache    naive (factored GPUs)
FastGL         GPU       Fused-Map     Match-Reorder   Memory-Aware
=============  ========  ============  ==============  ===============

``run_epoch`` executes one epoch *functionally* (sampling, byte-exact
transfer planning, optional real training) and *temporally* (the cost
model converts counted work into modeled seconds), returning an
:class:`EpochReport` with the three-phase breakdown the paper's figures
are built from.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from repro.config import RunConfig
from repro.core.memory_aware import ComputeCostModel, ComputeReport, model_profile
from repro.core.reorder import greedy_reorder, match_degree_matrix
from repro.gpu.cluster import allreduce_time
from repro.gpu.pcie import link_from_cost
from repro.gpu.spec import GPUSpec, RTX3090
from repro.graph.datasets import Dataset
from repro.graph.partition import MinibatchPlan
from repro.nn import Adam, Module, Tensor, build_model, cross_entropy
from repro.obs import get_registry
from repro.parallel import ParallelExecutor
from repro.pipeline import (
    PHASES,
    ExecutionSpec,
    Stage,
    pipelined_epoch_layout,
    pipelined_stages,
)
from repro.sampling import (
    BaselineIdMap,
    NeighborSampler,
    SampledSubgraph,
)
from repro.sampling.base import Sampler
from repro.storage.scheduler import observe_prefetch_queue
from repro.transfer.loader import FeatureLoader, NaiveLoader, TransferReport
from repro.utils.rng import RngFactory


@dataclass
class PhaseTimes:
    """Modeled seconds per training phase, summed over an epoch."""

    sample: float = 0.0
    #: ID-map share of the sample phase (already included in ``sample``).
    idmap: float = 0.0
    memory_io: float = 0.0
    #: Cross-node fabric traffic (halo feature exchange + inter-node
    #: gradient allreduce); 0.0 outside cluster runs.
    network: float = 0.0
    compute: float = 0.0
    #: Preprocess share of ``compute`` (GNNAdvisor; already included).
    preprocess: float = 0.0
    allreduce: float = 0.0

    @property
    def serial_total(self) -> float:
        """Sum of the three phases plus gradient sync (no overlap)."""
        return (self.sample + self.memory_io + self.network + self.compute
                + self.allreduce)

    def fractions(self, detail: bool = False) -> dict:
        """Phase shares of the serial total (the paper's stacked bars).

        The default three-way split folds the ID map into ``sample`` and
        network + preprocess + allreduce into ``compute`` (the paper's
        Fig. 1 view — single-node runs have no network share to fold).
        ``detail=True`` splits those shares out as disjoint components —
        the stepwise-figure view — so the returned values still sum to
        1.0 in both modes. Each mode returns the same key set whether or
        not the total is zero (shares are all 0.0 in the empty case).
        """
        if detail:
            parts = {
                "sample": self.sample - self.idmap,
                "idmap": self.idmap,
                "memory_io": self.memory_io,
                "network": self.network,
                "compute": self.compute - self.preprocess,
                "preprocess": self.preprocess,
                "allreduce": self.allreduce,
            }
        else:
            parts = {
                "sample": self.sample,
                "memory_io": self.memory_io,
                "compute": self.compute + self.network + self.allreduce,
            }
        total = self.serial_total
        if total == 0:
            return {key: 0.0 for key in parts}
        return {key: value / total for key, value in parts.items()}


@dataclass(frozen=True)
class CacheStats:
    """Typed view of an epoch's feature-residency counters.

    ``hits`` counts rows served from a static device cache, ``reused``
    rows kept resident by Match across consecutive batches, ``loaded``
    rows that actually crossed the host link; together they partition
    ``wanted``.
    """

    wanted: int
    loaded: int
    reused: int
    hits: int

    @property
    def hit_rate(self) -> float:
        """Cache hits per wanted row."""
        if self.wanted == 0:
            return 0.0
        return self.hits / self.wanted

    @property
    def resident_rate(self) -> float:
        """Rows that never crossed the link (cache hits + Match reuse)."""
        if self.wanted == 0:
            return 0.0
        return (self.hits + self.reused) / self.wanted


@dataclass
class EpochReport:
    """Everything one epoch produced: times, bytes, counters, losses."""

    framework: str
    dataset: str
    model: str
    num_batches: int
    #: Phase sums across all batches and trainer GPUs.
    phases: PhaseTimes
    #: Modeled wall-clock of the epoch (accounts for data parallelism and
    #: any pipeline overlap the framework implements).
    epoch_time: float
    transfer: TransferReport
    compute: ComputeReport
    idmap_report: object = None
    losses: list = field(default_factory=list)
    #: Device-memory accounting of the largest iteration (bytes).
    memory_peak_bytes: int = 0
    memory_detail: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def avg_loss(self) -> float:
        if not self.losses:
            return float("nan")
        return float(np.mean(self.losses))

    # -- typed views over ``extras`` -----------------------------------------
    @property
    def num_trainers(self) -> int:
        """Trainer GPUs the epoch ran on."""
        return int(self.extras.get("num_trainers", 1))

    def timeline(self) -> list:
        """The modeled epoch timeline as :class:`repro.obs.trace.Span`
        objects (one per phase interval per lane), replacing digging
        through ``extras["timeline"]`` dicts.

        The layout is exactly what the framework's epoch-time model
        computed — including allreduce and pipeline overlap — so
        ``max(span.end for span in report.timeline())`` equals
        :attr:`epoch_time`.
        """
        from repro.obs.trace import Span

        return [
            Span(
                name=entry["name"],
                start=entry["start"],
                duration=entry["dur"],
                lane=entry["lane"],
                category=entry["cat"],
                depth=entry.get("depth", 0),
                args={key: value for key, value in entry.items()
                      if key not in ("name", "start", "dur", "lane", "cat",
                                     "depth")},
            )
            for entry in self.extras.get("timeline", [])
        ]

    def cache_stats(self) -> CacheStats:
        """Typed feature-residency counters of the memory-IO phase."""
        return CacheStats(
            wanted=self.transfer.num_wanted,
            loaded=self.transfer.num_loaded,
            reused=self.transfer.num_reused,
            hits=self.transfer.num_cache_hits,
        )

    def summary(self) -> str:
        """One human-readable paragraph about this epoch."""
        from repro.utils.format import format_bytes, format_seconds

        fractions = self.phases.fractions()
        return (
            f"{self.framework} on {self.dataset}/{self.model}: "
            f"{self.num_batches} batches in "
            f"{format_seconds(self.epoch_time)} modeled "
            f"(sample {fractions['sample']:.0%}, "
            f"memory IO {fractions['memory_io']:.0%}, "
            f"compute {fractions['compute']:.0%}); "
            f"{format_bytes(self.transfer.feature_bytes)} features over "
            f"PCIe, {self.transfer.num_reused} rows reused, "
            f"{self.transfer.num_cache_hits} cache hits"
        )


@dataclass
class TrainState:
    """Model and optimizer that persist across ``run_epoch`` calls.

    ``epochs_done`` offsets the epoch-shuffle stream, so resuming a
    state continues the batch order instead of replaying epoch 0.
    """

    model: Module
    optimizer: Adam
    epochs_done: int = 0

    @classmethod
    def build(cls, model_name: str, dataset: Dataset, config: RunConfig,
              seed: int, learning_rate: float = 3e-3) -> "TrainState":
        model = build_model(
            model_name, dataset.feature_dim, dataset.num_classes,
            hidden_dim=config.hidden_dim, num_layers=config.num_layers,
            seed=seed,
        )
        return cls(model, Adam(model.parameters(), lr=learning_rate))


def _chunk(batches: list, num_chunks: int) -> list:
    """Split ``batches`` into ``num_chunks`` contiguous chunks (sizes differ
    by at most one)."""
    sizes = [len(batches) // num_chunks] * num_chunks
    for i in range(len(batches) % num_chunks):
        sizes[i] += 1
    out = []
    start = 0
    for size in sizes:
        out.append(batches[start:start + size])
        start += size
    return out


def _inject_retry_spans(spans: list, per_trainer_retries: list) -> None:
    """Overlay ``cat="retry"`` child spans on the memory-IO intervals
    whose loads were retried.

    The retry backoff is already *inside* the memory-IO duration (the
    transfer report folds it into ``modeled_time``), so the retry span is
    drawn nested at the tail of its parent interval and never extends the
    timeline — reconciliation between the trace extent and the modeled
    epoch time is preserved for every layout. Per-trainer spans (tagged
    with their ``trainer``) use that trainer's retry seconds; aggregated
    stage lanes (e.g. the out-of-core ``nvme`` lane, whose duration is
    the max across trainers) use the max retry seconds of the round.
    """
    if not any(delay > 0 for lane in per_trainer_retries
               for _, delay in lane):
        return

    def round_retries(trainer, batch: int):
        if trainer is not None:
            lane = per_trainer_retries[trainer]
            return lane[batch] if batch < len(lane) else (0, 0.0)
        count, delay = 0, 0.0
        for lane in per_trainer_retries:
            if batch < len(lane):
                count += lane[batch][0]
                delay = max(delay, lane[batch][1])
        return count, delay

    overlays = []
    for span in spans:
        if span["cat"] != "memory_io":
            continue
        count, delay = round_retries(span.get("trainer"),
                                     span.get("batch", -1))
        if count <= 0 or delay <= 0:
            continue
        duration = min(delay, span["dur"])
        overlays.append({
            "lane": span["lane"],
            "name": f"retry[{span.get('batch', 0)}]",
            "cat": "retry",
            "start": span["start"] + span["dur"] - duration,
            "dur": duration,
            "batch": span.get("batch", 0),
            "retries": count,
            "depth": 1,
        })
    spans.extend(overlays)


def _merge_pipeline_info(infos: list) -> dict:
    """Fold per-epoch stage-graph accounting into ``extras["pipeline"]``.

    Scalar seconds and sync counts sum across epochs; the per-stage
    total/stall maps merge key-wise (the halo stage may be absent on
    epochs with no remote rows). Mode knobs come from the spec and are
    identical across epochs.
    """
    merged = {
        "mode": infos[0]["mode"],
        "queue_depth": infos[0]["queue_depth"],
        "staleness": infos[0]["staleness"],
        "stage_totals": {},
        "stall_seconds": {},
        "num_syncs": 0,
        "serial_seconds": 0.0,
        "fill_seconds": 0.0,
        "bound_seconds": 0.0,
        "epoch_seconds": 0.0,
    }
    for info in infos:
        merged["num_syncs"] += info["num_syncs"]
        for key in ("serial_seconds", "fill_seconds", "bound_seconds",
                    "epoch_seconds"):
            merged[key] += info[key]
        for field, totals in (("stage_totals", info["stage_totals"]),
                              ("stall_seconds", info["stall_seconds"])):
            for name, value in totals.items():
                merged[field][name] = merged[field].get(name, 0.0) + value
    return merged


def _consecutive_match(matrix, order) -> float:
    """Summed match degree of consecutive pairs under ``order``."""
    order = list(order)
    return float(sum(matrix[a][b] for a, b in zip(order, order[1:])))


class Framework:
    """Base framework; subclasses override the strategy hooks."""

    name = "base"
    #: "gpu" or "cpu" — where neighbor draws run.
    sample_device = "gpu"
    #: Compute-cost mode: "naive", "memory_aware" or "advisor".
    compute_mode = "naive"
    #: GNNLab dedicates sampler GPU(s) and pipelines produce/consume.
    pipelined_sampling = False
    #: FastGL prefetches the next subgraph's topology under compute.
    prefetch_topology = False
    #: FastGL reorders each window of sampled mini-batches (Algorithm 1).
    use_reorder = False
    #: Naive kernels materialize per-edge messages (memory accounting);
    #: the fused Memory-Aware kernel does not.
    materialize_edge_messages = True

    def __init__(self, spec: GPUSpec = RTX3090) -> None:
        self.spec = spec

    # -- strategy hooks ------------------------------------------------------
    def make_idmap(self):
        return BaselineIdMap()

    def make_sampler(self, dataset: Dataset, config: RunConfig,
                     rng) -> Sampler:
        return NeighborSampler(
            dataset.graph,
            config.fanouts,
            idmap=self.make_idmap(),
            device=self.sample_device,
            rng=rng,
        )

    def make_loader(self, dataset: Dataset, config: RunConfig,
                    sampler: Sampler, rng) -> FeatureLoader:
        return NaiveLoader(dataset.features)

    def num_sampler_gpus(self, config: RunConfig) -> int:
        """GPUs dedicated to sampling (0: trainers sample for themselves)."""
        return 0

    def num_trainer_gpus(self, config: RunConfig) -> int:
        trainers = config.num_gpus - self.num_sampler_gpus(config)
        if trainers < 1:
            raise ValueError(
                f"{self.name} needs more than {config.num_gpus} GPU(s)"
            )
        return trainers

    # -- the epoch driver -----------------------------------------------------
    def run_epoch(
        self,
        dataset: Dataset,
        config: RunConfig,
        model_name: str = "gcn",
        sampler: Sampler | None = None,
        execution: ExecutionSpec | None = None,
        state: TrainState | None = None,
    ) -> EpochReport:
        """Execute one epoch and return its full report.

        ``state`` (a :class:`TrainState`) trains a caller-owned model and
        optimizer and advances its ``epochs_done``; without one,
        ``config.train_model`` trains a fresh model seeded from the run.

        ``execution`` (an :class:`~repro.pipeline.ExecutionSpec`)
        bundles every execution-environment knob:

        * ``jobs > 1`` computes the per-trainer lanes (reorder +
          transfer planning + compute modeling) in forked worker
          processes via :mod:`repro.parallel`. Sampling stays in the
          parent (the shared sampler RNG's consumption order must not
          depend on the job count), as do model training and the final
          accumulation — both run over the lanes' returned records in
          lane order, so the report and merged metrics are
          bit-identical to ``jobs=1``. Multi-epoch runs with loaders
          that carry state across epochs (the SSD page caches) fall
          back to in-process lanes.
        * ``cluster`` (a :class:`~repro.cluster.spec.ClusterSpec`)
          scales the run across simulated machines: ``config.num_gpus``
          describes *one* node, global trainer lanes multiply by
          ``num_nodes``, each batch pays a halo feature exchange for
          remote input rows, and the gradient sync becomes hierarchical
          (intra-node NCCL + an inter-node fabric allreduce in the
          ``network`` phase). A one-node cluster is bit-identical to
          ``cluster=None``.
        * ``faults`` (a :class:`~repro.faults.FaultPlan`) is installed
          for the span of the run, replacing a hand-written
          ``fault_scope`` around the call.
        * ``pipeline`` selects the epoch scheduler: ``"off"`` keeps
          this framework's classic layout bit-for-bit; ``"pipelined"``
          drives the epoch through the bounded stage graph
          (:mod:`repro.pipeline`) so sample/transfer/halo/train
          overlap across rounds. Model state (losses, parameters) is
          identical in both modes — the pipeline only reschedules
          modeled time.
        """
        if execution is None:
            execution = ExecutionSpec()
        with ExitStack() as stack:
            if execution.faults is not None:
                from repro.faults import fault_scope

                stack.enter_context(fault_scope(execution.faults))
            return self._run_epoch(dataset, config, model_name, sampler,
                                   execution, state)

    def _run_epoch(
        self,
        dataset: Dataset,
        config: RunConfig,
        model_name: str,
        sampler: Sampler | None,
        execution: ExecutionSpec,
        state: TrainState | None,
    ) -> EpochReport:
        jobs = execution.jobs
        cluster = execution.cluster
        pipeline = execution.pipeline
        cost = config.cost
        rngs = RngFactory(config.seed)
        link = link_from_cost(self.spec, cost)
        per_node_trainers = self.num_trainer_gpus(config)
        cluster_state = None
        if cluster is not None and cluster.num_nodes >= 1:
            from repro.cluster.engine import ClusterState

            cluster_state = ClusterState(dataset, config, cluster,
                                         per_node_trainers)
        num_nodes = (cluster_state.num_nodes if cluster_state is not None
                     else 1)
        trainers = per_node_trainers * num_nodes
        profile = model_profile(
            model_name, dataset.feature_dim, dataset.num_classes,
            hidden_dim=config.hidden_dim, num_layers=config.num_layers,
        )
        cost_model = ComputeCostModel(self.spec, cost, self.compute_mode)

        plan = MinibatchPlan(dataset.train_ids, config.batch_size,
                             locality=config.batch_locality)

        if sampler is None:
            sampler = self.make_sampler(dataset, config,
                                        rngs.child("sampler"))
        loaders = [
            self.make_loader(dataset, config, sampler,
                             rngs.child(f"loader{t}"))
            for t in range(trainers)
        ]

        if state is None and config.train_model:
            state = TrainState.build(model_name, dataset, config,
                                     rngs.child_seed("model"))
        model = state.model if state is not None else None
        first_epoch = state.epochs_done if state is not None else 0
        param_bytes = (
            model.parameter_bytes()
            if model is not None
            else _profile_param_bytes(profile)
        )
        # Per-round gradient sync: the NCCL allreduce across the trainers
        # (inside one node on cluster runs), then the inter-node fabric hop.
        if cluster_state is not None:
            sync = cluster_state.intra_sync_time(param_bytes, cost)
            net_sync = cluster_state.net_sync_time(param_bytes)
        else:
            sync = (allreduce_time(param_bytes, trainers, cost)
                    if trainers > 1 else 0.0)
            net_sync = 0.0

        phases = PhaseTimes()
        #: Typed like the first report the loader produces, so storage-
        #: backed loaders keep their SSD counters through the epoch merge.
        transfer_total: TransferReport | None = None
        compute_total = ComputeReport()
        idmap_total = None
        losses: list = []
        memory_peak = 0
        memory_detail: dict = {}
        epoch_time = 0.0
        num_batches = 0
        iteration_log: list = []  # per trainer: [(sample, io, compute), ...]
        timeline: list = []  # modeled spans of every epoch's layout
        pipeline_log: list = []  # per-epoch stage-graph accounting

        # Observability handles, fetched once per epoch run. With the
        # registry disabled these are the shared no-op singletons, so the
        # per-batch path below performs only no-op method calls.
        registry = get_registry()
        phase_hist = registry.histogram(
            "repro_phase_seconds",
            "Modeled per-batch seconds spent in each training phase",
        )
        obs_phase = {
            phase: phase_hist.labels(framework=self.name, phase=phase)
            for phase in ("sample", "idmap", "memory_io", "network",
                          "compute", "allreduce")
        }
        obs_batches = registry.counter(
            "repro_batches_total", "Mini-batches processed",
        ).labels(framework=self.name)

        # Multi-epoch runs with cross-epoch loader state (SSD page
        # caches) must evolve that state in the parent process.
        lane_jobs = jobs
        if max(1, config.num_epochs) > 1 and any(
            loader.carries_state_across_epochs for loader in loaders
        ):
            lane_jobs = 1
        lane_executor = ParallelExecutor(jobs=lane_jobs)
        transport_totals = {"mode": "serial", "ipc_bytes": 0}

        for epoch in range(max(1, config.num_epochs)):
            batches = plan.batches(
                rngs.child(f"epoch-shuffle:{first_epoch + epoch}"))
            if cluster_state is not None:
                # Owner-compute placement: each node trains the seeds
                # its partition owns (identical to _chunk at one node).
                chunks = cluster_state.place_batches(batches,
                                                     config.batch_size)
                num_batches += sum(len(c) for c in chunks)
            else:
                chunks = _chunk(batches, trainers)
                num_batches += len(batches)
            # Sample every lane in the parent: the shared sampler RNG's
            # draw order is part of the results and must not depend on
            # the job count.
            lane_subgraphs = [
                [sampler.sample(batch) for batch in chunk]
                for chunk in chunks
            ]

            def lane_task(t):
                # PCIe contention is per node: only the trainers sharing
                # one host link compete (== all trainers without a
                # cluster).
                return self._run_lane(
                    lane_subgraphs[t], loaders[t], sampler, config, cost,
                    link, cost_model, profile, dataset, param_bytes,
                    per_node_trainers,
                )

            # Lane records come back in lane order; worker-side metric
            # snapshots (loader counters, reorder histograms, storage
            # schedulers) are merged in lane order too — the serial path
            # runs the identical fresh-registry protocol, so the merged
            # registry is the same at any job count.
            lane_records = lane_executor.map(lane_task, range(len(chunks)))
            transport = lane_executor.last_transport
            transport_totals["mode"] = transport.mode
            transport_totals["ipc_bytes"] += transport.ipc_bytes

            per_trainer_rounds: list = []  # per trainer: PHASES seconds
            per_trainer_retries: list = []  # per trainer: (count, seconds)
            for t, records in enumerate(lane_records):
                chunk = chunks[t]
                subgraphs = lane_subgraphs[t]
                lane_rounds = []
                lane_retries = []
                for rec in records:
                    position = rec["position"]
                    sg = subgraphs[position]
                    seeds = chunk[position]
                    sample_t = rec["sample_t"]
                    idmap_t = rec["idmap_t"]
                    io_t = rec["io_t"]
                    report = rec["report"]
                    comp = rec["comp"]
                    # Halo exchange runs in the parent, lane-major: the
                    # per-node remote caches must evolve in one
                    # deterministic order regardless of the job count.
                    net_t = 0.0
                    if cluster_state is not None:
                        net_t = cluster_state.batch_network_time(t, sg)

                    phases.sample += sample_t
                    phases.idmap += idmap_t
                    phases.memory_io += io_t
                    phases.network += net_t
                    phases.compute += comp.total_time
                    phases.preprocess += comp.preprocess_time
                    obs_phase["sample"].observe(sample_t)
                    obs_phase["idmap"].observe(idmap_t)
                    obs_phase["memory_io"].observe(io_t)
                    if net_t > 0:
                        obs_phase["network"].observe(net_t)
                    obs_phase["compute"].observe(comp.total_time)
                    obs_batches.inc()
                    if transfer_total is None:
                        transfer_total = type(report)()
                    transfer_total.merge(report)
                    compute_total.merge(comp)
                    idmap_total = (
                        sg.idmap_report if idmap_total is None
                        else idmap_total + sg.idmap_report
                    )
                    lane_rounds.append(
                        (sample_t, io_t, net_t, comp.total_time)
                    )
                    lane_retries.append((
                        getattr(report, "num_retries", 0),
                        getattr(report, "retry_delay_s", 0.0),
                    ))
                    while len(iteration_log) <= t:
                        iteration_log.append([])
                    iteration_log[t].append(
                        (sample_t, io_t, comp.total_time)
                    )

                    if model is not None:
                        features = Tensor(
                            dataset.features.gather(sg.input_nodes)
                        )
                        logits = model(sg, features)
                        loss = cross_entropy(logits, dataset.labels[seeds])
                        state.optimizer.zero_grad()
                        loss.backward()
                        state.optimizer.step()
                        losses.append(float(loss.data))

                    usage = rec["usage"]
                    if usage["total"] > memory_peak:
                        memory_peak = usage["total"]
                        memory_detail = usage
                per_trainer_rounds.append(lane_rounds)
                per_trainer_retries.append(lane_retries)

            halo = any(net_t > 0 for lane in per_trainer_rounds
                       for _, _, net_t, _ in lane)
            stages, window = self._epoch_stages(config, num_nodes, pipeline,
                                                halo)
            epoch_seconds, epoch_spans, info = pipelined_epoch_layout(
                stages, per_trainer_rounds, sync=sync, net_sync=net_sync,
                queue_depth=(pipeline.queue_depth if pipeline.enabled
                             else None),
                window=window,
                staleness=pipeline.staleness if pipeline.enabled else 0,
                label=(self.name or "epoch") if pipeline.enabled else None,
            )
            if window is not None:
                # The admission window is the storage prefetch queue.
                observe_prefetch_queue(epoch_seconds, info["stage_totals"],
                                       max(map(len, per_trainer_rounds)),
                                       window)
            if pipeline.enabled:
                info.update(mode=pipeline.mode,
                            queue_depth=pipeline.queue_depth,
                            staleness=pipeline.staleness,
                            epoch_seconds=epoch_seconds)
                pipeline_log.append(info)
            _inject_retry_spans(epoch_spans, per_trainer_retries)
            for span in epoch_spans:
                span["start"] += epoch_time
            timeline.extend(epoch_spans)
            epoch_time += epoch_seconds
            epoch_allreduce = info["num_syncs"] * sync
            phases.allreduce += epoch_allreduce
            if epoch_allreduce > 0:
                obs_phase["allreduce"].observe(epoch_allreduce)
            if net_sync > 0:
                net_sync_total = info["num_syncs"] * net_sync
                phases.network += net_sync_total
                obs_phase["network"].observe(net_sync_total)
            if state is not None:
                state.epochs_done += 1
        extras = {"iterations": iteration_log,
                  "num_trainers": trainers,
                  "timeline": timeline,
                  # Transport-layer accounting of the lane executor
                  # (zero in serial mode). Like the matching obs
                  # counter, this is jobs-dependent diagnostics —
                  # conformance comparisons strip it.
                  "parallel_transport": transport_totals}
        if pipeline_log:
            extras["pipeline"] = _merge_pipeline_info(pipeline_log)
        if cluster_state is not None:
            extras["cluster"] = cluster_state.summary()
        if model is not None:
            # Snapshot the trained parameters so conformance tests can
            # assert bit-identical model state across configurations.
            extras["final_params"] = [
                param.data.copy() for param in model.parameters()
            ]
        return EpochReport(
            framework=self.name,
            dataset=dataset.name,
            model=model_name,
            num_batches=num_batches,
            phases=phases,
            epoch_time=epoch_time,
            transfer=transfer_total if transfer_total is not None
            else TransferReport(),
            compute=compute_total,
            idmap_report=idmap_total,
            losses=losses,
            memory_peak_bytes=memory_peak,
            memory_detail=memory_detail,
            extras=extras,
        )

    # -- helpers ---------------------------------------------------------------
    def _run_lane(self, subgraphs: list, loader, sampler, config: RunConfig,
                  cost, link, cost_model, profile, dataset, param_bytes,
                  trainers: int) -> list:
        """One trainer lane's post-sampling work: window reorder, transfer
        planning, compute modeling, workspace sizing.

        Pure with respect to the parent's accumulators — everything the
        epoch driver folds is returned as picklable per-batch records (in
        execution order), so the lane can run in a forked worker. Metric
        side effects (loader counters, reorder histograms) go to whatever
        registry is current — the executor's per-chunk registry protocol
        captures and merges them.
        """
        loader.reset_epoch()
        order = list(range(len(subgraphs)))
        if self.use_reorder and len(subgraphs) > 2:
            order = self._reorder_windows(subgraphs, config)
        records = []
        for position in order:
            sg = subgraphs[position]
            sample_t = sampler.modeled_sample_time(sg, cost)
            idmap_t = sg.idmap_report.modeled_time(cost)
            sample_t += idmap_t
            report = loader.plan(sg)
            comp = cost_model.subgraph_report(sg, profile)
            io_t = self._io_time(report, comp, link, cost, trainers)
            usage = self._workspace_bytes(sg, profile, dataset,
                                          param_bytes, config)
            records.append({
                "position": position,
                "sample_t": sample_t,
                "idmap_t": idmap_t,
                "io_t": io_t,
                "report": report,
                "comp": comp,
                "usage": usage,
            })
        return records

    def _reorder_windows(self, subgraphs: list, config: RunConfig) -> list:
        """Greedy-reorder each window of ``reorder_window`` mini-batches."""
        order: list = []
        window = max(2, config.reorder_window)
        registry = get_registry()
        obs_match = registry.histogram(
            "repro_reorder_match_degree",
            "Summed consecutive match degree per reorder window, before "
            "(order=arrival) and after (order=reordered) Greedy Reorder",
            buckets=(0.25, 0.5, 1, 2, 4, 8, 16, 32),
        )
        for start in range(0, len(subgraphs), window):
            group = list(range(start, min(start + window, len(subgraphs))))
            if len(group) > 2:
                matrix = match_degree_matrix(
                    [subgraphs[i].unique_input_nodes() for i in group],
                    assume_unique=True,
                )
                chosen = greedy_reorder(matrix)
                if registry.enabled:
                    arrival = range(len(group))
                    obs_match.labels(
                        framework=self.name, order="arrival",
                    ).observe(_consecutive_match(matrix, arrival))
                    obs_match.labels(
                        framework=self.name, order="reordered",
                    ).observe(_consecutive_match(matrix, chosen))
                group = [group[i] for i in chosen]
            order.extend(group)
        return order

    def _io_time(self, report: TransferReport, comp: ComputeReport,
                 link, cost, trainers: int) -> float:
        io_t = report.modeled_time(link, cost, concurrent_links=trainers)
        if self.prefetch_topology and report.total_bytes > 0:
            # Topology of the next batch moves under this batch's compute;
            # only the un-overlapped remainder counts.
            bw = link.effective_bandwidth(trainers)
            structure_t = report.structure_bytes / bw
            io_t -= min(structure_t, comp.total_time)
        return max(0.0, io_t)

    def _epoch_stages(self, config: RunConfig, num_nodes: int, pipeline,
                      halo: bool) -> tuple:
        """This framework's epoch as a stage-graph declaration:
        ``(stages, window)`` for :func:`~repro.pipeline.
        pipelined_epoch_layout`.

        ``pipeline="off"`` is lockstep data parallelism: each round runs
        one batch per trainer and the gradient sync joins the round as a
        collective every trainer attends. ``"pipelined"`` overlaps the
        rounds through the full sample → memory IO → (halo) → train
        graph. ``halo`` says whether this epoch moved any remote rows.
        """
        if pipeline.enabled:
            return pipelined_stages(halo), None
        return (Stage("round", PHASES),), None

    def _workspace_bytes(self, subgraph: SampledSubgraph, profile, dataset,
                         param_bytes: int, config: RunConfig) -> dict:
        """Device-memory accounting for one iteration (Table 1/9 model)."""
        cost = config.cost
        store = dataset.features
        feature_buf = subgraph.num_nodes * store.bytes_per_node
        structure = subgraph.structure_bytes()
        activations = 0
        edge_messages = 0
        for (d_in, d_out), block in zip(profile.layer_dims,
                                        reversed(subgraph.layers)):
            rows = block.num_src if profile.gemm_on_src else block.num_dst
            activations += rows * d_out * 4 * 2  # forward + gradient
            agg_dim = d_out if profile.gemm_on_src else d_in
            if self.materialize_edge_messages:
                edge_messages += block.num_edges * agg_dim * 4
        workspace = feature_buf + structure + activations + edge_messages
        total = int(
            cost.runtime_overhead_bytes
            + param_bytes * 3  # params + Adam moments
            + workspace * cost.allocator_slack
            + self._extra_device_bytes(dataset, config)
        )
        return {
            "total": total,
            "features": feature_buf,
            "structure": structure,
            "activations": activations,
            "edge_messages": edge_messages,
            "params_opt": param_bytes * 3,
            "runtime": cost.runtime_overhead_bytes,
            "cache": self._extra_device_bytes(dataset, config),
        }

    def _extra_device_bytes(self, dataset: Dataset,
                            config: RunConfig) -> int:
        """Additional pinned device memory (feature caches)."""
        return 0


def _profile_param_bytes(profile) -> int:
    """Parameter bytes implied by a model profile (when no real model is
    instantiated): weights + biases per GEMM."""
    total = 0
    for d_in, d_out in profile.layer_dims:
        per_gemm = d_in * d_out + d_out
        total += per_gemm * profile.gemms_per_layer
        if profile.attention_heads:
            total += 2 * profile.attention_heads * d_out
    return total * 4
