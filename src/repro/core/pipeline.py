"""The FastGL training pipeline (the paper's Fig. 5), as a library API.

:class:`FastGLTrainer` is the user-facing orchestration: per window of
``n`` mini-batches it (1) samples with the Fused-Map sampler, (2) greedily
reorders the window, then (3) trains batch by batch, loading features
through the Match process (plus the Section-5 leftover-memory cache) and
running the real numpy model whose aggregation the Memory-Aware cost model
prices. It owns a persistent model/optimizer, so it is the right entry
point for an application that wants a *trained model* rather than an
epoch-time report (use :class:`repro.frameworks.FastGLFramework` for
that).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import RunConfig
from repro.core.memory_aware import ComputeCostModel, model_profile
from repro.core.reorder import greedy_reorder, match_degree_matrix
from repro.gpu.pcie import link_from_cost
from repro.gpu.spec import GPUSpec, RTX3090
from repro.graph.datasets import Dataset
from repro.graph.partition import MinibatchPlan
from repro.nn import Adam, Tensor, build_model, cross_entropy, no_grad
from repro.sampling import FusedIdMap, NeighborSampler
from repro.transfer.buffer import ResidentFeatureBuffer
from repro.transfer.cache import PresampleCachePolicy
from repro.transfer.loader import MatchLoader
from repro.utils.arrays import unique_ints
from repro.utils.rng import RngFactory


@dataclass
class TrainHistory:
    """What one :meth:`FastGLTrainer.train` call produced."""

    losses: list = field(default_factory=list)
    #: Modeled GPU seconds per phase, accumulated.
    sample_time: float = 0.0
    memory_io_time: float = 0.0
    compute_time: float = 0.0
    num_batches: int = 0
    rows_loaded: int = 0
    rows_reused: int = 0
    #: Validation accuracy after each epoch (when requested).
    val_accuracies: list = field(default_factory=list)

    @property
    def modeled_time(self) -> float:
        return self.sample_time + self.memory_io_time + self.compute_time

    def epoch_mean_losses(self, num_epochs: int) -> list:
        """Mean loss per epoch (for convergence plots)."""
        if num_epochs <= 0 or not self.losses:
            return []
        per_epoch = max(1, len(self.losses) // num_epochs)
        return [
            float(np.mean(self.losses[i:i + per_epoch]))
            for i in range(0, len(self.losses), per_epoch)
        ]


class FastGLTrainer:
    """End-to-end FastGL training over one dataset.

    Parameters mirror the paper's setup; the trainer keeps its model and
    optimizer across :meth:`train` calls so training can be resumed.
    """

    def __init__(
        self,
        dataset: Dataset,
        model_name: str = "gcn",
        config: RunConfig | None = None,
        spec: GPUSpec = RTX3090,
        learning_rate: float = 3e-3,
    ) -> None:
        self.dataset = dataset
        self.config = config or RunConfig()
        self.spec = spec
        self.model_name = model_name
        rngs = RngFactory(self.config.seed)
        self._rngs = rngs

        self.sampler = NeighborSampler(
            dataset.graph,
            self.config.fanouts,
            idmap=FusedIdMap(),
            rng=rngs.child("trainer-sampler"),
        )
        cache = None
        budget = dataset.cache_budget_bytes()
        if budget > 0:
            cache = PresampleCachePolicy.build(
                self.sampler, dataset.train_ids, dataset.features, budget,
                batch_size=min(self.config.batch_size,
                               len(dataset.train_ids)),
                rng=rngs.child("trainer-cache"),
            )
        self.loader = MatchLoader(dataset.features, cache=cache)
        # Functional counterpart of the Match byte accounting: the actual
        # feature rows are assembled from the resident device buffer plus
        # host fetches of the difference set (bit-identical to a direct
        # gather — tests/test_buffer_autotune.py proves it).
        self._buffer = ResidentFeatureBuffer(dataset.features)
        self.model = build_model(
            model_name, dataset.feature_dim, dataset.num_classes,
            hidden_dim=self.config.hidden_dim,
            num_layers=self.config.num_layers,
            seed=rngs.child_seed("trainer-model"),
        )
        self.optimizer = Adam(self.model.parameters(), lr=learning_rate)
        self._cost_model = ComputeCostModel(spec, self.config.cost,
                                            "memory_aware")
        self._profile = model_profile(
            model_name, dataset.feature_dim, dataset.num_classes,
            hidden_dim=self.config.hidden_dim,
            num_layers=self.config.num_layers,
        )
        self._link = link_from_cost(spec, self.config.cost)
        self._epochs_done = 0

    # -- training -----------------------------------------------------------
    def train(self, num_epochs: int = 1,
              validate: bool = False,
              val_batch: int = 512) -> TrainHistory:
        """Run ``num_epochs`` of Fig.-5 training; returns the history.

        With ``validate``, the model is evaluated on (a slice of) the
        dataset's validation split after every epoch.
        """
        if num_epochs <= 0:
            raise ValueError("num_epochs must be positive")
        history = TrainHistory()
        plan = MinibatchPlan(self.dataset.train_ids, self.config.batch_size,
                             locality=self.config.batch_locality)
        for _ in range(num_epochs):
            epoch_rng = self._rngs.child(f"trainer-epoch{self._epochs_done}")
            batches = plan.batches(epoch_rng)
            self.loader.reset_epoch()
            self._buffer.reset()
            window = max(2, self.config.reorder_window)
            for start in range(0, len(batches), window):
                group = batches[start:start + window]
                self._train_window(group, history)
            self._epochs_done += 1
            if validate and len(self.dataset.val_ids):
                history.val_accuracies.append(
                    self.evaluate(self.dataset.val_ids[:val_batch])
                )
        return history

    def _train_window(self, batches: list, history: TrainHistory) -> None:
        # (1) Map-Fused Sampler samples the n mini-batches of the window.
        subgraphs = [self.sampler.sample(batch) for batch in batches]
        for sg in subgraphs:
            history.sample_time += self.sampler.modeled_total_sample_time(
                sg, self.config.cost
            )
        # (2) Greedy Reorder permutes the window.
        order = list(range(len(subgraphs)))
        if len(subgraphs) > 2:
            matrix = match_degree_matrix(
                [sg.unique_input_nodes() for sg in subgraphs],
                assume_unique=True,
            )
            order = greedy_reorder(matrix)
        # (3) Match-load + Memory-Aware compute, batch by batch.
        for index in order:
            subgraph = subgraphs[index]
            seeds = batches[index]
            report = self.loader.plan(subgraph)
            history.memory_io_time += report.modeled_time(
                self._link, self.config.cost
            )
            history.rows_loaded += report.num_loaded
            history.rows_reused += report.num_reused

            features = Tensor(self._buffer.fetch(subgraph.input_nodes))
            logits = self.model(subgraph, features)
            loss = cross_entropy(logits, self.dataset.labels[seeds])
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            history.losses.append(float(loss.data))
            history.num_batches += 1
            history.compute_time += self._cost_model.subgraph_report(
                subgraph, self._profile
            ).total_time

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, seeds: np.ndarray) -> float:
        """Accuracy of the current model on ``seeds`` (sampled inference)."""
        seeds = unique_ints(np.asarray(seeds, dtype=np.int64))
        subgraph = self.sampler.sample(seeds)
        with no_grad():
            features = Tensor(
                self.dataset.features.gather(subgraph.input_nodes)
            )
            logits = self.model(subgraph, features)
        predictions = logits.data.argmax(axis=1)
        return float((predictions == self.dataset.labels[seeds]).mean())
