"""The FastGL training pipeline (the paper's Fig. 5), as a library API.

:class:`FastGLTrainer` is a stateful wrapper over
:meth:`FastGLFramework.run_epoch`: it keeps one sampler and one
:class:`~repro.frameworks.base.TrainState` (model, optimizer, epochs done)
across :meth:`~FastGLTrainer.train` calls, so training resumes where it
stopped, and adds sampled-inference :meth:`~FastGLTrainer.evaluate`. Each
epoch is the framework's own loop (Fused-Map sampling, Greedy Reorder per
window, Match loading, Memory-Aware compute, one training step per
batch), so the trained model and the epoch report come from the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import RunConfig
from repro.frameworks.base import TrainState
from repro.frameworks.fastgl import FastGLFramework
from repro.gpu.spec import GPUSpec, RTX3090
from repro.graph.datasets import Dataset
from repro.nn import Tensor, no_grad
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
        self.model_name = model_name
        self.framework = FastGLFramework(spec)
        rngs = RngFactory(self.config.seed)
        self.sampler = self.framework.make_sampler(dataset, self.config,
                                                   rngs.child("sampler"))
        self.state = TrainState.build(model_name, dataset, self.config,
                                      rngs.child_seed("model"),
                                      learning_rate=learning_rate)

    @property
    def model(self):
        return self.state.model

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
        epoch_config = replace(self.config, train_model=True, num_epochs=1)
        for _ in range(num_epochs):
            report = self.framework.run_epoch(
                self.dataset, epoch_config, self.model_name,
                sampler=self.sampler, state=self.state,
            )
            history.losses.extend(report.losses)
            history.sample_time += report.phases.sample
            history.memory_io_time += report.phases.memory_io
            history.compute_time += report.phases.compute
            history.num_batches += report.num_batches
            history.rows_loaded += report.transfer.num_loaded
            history.rows_reused += report.transfer.num_reused
            if validate and len(self.dataset.val_ids):
                history.val_accuracies.append(
                    self.evaluate(self.dataset.val_ids[:val_batch])
                )
        return history

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
