"""Tests for the FastGLTrainer end-to-end pipeline (Fig. 5)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import RunConfig
from repro.frameworks import FastGLFramework
from repro.frameworks.trainer import FastGLTrainer, TrainHistory

CONFIG = RunConfig(batch_size=64, fanouts=(3, 4), hidden_dim=8,
                   reorder_window=4, seed=2)


@pytest.fixture()
def trainer(tiny_dataset):
    return FastGLTrainer(tiny_dataset, "gcn", CONFIG)


class TestFastGLTrainer:
    def test_train_returns_history(self, trainer):
        history = trainer.train(num_epochs=1)
        assert history.num_batches == 10  # 600 / 64
        assert len(history.losses) == 10
        assert history.modeled_time > 0
        assert history.sample_time > 0
        assert history.compute_time > 0

    def test_loss_decreases_over_epochs(self, trainer):
        history = trainer.train(num_epochs=4)
        epochs = history.epoch_mean_losses(4)
        assert epochs[-1] < epochs[0]

    def test_match_reuses_rows(self, trainer):
        history = trainer.train(num_epochs=1)
        assert history.rows_reused > 0

    def test_rows_loaded_without_cache(self):
        """With no leftover device memory (no cache), non-overlapping rows
        must cross PCIe."""
        from helpers import make_spec
        from repro.graph.datasets import Dataset

        dataset = Dataset(make_spec(left_memory_bytes=0), seed=3)
        config = RunConfig(batch_size=64, fanouts=(3, 4), hidden_dim=8)
        trainer = FastGLTrainer(dataset, "gcn", config)
        history = trainer.train(num_epochs=1)
        assert history.rows_loaded > 0
        assert history.rows_reused > 0

    def test_training_resumes_across_calls(self, trainer):
        first = trainer.train(num_epochs=2)
        second = trainer.train(num_epochs=2)
        assert np.mean(second.losses) < np.mean(first.losses)

    def test_trainer_is_the_framework_loop(self, trainer, tiny_dataset):
        """One trainer epoch is one framework epoch, bit for bit."""
        history = trainer.train(1)
        report = FastGLFramework().run_epoch(
            tiny_dataset, replace(CONFIG, train_model=True, num_epochs=1),
        )
        assert history.losses == report.losses
        assert history.sample_time == report.phases.sample
        assert history.memory_io_time == report.phases.memory_io
        assert history.compute_time == report.phases.compute
        params = [param.data for param in trainer.model.parameters()]
        assert len(params) == len(report.extras["final_params"])
        for ours, theirs in zip(params, report.extras["final_params"]):
            assert ours.tobytes() == theirs.tobytes()
        assert trainer.state.epochs_done == 1
        trainer.train(1)
        assert trainer.state.epochs_done == 2

    def test_evaluate_beats_chance_after_training(self, tiny_dataset):
        """Median validation accuracy over seeds 0-9 clears twice chance
        after 4 epochs, and an untrained model's median does not. The
        split is not balanced: always predicting the majority class
        scores about 0.3 on it, below the bound."""
        seeds = tiny_dataset.val_ids[:512]
        bound = 2.0 / tiny_dataset.num_classes
        labels = tiny_dataset.labels[seeds]
        assert np.bincount(labels).max() / len(labels) < bound

        def median_accuracy(num_epochs):
            scores = []
            for seed in range(10):
                trainer = FastGLTrainer(tiny_dataset, "gcn",
                                        replace(CONFIG, seed=seed))
                if num_epochs:
                    trainer.train(num_epochs)
                scores.append(trainer.evaluate(seeds))
            return float(np.median(scores))

        assert median_accuracy(0) < bound < median_accuracy(4)

    def test_invalid_epochs(self, trainer):
        with pytest.raises(ValueError):
            trainer.train(0)

    def test_gin_model(self, tiny_dataset):
        config = RunConfig(batch_size=64, fanouts=(3, 4), hidden_dim=8)
        trainer = FastGLTrainer(tiny_dataset, "gin", config)
        history = trainer.train(1)
        assert all(np.isfinite(history.losses))


class TestTrainState:
    def test_resumed_state_continues_a_multi_epoch_run(self, tiny_dataset):
        """Two one-epoch calls sharing a sampler and a TrainState replay
        one two-epoch run (DGL: its loader draws no randomness)."""
        from repro.frameworks import DGLFramework, TrainState
        from repro.utils.rng import RngFactory

        framework = DGLFramework()
        config = replace(CONFIG, train_model=True, num_epochs=2)
        whole = framework.run_epoch(tiny_dataset, config)

        rngs = RngFactory(config.seed)
        sampler = framework.make_sampler(tiny_dataset, config,
                                         rngs.child("sampler"))
        state = TrainState.build("gcn", tiny_dataset, config,
                                 rngs.child_seed("model"))
        losses = []
        for _ in range(2):
            report = framework.run_epoch(
                tiny_dataset, replace(config, num_epochs=1),
                sampler=sampler, state=state,
            )
            losses.extend(report.losses)
        assert state.epochs_done == 2
        assert losses == whole.losses


class TestTrainHistory:
    def test_epoch_mean_losses(self):
        history = TrainHistory(losses=[4.0, 2.0, 3.0, 1.0])
        means = history.epoch_mean_losses(2)
        assert means == [3.0, 2.0]

    def test_epoch_mean_losses_empty(self):
        assert TrainHistory().epoch_mean_losses(2) == []
        assert TrainHistory(losses=[1.0]).epoch_mean_losses(0) == []
