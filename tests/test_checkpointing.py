"""Tests for model state dicts / checkpointing and trainer validation."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.frameworks.trainer import FastGLTrainer
from repro.nn import MLP, Tensor, build_model


class TestStateDict:
    def test_named_parameters_paths(self):
        mlp = MLP(4, 8, 2, rng=0)
        names = [name for name, _ in mlp.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_nested_list_paths(self):
        model = build_model("gcn", 8, 3, hidden_dim=4, num_layers=2)
        names = [name for name, _ in model.named_parameters()]
        assert "convs.0.linear.weight" in names
        assert "convs.1.linear.bias" in names

    def test_round_trip(self):
        a = MLP(4, 8, 2, rng=0)
        b = MLP(4, 8, 2, rng=1)
        assert not np.allclose(a.fc1.weight.data, b.fc1.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.fc1.weight.data, b.fc1.weight.data)

    def test_state_dict_is_a_copy(self):
        mlp = MLP(2, 2, 2, rng=0)
        state = mlp.state_dict()
        state["fc1.weight"][:] = 0.0
        assert not np.allclose(mlp.fc1.weight.data, 0.0)

    def test_strict_key_matching(self):
        mlp = MLP(2, 2, 2, rng=0)
        state = mlp.state_dict()
        del state["fc1.bias"]
        with pytest.raises(ValueError, match="missing"):
            mlp.load_state_dict(state)
        state = mlp.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(ValueError, match="unexpected"):
            mlp.load_state_dict(state)

    def test_shape_mismatch(self):
        mlp = MLP(2, 2, 2, rng=0)
        state = mlp.state_dict()
        state["fc1.weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape"):
            mlp.load_state_dict(state)

    def test_save_load_file(self, tmp_path):
        a = build_model("gat", 6, 3, num_layers=2, seed=0)
        path = tmp_path / "model.npz"
        a.save(path)
        b = build_model("gat", 6, 3, num_layers=2, seed=9)
        b.load(path)
        for (_, pa), (_, pb) in zip(a.named_parameters(),
                                    b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_loaded_model_same_outputs(self, tmp_path, tiny_dataset):
        from repro.sampling import NeighborSampler

        sampler = NeighborSampler(tiny_dataset.graph, (3, 3), rng=0)
        sg = sampler.sample(tiny_dataset.train_ids[:16])
        x = Tensor(tiny_dataset.features.gather(sg.input_nodes))
        a = build_model("gcn", tiny_dataset.feature_dim, 5, hidden_dim=8,
                        seed=0, num_layers=2)
        path = tmp_path / "gcn.npz"
        a.save(path)
        b = build_model("gcn", tiny_dataset.feature_dim, 5, hidden_dim=8,
                        seed=3, num_layers=2)
        b.load(path)
        np.testing.assert_allclose(a(sg, x).data, b(sg, x).data, rtol=1e-6)


class TestTrainerValidation:
    def test_val_accuracy_tracked(self, tiny_dataset):
        config = RunConfig(batch_size=64, fanouts=(3, 4), hidden_dim=8)
        trainer = FastGLTrainer(tiny_dataset, "gcn", config)
        history = trainer.train(num_epochs=2, validate=True)
        assert len(history.val_accuracies) == 2
        assert all(0.0 <= acc <= 1.0 for acc in history.val_accuracies)

    def test_validation_improves_with_training(self, tiny_dataset):
        config = RunConfig(batch_size=64, fanouts=(3, 4), hidden_dim=8,
                           seed=4)
        trainer = FastGLTrainer(tiny_dataset, "gcn", config)
        history = trainer.train(num_epochs=5, validate=True)
        chance = 1.0 / tiny_dataset.num_classes
        assert history.val_accuracies[-1] > 1.5 * chance
