"""Tests for the feature stores."""

import numpy as np
import pytest

import repro.graph.features as features_mod
from repro.graph.features import (
    HashFeatureStore,
    MaterializedFeatureStore,
    PlantedFeatureStore,
)


class TestHashFeatureStore:
    def test_deterministic(self):
        store = HashFeatureStore(100, 8, seed=3)
        a = store.gather(np.array([5, 9]))
        b = store.gather(np.array([5, 9]))
        np.testing.assert_array_equal(a, b)

    def test_rows_differ(self):
        store = HashFeatureStore(100, 8, seed=3)
        rows = store.gather(np.arange(50))
        assert len(np.unique(rows.round(6), axis=0)) == 50

    def test_bounded_and_centered(self):
        store = HashFeatureStore(1000, 32, seed=1)
        rows = store.gather(np.arange(1000))
        assert rows.min() >= -0.5 and rows.max() <= 0.5
        assert abs(rows.mean()) < 0.02

    def test_bytes_accounting(self):
        store = HashFeatureStore(10, 16)
        assert store.bytes_per_node == 64
        assert store.total_bytes == 640

    def test_out_of_range(self):
        store = HashFeatureStore(10, 4)
        with pytest.raises(IndexError):
            store.gather(np.array([10]))
        with pytest.raises(IndexError):
            store.gather(np.array([-1]))

    def test_seed_changes_features(self):
        a = HashFeatureStore(10, 4, seed=0).gather(np.arange(10))
        b = HashFeatureStore(10, 4, seed=1).gather(np.arange(10))
        assert not np.allclose(a, b)


def splitmix_row(node: int, seed: int, dim: int) -> list:
    """The hash store's closed form, one value at a time in Python ints:
    ``z = (node + seed) * C1 ^ j * C2``, then ``z ^= z >> 31``,
    ``z *= C3``, ``z ^= z >> 29`` (all mod 2**64), and the top 24 bits
    scaled to ``[-0.5, 0.5)``."""
    mask = (1 << 64) - 1
    base = ((node + seed) * 0x9E3779B97F4A7C15) & mask
    row = []
    for j in range(dim):
        z = base ^ ((j * 0xBF58476D1CE4E5B9) & mask)
        z ^= z >> 31
        z = (z * 0x94D049BB133111EB) & mask
        z ^= z >> 29
        row.append((z >> 40) / 2**24 - 0.5)
    return row


class TestHashValuesPinned:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("block_elems", [None, 16])
    def test_gather_matches_closed_form(self, dtype, block_elems,
                                        monkeypatch):
        if block_elems is not None:
            # Blocks of 3 rows: several full blocks and a partial last one.
            monkeypatch.setattr(features_mod, "_HASH_BLOCK_ELEMS",
                                block_elems)
        store = HashFeatureStore(10**6, 5, seed=11, dtype=dtype)
        ids = np.array([0, 1, 7, 999_999, 7, 123_456, 42, 3, 500_000, 8, 65])
        expected = np.array([splitmix_row(int(i), 11, 5) for i in ids])
        got = store.gather(ids)
        assert got.dtype == dtype
        assert np.isfinite(got).all()
        assert got.tobytes() == expected.astype(dtype).tobytes()

    def test_empty_gather(self):
        store = HashFeatureStore(10, 4, dtype=np.float16)
        got = store.gather(np.array([], dtype=np.int64))
        assert got.shape == (0, 4) and got.dtype == np.float16


class TestMaterializedFeatureStore:
    def test_gather_is_table_rows(self):
        table = np.arange(12, dtype=np.float32).reshape(4, 3)
        store = MaterializedFeatureStore(table)
        np.testing.assert_array_equal(store.gather(np.array([2, 0])),
                                      table[[2, 0]])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            MaterializedFeatureStore(np.zeros(5))

    def test_preserves_float16(self):
        table = np.arange(12, dtype=np.float16).reshape(4, 3)
        store = MaterializedFeatureStore(table)
        assert store.dtype == np.float16
        assert store.bytes_per_node == 3 * 2
        assert store.gather(np.array([1])).dtype == np.float16

    def test_promotes_non_float(self):
        store = MaterializedFeatureStore(np.arange(12).reshape(4, 3))
        assert store.dtype == np.float32


class TestMaterializeDtype:
    def test_float16_round_trip(self):
        """materialize() must honor the store's dtype, not force float32."""
        store = HashFeatureStore(64, 8, seed=7, dtype=np.float16)
        assert store.dtype == np.float16
        mat = store.materialize(chunk=10)
        assert mat.dtype == np.float16
        assert mat.table.dtype == np.float16
        ids = np.array([0, 63, 5, 5, 31])
        np.testing.assert_array_equal(mat.gather(ids), store.gather(ids))
        # Halved row bytes flow into the byte accounting.
        assert mat.bytes_per_node == store.bytes_per_node == 8 * 2

    def test_float32_default_unchanged(self):
        store = HashFeatureStore(16, 4, seed=1)
        assert store.materialize().dtype == np.float32


class TestPlantedFeatureStore:
    def test_label_correlation(self):
        """Same-class rows are closer to their centroid than other
        centroids on average — the learnable signal."""
        labels = np.repeat(np.arange(4), 50)
        store = PlantedFeatureStore(labels, dim=16, noise=0.5, seed=0)
        rows = store.gather(np.arange(200))
        dists = np.linalg.norm(
            rows[:, None, :] - store.centroids[None, :, :], axis=2
        )
        own = dists[np.arange(200), labels]
        other = (dists.sum(axis=1) - own) / 3
        assert (own < other).mean() > 0.8

    def test_deterministic(self):
        labels = np.zeros(10, dtype=np.int64)
        a = PlantedFeatureStore(labels, 8, seed=2).gather(np.arange(10))
        b = PlantedFeatureStore(labels, 8, seed=2).gather(np.arange(10))
        np.testing.assert_array_equal(a, b)

    def test_materialize_equals_gather(self):
        labels = np.array([0, 1, 1, 2])
        store = PlantedFeatureStore(labels, 6, seed=5)
        mat = store.materialize(chunk=3)
        np.testing.assert_allclose(mat.gather(np.arange(4)),
                                   store.gather(np.arange(4)))

    def test_noise_scales_spread(self):
        labels = np.zeros(100, dtype=np.int64)
        quiet = PlantedFeatureStore(labels, 8, noise=0.1, seed=1)
        loud = PlantedFeatureStore(labels, 8, noise=2.0, seed=1)
        sq = quiet.gather(np.arange(100)).std()
        sl = loud.gather(np.arange(100)).std()
        assert sl > 3 * sq
