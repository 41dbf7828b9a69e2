"""Tests for the Match process (core/match.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.match import MatchState, match_degree, match_split


class TestMatchDegree:
    def test_paper_definition(self):
        # N_o = 2, min(N_i, N_j) = 3 -> 2/3.
        a = np.array([1, 2, 3])
        b = np.array([2, 3, 4, 5])
        assert match_degree(a, b) == pytest.approx(2 / 3)

    def test_symmetric(self):
        a = np.array([1, 2, 3, 9])
        b = np.array([3, 9, 10])
        assert match_degree(a, b) == match_degree(b, a)

    def test_identical_sets(self):
        a = np.array([4, 5, 6])
        assert match_degree(a, a) == 1.0

    def test_disjoint_sets(self):
        assert match_degree(np.array([1]), np.array([2])) == 0.0

    def test_empty(self):
        assert match_degree(np.array([]), np.array([1])) == 0.0

    def test_duplicates_tolerated(self):
        assert match_degree(np.array([1, 1, 2]), np.array([1, 2, 2])) == 1.0

    def test_matches_intersect1d_on_sorted_unique_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            high = int(rng.integers(1, 60))
            a, b = (np.sort(rng.choice(high, size=int(rng.integers(0, high)),
                                       replace=False)) for _ in range(2))
            expected = 0.0
            if len(a) and len(b):
                overlap = len(np.intersect1d(a, b, assume_unique=True))
                expected = overlap / min(len(a), len(b))
            assert match_degree(a, b) == expected
            assert match_degree(b, a) == expected


class TestMatchSplit:
    def test_partition(self):
        resident = np.array([1, 3, 5, 7])
        wanted = np.array([5, 2, 7, 8])
        result = match_split(resident, wanted)
        np.testing.assert_array_equal(np.sort(result.overlap_ids), [5, 7])
        np.testing.assert_array_equal(np.sort(result.load_ids), [2, 8])
        assert result.num_reused == 2
        assert result.num_loaded == 2
        assert result.reuse_fraction == pytest.approx(0.5)

    def test_empty_resident_loads_all(self):
        wanted = np.array([4, 9])
        result = match_split(np.array([], dtype=np.int64), wanted)
        assert result.num_reused == 0
        np.testing.assert_array_equal(result.load_ids, wanted)

    def test_all_resident(self):
        result = match_split(np.array([1, 2, 3]), np.array([2, 3]))
        assert result.num_loaded == 0
        assert result.reuse_fraction == 1.0

    def test_empty_wanted(self):
        result = match_split(np.array([1]), np.array([], dtype=np.int64))
        assert result.num_loaded == 0
        assert result.reuse_fraction == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        resident=st.lists(st.integers(0, 200), max_size=100),
        wanted=st.lists(st.integers(0, 200), max_size=100, unique=True),
    )
    def test_partition_property(self, resident, wanted):
        """Property: overlap + load partitions wanted; overlap subset of
        resident; load disjoint from resident."""
        resident_arr = np.unique(np.array(resident, dtype=np.int64))
        wanted_arr = np.array(wanted, dtype=np.int64)
        result = match_split(resident_arr, wanted_arr)
        combined = np.sort(
            np.concatenate([result.overlap_ids, result.load_ids])
        )
        np.testing.assert_array_equal(combined, np.sort(wanted_arr))
        assert set(result.overlap_ids) <= set(resident_arr.tolist())
        assert not set(result.load_ids) & set(resident_arr.tolist())


class TestMatchState:
    def test_first_step_loads_everything(self):
        state = MatchState()
        result = state.step(np.array([3, 1, 4]))
        assert result.num_loaded == 3
        assert result.num_reused == 0

    def test_second_step_reuses_overlap(self):
        state = MatchState()
        state.step(np.array([1, 2, 3]))
        result = state.step(np.array([2, 3, 4]))
        assert result.num_reused == 2
        np.testing.assert_array_equal(result.load_ids, [4])

    def test_residency_is_last_batch_only(self):
        """Match reuses only the previous batch's buffer (no extra GPU
        memory) — node 1 from two batches ago must be reloaded."""
        state = MatchState()
        state.step(np.array([1, 2]))
        state.step(np.array([3, 4]))
        result = state.step(np.array([1, 3]))
        np.testing.assert_array_equal(np.sort(result.overlap_ids), [3])
        np.testing.assert_array_equal(np.sort(result.load_ids), [1])

    def test_reset(self):
        state = MatchState()
        state.step(np.array([1, 2]))
        state.reset()
        result = state.step(np.array([1, 2]))
        assert result.num_reused == 0
