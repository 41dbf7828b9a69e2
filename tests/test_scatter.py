"""The rank-round scatter kernel behind every aggregation in ``repro.nn``.

``np.add.at`` / ``np.maximum.at`` are the oracles: the kernel must match
them byte for byte, for any index and any values, and so must whole
training steps that run through it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.nn import Adam, Tensor, build_model, cross_entropy
from repro.nn.functional import _rounds, _scatter, segment_sum
from repro.sampling import NeighborSampler

SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0]
FLOAT32 = st.one_of(st.sampled_from(SPECIALS),
                    st.floats(width=32, allow_nan=False))


@st.composite
def scatter_case(draw):
    """(num_rows, index, trailing shape) covering hubs and untouched rows."""
    num_rows = draw(st.integers(1, 8))
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        # Every element on one hub row: one round per element.
        index = [draw(st.integers(0, num_rows - 1))] * n
    else:
        # Drawing from a prefix of the rows leaves the rest untouched.
        hi = draw(st.integers(0, num_rows - 1))
        index = draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))
    trailing = draw(st.sampled_from([(), (1,), (3,)]))
    return num_rows, np.array(index, dtype=np.int64), trailing


def _bytes(a):
    """``a.tobytes()`` with every NaN made the canonical quiet NaN.

    When two NaNs meet, which one propagates (and so its sign bit) depends
    on the operand order the compiled loop picked: plain ``x + y`` already
    mixes both on one array, and ``np.add.at`` picks differently for 1-D
    and 2-D operands. Everything else, ``-0.0`` and the infinities
    included, is compared bit for bit.
    """
    a = a.copy()
    if a.dtype.kind == "f":
        a[np.isnan(a)] = np.nan
    return a.tobytes()


def _oracle_and_kernel(ufunc, out, index, values):
    expected = out.copy()
    ufunc.at(expected, index, values)
    got = _scatter(ufunc, out.copy(), index, values)
    return expected, got


class TestKernelMatchesUfuncAt:
    @settings(max_examples=150, deadline=None)
    @given(case=scatter_case(), data=st.data())
    def test_float32_bytewise(self, case, data):
        num_rows, index, trailing = case

        def draw(shape):
            size = int(np.prod(shape))
            vals = data.draw(st.lists(FLOAT32, min_size=size, max_size=size))
            return np.array(vals, dtype=np.float32).reshape(shape)

        values = draw((len(index),) + trailing)
        start = draw((num_rows,) + trailing)
        for ufunc in (np.add, np.maximum):
            expected, got = _oracle_and_kernel(ufunc, start, index, values)
            assert got.dtype == expected.dtype
            assert _bytes(got) == _bytes(expected)

    @settings(max_examples=100, deadline=None)
    @given(case=scatter_case(), data=st.data())
    def test_int64_counts(self, case, data):
        num_rows, index, trailing = case
        size = len(index) * int(np.prod(trailing))
        values = np.array(
            data.draw(st.lists(st.integers(-2**40, 2**40),
                               min_size=size, max_size=size)),
            dtype=np.int64,
        ).reshape((len(index),) + trailing)
        start = np.zeros((num_rows,) + trailing, dtype=np.int64)
        expected, got = _oracle_and_kernel(np.add, start, index, values)
        assert got.tobytes() == expected.tobytes()


class TestRounds:
    def test_empty_index_has_no_rounds(self):
        rows, rounds = _rounds(np.array([], dtype=np.int64), 4)
        assert len(rows) == 0 and rounds == []
        out = np.ones(4, dtype=np.float32)
        _scatter(np.add, out, np.array([], dtype=np.int64),
                 np.array([], dtype=np.float32))
        assert out.tolist() == [1.0] * 4

    def test_hub_row_takes_one_round_per_element(self):
        rows, rounds = _rounds(np.full(7, 2, dtype=np.int64), 5)
        assert rows.tolist() == [2]
        assert [p.tolist() for p in rounds] == [[i] for i in range(7)]

    def test_rounds_are_prefixes_of_distinct_rows(self, rng):
        index = rng.integers(0, 30, 500)
        rows, rounds = _rounds(index, 30)
        assert len(np.unique(rows)) == len(rows)
        covered = np.concatenate(rounds)
        assert sorted(covered.tolist()) == list(range(500))
        for r, positions in enumerate(rounds):
            np.testing.assert_array_equal(index[positions],
                                          rows[:len(positions)])
            if r:  # the r-th occurrence comes after the (r-1)-th
                assert (positions > rounds[r - 1][:len(positions)]).all()

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_out_of_range_index_raises(self, bad):
        # np.bincount would raise ValueError on -1 and np.add.at would
        # wrap it silently; the kernel rejects both ends alike.
        with pytest.raises(IndexError):
            _rounds(np.array([0, bad, 1], dtype=np.int64), 5)

    def test_segment_sum_rejects_negative_segment(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        with pytest.raises(IndexError):
            segment_sum(x, np.array([0, -1]), num_segments=2)


def _ufunc_at(ufunc, out, index, values):
    """The oracle kernel: ``ufunc.at``, one element at a time in index
    order."""
    if callable(values):
        values = values(np.arange(len(index)))
    ufunc.at(out, index, values)
    return out


def _train_step(name, subgraph, features, labels):
    model = build_model(name, features.shape[1], int(labels.max()) + 1,
                        hidden_dim=16, seed=3)
    params = model.parameters()
    opt = Adam(params, lr=5e-3)
    logits = model(subgraph, Tensor(features))
    opt.zero_grad()
    cross_entropy(logits, labels).backward()
    grads = [p.grad.tobytes() for p in params]
    opt.step()
    # Adam's first step is about lr * sign(grad), so the gradients and
    # logits are compared too: the step alone would hide last-bit drift.
    return [logits.data.tobytes()] + grads + [p.data.tobytes()
                                              for p in params]


@pytest.mark.parametrize("name", ["gcn", "gin", "gat"])
def test_training_step_matches_ufunc_at(name, tiny_graph,
                                                  tiny_dataset, monkeypatch):
    """Forward (fused A3 included), backward and Adam, byte for byte."""
    sampler = NeighborSampler(tiny_graph, (3, 4, 5), rng=0)
    seeds = tiny_dataset.train_ids[:32]
    subgraph = sampler.sample(seeds)
    features = tiny_dataset.features.gather(subgraph.input_nodes)
    labels = tiny_dataset.labels[seeds]
    fast = _train_step(name, subgraph, features, labels)
    monkeypatch.setattr(F, "_scatter", _ufunc_at)
    oracle = _train_step(name, subgraph, features, labels)
    assert fast == oracle
