"""The integer set-ops layer (:mod:`repro.utils.arrays`) and its callers.

Each fast kernel is pinned bytewise against the formulation it replaced,
which is kept here as the reference: ``np.unique`` for
:func:`unique_ints`, the two-sort ID map for
:func:`first_occurrence_unique`, and ``np.unique`` + ``np.lexsort`` for
:meth:`CSRGraph.from_edges`. A source scan keeps numpy's hash-based
flagless ``np.unique`` out of the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.utils import arrays
from repro.utils.arrays import first_occurrence_unique, unique_ints

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

INT_DTYPES = {
    "int32": (np.int32, -(2**31), 2**31 - 1),
    "int64": (np.int64, -(2**63), 2**63 - 1),
    "uint32": (np.uint32, 0, 2**32 - 1),
}


def assert_bytewise_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def reference_first_occurrence_unique(ids) -> tuple:
    """The sort-based ID map the direct-address table replaced."""
    ids = np.asarray(ids, dtype=np.int64)
    unique_sorted, first_idx, inverse_sorted = np.unique(
        ids, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    unique = unique_sorted[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return unique, rank[inverse_sorted]


def reference_from_edges(src, dst, num_nodes, symmetrize, dedup,
                         drop_self_loops) -> tuple:
    """``(indptr, indices)`` by the ``np.unique`` + ``np.lexsort`` path
    :meth:`CSRGraph.from_edges` used before it sorted one key."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if dedup and len(src):
        key = np.unique(src * np.int64(num_nodes) + dst)
        src, dst = key // num_nodes, key % num_nodes
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return indptr, dst


# -- unique_ints --------------------------------------------------------------
@st.composite
def int_arrays(draw, max_dims: int = 1):
    dtype, lo, hi = INT_DTYPES[draw(st.sampled_from(sorted(INT_DTYPES)))]
    # A narrow range forces duplicates; the full range hits the extremes.
    if draw(st.booleans()):
        lo, hi = max(lo, -8), min(hi, 8)
    shape = draw(st.lists(st.integers(0, 6), min_size=1,
                          max_size=max_dims))
    size = int(np.prod(shape))
    values = draw(st.lists(st.integers(lo, hi), min_size=size,
                           max_size=size))
    return np.array(values, dtype=dtype).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(a=int_arrays(max_dims=3))
def test_unique_ints_matches_np_unique(a):
    assert_bytewise_equal(unique_ints(a), np.unique(a))


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
@pytest.mark.parametrize("values", [[], [5], [3, 3, 3], [2, -1, 2, 0, -7]])
def test_unique_ints_edge_cases(dtype, values):
    a = np.array(values, dtype=np.int64).astype(dtype)
    assert_bytewise_equal(unique_ints(a), np.unique(a))


def test_unique_ints_flattens_2d_input():
    a = np.array([[3, 1, 3], [2, 1, 0]], dtype=np.int32)
    out = unique_ints(a)
    assert out.shape == (4,) and out.dtype == np.int32
    assert_bytewise_equal(out, np.unique(a))


def test_unique_ints_does_not_mutate_input():
    a = np.array([4, 1, 4, 0], dtype=np.int64)
    unique_ints(a)
    assert a.tolist() == [4, 1, 4, 0]


# -- first_occurrence_unique ---------------------------------------------------
def _check_id_map(ids) -> None:
    got = first_occurrence_unique(ids)
    want = reference_first_occurrence_unique(ids)
    for g, w in zip(got, want):
        assert_bytewise_equal(g, w)


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(st.integers(0, 300), max_size=200))
def test_first_occurrence_direct_branch_matches_reference(ids):
    # IDs below 300 are always inside the table's span allowance.
    _check_id_map(np.array(ids, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.integers(-(2**40), 2**40), max_size=60),
       dup=st.integers(0, 5))
def test_first_occurrence_fallback_branch_matches_reference(ids, dup):
    # Huge or negative IDs take the sort path; repeat some to keep
    # duplicates in play.
    ids = np.array(ids + ids[:dup], dtype=np.int64)
    _check_id_map(ids)


@pytest.mark.parametrize("ids", [
    np.array([7, 3, 7, 9, 3, 1]),
    np.array([], dtype=np.int64),
    np.array([0]),
    np.array([5, 5, 5, 5]),
    np.array([-3, 2, -3, 0]),
    np.array([1 << 40, 3, 1 << 40]),
], ids=["mixed", "empty", "zero", "all-dup", "negative", "sparse"])
def test_first_occurrence_edge_cases(ids):
    _check_id_map(ids)


def test_first_occurrence_takes_both_branches(monkeypatch):
    """The dense cases above use the table, the sparse ones sort."""
    calls = []
    original = arrays._first_occurrence_sorted
    monkeypatch.setattr(arrays, "_first_occurrence_sorted",
                        lambda ids: calls.append(len(ids)) or original(ids))
    first_occurrence_unique(np.array([4, 1, 4, 2]))
    assert calls == []
    span = arrays._DIRECT_SPAN_PER_ID * 3 + arrays._DIRECT_MIN_SPAN
    first_occurrence_unique(np.array([0, span, 1]))
    first_occurrence_unique(np.array([-1, 2, 3]))
    assert calls == [3, 3]


# -- CSRGraph.from_edges --------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    num_nodes=st.integers(min_value=1, max_value=30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                   max_size=120),
    symmetrize=st.booleans(),
    dedup=st.booleans(),
    drop_self_loops=st.booleans(),
)
def test_from_edges_matches_lexsort_reference(num_nodes, edges, symmetrize,
                                              dedup, drop_self_loops):
    src = np.array([a % num_nodes for a, _ in edges], dtype=np.int64)
    dst = np.array([b % num_nodes for _, b in edges], dtype=np.int64)
    g = CSRGraph.from_edges(src, dst, num_nodes, symmetrize=symmetrize,
                            dedup=dedup, drop_self_loops=drop_self_loops)
    indptr, indices = reference_from_edges(src, dst, num_nodes, symmetrize,
                                           dedup, drop_self_loops)
    assert_bytewise_equal(g.indptr, indptr)
    assert_bytewise_equal(g.indices, indices)


# -- source scan ------------------------------------------------------------------
def _flagless_unique_calls(path: Path) -> list:
    """Line numbers of ``np.unique(...)`` calls without a ``return_*`` or
    ``axis`` argument (a second positional argument is ``return_index``)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name == "unique" for alias in node.names):
                found.append(node.lineno)
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            continue
        flagged = len(node.args) > 1 or any(
            kw.arg is not None
            and (kw.arg.startswith("return_") or kw.arg == "axis")
            for kw in node.keywords)
        if not flagged:
            found.append(node.lineno)
    return sorted(found)


def test_no_flagless_np_unique_in_package():
    """numpy's flagless integer ``unique`` is a hash table plus a sort;
    the package uses :func:`unique_ints` instead."""
    helper = SRC / "utils" / "arrays.py"
    offenders = [f"{path.relative_to(SRC.parent)}:{line}"
                 for path in sorted(SRC.rglob("*.py")) if path != helper
                 for line in _flagless_unique_calls(path)]
    assert offenders == []


def test_source_scan_flags_a_flagless_call(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b = np.unique(x, return_counts=True)\n"
        "c = np.unique(x, axis=0)\n"
        "d = np.unique(x, True)\n"
        "from numpy import unique\n")
    assert _flagless_unique_calls(sample) == [2, 6]
