"""Reference implementations the fast kernels are pinned against.

The library runs only the vectorized kernels of
:mod:`repro.core.reorder`; these are the original paper-faithful O(n^2)
formulations, kept outside it as oracles for the property tests and as
the reference timings behind ``speedup_vs_legacy`` in
``python -m repro.bench``.
"""

from __future__ import annotations

import numpy as np

from repro.core.reorder import _as_match_matrix
from repro.utils.arrays import unique_ints


def match_degree_matrix_legacy(node_sets) -> np.ndarray:
    """Reference O(n^2) pairwise-``np.intersect1d`` implementation of
    :func:`repro.core.reorder.match_degree_matrix`."""
    unique_sets = [unique_ints(np.asarray(s, dtype=np.int64))
                   for s in node_sets]
    n = len(unique_sets)
    matrix = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        a = unique_sets[i]
        for j in range(i + 1, n):
            b = unique_sets[j]
            if len(a) == 0 or len(b) == 0:
                continue
            overlap = len(np.intersect1d(a, b, assume_unique=True))
            matrix[i, j] = matrix[j, i] = overlap / min(len(a), len(b))
    return matrix


def greedy_reorder_legacy(matrix_or_node_sets,
                          assume_unique: bool = False) -> list:
    """Reference chain for :func:`repro.core.reorder.greedy_reorder`: the
    O(n^2) full-matrix argmax sweep.

    Node-set inputs go through :func:`match_degree_matrix_legacy` so the
    whole path is the paper-faithful pairwise formulation.
    Ties resolve to the lowest index (``np.argmax`` scans forward).
    """
    x = matrix_or_node_sets
    if not isinstance(x, np.ndarray) and any(
            isinstance(entry, np.ndarray) for entry in x):
        matrix = match_degree_matrix_legacy(x)
    else:
        matrix = _as_match_matrix(x, assume_unique)
    n = matrix.shape[0]
    if n == 0:
        return []
    work = matrix.copy()
    np.fill_diagonal(work, -np.inf)
    order = [0]
    work[:, 0] = -np.inf  # batch 0 is placed
    z = 0
    for _ in range(n - 1):
        h = int(np.argmax(work[z]))
        order.append(h)
        work[:, h] = -np.inf
        z = h
    return order
