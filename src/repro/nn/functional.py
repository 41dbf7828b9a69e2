"""Graph-aware autograd operations.

The centrepiece is :func:`a3_aggregate` — the aggregation the paper wraps
as ``A3.forward()`` / ``A3.backward()``:

* forward (Eq. 1):  ``h_u = sum_{v in N(u)} w_uv * x_v``
* backward (Eq. 5): ``dL/dx_v = sum_{u: v in N(u)} w_uv * dL/dh_u`` and
  ``dL/dw_uv = <x_v, dL/dh_u>``.

Edge-wise softmax (GAT attention), segment sums, activations and the loss
round out what the three evaluation models need.

Every scatter (``out[index[i]] = op(out[index[i]], values[i])``) goes
through one kernel, :func:`_scatter`. It gathers each touched row once into
a contiguous partial-sum buffer, folds the values in by rounds (round ``r``
holds every row's ``r``-th occurrence, in index order, so no row repeats
within a round and each round is one vectorized in-place ``op`` on a
prefix of the buffer), and writes the buffer back once. This is the host
analogue of the Memory-Aware kernel's per-target partial sums ``ĥ_u``
(Sec. 4.2). Each row still folds its values in index order, starting from
its initial value, so the result is bytewise the one ``np.add.at`` /
``np.maximum.at`` gives, without their per-element dispatch.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.rng import ensure_rng


def _rounds(index: np.ndarray, num_rows: int) -> tuple:
    """Split the positions of ``index`` into rounds of distinct rows.

    Returns ``(rows, rounds)``. ``rows`` are the distinct rows of
    ``index``, most-occurring first. ``rounds[r]`` lists, for each of the
    first ``len(rounds[r])`` rows, the position of its ``r``-th occurrence
    (rows with more than ``r`` occurrences are a prefix of ``rows``).
    Raises ``IndexError`` for an index outside ``[0, num_rows)``.
    """
    if len(index) and (index.min() < 0 or index.max() >= num_rows):
        raise IndexError("scatter index out of range")
    order = np.argsort(index, kind="stable")
    counts = np.bincount(index, minlength=num_rows)
    starts = np.cumsum(counts) - counts
    rows = np.flatnonzero(counts)
    rows = rows[np.argsort(-counts[rows], kind="stable")]
    first = starts[rows]
    widths = np.searchsorted(-counts[rows], -np.arange(counts.max(initial=0)))
    return rows, [order[first[:k] + r] for r, k in enumerate(widths)]


def _scatter(ufunc, out: np.ndarray, index: np.ndarray, values) -> np.ndarray:
    """``out[index[i]] = ufunc(out[index[i]], values[i])`` for every ``i``,
    in index order, one vectorized step per round.

    ``values`` is an array indexed by position, or a callable that builds
    the values of the positions it is given, so the caller never
    materializes the full array.
    """
    rows, rounds = _rounds(index, len(out))
    take = values if callable(values) else values.__getitem__
    acc = out[rows]
    for positions in rounds:
        part = acc[:len(positions)]
        ufunc(part, take(positions), out=part)
    out[rows] = acc
    return out


def _weighted_rows(x: np.ndarray, rows: np.ndarray, w: np.ndarray):
    """``x[rows] * w[:, None]``, scaled in the gathered buffer."""
    out = np.take(x, rows, axis=0)
    out *= w[:, None]
    return out


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Row gather ``x[index]`` with scatter-add backward."""
    index = np.asarray(index, dtype=np.int64)

    def backward(grad):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            _scatter(np.add, full, index, grad)
            x._accumulate(full)

    return Tensor._from_op(x.data[index], (x,), backward)


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets by ``segment_ids``."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = np.zeros((num_segments,) + x.data.shape[1:], dtype=np.float32)
    _scatter(np.add, out, segment_ids, x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad[segment_ids])

    return Tensor._from_op(out, (x,), backward)


def a3_aggregate(
    x_src: Tensor,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    weight: Tensor,
    num_dst: int,
) -> Tensor:
    """The paper's A3 weighted aggregation (Eq. 1 forward, Eq. 5 backward).

    Parameters
    ----------
    x_src:
        ``(num_src, d)`` source-node features.
    edge_src / edge_dst:
        Local edge endpoints (indices into sources / targets).
    weight:
        ``(num_edges,)`` edge weights ``w_uv`` (may require grad — GAT's
        attention coefficients do).
    num_dst:
        Number of target nodes.
    """
    edge_src = np.asarray(edge_src, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    if len(edge_src) != len(edge_dst) or len(edge_src) != len(weight.data):
        raise ValueError("edge arrays and weights must share length")
    out = np.zeros((num_dst, x_src.data.shape[1]), dtype=np.float32)
    # Messages w_uv * x_v are built one round at a time, never all E x d.
    _scatter(np.add, out, edge_dst,
             lambda e: _weighted_rows(x_src.data, edge_src[e], weight.data[e]))

    def backward(grad):
        if x_src.requires_grad:
            gx = np.zeros_like(x_src.data)
            _scatter(np.add, gx, edge_src,
                     lambda e: _weighted_rows(grad, edge_dst[e],
                                              weight.data[e]))
            x_src._accumulate(gx)
        if weight.requires_grad:
            gw = (grad[edge_dst] * x_src.data[edge_src]).sum(axis=1)
            weight._accumulate(gw)

    return Tensor._from_op(out, (x_src, weight), backward)


def edge_softmax(scores: Tensor, edge_dst: np.ndarray, num_dst: int) -> Tensor:
    """Softmax of edge ``scores`` over each target's incoming edges.

    Numerically stabilized with a per-target max shift. Used for GAT
    attention coefficients.
    """
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    maxima = np.full(num_dst, -np.inf, dtype=np.float32)
    _scatter(np.maximum, maxima, edge_dst, scores.data)
    maxima[~np.isfinite(maxima)] = 0.0  # targets with no edges
    shifted = scores.data - maxima[edge_dst]
    exp = np.exp(shifted)
    denom = np.zeros(num_dst, dtype=np.float32)
    _scatter(np.add, denom, edge_dst, exp)
    denom[denom == 0.0] = 1.0
    alpha = exp / denom[edge_dst]

    def backward(grad):
        if not scores.requires_grad:
            return
        # d softmax: alpha * (grad - sum_over_segment(grad * alpha))
        weighted = grad * alpha
        seg = np.zeros(num_dst, dtype=np.float32)
        _scatter(np.add, seg, edge_dst, weighted)
        scores._accumulate(weighted - alpha * seg[edge_dst])

    return Tensor._from_op(alpha, (scores,), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._from_op(x.data * mask, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    factor = np.where(x.data > 0, 1.0, negative_slope).astype(np.float32)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * factor)

    return Tensor._from_op(x.data * factor, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    neg = x.data <= 0
    out_data = np.where(neg, alpha * (np.exp(x.data) - 1.0), x.data)
    out_data = out_data.astype(np.float32)

    def backward(grad):
        if x.requires_grad:
            slope = np.where(neg, out_data + alpha, 1.0)
            x._accumulate(grad * slope)

    return Tensor._from_op(out_data, (x,), backward)


def dropout(x: Tensor, p: float, training: bool = True, rng=None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout p must be in [0, 1)")
    rng = ensure_rng(rng)
    mask = (rng.random(x.shape) >= p).astype(np.float32) / (1.0 - p)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._from_op(x.data * mask, (x,), backward)


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax, numerically stable."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_data = shifted - logsumexp

    def backward(grad):
        if x.requires_grad:
            softmax = np.exp(out_data)
            x._accumulate(grad - softmax * grad.sum(axis=1, keepdims=True))

    return Tensor._from_op(out_data, (x,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under ``logits``."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != logits.shape[0]:
        raise ValueError("labels/logits length mismatch")
    logp = log_softmax(logits)
    n = len(labels)
    picked_data = logp.data[np.arange(n), labels]

    def backward(grad):
        if logp.requires_grad:
            full = np.zeros_like(logp.data)
            full[np.arange(n), labels] = -grad / n
            logp._accumulate(full)

    loss = Tensor._from_op(
        np.float32(-picked_data.mean()), (logp,), backward
    )
    return loss
