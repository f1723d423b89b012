"""Reference implementations the tests check the library against.

Each oracle is deliberately plain and independent of the code path it
checks: naive loops in ascending index order, brute-force metrics, a
dense one-hot model, and the single-call form of each collective.  The
library keeps only the path training runs (base codes in, collectives
over the transport); these are the second path that the tests compare
it with, most of them bit for bit.

The dense model is built from the dense kernels in ``dcnn.kernels``
(``conv1d_forward``, ``conv1d_backward``, ``maxpool1d_backward`` and
``relu_grad``), which the model itself no longer calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dcnn import kernels
from dcnn import network as nw
from dcnn.collective import gossip_pairs, mean_ascending
from dcnn.errors import ValidationError

_BASE_BYTES = np.frombuffer(b"ACGT", dtype=np.uint8)


# ---------------------------------------------------------------------------
# Encoding


def decode(encoded: np.ndarray) -> str:
    """Inverse of ``pipeline.one_hot``; rejects rows that are not one-hot."""
    if encoded.ndim != 2 or encoded.shape[1] != 4:
        raise ValidationError(f"expected [L, 4] input, got shape {encoded.shape}")
    ones = encoded == 1
    if not ((ones.sum(axis=1) == 1) & (((encoded == 0) | ones).all(axis=1))).all():
        raise ValidationError("input contains a row that is not one-hot")
    idx = np.argmax(ones, axis=1)
    return _BASE_BYTES[idx].tobytes().decode("ascii")


def one_hot_inputs(batch) -> np.ndarray:
    """[B, L, 4] one-hot of a batch's base codes, in its labels' dtype."""
    return np.eye(4, dtype=batch.labels.dtype)[batch.codes]


# ---------------------------------------------------------------------------
# The dense one-hot model


@dataclass
class DenseCache:
    inputs: np.ndarray  # [B, L, 4]
    conv_out: np.ndarray  # [B, T, F]
    argmax_rows: np.ndarray
    flat: np.ndarray
    probs: np.ndarray


def dense_forward(params: nw.ModelParams, inputs: np.ndarray, config: nw.ModelConfig):
    """(probs, cache) of the model on float inputs [B, L, 4], through the
    dense convolution, with ReLU applied to the whole conv output before
    the pool (the model pools first); computed in the inputs' dtype."""
    conv_out = kernels.conv1d_forward(inputs, params.conv_filters, params.conv_bias)
    act = kernels.relu(conv_out) if config.conv_activation == "relu" else conv_out
    pooled, argmax_rows = kernels.maxpool1d_forward(
        act, config.pool_window, config.pool_stride
    )
    flat = pooled.reshape(pooled.shape[0], -1)
    probs = kernels.sigmoid(
        kernels.dense_forward(flat, params.dense_weights, params.dense_bias)
    )
    return probs, DenseCache(inputs, conv_out, argmax_rows, flat, probs)


def dense_backward(params: nw.ModelParams, cache: DenseCache, labels,
                   config: nw.ModelConfig) -> nw.Gradients:
    """Gradients of mean BCE for a :func:`dense_forward` cache: the pooled
    gradient is routed to every conv row, masked by the ReLU derivative
    of the full conv output, and correlated with the dense inputs."""
    batch_size = cache.probs.shape[0]
    dtype = cache.flat.dtype
    dlogit = ((cache.probs - labels) / batch_size).astype(dtype, copy=False)
    grad_dense_w, grad_dense_b, dflat = kernels.dense_backward(
        cache.flat, params.dense_weights, dlogit
    )
    dpooled = dflat.reshape(batch_size, config.pool_out_length, config.n_filters)
    dconv = kernels.maxpool1d_backward(cache.argmax_rows, dpooled, config.conv_out_length)
    if config.conv_activation == "relu":
        dconv = dconv * kernels.relu_grad(cache.conv_out)
    grad_filters, grad_bias = kernels.conv1d_backward(
        cache.inputs, params.conv_filters, dconv
    )
    return nw.Gradients(
        conv_filters=grad_filters,
        conv_bias=grad_bias,
        dense_weights=grad_dense_w,
        dense_bias=np.asarray(grad_dense_b, dtype=dtype).reshape(()),
    )


# ---------------------------------------------------------------------------
# Collectives: one call over every rank's vector


def parameter_server_round(server_params, worker_grads, optimizer_step):
    """One synchronous round at the server: average the worker gradients
    in ascending rank order, take one optimizer step, return the params
    every worker receives."""
    return optimizer_step(server_params, mean_ascending(worker_grads))


def _pair_mean(lo_vec, hi_vec):
    total = lo_vec + hi_vec
    if np.issubdtype(total.dtype, np.integer):
        return total // 2
    return total / 2


def gossip_round(worker_params, round_index: int):
    """Each matched pair replaces both vectors with their mean
    (lower-rank operand first); unmatched workers keep theirs."""
    out = [np.asarray(p).copy() for p in worker_params]
    for a, b in gossip_pairs(len(out), round_index):
        lo, hi = (a, b) if a < b else (b, a)
        mean = _pair_mean(out[lo], out[hi])
        out[a] = mean
        out[b] = mean.copy()
    return out


def gossip_finalize(worker_params) -> np.ndarray:
    """Exact global mean, folded in ascending rank order."""
    return mean_ascending(worker_params)


# ---------------------------------------------------------------------------
# Kernels and metrics


def naive_conv1d(x: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Triple-loop valid convolution, accumulating bias first then ascending (j, c)."""
    length, channels = x.shape
    n_filters, width, _ = filters.shape
    out = np.empty((length - width + 1, n_filters), dtype=x.dtype)
    for i in range(length - width + 1):
        for f in range(n_filters):
            acc = bias[f]
            for j in range(width):
                for c in range(channels):
                    acc = acc + filters[f, j, c] * x[i + j, c]
            out[i, f] = acc
    return out


def naive_maxpool1d(x: np.ndarray, window: int, stride: int):
    """Per-window scan of [T, F]: a row wins if it is greater than the
    best so far, or is the first NaN (``np.argmax``'s rule); the pooled
    value is the winning element itself."""
    rows, chans = x.shape
    n_out = (rows - window) // stride + 1
    out = np.empty((n_out, chans), dtype=x.dtype)
    idx = np.empty((n_out, chans), dtype=np.int64)
    for t in range(n_out):
        for f in range(chans):
            best = t * stride
            for r in range(t * stride, t * stride + window):
                if np.isnan(x[best, f]):
                    break
                if np.isnan(x[r, f]) or x[r, f] > x[best, f]:
                    best = r
            out[t, f] = x[best, f]
            idx[t, f] = best
    return out, idx


def loop_shuffled_stream(records, shuffle_buffer_size: int, seed: int):
    """``pipeline.shuffled_stream`` with one scalar draw per record, as
    each arrival and each drain step needs it."""
    rng = np.random.Generator(np.random.PCG64(seed))
    buffer = []
    for rec in records:
        if len(buffer) < shuffle_buffer_size:
            buffer.append(rec)
            continue
        j = int(rng.integers(0, len(buffer)))
        out = buffer[j]
        buffer[j] = rec
        yield out
    while buffer:
        j = int(rng.integers(0, len(buffer)))
        buffer[j], buffer[-1] = buffer[-1], buffer[j]
        yield buffer.pop()


def brute_force_auroc(scores, labels) -> float:
    """Pair-counting Mann-Whitney: P(pos outranks neg), ties counting 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def exhaustive_average_precision(scores, labels) -> float:
    """Average precision by explicit descending sweep over distinct score values."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    total = 0.0
    prev_recall = 0.0
    for threshold in sorted(set(scores.tolist()), reverse=True):
        taken = scores >= threshold
        tp = int((labels[taken] == 1).sum())
        precision = tp / int(taken.sum())
        recall = tp / n_pos
        total += (recall - prev_recall) * precision
        prev_recall = recall
    return total


def loop_auroc(scores, labels):
    """``metrics.auroc`` as a loop over tie blocks: a block grows while the
    next sorted score equals the block's first, so each NaN stands alone."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.shape[0], dtype=np.float64)
    i = 0
    while i < sorted_scores.shape[0]:
        j = i
        while j + 1 < sorted_scores.shape[0] and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * ((i + 1) + (j + 1))
        i = j + 1
    rank_sum_pos = float(ranks[labels == 1].sum())
    u_statistic = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u_statistic / (n_pos * n_neg)


def loop_auprc(scores, labels):
    """``metrics.auprc`` as a running total over the tie blocks' ends."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    n_pos = int(labels.sum())
    if n_pos == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tp = np.cumsum(labels[order])
    taken = np.arange(1, labels.shape[0] + 1)
    is_block_end = np.ones(labels.shape[0], dtype=bool)
    is_block_end[:-1] = sorted_scores[:-1] != sorted_scores[1:]
    total = 0.0
    prev_recall = 0.0
    for k in np.nonzero(is_block_end)[0]:
        precision = tp[k] / taken[k]
        recall = tp[k] / n_pos
        total += (recall - prev_recall) * precision
        prev_recall = recall
    return float(total)
