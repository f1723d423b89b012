"""Independent reference implementations used as test oracles, and
:func:`run_group`, which runs a group of ranks the way training does.

The oracles are deliberately naive (explicit loops, ascending index
order) and stay independent of the library code paths they check.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from dcnn.transport import LINK_TIMEOUT_S, ProcessLinks, TransportStats, run_ranks


def _with_stats(fn, endpoint):
    return fn(endpoint), endpoint.stats


def run_group(fns, dtype, forked=False, timeout=LINK_TIMEOUT_S):
    """Run ``fns[r](endpoint)`` as rank r of a fresh group of ``dtype``
    links through ``transport.run_ranks``, the runner training uses.

    Returns the results in rank order and the sends of every rank,
    merged.  Each rank returns its endpoint's stats with its result, so
    the count holds for forked ranks too.
    """
    links = ProcessLinks(len(fns), dtype, timeout=timeout)
    outcomes = run_ranks(
        links, [partial(_with_stats, fn, links.endpoint(r)) for r, fn in enumerate(fns)],
        forked,
    )
    stats = TransportStats()
    for _result, rank_stats in outcomes:
        stats.merge(rank_stats)
    return [result for result, _stats in outcomes], stats


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
    rows, chans = x.shape
    n_out = (rows - window) // stride + 1
    out = np.empty((n_out, chans), dtype=x.dtype)
    idx = np.empty((n_out, chans), dtype=np.int64)
    for t in range(n_out):
        for f in range(chans):
            best = t * stride
            for r in range(t * stride, t * stride + window):
                if x[r, f] > x[best, f]:
                    best = r
            out[t, f] = x[best, f]
            idx[t, f] = best
    return out, idx


def numerical_gradient(f, arr: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar-valued f() w.r.t. arr, mutated in place."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    grad_flat = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        f_plus = f()
        flat[k] = orig - h
        f_minus = f()
        flat[k] = orig
        grad_flat[k] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise difference, normalized by the largest magnitude present."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b)) / scale)


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
