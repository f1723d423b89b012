"""Classification metrics for probability scores: accuracy at the 0.5
threshold, auROC (rank form), and auPRC (average precision).

A metric that is mathematically undefined for the given labels — auROC
with a single class, auPRC with no positives — is reported as None, so
callers can surface "undefined" instead of propagating NaN.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def _as_arrays(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValidationError(
            f"scores shape {scores.shape} and labels shape {labels.shape} "
            f"must be equal 1-D"
        )
    if scores.shape[0] == 0:
        raise ValidationError("metrics need at least one sample")
    if not np.isin(labels, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    return scores, labels.astype(np.int64)


def accuracy(scores, labels) -> float:
    """Fraction predicted correctly at threshold 0.5; a score exactly at
    the threshold classifies as negative, keeping the rule deterministic."""
    scores, labels = _as_arrays(scores, labels)
    predicted = (scores > 0.5).astype(np.int64)
    return float((predicted == labels).mean())


def auroc(scores, labels):
    """Probability that a random positive outranks a random negative,
    ties counting 1/2 (Mann-Whitney / rank formulation); None if only
    one class is present."""
    scores, labels = _as_arrays(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # midranks: average 1-based rank within each tie block; a block starts
    # where the sorted score changes, so each NaN is a block of its own
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    stops = np.r_[starts[1:], scores.shape[0]]
    ranks = np.empty(scores.shape[0], dtype=np.float64)
    ranks[order] = np.repeat(0.5 * ((starts + 1) + stops), stops - starts)
    rank_sum_pos = float(ranks[labels == 1].sum())
    u_statistic = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u_statistic / (n_pos * n_neg)


def auprc(scores, labels):
    """Average precision: sum over descending-score prefixes of
    (recall increment x precision), tied scores processed as one block;
    None if there are no positives."""
    scores, labels = _as_arrays(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # prefix boundaries: last index of each tied block
    ends = np.flatnonzero(np.r_[sorted_scores[:-1] != sorted_scores[1:], True])
    tp = np.cumsum(sorted_labels)[ends]
    precision = tp / (ends + 1)
    recall = tp / n_pos
    # summed in block order, one term at a time, as a running total would
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])
