"""Output checks for the dcnn benchmark, computed apart from the program.

The reference model here is written from the architecture, not from
``dcnn.kernels``: a float64 sliding-window convolution, ReLU, max-pool,
dense layer and sigmoid, with auROC as a brute-force count over every
positive-negative pair.  Each ``check_*`` function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Largest difference allowed between the program's float32 loss and
#: the float64 reference loss on the same parameters and records
#: (observed: at most 4e-8).
LOSS_TOL = 1e-5
#: Reference scores closer than this may be ordered either way in float32,
#: so pairs (for auROC) and records (for accuracy at 0.5) that close are
#: allowed to come out differently.
SCORE_TIE = 1e-5
#: Gradient: largest absolute difference per tensor, relative to that
#: tensor's largest reference entry (observed: at most 1.3e-6; the dense
#: bias gradient can itself be near zero on a balanced batch).
GRAD_RTOL = 1e-4
#: Synchronous data parallelism against one replica at the same global
#: batch: relative L2 distance of the final parameters.  In float64 the two
#: agree to 1e-16.  In float32 they usually agree to 1e-7, but Adam turns
#: a rounding-level gradient into a full +-lr step, so one flipped sign can
#: cascade: 9.5e-4 after 174 steps (ring-l200-2r, seed 7).  A run on other
#: data is 0.17 away.
EQUIV_RTOL = 1e-2

PROB_CLAMP = 1e-7  # the loss definition clamps probabilities by this much
_CODES = np.full(256, -1, dtype=np.int64)
for _i, _b in enumerate(b"ACGT"):
    _CODES[_b] = _i
_CHUNK = 16  # records per reference chunk, so the reference stays small


def one_hot64(records) -> np.ndarray:
    """[B, L, 4] float64 one-hot of the records' bases (A, C, G, T)."""
    codes = np.stack(
        [_CODES[np.frombuffer(r.bases.encode("ascii"), dtype=np.uint8)] for r in records]
    )
    if (codes < 0).any():
        raise ValueError("record holds a base outside ACGT")
    return np.eye(4)[codes]


def _as64(params):
    return (
        np.asarray(params.conv_filters, dtype=np.float64),
        np.asarray(params.conv_bias, dtype=np.float64),
        np.asarray(params.dense_weights, dtype=np.float64)[:, 0],
        float(params.dense_bias),
    )


def _forward(x, params, model_config):
    """Reference forward on a [B, L, 4] float64 batch: probabilities plus
    what the gradient needs (pre-activation, pooled features, winners)."""
    if model_config.conv_activation != "relu":
        raise ValueError("the reference model covers the ReLU architecture only")
    filters, bias, dense_w, dense_b = _as64(params)
    width = filters.shape[1]
    windows = sliding_window_view(x, width, axis=1)  # [B, T, 4, W]
    pre = np.tensordot(windows, filters, axes=([2, 3], [2, 1])) + bias  # [B, T, F]
    act = np.maximum(pre, 0.0)
    pw, ps = model_config.pool_window, model_config.pool_stride
    pool_in = sliding_window_view(act, pw, axis=1)[:, ::ps]  # [B, P, F, pw]
    winner = pool_in.argmax(axis=-1)  # first of equal maxima
    pooled = np.take_along_axis(pool_in, winner[..., None], axis=-1)[..., 0]
    flat = pooled.reshape(x.shape[0], -1)
    logit = flat @ dense_w + dense_b
    probs = 1.0 / (1.0 + np.exp(-logit))
    return probs, (windows, pre, winner, flat)


def reference_probs(params, records, model_config) -> np.ndarray:
    """Float64 sigmoid outputs of the reference model for every record."""
    parts = []
    for start in range(0, len(records), _CHUNK):
        x = one_hot64(records[start : start + _CHUNK])
        parts.append(_forward(x, params, model_config)[0])
    return np.concatenate(parts)


def reference_gradient(params, records, model_config) -> np.ndarray:
    """Float64 gradient of mean BCE over ``records``, flattened in the
    program's canonical order (conv filters, conv bias, dense weights,
    dense bias)."""
    filters, _bias, dense_w, _dense_b = _as64(params)
    n_total = len(records)
    pw, ps = model_config.pool_window, model_config.pool_stride
    g_filters = np.zeros_like(filters)
    g_bias = np.zeros(filters.shape[0])
    g_dense_w = np.zeros_like(dense_w)
    g_dense_b = 0.0
    for start in range(0, n_total, _CHUNK):
        chunk = records[start : start + _CHUNK]
        x = one_hot64(chunk)
        y = np.array([r.label for r in chunk], dtype=np.float64)
        probs, (windows, pre, winner, flat) = _forward(x, params, model_config)
        dlogit = (probs - y) / n_total
        g_dense_w += flat.T @ dlogit
        g_dense_b += dlogit.sum()
        dpooled = (dlogit[:, None] * dense_w).reshape(winner.shape)  # [B, P, F]
        rows = np.arange(winner.shape[1])[None, :, None] * ps + winner
        dpre = np.zeros_like(pre)
        b_idx = np.arange(x.shape[0])[:, None, None]
        f_idx = np.arange(pre.shape[2])[None, None, :]
        np.add.at(dpre, (b_idx, rows, f_idx), dpooled)
        dpre *= pre > 0.0
        # dL/dfilters[f, w, c] = sum_{b,i} dpre[b, i, f] * x[b, i + w, c]
        g_filters += np.tensordot(dpre, windows, axes=([0, 1], [0, 1])).transpose(0, 2, 1)
        g_bias += dpre.sum(axis=(0, 1))
    return np.concatenate([g_filters.ravel(), g_bias, g_dense_w, [g_dense_b]])


def reference_scores(probs, labels) -> dict:
    """Loss, accuracy and auROC of float64 probabilities, with auROC as the
    brute-force share of positive-negative pairs ranked correctly."""
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    pos, neg = probs[y == 1], probs[y == 0]
    pairs = pos[:, None] - neg[None, :]
    return {
        "loss": float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p)))),
        "accuracy": float(np.mean((probs > 0.5) == (y == 1))),
        "auroc": float(((pairs > 0).sum() + 0.5 * (pairs == 0).sum()) / pairs.size),
    }


def check_scores(reported: dict, probs, labels) -> list:
    """The program's loss, accuracy and auROC against the reference
    computed from float64 probabilities ``probs`` of the same records."""
    ref = reference_scores(probs, labels)
    y = np.asarray(labels)
    pos, neg = probs[y == 1], probs[y == 0]
    close_pairs = np.abs(pos[:, None] - neg[None, :]) < SCORE_TIE
    tolerances = {
        "loss": LOSS_TOL,
        "accuracy": float(np.mean(np.abs(probs - 0.5) < SCORE_TIE)) + 1e-12,
        "auroc": float(close_pairs.mean()) + 1e-12,
    }
    problems = []
    for name, tol in tolerances.items():
        got = reported.get(name)
        if got is None or not abs(float(got) - ref[name]) <= tol:
            problems.append(
                f"{name}: program {got} vs reference {ref[name]:.8f} (tolerance {tol:.2e})"
            )
    return problems


def expected_messages(strategy: str, replicas: int, epochs: int, steps: int) -> int:
    """Messages a training run sends, from the protocol: ring all-reduce
    sends 2N(N-1) per step, the parameter server 2N per step; rank 0 sends
    N-1 halt flags per epoch, and the parameter server one more at the end."""
    n = replicas
    if strategy == "allreduce":
        return 0 if n == 1 else epochs * (steps * 2 * n * (n - 1) + (n - 1))
    if strategy == "ps":
        return epochs * (steps * 2 * n + (n - 1)) + 1
    raise ValueError(f"no closed form for strategy {strategy!r}")


def check_messages(reported: int, expected: int) -> list:
    if reported != expected:
        return [f"messages: program sent {reported}, protocol needs {expected}"]
    return []


def check_gradient(program, reference, model_config) -> list:
    """Per tensor, the largest difference relative to the largest
    reference entry stays within GRAD_RTOL."""
    program = np.asarray(program, dtype=np.float64)
    if program.shape != reference.shape:
        return [f"gradient: {program.shape} entries, reference has {reference.shape}"]
    conv = model_config.n_filters * model_config.filter_width * 4
    bounds = {
        "conv_filters": (0, conv),
        "conv_bias": (conv, conv + model_config.n_filters),
        "dense_weights": (conv + model_config.n_filters, reference.size - 1),
        "dense_bias": (reference.size - 1, reference.size),
    }
    problems = []
    for name, (lo, hi) in bounds.items():
        scale = max(float(np.max(np.abs(reference[lo:hi]))), 1e-12)
        err = float(np.max(np.abs(program[lo:hi] - reference[lo:hi]))) / scale
        if not err <= GRAD_RTOL:
            problems.append(f"gradient {name}: relative error {err:.2e} > {GRAD_RTOL:.0e}")
    return problems


def check_equivalent(params_vec, single_vec) -> list:
    """Data-parallel final parameters against a one-replica run."""
    single = np.asarray(single_vec, dtype=np.float64)
    gap = float(np.linalg.norm(np.asarray(params_vec, np.float64) - single)
                / np.linalg.norm(single))
    if not gap <= EQUIV_RTOL:
        return [f"data parallel vs one replica: relative L2 distance {gap:.2e} "
                f"> {EQUIV_RTOL:.0e}"]
    return []


def check_identical(params_vec, first_vec) -> list:
    """Determinism: a repeated run must return bit-identical parameters."""
    a, b = np.asarray(params_vec), np.asarray(first_vec)
    if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
        return ["determinism: final parameters differ from the first run's"]
    return []
