"""Dense numeric kernels for the motif CNN.

Valid (no padding, stride 1) 1-D convolution over one-hot channels,
windowed max pooling, a single-logit dense layer, and sigmoid/relu
activations, each with a hand-written backward pass.  The convolution
also comes in a base-code form for one-hot DNA: the input is uint8 codes
[..., L] (A/C/G/T = 0-3), the forward gathers one filter column per tap
instead of multiplying by zeros, and the backward scatters only the
gradients of the max-pool winners.  On one-hot input it is bit-identical
to the dense form.

The model runs the base-code form only.  The dense convolution
(``conv1d_forward``, ``conv1d_backward``), ``maxpool1d_backward`` and
``relu_grad`` are the oracle the tests build their dense one-hot model
from (``tests/oracles.py``).  They stay in this module, not in the
tests, because the traced benchmark (``perfbench/tracing.py``) looks
each of them up by name; they move out with the benchmark change that
drops them from its ``TIMED`` list.

The base-code forward takes its first k taps from a prefix table, as the
"superalphabet" PWM scan does (Pizzi, Rastas & Ukkonen, IEEE/ACM TCBB
2011).  Because the sum starts at the bias and adds taps in ascending
order, the running sum after tap k-1 at row i depends only on the k-mer
codes[i : i+k].  The table holds that sum for all 4**k k-mers, folded
with the same roundings in the same order, so gathering it through the
k-mer index is exact, not an approximation.

All kernels are pure functions on numpy arrays in float32 or float64 and
accept an optional leading batch dimension. Reductions run in a fixed
order so identical inputs give bit-identical outputs: the convolution
forward accumulates bias first, then filter taps in ascending (tap,
channel) order, which makes it bit-equal to a naive triple loop; gradient
reductions go through single-threaded ``einsum``/``add.at`` paths (the
base-code backward through ``add.at`` alone, in ascending sample and row
order) that never depend on thread scheduling.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InternalConsistencyError, ShapeError, ValidationError

#: Supported floating precisions, keyed by config string.
PRECISIONS = {"f32": np.float32, "f64": np.float64}


def dtype_for(precision: str) -> np.dtype:
    """Map a precision name ('f32' or 'f64') to a numpy dtype."""
    try:
        return np.dtype(PRECISIONS[precision])
    except KeyError:
        raise ValidationError(
            f"unknown precision {precision!r}; expected one of {sorted(PRECISIONS)}"
        ) from None


def conv1d_forward(x: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid 1-D convolution: out[..., i, f] = bias[f] + sum_{j,c} filters[f,j,c] * x[..., i+j, c].

    ``x`` is [..., L, C], ``filters`` is [F, W, C], ``bias`` is [F];
    returns [..., L-W+1, F].
    """
    x = np.asarray(x)
    filters = np.asarray(filters)
    bias = np.asarray(bias)
    if x.ndim < 2:
        raise ShapeError(f"conv1d input must be at least 2-D [L, C], got shape {x.shape}")
    if filters.ndim != 3:
        raise ShapeError(f"conv1d filters must be 3-D [F, W, C], got shape {filters.shape}")
    length, channels = x.shape[-2], x.shape[-1]
    n_filters, width, filter_channels = filters.shape
    if channels != filter_channels:
        raise ShapeError(
            f"conv1d channel mismatch: input has {channels} channels, "
            f"filters have {filter_channels}"
        )
    if bias.shape != (n_filters,):
        raise ShapeError(f"conv1d bias must have shape ({n_filters},), got {bias.shape}")
    if length < width:
        raise ShapeError(
            f"conv1d would produce an empty output: input length {length} < filter width {width}"
        )
    out_length = length - width + 1

    out = np.empty(x.shape[:-2] + (out_length, n_filters), dtype=x.dtype)
    out[...] = bias
    tmp = np.empty_like(out)
    # Fixed ascending (tap, channel) accumulation; one rounded multiply and
    # one rounded add per term, exactly like the scalar reference loop.
    for j in range(width):
        window = x[..., j : j + out_length, :]
        for c in range(channels):
            np.multiply(window[..., c, None], filters[:, j, c], out=tmp)
            out += tmp
    return out


def conv1d_backward(
    x: np.ndarray, filters: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv1d_forward w.r.t. filters and bias.

    grad_filters[f, j, c] = sum_{..., i} grad_out[..., i, f] * x[..., i+j, c];
    grad_bias[f] = sum over everything but f. The input gradient is not
    computed: the convolution is the first layer of the model.
    """
    x = np.asarray(x)
    filters = np.asarray(filters)
    grad_out = np.asarray(grad_out)
    n_filters, width, channels = filters.shape
    out_length = x.shape[-2] - width + 1
    expected = x.shape[:-2] + (out_length, n_filters)
    if grad_out.shape != expected:
        raise ShapeError(
            f"conv1d_backward grad_out shape {grad_out.shape} does not match "
            f"forward output shape {expected}"
        )
    flat_x = x.reshape(-1, *x.shape[-2:])
    flat_grad = grad_out.reshape(-1, out_length, n_filters)
    grad_filters = np.empty_like(filters)
    for j in range(width):
        window = flat_x[:, j : j + out_length, :]
        grad_filters[:, j, :] = np.einsum("bif,bic->fc", flat_grad, window)
    grad_bias = grad_out.reshape(-1, n_filters).sum(axis=0)
    return grad_filters, grad_bias


def _codes_out_length(codes, filters) -> int:
    """Validate base codes (integers 0-3) and filters; returns the conv
    output length."""
    if codes.ndim < 1 or codes.dtype.kind not in "iu":
        raise ShapeError(
            f"conv1d codes must be integer [..., L], got {codes.dtype} {codes.shape}"
        )
    if filters.ndim != 3 or filters.shape[2] != 4:
        raise ShapeError(f"conv1d filters must be [F, W, 4], got shape {filters.shape}")
    width = filters.shape[1]
    if codes.shape[-1] < width:
        raise ShapeError(
            f"conv1d would produce an empty output: input length {codes.shape[-1]} "
            f"< filter width {width}"
        )
    # The kernels gather and scatter without bounds checks, so a code
    # outside 0-3 must be caught here: it would alias another k-mer in the
    # forward's prefix index, or another tap in the backward's flat index.
    if codes.size and (codes.min() < 0 or codes.max() > 3):
        raise ValidationError(
            f"conv1d codes must be 0-3, got values {int(codes.min())} ... {int(codes.max())}"
        )
    return codes.shape[-1] - width + 1


def prefix_length(rows: int, width: int) -> int:
    """Default k-mer length of conv1d_forward_codes for ``rows`` output
    rows (B * T) and filter width ``width``: the largest k in 1 ... width
    with 16 * 4**k <= rows, else 1.  Building the table costs about
    F * 4**k adds, and each tap it absorbs saves B * T * F, so the table
    stays at most 1/16 of the output."""
    k = 1
    while k < width and 16 * 4 ** (k + 1) <= rows:
        k += 1
    return k


def conv1d_forward_codes(codes: np.ndarray, filters: np.ndarray, bias: np.ndarray,
                         dtype=None, k: int | None = None) -> np.ndarray:
    """conv1d_forward on the one-hot encoding of ``codes`` without building it.

    ``codes`` is [..., L] with values 0-3 (A, C, G, T); returns
    [..., L-W+1, F] in ``dtype`` (default: the filters' dtype).  Each tap j
    adds the filter column of the base at i+j, filters[:, j, codes[i+j]], in
    ascending tap order after the bias.  The dense kernel's other three
    channels add exact zeros, so the two are bit-identical.

    The first ``k`` taps come from a prefix table: prefix[m] is the bias
    plus taps 0 ... k-1 of the k-mer m, folded in that order, so one gather
    through the k-mer index at i replaces k gathers and k-1 adds with the
    same roundings.  Taps k ... W-1 follow one gather each.  ``k`` defaults
    to prefix_length(B * T, W); k = 1 is the plain tap loop.
    """
    codes = np.asarray(codes)
    filters = np.asarray(filters)
    bias = np.asarray(bias)
    out_length = _codes_out_length(codes, filters)
    n_filters, width, _ = filters.shape
    if bias.shape != (n_filters,):
        raise ShapeError(f"conv1d bias must have shape ({n_filters},), got {bias.shape}")
    if k is None:
        k = prefix_length(codes.size // codes.shape[-1] * out_length, width)
    elif not 1 <= k <= width:
        raise ValidationError(f"conv1d prefix length k must be in 1 ... {width}, got {k}")
    codes = codes.astype(np.intp)
    dtype = filters.dtype if dtype is None else np.dtype(dtype)
    table = filters.transpose(1, 2, 0).astype(dtype)  # [W, 4, F]
    prefix = bias.astype(dtype)[None]  # [4**j, F] after j taps
    index = codes[..., :out_length].copy()  # k-mer index, first base most significant
    for j in range(k):
        prefix = (prefix[:, None] + table[j]).reshape(-1, n_filters)
        if j:
            index <<= 2
            index += codes[..., j : j + out_length]
    out = prefix.take(index, axis=0, mode="clip")
    tmp = np.empty_like(out)
    for j in range(k, width):
        table[j].take(codes[..., j : j + out_length], axis=0, out=tmp, mode="clip")
        out += tmp
    return out


def conv1d_backward_codes(
    codes: np.ndarray, filters: np.ndarray, rows: np.ndarray, grad_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """conv1d_backward for a base-code input whose output gradient is zero
    everywhere except at given rows, as after a max-pool.

    ``codes`` is [B, L]; ``rows`` [B, P, F] holds the conv output row that
    carries each gradient in ``grad_rows`` [B, P, F] (for filter f).  It
    checks the codes and rows, then runs :func:`conv1d_backward_scatter`.
    """
    codes = np.asarray(codes)
    filters = np.asarray(filters)
    rows = np.asarray(rows)
    grad_rows = np.asarray(grad_rows)
    out_length = _codes_out_length(codes, filters)
    n_filters = filters.shape[0]
    if (codes.ndim != 2 or rows.ndim != 3 or rows.shape != grad_rows.shape
            or rows.shape[0] != codes.shape[0] or rows.shape[2] != n_filters):
        raise ShapeError(
            f"conv1d_backward_codes: codes {codes.shape}, rows {rows.shape} and "
            f"grad_rows {grad_rows.shape} do not fit filters {filters.shape}"
        )
    if rows.size and (rows.min() < 0 or rows.max() >= out_length):
        raise InternalConsistencyError(
            f"conv1d gradient row {int(rows.max())} outside output of length {out_length}"
        )
    return conv1d_backward_scatter(codes, filters, rows, grad_rows)


@functools.cache
def _taps(n_filters: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(the taps 0 ... W-1, the flat index (f * W + j) * 4 of [f, j, 0] in
    a [F, W, 4] array), built once per filter shape and read-only, since
    every call with that shape shares them."""
    taps = np.arange(width)
    offsets = (np.arange(n_filters)[:, None] * width + taps) * 4
    taps.setflags(write=False)
    offsets.setflags(write=False)
    return taps, offsets


def conv1d_backward_scatter(
    codes: np.ndarray, filters: np.ndarray, rows: np.ndarray, grad_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The scatter of :func:`conv1d_backward_codes`, with no checks: the
    arrays must be ones it accepts, such as the codes and winning rows of
    the model's own forward.  An unchecked code or row outside its range
    lands on another tap, or another record's bases.

    Each nonzero gradient g at (b, row, f) adds g to grad_bias[f] and to
    grad_filters[f, j, codes[b, row + j]] for every tap j, in ascending
    (b, p) order, which is ascending (b, row) when pools do not overlap.
    That is the order in which conv1d_backward sums the same nonzero
    terms.  Sums run in ``grad_rows``'s dtype; grad_filters comes back in
    the filters' dtype.
    """
    n_filters, width, _ = filters.shape
    taps, tap_offsets = _taps(n_filters, width)
    carries = np.flatnonzero(grad_rows)  # C order: ascending (b, p, f)
    g = grad_rows.ravel()[carries]
    b, f = carries // (rows.shape[1] * n_filters), carries % n_filters
    # flat index of codes[b, row] in the [B * L] codes
    start = rows.ravel()[carries] + b * codes.shape[1]
    # flat index of [f, j, codes[b, row + j]] in a [F, W, 4] array, [n, W]
    index = tap_offsets[f] + codes.ravel()[start[:, None] + taps]
    grad_filters = np.zeros(n_filters * width * 4, dtype=grad_rows.dtype)
    np.add.at(grad_filters, index.ravel(), np.repeat(g, width))
    grad_bias = np.zeros(n_filters, dtype=grad_rows.dtype)
    np.add.at(grad_bias, f, g)
    return grad_filters.reshape(filters.shape).astype(filters.dtype, copy=False), grad_bias


def maxpool1d_forward(
    x: np.ndarray, window: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel max over sliding windows.

    ``x`` is [..., T, F]; returns (pooled [..., n_out, F], argmax_rows)
    where n_out = (T - window)//stride + 1 and argmax_rows holds the input
    row index of each winning element: ``np.argmax``'s winner, so the
    first occurrence on ties and the first NaN if the window has one.

    The windows are copied window-last, [..., n_out, F, window], so that
    ``argmax`` scans contiguous rows, and the winners are read back with
    one flat gather: each pooled value is the winning element itself,
    its bits (the sign of a zero, a NaN's payload) included.
    """
    x = np.asarray(x)
    if window < 1 or stride < 1:
        raise ValidationError(f"maxpool window and stride must be >= 1, got {window}, {stride}")
    if x.ndim < 2:
        raise ShapeError(f"maxpool input must be at least 2-D [T, F], got shape {x.shape}")
    rows = x.shape[-2]
    if rows < window:
        raise ShapeError(
            f"maxpool would produce an empty output: input length {rows} < window {window}"
        )
    n_out = (rows - window) // stride + 1
    if stride == window:  # non-overlapping: the windows are a reshape
        windows = x[..., : n_out * window, :].reshape(
            x.shape[:-2] + (n_out, window, x.shape[-1])
        ).swapaxes(-1, -2)
    else:
        windows = sliding_window_view(x, window, axis=-2)[..., ::stride, :, :]
    windows = np.ascontiguousarray(windows)  # [..., n_out, F, window]
    arg_in_window = windows.argmax(axis=-1)
    flat_winner = np.arange(0, windows.size, window).reshape(arg_in_window.shape)
    flat_winner += arg_in_window
    pooled = windows.reshape(-1)[flat_winner]
    argmax_rows = np.arange(0, n_out * stride, stride)[:, None] + arg_in_window
    return pooled, argmax_rows


def maxpool1d_backward(
    argmax_rows: np.ndarray, grad_out: np.ndarray, input_length: int
) -> np.ndarray:
    """Route pooled gradients back to the rows that won each window.

    All non-winning entries get zero, so the gradient mass is conserved:
    grad_input sums to grad_out.
    """
    argmax_rows = np.asarray(argmax_rows)
    grad_out = np.asarray(grad_out)
    if argmax_rows.shape != grad_out.shape:
        raise ShapeError(
            f"maxpool_backward argmax shape {argmax_rows.shape} does not match "
            f"grad_out shape {grad_out.shape}"
        )
    if argmax_rows.size and (argmax_rows.min() < 0 or argmax_rows.max() >= input_length):
        raise InternalConsistencyError(
            f"maxpool argmax row {int(argmax_rows.max())} outside input of length {input_length}"
        )
    n_channels = grad_out.shape[-1]
    lead = grad_out.shape[:-2]
    grad_in = np.zeros(lead + (input_length, n_channels), dtype=grad_out.dtype)
    flat_grad = grad_out.reshape(-1, grad_out.shape[-2], n_channels)
    flat_rows = argmax_rows.reshape(flat_grad.shape)
    flat_in = grad_in.reshape(-1, input_length, n_channels)
    batch_idx = np.arange(flat_grad.shape[0])[:, None, None]
    chan_idx = np.arange(n_channels)[None, None, :]
    np.add.at(flat_in, (batch_idx, flat_rows, chan_idx), flat_grad)
    return grad_in


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: float) -> np.ndarray:
    """Single-output affine layer: logit = bias + x . weights.

    ``x`` is [..., D], ``weights`` is [D, 1]; returns a scalar for 1-D
    input, else an array of the leading shape.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    if weights.ndim != 2 or weights.shape[1] != 1:
        raise ShapeError(f"dense weights must have shape [D, 1], got {weights.shape}")
    if x.shape[-1] != weights.shape[0]:
        raise ShapeError(
            f"dense input feature size {x.shape[-1]} does not match weight rows {weights.shape[0]}"
        )
    return np.einsum("...d,d->...", x, weights[:, 0]) + bias


def dense_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of dense_forward: (grad_weights [D,1], grad_bias scalar, grad_input)."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    grad_out = np.asarray(grad_out)
    if grad_out.shape != x.shape[:-1]:
        raise ShapeError(
            f"dense_backward grad_out shape {grad_out.shape} does not match "
            f"input leading shape {x.shape[:-1]}"
        )
    flat_x = x.reshape(-1, x.shape[-1])
    flat_grad = grad_out.reshape(-1)
    grad_weights = np.einsum("nd,n->d", flat_x, flat_grad)[:, None]
    grad_bias = grad_out.sum(dtype=grad_out.dtype)
    grad_input = grad_out[..., None] * weights[:, 0]
    return grad_weights, grad_bias, grad_input


def sigmoid(x):
    """Logistic function, overflow-free for any finite input: with
    e = exp(-|x|), 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere.
    The mask x >= 0 and the denominator 1 + e are each computed once."""
    x = np.asarray(x)
    nonneg = x >= 0
    e = np.exp(np.where(nonneg, -x, x))  # exp of a value <= 0 never overflows
    denom = 1.0 + e
    return np.where(nonneg, 1.0 / denom, e / denom)


def relu(x):
    """max(x, 0) elementwise; NaN stays NaN, and a zero or negative input
    gives +0.0, never -0.0, so relu commutes with max-pooling bit for bit."""
    x = np.asarray(x)
    return np.maximum(x, 0)


def relu_grad(x):
    """Derivative mask of relu w.r.t. its input: 1 where x > 0, else 0."""
    x = np.asarray(x)
    return (x > 0).astype(x.dtype if x.dtype.kind == "f" else np.float64)
