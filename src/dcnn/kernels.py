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

The base-code conv comes only in pieces, which check nothing: the work
that depends only on the codes, which ``network.plan`` does once ahead
after checking them (``conv1d_index``, the forward's gather index), and
the work on the parameters (``conv1d_table``, ``conv1d_gather``, and
``conv1d_scatter``, which reads each winner's taps from the codes).
The forward takes its first k taps from a prefix table, as the
"superalphabet" PWM scan does (Pizzi, Rastas & Ukkonen, IEEE/ACM TCBB
2011).  Because the sum starts at the bias and adds taps in ascending
order, the running sum after tap k-1 at row i depends only on the k-mer
codes[i : i+k].  The table holds that sum for all 4**k k-mers, folded
with the same roundings in the same order, so gathering it through the
k-mer index is exact, not an approximation.  The later taps' filter
columns are stacked under it, so that one ``take`` gathers every tap of
every row and one ``np.add.reduce`` over the leading tap axis folds
them, in the loop's own order.

The index orders the conv rows window-first, [K, window, B, P]: row w of
max-pool window p is conv row p * stride + w.  So the conv output is
[window, B, P, F], which ``maxpool1d_forward`` takes without a copy
and folds over its leading axis with a few branch-free whole-array ops.

All kernels are pure functions on numpy arrays in float32 or float64 and
accept an optional leading batch dimension. Reductions run in a fixed
order so identical inputs give bit-identical outputs: the convolution
forward accumulates bias first, then filter taps in ascending (tap,
channel) order, which makes it bit-equal to a naive triple loop; gradient
reductions go through single-threaded ``einsum``/``add.at`` paths (the
base-code backward through ``add.at`` alone, in ascending sample and row
order) that never depend on thread scheduling.  These sums keep their
bits at every SIMD level NumPy picks at run time (only ``exp`` and
``log`` move, in float64), and so do the max-pool's winners;
``tests/test_identity_sweep.py`` checks float32 training and the
max-pool with AVX-512 off.
"""

from __future__ import annotations

import functools

import numpy as np

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


def prefix_length(rows: int, width: int) -> int:
    """Default prefix length of the conv's gather table (``network.plan``)
    for ``rows`` output rows (B * T) and filter width ``width``: the
    largest k in 1 ... width with 16 * 4**k <= rows, else 1.  Building
    the table costs about F * 4**k adds, and each tap it absorbs saves
    B * T * F, so the table stays at most 1/16 of the output."""
    k = 1
    while k < width and 16 * 4 ** (k + 1) <= rows:
        k += 1
    return k


#: Bytes of gathered taps [K, rows, F] up to which :func:`conv1d_gather`
#: takes a whole conv in one block (a [4, 200] training step's is 378 KB
#: in f32): splitting it would cost more NumPy calls than it saves.
GATHER_WHOLE_BYTES = 1024 * 1024
#: Bytes of gathered taps that a larger conv (a scoring chunk's, or a
#: [64, 1500] step's) sums at a time: below glibc's default 128 KiB mmap
#: threshold, so that the block's buffer is reused from the heap without
#: page faults, and well within a core's L2 cache.
GATHER_BYTES = 120 * 1024


def conv1d_index_dtype(width: int, k: int) -> np.dtype:
    """The dtype of :func:`conv1d_index`: the smallest unsigned one that
    holds the table's last row, 4**k + 4 (W - k) - 1."""
    return np.min_scalar_type(4**k + 4 * (width - k) - 1)


def conv1d_index(codes: np.ndarray, width: int, k: int, window: int,
                 stride: int) -> np.ndarray:
    """The gather index of :func:`conv1d_gather` for base codes [..., B, L]
    (0-3, unchecked), in max-pool window order: [..., K, window, B, P],
    entry [j, w, b, p] for conv row p * stride + w of record b, row w of
    pool window p.  Each conv row sums K = 1 + W - k rows of
    :func:`conv1d_table`: entry 0 of conv row i is its k-mer
    codes[i : i+k], first base most significant, which names the table
    row holding bias + taps 0 ... k-1; entry 1 + m is
    4**k + 4 m + codes[i + k + m], the row of tap k + m's filter column.
    The dtype is :func:`conv1d_index_dtype` (uint8 or uint16 at this
    model's sizes).  Rows in no window are not indexed, and rows in two
    windows are indexed twice.

    The codes are copied once, through a strided view with step
    ``stride``, to [..., window + W - 1, B, P], the code at each offset of
    every window, and each index row is one op over a slice of that copy:
    tap j of window row w is at offset w + j.
    """
    lead, (batch, length) = codes.shape[:-2], codes.shape[-2:]
    pools = (length - width + 1 - window) // stride + 1
    span, n_taps = window + width - 1, 1 + width - k
    dtype = conv1d_index_dtype(width, k)
    codes = np.ascontiguousarray(codes)
    # a view straight from the buffer: as_strided's __array_interface__
    # route took 0.5 MiB more peak RSS over 200 train() calls
    item = codes.itemsize
    runs = np.ndarray(lead + (batch, pools, span), codes.dtype, buffer=codes,
                      strides=codes.strides[:-1] + (stride * item, item))
    offsets = np.empty(lead + (span, batch, pools), dtype)  # [..., span, B, P]
    # through a window-last copy, whose contiguous runs transpose faster
    # than the strided view
    offsets[...] = np.moveaxis(runs.astype(dtype, order="C"), -1, -3)
    index = np.empty(lead + (n_taps, window, batch, pools), dtype)
    kmer = index[..., 0, :, :, :]
    kmer[...] = offsets[..., :window, :, :]
    for j in range(1, k):
        np.multiply(kmer, 4, out=kmer)
        np.add(kmer, offsets[..., j : j + window, :, :], out=kmer)
    # [..., W - k, window, B, P]: tap k + m of window row w, at offset w + k + m
    strides = offsets.strides
    taps = np.ndarray(lead + (width - k, window, batch, pools), dtype, buffer=offsets,
                      offset=k * strides[-3], strides=strides[:-2] + strides[-3:])
    np.add(taps, np.arange(4**k, 4**k + 4 * (width - k), 4, dtype=dtype)[:, None, None, None],
           out=index[..., 1:, :, :, :])
    return index


def conv1d_table(filters: np.ndarray, bias: np.ndarray, k: int, dtype=None) -> np.ndarray:
    """The gather table of the base-code conv, [4**k + 4 (W - k), F] in
    ``dtype`` (default: the filters' dtype).

    Row m < 4**k holds the bias plus taps 0 ... k-1 of the k-mer m, folded
    in that order, as the "superalphabet" PWM scan does (Pizzi, Rastas &
    Ukkonen, IEEE/ACM TCBB 2011); row 4**k + 4 m + c holds
    filters[:, k + m, c], tap k + m's column for base c.
    """
    n_filters, width, _ = filters.shape
    dtype = filters.dtype if dtype is None else np.dtype(dtype)
    columns = np.ascontiguousarray(filters.transpose(1, 2, 0), dtype=dtype)  # [W, 4, F]
    table = np.empty((4**k + 4 * (width - k), n_filters), dtype)
    prefix = bias.astype(dtype, copy=False)  # [4] * j + [F] after j taps
    for j in range(k - 1):
        prefix = prefix[..., None, :] + columns[j]
    np.add(prefix[..., None, :], columns[k - 1],
           out=table[: 4**k].reshape((4,) * k + (n_filters,)))
    table[4**k :].reshape(width - k, 4, n_filters)[...] = columns[k:]
    return table


def conv1d_gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The conv output [..., F] of a gather index [K, ...]
    (:func:`conv1d_index`) into a table (:func:`conv1d_table`): each row
    is the sum of the K table rows its index names, folded in index
    order, which is the order bias, tap 0, ..., tap W-1.  A step's index
    [K, window, B, P] gives the window-first [window, B, P, F].

    The rows are gathered whole, or GATHER_BYTES at a time, with one
    ``take`` into a C-contiguous [K, rows, F] block, which one
    ``np.add.reduce`` sums over its leading axis from -0.0, the one value
    that adds exactly (from 0.0, its default, a -0.0 sum would come back
    +0.0).  NumPy folds a reduction over a leading axis sequentially, one
    [rows, F] slice after another, as a loop of ``out += block[j]`` would;
    its pairwise summation applies only along the innermost axis, which
    the tap axis becomes only when a block holds one element, so that one
    is folded by ``accumulate``.
    """
    n_taps, n_filters = index.shape[0], table.shape[1]
    out = np.empty(index.shape[1:] + (n_filters,), dtype=table.dtype)
    rows = out.size // n_filters
    row_bytes = n_taps * n_filters * table.itemsize
    if rows * row_bytes <= GATHER_WHOLE_BYTES:
        block, parts = rows, [(index, out)]
    else:
        block = max(1, GATHER_BYTES // row_bytes)
        flat, flat_out = index.reshape(n_taps, rows), out.reshape(rows, n_filters)
        parts = [(flat[:, start : start + block], flat_out[start : start + block])
                 for start in range(0, rows, block)]
    buffer = np.empty(n_taps * block * n_filters, dtype=table.dtype)
    for part, part_out in parts:
        gathered = buffer[: part.size * n_filters].reshape(part.shape + (n_filters,))
        table.take(part, axis=0, out=gathered, mode="clip")
        if part_out.size > 1:
            np.add.reduce(gathered, axis=0, out=part_out, initial=-0.0)
        else:
            part_out[...] = np.add.accumulate(gathered, axis=0)[-1]
    return out


@functools.cache
def _scatter_offsets(batch: int, pools: int, n_filters: int, width: int,
                     length: int) -> tuple:
    """For gradients [B, P, F] of records of ``length`` codes: (the flat
    position of each record's first code, [B, 1, 1]; the filter f of each
    gradient, flattened; and the offset 4 W f + 4 j of tap j of its
    filter in a [F, W, 4] array, [W, B * P * F], in the smallest unsigned
    dtype that holds 4 W F - 1).  Built once per shape and read-only,
    since every call with that shape shares them."""
    records = np.arange(0, batch * length, length)[:, None, None]
    filters = np.arange(batch * pools * n_filters) % n_filters
    dtype = np.min_scalar_type(4 * width * n_filters - 1)
    # built in that dtype, with no intp [W, B * P * F] on the way: at
    # [64, 1500] that one is 3.2 MB, and the heap kept its size
    offsets = np.add.outer(np.arange(0, 4 * width, 4, dtype=dtype),
                           (filters * (4 * width)).astype(dtype))
    for array in (records, filters, offsets):
        array.setflags(write=False)
    return records, filters, offsets


def conv1d_scatter(codes: np.ndarray, rows: np.ndarray, grad_rows: np.ndarray,
                   grad_filters: np.ndarray, grad_bias: np.ndarray) -> None:
    """The gradients of the base-code conv, written into ``grad_filters``
    [F, W, 4] and ``grad_bias`` [F], which must be C-contiguous in
    ``grad_rows``'s dtype.  No checks: ``codes`` [B, L] must be the
    convolved base codes (0-3), and ``rows`` [B, P, F] conv rows of them,
    such as the winning rows of the model's own forward.

    Each gradient g at (b, p, f) in ``grad_rows`` [B, P, F], from conv row
    r = rows[b, p, f], adds g to grad_bias[f] and to
    grad_filters[f, j, codes[b, r + j]] for every tap j, in ascending
    (b, p) order, which is ascending (b, r) when pools do not overlap.
    That is the order in which conv1d_backward sums the same nonzero
    terms; the zero ones change no bit of a sum that starts at +0.0 (no
    such sum is ever -0.0).  The flat index of the taps is one ``take`` of
    the rows' codes, from the batch's flat codes viewed as [W, B L - W + 1]
    with row j starting j codes on, plus the offset 4 W f + 4 j, tap by
    tap; only tap j reaches grad_filters[:, j], so each element still gets
    its terms in ascending (b, p) order.
    """
    n_filters, width, _ = grad_filters.shape
    records, filters, offsets = _scatter_offsets(*grad_rows.shape[:2], n_filters, width,
                                                 codes.shape[-1])
    flat = np.ravel(codes)
    windows = np.ndarray((width, flat.size - width + 1), flat.dtype, buffer=flat,
                         strides=(flat.itemsize,) * 2)
    # the position of each gradient's conv row in the batch's flat codes
    starts = rows + records
    # add.at's fast path takes intp indexes
    index = np.add(windows.take(starts.reshape(-1), axis=1), offsets, dtype=np.intp)
    values = np.empty(index.shape, grad_rows.dtype)
    values[...] = grad_rows.reshape(-1)
    grad_filters[...] = 0
    np.add.at(grad_filters.reshape(-1), index.reshape(-1), values.reshape(-1))
    grad_bias[...] = 0
    np.add.at(grad_bias, filters, grad_rows.reshape(-1))


def maxpool1d_forward(x: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel max over pool windows laid out window-first, as
    :func:`conv1d_gather` returns them: ``x`` is [window, ..., P, F],
    x[w, ..., p, f] row w of window p, the input row p * stride + w.
    Returns (pooled [..., P, F], argmax_rows), the input row of each
    winner: ``np.argmax``'s, the first maximum, or the first NaN if the
    window has one.

    Every step is a branch-free whole-array op.  ``top``, the max over
    the leading axis, is NaN exactly where the window holds one, so the
    candidates, x == top or x a NaN, are the maxima, or the NaNs.  The
    first is the leading-axis max of the candidates times the weights
    window, ..., 1.  Each pooled value is gathered from its winner, so it
    has the winner's bits (the sign of a zero, a NaN's payload),
    whichever of two equal values ``np.maximum`` returns.
    """
    x = np.asarray(x)
    if stride < 1:
        raise ValidationError(f"maxpool stride must be >= 1, got {stride}")
    if x.ndim < 3 or x.shape[0] < 1:
        raise ShapeError(
            f"maxpool input must be window-first [window, ..., P, F] with window >= 1, "
            f"got shape {x.shape}"
        )
    window = x.shape[0]
    top = np.maximum.reduce(x, axis=0)
    hit = x == top
    hit |= x != x
    weights = np.arange(window, 0, -1, dtype=np.min_scalar_type(window))
    score = np.multiply(hit, weights.reshape((window,) + (1,) * (x.ndim - 1)),
                        dtype=weights.dtype)
    first = np.subtract(window, np.maximum.reduce(score, axis=0), dtype=np.intp)
    winner = first * top.size
    winner += np.arange(top.size).reshape(top.shape)
    pooled = np.ravel(x).take(winner)
    argmax_rows = first  # the winner's row in its window, made its input row
    argmax_rows += np.arange(0, top.shape[-2] * stride, stride)[:, None]
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
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray, out=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of dense_forward: (grad_weights [D,1], grad_bias [], grad_input).

    The two gradients are written into ``out``, a pair of C-contiguous
    arrays (grad_weights [D, 1], grad_bias []) in grad_out's dtype, which
    is allocated here when it is None, and returned.
    """
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
    if out is None:
        out = (np.empty((x.shape[-1], 1), grad_out.dtype), np.empty((), grad_out.dtype))
    grad_weights, grad_bias = out
    np.einsum("nd,n->d", flat_x, flat_grad, out=grad_weights[:, 0])
    grad_out.sum(dtype=grad_out.dtype, out=grad_bias)
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
