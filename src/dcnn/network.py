"""The motif-detection CNN: parameters, forward/backward, loss, Adam,
flat vectors for the aggregation strategies, and checkpoints.

Architecture, per sample: conv1d (valid) -> activation -> maxpool ->
flatten -> dense(1) -> sigmoid.  The loss is mean binary cross-entropy;
backward fuses sigmoid and BCE so the logit gradient is just
(p - y) / B.

The model reads a batch's base codes, never a one-hot array: the
forward takes the base-code convolution, and the backward sends the
gradient of each max-pool winner straight to the filter taps of its
k-mer.  A dense one-hot model built from the dense kernels is the
tests' oracle for both, bit for bit.  What does not depend on the
parameters is done once per batch, ahead of its step, by :func:`plan`:
the checks of its codes and labels and the conv's gather index.  The
forward and backward then do parameter work only; the backward reads
each winner's taps from the plan's codes.

The forward max-pools the raw conv output and applies ReLU to the
pooled [B, P, F] only, which gives the bits of ReLU-then-pool with
T/P times less ReLU work.  ReLU is monotone and never returns -0.0, so
relu(max(x)) equals the max of relu(x), NaN included (both pools pick
the window's first NaN).  The winning rows differ only in windows
whose maximum is <= 0; there ReLU's derivative is 0, the backward's
``flat > 0`` mask zeroes the gradient, and the conv backward skips
zero gradients, so the gradients are unchanged too.  The one exception
is a non-finite logit gradient: NaN * 0 survives the mask, so the NaN
lands on the taps of other rows, and Adam rejects the step either way.

Adam runs with the usual constants (Kingma & Ba 2015): beta1 0.9,
beta2 0.999 and eps 1e-8.  Only its step size ``alpha`` is set, from
the run's learning rate.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    CheckpointError,
    InternalConsistencyError,
    ShapeError,
    TrainingDivergedError,
    ValidationError,
    require_at_least,
)
from .pipeline import Plan

PROB_CLAMP = 1e-7

CHECKPOINT_MAGIC = b"DCNN"
CHECKPOINT_VERSION = 1

_ACTIVATIONS = ("relu", "linear")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    n_filters: int = 15
    filter_width: int = 10
    pool_window: int = 35
    pool_stride: int = 35
    conv_activation: str = "relu"
    seq_length: int = 1500

    def __post_init__(self):
        require_at_least(1, self, "n_filters", "filter_width", "pool_window", "pool_stride")
        if self.conv_activation not in _ACTIVATIONS:
            raise ValidationError(
                f"conv_activation must be one of {_ACTIVATIONS}, "
                f"got {self.conv_activation!r}"
            )
        if self.seq_length < self.filter_width:
            raise ValidationError(
                f"seq_length {self.seq_length} is shorter than filter_width "
                f"{self.filter_width}"
            )
        if self.conv_out_length < self.pool_window:
            raise ValidationError(
                f"conv output length {self.conv_out_length} is shorter than "
                f"pool_window {self.pool_window}"
            )

    @property
    def conv_out_length(self) -> int:
        return self.seq_length - self.filter_width + 1

    @property
    def pool_out_length(self) -> int:
        return (self.conv_out_length - self.pool_window) // self.pool_stride + 1

    @property
    def read_length(self) -> int:
        """The leading bases of a record that reach the output: the conv
        rows the max-pool reads, (P - 1) * stride + window, plus the
        filter's W - 1 further bases."""
        return ((self.pool_out_length - 1) * self.pool_stride + self.pool_window
                + self.filter_width - 1)

    @property
    def flat_dim(self) -> int:
        return self.pool_out_length * self.n_filters

    @property
    def param_count(self) -> int:
        return sum(math.prod(shape) for shape in _tensor_shapes(self).values())


@dataclass
class ModelParams:
    conv_filters: np.ndarray  # [F, W, 4]
    conv_bias: np.ndarray  # [F]
    dense_weights: np.ndarray  # [D, 1]
    dense_bias: np.ndarray  # scalar (rank 0)


@dataclass
class Gradients:
    conv_filters: np.ndarray
    conv_bias: np.ndarray
    dense_weights: np.ndarray
    dense_bias: np.ndarray


_TENSOR_FIELDS = ("conv_filters", "conv_bias", "dense_weights", "dense_bias")


def _tensor_shapes(config: ModelConfig) -> dict:
    """The shape of each parameter tensor, in the canonical flat order."""
    return {
        "conv_filters": (config.n_filters, config.filter_width, 4),
        "conv_bias": (config.n_filters,),
        "dense_weights": (config.flat_dim, 1),
        "dense_bias": (),
    }


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    alpha: float = 1e-3


def fresh_adam_state(config: ModelConfig, dtype=np.float32, alpha=1e-3) -> AdamState:
    n = config.param_count
    return AdamState(m=np.zeros(n, dtype=dtype), v=np.zeros(n, dtype=dtype), alpha=alpha)


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.Generator(np.random.PCG64(seed))
    shapes = _tensor_shapes(config)
    conv_fan_in = config.filter_width * 4
    conv_fan_out = config.filter_width * config.n_filters
    conv_bound = np.sqrt(6.0 / (conv_fan_in + conv_fan_out))
    dense_bound = np.sqrt(6.0 / (config.flat_dim + 1))
    return ModelParams(
        conv_filters=rng.uniform(
            -conv_bound, conv_bound, size=shapes["conv_filters"]
        ).astype(dtype),
        conv_bias=np.zeros(shapes["conv_bias"], dtype=dtype),
        dense_weights=rng.uniform(
            -dense_bound, dense_bound, size=shapes["dense_weights"]
        ).astype(dtype),
        dense_bias=np.zeros(shapes["dense_bias"], dtype=dtype),
    )


@dataclass
class ForwardCache:
    params: ModelParams
    plan: Plan  # the batch as forward ran it
    argmax_rows: np.ndarray
    flat: np.ndarray
    probs: np.ndarray


def _codes_mismatch(got: str, config: ModelConfig) -> ShapeError:
    return ShapeError(
        f"batch codes ({got}) do not match the model's expected "
        f"uint8 [B, {config.seq_length}]"
    )


def plan_nbytes(config: ModelConfig, records: int) -> int:
    """Bytes of the gather index of a :func:`plan` of one batch of
    ``records`` records, at its default prefix length."""
    rows = records * (config.read_length - config.filter_width + 1)
    width = config.filter_width
    k = kernels.prefix_length(rows, width)
    return rows * (1 + width - k) * kernels.conv1d_index_dtype(width, k).itemsize


def plan(codes: np.ndarray, labels: np.ndarray, config: ModelConfig,
         k: int | None = None) -> list:
    """One :class:`~dcnn.pipeline.Plan` for each of S batches, from their
    codes (uint8 [S, B, L], A/C/G/T = 0-3) and labels [S, B], built in one
    vectorized pass that holds all the work of a step that does not
    depend on the parameters.

    It checks every code, the unread tail included, and every label
    once, here: a code above 3 or a label other than 0 or 1 raises
    ValidationError.  Then it builds the conv's gather index at prefix
    length ``k``, which must lie in 1 ... W (default:
    ``kernels.prefix_length`` of one batch's conv rows).  Only each
    record's first ``config.read_length`` bases are indexed: the conv
    rows past them are in no max-pool window, so they cannot reach the
    output.  The same plan serves training, validation and scoring.
    """
    if codes.dtype != np.uint8 or codes.ndim != 3 or codes.shape[2] != config.seq_length:
        raise _codes_mismatch(f"{codes.dtype} {codes.shape[1:]}", config)
    if labels.shape != codes.shape[:2]:
        raise ShapeError(f"labels shape {labels.shape} does not match codes {codes.shape}")
    code_max = codes.max(initial=0)
    if code_max > 3:
        raise ValidationError(f"batch codes must be 0-3, got {int(code_max)}")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValidationError("labels must be 0 or 1")
    width, read = config.filter_width, config.read_length
    if k is None:
        k = kernels.prefix_length(codes.shape[1] * (read - width + 1), width)
    elif not 1 <= k <= width:
        raise ValidationError(f"conv prefix length k must be in 1 ... {width}, got {k}")
    index = kernels.conv1d_index(codes[..., :read], width, k).swapaxes(0, 1)  # [S, K, B, T]
    return [Plan(*step, k) for step in zip(codes, labels, index)]


def forward(params: ModelParams, batch, config: ModelConfig):
    """(probs in (0,1), cache for backward).  ``batch`` is a
    :class:`~dcnn.pipeline.Plan`, or any object with base codes .codes
    (uint8 [B, L], A/C/G/T = 0-3) and .labels, which is planned here
    (:func:`plan`); the model runs in the labels' dtype.

    The conv gathers every tap of every row through the plan's index in
    one ``take`` and folds the taps with one ``np.add.reduce``
    (``kernels.conv1d_gather``), into the plan's table or one built here
    from ``params``.
    """
    if not isinstance(batch, Plan):
        codes = getattr(batch, "codes", None)
        if codes is None or codes.ndim != 2:
            got = "none" if codes is None else f"{codes.dtype} {codes.shape}"
            raise _codes_mismatch(got, config)
        (batch,) = plan(codes[None], np.asarray(batch.labels)[None], config)
    table = batch.table
    if table is None:
        table = kernels.conv1d_table(params.conv_filters, params.conv_bias, batch.k,
                                     dtype=batch.labels.dtype)
    conv_out = kernels.conv1d_gather(table, batch.index)
    pooled, argmax_rows = kernels.maxpool1d_forward(
        conv_out, config.pool_window, config.pool_stride
    )
    if config.conv_activation == "relu":  # pooled first: see the module docstring
        pooled = kernels.relu(pooled)
    flat = pooled.reshape(pooled.shape[0], -1)
    logits = kernels.dense_forward(flat, params.dense_weights, params.dense_bias)
    probs = kernels.sigmoid(logits)
    cache = ForwardCache(params=params, plan=batch, argmax_rows=argmax_rows,
                         flat=flat, probs=probs)
    return probs, cache


def bce_loss(probs: np.ndarray, labels: np.ndarray, checked: bool = False) -> float:
    """Mean binary cross-entropy with probabilities clamped away from
    {0, 1} by 1e-7.  It checks that the labels are 0 or 1, unless
    ``checked`` says that they were checked already, as a :func:`plan`'s
    are: a training step's labels are checked once, when its plan is
    built.

    The clamp is ``np.maximum`` then ``np.minimum``, as ``np.clip``
    runs it, and the mean is one ``np.add.reduce`` divided by the count.
    ``ndarray.mean`` sums the same way; it divides a float32 sum in
    float64 and rounds back, which gives the same correctly rounded
    quotient (53 >= 2 * 24 + 2 bits).
    """
    y = np.asarray(labels)
    if not checked and not ((y == 0) | (y == 1)).all():
        raise ValidationError("labels must be 0 or 1")
    p = np.minimum(np.maximum(probs, PROB_CLAMP), 1.0 - PROB_CLAMP)
    per_sample = -(y * np.log(p) + (1 - y) * np.log(1 - p))
    return float(np.add.reduce(per_sample, axis=None) / per_sample.size)


def backward(params: ModelParams, cache: ForwardCache, labels: np.ndarray,
             config: ModelConfig, out=None) -> Gradients:
    """Exact gradients of mean BCE w.r.t. every parameter tensor.

    Sigmoid and BCE are composed analytically, so the logit gradient is
    the numerically stable (p - y) / B with no division by p(1-p).  The
    labels are not checked here: the plan the forward ran checked them.
    The conv's gradients go only to the taps of each max-pool winner's
    row, which ``kernels.conv1d_scatter`` reads from the plan's codes.

    With ``out`` (Gradients, typically :func:`unflatten_grads` views of
    a flat vector) the gradients are written straight into its tensors,
    which must be C-contiguous in the run's dtype, and ``out`` is
    returned; otherwise they come back as new arrays, the conv filters'
    in the filters' dtype.
    """
    if cache.params is not params:
        raise InternalConsistencyError(
            "backward called with a cache produced by different params"
        )
    batch_size = cache.probs.shape[0]
    if np.shape(labels) != (batch_size,):
        raise ShapeError(
            f"labels shape {np.shape(labels)} does not match batch of {batch_size}"
        )
    dtype = cache.flat.dtype
    shapes = _tensor_shapes(config)
    if out is None:
        grads = Gradients(**{name: np.empty(shape, dtype) for name, shape in shapes.items()})
    else:
        grads = out
        for name, shape in shapes.items():
            tensor = getattr(out, name)
            if tensor.shape != shape or tensor.dtype != dtype or not tensor.flags.c_contiguous:
                raise ShapeError(
                    f"out.{name} must be C-contiguous {dtype} {shape}, got "
                    f"{tensor.dtype} {tensor.shape}"
                )
    dlogit = ((cache.probs - labels) / batch_size).astype(dtype, copy=False)
    _, _, dflat = kernels.dense_backward(
        cache.flat, params.dense_weights, dlogit, out=(grads.dense_weights, grads.dense_bias)
    )
    dpooled = dflat.reshape(batch_size, config.pool_out_length, config.n_filters)
    # only the pool winners carry gradient, and ReLU passes it where the
    # pooled value is positive
    if config.conv_activation == "relu":
        dpooled = dpooled * (cache.flat.reshape(dpooled.shape) > 0)
    kernels.conv1d_scatter(cache.plan.codes, cache.argmax_rows, dpooled,
                           grads.conv_filters, grads.conv_bias)
    if out is None:
        grads.conv_filters = grads.conv_filters.astype(params.conv_filters.dtype, copy=False)
    return grads


# ---------------------------------------------------------------------------
# Flat vectors (canonical order: conv_filters, conv_bias, dense_weights,
# dense_bias — row-major within each tensor).  Flattening copies;
# unflattening returns views, so writing to the vector updates the tensors.


def _flatten(obj) -> np.ndarray:
    parts = [np.asarray(getattr(obj, name)).reshape(-1) for name in _TENSOR_FIELDS]
    return np.concatenate(parts)


def _unflatten(vec: np.ndarray, config: ModelConfig, cls):
    vec = np.asarray(vec)
    if vec.ndim != 1 or vec.shape[0] != config.param_count:
        raise ShapeError(
            f"flat vector length {vec.shape} does not match parameter count "
            f"{config.param_count}"
        )
    out = {}
    offset = 0
    for name, shape in _tensor_shapes(config).items():
        size = math.prod(shape)
        out[name] = vec[offset : offset + size].reshape(shape)
        offset += size
    return cls(**out)


def flatten_grads(grads: Gradients) -> np.ndarray:
    return _flatten(grads)


def unflatten_grads(vec: np.ndarray, config: ModelConfig) -> Gradients:
    return _unflatten(vec, config, Gradients)


def flatten_params(params: ModelParams) -> np.ndarray:
    return _flatten(params)


def unflatten_params(vec: np.ndarray, config: ModelConfig) -> ModelParams:
    return _unflatten(vec, config, ModelParams)


def adam_step(theta: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One Adam update of the flat parameter vector ``theta`` from the
    flat gradient ``grads``, in place: ``theta``, ``state.m`` and
    ``state.v`` are overwritten and ``state.t`` increments first.

    Bias-corrected step theta <- theta - alpha * m_hat / (sqrt(v_hat) + eps),
    each elementwise operation in the order of that formula, so the
    result equals the out-of-place form bit for bit.  A non-finite
    gradient, or a ``v_hat`` that overflows the dtype, raises
    TrainingDivergedError before ``theta`` is written.
    """
    g = np.asarray(grads).astype(theta.dtype, copy=False)
    if g.shape != theta.shape:
        raise ShapeError(
            f"gradient shape {g.shape} does not match parameter shape {theta.shape}"
        )
    if not np.isfinite(g).all():
        raise TrainingDivergedError("non-finite gradient in optimizer step")
    state.t += 1
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    denom = v / (1.0 - ADAM_BETA2**state.t)
    if not np.isfinite(denom).all():  # else every update would be 0 from here on
        raise TrainingDivergedError("second moment overflowed in optimizer step")
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update = state.alpha * (m / (1.0 - ADAM_BETA1**state.t))
    update /= denom
    theta -= update


# ---------------------------------------------------------------------------
# Checkpoints: magic "DCNN", u32 LE version, then per tensor
#   u16 name length, UTF-8 name, u8 rank, u32 dims, raw little-endian f32.

_META_NAME = "model_config"
#: The fields of the model_config tensor, in order; each is an integer
#: stored as float32, the activation as its index in _ACTIVATIONS.
_META_FIELDS = ("n_filters", "filter_width", "pool_window", "pool_stride", "seq_length",
                "conv_activation")


def _config_meta(config: ModelConfig) -> np.ndarray:
    values = [getattr(config, name) for name in _META_FIELDS[:-1]]
    return np.array(values + [_ACTIVATIONS.index(config.conv_activation)],
                    dtype=np.float32)


def save_checkpoint(params: ModelParams, config: ModelConfig, path) -> None:
    """Versioned binary dump of the parameters plus the architecture
    needed to interpret them; tensors are stored as 32-bit floats.

    A tensor of any other dtype (an f64 run's) is stored rounded to
    float32, which loses precision, so it warns (UserWarning) naming
    the tensors and their dtype.
    """
    tensors = [(_META_NAME, _config_meta(config))]
    tensors += [(name, np.asarray(getattr(params, name))) for name in _TENSOR_FIELDS]
    rounded = [f"{name} ({tensor.dtype})" for name, tensor in tensors
               if tensor.dtype != np.float32]
    if rounded:
        warnings.warn(
            f"checkpoint {path} stores {', '.join(rounded)} rounded to float32",
            UserWarning, stacklevel=2,
        )
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name, tensor in tensors:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def load_checkpoint(path):
    """Inverse of save_checkpoint: (ModelParams, ModelConfig).

    The strict structural checks mean silently corrupted files surface
    as CheckpointError naming the offending field, never as garbage
    parameters.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def take(n, what):
        nonlocal offset
        if offset + n > len(blob):
            raise CheckpointError(f"truncated checkpoint: unexpected end in {what}")
        piece = blob[offset : offset + n]
        offset += n
        return piece

    offset = 0
    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic bytes)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    tensors = {}
    while offset < len(blob):
        (name_len,) = struct.unpack("<H", take(2, "tensor name length"))
        try:
            name = take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"tensor name at byte {offset - name_len} is not UTF-8") from None
        (rank,) = struct.unpack("<B", take(1, f"rank of {name}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dims of {name}"))
        count = 1
        for d in dims:
            count *= d
        data = np.frombuffer(take(4 * count, f"data of {name}"), dtype="<f4")
        tensors[name] = data.reshape(dims).astype(np.float32)

    if _META_NAME not in tensors:
        raise CheckpointError(f"checkpoint is missing the {_META_NAME} tensor")
    meta = tensors[_META_NAME]
    if meta.shape != (6,):
        raise CheckpointError(f"{_META_NAME} tensor has shape {meta.shape}, expected (6,)")
    values = {}
    for name, value in zip(_META_FIELDS, meta.tolist()):
        if not value.is_integer():  # NaN and inf are not either
            raise CheckpointError(f"{_META_NAME} field {name} is {value}, not an integer")
        values[name] = int(value)
    code = values["conv_activation"]
    if code not in range(len(_ACTIVATIONS)):
        raise CheckpointError(f"{_META_NAME} field conv_activation is {code}, "
                              f"an unknown activation code")
    values["conv_activation"] = _ACTIVATIONS[code]
    try:
        config = ModelConfig(**values)
    except ValidationError as exc:
        raise CheckpointError(f"invalid {_META_NAME}: {exc}") from exc

    fields = {}
    for name, shape in _tensor_shapes(config).items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor {name}")
        if tensors[name].shape != shape:
            raise CheckpointError(
                f"tensor {name} has shape {tensors[name].shape}, expected {shape}"
            )
        fields[name] = tensors[name]
    return ModelParams(**fields), config
