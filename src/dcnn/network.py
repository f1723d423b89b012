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
tests' oracle for both, bit for bit.

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
    codes: np.ndarray  # [B, L] base codes
    argmax_rows: np.ndarray
    flat: np.ndarray
    probs: np.ndarray


def forward(params: ModelParams, batch, config: ModelConfig):
    """(probs in (0,1), cache for backward).  ``batch`` is a pipeline
    Batch, or any object with base codes .codes (uint8 [B, L], A/C/G/T =
    0-3) and .labels; the model runs in the labels' dtype."""
    codes = getattr(batch, "codes", None)
    if (codes is None or codes.dtype != np.uint8 or codes.ndim != 2
            or codes.shape[1] != config.seq_length):
        got = "none" if codes is None else f"{codes.dtype} {codes.shape}"
        raise ShapeError(
            f"batch codes ({got}) do not match the model's expected "
            f"uint8 [B, {config.seq_length}]"
        )
    conv_out = kernels.conv1d_forward_codes(
        codes, params.conv_filters, params.conv_bias, dtype=batch.labels.dtype
    )
    pooled, argmax_rows = kernels.maxpool1d_forward(
        conv_out, config.pool_window, config.pool_stride
    )
    if config.conv_activation == "relu":  # pooled first: see the module docstring
        pooled = kernels.relu(pooled)
    flat = pooled.reshape(pooled.shape[0], -1)
    logits = kernels.dense_forward(flat, params.dense_weights, params.dense_bias)
    probs = kernels.sigmoid(logits)
    cache = ForwardCache(params=params, codes=codes, argmax_rows=argmax_rows,
                         flat=flat, probs=probs)
    return probs, cache


def _clamped(probs: np.ndarray) -> np.ndarray:
    return np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clamped away from
    {0, 1} by 1e-7.  It checks that the labels are 0 or 1, once per
    training step: :func:`backward` takes the same labels unchecked."""
    y = np.asarray(labels)
    if not ((y == 0) | (y == 1)).all():
        raise ValidationError("labels must be 0 or 1")
    p = _clamped(np.asarray(probs))
    per_sample = -(y * np.log(p) + (1 - y) * np.log(1 - p))
    return float(per_sample.mean())


def backward(params: ModelParams, cache: ForwardCache, labels: np.ndarray,
             config: ModelConfig, out=None) -> Gradients:
    """Exact gradients of mean BCE w.r.t. every parameter tensor.

    Sigmoid and BCE are composed analytically, so the logit gradient is
    the numerically stable (p - y) / B with no division by p(1-p).  The
    labels are not checked here: :func:`bce_loss` checks them, and a
    step computes the loss first.

    With ``out`` (Gradients, typically :func:`unflatten_grads` views of
    a flat vector) the gradients are written into its tensors and
    ``out`` is returned; otherwise they come back as new arrays.
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
    dlogit = ((cache.probs - labels) / batch_size).astype(dtype, copy=False)
    grad_dense_w, grad_dense_b, dflat = kernels.dense_backward(
        cache.flat, params.dense_weights, dlogit
    )
    dpooled = dflat.reshape(batch_size, config.pool_out_length, config.n_filters)
    # only the pool winners carry gradient, and ReLU passes it where the
    # pooled value is positive
    if config.conv_activation == "relu":
        dpooled = dpooled * (cache.flat.reshape(dpooled.shape) > 0)
    grad_filters, grad_bias = kernels.conv1d_backward_codes(
        cache.codes, params.conv_filters, cache.argmax_rows, dpooled
    )
    grads = Gradients(
        conv_filters=grad_filters,
        conv_bias=grad_bias,
        dense_weights=grad_dense_w,
        dense_bias=np.asarray(grad_dense_b, dtype=dtype).reshape(()),
    )
    if out is None:
        return grads
    for name in _TENSOR_FIELDS:
        getattr(out, name)[...] = getattr(grads, name)
    return out


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
_ACTIVATION_CODE = {"relu": 0.0, "linear": 1.0}
_ACTIVATION_FROM_CODE = {0: "relu", 1: "linear"}


def _config_meta(config: ModelConfig) -> np.ndarray:
    return np.array(
        [
            config.n_filters,
            config.filter_width,
            config.pool_window,
            config.pool_stride,
            config.seq_length,
            _ACTIVATION_CODE[config.conv_activation],
        ],
        dtype=np.float32,
    )


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
    activation = _ACTIVATION_FROM_CODE.get(int(meta[5]))
    if activation is None:
        raise CheckpointError(f"unknown activation code {meta[5]} in {_META_NAME}")
    try:
        config = ModelConfig(
            n_filters=int(meta[0]),
            filter_width=int(meta[1]),
            pool_window=int(meta[2]),
            pool_stride=int(meta[3]),
            conv_activation=activation,
            seq_length=int(meta[4]),
        )
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
