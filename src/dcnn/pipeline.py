"""From sequence records to training batches.

Base codes (A, C, G, T -> 0-3) and their one-hot encoding, a seeded
stratified split, a streaming buffer shuffle, batch encoding, and
contiguous per-replica sharding.  All randomness flows through PCG64
generators seeded explicitly, so every stage is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_BASE_BYTES = np.frombuffer(b"ACGT", dtype=np.uint8)
_CODE = np.full(256, -1, dtype=np.int8)
for _i, _b in enumerate(b"ACGT"):
    _CODE[_b] = _i


@dataclass(frozen=True)
class SplitSpec:
    """Dataset partition fractions; train and test sizes round down and
    validation takes the remainder."""

    train_fraction: float = 0.70
    test_fraction: float = 0.10
    validation_fraction: float = 0.20
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_fraction, self.test_fraction, self.validation_fraction)
        if any(f < 0 for f in fracs):
            raise ValidationError(f"split fractions must be non-negative, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValidationError(f"split fractions sum to {sum(fracs)!r}, expected 1")


class Batch:
    """Labels [B] of 0/1 with the sequences either as one-hot inputs
    [B, L, 4] or as base codes [B, L] (uint8, A/C/G/T = 0-3).

    ``network.forward`` reads the codes whenever a batch has them.  A batch
    of codes builds its one-hot ``inputs`` only on first access, in the
    labels' dtype; a row slice of it (see :meth:`rows`) reads them as a
    view of its parent's.
    """

    def __init__(self, inputs, labels, codes=None):
        if (inputs is None) == (codes is None):
            raise ValidationError("a batch holds either one-hot inputs or base codes")
        if inputs is not None and (inputs.ndim != 3 or inputs.shape[2] != 4):
            raise ValidationError(
                f"batch inputs must be [B, L, 4], got {inputs.shape}"
            )
        if codes is not None and (codes.ndim != 2 or codes.dtype != np.uint8):
            raise ValidationError(
                f"batch codes must be uint8 [B, L], got {codes.dtype} {codes.shape}"
            )
        rows = (codes if inputs is None else inputs).shape[0]
        if labels.shape != (rows,):
            raise ValidationError(
                f"labels shape {labels.shape} does not match batch of {rows}"
            )
        self._inputs = inputs
        self.labels = labels
        self.codes = codes
        self._parent_rows = None  # (parent batch, row slice) for a lazy view

    @property
    def inputs(self) -> np.ndarray:
        if self._inputs is None:
            if self._parent_rows is not None:
                parent, rows = self._parent_rows
                self._inputs = parent.inputs[rows]
            else:
                self._inputs = np.eye(4, dtype=self.labels.dtype)[self.codes]
        return self._inputs

    def rows(self, start: int, stop: int) -> "Batch":
        """Records ``start:stop`` as a batch of views into this one."""
        rows = slice(start, stop)
        if self.codes is None:
            return Batch(self._inputs[rows], self.labels[rows])
        part = Batch(None, self.labels[rows], self.codes[rows])
        part._parent_rows = (self, rows)
        return part

    def __len__(self) -> int:
        return self.labels.shape[0]

    def validate(self) -> None:
        """Full invariant check (every input row strictly one-hot)."""
        if self.codes is not None:
            if (self.codes > 3).any():
                raise ValidationError("batch codes contain a value outside 0-3")
        else:
            ones = self.inputs == 1
            if not (ones.sum(axis=2) == 1).all() or not ((self.inputs == 0) | ones).all():
                raise ValidationError("batch inputs contain a row that is not one-hot")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValidationError("batch labels must be 0 or 1")


def base_codes(bases: str) -> np.ndarray:
    """[L] uint8 codes with A, C, G, T -> 0, 1, 2, 3: the column of each
    base's 1 in :func:`one_hot`."""
    try:
        raw = bases.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValidationError(
            f"cannot encode base {bases[exc.start]!r} at position {exc.start}"
        ) from exc
    codes = _CODE[np.frombuffer(raw, dtype=np.uint8)]
    bad = np.nonzero(codes < 0)[0]
    if bad.size:
        pos = int(bad[0])
        raise ValidationError(f"cannot encode base {bases[pos]!r} at position {pos}")
    return codes.view(np.uint8)


def one_hot(bases: str, dtype=np.float32) -> np.ndarray:
    """[L, 4] encoding with column order A, C, G, T ('A' -> [1,0,0,0])."""
    return np.eye(4, dtype=dtype)[base_codes(bases)]


def decode(encoded: np.ndarray) -> str:
    """Inverse of :func:`one_hot`; rejects rows that are not one-hot."""
    if encoded.ndim != 2 or encoded.shape[1] != 4:
        raise ValidationError(f"expected [L, 4] input, got shape {encoded.shape}")
    ones = encoded == 1
    if not ((ones.sum(axis=1) == 1) & (((encoded == 0) | ones).all(axis=1))).all():
        raise ValidationError("input contains a row that is not one-hot")
    idx = np.argmax(ones, axis=1)
    return _BASE_BYTES[idx].tobytes().decode("ascii")


def split(records, spec: SplitSpec):
    """(train, test, validation) partition, stratified by label.

    Records are permuted once with the split seed; the permuted stream is
    then dealt out per label class, filling the train quota first, then
    test, with the remainder going to validation.  Quotas use floor per
    class so each split keeps the class balance within one record.
    """
    if not records:
        return [], [], []
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    perm = rng.permutation(len(records))

    counts = {}
    for rec in records:
        counts[rec.label] = counts.get(rec.label, 0) + 1
    remaining = {}
    for label, n in counts.items():
        n_train = math.floor(spec.train_fraction * n + 1e-9)
        n_test = math.floor(spec.test_fraction * n + 1e-9)
        remaining[label] = [n_train, n_test, n - n_train - n_test]

    train, test, validation = [], [], []
    parts = (train, test, validation)
    for i in perm:
        rec = records[i]
        rem = remaining[rec.label]
        for k in range(3):
            if rem[k] > 0:
                rem[k] -= 1
                parts[k].append(rec)
                break
    return train, test, validation


def shuffled_stream(records, shuffle_buffer_size: int, seed: int):
    """Streaming buffer shuffle: keep a buffer of the given size, emit a
    uniformly chosen element for each new arrival, then drain uniformly.
    Every record is emitted exactly once; buffer size 1 degenerates to
    the original order; a buffer covering the whole input is a full
    uniform shuffle.
    """
    if shuffle_buffer_size < 1:
        raise ValidationError(
            f"shuffle_buffer_size must be >= 1, got {shuffle_buffer_size}"
        )
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


def encode_batch(records, dtype=np.float32) -> Batch:
    """Stack the base codes of the given records into a Batch; its labels
    (and one-hot inputs, if read) are in ``dtype``."""
    if not records:
        raise ValidationError("cannot encode an empty batch")
    codes = np.stack([base_codes(rec.bases) for rec in records])
    labels = np.asarray([rec.label for rec in records], dtype=dtype)
    return Batch(None, labels, codes)


def shard(batch: Batch, n_replicas: int):
    """Contiguous equal microbatches, one per replica, in rank order."""
    if n_replicas < 1:
        raise ValidationError(f"n_replicas must be >= 1, got {n_replicas}")
    size = len(batch)
    if size % n_replicas:
        raise ValidationError(
            f"global batch size {size} must be divisible by the number of "
            f"replicas ({n_replicas})"
        )
    if n_replicas == 1:
        return [batch]
    per = size // n_replicas
    return [batch.rows(r * per, (r + 1) * per) for r in range(n_replicas)]
