"""From sequence records to training batches.

Base codes (A, C, G, T -> 0-3), a seeded stratified split, a
buffer shuffle, batch encoding, and contiguous per-replica sharding.  A
batch holds base codes only: the model never reads a one-hot array, and
:func:`one_hot` stays as a small helper for callers who want one.  All
randomness flows through PCG64 generators seeded explicitly, so every
stage is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_at_least

#: Base code of each byte: A, C, G, T -> 0-3, and _NOT_A_BASE for any other.
_NOT_A_BASE = 255
_CODE = np.full(256, _NOT_A_BASE, dtype=np.uint8)
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
        require_at_least(0, self, "seed")
        fracs = (self.train_fraction, self.test_fraction, self.validation_fraction)
        if any(f < 0 for f in fracs):
            raise ValidationError(f"split fractions must be non-negative, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValidationError(f"split fractions sum to {sum(fracs)!r}, expected 1")


class Batch:
    """Base codes [B, L] (uint8, A/C/G/T = 0-3) with labels [B] of 0/1 in
    the run's dtype, which is the dtype ``network.forward`` computes in."""

    def __init__(self, codes, labels):
        if codes.ndim != 2 or codes.dtype != np.uint8:
            raise ValidationError(
                f"batch codes must be uint8 [B, L], got {codes.dtype} {codes.shape}"
            )
        if labels.shape != (codes.shape[0],):
            raise ValidationError(
                f"labels shape {labels.shape} does not match batch of {codes.shape[0]}"
            )
        self.codes = codes
        self.labels = labels

    def rows(self, start: int, stop: int) -> "Batch":
        """Records ``start:stop`` as a batch of views into this one."""
        return Batch(self.codes[start:stop], self.labels[start:stop])

    def __len__(self) -> int:
        return self.labels.shape[0]


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
    bad = np.flatnonzero(codes == _NOT_A_BASE)
    if bad.size:
        pos = int(bad[0])
        raise ValidationError(f"cannot encode base {bases[pos]!r} at position {pos}")
    return codes


def one_hot(bases: str, dtype=np.float32) -> np.ndarray:
    """[L, 4] encoding with column order A, C, G, T ('A' -> [1,0,0,0])."""
    return np.eye(4, dtype=dtype)[base_codes(bases)]


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
    """The order a buffered shuffle of the given size gives: keep a buffer
    of that size, emit a uniformly chosen element for each new arrival,
    then drain uniformly.  Every record is emitted exactly once; buffer
    size 1 degenerates to the original order; a buffer covering the
    whole input is a full uniform shuffle.

    The input is not streamed: it is read whole at the first item, so
    memory grows with the input, not with the buffer.  All n draws come
    from one ``rng.integers(0, bounds)`` call: with size = min(buffer, n),
    the bounds are size for each of the n - size arrivals, then size,
    size - 1, ..., 1 for the drain.  NumPy draws an array of bounds one
    bound at a time, as n scalar calls would (a bound of 1 draws
    nothing), so the stream is the one the draw-per-record loop yields
    (``tests/oracles.loop_shuffled_stream``).
    """
    if shuffle_buffer_size < 1:
        raise ValidationError(
            f"shuffle_buffer_size must be >= 1, got {shuffle_buffer_size}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    records = list(records)
    n = len(records)
    size = min(shuffle_buffer_size, n)
    bounds = np.full(n, size, dtype=np.int64)
    bounds[n - size :] = np.arange(size, 0, -1)
    draws = rng.integers(0, bounds).tolist()
    buffer = records[:size]
    for j, rec in zip(draws, records[size:]):
        out = buffer[j]
        buffer[j] = rec
        yield out
    for j in draws[n - size :]:
        buffer[j], buffer[-1] = buffer[-1], buffer[j]
        yield buffer.pop()


def encode_batch(records, dtype=np.float32) -> Batch:
    """The base codes of the given records, which must share one length,
    as a Batch whose codes own their data; its labels are in ``dtype``.

    Every record's bases go through the code table in one pass over
    their concatenation.  A base outside ACGT raises the error that
    :func:`base_codes` raises for its record, before any length check.
    """
    if not records:
        raise ValidationError("cannot encode an empty batch")
    lengths = [len(rec.bases) for rec in records]
    joined = "".join(rec.bases for rec in records)
    if joined.isascii() and lengths.count(lengths[0]) == len(lengths):
        # one lookup, which makes the [B, L] array itself, not a view
        codes = _CODE[np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
                      .reshape(len(records), lengths[0])]
        if not (codes == _NOT_A_BASE).any():
            return Batch(codes, np.asarray([rec.label for rec in records], dtype=dtype))
    for rec in records:  # name the first base outside ACGT, in its record
        base_codes(rec.bases)
    i = next(i for i, n in enumerate(lengths) if n != lengths[0])
    raise ValidationError(
        f"record {i} ({records[i].id}) has {lengths[i]} bases, but record 0 has "
        f"{lengths[0]}: a batch needs records of one length"
    )


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
