"""Synthetic DNA sequence generation with embedded motif clusters.

Every sequence starts as a uniform i.i.d. background (each of A, C, G,
T with probability 1/4).  Positive sequences carry a homotypic cluster of
motif instances sampled from a position weight matrix (PWM) and placed,
non-overlapping, inside the central region of the sequence.  Negative
sequences are pure background, resampled until they are free of the
exact motif consensus.  Everything is driven by a single PCG64 generator
so a (config, pwm, seed) triple maps to one byte-identical dataset.

The FASTA and PWM readers take ASCII; any other byte raises ParseError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (GenerationError, ParseError, PlacementError, ValidationError,
                     require_at_least)

ALPHABET = "ACGT"
_BASE_BYTES = np.frombuffer(b"ACGT", dtype=np.uint8)
_BASE_INDEX = {b: i for i, b in enumerate(ALPHABET)}

#: Homotypic cluster motif used by default: a TAL1-like E-box core
#: (CAGATG) with fixed flanking bases.
TAL1_CONSENSUS = "AACAGATGGT"
#: The default PWM's probability of the consensus base at each position.
TAL1_CONSENSUS_PROB = 0.85

_UNIFORM_BACKGROUND = (0.25, 0.25, 0.25, 0.25)

#: Rejection draws that ``embed_cluster`` makes before giving up.
_PLACEMENT_ATTEMPTS = 1000

# the id excludes U+FFFD, which a byte outside ASCII decodes to
_FASTA_HEADER = re.compile(r"^>([^\s\ufffd]+) label=([01]) motifs=(none|\d+(?:,\d+)*)$")
_NON_ACGT = re.compile(r"[^ACGT]")

_ROW_TOL = 1e-6


@dataclass(frozen=True)
class Pwm:
    """Position weight matrix over the ACGT alphabet.

    ``matrix`` has shape [rows, 4]; row r gives the sampling
    probabilities of A, C, G, T at offset r within the motif.
    """

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != 4:
            raise ValidationError(
                f"PWM matrix must have shape [rows, 4], got {mat.shape}"
            )
        if mat.shape[0] < 1:
            raise ValidationError("PWM must have at least one row")
        if np.any(mat < 0.0) or np.any(mat > 1.0):
            raise ValidationError("PWM entries must lie in [0, 1]")
        sums = mat.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > _ROW_TOL)[0]
        if bad.size:
            raise ValidationError(
                f"PWM row {bad[0]} sums to {sums[bad[0]]:.8f}, expected 1"
            )
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValidationError("PWM name must be non-empty without whitespace")
        object.__setattr__(self, "matrix", mat)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def consensus(self) -> str:
        """Most probable base per row (ties go to the earlier base in ACGT)."""
        return "".join(ALPHABET[i] for i in np.argmax(self.matrix, axis=1))


def default_tal1_pwm() -> Pwm:
    """PWM whose consensus is AACAGATGGT, with TAL1_CONSENSUS_PROB on the
    consensus base of each row and the remainder split evenly."""
    off = (1.0 - TAL1_CONSENSUS_PROB) / 3.0
    mat = np.full((len(TAL1_CONSENSUS), 4), off, dtype=np.float64)
    for r, base in enumerate(TAL1_CONSENSUS):
        mat[r, _BASE_INDEX[base]] = TAL1_CONSENSUS_PROB
    return Pwm("TAL1_default", mat)


@dataclass
class SimConfig:
    """Knobs for one synthetic dataset."""

    seq_length: int = 1500
    n_positive: int = 10000
    n_negative: int = 10000
    cluster_min: int = 2
    cluster_max: int = 5
    cluster_region_fraction: float = 0.6
    seed: int = 0

    def validate(self, pwm: Pwm) -> None:
        require_at_least(0, self, "n_positive", "n_negative", "seed")
        if self.seq_length < pwm.rows:
            raise ValidationError(
                f"seq_length {self.seq_length} is shorter than the motif "
                f"({pwm.rows} bases)"
            )
        if not (1 <= self.cluster_min <= self.cluster_max):
            raise ValidationError(
                f"need 1 <= cluster_min <= cluster_max, got "
                f"[{self.cluster_min}, {self.cluster_max}]"
            )
        if not (0.0 < self.cluster_region_fraction <= 1.0):
            raise ValidationError(
                "cluster_region_fraction must lie in (0, 1]"
            )
        lo, hi = central_region(self.seq_length, self.cluster_region_fraction)
        if self.cluster_max * pwm.rows > hi - lo:
            raise ValidationError(
                f"{self.cluster_max} motif instances of {pwm.rows} bases cannot "
                f"fit in a central region of {hi - lo} bases"
            )


@dataclass
class SequenceRecord:
    """One simulated sequence plus its generation ground truth.

    ``motif_positions`` holds the ascending 0-based start offsets of the
    embedded motif instances; it is empty exactly when ``label`` is 0.
    """

    id: str
    bases: str
    label: int
    motif_positions: list = field(default_factory=list)

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValidationError(f"label must be 0 or 1, got {self.label}")
        if (self.label == 1) != bool(self.motif_positions):
            raise ValidationError(
                f"record {self.id}: label {self.label} inconsistent with "
                f"{len(self.motif_positions)} motif positions"
            )


def central_region(seq_length: int, fraction: float) -> tuple:
    """[lo, hi) span of the centered window covering ``fraction`` of the
    sequence (width rounded down, remainder split evenly)."""
    width = int(fraction * seq_length)
    lo = (seq_length - width) // 2
    return lo, lo + width


def sample_background(length: int, freqs, rng: np.random.Generator) -> str:
    """i.i.d. background sequence of the given length."""
    freqs = np.asarray(freqs, dtype=np.float64)
    if length == 0:
        return ""
    cum = np.cumsum(freqs)
    cum[-1] = 1.0  # absorb rounding so every draw lands in a bin
    idx = np.searchsorted(cum, rng.random(length), side="right")
    return _BASE_BYTES[idx].tobytes().decode("ascii")


def sample_motif_instance(pwm: Pwm, rng: np.random.Generator) -> str:
    """One motif realisation, each row sampled from its PWM distribution."""
    cum = np.cumsum(pwm.matrix, axis=1)
    cum[:, -1] = 1.0
    u = rng.random(pwm.rows)
    idx = (u[:, None] >= cum).sum(axis=1)
    return _BASE_BYTES[idx].tobytes().decode("ascii")


def embed_cluster(
    background: str,
    pwm: Pwm,
    count: int,
    region: tuple,
    rng: np.random.Generator,
) -> tuple:
    """Overwrite ``count`` motif instances at uniform non-overlapping
    starts inside ``region`` = [lo, hi).

    Starts are drawn independently and the draw is rejected until no two
    instances overlap, which leaves the accepted configuration uniform
    over all admissible ones.  Returns (sequence, ascending starts).
    """
    lo, hi = region
    if not (0 <= lo <= hi <= len(background)):
        raise ValidationError(
            f"region [{lo}, {hi}) does not fit a sequence of {len(background)}"
        )
    if count == 0:
        return background, []
    if count * pwm.rows > hi - lo:
        raise PlacementError(
            f"{count} instances of {pwm.rows} bases cannot fit in "
            f"[{lo}, {hi})"
        )
    high = hi - pwm.rows + 1
    starts = None
    for _ in range(_PLACEMENT_ATTEMPTS):
        cand = np.sort(rng.integers(lo, high, size=count))
        if count == 1 or np.all(np.diff(cand) >= pwm.rows):
            starts = [int(s) for s in cand]
            break
    if starts is None:
        raise PlacementError(
            f"no non-overlapping placement of {count} motif instances found "
            f"in [{lo}, {hi}) after {_PLACEMENT_ATTEMPTS} attempts"
        )
    seq = bytearray(background, "ascii")
    for s in starts:
        seq[s : s + pwm.rows] = sample_motif_instance(pwm, rng).encode("ascii")
    return seq.decode("ascii"), starts


def generate_dataset(config: SimConfig, pwm: Pwm = None) -> list:
    """All positives first (label 1), then all negatives (label 0).

    Negatives are resampled (up to 100 times each) until they contain no
    exact occurrence of the PWM consensus, so the background never
    spells out a perfect motif by accident.
    """
    if pwm is None:
        pwm = default_tal1_pwm()
    config.validate(pwm)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    region = central_region(config.seq_length, config.cluster_region_fraction)
    width = max(5, len(str(max(config.n_positive + config.n_negative - 1, 0))))

    records = []
    for i in range(config.n_positive):
        background = sample_background(config.seq_length, _UNIFORM_BACKGROUND, rng)
        count = int(rng.integers(config.cluster_min, config.cluster_max + 1))
        bases, starts = embed_cluster(background, pwm, count, region, rng)
        records.append(SequenceRecord(f"seq_{i:0{width}d}", bases, 1, starts))

    consensus = pwm.consensus
    for k in range(config.n_negative):
        bases = None
        for _ in range(100):
            cand = sample_background(config.seq_length, _UNIFORM_BACKGROUND, rng)
            if consensus not in cand:
                bases = cand
                break
        if bases is None:
            raise GenerationError(
                f"negative {k} still contained the consensus {consensus!r} "
                f"after 100 resamples"
            )
        records.append(
            SequenceRecord(f"seq_{config.n_positive + k:0{width}d}", bases, 0, [])
        )
    return records


# ---------------------------------------------------------------------------
# FASTA with ground-truth annotations in the header


def write_fasta(records, path) -> None:
    """``>id label=<0|1> motifs=<starts|none>`` headers, 80-column body."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for rec in records:
            motifs = (
                ",".join(str(p) for p in rec.motif_positions)
                if rec.motif_positions
                else "none"
            )
            fh.write(f">{rec.id} label={rec.label} motifs={motifs}\n")
            for i in range(0, len(rec.bases), 80):
                fh.write(rec.bases[i : i + 80])
                fh.write("\n")


def read_fasta(path) -> list:
    """Inverse of :func:`write_fasta`; raises ParseError with the
    offending line number on malformed headers or non-ACGT bodies,
    bytes outside ASCII included."""
    records = []
    header = None
    chunks = []
    header_line = 0

    def flush():
        if header is None:
            return
        rec_id, label, motifs = header
        positions = [] if motifs == "none" else [int(p) for p in motifs.split(",")]
        try:
            records.append(SequenceRecord(rec_id, "".join(chunks), int(label), positions))
        except ValidationError as exc:
            raise ParseError(f"{path}:{header_line}: {exc}") from exc

    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith(">"):
                flush()
                m = _FASTA_HEADER.match(line)
                if m is None:
                    raise ParseError(f"{path}:{lineno}: malformed header {line!r}")
                header = m.group(1, 2, 3)
                header_line = lineno
                chunks = []
            else:
                if header is None:
                    raise ParseError(
                        f"{path}:{lineno}: sequence data before any header"
                    )
                if _NON_ACGT.search(line):
                    raise ParseError(
                        f"{path}:{lineno}: sequence line contains characters "
                        f"outside ACGT"
                    )
                chunks.append(line)
        flush()
    return records


# ---------------------------------------------------------------------------
# PWM text format


def write_pwm(pwm: Pwm, path) -> None:
    """``#PWM <name> <rows>`` then one line of 4 probabilities per row."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"#PWM {pwm.name} {pwm.rows}\n")
        for row in pwm.matrix:
            fh.write(" ".join(f"{p:.17g}" for p in row))
            fh.write("\n")


def read_pwm(path) -> Pwm:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        text = fh.read()
    bad = text.find("\ufffd")
    if bad >= 0:
        line = text.count("\n", 0, bad) + 1
        raise ParseError(f"{path}:{line}: byte outside ASCII")
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#PWM "):
        raise ParseError(f"{path}:1: expected '#PWM <name> <rows>' header")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ParseError(f"{path}:1: expected '#PWM <name> <rows>' header")
    name = parts[1]
    try:
        rows = int(parts[2])
    except ValueError:
        raise ParseError(f"{path}:1: row count {parts[2]!r} is not an integer")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != rows:
        raise ParseError(
            f"{path}: header declares {rows} rows but found {len(body)}"
        )
    mat = np.empty((rows, 4), dtype=np.float64)
    for r, ln in enumerate(body):
        fields = ln.split()
        if len(fields) != 4:
            raise ParseError(
                f"{path}:{r + 2}: expected 4 probabilities, got {len(fields)}"
            )
        try:
            mat[r] = [float(f) for f in fields]
        except ValueError:
            raise ParseError(f"{path}:{r + 2}: non-numeric probability")
    return Pwm(name, mat)
