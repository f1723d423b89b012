"""Tests for synthetic sequence generation and its file formats."""

import collections
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnn import genome
from dcnn.errors import ParseError, PlacementError, ValidationError
from dcnn.genome import (
    Pwm,
    SequenceRecord,
    SimConfig,
    central_region,
    default_tal1_pwm,
    embed_cluster,
    generate_dataset,
    read_fasta,
    read_pwm,
    sample_background,
    sample_motif_instance,
    write_fasta,
)
from helpers import BAD_MATRIX_PWMS
from oracles import read_fasta_lines


def rng_from(seed):
    return np.random.Generator(np.random.PCG64(seed))


def certain_pwm(consensus):
    """PWM that emits its consensus with probability one."""
    mat = np.zeros((len(consensus), 4))
    for r, base in enumerate(consensus):
        mat[r, "ACGT".index(base)] = 1.0
    return Pwm("certain", mat)


class TestPwm:
    def test_default_consensus(self):
        pwm = default_tal1_pwm()
        assert pwm.consensus == "AACAGATGGT"
        assert pwm.rows == 10
        assert np.allclose(pwm.matrix.sum(axis=1), 1.0)
        # consensus base carries 0.85, the others 0.05 each
        assert np.isclose(pwm.matrix.max(axis=1), 0.85).all()
        assert np.isclose(np.sort(pwm.matrix, axis=1)[:, :3], 0.05).all()

    def test_row_sum_validation(self):
        mat = np.full((4, 4), 0.25)
        mat[2, 0] = 0.5
        with pytest.raises(ValidationError, match="row 2"):
            Pwm("bad", mat)

    def test_shape_validation(self):
        with pytest.raises(ValidationError, match="rows, 4"):
            Pwm("bad", np.full((3, 5), 0.2))
        with pytest.raises(ValidationError, match="at least one row"):
            Pwm("bad", np.zeros((0, 4)))

    def test_negative_entry_rejected(self):
        mat = np.full((2, 4), 0.25)
        mat[0] = [-0.1, 0.5, 0.3, 0.3]
        with pytest.raises(ValidationError, match=r"row 0: .* \[0, 1\]"):
            Pwm("bad", mat)

    def test_nan_entry_rejected(self):
        mat = np.full((3, 4), 0.25)
        mat[1, 2] = np.nan
        with pytest.raises(ValidationError, match=r"row 1: .* got \[0.25, 0.25, nan, 0.25\]"):
            Pwm("bad", mat)

    def test_consensus_tie_prefers_earlier_base(self):
        pwm = Pwm("tie", np.full((3, 4), 0.25))
        assert pwm.consensus == "AAA"


class TestSampling:
    def test_background_deterministic_by_seed(self):
        a = sample_background(20, (0.25,) * 4, rng_from(1234))
        b = sample_background(20, (0.25,) * 4, rng_from(1234))
        assert a == b == "TCTCCAACTCCGTTGGGAAT"

    def test_background_base_frequencies(self):
        # law-of-large-numbers check against skewed target frequencies
        seq = sample_background(100_000, (0.1, 0.2, 0.3, 0.4), rng_from(5))
        counts = collections.Counter(seq)
        for base, expected in zip("ACGT", (0.1, 0.2, 0.3, 0.4)):
            assert abs(counts[base] / 100_000 - expected) < 0.01

    def test_background_degenerate_distribution(self):
        assert sample_background(50, (0.0, 0.0, 1.0, 0.0), rng_from(0)) == "G" * 50
        assert sample_background(0, (0.25,) * 4, rng_from(0)) == ""

    def test_motif_certain_pwm_emits_consensus(self):
        pwm = certain_pwm("ACGTACGT")
        rng = rng_from(3)
        for _ in range(20):
            assert sample_motif_instance(pwm, rng) == "ACGTACGT"

    def test_motif_per_row_consensus_rate(self):
        pwm = default_tal1_pwm()
        rng = rng_from(6)
        n = 20_000
        hits = np.zeros(pwm.rows)
        for _ in range(n):
            inst = sample_motif_instance(pwm, rng)
            hits += np.fromiter(
                (a == b for a, b in zip(inst, pwm.consensus)), dtype=float
            )
        assert np.all(np.abs(hits / n - 0.85) < 0.011)


class TestCentralRegion:
    def test_values(self):
        assert central_region(1500, 0.6) == (300, 1200)
        assert central_region(10, 0.6) == (2, 8)
        assert central_region(7, 1.0) == (0, 7)

    @given(st.integers(1, 5000), st.floats(0.01, 1.0))
    def test_window_is_centered_and_inside(self, length, fraction):
        lo, hi = central_region(length, fraction)
        assert 0 <= lo <= hi <= length
        assert hi - lo == int(fraction * length)
        # centering: flanks differ by at most one base
        assert abs(lo - (length - hi)) <= 1


class TestEmbedCluster:
    def test_positions_sorted_disjoint_inside_region(self):
        pwm = default_tal1_pwm()
        rng = rng_from(11)
        background = sample_background(200, (0.25,) * 4, rng)
        seq, starts = embed_cluster(background, pwm, 4, (40, 160), rng)
        assert len(seq) == 200
        assert starts == sorted(starts)
        for a, b in zip(starts, starts[1:]):
            assert b - a >= pwm.rows
        for s in starts:
            assert 40 <= s and s + pwm.rows <= 160

    def test_background_outside_motifs_is_preserved(self):
        pwm = certain_pwm("CCCCC")
        rng = rng_from(2)
        background = "A" * 100
        seq, starts = embed_cluster(background, pwm, 3, (10, 90), rng)
        covered = set()
        for s in starts:
            assert seq[s : s + 5] == "CCCCC"
            covered.update(range(s, s + 5))
        for i in range(100):
            if i not in covered:
                assert seq[i] == "A"

    def test_zero_count_is_identity(self):
        pwm = default_tal1_pwm()
        seq, starts = embed_cluster("ACGT" * 10, pwm, 0, (0, 40), rng_from(0))
        assert seq == "ACGT" * 10 and starts == []

    def test_impossible_placement_raises(self):
        pwm = default_tal1_pwm()
        with pytest.raises(PlacementError):
            embed_cluster("A" * 50, pwm, 3, (10, 35), rng_from(0))

    def test_region_validation(self):
        pwm = default_tal1_pwm()
        with pytest.raises(ValidationError, match="region"):
            embed_cluster("A" * 20, pwm, 1, (5, 30), rng_from(0))

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 4),
        length=st.integers(80, 300),
    )
    def test_embedding_preserves_length(self, seed, count, length):
        pwm = default_tal1_pwm()
        rng = rng_from(seed)
        background = sample_background(length, (0.25,) * 4, rng)
        seq, starts = embed_cluster(background, pwm, count, (0, length), rng)
        assert len(seq) == length
        assert len(starts) == count


class TestGenerateDataset:
    def test_label_layout_and_counts(self):
        cfg = SimConfig(seq_length=100, n_positive=5, n_negative=7, seed=3)
        recs = generate_dataset(cfg)
        assert [r.label for r in recs] == [1] * 5 + [0] * 7
        assert len({r.id for r in recs}) == 12
        assert all(len(r.bases) == 100 for r in recs)

    def test_cluster_sizes_within_bounds(self):
        cfg = SimConfig(
            seq_length=300, n_positive=60, n_negative=0,
            cluster_min=2, cluster_max=5, seed=9,
        )
        recs = generate_dataset(cfg)
        sizes = {len(r.motif_positions) for r in recs}
        assert sizes <= {2, 3, 4, 5}
        assert sizes == {2, 3, 4, 5}  # 60 draws cover every size w.h.p.

    def test_positions_in_central_region(self):
        cfg = SimConfig(seq_length=200, n_positive=30, n_negative=0, seed=4)
        pwm = default_tal1_pwm()
        lo, hi = central_region(200, cfg.cluster_region_fraction)
        for rec in generate_dataset(cfg, pwm):
            for s in rec.motif_positions:
                assert lo <= s and s + pwm.rows <= hi

    def test_negatives_free_of_consensus(self):
        cfg = SimConfig(seq_length=1500, n_positive=0, n_negative=50, seed=21)
        pwm = default_tal1_pwm()
        for rec in generate_dataset(cfg, pwm):
            assert pwm.consensus not in rec.bases

    def test_certain_pwm_consensus_at_recorded_positions(self):
        cfg = SimConfig(seq_length=150, n_positive=20, n_negative=0, seed=13)
        pwm = certain_pwm("ACGTACGTAC")
        for rec in generate_dataset(cfg, pwm):
            for s in rec.motif_positions:
                assert rec.bases[s : s + 10] == "ACGTACGTAC"

    def test_byte_identical_by_seed(self, tmp_path):
        cfg = SimConfig(seq_length=120, n_positive=8, n_negative=8, seed=42)
        first = generate_dataset(cfg)
        second = generate_dataset(cfg)
        assert first == second
        p1, p2 = tmp_path / "a.fa", tmp_path / "b.fa"
        write_fasta(first, p1)
        write_fasta(second, p2)
        assert p1.read_bytes() == p2.read_bytes()
        other = generate_dataset(
            SimConfig(seq_length=120, n_positive=8, n_negative=8, seed=43)
        )
        assert other != first

    def test_config_validation(self):
        pwm = default_tal1_pwm()
        with pytest.raises(ValidationError, match="shorter than the motif"):
            SimConfig(seq_length=8).validate(pwm)
        with pytest.raises(ValidationError, match="cluster_min"):
            SimConfig(cluster_min=3, cluster_max=2).validate(pwm)
        with pytest.raises(ValidationError, match="cannot[ \n]fit|cannot fit"):
            SimConfig(seq_length=60, cluster_max=5).validate(pwm)
        with pytest.raises(ValidationError, match="n_negative must be >= 0, got -1"):
            SimConfig(n_negative=-1).validate(pwm)
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            SimConfig(seed=-1).validate(pwm)


class TestFastaRoundTrip:
    def test_round_trip_equality(self, tmp_path):
        cfg = SimConfig(seq_length=170, n_positive=6, n_negative=6, seed=77)
        records = generate_dataset(cfg)
        path = tmp_path / "data.fa"
        write_fasta(records, path)
        assert read_fasta(path) == records

    def test_line_discipline(self, tmp_path):
        records = [SequenceRecord("seq_0", "A" * 170, 0, [])]
        path = tmp_path / "one.fa"
        write_fasta(records, path)
        lines = path.read_text().split("\n")
        assert lines[0] == ">seq_0 label=0 motifs=none"
        assert [len(l) for l in lines[1:4]] == [80, 80, 10]
        assert path.read_text().endswith("\n")

    def test_header_format_for_positive(self, tmp_path):
        rec = SequenceRecord("seq_0001", "A" * 20 + "C" * 20, 1, [12, 25])
        path = tmp_path / "pos.fa"
        write_fasta([rec], path)
        assert path.read_text().splitlines()[0] == ">seq_0001 label=1 motifs=12,25"

    def test_malformed_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text(">seq_0 label=1 motifs=3\nACGT\n>seq_1 label=2 motifs=none\nACGT\n")
        with pytest.raises(ParseError, match=":3"):
            read_fasta(path)

    def test_bad_base_reports_line(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text(">seq_0 label=0 motifs=none\nACGN\n")
        with pytest.raises(ParseError, match=":2"):
            read_fasta(path)

    def test_label_motif_consistency_enforced(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text(">seq_0 label=1 motifs=none\nACGT\n")
        with pytest.raises(ParseError, match="inconsistent"):
            read_fasta(path)

    def test_body_before_header_rejected(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text("ACGT\n")
        with pytest.raises(ParseError, match="before any header"):
            read_fasta(path)


def parse_outcome(reader, path):
    """The reader's records, or its ParseError's text."""
    try:
        return reader(path)
    except ParseError as exc:
        return str(exc)


H0 = b">s0 label=0 motifs=none"
H1 = b">s1 label=1 motifs=3,9"

#: (name, file bytes, what the oracle gives: "ok" or a piece of its message)
FASTA_CORPUS = [
    ("lf", H0 + b"\nACGT\nAC\n" + H1 + b"\nACGTACGT\n", "ok"),
    ("crlf", H0 + b"\r\nACGT\r\nAC\r\n" + H1 + b"\r\nACGTACGT\r\n", "ok"),
    ("lone-cr", H0 + b"\rACGT\rAC\r" + H1 + b"\rACGTACGT\r", "ok"),
    ("mixed-endings", H0 + b"\r\r\nAC\n\rGT\r\n\n" + H1 + b"\rA", "ok"),
    ("cr-splits-header", b">s0 label=0\rmotifs=none\nACGT\n", ":1: malformed header"),
    ("blank-before-first", b"\n\r\n\n" + H0 + b"\nACGT\n", "ok"),
    ("blank-between-and-inside",
     H0 + b"\nAC\n\n\nGT\n\n" + H1 + b"\n\nAC\n\n", "ok"),
    ("no-final-newline", H0 + b"\nACGT\n" + H1 + b"\nACG", "ok"),
    ("header-without-newline", H0, "ok"),
    ("empty-bodies", H0 + b"\n" + H1 + b"\n\n" + H0 + b"\n", "ok"),
    ("empty-file", b"", "ok"),
    ("blank-lines-only", b"\n\r\n\r\n\n", "ok"),
    ("id-nul", b">a\x00b label=0 motifs=none\nAC\n", "ok"),
    *[(f"id-{ch!r}", b">a" + ch + b"b label=0 motifs=none\nAC\n", ":1: malformed header")
      for ch in (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")],
    ("id-high-byte", b">a\xe9 label=0 motifs=none\nAC\n", ":1: malformed header"),
    ("label-high-byte", H0 + b"\nAC\n>s1 label=\xff motifs=none\n", ":3: malformed header"),
    ("body-high-byte", H0 + b"\nAC\r\nA\x80C\n", ":3: sequence line contains"),
    ("lowercase", H0 + b"\nACGT\nacgt\n", ":3: sequence line contains"),
    ("gt-inside-body", H0 + b"\nAC>GT\n", ":2: sequence line contains"),
    ("space-line-in-body", H0 + b"\nAC\n \nGT\n", ":3: sequence line contains"),
    ("bare-gt", H0 + b"\nAC\n>\nGT\n", ":3: malformed header"),
    ("data-before-header", b"\n\r\nACGT\n" + H0 + b"\nAC\n", ":3: sequence data before any header"),
    ("space-before-header", b" \n" + H0 + b"\n", ":1: sequence data before any header"),
    ("data-only", b"ACGT", ":1: sequence data before any header"),
    ("inconsistent-then-malformed",
     b">s0 label=1 motifs=none\nACGT\n\n>s1 label=2 motifs=none\n", ":1: record s0"),
    ("bad-body-then-malformed", H0 + b"\nACGT\r\nACGN\n>bad\n", ":3: sequence line contains"),
    ("inconsistent-last", H0 + b"\nAC\n>s1 label=0 motifs=4\r\nAC", ":3: record s1"),
    # past Python's 4,300-digit integer-string limit
    ("motif-past-int-limit", H0 + b"\nAC\n>s1 label=1 motifs=3," + b"1" * 5000 + b"\nAC\n",
     ":3: motif position has too many digits"),
]


class TestFastaReader:
    """``read_fasta`` against the line-at-a-time text-mode reader."""

    @pytest.mark.parametrize("data,expect", [c[1:] for c in FASTA_CORPUS],
                             ids=[c[0] for c in FASTA_CORPUS])
    def test_corpus_matches_the_line_reader(self, tmp_path, data, expect):
        path = tmp_path / "corpus.fa"
        path.write_bytes(data)
        want = parse_outcome(read_fasta_lines, path)
        if expect == "ok":
            assert isinstance(want, list)
        else:
            assert expect in want
        assert parse_outcome(read_fasta, path) == want

    @pytest.mark.parametrize("data,expect", [c[1:] for c in FASTA_CORPUS],
                             ids=[c[0] for c in FASTA_CORPUS])
    def test_corpus_matches_the_line_reader_at_every_block_boundary(
            self, tmp_path, monkeypatch, data, expect):
        # blocks of 1-9 bytes put a boundary at every byte of the short
        # files: inside a header, a body, a \r\n and just before a ">"
        path = tmp_path / "corpus.fa"
        path.write_bytes(data)
        want = parse_outcome(read_fasta_lines, path)
        for size in (*range(1, 10), len(data) - 1, len(data), len(data) + 1):
            monkeypatch.setattr(genome, "FASTA_BLOCK_BYTES", max(size, 1))
            assert parse_outcome(read_fasta, path) == want, size

    @pytest.mark.parametrize("data,size", [
        (H0 + b"\nACGT\n" + H1 + b"\nAC\n", len(H0) // 2),  # inside a header
        (H0 + b"\nACGT\n" + H1 + b"\nAC\n", len(H0) + 3),  # inside a body
        (H0 + b"\r\nACGT\r\n" + H1 + b"\r\nAC\r\n", len(H0) + 1),  # inside a \r\n
        (H0 + b"\nACGT\n" + H1 + b"\nAC\n", len(H0) + 6),  # just before a ">"
        (H0 + b"\nACGT\n" + H1 + b"\nAC\n", len(H0) + 7),  # just after a ">"
    ], ids=["header", "body", "crlf", "before-gt", "after-gt"])
    def test_a_block_boundary_changes_no_record(self, tmp_path, monkeypatch, data, size):
        path = tmp_path / "boundary.fa"
        path.write_bytes(data)
        monkeypatch.setattr(genome, "FASTA_BLOCK_BYTES", size)
        assert read_fasta(path) == [
            SequenceRecord("s0", "ACGT", 0, []), SequenceRecord("s1", "AC", 1, [3, 9])
        ]

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_error_lines_count_across_blocks(self, tmp_path, monkeypatch, size):
        # a \r\n split by a boundary still counts as one line end
        path = tmp_path / "late.fa"
        path.write_bytes(H0 + b"\r\nAC\r\n\r\n" + H1 + b"\r\nACXT\r\n")
        monkeypatch.setattr(genome, "FASTA_BLOCK_BYTES", size)
        with pytest.raises(ParseError, match=r"late\.fa:5: sequence line"):
            read_fasta(path)

    def test_mixed_endings_records(self, tmp_path):
        path = tmp_path / "mixed.fa"
        path.write_bytes(H0 + b"\r\r\nAC\n\rGT\r\n\n" + H1 + b"\rA")
        assert read_fasta(path) == [
            SequenceRecord("s0", "ACGT", 0, []), SequenceRecord("s1", "A", 1, [3, 9])
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7e), min_size=1,
                max_size=8),
        st.sampled_from([0, 1, 79, 80, 81, 160, 161]),
        st.lists(st.integers(0, 10**6), max_size=3),
        st.integers(0, 2**32 - 1),
    ), max_size=5))
    def test_round_trip(self, specs):
        records = [
            SequenceRecord(rec_id, "".join(np.random.default_rng(seed).choice(list("ACGT"), n)),
                           int(bool(starts)), sorted(starts))
            for rec_id, n, starts, seed in specs
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "round.fa"
            write_fasta(records, path)
            assert read_fasta(path) == records

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.booleans(), st.integers(0, 10**6), st.sampled_from(list(b"\r\n>N\xff ")),
    ), min_size=1, max_size=4), st.integers(1, 200))
    def test_corrupted_files_match_the_line_reader(self, edits, block):
        records = [SequenceRecord("s0", "ACGT" * 21, 1, [5, 40]),
                   SequenceRecord("s1", "GATTACA", 0, []),
                   SequenceRecord("s2", "", 0, [])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corrupt.fa"
            write_fasta(records, path)
            data = bytearray(path.read_bytes())
            for insert, pos, byte in edits:
                pos %= len(data) + insert
                data[pos:pos + (not insert)] = bytes([byte])
            path.write_bytes(bytes(data))
            want = parse_outcome(read_fasta_lines, path)
            assert parse_outcome(read_fasta, path) == want
            with mock.patch.object(genome, "FASTA_BLOCK_BYTES", block):
                assert parse_outcome(read_fasta, path) == want


class TestPwmFile:
    def test_round_trip_bit_exact(self, tmp_path):
        # 17 significant digits name every float64 exactly
        pwm = default_tal1_pwm()
        path = tmp_path / "m.pwm"
        rows = "".join(" ".join(f"{p:.17g}" for p in row) + "\n" for row in pwm.matrix)
        path.write_text(f"#PWM {pwm.name} {pwm.rows}\n{rows}")
        back = read_pwm(path)
        assert back.name == pwm.name
        assert np.array_equal(back.matrix, pwm.matrix)

    @pytest.mark.parametrize("text,line,message", BAD_MATRIX_PWMS)
    def test_a_matrix_that_pwm_rejects_names_its_line(self, tmp_path, text, line, message):
        path = tmp_path / "m.pwm"
        path.write_text(text)
        with pytest.raises(ParseError) as error:
            read_pwm(path)
        assert str(error.value) == f"{path}:{line}: {message}"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "m.pwm"
        path.write_text("0.25 0.25 0.25 0.25\n")
        with pytest.raises(ParseError, match="#PWM"):
            read_pwm(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "m.pwm"
        path.write_text("#PWM x 3\n0.25 0.25 0.25 0.25\n")
        with pytest.raises(ParseError, match="declares 3"):
            read_pwm(path)

    def test_bad_probability_row(self, tmp_path):
        path = tmp_path / "m.pwm"
        path.write_text("#PWM x 1\n0.25 0.25 0.25\n")
        with pytest.raises(ParseError, match="expected 4"):
            read_pwm(path)

    def test_bad_row_reports_its_own_line(self, tmp_path):
        path = tmp_path / "m.pwm"
        path.write_text("#PWM m 2\n\n0.25 0.25 0.25 0.25\n0.25 0.25 0.5\n")
        with pytest.raises(ParseError, match=r"m\.pwm:4: expected 4 probabilities, got 3"):
            read_pwm(path)

    def test_rows_end_only_at_newlines(self, tmp_path):
        path = tmp_path / "m.pwm"
        path.write_bytes(b"#PWM m 1\r\n0.25 0.25\x0c0.25 0.25\r\n")
        assert np.array_equal(read_pwm(path).matrix, np.full((1, 4), 0.25))

    def test_invalid_distribution_rejected(self, tmp_path):
        path = tmp_path / "m.pwm"
        path.write_text("#PWM x 1\n0.9 0.2 0.2 0.2\n")
        with pytest.raises(ParseError, match=r"m\.pwm:2: probabilities sum to 1\.5"):
            read_pwm(path)


class TestSequenceRecord:
    def test_label_validation(self):
        with pytest.raises(ValidationError, match="label"):
            SequenceRecord("x", "ACGT", 2, [])

    def test_consistency_validation(self):
        with pytest.raises(ValidationError, match="inconsistent"):
            SequenceRecord("x", "ACGT", 0, [1])
        with pytest.raises(ValidationError, match="inconsistent"):
            SequenceRecord("x", "ACGT", 1, [])
