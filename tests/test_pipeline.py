"""Tests for encoding, splitting, shuffling, batching, and sharding."""

import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnn.errors import ValidationError
from dcnn.genome import SequenceRecord, SimConfig, generate_dataset
from dcnn.pipeline import (
    Batch,
    SplitSpec,
    base_codes,
    encode_batch,
    shard,
    shuffled_stream,
    split,
)
from oracles import decode, loop_shuffled_stream, one_hot_inputs

BASES = st.text(alphabet="ACGT", min_size=1, max_size=200)


def neg(i, bases):
    return SequenceRecord(f"n{i}", bases, 0, [])


def one_hot(bases, dtype=np.float32):
    """[L, 4] one-hot of ``bases`` (columns A, C, G, T), through the
    batch encoder the model reads its codes from."""
    return one_hot_inputs(encode_batch([neg(0, bases)], dtype=dtype))[0]


class TestOneHot:
    def test_single_bases(self):
        assert np.array_equal(one_hot("A"), [[1, 0, 0, 0]])
        assert np.array_equal(one_hot("C"), [[0, 1, 0, 0]])
        assert np.array_equal(one_hot("G"), [[0, 0, 1, 0]])
        assert np.array_equal(one_hot("T"), [[0, 0, 0, 1]])

    def test_acgt_is_identity(self):
        assert np.array_equal(one_hot("ACGT"), np.eye(4))

    def test_dtype(self):
        assert one_hot("ACGT").dtype == np.float32
        assert one_hot("ACGT", dtype=np.float64).dtype == np.float64

    def test_unknown_base_reports_position(self):
        with pytest.raises(ValidationError, match="position 3"):
            one_hot("ACGNACGT")
        with pytest.raises(ValidationError, match="position 0"):
            one_hot("xACGT")

    def test_non_ascii_reports_position(self):
        with pytest.raises(ValidationError, match="position 2"):
            one_hot("ACéG")

    @given(BASES)
    def test_rows_sum_to_one(self, bases):
        enc = one_hot(bases)
        assert enc.shape == (len(bases), 4)
        assert np.array_equal(enc.sum(axis=1), np.ones(len(bases)))

    @given(BASES)
    def test_decode_inverts(self, bases):
        assert decode(one_hot(bases)) == bases

    def test_decode_rejects_non_one_hot(self):
        with pytest.raises(ValidationError, match="not one-hot"):
            decode(np.array([[0.5, 0.5, 0.0, 0.0]]))
        with pytest.raises(ValidationError, match="not one-hot"):
            decode(np.array([[1.0, 1.0, 0.0, 0.0]]))


class TestSplitSpec:
    def test_defaults(self):
        spec = SplitSpec()
        assert (spec.train_fraction, spec.test_fraction, spec.validation_fraction) == (
            0.70,
            0.10,
            0.20,
        )

    def test_fraction_validation(self):
        with pytest.raises(ValidationError, match="sum"):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ValidationError, match="non-negative"):
            SplitSpec(1.2, -0.1, -0.1)
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            SplitSpec(seed=-1)


class TestSplit:
    @staticmethod
    def records(n_pos, n_neg, length=20):
        recs = [SequenceRecord(f"p{i}", "A" * length, 1, [0]) for i in range(n_pos)]
        recs += [SequenceRecord(f"n{i}", "C" * length, 0, []) for i in range(n_neg)]
        return recs

    def test_canonical_sizes(self):
        train, test, val = split(self.records(10000, 10000), SplitSpec(seed=1))
        assert (len(train), len(test), len(val)) == (14000, 2000, 4000)

    def test_stratified_balance(self):
        train, test, val = split(self.records(10000, 10000), SplitSpec(seed=1))
        for part, expect in ((train, 7000), (test, 1000), (val, 2000)):
            labels = Counter(r.label for r in part)
            assert labels[0] == labels[1] == expect

    def test_disjoint_and_covering(self):
        recs = self.records(40, 37)
        train, test, val = split(recs, SplitSpec(seed=5))
        ids = [r.id for r in train] + [r.id for r in test] + [r.id for r in val]
        assert sorted(ids) == sorted(r.id for r in recs)
        assert len(set(ids)) == len(ids)

    def test_label_multiset_preserved(self):
        recs = self.records(13, 29)
        train, test, val = split(recs, SplitSpec(seed=2))
        combined = Counter(r.label for part in (train, test, val) for r in part)
        assert combined == Counter(r.label for r in recs)

    def test_deterministic_by_seed(self):
        recs = self.records(50, 50)
        assert split(recs, SplitSpec(seed=9)) == split(recs, SplitSpec(seed=9))
        a = split(recs, SplitSpec(seed=9))[0]
        b = split(recs, SplitSpec(seed=10))[0]
        assert [r.id for r in a] != [r.id for r in b]

    def test_all_train(self):
        recs = self.records(6, 6)
        train, test, val = split(recs, SplitSpec(1.0, 0.0, 0.0))
        assert len(train) == 12 and not test and not val

    def test_empty_input(self):
        assert split([], SplitSpec()) == ([], [], [])

    def test_splits_are_label_interleaved(self):
        # a buffer shuffle downstream only mixes locally, so the split
        # itself must not hand back label-sorted runs
        train, _, _ = split(self.records(500, 500), SplitSpec(seed=3))
        # train holds 350 records per class; a fair interleaving puts
        # roughly half of each class in the first half of the list
        first_half = Counter(r.label for r in train[: len(train) // 2])
        assert 100 < first_half[1] < 250


class TestShuffledStream:
    def test_buffer_one_is_identity(self):
        recs = list(range(200))
        assert list(shuffled_stream(recs, 1, seed=4)) == recs

    def test_exactly_once(self):
        recs = list(range(137))
        out = list(shuffled_stream(recs, 10, seed=8))
        assert sorted(out) == recs
        assert out != recs  # astronomically unlikely to survive a real shuffle

    def test_deterministic_by_seed(self):
        recs = list(range(50))
        a = list(shuffled_stream(recs, 7, seed=3))
        assert a == list(shuffled_stream(recs, 7, seed=3))
        assert a != list(shuffled_stream(recs, 7, seed=4))

    def test_invalid_buffer(self):
        with pytest.raises(ValidationError, match=">= 1"):
            list(shuffled_stream([1], 0, seed=0))

    @pytest.mark.parametrize("n,buffer", [(0, 5), (1, 1), (30, 1), (7, 100), (100, 100),
                                          (700, 100), (64, 63)])
    def test_matches_the_draw_per_record_loop(self, n, buffer):
        # n < buffer, n = buffer, buffer 1, n = 0 and the training shape
        # (700 records through a buffer of 100)
        for seed in range(40):
            want = list(loop_shuffled_stream(range(n), buffer, seed))
            assert list(shuffled_stream(range(n), buffer, seed)) == want
            # a generator is read whole, without a length
            assert list(shuffled_stream((i for i in range(n)), buffer, seed)) == want

    def test_full_buffer_matches_fisher_yates(self, monkeypatch):
        # buffer >= n is a full uniform shuffle: its one integers(0, bounds)
        # call has bounds n, n - 1, ..., 1, whose n! draw vectors are
        # equally likely, so each must give a different permutation
        for n in (3, 4):
            bounds = list(range(n, 0, -1))
            perms = set()
            for draws in itertools.product(*map(range, bounds)):
                def integers(low, high):
                    assert low == 0 and high.tolist() == bounds
                    return np.array(draws)

                monkeypatch.setattr(np.random, "Generator",
                                    lambda _bits: SimpleNamespace(integers=integers))
                perms.add(tuple(shuffled_stream(range(n), n, seed=0)))
            assert len(perms) == math.factorial(n)
            assert all(sorted(perm) == list(range(n)) for perm in perms)


class TestBatching:
    @staticmethod
    def stream(n, length=12):
        return [neg(i, "ACGT"[i % 4] * length) for i in range(n)]

    def test_batch_shapes(self):
        batch = encode_batch(self.stream(5))
        assert batch.codes.shape == (5, 12)
        assert batch.labels.shape == (5,)
        assert len(batch) == 5

    def test_preserves_stream_order(self):
        recs = self.stream(8)
        batch = encode_batch(recs)
        for i, rec in enumerate(recs):
            assert np.array_equal(batch.codes[i], base_codes(rec.bases))

    def test_dtype_control(self):
        batch = encode_batch(self.stream(4), dtype=np.float64)
        assert batch.codes.dtype == np.uint8
        assert batch.labels.dtype == np.float64

    def test_codes_own_their_data(self):
        batch = encode_batch(self.stream(3))
        assert batch.codes.flags.owndata and batch.codes.flags.c_contiguous

    def test_records_of_unequal_length_name_the_first_that_differs(self):
        recs = [neg(0, "ACGT" * 26), neg(1, "ACGT" * 26), neg(2, "ACGT" * 3),
                neg(3, "AC")]
        with pytest.raises(ValidationError, match=r"^record 2 \(n2\) has 12 bases, but "
                                                  r"record 0 has 104"):
            encode_batch(recs)

    def test_a_bad_base_is_named_within_its_record(self):
        recs = [neg(0, "ACGT"), neg(1, "ACGT"), neg(2, "ACNT"), neg(3, "NCGT")]
        with pytest.raises(ValidationError, match="^cannot encode base 'N' at position 2$"):
            encode_batch(recs)

    def test_encode_batch_labels(self):
        recs = [
            SequenceRecord("p0", "ACAC", 1, [1]),
            neg(0, "GTGT"),
        ]
        batch = encode_batch(recs)
        assert batch.labels.tolist() == [1.0, 0.0]


class TestShard:
    @staticmethod
    def batch(n, length=6):
        return encode_batch([neg(i, "ACGTAC"[: length]) for i in range(n)])

    def test_single_replica_identity(self):
        batch = self.batch(8)
        shards = shard(batch, 1)
        assert len(shards) == 1 and shards[0] is batch

    def test_equal_contiguous_shards(self):
        batch = self.batch(256 // 16)  # keep it light: 16 rows, 4 replicas
        batch = self.batch(256)
        shards = shard(batch, 4)
        assert [len(s) for s in shards] == [64, 64, 64, 64]
        rebuilt = np.concatenate([s.codes for s in shards])
        assert np.array_equal(rebuilt, batch.codes)
        rebuilt_labels = np.concatenate([s.labels for s in shards])
        assert np.array_equal(rebuilt_labels, batch.labels)

    def test_indivisible_batch_message(self):
        with pytest.raises(ValidationError, match="divisible by the number of replicas"):
            shard(self.batch(10), 3)

    def test_shards_are_views_of_batch(self):
        batch = self.batch(6)
        shards = shard(batch, 3)
        assert shards[1].codes.base is batch.codes
        assert shards[1].labels.base is batch.labels


class TestBaseCodes:
    def test_codes_are_the_one_hot_columns(self):
        codes = base_codes("ACGTTGCA")
        assert codes.dtype == np.uint8
        assert codes.tolist() == [0, 1, 2, 3, 3, 2, 1, 0]
        assert np.array_equal(np.argmax(one_hot("ACGTTGCA"), axis=1), codes)

    @pytest.mark.parametrize("bases", ["ACGNACGT", "xACGT", "ACéG", "acgt"])
    def test_rejects_what_one_hot_rejects_with_the_same_text(self, bases):
        with pytest.raises(ValidationError) as from_codes:
            base_codes(bases)
        with pytest.raises(ValidationError) as from_one_hot:
            one_hot(bases)
        assert str(from_codes.value) == str(from_one_hot.value)
        with pytest.raises(ValidationError, match=str(from_codes.value)):
            encode_batch([neg(0, "ACGT"), neg(1, bases)])

    def test_encode_batch_carries_codes_only(self):
        recs = [neg(i, "ACGTAC"[i:] + "ACGTAC"[:i]) for i in range(4)]
        batch = encode_batch(recs, dtype=np.float64)
        assert batch.codes.dtype == np.uint8 and batch.codes.shape == (4, 6)
        assert vars(batch).keys() == {"codes", "labels"}  # nothing one-hot
        # the codes are the one-hot columns, in the labels' dtype
        inputs = one_hot_inputs(batch)
        assert inputs.dtype == np.float64
        for i, rec in enumerate(recs):
            assert decode(inputs[i]) == rec.bases
            assert np.array_equal(inputs[i], one_hot(rec.bases, dtype=np.float64))

    def test_shards_slice_the_codes(self):
        batch = encode_batch([neg(i, "ACGTAC") for i in range(6)])
        shards = shard(batch, 3)
        assert shards[2].codes.base is batch.codes
        assert shards[2].codes.shape == (2, 6)

    def test_batch_holds_uint8_codes(self):
        ok = np.zeros((2, 5), dtype=np.uint8)
        assert Batch(ok, np.zeros(2)).codes is ok
        # codes of another dtype, or one-hot inputs, are not a batch
        for codes in (np.zeros((2, 5)), ok.astype(np.int64), np.zeros((2, 5, 4)),
                      np.zeros((2, 5, 4), dtype=np.uint8), np.zeros(5, dtype=np.uint8)):
            with pytest.raises(ValidationError, match=r"uint8 \[B, L\]"):
                Batch(codes, np.zeros(2))


class TestBatchType:
    def test_shape_validation(self):
        with pytest.raises(ValidationError, match=r"must be uint8 \[B, L\], got uint8 \(2,\)"):
            Batch(np.zeros(2, dtype=np.uint8), np.zeros(2))
        with pytest.raises(ValidationError, match=r"got float64 \(2, 3, 4\)"):
            Batch(np.zeros((2, 3, 4)), np.zeros(2))
        with pytest.raises(ValidationError, match="labels shape"):
            Batch(np.zeros((2, 3), dtype=np.uint8), np.zeros(3))


class TestEndToEnd:
    def test_generated_dataset_flows_through(self):
        cfg = SimConfig(seq_length=150, n_positive=40, n_negative=40, seed=6)
        records = generate_dataset(cfg)
        train, test, val = split(records, SplitSpec(seed=6))
        assert (len(train), len(test), len(val)) == (56, 8, 16)
        stream = list(shuffled_stream(train, 10, seed=1))
        batches = [encode_batch(stream[i : i + 8]) for i in range(0, len(stream), 8)]
        assert len(batches) == 7
        for b in batches:
            assert b.codes.max() <= 3 and np.isin(b.labels, (0, 1)).all()
            for s in shard(b, 2):
                assert len(s) == 4
