"""Tests for accuracy, auROC, and auPRC against brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnn.errors import ValidationError
from dcnn.metrics import accuracy, auprc, auroc

from oracles import brute_force_auroc, exhaustive_average_precision, loop_auprc, loop_auroc


class TestAccuracy:
    def test_perfect_predictions(self):
        assert accuracy([0.9, 0.1], [1, 0]) == 1.0

    def test_all_wrong(self):
        assert accuracy([0.9, 0.1], [0, 1]) == 0.0

    def test_threshold_ties_classify_as_negative(self):
        labels = [0, 1, 0, 1, 1]
        assert accuracy([0.5] * 5, labels) == 2 / 5  # the fraction of negatives

    def test_strictly_above_half_is_positive(self):
        assert accuracy([0.500001], [1]) == 1.0
        assert accuracy([0.5], [1]) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError, match="0 or 1"):
            accuracy([0.5], [3])
        with pytest.raises(ValidationError, match="at least one"):
            accuracy([], [])
        with pytest.raises(ValidationError, match="shape"):
            accuracy([0.5, 0.5], [1])


class TestAuroc:
    def test_worked_example(self):
        value = auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert abs(value - 0.75) < 1e-15

    def test_label_inversion_symmetry(self):
        rng = np.random.Generator(np.random.PCG64(7))
        scores = rng.random(50)
        labels = (rng.random(50) < 0.4).astype(int)
        if labels.min() == labels.max():  # pragma: no cover - seed chosen to avoid
            labels[0] = 1 - labels[0]
        assert abs(auroc(scores, labels) + auroc(scores, 1 - labels) - 1.0) < 1e-12

    def test_all_scores_equal_gives_half(self):
        assert abs(auroc([0.3] * 6, [0, 1, 0, 1, 1, 0]) - 0.5) < 1e-15

    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_single_class_undefined(self):
        assert auroc([0.2, 0.8], [1, 1]) is None
        assert auroc([0.2, 0.8], [0, 0]) is None

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 200),
        seed=st.integers(0, 2**31),
        coarse=st.booleans(),
    )
    def test_matches_pair_counting_brute_force(self, n, seed, coarse):
        rng = np.random.Generator(np.random.PCG64(seed))
        # coarse grids force plenty of tied scores
        scores = (
            rng.integers(0, 5, size=n) / 4.0 if coarse else rng.random(n)
        )
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        fast = auroc(scores, labels)
        slow = brute_force_auroc(scores, labels)
        assert abs(fast - slow) <= 1e-12


class TestAuprc:
    def test_perfect_ranking(self):
        assert abs(auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) - 1.0) < 1e-15

    def test_single_positive_ranked_second(self):
        assert abs(auprc([0.9, 0.8], [0, 1]) - 0.5) < 1e-15

    def test_no_positives_undefined(self):
        assert auprc([0.4, 0.6], [0, 0]) is None

    def test_all_positives_is_one(self):
        assert abs(auprc([0.2, 0.9], [1, 1]) - 1.0) < 1e-15

    def test_tied_scores_processed_as_block(self):
        # one positive and one negative tied at the top: the block adds
        # recall 1/2 at precision 1/2
        value = auprc([0.7, 0.7, 0.1, 0.1], [1, 0, 1, 0])
        expected = 0.5 * 0.5 + 0.5 * 0.5
        assert abs(value - expected) < 1e-15

    def test_all_label_patterns_n8_match_exhaustive_oracle(self):
        rng = np.random.Generator(np.random.PCG64(11))
        scores_pool = [rng.random(8), rng.integers(0, 3, size=8) / 2.0]
        for labels in itertools.product((0, 1), repeat=8):
            labels = np.array(labels)
            if labels.sum() == 0:
                assert auprc(scores_pool[0], labels) is None
                continue
            for scores in scores_pool:
                fast = auprc(scores, labels)
                slow = exhaustive_average_precision(scores, labels)
                assert abs(fast - slow) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 100), seed=st.integers(0, 2**31))
    def test_random_cases_match_oracle(self, n, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        scores = rng.integers(0, 8, size=n) / 7.0
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.sum() == 0:
            labels[rng.integers(0, n)] = 1
        assert abs(auprc(scores, labels) - exhaustive_average_precision(scores, labels)) <= 1e-12

    def test_value_in_unit_interval(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(50):
            n = int(rng.integers(2, 40))
            scores = rng.random(n)
            labels = (rng.random(n) < 0.3).astype(int)
            labels[0] = 1
            value = auprc(scores, labels)
            assert 0.0 <= value <= 1.0


def _awkward_scores(rng, n):
    """Scores with ties, NaN, ±inf and signed zeros: the values a diverged
    epoch's probabilities, or a coarse model's, can hold."""
    pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.25, 0.5, 1.0])
    scores = rng.random(n)
    coarse = rng.random(n) < rng.random()
    scores[coarse] = rng.choice(pool, size=int(coarse.sum()))
    return scores


def _bits(value):
    return None if value is None else np.float64(value).tobytes()


@pytest.mark.parametrize("metric,loop", [(auroc, loop_auroc), (auprc, loop_auprc)],
                         ids=["auroc", "auprc"])
def test_metric_equals_its_loop_form_bit_for_bit(metric, loop):
    rng = np.random.Generator(np.random.PCG64(17))
    for case in range(1500):
        n = int(rng.integers(1, 12 if case % 2 else 400))
        scores = _awkward_scores(rng, n)
        labels = (rng.random(n) < rng.random()).astype(np.int64)
        assert _bits(metric(scores, labels)) == _bits(loop(scores, labels)), (case, scores,
                                                                             labels)
