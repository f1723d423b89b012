"""Each output check of the benchmark accepts the program's real output
and rejects a corrupted one.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
from dcnn import genome, metrics, network, pipeline, training  # noqa: E402

MODEL = network.ModelConfig(seq_length=100, n_filters=4, filter_width=6,
                            pool_window=10, pool_stride=10)


@pytest.fixture(scope="module")
def dataset():
    sim = genome.SimConfig(seq_length=100, n_positive=40, n_negative=40, cluster_max=3,
                           seed=3)
    train, test, validation = pipeline.split(
        genome.generate_dataset(sim), pipeline.SplitSpec(seed=3))
    return training.Dataset(train=train, validation=validation, test=test)


def _train(dataset, replicas=1, strategy="allreduce", seed=0, global_batch=8):
    config = training.TrainConfig(
        n_replicas=replicas, strategy=strategy, epochs_max=2,
        batch_per_replica=global_batch // replicas, seed=seed,
        early_stopping=False, backend="threads")
    return training.train(config, MODEL, dataset)


def _reported(probs, labels):
    """What the program reports for a probability vector."""
    return {"loss": network.bce_loss(probs, labels),
            "accuracy": metrics.accuracy(probs, labels),
            "auroc": metrics.auroc(probs, labels)}


def test_reference_forward_matches_program(dataset):
    params = network.init_params(MODEL, 1)
    batch = pipeline.encode_batch(dataset.validation)
    probs, _ = network.forward(params, batch, MODEL)
    ref = checks.reference_probs(params, dataset.validation, MODEL)
    assert np.max(np.abs(probs - ref)) < 1e-6


def test_reference_auroc_is_the_pair_count():
    probs = np.array([0.9, 0.8, 0.8, 0.3, 0.2])
    labels = np.array([1, 0, 1, 0, 1])
    # pairs (pos, neg): (.9,.8) (.9,.3) (.8,.8)=1/2 (.8,.3) (.2,.8)=0 (.2,.3)=0
    assert checks.reference_scores(probs, labels)["auroc"] == pytest.approx(3.5 / 6)
    assert metrics.auroc(probs, labels) == pytest.approx(3.5 / 6)


def test_scores_check_accepts_program_evaluation(dataset):
    params, _ = _train(dataset)
    reported = training.evaluate(params, dataset.validation, MODEL)
    ref = checks.reference_probs(params, dataset.validation, MODEL)
    labels = np.array([r.label for r in dataset.validation])
    assert checks.check_scores(reported, ref, labels) == []


def test_scores_check_rejects_perturbed_probabilities():
    rng = np.random.default_rng(0)
    labels = np.repeat([1, 0], 50)
    probs = np.clip(rng.normal(0.5 + 0.2 * labels - 0.1, 0.15), 0.01, 0.99)
    assert checks.check_scores(_reported(probs, labels), probs, labels) == []
    perturbed = np.clip(probs + rng.normal(0.0, 0.01, probs.shape), 0.01, 0.99)
    problems = checks.check_scores(_reported(perturbed, labels), probs, labels)
    assert any(p.startswith("loss") for p in problems)


def test_scores_check_rejects_one_misranked_pair():
    labels = np.repeat([1, 0], 20)
    probs = np.concatenate([np.linspace(0.3, 0.95, 20), np.linspace(0.05, 0.7, 20)])
    reported = _reported(probs, labels)
    reported["auroc"] -= 1.0 / (20 * 20)
    problems = checks.check_scores(reported, probs, labels)
    assert [p.split(":")[0] for p in problems] == ["auroc"]


@pytest.mark.parametrize("strategy", ["allreduce", "ps"])
def test_message_closed_form_matches_program(dataset, strategy):
    _, report = _train(dataset, replicas=2, strategy=strategy)
    steps = len(dataset.train) // 8
    expected = checks.expected_messages(strategy, 2, 2, steps)
    assert checks.check_messages(report.total_messages, expected) == []
    assert checks.check_messages(report.total_messages + 1, expected)
    assert checks.check_messages(report.total_messages - 1, expected)


def test_single_replica_sends_no_messages(dataset):
    _, report = _train(dataset)
    assert checks.expected_messages("allreduce", 1, 2, 7) == 0
    assert checks.check_messages(report.total_messages, 0) == []
    assert checks.check_messages(1, 0)


def test_gradient_check(dataset):
    params = network.init_params(MODEL, 2)
    records = dataset.train[:8]
    batch = pipeline.encode_batch(records)
    _, cache = network.forward(params, batch, MODEL)
    program = network.flatten_grads(network.backward(params, cache, batch.labels, MODEL))
    ref = checks.reference_gradient(params, records, MODEL)
    assert checks.check_gradient(program, ref, MODEL) == []
    assert checks.check_gradient(program * (1 + 1e-3), ref, MODEL)
    shifted = program.copy()
    conv = MODEL.n_filters * MODEL.filter_width * 4
    shifted[:conv] = np.roll(shifted[:conv], 4)  # taps off by one
    assert checks.check_gradient(shifted, ref, MODEL)
    # the gradient of another batch is a different gradient
    other = pipeline.encode_batch(dataset.train[8:16])
    _, cache = network.forward(params, other, MODEL)
    wrong = network.flatten_grads(network.backward(params, cache, other.labels, MODEL))
    assert checks.check_gradient(wrong, ref, MODEL)


def test_identical_check_rejects_another_run(dataset):
    first, _ = _train(dataset)
    again, _ = _train(dataset)
    other, _ = _train(dataset, seed=1)
    vec = network.flatten_params(first)
    assert checks.check_identical(network.flatten_params(again), vec) == []
    assert checks.check_identical(network.flatten_params(other), vec)
    nudged = vec.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    assert checks.check_identical(nudged, vec)


@pytest.mark.parametrize("strategy", ["allreduce", "ps"])
def test_equivalence_check(dataset, strategy):
    single, _ = _train(dataset)
    parallel, _ = _train(dataset, replicas=2, strategy=strategy)
    other, _ = _train(dataset, replicas=2, strategy=strategy, seed=1)
    ref = network.flatten_params(single).astype(np.float64)
    assert checks.check_equivalent(network.flatten_params(parallel), ref) == []
    assert checks.check_equivalent(network.flatten_params(other), ref)
