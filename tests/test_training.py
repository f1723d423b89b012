"""Trainer behavior: strategy equivalence, backend determinism, early
stopping, divergence reporting, evaluation, and report serialization."""

import gc
import json
import multiprocessing as mp
import os
import threading
import time
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnn import network, training
from dcnn.cli import write_json
from dcnn.collective import gossip_pairs, ring_all_reduce, ring_chunks
from dcnn.errors import DcnnError, TrainingDivergedError, ValidationError
from dcnn.genome import SimConfig, default_tal1_pwm, generate_dataset
from dcnn.kernels import dtype_for
from dcnn.network import ModelConfig, flatten_params, init_params
from dcnn.pipeline import SplitSpec, encode_batch, split
from dcnn.training import (
    Dataset,
    EarlyStopConfig,
    EpochMetrics,
    TrainConfig,
    TrainReport,
    _should_stop,
    epoch_stream_seed,
    evaluate,
    probabilities,
    scores,
    train,
    write_curves_csv,
)
from dcnn.transport import ProcessLinks, run_ranks
from helpers import identity_sweep

MODEL = ModelConfig(
    seq_length=200, n_filters=6, filter_width=10, pool_window=10, pool_stride=10
)


@pytest.fixture(scope="module")
def dataset():
    sim = SimConfig(seq_length=200, n_positive=300, n_negative=300, seed=7)
    records = generate_dataset(sim, default_tal1_pwm())
    train_recs, test_recs, val_recs = split(records, SplitSpec(seed=3))
    return Dataset(train=train_recs, validation=val_recs, test=test_recs)


def run(dataset, **kw):
    kw.setdefault("epochs_max", 3)
    kw.setdefault("early_stopping", False)
    params, report = train(TrainConfig(**kw), MODEL, dataset)
    return flatten_params(params), report


# ---------------------------------------------------------------------------
# configuration and seeds


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValidationError):
        TrainConfig(n_replicas=0)
    with pytest.raises(ValidationError):
        TrainConfig(strategy="pipelined")
    with pytest.raises(ValidationError):
        TrainConfig(backend="mpi")
    with pytest.raises(ValidationError):
        TrainConfig(gossip_period=0)
    with pytest.raises(ValidationError):
        TrainConfig(precision="f16")
    with pytest.raises(ValidationError):
        TrainConfig(epochs_max=0)
    for rate in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="learning_rate"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValidationError, match="shuffle_buffer_size"):
        TrainConfig(shuffle_buffer_size=0)
    with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
        TrainConfig(seed=-1)
    with pytest.raises(ValidationError):
        EarlyStopConfig(patience=0)
    with pytest.raises(ValidationError):
        EarlyStopConfig(min_delta=-1.0)


@pytest.mark.parametrize("name", ["n_replicas", "epochs_max", "batch_per_replica",
                                  "shuffle_buffer_size", "gossip_period"])
def test_config_counts_must_be_at_least_one(name):
    with pytest.raises(ValidationError, match=f"^{name} must be >= 1, got 0$"):
        TrainConfig(**{name: 0})


def test_global_batch_is_per_replica_times_replicas():
    assert TrainConfig(n_replicas=4, batch_per_replica=64).global_batch == 256


def test_epoch_stream_seed_frozen_values():
    assert [epoch_stream_seed(0, e) for e in range(3)] == [
        7896617691693857887,
        2918264622725855778,
        8597659618385908031,
    ]
    assert epoch_stream_seed(17, 0) == 711416585706541816


def test_epoch_stream_seeds_all_distinct():
    seeds = {epoch_stream_seed(s, e) for s in range(50) for e in range(50)}
    assert len(seeds) == 2500


# ---------------------------------------------------------------------------
# early-stopping rule


def test_should_stop_basic_cases():
    es = EarlyStopConfig(patience=2, min_delta=0.0)
    assert not _should_stop([1.0], es)
    assert not _should_stop([1.0, 0.9], es)
    assert _should_stop([1.0, 0.9, 0.95, 0.93], es)
    assert not _should_stop([1.0, 0.9, 0.95, 0.89], es)


def test_should_stop_min_delta_counts_marginal_gains_as_no_improvement():
    es = EarlyStopConfig(patience=2, min_delta=1e-2)
    # improvements below min_delta never move the reference point
    assert _should_stop([1.0, 0.995, 0.991], es)


@settings(max_examples=200, deadline=None)
@given(
    losses=st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False), min_size=1,
        max_size=30,
    ),
    patience=st.integers(min_value=1, max_value=5),
)
def test_stopping_never_waits_longer_than_patience(losses, patience):
    """Walking the sequence epoch by epoch, the rule must fire at most
    ``patience`` epochs after the last accepted improvement."""
    es = EarlyStopConfig(patience=patience, min_delta=1e-4)
    best = float("inf")
    since = 0
    for end in range(1, len(losses) + 1):
        if losses[end - 1] < best - es.min_delta:
            best = losses[end - 1]
            since = 0
        else:
            since += 1
        fired = _should_stop(losses[:end], es)
        assert fired == (since >= patience)
        if fired:
            break


def test_trainer_early_stops_and_respects_the_rule(dataset):
    cfg = TrainConfig(
        epochs_max=30,
        batch_per_replica=32,
        early_stop=EarlyStopConfig(patience=2, min_delta=5e-3),
    )
    _params, report = train(cfg, MODEL, dataset)
    assert report.stop_reason == "converged"
    assert len(report.epochs) < 30
    losses = [row.val_loss for row in report.epochs]
    # fired exactly at the last recorded epoch and never before
    assert _should_stop(losses, cfg.early_stop)
    for end in range(1, len(losses)):
        assert not _should_stop(losses[:end], cfg.early_stop)


# ---------------------------------------------------------------------------
# single-replica equivalence of all strategies


def test_all_strategies_identical_at_one_replica(dataset, monkeypatch):
    started = []  # every thread or process started, by class

    def spy(real):
        def start(self):
            started.append(type(self).__name__)
            return real(self)
        return start

    monkeypatch.setattr(threading.Thread, "start", spy(threading.Thread.start))
    monkeypatch.setattr(mp.process.BaseProcess, "start",
                        spy(mp.process.BaseProcess.start))
    base, base_report = run(dataset, n_replicas=1, strategy="allreduce",
                            batch_per_replica=32)
    for strategy in ("gossip", "ps"):
        vec, report = run(
            dataset, n_replicas=1, strategy=strategy, batch_per_replica=32,
            backend="threads",
        )
        assert np.array_equal(vec, base), strategy
        assert [r.val_loss for r in report.epochs] == [
            r.val_loss for r in base_report.epochs
        ], strategy
        if strategy == "gossip":  # its train loss skips the run-dtype loss slot
            assert any(r.train_loss != float(np.float32(r.train_loss))
                       for r in report.epochs)
    assert base_report.total_messages == 0
    assert base_report.total_bytes == 0
    # rank 0 runs in the caller, even on the processes backend, so a group
    # of one starts nothing; only ps starts a rank, its server
    assert started == ["Thread"]


# ---------------------------------------------------------------------------
# multi-replica correctness


def test_allreduce_two_replicas_matches_one_at_f64(dataset):
    base, _ = run(dataset, n_replicas=1, batch_per_replica=32, precision="f64")
    vec, _ = run(
        dataset, n_replicas=2, batch_per_replica=16, precision="f64",
        backend="threads",
    )
    assert np.max(np.abs(vec - base)) <= 1e-12


def test_ps_two_replicas_matches_allreduce_at_f64(dataset):
    a, ra = run(
        dataset, n_replicas=2, strategy="allreduce", batch_per_replica=16,
        precision="f64", backend="threads",
    )
    b, rb = run(
        dataset, n_replicas=2, strategy="ps", batch_per_replica=16,
        precision="f64", backend="threads",
    )
    assert np.max(np.abs(a - b)) <= 1e-12
    assert np.allclose(
        [r.val_loss for r in ra.epochs], [r.val_loss for r in rb.epochs],
        rtol=0, atol=1e-12,
    )


@pytest.mark.parametrize("strategy", ["allreduce", "ps", "gossip"])
def test_three_replicas_lockstep_with_uneven_shards(dataset, strategy):
    # 3 ranks: ring chunking is uneven, the server takes three reports a
    # round and every gossip round leaves one rank unmatched; the internal
    # cross-rank equality check in train() would fail loudly on any drift
    (vec, report), (again, report2) = [
        run(dataset, n_replicas=3, strategy=strategy, batch_per_replica=10,
            backend="threads")
        for _ in range(2)
    ]
    assert vec.shape == (MODEL.param_count,)
    assert np.array_equal(vec, again)
    assert [(r.train_loss, r.val_loss) for r in report.epochs] == [
        (r.train_loss, r.val_loss) for r in report2.epochs
    ]


@pytest.mark.parametrize("strategy", ["allreduce", "ps", "gossip"])
def test_threads_and_processes_agree_bitwise(dataset, strategy):
    vec_t, rep_t = run(
        dataset, n_replicas=2, strategy=strategy, batch_per_replica=16,
        backend="threads",
    )
    vec_p, rep_p = run(
        dataset, n_replicas=2, strategy=strategy, batch_per_replica=16,
        backend="processes",
    )
    assert np.array_equal(vec_t, vec_p)
    assert [r.val_loss for r in rep_t.epochs] == [r.val_loss for r in rep_p.epochs]
    assert rep_t.total_messages == rep_p.total_messages
    assert rep_t.total_bytes == rep_p.total_bytes


def test_gossip_actually_differs_from_allreduce(dataset):
    a, _ = run(dataset, n_replicas=2, strategy="allreduce",
               batch_per_replica=16, backend="threads")
    g, _ = run(dataset, n_replicas=2, strategy="gossip",
               batch_per_replica=16, backend="threads")
    assert not np.array_equal(a, g)


def test_gossip_repeat_runs_bit_identical(dataset):
    one, _ = run(dataset, n_replicas=2, strategy="gossip",
                 batch_per_replica=16, backend="processes")
    two, _ = run(dataset, n_replicas=2, strategy="gossip",
                 batch_per_replica=16, backend="processes")
    assert np.array_equal(one, two)


def _record_rank_zero_scoring(monkeypatch):
    """The flat parameters rank 0 scores validation with, epoch by epoch.
    Rank 0 runs in the calling thread on both backends."""
    scored = []
    real = training.probabilities

    def recording(params, batch, model_config, chunk_size=None):
        if threading.current_thread() is threading.main_thread():
            scored.append(flatten_params(params))
        return real(params, batch, model_config, chunk_size)

    monkeypatch.setattr(training, "probabilities", recording)
    return scored


def _assert_epochs_score_as_rank_zero_alone(report, scored, validation, precision):
    assert len(scored) == len(report.epochs)
    for row, theta in zip(report.epochs, scored):
        want = evaluate(network.unflatten_params(theta, MODEL), validation, MODEL,
                        precision=precision)
        assert (row.val_loss, row.val_accuracy, row.val_auroc, row.val_auprc) == (
            want["loss"], want["accuracy"], want["auroc"], want["auprc"])


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("backend", ["threads", "processes"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("strategy", ["allreduce", "ps", "gossip"])
def test_sharded_validation_scores_as_rank_zero_alone(dataset, monkeypatch, strategy, n,
                                                      backend, precision):
    # every rank scores its share; the metrics rank 0 computes from the
    # joined shares are those of one evaluate of the same parameters
    scored = _record_rank_zero_scoring(monkeypatch)
    vec, report = run(dataset, n_replicas=n, strategy=strategy, batch_per_replica=48 // n,
                      precision=precision, backend=backend, epochs_max=2)
    _assert_epochs_score_as_rank_zero_alone(report, scored, dataset.validation, precision)
    # the last epoch scores the final parameters (gossip: the consensus mean)
    assert scored[-1].tobytes() == vec.tobytes()


@pytest.mark.parametrize("strategy", ["allreduce", "ps", "gossip"])
def test_more_replicas_than_validation_records(dataset, monkeypatch, strategy):
    # 2 validation records over 3 ranks: rank 2's share is empty, so it
    # sends an empty vector and runs no forward
    small = Dataset(train=dataset.train, validation=dataset.validation[:2])
    scored = _record_rank_zero_scoring(monkeypatch)
    forwarded = []
    real_forward = network.forward

    def counting_forward(params, batch, model_config):
        forwarded.append(len(batch))
        return real_forward(params, batch, model_config)

    monkeypatch.setattr(network, "forward", counting_forward)
    vec, report = train(TrainConfig(n_replicas=3, strategy=strategy, batch_per_replica=16,
                                    epochs_max=2, early_stopping=False, backend="threads"),
                        MODEL, small)
    steps = len(small.train) // 48
    assert 0 not in forwarded
    assert forwarded.count(1) == 2 * 2  # ranks 0 and 1 score one record each epoch
    assert len(forwarded) == 2 * 3 * steps + 2 * 2
    assert (report.total_messages, report.total_bytes) == _expected_traffic(
        strategy, 3, 2, steps, False, 2, 4)
    _assert_epochs_score_as_rank_zero_alone(report, scored, small.validation, "f32")


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_keyboard_interrupt_in_rank_zero_surfaces_and_leaves_no_rank_behind(
        dataset, monkeypatch, backend):
    real_step = training._AllReduce.step

    def interrupted_step(self, loss):
        self.calls = getattr(self, "calls", 0) + 1
        if self.rank == 0 and self.calls == 3:
            raise KeyboardInterrupt
        return real_step(self, loss)

    monkeypatch.setattr(training._AllReduce, "step", interrupted_step)
    threads_before = set(threading.enumerate())
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run(dataset, n_replicas=3, batch_per_replica=16, backend=backend)
    assert time.perf_counter() - t0 < 10
    assert not mp.active_children()
    assert set(threading.enumerate()) <= threads_before


def _expected_traffic(strategy, n, epochs, steps, early_stopping, validation, itemsize):
    """(messages, bytes) of a run of N replicas, from the protocol.

    Per epoch, ranks 1..N-1 each send rank 0 their share of the
    validation probabilities, and rank 0 sends them a one-element flag
    only with early stopping.  Per step, the ring sends 2N(N-1) chunks of
    the (gradient, loss) vector and the parameter server takes N reports
    and sends N replies; the server gets one halt at the end.  Gossip
    swaps parameters once per pair and step, and gathers the (parameters,
    loss) mean to rank 0 and broadcasts it every epoch.
    """
    carried = MODEL.param_count + 1
    shares = sum(hi - lo for lo, hi in ring_chunks(validation, n)[1:])
    flags = n - 1 if early_stopping else 0
    messages = epochs * (n - 1 + flags)
    elements = epochs * (shares + flags)
    if strategy == "allreduce":
        messages += epochs * steps * 2 * n * (n - 1)
        elements += epochs * steps * 2 * (n - 1) * carried
    elif strategy == "ps":
        messages += epochs * steps * 2 * n + 1
        elements += epochs * steps * 2 * n * carried + 1
    elif n > 1:
        swaps = sum(len(gossip_pairs(n, r)) for r in range(epochs * steps))
        messages += 2 * swaps + epochs * 2 * (n - 1)
        elements += 2 * swaps * (carried - 1) + epochs * 2 * (n - 1) * carried
    return messages, elements * itemsize


def test_message_counts_match_strategy_shape(dataset):
    # 420 train records / 32 global batch = 13 steps/epoch, 3 epochs; with
    # early stopping at the default patience of 5, 3 epochs cannot stop
    steps = (len(dataset.train) // 32) * 3
    for early_stopping in (False, True):
        flags = 3 if early_stopping else 0  # one per epoch, to rank 1
        for strategy, closed_form in [
            ("allreduce", steps * 4 + 3 + flags),  # ring chunks, shares, flags
            ("ps", steps * 4 + 3 + flags + 1),  # reports and replies, shares, flags, halt
            # swaps, shares, flags, per-epoch gather and broadcast
            ("gossip", steps * 2 + 3 + flags + 3 + 3),
        ]:
            _, report = run(dataset, n_replicas=2, strategy=strategy, batch_per_replica=16,
                            backend="threads", early_stopping=early_stopping)
            assert report.stop_reason == "max_epochs"
            messages, _ = _expected_traffic(strategy, 2, 3, len(dataset.train) // 32,
                                            early_stopping, len(dataset.validation), 4)
            assert report.total_messages == messages == closed_form, (strategy,
                                                                      early_stopping)


@pytest.mark.parametrize("precision,itemsize", [("f32", 4), ("f64", 8)])
def test_process_byte_counts_match_the_protocol(dataset, precision, itemsize):
    # every step message is (gradient or params, loss): param_count + 1
    # elements, split into N ring chunks; a validation share is its
    # records' probabilities, and a halt flag is one element
    for n in (2, 3):
        for early_stopping in (False, True):
            for strategy in ("allreduce", "ps", "gossip"):
                _, report = run(dataset, n_replicas=n, strategy=strategy,
                                batch_per_replica=48 // n, precision=precision,
                                backend="processes", early_stopping=early_stopping)
                assert (report.total_messages, report.total_bytes) == _expected_traffic(
                    strategy, n, 3, len(dataset.train) // 48, early_stopping,
                    len(dataset.validation), itemsize), (n, early_stopping, strategy)


@pytest.mark.parametrize("strategy,ranks_stepping", [
    ("allreduce", 1), ("allreduce", 2), ("ps", 1), ("gossip", 2)])
def test_adam_runs_once_per_step_through_the_module_attribute(
        dataset, monkeypatch, strategy, ranks_stepping):
    # the benchmark's tracer times Adam by replacing network.adam_step
    calls = []
    real = network.adam_step

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(network, "adam_step", counted)
    n = 2 if strategy == "ps" else ranks_stepping
    run(dataset, n_replicas=n, strategy=strategy, batch_per_replica=16,
        backend="threads", epochs_max=2)
    steps = len(dataset.train) // (16 * n)
    assert len(calls) == ranks_stepping * steps * 2


@pytest.mark.parametrize("failure,backend", [
    pytest.param("exit", "processes", id="exit"),
    pytest.param("raise", "processes", id="raise"),
    pytest.param("raise", "threads", id="raise-threads"),
])
def test_a_dead_or_failing_worker_aborts_the_group_fast(dataset, monkeypatch, failure,
                                                        backend):
    real_step = training._AllReduce.step

    def failing_step(self, loss):
        self.calls = getattr(self, "calls", 0) + 1  # per rank, on either backend
        if self.rank == 1 and self.calls == 3:
            if failure == "exit":
                os._exit(7)
            raise RuntimeError("rank 1 broke")
        return real_step(self, loss)

    monkeypatch.setattr(training._AllReduce, "step", failing_step)
    expected = {"exit": r"rank 1 exited with code 7",
                "raise": r"rank 1 raised RuntimeError\('rank 1 broke'\)"}[failure]
    threads_before = set(threading.enumerate())
    t0 = time.perf_counter()
    with pytest.raises(DcnnError, match=expected) as excinfo:
        run(dataset, n_replicas=2, batch_per_replica=16, backend=backend)
    assert time.perf_counter() - t0 < 10
    assert not mp.active_children()
    assert set(threading.enumerate()) <= threads_before
    if failure == "raise":  # the worker's traceback crosses with it
        assert "in failing_step" in str(excinfo.value)


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_an_over_buffer_swap_fails_fast_and_leaves_no_rank_behind(backend):
    # each rank sends a 2 MB ring chunk before it receives; a send is bounded too
    links = ProcessLinks(2, np.float32, timeout=0.2)
    vec = np.ones(1_000_000, dtype=np.float32)
    fns = [partial(ring_all_reduce, vec, links.endpoint(rank)) for rank in range(2)]
    threads_before = set(threading.enumerate())
    t0 = time.perf_counter()
    with pytest.raises(DcnnError, match=r"rank ([01]) raised ProtocolError\('rank \1 "
                                        r"timed out sending a message to rank [01]'\)"):
        run_ranks(links, fns, forked=backend == "processes")
    assert time.perf_counter() - t0 < 10
    assert not mp.active_children()
    assert set(threading.enumerate()) <= threads_before


def test_the_parent_waits_for_a_long_healthy_run_without_a_cap(dataset, monkeypatch):
    # a cap on the wait for each rank's outcome would cut this run off
    monkeypatch.setattr(training, "RESULT_WAIT_S", 0.5, raising=False)
    real_probabilities = training.probabilities

    def slow_probabilities(*args, **kwargs):  # on every rank, in parallel
        time.sleep(0.25)
        return real_probabilities(*args, **kwargs)

    monkeypatch.setattr(training, "probabilities", slow_probabilities)
    _vec, report = run(dataset, n_replicas=2, batch_per_replica=16, epochs_max=5)
    assert report.stop_reason == "max_epochs" and len(report.epochs) == 5
    assert report.total_wall_seconds > 1.25


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_thread_runs_close_every_pipe_they_open(dataset, monkeypatch):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    gc.collect()  # close what earlier tests left to the collector
    before = open_fds()
    for strategy in ("allreduce", "ps", "gossip"):
        run(dataset, n_replicas=2, strategy=strategy, batch_per_replica=16,
            backend="threads", epochs_max=1)
    with pytest.raises(TrainingDivergedError) as diverged:
        run(dataset, n_replicas=2, strategy="ps", batch_per_replica=16,
            backend="threads", learning_rate=1e25)
    real_step = training._AllReduce.step

    def failing_step(self, loss):
        if self.rank == 1:
            raise RuntimeError("rank 1 broke")
        return real_step(self, loss)

    monkeypatch.setattr(training._AllReduce, "step", failing_step)
    with pytest.raises(DcnnError, match="rank 1 raised") as failed:
        run(dataset, n_replicas=2, batch_per_replica=16, backend="threads")
    # diverged and failed still hold the runs' frames: only close() frees their pipes
    assert open_fds() == before


def test_gossip_period_reduces_messages(dataset):
    _, dense = run(dataset, n_replicas=2, strategy="gossip",
                   batch_per_replica=16, backend="threads", gossip_period=1)
    _, sparse = run(dataset, n_replicas=2, strategy="gossip",
                    batch_per_replica=16, backend="threads", gossip_period=5)
    assert sparse.total_messages < dense.total_messages


# ---------------------------------------------------------------------------
# divergence


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_partial_report(dataset):
    with pytest.raises(TrainingDivergedError) as excinfo:
        train(
            TrainConfig(epochs_max=5, batch_per_replica=32,
                        learning_rate=1e25),
            MODEL, dataset,
        )
    exc = excinfo.value
    assert exc.last_good_epoch == -1
    assert exc.partial_report is not None
    assert exc.partial_report.stop_reason == "diverged"
    assert exc.partial_report.epochs == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "strategy,backend",
    [("allreduce", "threads"), ("allreduce", "processes"), ("ps", "threads"),
     ("ps", "processes"), ("gossip", "threads"), ("gossip", "processes")],
)
def test_divergence_shuts_down_multi_replica_runs(dataset, strategy, backend):
    with pytest.raises(TrainingDivergedError) as excinfo:
        train(
            TrainConfig(n_replicas=2, strategy=strategy, backend=backend,
                        epochs_max=5, batch_per_replica=16,
                        learning_rate=1e25),
            MODEL, dataset,
        )
    assert excinfo.value.partial_report.stop_reason == "diverged"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("strategy", ["allreduce", "ps", "gossip"])
def test_an_overflowing_adam_second_moment_is_a_divergence(strategy):
    # at this rate Adam's bias-corrected second moment overflows f32 at
    # the first step while the gradient, the loss and the parameters stay
    # finite; unchecked, every update is 0 from there and the run ends
    # "max_epochs" at accuracy 0.5
    sim = SimConfig(seq_length=120, n_positive=60, n_negative=60, seed=3)
    train_recs, test_recs, val_recs = split(generate_dataset(sim, default_tal1_pwm()),
                                            SplitSpec(seed=3))
    with pytest.raises(TrainingDivergedError) as excinfo:
        train(TrainConfig(n_replicas=2, strategy=strategy, backend="processes",
                          batch_per_replica=8, epochs_max=3, early_stopping=False,
                          learning_rate=1e19, seed=3),
              ModelConfig(seq_length=120),
              Dataset(train=train_recs, validation=val_recs, test=test_recs))
    assert excinfo.value.last_good_epoch == -1
    assert excinfo.value.partial_report.stop_reason == "diverged"


def _patch(monkeypatch, patches):
    """Apply the (object, attribute, value) patches of an identity-sweep
    fault, so that the tests and the sweep inject the same fault."""
    for obj, name, value in patches:
        monkeypatch.setattr(obj, name, value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_divergence_raises_rank_zeros_report_even_when_rank_zero_ends_last(
        dataset, monkeypatch, backend):
    _patch(monkeypatch, identity_sweep().nan_loss_at_step("allreduce", 40, ranks=(0, 1)))
    real_stop = training._Replica.stop

    def slow_stop(self):
        if self.rank == 0:
            time.sleep(0.2)
        real_stop(self)

    monkeypatch.setattr(training._Replica, "stop", slow_stop)
    with pytest.raises(TrainingDivergedError) as excinfo:
        run(dataset, n_replicas=2, batch_per_replica=16, backend=backend, epochs_max=5)
    # 13 steps per epoch: step 40 is in epoch 3, after three good epochs
    assert excinfo.value.last_good_epoch == 2
    assert len(excinfo.value.partial_report.epochs) == 3


def _spy_on_endpoint_stats(monkeypatch):
    """A queue that gets (messages, bytes) of each rank's endpoint, the
    server's included, as its loop ends, on either backend."""
    ended = mp.get_context("fork").SimpleQueue()

    def spy(loop, endpoint_of):
        def wrapper(*args):
            try:
                return loop(*args)
            finally:
                stats = endpoint_of(args).stats
                ended.put((stats.messages, stats.bytes))
        return wrapper

    monkeypatch.setattr(training, "_worker_loop",
                        spy(training._worker_loop, lambda args: args[1]))
    monkeypatch.setattr(training, "_server_loop",
                        spy(training._server_loop, lambda args: args[0]))
    return ended


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("backend", ["threads", "processes"])
@pytest.mark.parametrize("strategy", ["allreduce", "ps", "gossip"])
def test_partial_report_counts_every_ranks_traffic(dataset, monkeypatch, strategy,
                                                   backend):
    ended = _spy_on_endpoint_stats(monkeypatch)
    _patch(monkeypatch, identity_sweep().nan_loss_at_step(strategy, 40, ranks=(0, 1)))
    with pytest.raises(TrainingDivergedError) as excinfo:
        run(dataset, n_replicas=2, strategy=strategy, batch_per_replica=16,
            backend=backend, epochs_max=5)
    per_rank = []
    while not ended.empty():
        per_rank.append(ended.get())
    ended.close()
    assert len(per_rank) == (3 if strategy == "ps" else 2)
    partial = excinfo.value.partial_report
    assert excinfo.value.last_good_epoch == 2 and len(partial.epochs) == 3
    assert partial.total_messages == sum(messages for messages, _ in per_rank)
    assert partial.total_bytes == sum(nbytes for _, nbytes in per_rank)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_gossip_divergence_rank_zero_alone_finds_in_the_last_epoch_fails_the_run(
        dataset, monkeypatch, backend):
    # rank 0 alone finds the last epoch's val loss NaN and ends diverged,
    # while rank 1 ends its loop normally: rank 0's report decides the run
    ended = _spy_on_endpoint_stats(monkeypatch)
    _patch(monkeypatch, identity_sweep().nan_scores_in_epoch(2))
    with pytest.raises(TrainingDivergedError) as excinfo:
        run(dataset, n_replicas=2, strategy="gossip", batch_per_replica=16,
            backend=backend, epochs_max=3, early_stopping=False)
    per_rank = []
    while not ended.empty():
        per_rank.append(ended.get())
    ended.close()
    assert len(per_rank) == 2
    exc = excinfo.value
    assert exc.last_good_epoch == 1
    assert [row.epoch for row in exc.partial_report.epochs] == [0, 1, 2]
    assert np.isnan(exc.partial_report.epochs[-1].val_loss)
    assert exc.partial_report.total_messages == sum(m for m, _ in per_rank)
    assert exc.partial_report.total_bytes == sum(b for _, b in per_rank)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gossip_rank_that_diverges_alone_ends_the_run_on_both_backends(
        dataset, monkeypatch):
    _patch(monkeypatch, identity_sweep().nan_loss_at_step("gossip", 40, ranks=(1,)))
    reports = {}
    for backend in ("threads", "processes"):
        t0 = time.perf_counter()
        with pytest.raises(TrainingDivergedError) as excinfo:
            run(dataset, n_replicas=2, strategy="gossip", batch_per_replica=16,
                backend=backend, epochs_max=5)
        assert time.perf_counter() - t0 < 10
        exc = excinfo.value
        reports[backend] = (exc.last_good_epoch, [
            {k: v for k, v in vars(row).items()
             if k not in ("wall_seconds", "sequences_per_second")}
            for row in exc.partial_report.epochs
        ])
    assert reports["threads"][0] == 2  # rank 0's report, not rank 1's empty one
    assert reports["threads"] == reports["processes"]


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_single_class_marks_rank_metrics_undefined(dataset):
    negatives = [r for r in dataset.validation if r.label == 0]
    params = init_params(MODEL, seed=0)
    out = evaluate(params, negatives, MODEL)
    assert np.isfinite(out["loss"])
    assert 0.0 <= out["accuracy"] <= 1.0
    assert out["auroc"] is None
    assert out["auprc"] is None


def test_evaluate_is_chunk_size_invariant(dataset):
    records = dataset.validation
    n = len(records)
    for precision in ("f32", "f64"):
        dtype = dtype_for(precision)
        params = init_params(MODEL, seed=0, dtype=dtype)
        batch = encode_batch(records, dtype=dtype)
        default = training.EVAL_CHUNK_BYTES // (
            MODEL.conv_out_length * MODEL.n_filters * dtype.itemsize)
        assert 1 < default < n  # the derived chunk splits this batch unevenly
        want = scores(probabilities(params, batch, MODEL, chunk_size=n), batch.labels)
        assert want["auroc"] is not None
        assert evaluate(params, records, MODEL, precision=precision) == want
        for chunk in (1, 7, default, n + 5):
            got = scores(probabilities(params, batch, MODEL, chunk_size=chunk), batch.labels)
            assert got == want, (precision, chunk)
        # each record's probability is the same whatever rows share its
        # forward pass (the conv's k-mer length and dense_forward's einsum
        # both see the chunk's shape)
        whole = network.forward(params, batch, MODEL)[0]
        for size in (1, 7, default):
            parts = np.concatenate([network.forward(params, batch.rows(s, s + size), MODEL)[0]
                                    for s in range(0, n, size)])
            assert parts.dtype == dtype and parts.tobytes() == whole.tobytes(), (precision, size)


def test_evaluate_rejects_empty_records():
    with pytest.raises(ValidationError):
        evaluate(init_params(MODEL, seed=0), [], MODEL)


# ---------------------------------------------------------------------------
# guard rails and reporting


def test_train_rejects_undersized_split(dataset):
    tiny = Dataset(train=dataset.train[:10], validation=dataset.validation)
    with pytest.raises(ValidationError, match="smaller than"):
        train(TrainConfig(batch_per_replica=64), MODEL, tiny)


def test_train_rejects_empty_validation(dataset):
    with pytest.raises(ValidationError, match="validation"):
        train(
            TrainConfig(batch_per_replica=32),
            MODEL,
            Dataset(train=dataset.train, validation=[]),
        )


def test_train_rejects_records_of_unequal_length(dataset):
    short = replace(dataset.validation[1], bases=dataset.validation[1].bases[:12])
    ragged = [dataset.validation[0], short]
    with pytest.raises(ValidationError, match=rf"record 1 \({short.id}\) has 12 bases"):
        train(TrainConfig(batch_per_replica=32), MODEL,
              Dataset(train=dataset.train, validation=ragged))


def test_report_fields_are_consistent(dataset):
    t0 = time.perf_counter()
    _vec, report = run(dataset, n_replicas=1, batch_per_replica=32)
    caller_wall = time.perf_counter() - t0
    steps = len(dataset.train) // 32
    for row in report.epochs:
        assert row.wall_seconds > 0
        expected_rate = steps * 32 / row.wall_seconds
        assert np.isclose(row.sequences_per_second, expected_rate, rtol=1e-6)
    epoch_walls = sum(r.wall_seconds for r in report.epochs)
    assert epoch_walls <= report.total_wall_seconds <= caller_wall
    assert report.stop_reason == "max_epochs"


@pytest.mark.parametrize(
    "strategy,backend", [("ps", "processes"), ("allreduce", "threads")]
)
def test_total_wall_times_the_whole_train_call(dataset, strategy, backend):
    # fork, per-epoch validation and the final aggregation count too
    t0 = time.perf_counter()
    _vec, report = run(dataset, n_replicas=2, strategy=strategy, backend=backend,
                       batch_per_replica=16, epochs_max=2)
    caller_wall = time.perf_counter() - t0
    epoch_walls = sum(r.wall_seconds for r in report.epochs)
    assert epoch_walls < report.total_wall_seconds <= caller_wall


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_partial_report_times_the_whole_train_call(dataset):
    t0 = time.perf_counter()
    with pytest.raises(TrainingDivergedError) as excinfo:
        train(
            TrainConfig(n_replicas=2, strategy="ps", epochs_max=5,
                        batch_per_replica=16, learning_rate=1e25),
            MODEL, dataset,
        )
    caller_wall = time.perf_counter() - t0
    assert 0 < excinfo.value.partial_report.total_wall_seconds <= caller_wall


def test_report_serialization_roundtrip(tmp_path, dataset):
    _vec, report = run(dataset, n_replicas=1, batch_per_replica=32)
    json_path = tmp_path / "report.json"
    write_json(json_path, asdict(report))
    loaded = json.loads(json_path.read_text())
    assert loaded["stop_reason"] == "max_epochs"
    assert len(loaded["epochs"]) == len(report.epochs)
    assert loaded["epochs"][0]["val_loss"] == pytest.approx(
        report.epochs[0].val_loss
    )
    assert loaded["config"]["global_batch"] == 32

    csv_path = tmp_path / "curves.csv"
    write_curves_csv(report, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == (
        "epoch,train_loss,val_loss,val_acc,val_auroc,val_auprc,wall_s"
    )
    assert len(lines) == 1 + len(report.epochs)


def test_curves_csv_writes_empty_cell_for_undefined_metrics(tmp_path):
    report = TrainReport(
        config={}, epochs=[
            EpochMetrics(epoch=0, train_loss=0.5, val_loss=0.6,
                         val_accuracy=0.7, val_auroc=None, val_auprc=None,
                         wall_seconds=1.0, sequences_per_second=100.0)
        ],
        total_wall_seconds=1.0, total_messages=0, total_bytes=0,
        stop_reason="max_epochs",
    )
    path = tmp_path / "curves.csv"
    write_curves_csv(report, path)
    row = path.read_text().strip().splitlines()[1].split(",")
    assert row[4] == "" and row[5] == ""
    report_json = tmp_path / "report.json"
    write_json(report_json, asdict(report))
    loaded = json.loads(report_json.read_text())
    assert loaded["epochs"][0]["val_auroc"] is None
