"""Acceptance gate: eight end-to-end criteria, one per test, each
printing a single PASS/FAIL line (run with ``pytest -s`` to see them
live).  Tolerances are pinned in the assertions; fixtures at the top
hold the shared datasets and training runs.
"""

import functools
import os

import numpy as np
import pytest

from dcnn import network as nw
from dcnn.benchmark import format_benchmark_table, run_benchmark
from dcnn.collective import (
    gather_sum,
    gossip_exchange,
    gossip_finalize_exchange,
    ring_all_reduce,
)
from dcnn.genome import (
    SequenceRecord,
    SimConfig,
    default_tal1_pwm,
    generate_dataset,
    read_fasta,
    write_fasta,
)
from dcnn.kernels import conv1d_forward
from dcnn.metrics import auprc, auroc
from dcnn.pipeline import Batch, SplitSpec, encode_batch, split
from dcnn.training import Dataset, TrainConfig, train
from helpers import max_relative_error, numerical_gradient, run_group
from oracles import (
    brute_force_auroc,
    decode,
    dense_backward,
    dense_forward,
    exhaustive_average_precision,
    one_hot_inputs,
)


def criterion(number, title):
    """Print one PASS/FAIL line per criterion, then let pytest report."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE] criterion {number} ({title}): FAIL")
                raise
            print(f"\n[ACCEPTANCE] criterion {number} ({title}): PASS")

        return wrapper

    return decorate


def physical_cores() -> int:
    """Distinct (physical id, core id) pairs, capped by the scheduler
    affinity mask; falls back to the logical count."""
    try:
        cores = set()
        package = "0"
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("physical id"):
                    package = line.split(":")[1].strip()
                elif line.startswith("core id"):
                    cores.add((package, line.split(":")[1].strip()))
        count = len(cores) if cores else (os.cpu_count() or 1)
    except OSError:
        count = os.cpu_count() or 1
    try:
        count = min(count, len(os.sched_getaffinity(0)))
    except AttributeError:
        pass
    return max(count, 1)


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def quality_run():
    """4000 sequences x length 500, defaults, 1 worker, 30-epoch cap."""
    sim = SimConfig(seq_length=500, n_positive=2000, n_negative=2000, seed=0)
    records = generate_dataset(sim, default_tal1_pwm())
    train_recs, test_recs, val_recs = split(records, SplitSpec(seed=0))
    dataset = Dataset(train=train_recs, validation=val_recs, test=test_recs)
    config = TrainConfig(n_replicas=1, epochs_max=30, batch_per_replica=64, seed=0)
    params, report = train(config, nw.ModelConfig(seq_length=500), dataset)
    return params, report


@pytest.fixture(scope="module")
def equivalence_dataset():
    """2000 sequences x length 200: 1400 train records = 5 steps/epoch
    at global batch 256, so 20 epochs = exactly 100 optimizer steps."""
    sim = SimConfig(seq_length=200, n_positive=1000, n_negative=1000, seed=11)
    records = generate_dataset(sim, default_tal1_pwm())
    train_recs, test_recs, val_recs = split(records, SplitSpec(seed=11))
    assert len(train_recs) // 256 == 5
    return Dataset(train=train_recs, validation=val_recs, test=test_recs)


TINY_MODEL = nw.ModelConfig(
    seq_length=200, n_filters=6, filter_width=10, pool_window=10, pool_stride=10
)


# ---------------------------------------------------------------------------
# 1. classification quality at desk scale


@criterion(1, "desk-scale quality: val accuracy >= 0.90, auROC >= 0.95")
def test_criterion_1_quality(quality_run):
    _params, report = quality_run
    assert len(report.epochs) <= 30
    best_accuracy = max(row.val_accuracy for row in report.epochs)
    best_auroc = max(row.val_auroc for row in report.epochs)
    print(
        f"\n  epochs={len(report.epochs)} "
        f"best val accuracy={best_accuracy:.4f} best auROC={best_auroc:.4f} "
        f"training wall={report.total_wall_seconds:.0f}s"
    )
    assert best_accuracy >= 0.90
    assert best_auroc >= 0.95


# ---------------------------------------------------------------------------
# 2. large-batch equivalence after 100 steps


@criterion(2, "N=4 x batch 64 matches N=1 x batch 256 after 100 steps")
def test_criterion_2_large_batch_equivalence(equivalence_dataset):
    for precision, bound in (("f32", 1e-4), ("f64", 1e-8)):
        single, _ = train(
            TrainConfig(
                n_replicas=1, batch_per_replica=256, epochs_max=20, seed=0,
                precision=precision, early_stopping=False,
            ),
            TINY_MODEL, equivalence_dataset,
        )
        sharded, report = train(
            TrainConfig(
                n_replicas=4, batch_per_replica=64, epochs_max=20, seed=0,
                precision=precision, early_stopping=False, backend="threads",
            ),
            TINY_MODEL, equivalence_dataset,
        )
        assert len(report.epochs) == 20  # 5 steps per epoch -> 100 steps
        gap = np.max(
            np.abs(nw.flatten_params(single) - nw.flatten_params(sharded))
        )
        print(f"\n  {precision}: parameter L_inf after 100 steps = {gap:.3e}")
        assert gap <= bound, f"{precision}: {gap} > {bound}"


# ---------------------------------------------------------------------------
# 3. ring all-reduce against the gather-sum oracle


def _ring_on_threads(vectors):
    fns = [(lambda ep, vec=vec: ring_all_reduce(vec, ep)) for vec in vectors]
    outs, stats = run_group(fns, vectors[0].dtype, timeout=30.0)
    return outs, stats.messages


@criterion(3, "ring all-reduce == gather-sum, 2N(N-1) messages")
def test_criterion_3_collective_oracle():
    worst_rel = 0.0
    for n in (1, 2, 3, 4, 8):
        for dim in (1, 5, 1246, 10_000):
            int_rng = np.random.default_rng(1000 * n + dim)
            int_vectors = [
                int_rng.integers(-1_000, 1_000, size=dim).astype(np.int64)
                for _ in range(n)
            ]
            outs, messages = _ring_on_threads(int_vectors)
            exact = gather_sum(int_vectors)
            for out in outs:
                assert np.array_equal(out, exact), (n, dim)
            assert messages == 2 * n * (n - 1), (n, dim)

            f_rng = np.random.default_rng(2000 * n + dim)
            f_vectors = [
                f_rng.normal(size=dim).astype(np.float32) for _ in range(n)
            ]
            outs, _ = _ring_on_threads(f_vectors)
            reference = gather_sum(
                [v.astype(np.float64) for v in f_vectors]
            )
            # relative to the summand magnitude (forward-error bound);
            # elementwise denominators collapse when terms cancel
            scale = np.maximum(
                gather_sum([np.abs(v).astype(np.float64) for v in f_vectors]),
                1e-12,
            )
            for out in outs:
                rel = np.max(np.abs(out.astype(np.float64) - reference) / scale)
                worst_rel = max(worst_rel, rel)
                assert rel <= 1e-6, (n, dim, rel)
    print(f"\n  worst f32 relative error: {worst_rel:.2e}")


# ---------------------------------------------------------------------------
# 4. analytic gradients vs central finite differences


@criterion(4, "backward pass matches finite differences at f64")
def test_criterion_4_gradient_check():
    config = nw.ModelConfig(
        seq_length=50, n_filters=2, filter_width=5, pool_window=5, pool_stride=5
    )
    params = nw.init_params(config, seed=0, dtype=np.float64)
    vec = nw.flatten_params(params)

    def check(label, loss_at, analytic, z, winners_tie):
        # the loss must be differentiable at this point: every
        # pre-activation ``z`` away from the relu kink, and every pooling
        # window's winner ahead of its runner-up (or tied with it for good)
        assert np.abs(z).min() > 1e-3
        activations = np.maximum(z, 0.0)
        for b in range(z.shape[0]):
            for f in range(config.n_filters):
                for start in range(0, z.shape[1] - 5 + 1, 5):
                    rows = start + np.argsort(-activations[b, start : start + 5, f],
                                              kind="stable")
                    top, second = activations[b, rows[:2], f]
                    assert top == 0.0 or top - second > 1e-2 or winners_tie(b, *rows[:2])

        numeric = numerical_gradient(loss_at, vec)
        err = max_relative_error(analytic, numeric)
        print(f"\n  {label}: max relative gradient error {err:.2e}")
        assert err <= 1e-4
        got = nw.unflatten_grads(analytic, config)
        want = nw.unflatten_grads(numeric, config)
        for name in ("conv_filters", "conv_bias", "dense_weights", "dense_bias"):
            assert np.abs(getattr(got, name)).max() > 0, name
            assert max_relative_error(getattr(got, name), getattr(want, name)) <= 1e-4, name

    # the training path: a base-code batch through network.forward/backward.
    # Two rows that read the same k-mer score the same under any
    # parameters, so such a pair may tie for the win and stay tied.
    rng = np.random.default_rng(1)
    codes = rng.integers(0, 4, size=(4, 50)).astype(np.uint8)
    labels = rng.integers(0, 2, size=4).astype(np.float64)
    batch = Batch(codes, labels)
    _, cache = nw.forward(params, batch, config)
    analytic = nw.flatten_grads(nw.backward(params, cache, labels, config))

    def loss_at():
        p, _ = nw.forward(nw.unflatten_params(vec, config), batch, config)
        return nw.bce_loss(p, labels)

    def same_kmer(b, r1, r2):
        return np.array_equal(codes[b, r1 : r1 + 5], codes[b, r2 : r2 + 5])

    z = conv1d_forward(one_hot_inputs(batch), params.conv_filters, params.conv_bias)
    check("base codes", loss_at, analytic, z, same_kmer)

    # the dense oracle on dense random floats, where no two rows tie
    rng = np.random.default_rng(99)
    inputs = rng.normal(size=(4, 50, 4))
    labels = rng.integers(0, 2, size=4).astype(np.float64)
    _, cache = dense_forward(params, inputs, config)
    analytic = nw.flatten_grads(dense_backward(params, cache, labels, config))

    def dense_loss_at():
        p, _ = dense_forward(nw.unflatten_params(vec, config), inputs, config)
        return nw.bce_loss(p, labels)

    check("dense oracle", dense_loss_at, analytic, cache.conv_out,
          lambda b, r1, r2: False)


# ---------------------------------------------------------------------------
# 5. training-time scaling benchmark


@criterion(5, "scaling harness: table emitted; 4-worker speedup on >=4 cores")
def test_criterion_5_scaling_benchmark():
    sim = SimConfig(seq_length=1500, n_positive=1100, n_negative=1100, seed=42)
    records = generate_dataset(sim, default_tal1_pwm())
    train_recs, test_recs, val_recs = split(records, SplitSpec(seed=42))
    dataset = Dataset(train=train_recs, validation=val_recs, test=test_recs)
    config = TrainConfig(strategy="allreduce", epochs_max=2, batch_per_replica=256,
                         seed=42, backend="processes")
    rows = run_benchmark(config, (1, 2, 4), nw.ModelConfig(seq_length=1500), dataset)
    table = format_benchmark_table(rows)
    print("\n" + table)

    assert [row.workers for row in rows] == [1, 2, 4]
    assert all(row.error is None for row in rows)
    assert rows[0].speedup == 1.0
    assert all(row.speedup is not None for row in rows)
    assert "speedup" in table.splitlines()[0]
    # fixed global batch: every row trains the same model
    assert max(r.final_accuracy for r in rows) - min(
        r.final_accuracy for r in rows
    ) <= 0.02

    cores = physical_cores()
    if cores >= 4:
        speedup_4 = rows[2].speedup
        print(f"  {cores} physical cores: 4-worker speedup = {speedup_4:.2f}x")
        assert speedup_4 >= 1.8
    else:
        print(
            f"  only {cores} physical core(s): speedup threshold not "
            f"assessable on this host; table and speedup column verified"
        )


# ---------------------------------------------------------------------------
# 6. metric implementations vs brute force


@criterion(6, "auROC/auPRC match exhaustive oracles")
def test_criterion_6_metric_oracles():
    assert auroc(
        np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1])
    ) == pytest.approx(0.75, abs=1e-15)

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), int(rng.integers(1, 4)))
        gap = abs(auroc(scores, labels) - brute_force_auroc(scores, labels))
        worst = max(worst, gap)
    assert worst <= 1e-12
    print(f"\n  1000 random auROC cases, worst |error| = {worst:.2e}")

    score_rng = np.random.default_rng(7)
    scores = np.round(score_rng.random(8), 1)  # coarse grid forces ties
    for pattern in range(256):
        labels = np.array([(pattern >> i) & 1 for i in range(8)])
        if not labels.any():
            assert auprc(scores, labels) is None
            continue
        expected = exhaustive_average_precision(scores, labels)
        assert auprc(scores, labels) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# 7. determinism and round trips


@criterion(7, "determinism, lossless round trips, canonical split sizes")
def test_criterion_7_determinism_and_round_trips(tmp_path):
    records = generate_dataset(SimConfig(), default_tal1_pwm())
    assert len(records) == 20_000
    assert sum(r.label for r in records) == 10_000
    train_recs, test_recs, val_recs = split(records, SplitSpec())
    assert (len(train_recs), len(test_recs), len(val_recs)) == (
        14_000, 2_000, 4_000,
    )

    # FASTA round trip is lossless and re-serialization is byte-identical
    fasta_path = tmp_path / "subset.fasta"
    subset = records[:200] + records[-200:]
    write_fasta(subset, fasta_path)
    recovered = read_fasta(fasta_path)
    assert recovered == subset
    second_path = tmp_path / "again.fasta"
    write_fasta(recovered, second_path)
    assert second_path.read_bytes() == fasta_path.read_bytes()

    # one-hot encoding and decode are inverse on random sequences
    base_rng = np.random.default_rng(5)
    sequences = ["".join(base_rng.choice(list("ACGT"), size=77)) for _ in range(500)]
    batch = encode_batch([SequenceRecord(f"r{i}", s, 0, []) for i, s in enumerate(sequences)])
    for sequence, encoded in zip(sequences, one_hot_inputs(batch)):
        assert decode(encoded) == sequence

    # identical seed + config -> byte-identical checkpoints
    sim = SimConfig(seq_length=200, n_positive=150, n_negative=150, seed=1)
    small = generate_dataset(sim, default_tal1_pwm())
    tr, te, va = split(small, SplitSpec(seed=1))
    dataset = Dataset(train=tr, validation=va, test=te)
    config = TrainConfig(
        n_replicas=1, epochs_max=2, batch_per_replica=32, seed=9,
        early_stopping=False,
    )
    paths = []
    for name in ("one.ckpt", "two.ckpt"):
        params, _ = train(config, TINY_MODEL, dataset)
        path = tmp_path / name
        nw.save_checkpoint(params, TINY_MODEL, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    # checkpoint round trip restores tensors bit-for-bit plus the config
    loaded, loaded_config = nw.load_checkpoint(paths[0])
    final_params, _ = train(config, TINY_MODEL, dataset)
    assert loaded_config == TINY_MODEL
    assert np.array_equal(
        nw.flatten_params(loaded), nw.flatten_params(final_params)
    )
    print("\n  20000-record generation, splits, and round trips all exact")


# ---------------------------------------------------------------------------
# 8. gossip averaging properties


def gossip_on_ranks(vectors, exchange):
    """``exchange(endpoint, vector)`` concurrently on one thread rank per
    vector, as training runs it; the results in rank order."""
    fns = [(lambda ep, vec=vec: exchange(ep, vec)) for vec in vectors]
    return run_group(fns, vectors[0].dtype)[0]


@criterion(8, "gossip conserves the mean and contracts the spread")
def test_criterion_8_gossip_properties():
    # integer fixture: pair means stay integral, so conservation is exact
    int_params = [
        np.array([0, 100], dtype=np.int64),
        np.array([4, 96], dtype=np.int64),
        np.array([8, 104], dtype=np.int64),
        np.array([12, 100], dtype=np.int64),
    ]
    total = gather_sum(int_params)
    state = [p.copy() for p in int_params]
    for round_index in range(5):
        state = gossip_on_ranks(
            state, lambda ep, vec, r=round_index: gossip_exchange(ep, r, vec)
        )
        assert np.array_equal(gather_sum(state), total), round_index

    finalized = gossip_on_ranks(state, gossip_finalize_exchange)
    spread_after = max(
        np.max(np.abs(a - b)) for a in finalized for b in finalized
    )
    assert spread_after == 0

    # spread over 5 rounds on the scalar fixture: strict decrease until
    # exact consensus, flat at zero afterwards
    scalar = [np.array([float(v)]) for v in (0.0, 4.0, 8.0, 12.0)]
    spreads = [float(np.ptp([v[0] for v in scalar]))]
    for round_index in range(5):
        scalar = gossip_on_ranks(
            scalar, lambda ep, vec, r=round_index: gossip_exchange(ep, r, vec)
        )
        spreads.append(float(np.ptp([v[0] for v in scalar])))
    print(f"\n  spread trajectory: {spreads}")
    assert spreads == [12.0, 8.0, 0.0, 0.0, 0.0, 0.0]
    for before, after in zip(spreads, spreads[1:]):
        assert after < before or before == 0.0
