"""Tests for the CNN: shapes, loss, gradients, Adam, checkpoints."""

import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from dcnn import network as nw
from dcnn.errors import (
    CheckpointError,
    InternalConsistencyError,
    ShapeError,
    TrainingDivergedError,
    ValidationError,
)
from dcnn.genome import Pwm, SequenceRecord, SimConfig, generate_dataset
from dcnn.pipeline import Batch, encode_batch
from oracles import conv_scatter_in_carry_order, dense_backward, dense_forward, one_hot_inputs

TINY = nw.ModelConfig(
    n_filters=2, filter_width=5, pool_window=5, pool_stride=5, seq_length=50
)


def random_batch(n, length, seed, dtype=np.float32):
    rng = np.random.Generator(np.random.PCG64(seed))
    records = []
    for i in range(n):
        bases = "".join(rng.choice(list("ACGT"), size=length))
        label = i % 2
        records.append(SequenceRecord(f"s{i}", bases, label, [0] if label else []))
    return encode_batch(records, dtype=dtype)


class TestModelConfig:
    def test_derived_dimensions_default(self):
        cfg = nw.ModelConfig()
        assert cfg.conv_out_length == 1491
        assert cfg.pool_out_length == 42
        assert cfg.flat_dim == 630
        assert cfg.param_count == 1246

    def test_derived_dimensions_short(self):
        cfg = nw.ModelConfig(seq_length=500)
        assert cfg.conv_out_length == 491
        assert cfg.flat_dim == 14 * 15

    def test_tiny_dimensions(self):
        assert TINY.conv_out_length == 46
        assert TINY.pool_out_length == 9
        assert TINY.flat_dim == 18
        assert TINY.param_count == 61
        assert TINY.read_length == 49

    @pytest.mark.parametrize("length,window,stride,read", [
        (200, 35, 35, 184),  # 175 of 191 conv rows reach the pool
        (1500, 35, 35, 1479),  # 1470 of 1491
        (200, 10, 4, 199),  # overlapping windows: 190 of 191
        (200, 9, 12, 198),  # gapped windows: 189 of 191
        (50, 41, 1, 50),  # every row
    ])
    def test_read_length_is_what_the_pool_reaches(self, length, window, stride, read):
        cfg = nw.ModelConfig(seq_length=length, pool_window=window, pool_stride=stride)
        assert cfg.read_length == read
        last_row = (cfg.pool_out_length - 1) * stride + window - 1
        assert read == last_row + cfg.filter_width

    def test_validation(self):
        with pytest.raises(ValidationError, match="seq_length"):
            nw.ModelConfig(seq_length=5)
        with pytest.raises(ValidationError, match="pool_window"):
            nw.ModelConfig(seq_length=40, pool_window=35)
        with pytest.raises(ValidationError, match="conv_activation"):
            nw.ModelConfig(conv_activation="tanh")
        with pytest.raises(ValidationError, match="n_filters"):
            nw.ModelConfig(n_filters=0)


class TestInitParams:
    def test_deterministic_by_seed(self):
        a = nw.init_params(TINY, seed=7)
        b = nw.init_params(TINY, seed=7)
        assert np.array_equal(a.conv_filters, b.conv_filters)
        assert np.array_equal(a.dense_weights, b.dense_weights)
        c = nw.init_params(TINY, seed=8)
        assert not np.array_equal(a.conv_filters, c.conv_filters)

    def test_glorot_bounds(self):
        cfg = nw.ModelConfig()
        params = nw.init_params(cfg, seed=0)
        conv_bound = math.sqrt(6.0 / (10 * 4 + 10 * 15))
        dense_bound = math.sqrt(6.0 / (630 + 1))
        assert np.abs(params.conv_filters).max() <= conv_bound
        assert np.abs(params.dense_weights).max() <= dense_bound
        # the draws should actually exercise most of the interval
        assert np.abs(params.conv_filters).max() > 0.9 * conv_bound

    def test_biases_zero(self):
        params = nw.init_params(TINY, seed=3)
        assert np.array_equal(params.conv_bias, np.zeros(2, dtype=np.float32))
        assert params.dense_bias == 0.0

    def test_dtype(self):
        assert nw.init_params(TINY, 0).conv_filters.dtype == np.float32
        assert nw.init_params(TINY, 0, dtype=np.float64).conv_filters.dtype == np.float64


class TestForward:
    def test_zero_dense_gives_half(self):
        params = nw.init_params(TINY, seed=1)
        params.dense_weights[:] = 0
        params.dense_bias = np.zeros((), dtype=np.float32)
        batch = random_batch(6, 50, seed=2)
        probs, _ = nw.forward(params, batch, TINY)
        assert np.array_equal(probs, np.full(6, 0.5, dtype=np.float32))

    def test_probs_strictly_inside_unit_interval(self):
        params = nw.init_params(TINY, seed=5)
        batch = random_batch(16, 50, seed=6)
        probs, _ = nw.forward(params, batch, TINY)
        assert probs.shape == (16,)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_forward_is_pure(self):
        params = nw.init_params(TINY, seed=9)
        batch = random_batch(4, 50, seed=10)
        p1, _ = nw.forward(params, batch, TINY)
        p2, _ = nw.forward(params, batch, TINY)
        assert np.array_equal(p1, p2)

    def test_length_mismatch_rejected(self):
        params = nw.init_params(TINY, seed=0)
        batch = random_batch(2, 60, seed=0)
        with pytest.raises(ShapeError, match=r"uint8 \[B, 50\]"):
            nw.forward(params, batch, TINY)

    def test_batch_without_codes_rejected(self):
        # one-hot inputs are not a model input: the error names the codes
        params = nw.init_params(TINY, seed=0)
        batch = random_batch(2, 50, seed=0)
        dense = SimpleNamespace(inputs=one_hot_inputs(batch), labels=batch.labels)
        with pytest.raises(ShapeError, match=r"batch codes \(none\) .* uint8 \[B, 50\]"):
            nw.forward(params, dense, TINY)
        wide = SimpleNamespace(codes=batch.codes.astype(np.int64), labels=batch.labels)
        with pytest.raises(ShapeError, match=r"\(int64 \(2, 50\)\) .* uint8 \[B, 50\]"):
            nw.forward(params, wide, TINY)
        flat = SimpleNamespace(codes=batch.codes.reshape(-1), labels=batch.labels)
        with pytest.raises(ShapeError, match=r"uint8 \[B, 50\]"):
            nw.forward(params, flat, TINY)

    def test_codes_outside_0_3_rejected(self):
        params = nw.init_params(TINY, seed=0)
        codes = np.zeros((1, 50), dtype=np.uint8)
        codes[0, 7] = 4
        with pytest.raises(ValidationError, match="0-3"):
            nw.forward(params, Batch(codes, np.zeros(1, dtype=np.float32)), TINY)

    def test_codes_outside_0_3_in_the_unread_tail_rejected(self):
        # at L = 200 the default pool reaches bases 0-183 only; bases
        # 184-199 are not convolved, but must still be bases
        cfg = nw.ModelConfig(seq_length=200)
        params = nw.init_params(cfg, seed=0)
        for position in (184, 199):
            codes = np.zeros((2, 200), dtype=np.uint8)
            codes[1, position] = 7
            with pytest.raises(ValidationError, match="0-3"):
                nw.forward(params, Batch(codes, np.zeros(2, dtype=np.float32)), cfg)

    def test_the_plan_indexes_only_the_codes_the_pool_reaches(self, monkeypatch):
        # at L = 200 the default pool reads conv rows 0-174, so the plan
        # indexes bases 0-183 for the gather, and the scatter reads no
        # base past them; the tail test above checks that it still checks
        # bases 184-199
        cfg = nw.ModelConfig(seq_length=200)
        params = nw.init_params(cfg, seed=0)
        batch = random_batch(3, 200, seed=1)
        seen = []

        def spy(codes, *args, real=nw.kernels.conv1d_index):
            seen.append(codes)
            return real(codes, *args)

        monkeypatch.setattr(nw.kernels, "conv1d_index", spy)
        probs, cache = nw.forward(params, batch, cfg)
        assert len(seen) == 1 and np.array_equal(seen[0], batch.codes[None, :, :184])
        k = nw.kernels.prefix_length(3 * 175, 10)
        assert cache.plan.index.shape == (1 + 10 - k, 3, 175)
        assert np.array_equal(cache.plan.codes, batch.codes)
        assert cache.argmax_rows.max() < 175
        grads = nw.flatten_grads(nw.backward(params, cache, batch.labels, cfg))
        # other valid codes in every record's unread tail change no bit
        tail = batch.codes.copy()
        tail[:, 184:] = (tail[:, 184:] + 1 + np.arange(3)[:, None]) % 4
        assert (tail[:, 184:] != batch.codes[:, 184:]).all()
        other_probs, other_cache = nw.forward(params, Batch(tail, batch.labels), cfg)
        other = nw.flatten_grads(nw.backward(params, other_cache, batch.labels, cfg))
        assert other_probs.tobytes() == probs.tobytes()
        assert other.tobytes() == grads.tobytes()

    def test_linear_activation_supported(self):
        cfg = nw.ModelConfig(
            n_filters=2, filter_width=5, pool_window=5, pool_stride=5,
            seq_length=50, conv_activation="linear",
        )
        params = nw.init_params(cfg, seed=1)
        batch = random_batch(3, 50, seed=1)
        probs, _ = nw.forward(params, batch, cfg)
        assert np.all((0 < probs) & (probs < 1))


class TestBceLoss:
    def test_half_probs_give_ln2(self):
        probs = np.full(8, 0.5)
        labels = np.array([0, 1, 0, 1, 1, 1, 0, 0], dtype=float)
        assert abs(nw.bce_loss(probs, labels) - math.log(2)) < 1e-12

    def test_hand_computed_case(self):
        loss = nw.bce_loss(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
        assert abs(loss - 0.164252) < 1e-6
        assert abs(loss - (-(math.log(0.9) + math.log(0.8)) / 2)) < 1e-12

    def test_perfect_predictions_clamp_to_tiny_loss(self):
        loss = nw.bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert abs(loss - 1e-7) < 1e-9

    def test_label_validation(self):
        with pytest.raises(ValidationError, match="0 or 1"):
            nw.bce_loss(np.array([0.5]), np.array([2.0]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_clip_and_mean(self, dtype):
        rng = np.random.default_rng(0)
        edges = np.array([0.0, 1.0, 1e-9, 1e-7, 1 - 1e-7, 1 - 1e-9, 0.5], dtype)
        for n in (1, 2, 3, 4, 7, 8, 45, 100, 200):
            for _ in range(50):
                probs = rng.random(n).astype(dtype)
                probs[rng.random(n) < 0.3] = rng.choice(edges)
                labels = (rng.random(n) < 0.5).astype(dtype)
                p = np.clip(probs, nw.PROB_CLAMP, 1.0 - nw.PROB_CLAMP)
                want = float((-(labels * np.log(p) + (1 - labels) * np.log(1 - p))).mean())
                assert nw.bce_loss(probs, labels) == want


class TestBackward:
    def test_full_model_gradient_check(self):
        """Analytic gradients vs central finite differences, everything f64."""
        batch = random_batch(4, 50, seed=99, dtype=np.float64)
        params = nw.init_params(TINY, seed=0, dtype=np.float64)
        probs, cache = nw.forward(params, batch, TINY)
        grads = nw.backward(params, cache, batch.labels, TINY)
        analytic = nw.flatten_grads(grads)

        theta0 = nw.flatten_params(params)
        def loss_at(theta):
            p = nw.unflatten_params(theta, TINY)
            pr, _ = nw.forward(p, batch, TINY)
            return nw.bce_loss(pr, batch.labels)

        h = 1e-6
        fd = np.empty_like(theta0)
        for i in range(theta0.shape[0]):
            up, down = theta0.copy(), theta0.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (loss_at(up) - loss_at(down)) / (2 * h)
        rel = np.abs(analytic - fd) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(fd)), 1e-12
        )
        assert rel.max() <= 1e-4

    def test_near_perfect_predictions_give_near_zero_grads(self):
        params = nw.init_params(TINY, seed=2, dtype=np.float64)
        params.dense_weights[:] = 0
        params.dense_bias = np.asarray(30.0)
        batch = random_batch(4, 50, seed=3, dtype=np.float64)
        labels = np.ones(4)
        _, cache = nw.forward(params, batch, TINY)
        grads = nw.backward(params, cache, labels, TINY)
        assert np.abs(nw.flatten_grads(grads)).max() < 1e-8

    def test_duplicating_batch_preserves_mean_gradient(self):
        params = nw.init_params(TINY, seed=4, dtype=np.float64)
        batch = random_batch(4, 50, seed=5, dtype=np.float64)
        double = Batch(
            np.concatenate([batch.codes, batch.codes]),
            np.concatenate([batch.labels, batch.labels]),
        )
        _, cache1 = nw.forward(params, batch, TINY)
        g1 = nw.flatten_grads(nw.backward(params, cache1, batch.labels, TINY))
        _, cache2 = nw.forward(params, double, TINY)
        g2 = nw.flatten_grads(nw.backward(params, cache2, double.labels, TINY))
        assert np.allclose(g1, g2, rtol=1e-12, atol=1e-15)

    def test_stale_cache_rejected(self):
        params = nw.init_params(TINY, seed=6)
        other = nw.init_params(TINY, seed=7)
        batch = random_batch(2, 50, seed=8)
        _, cache = nw.forward(params, batch, TINY)
        with pytest.raises(InternalConsistencyError, match="cache"):
            nw.backward(other, cache, batch.labels, TINY)

    def test_label_shape_mismatch(self):
        params = nw.init_params(TINY, seed=6)
        batch = random_batch(2, 50, seed=8)
        _, cache = nw.forward(params, batch, TINY)
        with pytest.raises(ShapeError, match="labels"):
            nw.backward(params, cache, np.zeros(3), TINY)

    def test_labels_outside_0_1_rejected(self):
        # a training step checks its labels once, in the loss it computes
        # before backward
        params = nw.init_params(TINY, seed=6)
        batch = random_batch(2, 50, seed=8)
        labels = np.array([0.0, 2.0], dtype=np.float32)
        probs, cache = nw.forward(params, batch, TINY)
        with pytest.raises(ValidationError, match="0 or 1"):
            nw.bce_loss(probs, labels)
            nw.backward(params, cache, labels, TINY)


def fd_gradient(params, batch, cfg, h=1e-6):
    theta0 = nw.flatten_params(params)
    fd = np.empty_like(theta0)
    for i in range(theta0.shape[0]):
        up, down = theta0.copy(), theta0.copy()
        up[i] += h
        down[i] -= h
        losses = [
            nw.bce_loss(nw.forward(nw.unflatten_params(t, cfg), batch, cfg)[0],
                        batch.labels)
            for t in (up, down)
        ]
        fd[i] = (losses[0] - losses[1]) / (2 * h)
    return fd


OVERLAP = nw.ModelConfig(
    n_filters=3, filter_width=5, pool_window=10, pool_stride=4, seq_length=60
)


class TestBaseCodePath:
    """The model's base-code path (gather convolution, winners-only
    backward) against the dense one-hot model of ``oracles.py``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize(
        "cfg,n",
        [
            (nw.ModelConfig(), 6),  # the default model, L = 1500
            (TINY, 5),
            (nw.ModelConfig(n_filters=4, filter_width=7, pool_window=9,
                            pool_stride=12, seq_length=120), 9),
        ],
    )
    def test_bit_identical_to_dense_path(self, dtype, activation, cfg, n):
        cfg = dataclasses.replace(cfg, conv_activation=activation)
        params = nw.init_params(cfg, seed=3, dtype=dtype)
        params.conv_bias[:] = np.linspace(-0.2, 0.2, cfg.n_filters)
        batch = random_batch(n, cfg.seq_length, seed=4, dtype=dtype)
        probs, cache = nw.forward(params, batch, cfg)
        dense_probs, dense_cache = dense_forward(params, one_hot_inputs(batch), cfg)
        assert probs.dtype == dense_probs.dtype == dtype
        assert np.array_equal(probs, dense_probs)
        grads = nw.backward(params, cache, batch.labels, cfg)
        dense_grads = dense_backward(params, dense_cache, batch.labels, cfg)
        for name in ("conv_filters", "conv_bias", "dense_weights", "dense_bias"):
            got, want = getattr(grads, name), getattr(dense_grads, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    EDGES = nw.ModelConfig(n_filters=4, filter_width=5, pool_window=6, pool_stride=6,
                           seq_length=60)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("edge", ["dead_windows", "zero_ties", "nan_filter"])
    def test_pool_then_relu_matches_relu_then_pool_at_edge_values(self, dtype, edge):
        # the model pools before ReLU and the dense oracle after it; the
        # winning rows differ wherever a window's maximum is <= 0
        cfg = self.EDGES
        params = nw.init_params(cfg, seed=3, dtype=dtype)
        if edge == "dead_windows":  # filter 0 never fires, filter 1 now and then
            params.conv_bias[:2] = [-1e3, -0.3]
        elif edge == "zero_ties":
            # exact +0.0 rows, -0.0 rows, +0.0/-0.0 mixed by the base at
            # tap 0, and a positive constant: every window ties throughout
            params.conv_filters[:3] = 0.0
            params.conv_bias[:3] = [0.0, -0.0, 0.5]
            params.conv_filters[1] = -0.0
            params.conv_filters[1, 0, 0] = 0.0
        else:  # filter 0 NaN on every row, and dead windows elsewhere
            params.conv_filters[0, 2] = np.nan  # all four bases: the dense conv agrees
            params.conv_bias[1] = -0.3
        batch = random_batch(5, cfg.seq_length, seed=4, dtype=dtype)
        probs, cache = nw.forward(params, batch, cfg)
        dense_probs, dense_cache = dense_forward(params, one_hot_inputs(batch), cfg)
        assert probs.tobytes() == dense_probs.tobytes()
        positive = ~(dense_cache.flat <= 0)  # pooled > 0, or NaN
        assert (~positive).any()
        assert np.array_equal(cache.flat, dense_cache.flat, equal_nan=True)
        assert np.array_equal(cache.argmax_rows.reshape(5, -1)[positive],
                              dense_cache.argmax_rows.reshape(5, -1)[positive])
        grads = nw.backward(params, cache, batch.labels, cfg)
        dense_grads = dense_backward(params, dense_cache, batch.labels, cfg)
        for name in ("conv_filters", "conv_bias", "dense_weights", "dense_bias"):
            got, want = getattr(grads, name), getattr(dense_grads, name)
            if edge == "nan_filter" and name == "conv_filters":
                # the dense correlation multiplies a NaN gradient by every
                # one-hot zero, so NaN fills each channel of a tap that the
                # gather path reaches through one base only
                finite = np.isfinite(want)
                assert np.isnan(got).any() and not np.isnan(got[finite]).any()
                got, want = got[finite], want[finite]
            assert got.tobytes() == want.tobytes(), name

    def test_overlapping_pools_match_dense_path(self):
        params = nw.init_params(OVERLAP, seed=5, dtype=np.float64)
        batch = random_batch(6, 60, seed=6, dtype=np.float64)
        probs, cache = nw.forward(params, batch, OVERLAP)
        dense_probs, dense_cache = dense_forward(params, one_hot_inputs(batch), OVERLAP)
        assert np.array_equal(probs, dense_probs)
        # the setup must make some window winners shared by two pools
        rows = cache.argmax_rows
        assert (rows[:, 1:] == rows[:, :-1]).any()
        g = nw.flatten_grads(nw.backward(params, cache, batch.labels, OVERLAP))
        want = nw.flatten_grads(
            dense_backward(params, dense_cache, batch.labels, OVERLAP))
        assert np.max(np.abs(g - want)) <= 1e-6 * np.max(np.abs(want))
        _, again = nw.forward(params, batch, OVERLAP)
        repeat = nw.flatten_grads(nw.backward(params, again, batch.labels, OVERLAP))
        assert np.array_equal(g, repeat)

    def test_overlapping_pools_gradient_check(self):
        params = nw.init_params(OVERLAP, seed=7, dtype=np.float64)
        batch = random_batch(4, 60, seed=8, dtype=np.float64)
        _, cache = nw.forward(params, batch, OVERLAP)
        # off the relu kink, so finite differences see the same winners
        assert np.abs(cache.flat[cache.flat != 0]).min() > 1e-4
        analytic = nw.flatten_grads(nw.backward(params, cache, batch.labels, OVERLAP))
        fd = fd_gradient(params, batch, OVERLAP)
        rel = np.abs(analytic - fd) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(fd)), 1e-12
        )
        assert rel.max() <= 1e-4

    def test_adam_steps_identical_with_and_without_codes(self):
        cfg = nw.ModelConfig(n_filters=5, filter_width=8, pool_window=12,
                             pool_stride=12, seq_length=100)
        batch = random_batch(8, 100, seed=9)
        runs = []
        for fwd, bwd, x in ((nw.forward, nw.backward, batch),
                            (dense_forward, dense_backward, one_hot_inputs(batch))):
            theta = nw.flatten_params(nw.init_params(cfg, seed=10))
            params = nw.unflatten_params(theta, cfg)
            state = nw.fresh_adam_state(cfg)
            for _ in range(3):
                _, cache = fwd(params, x, cfg)
                grads = bwd(params, cache, batch.labels, cfg)
                nw.adam_step(theta, nw.flatten_grads(grads), state)
            runs.append(theta)
        assert runs[0].tobytes() == runs[1].tobytes()


class TestPlan:
    """``network.plan`` and the planned conv: the forward against the dense
    one-hot oracle at every prefix length, the conv gradients against a
    scatter carry by carry (every pool) and the dense oracle (pools that
    do not overlap), at L = 200, where the pools leave unread tails."""

    POOLS = [(35, 35), (10, 4), (9, 12)]

    @staticmethod
    def model(pool, batch_size, dtype):
        cfg = nw.ModelConfig(seq_length=200, pool_window=pool[0], pool_stride=pool[1])
        params = nw.init_params(cfg, seed=3, dtype=dtype)
        params.conv_bias[:] = np.linspace(-0.2, 0.2, cfg.n_filters)
        return cfg, params, random_batch(batch_size, 200, seed=batch_size, dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", POOLS, ids=["35s35", "10s4", "9s12"])
    @pytest.mark.parametrize("batch_size", [1, 3, 4, 45, 64])
    def test_planned_path_matches_the_oracles(self, dtype, pool, batch_size):
        cfg, params, batch = self.model(pool, batch_size, dtype)
        dense_probs, dense_cache = dense_forward(params, one_hot_inputs(batch), cfg)
        for k in range(1, cfg.filter_width + 1):
            (planned,) = nw.plan(batch.codes[None], batch.labels[None], cfg, k=k)
            assert planned.k == k
            probs, cache = nw.forward(params, planned, cfg)
            assert probs.tobytes() == dense_probs.tobytes(), k
            assert cache.flat.tobytes() == dense_cache.flat.tobytes(), k
        grads = nw.backward(params, cache, batch.labels, cfg)
        dense_grads = dense_backward(params, dense_cache, batch.labels, cfg)
        for name in ("dense_weights", "dense_bias"):
            assert getattr(grads, name).tobytes() == getattr(dense_grads, name).tobytes()
        # the pooled gradient backward scatters: ReLU's mask at the winners
        dlogit = ((probs - batch.labels) / batch_size).astype(dtype)
        dflat = dlogit[:, None] * params.dense_weights[:, 0]
        dpooled = (dflat * (cache.flat > 0)).reshape(batch_size, -1, cfg.n_filters)
        want = conv_scatter_in_carry_order(batch.codes, cache.argmax_rows, dpooled,
                                           cfg.n_filters, cfg.filter_width)
        assert grads.conv_filters.tobytes() == want[0].tobytes()
        assert grads.conv_bias.tobytes() == want[1].tobytes()
        if pool[0] <= pool[1]:  # no overlap: the dense correlation's order too
            assert grads.conv_filters.tobytes() == dense_grads.conv_filters.tobytes()
            assert grads.conv_bias.tobytes() == dense_grads.conv_bias.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", POOLS, ids=["35s35", "10s4", "9s12"])
    @pytest.mark.parametrize("batch_size", [1, 3, 45])
    def test_gather_blocks_that_split_records_change_no_bit(self, monkeypatch, dtype, pool,
                                                            batch_size):
        # blocks of 11 conv rows, or of 1: boundaries inside every record
        cfg, params, batch = self.model(pool, batch_size, dtype)
        want = nw.forward(params, batch, cfg)[0].tobytes()
        (planned,) = nw.plan(batch.codes[None], batch.labels[None], cfg)
        row_bytes = planned.index.shape[0] * cfg.n_filters * np.dtype(dtype).itemsize
        monkeypatch.setattr(nw.kernels, "GATHER_WHOLE_BYTES", 0)
        for rows in (11, 1):
            monkeypatch.setattr(nw.kernels, "GATHER_BYTES", rows * row_bytes)
            assert nw.forward(params, planned, cfg)[0].tobytes() == want, rows

    def test_a_plan_of_several_batches_is_each_batch_planned_alone(self):
        cfg, params, batch = self.model((35, 35), 12, np.float32)
        codes, labels = batch.codes.reshape(3, 4, 200), batch.labels.reshape(3, 4)
        together = nw.plan(codes, labels, cfg)
        assert len(together) == 3
        for step, planned in enumerate(together):
            (alone,) = nw.plan(codes[step][None], labels[step][None], cfg)
            assert planned.k == alone.k and len(planned) == 4
            for name in ("codes", "labels", "index"):
                assert np.array_equal(getattr(planned, name), getattr(alone, name)), name
            probs, cache = nw.forward(params, planned, cfg)
            grads = nw.flatten_grads(nw.backward(params, cache, labels[step], cfg))
            want_probs, want_cache = nw.forward(params, alone, cfg)
            want = nw.flatten_grads(nw.backward(params, want_cache, labels[step], cfg))
            assert probs.tobytes() == want_probs.tobytes()
            assert grads.tobytes() == want.tobytes()

    @pytest.mark.parametrize("position", [0, 100, 183, 184, 199])
    def test_a_code_above_3_anywhere_is_rejected_when_planned(self, position):
        # bases 0-183 are read at L = 200; 184-199 are the unread tail
        cfg = nw.ModelConfig(seq_length=200)
        codes = np.zeros((2, 3, 200), dtype=np.uint8)
        codes[1, 2, position] = 4
        with pytest.raises(ValidationError, match="0-3, got 4"):
            nw.plan(codes, np.zeros((2, 3), dtype=np.float32), cfg)

    @pytest.mark.parametrize("label", [2.0, 0.5, -1.0, np.nan])
    def test_a_label_outside_0_1_is_rejected_when_planned(self, label):
        cfg = nw.ModelConfig(seq_length=200)
        labels = np.zeros((2, 3), dtype=np.float32)
        labels[1, 0] = label
        with pytest.raises(ValidationError, match="0 or 1"):
            nw.plan(np.zeros((2, 3, 200), dtype=np.uint8), labels, cfg)
        batch = SimpleNamespace(codes=np.zeros((3, 200), dtype=np.uint8), labels=labels[1])
        with pytest.raises(ValidationError, match="0 or 1"):
            nw.forward(nw.init_params(cfg, seed=0), batch, cfg)

    def test_negative_codes_and_bad_prefix_lengths_are_rejected_when_planned(self):
        # TINY's filters are W = 5 wide: k = W is the widest table, W + 1
        # would index past the filters, and k < 1 leaves no k-mer row
        batch = random_batch(3, 50, seed=4)
        signed = batch.codes.astype(np.int64)
        signed[1, 4] = -1
        with pytest.raises(ShapeError, match=r"uint8 \[B, 50\]"):
            nw.plan(signed[None], batch.labels[None], TINY)
        for k in (0, 6, -1):
            with pytest.raises(ValidationError, match=f"prefix length k .* 1 ... 5, got {k}"):
                nw.plan(batch.codes[None], batch.labels[None], TINY, k=k)
        params = nw.init_params(TINY, seed=0)
        (widest,) = nw.plan(batch.codes[None], batch.labels[None], TINY, k=5)
        assert widest.k == 5
        want = dense_forward(params, one_hot_inputs(batch), TINY)[0]
        assert nw.forward(params, widest, TINY)[0].tobytes() == want.tobytes()

    def test_plan_nbytes_counts_the_plan(self):
        cfg, _, batch = self.model((10, 4), 5, np.float32)
        (planned,) = nw.plan(batch.codes[None], batch.labels[None], cfg)
        assert nw.plan_nbytes(cfg, 5) == planned.index.size * planned.index.itemsize

    def test_backward_writes_into_out_only_in_the_runs_dtype(self):
        cfg, params, batch = self.model((35, 35), 4, np.float32)
        probs, cache = nw.forward(params, batch, cfg)
        want = nw.flatten_grads(nw.backward(params, cache, batch.labels, cfg))
        vec = np.full(cfg.param_count, np.nan, dtype=np.float32)
        out = nw.unflatten_grads(vec, cfg)
        assert nw.backward(params, cache, batch.labels, cfg, out=out) is out
        assert vec.tobytes() == want.tobytes()
        for bad in (nw.unflatten_grads(np.zeros(cfg.param_count), cfg),  # float64
                    nw.unflatten_grads(np.zeros(2 * cfg.param_count, np.float32)[::2], cfg)):
            with pytest.raises(ShapeError, match="C-contiguous float32"):
                nw.backward(params, cache, batch.labels, cfg, out=bad)


def adam_out_of_place(theta, g, m, v, t, alpha=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook Adam update as fresh arrays, the reference for the
    in-place form."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return theta - alpha * m_hat / (np.sqrt(v_hat) + eps), m, v


def flat_init(seed, dtype=np.float32):
    return nw.flatten_params(nw.init_params(TINY, seed=seed, dtype=dtype))


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_matches_out_of_place_formula_bitwise(self, dtype):
        rng = np.random.Generator(np.random.PCG64(7))
        theta = flat_init(6, dtype)
        ref_theta, ref_m, ref_v = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
        state = nw.fresh_adam_state(TINY, dtype=dtype, alpha=0.01)
        for t in range(1, 6):
            g = rng.normal(scale=10.0 ** rng.integers(-4, 2), size=theta.shape).astype(dtype)
            nw.adam_step(theta, g, state)
            ref_theta, ref_m, ref_v = adam_out_of_place(ref_theta, g, ref_m, ref_v, t,
                                                        alpha=0.01)
            assert state.t == t
            for got, want in ((theta, ref_theta), (state.m, ref_m), (state.v, ref_v)):
                assert got.dtype == dtype
                assert got.tobytes() == want.astype(dtype).tobytes()

    def test_updates_through_parameter_views(self):
        theta = flat_init(8)
        params = nw.unflatten_params(theta, TINY)
        before = params.conv_filters.copy()
        nw.adam_step(theta, np.ones_like(theta), nw.fresh_adam_state(TINY))
        assert (params.conv_filters < before).all()
        assert np.array_equal(nw.flatten_params(params), theta)

    def test_zero_gradient_is_identity(self):
        theta = flat_init(1)
        before = theta.copy()
        state = nw.fresh_adam_state(TINY)
        nw.adam_step(theta, np.zeros_like(theta), state)
        assert np.array_equal(theta, before)
        assert state.t == 1

    def test_unit_gradient_first_step(self):
        theta = flat_init(2, np.float64)
        before = theta.copy()
        nw.adam_step(theta, np.ones(TINY.param_count),
                     nw.fresh_adam_state(TINY, dtype=np.float64))
        assert np.allclose(theta - before, -0.001 / (1 + 1e-8), rtol=1e-12)

    def test_first_step_magnitude_is_alpha_regardless_of_scale(self):
        theta = flat_init(3, np.float64)
        before = theta.copy()
        nw.adam_step(theta, np.full(TINY.param_count, 100.0),
                     nw.fresh_adam_state(TINY, dtype=np.float64))
        assert np.allclose(np.abs(theta - before), 0.001, rtol=1e-6)

    def test_state_progression(self):
        theta = flat_init(4, np.float64)
        grads = np.random.Generator(np.random.PCG64(0)).normal(size=TINY.param_count)
        state = nw.fresh_adam_state(TINY, dtype=np.float64)
        for expect_t in (1, 2, 3):
            nw.adam_step(theta, grads, state)
            assert state.t == expect_t
            assert np.all(state.v >= 0)
            assert np.isfinite(state.m).all()

    def test_non_finite_gradient_raises(self):
        theta = flat_init(5)
        before = theta.copy()
        bad = np.zeros(TINY.param_count, dtype=np.float32)
        bad[10] = np.nan
        state = nw.fresh_adam_state(TINY)
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            nw.adam_step(theta, bad, state)
        # nothing was written before the check
        assert np.array_equal(theta, before)
        assert state.t == 0 and not state.m.any() and not state.v.any()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_overflowing_second_moment_raises_before_theta_is_written(self):
        # (1 - beta2) * g * g = 9e35 fits f32, but dividing it by
        # 1 - beta2 at t = 1 overflows; left alone, m / inf would make
        # this and every later update 0
        theta = flat_init(5)
        before = theta.copy()
        grads = np.zeros(TINY.param_count, dtype=np.float32)
        grads[3] = 3e19
        with pytest.raises(TrainingDivergedError, match="second moment overflowed"):
            nw.adam_step(theta, grads, nw.fresh_adam_state(TINY))
        assert np.array_equal(theta, before)

    def test_gradient_length_mismatch(self):
        with pytest.raises(ShapeError, match="gradient shape"):
            nw.adam_step(flat_init(5), np.zeros(60, dtype=np.float32),
                         nw.fresh_adam_state(TINY))


class TestFlatViews:
    def test_round_trip_params_bitwise(self):
        params = nw.init_params(TINY, seed=11)
        vec = nw.flatten_params(params)
        assert vec.shape == (61,)
        back = nw.unflatten_params(vec, TINY)
        for name in ("conv_filters", "conv_bias", "dense_weights", "dense_bias"):
            assert np.array_equal(getattr(back, name), getattr(params, name))

    def test_default_config_length(self):
        params = nw.init_params(nw.ModelConfig(), seed=0)
        assert nw.flatten_params(params).shape == (1246,)

    def test_canonical_order(self):
        cfg = TINY
        params = nw.ModelParams(
            conv_filters=np.full((2, 5, 4), 1.0, dtype=np.float32),
            conv_bias=np.full(2, 2.0, dtype=np.float32),
            dense_weights=np.full((18, 1), 3.0, dtype=np.float32),
            dense_bias=np.asarray(4.0, dtype=np.float32),
        )
        vec = nw.flatten_params(params)
        assert np.array_equal(vec[:40], np.ones(40))
        assert np.array_equal(vec[40:42], np.full(2, 2.0))
        assert np.array_equal(vec[42:60], np.full(18, 3.0))
        assert vec[60] == 4.0

    def test_unflatten_returns_views(self):
        vec = nw.flatten_params(nw.init_params(TINY, seed=12))
        params = nw.unflatten_params(vec, TINY)
        vec[:] = np.arange(61)
        assert params.conv_filters[1, 4, 3] == 39
        assert params.dense_weights[17, 0] == 59
        assert params.dense_bias == 60

    def test_backward_writes_into_out(self):
        batch = random_batch(4, 50, seed=13)
        params = nw.init_params(TINY, seed=14)
        _, cache = nw.forward(params, batch, TINY)
        fresh = nw.flatten_grads(nw.backward(params, cache, batch.labels, TINY))
        carried = np.full(TINY.param_count + 1, -1.0, dtype=np.float32)
        views = nw.unflatten_grads(carried[:-1], TINY)
        assert nw.backward(params, cache, batch.labels, TINY, out=views) is views
        assert carried[:-1].tobytes() == fresh.tobytes()
        assert carried[-1] == -1.0  # nothing written past the gradient

    def test_zero_grads_flatten_to_zero_vector(self):
        zeros = nw.unflatten_grads(np.zeros(61, dtype=np.float32), TINY)
        assert not nw.flatten_grads(zeros).any()

    def test_length_mismatch(self):
        with pytest.raises(ShapeError, match="parameter count"):
            nw.unflatten_params(np.zeros(60, dtype=np.float32), TINY)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params = nw.init_params(TINY, seed=21)
        path = tmp_path / "model.ckpt"
        nw.save_checkpoint(params, TINY, path)
        loaded, config = nw.load_checkpoint(path)
        assert config == TINY
        for name in ("conv_filters", "conv_bias", "dense_weights", "dense_bias"):
            assert np.array_equal(getattr(loaded, name), getattr(params, name))
        # saving the loaded params reproduces the file byte for byte
        path2 = tmp_path / "again.ckpt"
        nw.save_checkpoint(loaded, config, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_f64_tensors_warn_that_they_are_rounded(self, tmp_path):
        params = nw.init_params(TINY, seed=21, dtype=np.float64)
        with pytest.warns(UserWarning, match="conv_filters \\(float64\\).*rounded to float32"):
            nw.save_checkpoint(params, TINY, tmp_path / "f64.ckpt")
        loaded, _ = nw.load_checkpoint(tmp_path / "f64.ckpt")
        assert np.array_equal(loaded.conv_filters, params.conv_filters.astype(np.float32))

    def test_f32_tensors_save_silently(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nw.save_checkpoint(nw.init_params(TINY, seed=21), TINY, tmp_path / "f32.ckpt")

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nw.save_checkpoint(nw.init_params(TINY, 0), TINY, path)
        assert path.read_bytes()[:4] == b"DCNN"

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            nw.load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nw.save_checkpoint(nw.init_params(TINY, 0), TINY, path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            nw.load_checkpoint(cut)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nw.save_checkpoint(nw.init_params(TINY, 0), TINY, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 99"):
            nw.load_checkpoint(path)

    def test_missing_tensor_named(self, tmp_path):
        import struct as st

        path = tmp_path / "model.ckpt"
        meta = nw._config_meta(TINY)
        with open(path, "wb") as fh:
            fh.write(b"DCNN" + st.pack("<I", 1))
            name = b"model_config"
            fh.write(st.pack("<H", len(name)) + name + st.pack("<B", 1))
            fh.write(st.pack("<I", 6) + meta.astype("<f4").tobytes())
        with pytest.raises(CheckpointError, match="conv_filters"):
            nw.load_checkpoint(path)

    #: byte offset of the model_config tensor's data: magic, version, name
    #: length, "model_config", rank and one dim
    META_DATA = 4 + 4 + 2 + 12 + 1 + 4

    @pytest.mark.parametrize("field,value,message", [
        (0, np.nan, "field n_filters is nan, not an integer"),
        (5, np.nan, "field conv_activation is nan, not an integer"),
        (0, np.inf, "field n_filters is inf, not an integer"),
        (4, -np.inf, "field seq_length is -inf, not an integer"),
        (0, 15.5, "field n_filters is 15.5, not an integer"),
        (5, 0.5, "field conv_activation is 0.5, not an integer"),
        (5, 2.0, "field conv_activation is 2, an unknown activation code"),
        (5, -1.0, "field conv_activation is -1, an unknown activation code")])
    def test_a_corrupt_config_entry_is_named(self, tmp_path, field, value, message):
        path = tmp_path / "model.ckpt"
        nw.save_checkpoint(nw.init_params(TINY, 0), TINY, path)
        blob = bytearray(path.read_bytes())
        start = self.META_DATA + 4 * field
        assert blob[start : start + 4] == nw._config_meta(TINY)[field].tobytes()
        blob[start : start + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"model_config {message}"):
            nw.load_checkpoint(path)


class TestLearning:
    def test_loss_decreases_on_separable_toy(self):
        # 20 sequences whose positives carry a deterministic motif
        mat = np.zeros((10, 4))
        for r, base in enumerate("AACAGATGGT"):
            mat[r, "ACGT".index(base)] = 1.0
        pwm = Pwm("hard", mat)
        sim = SimConfig(
            seq_length=100, n_positive=10, n_negative=10,
            cluster_min=2, cluster_max=3, seed=5,
        )
        batch = encode_batch(generate_dataset(sim, pwm))
        cfg = nw.ModelConfig(
            n_filters=4, filter_width=10, pool_window=35, pool_stride=35,
            seq_length=100,
        )
        theta = nw.flatten_params(nw.init_params(cfg, seed=1))
        params = nw.unflatten_params(theta, cfg)
        state = nw.fresh_adam_state(cfg)
        losses = []
        for _ in range(5):
            probs, cache = nw.forward(params, batch, cfg)
            losses.append(nw.bce_loss(probs, batch.labels))
            grads = nw.backward(params, cache, batch.labels, cfg)
            nw.adam_step(theta, nw.flatten_grads(grads), state)
        assert all(b < a for a, b in zip(losses, losses[1:]))
