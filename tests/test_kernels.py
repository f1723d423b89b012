import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnn.errors import InternalConsistencyError, ShapeError, ValidationError
from dcnn.kernels import (
    conv1d_backward,
    conv1d_backward_codes,
    conv1d_forward,
    conv1d_forward_codes,
    dense_backward,
    dense_forward,
    dtype_for,
    maxpool1d_backward,
    maxpool1d_forward,
    prefix_length,
    relu,
    relu_grad,
    sigmoid,
)
from helpers import max_relative_error, numerical_gradient
from oracles import naive_conv1d, naive_maxpool1d


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestConvForward:
    def test_single_channel_analog(self):
        # [1,2,3,4] convolved with [1,0,-1] -> [-2,-2], checked by hand and
        # by the naive reference loop.
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        filters = np.array([[[1.0], [0.0], [-1.0]]])
        bias = np.zeros(1)
        out = conv1d_forward(x, filters, bias)
        assert out.shape == (2, 1)
        np.testing.assert_array_equal(out[:, 0], [-2.0, -2.0])
        np.testing.assert_array_equal(naive_conv1d(x, filters, bias)[:, 0], [-2.0, -2.0])

    def test_output_length_arithmetic(self, rng):
        x = rng.standard_normal((1500, 4)).astype(np.float32)
        filters = rng.standard_normal((15, 10, 4)).astype(np.float32)
        out = conv1d_forward(x, filters, np.zeros(15, dtype=np.float32))
        assert out.shape == (1491, 15)

    def test_zero_filters_give_bias(self, rng):
        bias = np.array([0.3, -1.5, 2.0])
        x = rng.standard_normal((20, 4))
        out = conv1d_forward(x, np.zeros((3, 5, 4)), bias)
        assert np.all(out == bias)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(12, 4, 3, 5), (7, 1, 1, 3), (20, 4, 15, 10)])
    def test_bit_equal_to_naive_loop(self, rng, dtype, shape):
        length, channels, n_filters, width = shape
        x = rng.standard_normal((length, channels)).astype(dtype)
        filters = rng.standard_normal((n_filters, width, channels)).astype(dtype)
        bias = rng.standard_normal(n_filters).astype(dtype)
        fast = conv1d_forward(x, filters, bias)
        ref = naive_conv1d(x, filters, bias)
        assert fast.dtype == ref.dtype == dtype
        np.testing.assert_array_equal(fast, ref)

    def test_batched_matches_per_sample(self, rng):
        x = rng.standard_normal((3, 15, 4)).astype(np.float32)
        filters = rng.standard_normal((2, 6, 4)).astype(np.float32)
        bias = rng.standard_normal(2).astype(np.float32)
        batched = conv1d_forward(x, filters, bias)
        for b in range(3):
            np.testing.assert_array_equal(batched[b], conv1d_forward(x[b], filters, bias))

    def test_deterministic(self, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        filters = rng.standard_normal((5, 8, 4)).astype(np.float32)
        bias = rng.standard_normal(5).astype(np.float32)
        a = conv1d_forward(x, filters, bias)
        b = conv1d_forward(x, filters, bias)
        np.testing.assert_array_equal(a, b)

    def test_channel_mismatch_names_axes(self):
        with pytest.raises(ShapeError, match="channel"):
            conv1d_forward(np.zeros((10, 3)), np.zeros((2, 4, 4)), np.zeros(2))

    def test_too_short_input(self):
        with pytest.raises(ShapeError, match="empty"):
            conv1d_forward(np.zeros((3, 4)), np.zeros((2, 5, 4)), np.zeros(2))


class TestConvBackward:
    def test_zero_grad_out(self, rng):
        x = rng.standard_normal((12, 4))
        filters = rng.standard_normal((3, 5, 4))
        gf, gb = conv1d_backward(x, filters, np.zeros((8, 3)))
        assert not gf.any() and not gb.any()

    def test_single_position_single_filter(self, rng):
        # L == W: one output position; grad_filters[0,j,c] = grad_out[0,0]*x[j,c]
        x = rng.standard_normal((5, 4))
        filters = rng.standard_normal((1, 5, 4))
        grad_out = np.array([[2.5]])
        gf, gb = conv1d_backward(x, filters, grad_out)
        np.testing.assert_allclose(gf[0], 2.5 * x)
        assert gb[0] == 2.5

    def test_matches_finite_differences(self, rng):
        x = rng.standard_normal((14, 4))
        filters = rng.standard_normal((3, 5, 4))
        bias = rng.standard_normal(3)
        probe = rng.standard_normal((10, 3))
        gf, gb = conv1d_backward(x, filters, probe)

        def objective():
            return float(np.sum(conv1d_forward(x, filters, bias) * probe))

        fd_filters = numerical_gradient(objective, filters)
        fd_bias = numerical_gradient(objective, bias)
        assert max_relative_error(gf, fd_filters) <= 1e-4
        assert max_relative_error(gb, fd_bias) <= 1e-4

    def test_shape_mismatch(self, rng):
        x = rng.standard_normal((12, 4))
        filters = rng.standard_normal((3, 5, 4))
        with pytest.raises(ShapeError, match="grad_out"):
            conv1d_backward(x, filters, np.zeros((7, 3)))


class TestBaseCodeConv:
    """The base-code kernels against the dense ones on the one-hot input."""

    @staticmethod
    def operands(rng, dtype, batch, length, n_filters, width):
        codes = rng.integers(0, 4, size=(batch, length)).astype(np.uint8)
        filters = rng.standard_normal((n_filters, width, 4)).astype(dtype)
        bias = rng.standard_normal(n_filters).astype(dtype)
        return codes, np.eye(4, dtype=dtype)[codes], filters, bias

    @staticmethod
    def assert_bits_equal(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 12, 2, 5), (8, 1500, 15, 10), (1, 7, 1, 7),
                                       (2, 10, 3, 10), (200, 200, 15, 10)])
    def test_forward_bit_equal_to_dense(self, rng, dtype, shape):
        # every prefix length, and the default one, down to L = W
        codes, x, filters, bias = self.operands(rng, dtype, *shape)
        want = conv1d_forward(x, filters, bias)
        assert want.dtype == dtype
        for k in (None, *range(1, min(filters.shape[1], 7) + 1)):
            self.assert_bits_equal(conv1d_forward_codes(codes, filters, bias, k=k), want)

    def test_forward_output_dtype(self, rng):
        # f32 filters scored in f64 at every prefix length
        codes, x, filters, bias = self.operands(rng, np.float32, 6, 120, 5, 9)
        want = conv1d_forward(x.astype(np.float64), filters, bias)
        for k in (None, *range(1, 8)):
            got = conv1d_forward_codes(codes, filters, bias, dtype=np.float64, k=k)
            self.assert_bits_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,pool", [((4, 200, 15, 10), 35), ((8, 1500, 15, 10), 35),
                                            ((5, 40, 3, 6), 5)])
    def test_backward_bit_equal_to_dense(self, rng, dtype, shape, pool):
        codes, x, filters, bias = self.operands(rng, dtype, *shape)
        conv_out = conv1d_forward_codes(codes, filters, bias)
        pooled, rows = maxpool1d_forward(relu(conv_out), pool, pool)
        grad_pooled = rng.standard_normal(pooled.shape).astype(dtype)
        # winners-only, relu-masked at the winner
        gf, gb = conv1d_backward_codes(codes, filters, rows, grad_pooled * (pooled > 0))
        dense = maxpool1d_backward(rows, grad_pooled, conv_out.shape[1]) * relu_grad(conv_out)
        want_f, want_b = conv1d_backward(x, filters, dense)
        assert gf.dtype == want_f.dtype and gb.dtype == want_b.dtype
        np.testing.assert_array_equal(gf, want_f)
        np.testing.assert_array_equal(gb, want_b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_dimensional_codes(self, rng, dtype):
        codes, x, filters, bias = self.operands(rng, dtype, 1, 300, 4, 8)
        want = conv1d_forward(x[0], filters, bias)
        for k in (None, *range(1, 8)):
            self.assert_bits_equal(conv1d_forward_codes(codes[0], filters, bias, k=k), want)

    @staticmethod
    def tap_loop(codes, filters, bias, dtype):
        """The base-code forward as one gather per tap: bias first, then
        taps in ascending order, each rounded into the running sum."""
        width = filters.shape[1]
        out_length = codes.shape[-1] - width + 1
        out = np.empty(codes.shape[:-1] + (out_length, filters.shape[0]), dtype)
        out[...] = bias
        for j in range(width):
            out += filters[:, j, :].T.astype(dtype)[codes[..., j : j + out_length]]
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_filters_match_the_tap_loop(self, rng, dtype):
        # The dense oracle turns 0 * inf into NaN on the channels a base
        # does not select, so the tap loop is the reference here.
        codes, _, filters, bias = self.operands(rng, dtype, 5, 60, 6, 8)
        filters[0, 0, 1] = np.inf
        filters[1, 3, 2] = -np.inf
        filters[2, 0, 1] = -np.inf  # inf + -inf at the first taps
        filters[2, 1, :] = np.inf
        filters[3, 7, 0] = np.nan
        bias[4] = np.nan
        filters[5, 2, 3] = np.finfo(dtype).max  # overflows to inf when summed
        filters[5, 4, 3] = np.finfo(dtype).max
        with np.errstate(over="ignore", invalid="ignore"):
            want = self.tap_loop(codes, filters, bias, dtype)
            assert np.isinf(want).any() and np.isnan(want).any()
            for k in range(1, 9):
                got = conv1d_forward_codes(codes, filters, bias, k=k)
                self.assert_bits_equal(got, want)

    @pytest.mark.parametrize("rows,width,k", [(0, 10, 1), (63, 10, 1), (64, 10, 1),
                                              (255, 10, 1), (256, 10, 2), (764, 10, 2),
                                              (38200, 10, 5), (95424, 10, 6),
                                              (10**9, 10, 10), (10**9, 3, 3)])
    def test_default_prefix_length(self, rows, width, k):
        assert prefix_length(rows, width) == k

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("bad", [4, 255])
    @pytest.mark.parametrize("where", [0, -1])
    def test_codes_out_of_range_are_rejected(self, rng, k, bad, where):
        # Codes at the first and last position are read only by the first
        # and the last tap; in a k-mer index a 4 would alias another k-mer,
        # and in the backward's flat index the next tap's channel 0.
        codes, _, filters, bias = self.operands(rng, np.float32, 3, 20, 2, 5)
        codes[where, where] = bad
        with pytest.raises(ValidationError, match=f"0-3, got values 0 ... {bad}"):
            conv1d_forward_codes(codes, filters, bias, k=k)
        rows = np.full((3, 1, 2), 0 if where == 0 else 15)
        with pytest.raises(ValidationError, match=f"0-3, got values 0 ... {bad}"):
            conv1d_backward_codes(codes, filters, rows, np.ones((3, 1, 2), np.float32))

    def test_negative_codes_and_bad_prefix_lengths_are_rejected(self, rng):
        codes, _, filters, bias = self.operands(rng, np.float32, 3, 20, 2, 5)
        signed = codes.astype(np.int64)
        signed[1, 4] = -1
        with pytest.raises(ValidationError, match="0-3"):
            conv1d_forward_codes(signed, filters, bias)
        for k in (0, 6):
            with pytest.raises(ValidationError, match="prefix length"):
                conv1d_forward_codes(codes, filters, bias, k=k)

    def test_rejects_float_codes_and_short_input(self):
        with pytest.raises(ShapeError, match="integer"):
            conv1d_forward_codes(np.zeros((2, 10)), np.zeros((2, 3, 4)), np.zeros(2))
        with pytest.raises(ShapeError, match="empty"):
            conv1d_forward_codes(np.zeros((2, 3), np.uint8), np.zeros((2, 5, 4)),
                                 np.zeros(2))

    def test_backward_rejects_out_of_range_row(self):
        codes = np.zeros((1, 10), dtype=np.uint8)
        with pytest.raises(InternalConsistencyError):
            conv1d_backward_codes(codes, np.zeros((1, 5, 4)), np.array([[[6]]]),
                                  np.array([[[1.0]]]))


class TestMaxPoolForward:
    def test_hand_evaluated_column(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])[:, None]
        out, idx = maxpool1d_forward(x, window=2, stride=2)
        np.testing.assert_array_equal(out[:, 0], [3.0, 4.0, 9.0])
        np.testing.assert_array_equal(idx[:, 0], [0, 2, 5])

    def test_constant_input_tie_break(self):
        x = np.full((10, 3), 7.0)
        out, idx = maxpool1d_forward(x, window=3, stride=3)
        assert np.all(out == 7.0)
        np.testing.assert_array_equal(idx[:, 0], [0, 3, 6])

    @pytest.mark.parametrize("window,stride", [(4, 4), (4, 2)])
    def test_tied_maxima_pick_the_first_row(self, rng, window, stride):
        # small integers tie often; 19 rows leave a remainder past the
        # last non-overlapping window
        x = rng.integers(0, 3, size=(5, 19, 3)).astype(np.float32)
        x[0, :4, 0] = [1.0, 2.0, 1.0, 2.0]  # tie inside the first window
        out, idx = maxpool1d_forward(x, window, stride)
        assert idx[0, 0, 0] == 1
        for b in range(x.shape[0]):
            ref_out, ref_idx = naive_maxpool1d(x[b], window, stride)
            np.testing.assert_array_equal(out[b], ref_out)
            np.testing.assert_array_equal(idx[b], ref_idx)

    def test_window_count_for_model_shape(self, rng):
        x = rng.standard_normal((1491, 15))
        out, _ = maxpool1d_forward(x, window=35, stride=35)
        assert out.shape == (42, 15)

    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 1), (4, 2), (5, 5)])
    def test_matches_naive(self, rng, window, stride):
        x = rng.standard_normal((17, 3))
        out, idx = maxpool1d_forward(x, window, stride)
        ref_out, ref_idx = naive_maxpool1d(x, window, stride)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(idx, ref_idx)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window,stride", [(4, 4), (4, 2), (5, 1), (3, 5), (1, 1),
                                               (23, 1)])
    def test_bits_match_the_naive_loop_on_ties_zeros_and_nans(self, rng, dtype, window,
                                                             stride):
        # few distinct values, so windows tie, mix +0.0 with -0.0, and hold
        # NaNs of two payloads and both signs; two leading batch dimensions
        nans = np.array([0x7FC00001, 0xFFC00002], np.uint32).view(np.float32)
        values = np.concatenate([[-1.5, -0.0, 0.0, 2.0], nans]).astype(dtype)
        x = rng.choice(values, size=(2, 3, 23, 4), p=[0.3, 0.2, 0.2, 0.2, 0.05, 0.05])
        x[0, 0, :, 0] = -0.0  # a window of negative zeros only
        x[0, 1, :, 1] = [0.0, -0.0] * 11 + [0.0]
        out, idx = maxpool1d_forward(x, window, stride)
        assert out.dtype == dtype
        for lead in np.ndindex(x.shape[:-2]):
            ref_out, ref_idx = naive_maxpool1d(x[lead], window, stride)
            assert out[lead].tobytes() == ref_out.tobytes()
            np.testing.assert_array_equal(idx[lead], ref_idx)

    def test_too_short_input(self):
        with pytest.raises(ShapeError, match="empty"):
            maxpool1d_forward(np.zeros((3, 2)), window=5, stride=1)

    def test_bad_window(self):
        with pytest.raises(ValidationError):
            maxpool1d_forward(np.zeros((5, 2)), window=0, stride=1)


class TestMaxPoolBackward:
    def test_ones_route_to_winners(self, rng):
        x = rng.permutation(12).reshape(6, 2).astype(np.float64)
        out, idx = maxpool1d_forward(x, window=3, stride=3)
        grad_in = maxpool1d_backward(idx, np.ones_like(out), input_length=6)
        # exactly one 1 per window per channel, at the max position
        assert grad_in.sum() == out.size
        for t in range(2):
            for f in range(2):
                np.testing.assert_array_equal(np.flatnonzero(grad_in[:, f] == 1.0).tolist(),
                                              sorted(idx[:, f].tolist()))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gradient_mass_conserved(self, seed):
        r = np.random.default_rng(seed)
        x = r.standard_normal((13, 4))
        out, idx = maxpool1d_forward(x, window=4, stride=2)
        grad_out = r.standard_normal(out.shape)
        grad_in = maxpool1d_backward(idx, grad_out, input_length=13)
        assert np.isclose(grad_in.sum(), grad_out.sum())

    def test_matches_finite_differences_off_ties(self, rng):
        # distinct, well separated values so the FD step cannot flip an argmax
        x = (rng.permutation(24).reshape(12, 2) * 0.1).astype(np.float64)
        probe = rng.standard_normal((4, 2))

        def objective():
            pooled, _ = maxpool1d_forward(x, window=3, stride=3)
            return float(np.sum(pooled * probe))

        _, idx = maxpool1d_forward(x, window=3, stride=3)
        analytic = maxpool1d_backward(idx, probe, input_length=12)
        fd = numerical_gradient(objective, x)
        assert max_relative_error(analytic, fd) <= 1e-4

    def test_out_of_range_index(self):
        with pytest.raises(InternalConsistencyError):
            maxpool1d_backward(np.array([[99]]), np.array([[1.0]]), input_length=5)


class TestDense:
    def test_zero_weights_return_bias(self):
        assert dense_forward(np.ones(8), np.zeros((8, 1)), 0.7) == pytest.approx(0.7)

    def test_basis_vector_selects_weight(self, rng):
        w = rng.standard_normal((6, 1))
        e3 = np.zeros(6)
        e3[3] = 1.0
        assert dense_forward(e3, w, 0.25) == pytest.approx(0.25 + w[3, 0])

    def test_batched_shape(self, rng):
        x = rng.standard_normal((5, 7))
        w = rng.standard_normal((7, 1))
        assert dense_forward(x, w, 0.0).shape == (5,)

    def test_matches_finite_differences(self, rng):
        x = rng.standard_normal((3, 9))
        w = rng.standard_normal((9, 1))
        bias = np.array(0.4)
        probe = rng.standard_normal(3)
        gw, gb, gx = dense_backward(x, w, probe)

        def objective():
            return float(np.sum(dense_forward(x, w, float(bias)) * probe))

        assert max_relative_error(gw, numerical_gradient(objective, w)) <= 1e-4
        assert max_relative_error(gx, numerical_gradient(objective, x)) <= 1e-4
        assert abs(float(gb) - probe.sum()) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="feature size"):
            dense_forward(np.zeros(5), np.zeros((6, 1)), 0.0)


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(0.0) == pytest.approx(0.5)

    @given(st.floats(-50, 50))
    @settings(max_examples=50)
    def test_sigmoid_symmetry(self, x):
        assert float(sigmoid(x) + sigmoid(-x)) == pytest.approx(1.0)

    def test_sigmoid_saturates_without_warnings(self):
        with np.errstate(over="raise"):
            lo = sigmoid(np.array([-1e4]))
            hi = sigmoid(np.array([1e4]))
        assert float(lo[0]) == pytest.approx(0.0)
        assert float(hi[0]) == pytest.approx(1.0)

    def test_relu_values(self):
        assert relu(-3.0) == 0.0
        assert relu(2.0) == 2.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_never_returns_negative_zero(self, dtype):
        # relu(max(x)) equals the max of relu(x) bit for bit only if no
        # zero comes back signed; lengths cover SIMD bodies and tails
        for n in (1, 2, 3, 7, 8, 15, 16, 17, 33, 64, 255, 11460):
            x = np.resize(np.array([-0.0, 0.0, -1.0, -np.inf], dtype), n)
            for view in (x, x[::2], x[::-1]):
                out = relu(view)
                assert not np.signbit(out).any(), (n, view.strides)
        assert not np.signbit(relu(dtype(-0.0)))

    def test_relu_grad_mask(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(relu_grad(x), [0.0, 0.0, 1.0])

    def test_range_strictly_open_on_moderate_input(self, rng):
        p = sigmoid(rng.standard_normal(1000) * 5)
        assert np.all(p > 0) and np.all(p < 1)


class TestPrecision:
    def test_dtype_mapping(self):
        assert dtype_for("f32") == np.float32
        assert dtype_for("f64") == np.float64

    def test_unknown_precision(self):
        with pytest.raises(ValidationError):
            dtype_for("f16")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernels_preserve_dtype(self, rng, dtype):
        x = rng.standard_normal((20, 4)).astype(dtype)
        filters = rng.standard_normal((3, 5, 4)).astype(dtype)
        out = conv1d_forward(x, filters, np.zeros(3, dtype=dtype))
        pooled, idx = maxpool1d_forward(out, 4, 4)
        assert out.dtype == dtype and pooled.dtype == dtype
