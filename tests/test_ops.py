import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from simembed import ops
from simembed.errors import ConfigError, DimensionError


def fd(op, inputs, seed=0, **kwargs):
    return ops.finite_diff_check(op, inputs,
                                 rng=np.random.default_rng(seed), **kwargs)


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        k = np.ones((1, 1, 1, 1))
        b = np.zeros(1)
        out = ops.conv2d(x, k, b).output
        assert np.array_equal(out, x)

    def test_hand_value(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        k = np.ones((1, 1, 2, 2))
        b = np.zeros(1)
        out = ops.conv2d(x, k, b).output
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 10.0

    def test_zero_input_gives_bias(self):
        x = np.zeros((2, 1, 4, 4))
        k = np.ones((3, 1, 2, 2))
        b = np.array([1.5, -2.0, 0.25])
        out = ops.conv2d(x, k, b).output
        for f in range(3):
            assert np.all(out[:, f] == b[f])

    def test_stride_and_padding_shapes(self):
        x = np.zeros((1, 2, 5, 5))
        k = np.zeros((4, 2, 3, 3))
        b = np.zeros(4)
        assert ops.conv2d(x, k, b, stride=2, padding=1).output.shape \
            == (1, 4, 3, 3)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ops.conv2d(np.zeros((1, 3, 4, 4)), np.zeros((2, 1, 2, 2)),
                       np.zeros(2))

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(DimensionError):
            ops.conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)),
                       np.zeros(1))

    def test_gradients(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        report = fd(lambda *a: ops.conv2d(*a, stride=1, padding=1),
                    [x, k, b])
        assert report.passed, report

    def test_gradients_strided(self, rng):
        x = rng.standard_normal((1, 1, 5, 5))
        k = rng.standard_normal((2, 1, 3, 3))
        b = rng.standard_normal(2)
        report = fd(lambda *a: ops.conv2d(*a, stride=2, padding=0),
                    [x, k, b])
        assert report.passed, report


def einsum_conv2d(x, kernels, bias, stride=1, padding=0):
    """Frozen copy of the earlier conv2d: one einsum for the output, one
    for dkernels and one per kernel tap for dx."""
    n, c, h, w = x.shape
    f, _, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                    (padding, padding))) if padding else x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride,
                                                         ::stride]
    out = np.einsum("nchwkl,fckl->nfhw", win, kernels, optimize=True)
    out += bias[None, :, None, None]
    h_out, w_out = out.shape[2], out.shape[3]

    def grad(upstream):
        dbias = upstream.sum(axis=(0, 2, 3))
        dkernels = np.einsum("nfhw,nchwkl->fckl", upstream, win,
                             optimize=True)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                piece = np.einsum("nfhw,fc->nchw", upstream,
                                  kernels[:, :, i, j], optimize=True)
                dxp[:, :, i:i + stride * h_out:stride,
                    j:j + stride * w_out:stride] += piece
        dx = dxp[:, :, padding:padding + h, padding:padding + w] \
            if padding else dxp
        return dx, dkernels, dbias

    return out, grad


def laid_out_fnhw(a):
    """``a`` with its memory laid out (C, N, H, W), as a conv output is."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


# Every conv of the desk-scale net on 1x28x28 input: (C, H, W, F, padding)
# of its input, its filter count and its padding; kernels are 3x3.
DESK_CONV_LAYERS = [(1, 28, 28, 8, 1), (8, 14, 14, 16, 1), (16, 7, 7, 32, 0),
                    (32, 5, 5, 32, 0), (1, 14, 14, 8, 1), (8, 7, 7, 16, 0),
                    (1, 7, 7, 8, 0), (8, 5, 5, 16, 0)]


class TestConv2dMatchesEinsumOracle:
    """The im2col conv equals the frozen einsum conv: byte for byte with
    the same strides at every desk-scale layer, and within rounding on
    random shapes, where einsum may pick another contraction path."""

    @staticmethod
    def results(conv, x, kernels, bias, upstream, stride, padding):
        r = conv(x, kernels, bias, stride, padding)
        out, grad = (r.output, r.grad) if isinstance(r, ops.OpGrad) else r
        return (out, *grad(upstream))

    @pytest.mark.parametrize("upstream_layout", ["C", "FNHW"])
    @pytest.mark.parametrize("input_layout", ["C", "FNHW"])
    @pytest.mark.parametrize("batch", [32, 256])
    @pytest.mark.parametrize("layer", DESK_CONV_LAYERS)
    def test_desk_layers_byte_equal(self, layer, batch, input_layout,
                                    upstream_layout):
        c, h, w, f, padding = layer
        rng = np.random.default_rng([c, h, f, batch])
        x = rng.standard_normal((batch, c, h, w)).astype(np.float32)
        if input_layout == "FNHW":
            x = laid_out_fnhw(x)
        kernels = (rng.standard_normal((f, c, 3, 3)) / 3).astype(np.float32)
        bias = rng.standard_normal(f).astype(np.float32)
        h_out, w_out = h + 2 * padding - 2, w + 2 * padding - 2
        upstream = rng.standard_normal(
            (batch, f, h_out, w_out)).astype(np.float32)
        if upstream_layout == "FNHW":
            upstream = laid_out_fnhw(upstream)
        args = (x, kernels, bias, upstream, 1, padding)
        names = ("output", "dx", "dkernels", "dbias")
        for name, got, want in zip(names, self.results(ops.conv2d, *args),
                                   self.results(einsum_conv2d, *args)):
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert got.strides == want.strides, name
            assert got.tobytes() == want.tobytes(), name

    def test_random_shapes_agree(self):
        rng = np.random.default_rng(2006)
        for _ in range(200):
            dtype = rng.choice([np.float32, np.float64])
            n, c, f = rng.integers(1, 5, size=3)
            kh, kw = rng.integers(1, 4, size=2)
            stride, padding = rng.integers(1, 4), rng.integers(0, 3)
            h = rng.integers(max(1, kh - 2 * padding), 9)
            w = rng.integers(max(1, kw - 2 * padding), 9)
            x = rng.standard_normal((n, c, h, w)).astype(dtype)
            if rng.random() < 0.5:
                x = laid_out_fnhw(x)
            kernels = rng.standard_normal((f, c, kh, kw)).astype(dtype)
            bias = rng.standard_normal(f).astype(dtype)
            h_out = (h + 2 * padding - kh) // stride + 1
            w_out = (w + 2 * padding - kw) // stride + 1
            upstream = rng.standard_normal(
                (n, f, h_out, w_out)).astype(dtype)
            args = (x, kernels, bias, upstream, stride, padding)
            rtol = 1e-6 if dtype == np.float32 else 1e-12
            for got, want in zip(self.results(ops.conv2d, *args),
                                 self.results(einsum_conv2d, *args)):
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=rtol,
                                           atol=rtol * np.abs(want).max())


class TestRelu:
    def test_values(self):
        out = ops.relu(np.array([-1.0, 0.0, 3.0])).output
        assert np.array_equal(out, [0.0, 0.0, 3.0])

    def test_gradient_passthrough(self):
        (g,) = ops.relu(np.array([2.0])).grad(np.array([5.0]))
        assert g[0] == 5.0

    def test_gradient_blocked_below_zero(self):
        (g,) = ops.relu(np.array([-2.0])).grad(np.array([5.0]))
        assert g[0] == 0.0

    def test_finite_diff_away_from_kink(self, rng):
        x = rng.uniform(0.1, 1.0, (3, 7)) * rng.choice([-1.0, 1.0], (3, 7))
        report = fd(ops.relu, [x], tolerance=1e-6)
        assert report.passed, report

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    def test_idempotent(self, values):
        x = np.asarray(values)
        once = ops.relu(x).output
        twice = ops.relu(once).output
        assert np.array_equal(once, twice)
        assert np.all(once >= 0)


class TestMaxpool:
    def test_hand_value(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert ops.maxpool2x2(x).output[0, 0, 0, 0] == 4.0

    def test_constant_preserved(self):
        x = np.full((1, 2, 4, 4), 7.0)
        assert np.all(ops.maxpool2x2(x).output == 7.0)

    def test_gradient_routes_to_argmax(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        (g,) = ops.maxpool2x2(x).grad(np.ones((1, 1, 1, 1)))
        assert np.array_equal(g.reshape(2, 2), [[0, 0], [0, 1]])

    def test_tie_routes_to_first_in_row_major_order(self):
        x = np.full((1, 1, 2, 2), 3.0)
        (g,) = ops.maxpool2x2(x).grad(np.ones((1, 1, 1, 1)))
        assert np.array_equal(g.reshape(2, 2), [[1, 0], [0, 0]])

    def test_odd_size_rejected(self):
        with pytest.raises(DimensionError):
            ops.maxpool2x2(np.zeros((1, 1, 3, 4)))

    def test_gradients(self):
        # well-separated values so no window has a near-tie
        rng = np.random.default_rng(3)
        x = rng.permuted(np.arange(32, dtype=np.float64) * 0.05
                         ).reshape(1, 2, 4, 4)
        report = fd(ops.maxpool2x2, [x])
        assert report.passed, report


def reshape_argmax_pool(x):
    """Frozen copy of the earlier pool: a reshaped copy of every window,
    argmax (first max in row-major order) and take_along_axis; the
    gradient is a one-hot product reshaped back to (N, C, H, W)."""
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    win = (x.reshape(n, c, h2, 2, w2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h2, w2, 4))
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]

    def grad(upstream):
        onehot = np.arange(4).reshape(1, 1, 1, 1, 4) == arg[..., None]
        g = upstream[..., None] * onehot
        return (g.reshape(n, c, h2, w2, 2, 2)
                 .transpose(0, 1, 2, 4, 3, 5)
                 .reshape(n, c, h, w),)

    return out, grad


def conv_output(rng, n=4, filters=8, size=28):
    """An ops.conv2d output as the net feeds it to the pool: its memory is
    laid out (F, N, H, W), so it is not C-contiguous."""
    x = rng.standard_normal((n, 1, size, size)).astype(np.float32)
    k = rng.standard_normal((filters, 1, 3, 3)).astype(np.float32)
    return ops.conv2d(x, k, np.zeros(filters, np.float32), padding=1).output


class TestMaxpoolMatchesArgmaxOracle:
    """Output and gradient equal the frozen reshape/argmax pool byte for
    byte, and the gradient keeps its C-order strides."""

    def check(self, x, upstream):
        want_out, want_grad = reshape_argmax_pool(x)
        (want_dx,) = want_grad(upstream)
        result = ops.maxpool2x2(x)
        (dx,) = result.grad(upstream)
        assert result.output.dtype == want_out.dtype
        assert result.output.tobytes() == want_out.tobytes()
        assert dx.dtype == want_dx.dtype
        assert dx.strides == want_dx.strides
        assert dx.flags.c_contiguous
        assert dx.tobytes() == want_dx.tobytes()

    def upstream(self, rng, x):
        n, c, h, w = x.shape
        return rng.standard_normal((n, c, h // 2, w // 2)).astype(x.dtype)

    def test_relu_output_full_of_zero_ties(self, rng):
        x = ops.relu(conv_output(rng) - 1.0).output
        windows_all_zero = (ops.maxpool2x2(x).output == 0).mean()
        assert windows_all_zero > 0.1
        self.check(x, self.upstream(rng, x))

    def test_all_equal_windows(self, rng):
        x = np.full((2, 3, 4, 6), 0.5, dtype=np.float32)
        self.check(x, self.upstream(rng, x))

    def test_signed_zero_ties_pool_to_the_first_cell(self, rng):
        x = rng.choice(np.array([-0.0, 0.0], np.float32), (3, 4, 8, 8))
        self.check(x, self.upstream(rng, x))

    def test_nan_routes_to_the_first_nan(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        x[0, 0, 0, 1] = x[0, 0, 1, 0] = np.nan  # two NaNs in one window
        x[1, 1, 3, 3] = np.nan  # the window's last cell
        self.check(x, self.upstream(rng, x))
        (dx,) = ops.maxpool2x2(x).grad(np.ones((2, 2, 2, 2)))
        assert dx[0, 0, 0, 1] == 1 and dx[0, 0, 1, 0] == 0
        assert dx[1, 1, 3, 3] == 1

    def test_negative_and_non_finite_upstream(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        upstream = -np.abs(self.upstream(rng, x))
        upstream[0, 0, 0, 0] = np.nan
        upstream[1, 1, 1, 1] = -np.inf
        with np.errstate(invalid="ignore"):
            self.check(x, upstream)

    def test_float64(self, rng):
        x = rng.standard_normal((3, 5, 6, 10))
        self.check(x, self.upstream(rng, x))

    def test_conv_output_layout(self, rng):
        x = conv_output(rng)
        assert not x.flags.c_contiguous
        self.check(x, self.upstream(rng, x))
        relu_out = ops.relu(x).output
        self.check(relu_out, self.upstream(rng, relu_out))


class TestDownsample:
    def test_mean_oracle(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert ops.downsample_avg(x, 2).output[0, 0, 0, 0] == 2.5

    def test_factor_one_identity(self, rng):
        x = rng.standard_normal((2, 1, 4, 4))
        assert np.array_equal(ops.downsample_avg(x, 1).output, x)

    def test_constant_preserved(self):
        x = np.full((1, 1, 8, 8), 0.3)
        assert np.allclose(ops.downsample_avg(x, 4).output, 0.3)

    def test_indivisible_rejected(self):
        with pytest.raises(DimensionError):
            ops.downsample_avg(np.zeros((1, 1, 6, 6)), 4)

    def test_gradients(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        report = fd(lambda a: ops.downsample_avg(a, 2), [x])
        assert report.passed, report


class TestAffine:
    def test_identity(self, rng):
        x = rng.standard_normal((3, 4))
        out = ops.affine(x, np.eye(4), np.zeros(4)).output
        assert np.allclose(out, x)

    def test_hand_value(self):
        out = ops.affine(np.array([[1.0, 2.0]]), np.array([[1.0], [1.0]]),
                         np.array([3.0])).output
        assert out.shape == (1, 1)
        assert out[0, 0] == 6.0

    def test_zero_input_replicates_bias(self):
        b = np.array([0.5, -1.0])
        out = ops.affine(np.zeros((3, 4)), np.zeros((4, 2)), b).output
        assert np.array_equal(out, np.tile(b, (3, 1)))

    def test_gradients(self, rng):
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal(4)
        report = fd(ops.affine, [x, w, b], tolerance=1e-6)
        assert report.passed, report


class TestL2Normalize:
    def test_three_four_five(self):
        out = ops.l2_normalize(np.array([[3.0, 4.0]])).output
        assert np.allclose(out, [[0.6, 0.8]])

    def test_unit_vector_unchanged(self):
        x = np.array([[0.0, 1.0, 0.0]])
        assert np.allclose(ops.l2_normalize(x).output, x)

    def test_zero_row_guarded(self):
        out = ops.l2_normalize(np.zeros((1, 4))).output
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_rows_normalized_independently(self, rng):
        x = rng.standard_normal((5, 8))
        out = ops.l2_normalize(x).output
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_gradient_orthogonal_to_output(self, rng):
        # the projection gradient keeps the output on the unit sphere
        x = rng.standard_normal((2, 6))
        node = ops.l2_normalize(x)
        (g,) = node.grad(rng.standard_normal((2, 6)))
        y = node.output
        # moving along g changes the direction, not the norm, to 1st order
        assert abs((y * g).sum(axis=1)).max() < 1e-10

    def test_gradients(self, rng):
        x = rng.standard_normal((3, 6)) + 0.5
        report = fd(ops.l2_normalize, [x])
        assert report.passed, report


class TestConcat:
    def test_single_input(self, rng):
        x = rng.standard_normal((2, 3))
        assert np.array_equal(ops.concat([x]).output, x)

    def test_values(self):
        out = ops.concat([np.array([[1.0, 2.0]]), np.array([[3.0]])]).output
        assert np.array_equal(out, [[1.0, 2.0, 3.0]])

    def test_gradient_split(self):
        node = ops.concat([np.array([[1.0, 2.0]]), np.array([[3.0]])])
        g1, g2 = node.grad(np.array([[10.0, 20.0, 30.0]]))
        assert np.array_equal(g1, [[10.0, 20.0]])
        assert np.array_equal(g2, [[30.0]])

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ops.concat([np.zeros((2, 3)), np.zeros((3, 3))])

    def test_gradients(self, rng):
        xs = [rng.standard_normal((2, d)) for d in (3, 1, 4)]
        report = fd(lambda *a: ops.concat(a), xs, tolerance=1e-6)
        assert report.passed, report


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = rng.standard_normal((4, 4))
        out = ops.dropout(x, 0.0, rng).output
        assert np.array_equal(out, x)

    def test_inference_identity(self, rng):
        x = rng.standard_normal((4, 4))
        out = ops.dropout(x, 0.9, None).output
        assert np.array_equal(out, x)

    def test_mean_preserved(self):
        rng = np.random.default_rng(11)
        x = np.ones((100, 1000))
        out = ops.dropout(x, 0.5, rng).output
        assert abs(out.mean() - 1.0) < 0.05

    def test_bad_rate_rejected(self, rng):
        with pytest.raises(ConfigError):
            ops.dropout(np.zeros((2, 2)), 1.0, rng)

    def test_gradients_with_fixed_mask(self):
        x = np.random.default_rng(4).standard_normal((3, 5)) + 3.0
        report = fd(lambda a: ops.dropout(a, 0.4,
                                          np.random.default_rng(9)),
                    [x])
        assert report.passed, report

    def test_without_a_generator_the_gradient_is_the_identity(self, rng):
        x, upstream = rng.standard_normal((2, 3, 4))
        result = ops.dropout(x, 0.5, None)
        assert np.array_equal(result.output, x)
        (dx,) = result.grad(upstream)
        assert np.array_equal(dx, upstream)

    @pytest.mark.parametrize("rate, draws", [(0.0, 0), (0.3, 1)])
    def test_draws_once_in_the_input_shape_unless_the_rate_is_zero(
            self, rate, draws):
        x = np.ones((3, 7))
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        ops.dropout(x, rate, rng)
        for _ in range(draws):
            twin.random(x.shape)
        assert rng.random() == twin.random()


class TestFiniteDiffCheck:
    def test_relu_report_fields(self, rng):
        x = rng.uniform(0.2, 1.0, (2, 3))
        report = fd(ops.relu, [x], tolerance=1e-6)
        assert report.passed
        assert report.max_rel_error < 1e-6
        assert len(report.per_input) == 1

    def test_affine_identity_tight(self):
        report = fd(ops.affine,
                    [np.array([[0.3, -0.2]]), np.eye(2), np.zeros(2)],
                    tolerance=1e-8)
        assert report.passed, report

    def test_detects_wrong_gradient(self, rng):
        def broken(x):
            node = ops.relu(x)
            return ops.OpGrad(node.output,
                              lambda up: (2.0 * node.grad(up)[0],))

        x = rng.uniform(0.2, 1.0, (2, 3))
        report = fd(broken, [x])
        assert not report.passed

    def test_bad_step_rejected(self):
        with pytest.raises(ConfigError):
            ops.finite_diff_check(ops.relu, [np.ones(3)], step=0.0)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 32 - 1))
def test_conv_then_pool_shapes_compose(seed):
    """conv with padding 1 keeps H,W; pooling halves them."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 1, 4, 4))
    k = rng.standard_normal((2, 1, 3, 3))
    node = ops.conv2d(x, k, np.zeros(2), padding=1)
    pooled = ops.maxpool2x2(node.output)
    assert pooled.output.shape == (1, 2, 2, 2)
