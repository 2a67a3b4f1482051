"""Tensor core: forward semantics against independent oracles, and
reverse-mode gradients against central finite differences."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (add_at_conv_input_grad, add_at_gather_grad, einsum_conv_kernel_grad,
                     grad_check)
from svt import tensor as tc
from svt.attention import BlockShape, relative_bias_indices
from svt.subscale import SubscaleFactor, context_padding, slice_order
from svt.tensor import ConfigError, Tensor


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


class TestMatmul:
    def test_identity(self):
        x = np.arange(9, dtype=np.float32).reshape(3, 3)
        out = tc.matmul(Tensor(np.eye(3, dtype=np.float32)), Tensor(x))
        assert np.array_equal(out.data, x)

    def test_hand_sum(self):
        out = tc.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        expect = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    expect[i, j] += a[i, k] * b[k, j]
        got = tc.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).data
        assert np.abs(got - expect).max() / np.abs(expect).max() < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(tc.ShapeError):
            tc.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_leading_dims(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((5, 6))
        out = tc.matmul(Tensor(a), Tensor(b))
        assert out.data.shape == (2, 3, 4, 6)
        assert np.allclose(out.data[1, 2], a[1, 2] @ b, atol=1e-5)


class TestSoftmax:
    def test_uniform_logits(self):
        out = tc.softmax(Tensor([0.0, 0.0, 0.0]), axis=-1)
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_dominant_logit_is_stable(self):
        out = tc.softmax(Tensor([1000.0, 0.0, 0.0]), axis=-1)
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [1.0, 0.0, 0.0], atol=1e-12)

    def test_against_exp_sum_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expect = np.exp(x) / np.exp(x).sum()
        got = tc.softmax(Tensor(x, dtype=np.float64), axis=-1).data
        assert np.abs(got - expect).max() < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = tc.softmax(Tensor(rng.standard_normal((8, 16)) * 5), axis=-1)
        assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
           st.floats(-100, 100))
    def test_shift_invariance(self, logits, shift):
        x = np.array(logits)
        a = tc.softmax(Tensor(x, dtype=np.float64), axis=-1).data
        b = tc.softmax(Tensor(x + shift, dtype=np.float64), axis=-1).data
        assert np.abs(a - b).max() < 1e-9


class TestLayernorm:
    def test_constant_vector_zero_output(self):
        g = Tensor(np.ones(5)); b = Tensor(np.zeros(5))
        out = tc.layernorm(Tensor(np.full(5, 3.7)), g, b)
        assert np.abs(out.data).max() < 1e-3  # epsilon keeps it finite, near zero

    def test_already_normalized(self):
        g = Tensor(np.ones(2)); b = Tensor(np.zeros(2))
        out = tc.layernorm(Tensor([1.0, -1.0]), g, b)
        assert np.allclose(out.data, [1.0, -1.0], atol=1e-5)

    def test_against_mean_var_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(8)
        mu = x.mean()
        var = ((x - mu) ** 2).mean()
        expect = (x - mu) / np.sqrt(var + 1e-6)
        got = tc.layernorm(Tensor(x, dtype=np.float64),
                           Tensor(np.ones(8), dtype=np.float64),
                           Tensor(np.zeros(8), dtype=np.float64)).data
        assert np.abs(got - expect).max() < 1e-10


class TestConv3d:
    def test_pointwise_kernel_is_linear_map(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 3, 4, 3)).astype(np.float32)
        w = rng.standard_normal((3, 5)).astype(np.float32)
        out = tc.conv3d(Tensor(x), Tensor(w), Tensor(np.zeros(5, dtype=np.float32)),
                        (1, 1, 1), (1, 1, 1), (0, 0, 0), (2, 3, 4))
        assert np.allclose(out.data, x @ w, atol=1e-5)

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4, 5, 2)).astype(np.float32)
        k = np.zeros((2, 2), dtype=np.float32)  # 1x1x1 taps, 2 channels
        k[0, 0] = k[1, 1] = 1.0
        out = tc.conv3d(Tensor(x), Tensor(k), Tensor(np.zeros(2, dtype=np.float32)),
                        (1, 1, 1), (1, 1, 1), (0, 0, 0), (3, 4, 5))
        assert np.array_equal(out.data, x)

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_window_per_signed_padding(self, a):
        """kt=4, st=4, pad 2-a: output o must read input t in [4o-2+a, 4o+1+a]."""
        T = 16
        for t_probe in range(T):
            x = np.zeros((1, T, 1, 1, 1), dtype=np.float32)
            x[0, t_probe] = 1.0
            k = np.ones((4, 1), dtype=np.float32)
            out = tc.conv3d(Tensor(x), Tensor(k), Tensor(np.zeros(1, dtype=np.float32)),
                            (4, 1, 1), (4, 1, 1), (2 - a, 0, 0), (4, 1, 1))
            touched = set(np.nonzero(out.data.reshape(4))[0])
            expect = {o for o in range(4) if 4 * o - 2 + a <= t_probe <= 4 * o + 1 + a}
            assert touched == expect

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 2, 2, 3), dtype=np.float32))
        k = Tensor(np.zeros((2, 4), dtype=np.float32))  # expects 2 channels
        with pytest.raises(tc.ShapeError):
            tc.conv3d(x, k, Tensor(np.zeros(4, dtype=np.float32)),
                      (1, 1, 1), (1, 1, 1), (0, 0, 0), (2, 2, 2))


def strictly_prior_taps(pos, shape, extents):
    """Enumeration oracle: in-bounds window positions strictly before pos."""
    t, h, w = pos
    T, H, W = shape
    ct, ch, cw = extents[0] // 2, extents[1] // 2, extents[2] // 2
    count = 0
    for dt in range(-ct, ct + 1):
        for dh in range(-ch, ch + 1):
            for dw in range(-cw, cw + 1):
                q = (t + dt, h + dh, w + dw)
                if not (0 <= q[0] < T and 0 <= q[1] < H and 0 <= q[2] < W):
                    continue
                if (dt, dh, dw) < (0, 0, 0):
                    count += 1
    return count


class TestMaskedConv3d:
    def test_origin_is_bias_only(self):
        rng = np.random.default_rng(5)
        n_taps = len(tc.masked_taps((3, 3, 3)))
        x = Tensor(rng.standard_normal((1, 2, 3, 3, 2)).astype(np.float32))
        k = Tensor(rng.standard_normal((n_taps * 2, 4)).astype(np.float32))
        bias = Tensor(np.arange(4, dtype=np.float32))
        out = tc.masked_conv3d(x, k, bias, (3, 3, 3))
        assert np.allclose(out.data[0, 0, 0, 0], bias.data)

    @pytest.mark.parametrize("extents", [(3, 3, 3), (5, 5, 5), (1, 3, 5)])
    def test_all_ones_counts_prior_neighbors(self, extents):
        shape = (3, 4, 4)
        n_taps = len(tc.masked_taps(extents))
        x = Tensor(np.ones((1,) + shape + (1,), dtype=np.float32))
        k = Tensor(np.ones((n_taps, 1), dtype=np.float32))
        out = tc.masked_conv3d(x, k, Tensor(np.zeros(1, dtype=np.float32)), extents)
        for t in range(shape[0]):
            for h in range(shape[1]):
                for w in range(shape[2]):
                    assert out.data[0, t, h, w, 0] == strictly_prior_taps(
                        (t, h, w), shape, extents)

    def test_even_extent_rejected(self):
        with pytest.raises(ConfigError):
            tc.masked_taps((2, 3, 3))

    def test_sensitivity_respects_raster_order(self):
        """Gradient at p flows only from inputs strictly before p in raster order."""
        rng = np.random.default_rng(9)
        shape = (2, 3, 3)
        P = int(np.prod(shape))
        n_taps = len(tc.masked_taps((3, 3, 3)))
        k = Tensor(rng.standard_normal((n_taps * 2, 3)), dtype=np.float64)
        b = Tensor(rng.standard_normal(3), dtype=np.float64)
        for p in range(P):
            x = Tensor(rng.standard_normal((1,) + shape + (2,)),
                       requires_grad=True, dtype=np.float64)
            out = tc.masked_conv3d(x, k, b, (3, 3, 3))
            flat = tc.reshape(out, (P, 3))
            tc.backward(tc.sum_all(tc.index(flat, p)))
            touched = np.nonzero(np.abs(x.grad[0]).sum(axis=-1).reshape(P))[0]
            assert all(q < p for q in touched)

    def test_windows_cached_and_read_only(self):
        """The (P, K) window map is a read-only view of the cached index
        map, so a caller cannot corrupt later convolutions."""
        windows = tc.masked_conv_windows((3, 3, 3), (2, 4, 4))
        assert windows.shape == (32, len(tc.masked_taps((3, 3, 3))))
        assert np.shares_memory(windows, tc.masked_conv_windows((3, 3, 3), [2, 4, 4]))
        with pytest.raises(ValueError):
            windows[0, 0] = 0


def conv_input_grad(conv, x, kernel, g):
    """x.grad of ``conv(x, kernel, zero bias)`` swept back from g."""
    xt = Tensor(x, requires_grad=True)
    tc.backward(conv(xt, Tensor(kernel), Tensor(np.zeros(kernel.shape[1], x.dtype))), g)
    return xt.grad


class TestConvInputScatter:
    """The per-tap scatter of the conv input gradient is bit-identical to
    the ``np.add.at`` form it replaced."""

    @pytest.mark.parametrize("s", [(2, 2, 2), (4, 2, 2)])
    def test_encoder_geometry(self, s):
        rng = np.random.default_rng(sum(s))
        extents, video = (3, 3, 3), (2 * s[0], 16, 16)
        slice_shape = tuple(v // f for v, f in zip(video, s))
        kernel = rng.standard_normal((27 * 48, 32)).astype(np.float32)
        pads = []
        for idx in slice_order(SubscaleFactor(*s)):
            pad = context_padding(extents, idx)
            pads += pad
            x = rng.standard_normal((1,) + video + (48,)).astype(np.float32)
            g = rng.standard_normal((1,) + slice_shape + (32,)).astype(np.float32)
            got = conv_input_grad(lambda x, k, b: tc.conv3d(x, k, b, extents, s, pad, slice_shape),
                                  x, kernel, g)
            want = add_at_conv_input_grad(x, kernel, g, tc.kernel_taps(extents), s, pad)
            assert np.array_equal(got, want)
        assert min(pads) == (-2 if s[0] == 4 else 0)

    def test_masked_conv_batch_8(self):
        rng = np.random.default_rng(8)
        extents = (3, 3, 3)
        taps = tc.masked_taps(extents)
        x = rng.standard_normal((8, 2, 8, 8, 32)).astype(np.float32)
        kernel = rng.standard_normal((len(taps) * 32, 64)).astype(np.float32)
        g = rng.standard_normal((8, 2, 8, 8, 64)).astype(np.float32)
        got = conv_input_grad(lambda x, k, b: tc.masked_conv3d(x, k, b, extents), x, kernel, g)
        assert np.array_equal(got, add_at_conv_input_grad(x, kernel, g, taps, (1, 1, 1),
                                                          (1, 1, 1)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_shapes(self, dtype):
        rng = np.random.default_rng(np.dtype(dtype).itemsize)
        for _ in range(30):
            B, cin, cout = rng.integers(1, 4, size=3)
            in_shape = tuple(rng.integers(1, 6, size=3))
            extents = tuple(rng.integers(1, 4, size=3))
            stride = tuple(rng.integers(1, 4, size=3))
            pad = tuple(rng.integers(-2, 3, size=3))
            out_shape = tuple(rng.integers(1, 5, size=3))
            taps = tc.kernel_taps(extents)
            x = rng.standard_normal((B,) + in_shape + (cin,)).astype(dtype)
            kernel = rng.standard_normal((len(taps) * cin, cout)).astype(dtype)
            g = rng.standard_normal((B,) + out_shape + (cout,)).astype(dtype)
            got = conv_input_grad(
                lambda x, k, b: tc.conv3d(x, k, b, extents, stride, pad, out_shape), x, kernel, g)
            assert got.dtype == dtype
            assert np.array_equal(got, add_at_conv_input_grad(x, kernel, g, taps, stride, pad))


def assert_matches_reference(got, want):
    """float64: equal to rtol 1e-12; float32: within 1e-5 of the
    reference's largest magnitude."""
    assert got.dtype == want.dtype and got.shape == want.shape
    scale = np.abs(want).max()
    if got.dtype == np.float64:
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
    else:
        assert np.abs(got - want).max() <= 1e-5 * scale


def conv_kernel_grad(conv, x, kernel, g):
    """kernel.grad of ``conv(x, kernel, zero bias)`` swept back from g."""
    kt = Tensor(kernel, requires_grad=True)
    tc.backward(conv(Tensor(x), kt, Tensor(np.zeros(kernel.shape[1], x.dtype))), g)
    return kt.grad


DTYPES = [np.float32, np.float64]


class TestConvKernelGemm:
    """The one-GEMM conv kernel gradient matches the per-batch
    ``np.einsum`` form it replaced."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("s", [(2, 2, 2), (4, 2, 2)])
    def test_encoder_geometry(self, s, dtype):
        rng = np.random.default_rng(sum(s))
        extents, video = (3, 3, 3), (2 * s[0], 16, 16)
        slice_shape = tuple(v // f for v, f in zip(video, s))
        kernel = rng.standard_normal((27 * 48, 32)).astype(dtype)
        for idx in slice_order(SubscaleFactor(*s)):
            pad = context_padding(extents, idx)
            x = rng.standard_normal((1,) + video + (48,)).astype(dtype)
            g = rng.standard_normal((1,) + slice_shape + (32,)).astype(dtype)
            got = conv_kernel_grad(
                lambda x, k, b: tc.conv3d(x, k, b, extents, s, pad, slice_shape), x, kernel, g)
            assert_matches_reference(
                got, einsum_conv_kernel_grad(x, g, tc.kernel_taps(extents), s, pad))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_masked_conv_batch_8(self, dtype):
        rng = np.random.default_rng(8)
        extents = (3, 3, 3)
        taps = tc.masked_taps(extents)
        x = rng.standard_normal((8, 2, 8, 8, 32)).astype(dtype)
        kernel = rng.standard_normal((len(taps) * 32, 64)).astype(dtype)
        g = rng.standard_normal((8, 2, 8, 8, 64)).astype(dtype)
        got = conv_kernel_grad(lambda x, k, b: tc.masked_conv3d(x, k, b, extents), x, kernel, g)
        assert_matches_reference(got, einsum_conv_kernel_grad(x, g, taps, (1, 1, 1), (1, 1, 1)))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_random_shapes(self, dtype):
        rng = np.random.default_rng(np.dtype(dtype).itemsize + 1)
        for _ in range(30):
            B, cin, cout = rng.integers(1, 4, size=3)
            in_shape = tuple(rng.integers(1, 6, size=3))
            extents = tuple(rng.integers(1, 4, size=3))
            stride = tuple(rng.integers(1, 4, size=3))
            pad = tuple(rng.integers(-2, 3, size=3))
            out_shape = tuple(rng.integers(1, 5, size=3))
            taps = tc.kernel_taps(extents)
            x = rng.standard_normal((B,) + in_shape + (cin,)).astype(dtype)
            kernel = rng.standard_normal((len(taps) * cin, cout)).astype(dtype)
            g = rng.standard_normal((B,) + out_shape + (cout,)).astype(dtype)
            got = conv_kernel_grad(
                lambda x, k, b: tc.conv3d(x, k, b, extents, stride, pad, out_shape), x, kernel, g)
            assert_matches_reference(got, einsum_conv_kernel_grad(x, g, taps, stride, pad))


def gather_grad(table, idx, g, axis):
    """table.grad of ``gather(table, idx, axis)`` swept back from g."""
    t = Tensor(table, requires_grad=True)
    tc.backward(tc.gather(t, idx, axis=axis), g)
    return t.grad


class TestGatherBincount:
    """The ``np.bincount`` gather backward matches the ``np.add.at`` form
    it replaced, on every axis."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_axis_0_repeated_indices(self, dtype):
        rng = np.random.default_rng(0)
        table = rng.standard_normal((8, 32)).astype(dtype)
        for idx in ([3, 3, 3, 0, 7, 3], rng.integers(0, 8, size=(4, 5)), [5]):
            idx = np.asarray(idx)
            g = rng.standard_normal(idx.shape + (32,)).astype(dtype)
            got = gather_grad(table, idx, g, 0)
            assert_matches_reference(got, add_at_gather_grad(table, idx, g, 0))
            untouched = np.setdiff1d(np.arange(8), idx)
            assert not got[untouched].any()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("block", [(2, 8, 8), (4, 4, 4), (1, 4, 4), (2, 2, 2), (4, 1, 8)])
    def test_axis_1_relative_bias(self, block, dtype):
        bs = BlockShape(*block)
        rng = np.random.default_rng(int(np.prod(block)))
        for idx, extent in zip(relative_bias_indices(bs), block):
            table = rng.standard_normal((4, 2 * extent - 1)).astype(dtype)
            g = rng.standard_normal((4,) + idx.shape).astype(dtype)
            assert_matches_reference(gather_grad(table, idx, g, 1),
                                     add_at_gather_grad(table, idx, g, 1))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_random_shapes(self, dtype):
        rng = np.random.default_rng(np.dtype(dtype).itemsize)
        for _ in range(30):
            shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
            axis = int(rng.integers(0, len(shape)))
            idx = rng.integers(0, shape[axis], size=tuple(rng.integers(1, 5, size=2)))
            table = rng.standard_normal(shape).astype(dtype)
            g = rng.standard_normal(
                shape[:axis] + idx.shape + shape[axis + 1:]).astype(dtype)
            got = gather_grad(table, idx, g, axis)
            assert_matches_reference(got, add_at_gather_grad(table, idx, g, axis))


class TestDeadGradients:
    """A parent that requires no gradient gets none, and skipping it leaves
    the other parents' gradients bit-identical."""

    N_MASKED = len(tc.masked_taps((3, 3, 3)))
    CASES = {
        "conv3d": (lambda x, k, b: tc.conv3d(x, k, b, (3, 3, 3), (2, 2, 2), (1, 0, -1), (2, 2, 2)),
                   [(2, 4, 4, 4, 3), (27 * 3, 5), (5,)]),
        "masked_conv3d": (lambda x, k, b: tc.masked_conv3d(x, k, b, (3, 3, 3)),
                          [(2, 3, 4, 4, 3), (N_MASKED * 3, 5), (5,)]),
        "matmul": (tc.matmul, [(2, 3, 4), (4, 5)]),
        "add": (tc.add, [(3, 4), (1, 4)]),
        "sub": (tc.sub, [(3, 4), (3, 1)]),
        "mul": (tc.mul, [(2, 3, 4), (3, 1)]),
    }

    @pytest.mark.parametrize("op", list(CASES))
    def test_constant_parent_is_skipped(self, op):
        fn, shapes = self.CASES[op]
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        arrays = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
        g = rng.standard_normal(fn(*map(Tensor, arrays)).data.shape).astype(np.float32)

        def grads(live):
            ts = [Tensor(a, requires_grad=flag) for a, flag in zip(arrays, live)]
            tc.backward(fn(*ts), g)
            return [t.grad for t in ts]

        full = grads([True] * len(arrays))
        for const in range(len(arrays)):
            got = grads([i != const for i in range(len(arrays))])
            assert got[const] is None
            for i in range(len(arrays)):
                if i != const:
                    assert np.array_equal(got[i], full[i])


class TestGradients:
    """Reverse-mode vs central finite differences, float64, eps=1e-3."""

    def test_linear_map_is_exact(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal((6, 4)), dtype=np.float64)
        x = t64(rng, 3, 6)
        err = grad_check(lambda x: tc.sum_all(tc.matmul(x, w)), [x])
        assert err < 1e-8

    def test_softmax_nll_composite(self):
        rng = np.random.default_rng(1)
        x = t64(rng, 4, 8)
        targets = rng.integers(0, 8, size=4)
        def nll(x):
            return tc.neg(tc.sum_all(tc.take_index_last(tc.log_softmax(x, -1), targets)))
        assert grad_check(nll, [x]) < 1e-4

    @pytest.mark.parametrize("op", ["add", "mul", "relu", "sigmoid", "log",
                                    "clip", "concat", "index_int", "index_strided",
                                    "index_ellipsis", "transpose", "reshape",
                                    "softmax", "layernorm", "gather"])
    def test_each_op(self, op):
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        w = Tensor(rng.standard_normal((3, 4)), dtype=np.float64)
        x = t64(rng, 3, 4)
        y = t64(rng, 3, 4)
        if op == "add":
            fn, inputs = (lambda a, b: tc.sum_all(tc.mul(tc.add(a, b), w))), [x, y]
        elif op == "mul":
            fn, inputs = (lambda a, b: tc.sum_all(tc.mul(tc.mul(a, b), w))), [x, y]
        elif op == "relu":
            assert np.abs(x.data).min() > 1e-3  # no input within eps of the kink
            fn, inputs = (lambda a: tc.sum_all(tc.mul(tc.relu(a), w))), [x]
        elif op == "sigmoid":
            fn, inputs = (lambda a: tc.sum_all(tc.mul(tc.sigmoid(a), w))), [x]
        elif op == "log":
            pos = Tensor(np.abs(x.data) + 0.5, requires_grad=True, dtype=np.float64)
            fn, inputs = (lambda a: tc.sum_all(tc.mul(tc.log(a), w))), [pos]
        elif op == "clip":
            assert np.abs(np.abs(x.data) - 0.4).min() > 1e-3  # none within eps of a kink
            fn, inputs = (lambda a: tc.sum_all(tc.mul(tc.clip(a, -0.4, 0.4), w))), [x]
        elif op == "concat":
            wc = Tensor(rng.standard_normal((3, 8)), dtype=np.float64)
            fn, inputs = (lambda a, b: tc.sum_all(tc.mul(tc.concat([a, b], -1), wc))), [x, y]
        elif op == "index_int":
            wi = Tensor(rng.standard_normal(4), dtype=np.float64)
            fn, inputs = (lambda a: tc.sum_all(tc.mul(tc.index(a, 1), wi))), [x]
        elif op == "index_strided":
            vol = t64(rng, 4, 4, 4, 2)
            wv = Tensor(rng.standard_normal((2, 2, 2, 2)), dtype=np.float64)
            key = (slice(0, None, 2), slice(1, None, 2), slice(0, None, 2))
            fn, inputs = (lambda a: tc.sum_all(tc.mul(tc.index(a, key), wv))), [vol]
        elif op == "index_ellipsis":
            wn = Tensor(rng.standard_normal((3, 2)), dtype=np.float64)
            fn, inputs = (lambda a: tc.sum_all(tc.mul(tc.index(a, (..., slice(1, 3))), wn))), [x]
        elif op == "transpose":
            wt = Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
            fn, inputs = (lambda a: tc.sum_all(tc.mul(tc.transpose(a, (1, 0)), wt))), [x]
        elif op == "reshape":
            wr = Tensor(rng.standard_normal((2, 6)), dtype=np.float64)
            fn, inputs = (lambda a: tc.sum_all(tc.mul(tc.reshape(a, (2, 6)), wr))), [x]
        elif op == "softmax":
            fn, inputs = (lambda a: tc.sum_all(tc.mul(tc.softmax(a, -1), w))), [x]
        elif op == "layernorm":
            g = t64(rng, 4)
            b = t64(rng, 4)
            fn, inputs = (lambda a, g, b: tc.sum_all(tc.mul(tc.layernorm(a, g, b), w))), [x, g, b]
        elif op == "gather":
            idx = rng.integers(0, 3, size=(5,))
            wg = Tensor(rng.standard_normal((5, 4)), dtype=np.float64)
            fn, inputs = (lambda a: tc.sum_all(tc.mul(tc.gather(a, idx), wg))), [x]
        assert grad_check(fn, inputs) < 1e-4

    def test_conv_and_masked_conv(self):
        rng = np.random.default_rng(4)
        x = t64(rng, 1, 3, 4, 4, 2)
        k = t64(rng, 2 * 2 * 2 * 2, 3)
        b = t64(rng, 3)
        w = Tensor(rng.standard_normal((1, 2, 2, 2, 3)), dtype=np.float64)
        err = grad_check(
            lambda x, k, b: tc.sum_all(tc.mul(tc.conv3d(
                x, k, b, (2, 2, 2), (2, 2, 2), (1, 0, -1), (2, 2, 2)), w)),
            [x, k, b])
        assert err < 1e-4
        n_taps = len(tc.masked_taps((3, 3, 3)))
        km = t64(rng, n_taps * 2, 3)
        wm = Tensor(rng.standard_normal((1, 3, 4, 4, 3)), dtype=np.float64)
        err = grad_check(
            lambda x, k, b: tc.sum_all(tc.mul(tc.masked_conv3d(x, k, b, (3, 3, 3)), wm)),
            [x, km, b])
        assert err < 1e-4


class TestGraphMechanics:
    def test_backward_visits_shared_nodes_once(self):
        # y = x + x: gradient must be exactly 2, not 4
        x = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        y = tc.add(x, x)
        z = tc.add(y, y)
        tc.backward(tc.sum_all(z))
        assert x.grad[0] == 4.0  # (x+x)+(x+x): d/dx = 4, each node visited once

    def test_gradient_shape_matches_value(self):
        rng = np.random.default_rng(2)
        x = t64(rng, 3, 5)
        tc.backward(tc.sum_all(tc.relu(x)))
        assert x.grad.shape == x.data.shape

    def test_backward_frees_intermediate_grads(self):
        """After ``backward`` no op output keeps a ``.grad``; the leaves
        hold their full gradients, shared nodes included."""
        rng = np.random.default_rng(3)
        x, w = t64(rng, 3, 4), t64(rng, 4, 2)
        y = tc.matmul(x, w)
        z = tc.add(tc.relu(y), y)
        loss = tc.sum_all(tc.mul(z, z))
        tc.backward(loss)
        nodes, stack = [], [loss]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node._parents)
        assert all(n.grad is None for n in nodes if n._backward is not None)
        gy = 2 * z.data * ((y.data > 0) + 1.0)
        assert np.allclose(x.grad, gy @ w.data.T, rtol=1e-12)
        assert np.allclose(w.grad, x.data.T @ gy, rtol=1e-12)

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with tc.no_grad():
            y = tc.add(x, x)
        assert y._backward is None and not y.requires_grad

