"""Tensor core: forward semantics against independent oracles, and
reverse-mode gradients against central finite differences."""

import ast
import tracemalloc
import weakref
import zlib
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (add_at_conv_input_grad, add_at_gather_grad, batched_matmul,
                     einsum_conv_kernel_grad, grad_check, graph_bytes, graph_nodes,
                     masked_decoder_stack, mul_masked_conv3d, out_of_place_layernorm, product,
                     is_subnormal, out_of_place_layernorm_array, put_along_axis_one_hot,
                     reference_backward, relative_bias_indices, seeded_backward, softmax_alone,
                     sum_all,
                     three_exp_sigmoid, two_temporary_softmax, unflushed_cross_entropy,
                     zero_filled_index)
from svt import cli, data, optim
from svt import model as M
from svt import tensor as tc
from svt.attention import MASK_NEG, BlockShape
from svt.subscale import (SubscaleFactor, context_padding, slice_key, slice_order, slice_rank,
                          visibility_mask)
from svt.tensor import ConfigError, Tensor


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


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
        got = tc.matmul(Tensor(a), Tensor(b)).data
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
        out = softmax_alone(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_dominant_logit_is_stable(self):
        out = softmax_alone(Tensor([1000.0, 0.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [1.0, 0.0, 0.0], atol=1e-12)

    def test_against_exp_sum_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expect = np.exp(x) / np.exp(x).sum()
        got = softmax_alone(Tensor(x)).data
        assert np.abs(got - expect).max() < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = softmax_alone(Tensor(rng.standard_normal((8, 16)) * 5))
        assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
           st.floats(-100, 100))
    def test_shift_invariance(self, logits, shift):
        x = np.array(logits)
        a = softmax_alone(Tensor(x)).data
        b = softmax_alone(Tensor(x + shift)).data
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
        got = tc.layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
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
        k = Tensor(rng.standard_normal((n_taps * 2, 3)))
        b = Tensor(rng.standard_normal(3))
        for p in range(P):
            x = Tensor(rng.standard_normal((1,) + shape + (2,)), requires_grad=True)
            out = tc.masked_conv3d(x, k, b, (3, 3, 3))
            flat = tc.reshape(out, (P, 3))
            tc.backward(sum_all(tc.index(flat, p)))
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
    seeded_backward(conv(xt, Tensor(kernel), Tensor(np.zeros(kernel.shape[1], x.dtype))), g)
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
    seeded_backward(conv(Tensor(x), kt, Tensor(np.zeros(kernel.shape[1], x.dtype))), g)
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


class TestConvVisible:
    """``conv3d(x, visible=m)`` reads ``x`` as ``mul(x, m)`` would make it
    (``helpers.mul_masked_conv3d``): the output and the kernel, bias and
    input gradients equal that reference's, in float32 and float64."""

    @staticmethod
    def sweep(conv, x, kernel, bias, g):
        """(output, kernel grad, bias grad, input grad) of ``conv`` swept
        back from ``g``."""
        xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, kernel, bias))
        out = conv(xt, kt, bt)
        seeded_backward(out, g)
        return out.data, kt.grad, bt.grad, xt.grad

    def check(self, rng, dtype, x_shape, cout, extents, stride, pad, out_shape, visible):
        taps = tc.kernel_taps(extents)
        x = rng.standard_normal(x_shape).astype(dtype)
        kernel = rng.standard_normal((len(taps) * x_shape[-1], cout)).astype(dtype)
        bias = rng.standard_normal(cout).astype(dtype)
        g = rng.standard_normal((x_shape[0], *out_shape, cout)).astype(dtype)
        got = self.sweep(lambda x, k, b: tc.conv3d(x, k, b, extents, stride, pad, out_shape,
                                                   visible=visible), x, kernel, bias, g)
        want = self.sweep(lambda x, k, b: mul_masked_conv3d(x, k, b, extents, stride, pad,
                                                            out_shape, visible),
                          x, kernel, bias, g)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype == dtype and np.array_equal(a, b)
        return got

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mask", ["preceding", "random", "none"])
    def test_encoder_geometry(self, dtype, mask):
        """Every slice of s = (4, 2, 2), whose later offsets pad negatively."""
        rng = np.random.default_rng(DTYPES.index(dtype))
        s, extents, video = SubscaleFactor(4, 2, 2), (3, 3, 3), (8, 8, 8)
        slice_shape = s.divide(video)
        pads = []
        for idx in slice_order(s):
            pad = context_padding(extents, idx)
            pads += pad
            visible = {"preceding": visibility_mask(video, s, idx),
                       "random": rng.random(video) < 0.5,
                       "none": np.zeros(video, dtype=bool)}[mask]
            out, gk, _, gx = self.check(rng, dtype, (2, *video, 3), 4, extents, s, pad,
                                         slice_shape, visible)
            if not visible.any():  # the output is the bias at every position
                assert not gk.any() and not gx.any()
                assert np.array_equal(out, np.broadcast_to(out[0, 0, 0, 0], out.shape))
        assert min(pads) == -2

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_random_shapes(self, dtype):
        rng = np.random.default_rng(np.dtype(dtype).itemsize + 2)
        for _ in range(30):
            B, cin, cout = rng.integers(1, 4, size=3)
            in_shape = tuple(int(n) for n in rng.integers(1, 6, size=3))
            self.check(rng, dtype, (B, *in_shape, cin), cout, tuple(rng.integers(1, 4, size=3)),
                       tuple(rng.integers(1, 4, size=3)), tuple(rng.integers(-2, 3, size=3)),
                       tuple(rng.integers(1, 5, size=3)), rng.random(in_shape) < 0.5)

    def test_visible_shape_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 2, 2, 1), dtype=np.float32))
        k, b = Tensor(np.zeros((1, 1), dtype=np.float32)), Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(tc.ShapeError, match="visibility"):
            tc.conv3d(x, k, b, (1, 1, 1), (1, 1, 1), (0, 0, 0), (2, 2, 2),
                      visible=np.ones((2, 2, 1), dtype=bool))


def gather_grad(table, idx, g):
    """table.grad of ``gather(table, idx)`` swept back from g."""
    t = Tensor(table, requires_grad=True)
    seeded_backward(tc.gather(t, idx), g)
    return t.grad


class TestGatherBincount:
    """The ``np.bincount`` gather backward matches the ``np.add.at`` form
    it replaced."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_axis_0_repeated_indices(self, dtype):
        rng = np.random.default_rng(0)
        table = rng.standard_normal((8, 32)).astype(dtype)
        for idx in ([3, 3, 3, 0, 7, 3], rng.integers(0, 8, size=(4, 5)), [5]):
            idx = np.asarray(idx)
            g = rng.standard_normal(idx.shape + (32,)).astype(dtype)
            got = gather_grad(table, idx, g)
            assert_matches_reference(got, add_at_gather_grad(table, idx, g))
            untouched = np.setdiff1d(np.arange(8), idx)
            assert not got[untouched].any()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("block", [(2, 8, 8), (4, 4, 4), (1, 4, 4), (2, 2, 2), (4, 1, 8)])
    def test_axis_1_relative_bias(self, block, dtype):
        """A relative-bias table's distance axis, axis 1, read as the rows of
        the transposed table, as ``helpers.gathered_relative_bias_matrix``
        reads it: a strided table whose every row is read many times."""
        bs = BlockShape(*block)
        rng = np.random.default_rng(int(np.prod(block)))
        for idx, extent in zip(relative_bias_indices(bs), block):
            table = rng.standard_normal((4, 2 * extent - 1)).astype(dtype).T
            g = rng.standard_normal(idx.shape + (4,)).astype(dtype)
            assert_matches_reference(gather_grad(table, idx, g),
                                     add_at_gather_grad(table, idx, g))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_random_shapes(self, dtype):
        rng = np.random.default_rng(np.dtype(dtype).itemsize)
        for _ in range(30):
            shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
            idx = rng.integers(0, shape[0], size=tuple(rng.integers(1, 5, size=2)))
            table = rng.standard_normal(shape).astype(dtype)
            g = rng.standard_normal(idx.shape + shape[1:]).astype(dtype)
            got = gather_grad(table, idx, g)
            assert_matches_reference(got, add_at_gather_grad(table, idx, g))


class TestIndexIntoGradBuffer:
    """``tc.index`` adds its gradient into the parent's own buffer; the
    parent and leaf gradients are bit-equal to the zero-filled reference
    (``helpers.zero_filled_index``) when three index nodes (an attention
    layer's q, k and v) and another op read one parent, whichever of them
    reaches the parent first."""

    @staticmethod
    def gradients(index, dtype, other_first):
        rng = np.random.default_rng(int(other_first))
        leaf = Tensor(rng.standard_normal((2, 5, 3, 4)).astype(dtype), requires_grad=True)
        # (3, 2, 5, 4), a transposed view: the buffer is C-contiguous
        # whatever the parent's layout
        parent = tc.transpose(leaf, (2, 0, 1, 3))
        seen = []
        sweep = parent._backward
        parent._backward = lambda g: (seen.append(g.copy()), sweep(g))
        parts = [tc.mul(index(parent, i), rng.standard_normal((2, 5, 4))) for i in range(3)]
        other = tc.mul(parent, rng.standard_normal((3, 2, 5, 4)))
        terms = [other] + parts if other_first else parts + [other]
        loss = terms[0]
        for term in terms[1:]:
            loss = tc.add(loss, term)  # (3, 2, 5, 4): the parts broadcast
        seeded_backward(loss, rng.standard_normal(loss.data.shape).astype(dtype))
        (g_parent,) = seen
        return g_parent, leaf.grad

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("other_first", [False, True])
    def test_bit_equal_to_zero_filled(self, dtype, other_first):
        got = self.gradients(tc.index, dtype, other_first)
        want = self.gradients(zero_filled_index, dtype, other_first)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype and np.array_equal(g, w)

    def test_leaf_parent_accumulates(self):
        """On a leaf, the index gradient adds to the gradient it holds."""
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.grad = np.ones((2, 3))
        seeded_backward(tc.index(x, (1, slice(0, 2))), np.array([5.0, 7.0]))
        assert np.array_equal(x.grad, [[1, 1, 1], [6, 8, 1]])


class TestIndexParents:
    """Every ``tc.index`` whose parent needs a gradient gets a C-contiguous
    parent in a desk training step: its backward's zero buffer, C-ordered,
    then reaches the reshape before it as a view.  A transposed parent
    would give the same bits through a copy, which nothing else catches."""

    def test_desk_training_step(self, monkeypatch):
        conf = cli.load_config(CONFIGS / "sprites-rgb.cfg")
        cfg = cli.model_config_from(conf)
        videos = data.gen_sprites(*cfg.video_shape, 2, channels=cfg.bytes_per_pixel, seed=0)
        tcfg = cli.train_config_from(conf, SimpleNamespace(steps=1))
        index, contiguous = tc.index, []

        def recording(a, key):
            if a.requires_grad:
                contiguous.append(a.data.flags.c_contiguous)
            return index(a, key)

        monkeypatch.setattr(tc, "index", recording)
        optim.train(cfg, tcfg, videos)
        # q, k and v of every attention layer, at least
        assert len(contiguous) >= 3 * (len(cfg.enc_schedule) + len(cfg.dec_schedule))
        assert all(contiguous)


def test_every_public_function_is_used_by_the_package():
    """Static census: every public function of ``svt.tensor`` is referenced
    from ``src/svt``, so no op that only tests use comes back; reference
    forms that only tests use live in ``tests/helpers.py``."""
    package = Path(tc.__file__).parent
    defined = {node.name for node in ast.parse(Path(tc.__file__).read_text()).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name):
                used.add(node.id)
    assert len(defined) > 20 and "index" in defined
    assert sorted(defined - used) == []


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
        "mul": (lambda x, c: tc.mul(x, c.data), [(2, 3, 4), (3, 1)]),
    }

    @pytest.mark.parametrize("op", list(CASES))
    def test_constant_parent_is_skipped(self, op):
        fn, shapes = self.CASES[op]
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        arrays = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
        g = rng.standard_normal(fn(*map(Tensor, arrays)).data.shape).astype(np.float32)

        def grads(live):
            ts = [Tensor(a, requires_grad=flag) for a, flag in zip(arrays, live)]
            seeded_backward(fn(*ts), g)
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
        w = Tensor(rng.standard_normal((6, 4)))
        x = t64(rng, 3, 6)
        err = grad_check(lambda x: sum_all(tc.matmul(x, w)), [x])
        assert err < 1e-8

    def test_softmax_nll_composite(self):
        rng = np.random.default_rng(1)
        x = t64(rng, 4, 8)
        targets = rng.integers(0, 8, size=4)
        def nll(x):
            return tc.cross_entropy(x, targets, np.ones(4))
        assert grad_check(nll, [x]) < 1e-4

    @pytest.mark.parametrize("op", ["add", "mul", "relu", "sigmoid", "cross_entropy",
                                    "binary_cross_entropy", "concat", "index_int",
                                    "index_strided", "index_ellipsis", "transpose", "reshape",
                                    "softmax", "layernorm", "gather"])
    def test_each_op(self, op):
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        w = rng.standard_normal((3, 4))
        x = t64(rng, 3, 4)
        y = t64(rng, 3, 4)
        if op == "add":
            fn, inputs = (lambda a, b: sum_all(tc.mul(tc.add(a, b), w))), [x, y]
        elif op == "mul":
            fn, inputs = (lambda a: sum_all(tc.mul(tc.mul(a, y.data), w))), [x]
        elif op == "relu":
            assert np.abs(x.data).min() > 1e-3  # no input within eps of the kink
            fn, inputs = (lambda a: sum_all(tc.mul(tc.relu(a), w))), [x]
        elif op == "sigmoid":
            fn, inputs = (lambda a: sum_all(tc.mul(tc.sigmoid(a), w))), [x]
        elif op == "cross_entropy":
            targets = rng.integers(0, 4, size=3)
            fn, inputs = (lambda a: tc.cross_entropy(a, targets, [0.5, 0.0, 2.0])), [x]
        elif op == "binary_cross_entropy":
            # 3 entries clamped at each end, the rest in [0.2, 0.8]
            pred = Tensor(np.array([[-0.5, 0.2, 1.3, 0.5], [0.35, -0.1, 0.8, 1.05],
                                    [0.65, 1.5, -0.3, 0.4]]), requires_grad=True)
            z = rng.random((3, 4))
            fn, inputs = (lambda a: tc.binary_cross_entropy(a, z, np.abs(w))), [pred]
        elif op == "concat":
            wc = rng.standard_normal((3, 8))
            fn, inputs = (lambda a, b: sum_all(tc.mul(tc.concat([a, b], -1), wc))), [x, y]
        elif op == "index_int":
            wi = rng.standard_normal(4)
            fn, inputs = (lambda a: sum_all(tc.mul(tc.index(a, 1), wi))), [x]
        elif op == "index_strided":
            vol = t64(rng, 4, 4, 4, 2)
            wv = rng.standard_normal((2, 2, 2, 2))
            key = (slice(0, None, 2), slice(1, None, 2), slice(0, None, 2))
            fn, inputs = (lambda a: sum_all(tc.mul(tc.index(a, key), wv))), [vol]
        elif op == "index_ellipsis":
            wn = rng.standard_normal((3, 2))
            fn, inputs = (lambda a: sum_all(tc.mul(tc.index(a, (..., slice(1, 3))), wn))), [x]
        elif op == "transpose":
            wt = rng.standard_normal((4, 3))
            fn, inputs = (lambda a: sum_all(tc.mul(tc.transpose(a, (1, 0)), wt))), [x]
        elif op == "reshape":
            wr = rng.standard_normal((2, 6))
            fn, inputs = (lambda a: sum_all(tc.mul(tc.reshape(a, (2, 6)), wr))), [x]
        elif op == "softmax":
            fn, inputs = (lambda a: sum_all(tc.mul(softmax_alone(a), w))), [x]
        elif op == "layernorm":
            g = t64(rng, 4)
            b = t64(rng, 4)
            fn, inputs = (lambda a, g, b: sum_all(tc.mul(tc.layernorm(a, g, b), w))), [x, g, b]
        elif op == "gather":
            idx = rng.integers(0, 3, size=(5,))
            wg = rng.standard_normal((5, 4))
            fn, inputs = (lambda a: sum_all(tc.mul(tc.gather(a, idx), wg))), [x]
        assert grad_check(fn, inputs) < 1e-4

    @pytest.mark.parametrize("bias_grad", [True, False])
    def test_softmax_with_broadcast_bias(self, bias_grad):
        """The bias broadcasts over a leading axis, as an attention layer's
        (heads, n, n) bias does over its blocks; its gradient is summed."""
        rng = np.random.default_rng(9 + bias_grad)
        x = t64(rng, 3, 2, 4, 5)
        bias = t64(rng, 2, 4, 5)
        bias = Tensor(bias.data, requires_grad=bias_grad)
        w = rng.standard_normal((3, 2, 4, 5))

        def loss(a, b):
            return sum_all(tc.mul(tc.softmax(a, bias=b), w))

        if bias_grad:
            assert grad_check(loss, [x, bias]) < 1e-4
        else:
            assert grad_check(lambda a: loss(a, bias), [x]) < 1e-4
            assert bias.grad is None

    def test_conv_and_masked_conv(self):
        rng = np.random.default_rng(4)
        x = t64(rng, 1, 3, 4, 4, 2)
        k = t64(rng, 2 * 2 * 2 * 2, 3)
        b = t64(rng, 3)
        w = rng.standard_normal((1, 2, 2, 2, 3))
        err = grad_check(
            lambda x, k, b: sum_all(tc.mul(tc.conv3d(
                x, k, b, (2, 2, 2), (2, 2, 2), (1, 0, -1), (2, 2, 2)), w)),
            [x, k, b])
        assert err < 1e-4
        n_taps = len(tc.masked_taps((3, 3, 3)))
        km = t64(rng, n_taps * 2, 3)
        wm = rng.standard_normal((1, 3, 4, 4, 3))
        err = grad_check(
            lambda x, k, b: sum_all(tc.mul(tc.masked_conv3d(x, k, b, (3, 3, 3)), wm)),
            [x, km, b])
        assert err < 1e-4


class TestGraphMechanics:
    def test_backward_visits_shared_nodes_once(self):
        # y = x + x: gradient must be exactly 2, not 4
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = tc.add(x, x)
        z = tc.add(y, y)
        tc.backward(sum_all(z))
        assert x.grad[0] == 4.0  # (x+x)+(x+x): d/dx = 4, each node visited once

    def test_gradient_shape_matches_value(self):
        rng = np.random.default_rng(2)
        x = t64(rng, 3, 5)
        tc.backward(sum_all(tc.relu(x)))
        assert x.grad.shape == x.data.shape

    def test_backward_frees_intermediate_grads(self):
        """After ``backward`` no op output keeps a ``.grad``; the leaves
        hold their full gradients, shared nodes included."""
        rng = np.random.default_rng(3)
        x, w = t64(rng, 3, 4), t64(rng, 4, 2)
        y = tc.matmul(x, w)
        z = tc.add(tc.relu(y), y)
        loss = sum_all(product(z, z))
        tc.backward(loss)
        assert all(n.grad is None for n in graph_nodes(loss) if n.backward is not None)
        gy = 2 * z.data * ((y.data > 0) + 1.0)
        assert np.allclose(x.grad, gy @ w.data.T, rtol=1e-12)
        assert np.allclose(w.grad, x.data.T @ gy, rtol=1e-12)

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with tc.no_grad():
            y = tc.add(x, x)
        assert y._backward is None and not y.requires_grad

    def test_requires_grad_is_read_only(self):
        x = Tensor(np.ones(3))
        with pytest.raises(AttributeError):
            x.requires_grad = True
        assert x.node is None


class TestBackwardConsumesGraph:
    """``tc.backward`` releases every closure it runs: a swept graph keeps
    only its bare nodes and the leaves' gradients, and a second sweep
    through it raises before any gradient moves, instead of returning
    zeros.  Tests that sweep one graph again use
    ``helpers.reference_backward``, which gives the same gradients."""

    @staticmethod
    def graph(rng):
        x, w = t64(rng, 3, 4), t64(rng, 4, 2)
        y = tc.matmul(x, w)
        return x, w, y, sum_all(product(tc.relu(y), y))

    def test_swept_graph_keeps_only_leaf_gradients(self):
        x, w, _, loss = self.graph(np.random.default_rng(0))
        assert graph_bytes(loss) > 0
        tc.backward(loss)
        nodes = graph_nodes(loss)
        assert all(n.backward is None for n in nodes)
        assert all((n.grad is None) == bool(n.parents) for n in nodes)
        assert graph_bytes(loss) == x.grad.nbytes + w.grad.nbytes

    def test_second_backward_raises(self):
        x, w, _, loss = self.graph(np.random.default_rng(1))
        tc.backward(loss)
        gx, gw = x.grad.copy(), w.grad.copy()
        with pytest.raises(RuntimeError, match="earlier backward consumed"):
            tc.backward(loss)
        assert np.array_equal(x.grad, gx) and np.array_equal(w.grad, gw)

    def test_new_op_on_consumed_output_raises(self):
        x, w, y, loss = self.graph(np.random.default_rng(2))
        tc.backward(loss)
        tc.zero_grads([x, w])
        with pytest.raises(RuntimeError, match="earlier backward consumed"):
            tc.backward(sum_all(tc.mul(y, 2.0)))
        assert x.grad is None and w.grad is None

    def test_reference_sweep_matches_first_sweep(self):
        """On the ``gradient_reachability`` stack, every leaf's gradient
        from ``reference_backward`` equals the library sweep's
        (``seeded_backward``) bit for bit."""
        grads = []
        for sweep in (reference_backward, seeded_backward):
            rng = np.random.default_rng(5)
            _, yf = masked_decoder_stack((2, 4, 4), [BlockShape(1, 2, 2), BlockShape(2, 1, 2)],
                                         (3, 3, 3), rng)
            sweep(yf, rng.standard_normal(yf.data.shape))
            grads.append([n.grad for n in graph_nodes(yf) if not n.parents])
        assert len(grads[0]) == len(grads[1]) == 3 + 2 * 11  # x, the conv, 11 per layer
        for a, b in zip(*grads, strict=True):
            assert a is not None and np.array_equal(a, b)


N_MASKED = len(tc.masked_taps((3, 3, 3)))

# op family -> (shape of the watched op's input, the op on that input, which
# value the graph must keep: "none", "input" or "output").  ``c(shape)``
# makes a constant, ``p(shape)`` a leaf that needs a gradient.
GRAPH_CASES = {
    "add": ((2, 3, 4), lambda m, c, p: tc.add(m, c((3, 4))), "none"),
    "mul_constant": ((2, 3, 4), lambda m, c, p: tc.mul(m, 0.5), "none"),
    "mul_factor": ((2, 3, 4), lambda m, c, p: tc.mul(m, c((3, 4)).data), "none"),
    "relu": ((2, 3, 4), lambda m, c, p: tc.relu(tc.add(m, Tensor(np.array(-2.0)))), "output"),
    "sigmoid": ((2, 3, 4), lambda m, c, p: tc.sigmoid(m), "output"),
    "sum_all": ((2, 3, 4), lambda m, c, p: sum_all(m), "none"),
    "matmul_weight_constant": ((2, 3, 4), lambda m, c, p: tc.matmul(m, c((4, 5))), "none"),
    "matmul_weight_leaf": ((2, 3, 4), lambda m, c, p: tc.matmul(m, p((4, 5))), "input"),
    "matmul_batched_a": ((2, 3, 4), lambda m, c, p: tc.matmul(m, c((2, 4, 5))), "none"),
    "matmul_batched_b": ((2, 3, 4), lambda m, c, p: tc.matmul(c((2, 5, 3)), m), "none"),
    "softmax": ((2, 3, 4), lambda m, c, p: softmax_alone(m), "output"),
    "softmax_bias": ((3, 4), lambda m, c, p: tc.softmax(c((2, 3, 4)), bias=m), "output"),
    "cross_entropy": ((2, 3, 4), lambda m, c, p: tc.cross_entropy(
        m, np.arange(6).reshape(2, 3) % 4, c((2, 3)).data), "none"),
    "binary_cross_entropy": ((2, 3, 4), lambda m, c, p: tc.binary_cross_entropy(
        m, np.full((2, 3, 4), 0.25), c((2, 3, 1)).data), "input"),
    "layernorm": ((2, 3, 4), lambda m, c, p: tc.layernorm(m, p((4,)), p((4,))), "none"),
    "reshape": ((2, 3, 4), lambda m, c, p: tc.reshape(m, (6, 4)), "none"),
    "transpose": ((2, 3, 4), lambda m, c, p: tc.transpose(m, (2, 0, 1)), "none"),
    "concat": ((2, 3, 4), lambda m, c, p: tc.concat([m, c((2, 3, 2))]), "none"),
    "index": ((2, 3, 4), lambda m, c, p: tc.index(m, (1, slice(0, 2))), "none"),
    "gather": ((5, 4), lambda m, c, p: tc.gather(m, np.array([[0, 4], [4, 2]])), "none"),
    "conv3d": ((1, 3, 4, 4, 2), lambda m, c, p: tc.conv3d(
        m, p((27 * 2, 3)), p((3,)), (3, 3, 3), (2, 2, 2), (1, 0, -1), (2, 2, 2)), "input"),
    "masked_conv3d": ((1, 3, 4, 4, 2), lambda m, c, p: tc.masked_conv3d(
        m, p((N_MASKED * 2, 3)), p((3,)), (3, 3, 3)), "input"),
}


class TestGraphKeepsWhatBackwardReads:
    """A graph node holds no value of its own: a value that no backward
    reads is freed once the caller drops its Tensor, one that a backward
    reads survives, and dropping changes no gradient.  The watched value is
    an op output (``m``, made from a leaf), so only the caller and the graph
    can hold it."""

    @staticmethod
    def run(case, keep):
        shape, op, _ = GRAPH_CASES[case]
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        x = Tensor(rng.uniform(0.5, 1.5, shape), requires_grad=True)
        leaves, held = [x], []

        def c(s):
            return Tensor(rng.standard_normal(s))

        def p(s):
            leaves.append(Tensor(rng.standard_normal(s), requires_grad=True))
            return leaves[-1]

        def build():
            m = tc.mul(x, 2.0)
            out = op(m, c, p)
            refs = {"input": weakref.ref(m.data), "output": weakref.ref(out.data)}
            if keep:
                held.append((m, out))
            return sum_all(tc.mul(out, c(out.data.shape).data)), refs

        loss, refs = build()
        alive = {k: r() is not None for k, r in refs.items()}
        tc.backward(loss)
        return alive, [t.grad for t in leaves]

    @pytest.mark.parametrize("case", list(GRAPH_CASES))
    def test_unread_values_are_freed(self, case):
        alive, grads = self.run(case, keep=False)
        kept = GRAPH_CASES[case][2]
        assert alive == {"input": kept == "input", "output": kept == "output"}
        _, want = self.run(case, keep=True)
        assert len(grads) == len(want)
        for g, w in zip(grads, want):
            assert g is not None and np.array_equal(g, w)

    def test_graph_bytes_counts_each_kept_array_once(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = rng.standard_normal((4, 5))
        y = tc.matmul(x, Tensor(w))  # keeps w, not x
        loss = sum_all(tc.add(tc.mul(y, w[0]), tc.mul(y, w[1])))
        assert graph_bytes(loss) == w.nbytes  # w[0] and w[1] are views of w
        tc.backward(loss)
        assert graph_bytes(loss) == x.data.nbytes  # only the leaf's gradient

    def test_loss_graphs_keep_what_the_chains_kept(self):
        """A loss keeps what the op chain it replaced kept: ``cross_entropy``
        its log-softmax (the logits' size), the targets and the weights;
        ``binary_cross_entropy`` its input, the clamped input y, 1 - y, the
        targets z, 1 - z and the weights."""
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((2, 3, 16)), requires_grad=True)
        targets, w = rng.integers(0, 16, (2, 3)), rng.random((2, 3))
        loss = tc.cross_entropy(logits, targets, w)
        assert graph_bytes(loss) == logits.data.nbytes + targets.nbytes + w.nbytes
        pred = Tensor(rng.random((2, 3, 1)), requires_grad=True)
        z, w = rng.random((2, 3, 1)), rng.random((2, 3, 1))
        loss = tc.binary_cross_entropy(pred, z, w)
        assert graph_bytes(loss) == 5 * pred.data.nbytes + w.nbytes


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@cache
def weight_product_layouts(config, train):
    """Sorted (a shape, a strides, b shape) of every weight product (``b``
    2-D, ``a`` of more than two dims) that ``forward_slices`` makes on the
    shipped ``config``, float32: on one slice per decoder, and with
    ``train`` also on the batch of all slices of each decoder (a desk
    training batch holds 8).  While recording, every matmul returns zeros
    and softmax and layernorm return their input, so even the canonical
    forward costs little.  Each 5-D layout comes with a strided twin."""
    cfg = cli.model_config_from(cli.load_config(CONFIGS / config))
    params = M.init_params(cfg, head_init="normal")
    rng = np.random.default_rng(0)
    video = rng.integers(0, 256, (*cfg.video_shape, cfg.bytes_per_pixel)).astype(np.uint8)
    groups = {}
    for idx in slice_order(cfg.s):
        groups.setdefault(M.decoder_for(cfg, slice_rank(cfg.s, idx))[0], []).append(idx)
    batches = [idxs[:1] for idxs in groups.values()]
    if train:
        batches += list(groups.values())
    seen = set()

    def record(a, b):
        if a.data.ndim > 2 and b.data.ndim == 2:
            assert a.data.dtype == np.float32 and min(a.data.strides) > 0
            seen.add((a.data.shape, a.data.strides, b.data.shape))
        lead = np.broadcast_shapes(a.data.shape[:-2], b.data.shape[:-2])
        return Tensor(np.zeros(lead + (a.data.shape[-2], b.data.shape[-1]), np.float32))

    with pytest.MonkeyPatch.context() as mp, tc.no_grad():
        mp.setattr(tc, "matmul", record)
        mp.setattr(tc, "softmax", lambda a, bias=None: a)
        mp.setattr(tc, "layernorm", lambda a, gain, bias: a)
        for idxs in batches:
            M.forward_slices(params, cfg, [video] * len(idxs), idxs, prime_frames=1)
    # the model's operands are all C-contiguous (a slice cut is a copy), so
    # each 5-D one also gets a strided twin: the view of a cut that is not
    # copied, every other entry on the three volume axes of a larger volume
    for shape, _, b_shape in list(seen):
        if len(shape) == 5:
            volume = np.empty((shape[0], *(2 * n for n in shape[1:4]), shape[4]), np.float32)
            seen.add((shape, volume[:, ::2, ::2, ::2].strides, b_shape))
    return sorted(seen)


def strided_array(rng, shape, strides, dtype):
    """Random ``dtype`` array of ``shape`` laid out with the float32
    ``strides`` (scaled to ``dtype``) in a buffer of its own."""
    itemsize = np.dtype(dtype).itemsize
    strides = tuple(step * itemsize // 4 for step in strides)
    span = 1 + sum((n - 1) * step for n, step in zip(shape, strides)) // itemsize
    base = rng.standard_normal(span).astype(dtype)
    return np.lib.stride_tricks.as_strided(base, shape, strides, writeable=False)


# the shipped configs, and whether to record their training batches too
SCHEDULES = [("sprites-rgb.cfg", True), ("sprites-gray.cfg", True),
             ("base-16x64x64.cfg", False)]


class TestWeightGemm:
    """A weight product runs as one 2-D GEMM, forward and backward: the
    forward is bit-identical to ``np.matmul``'s batch loop
    (``helpers.batched_matmul``), and the gradients match it."""

    @pytest.mark.parametrize("config, train", SCHEDULES)
    def test_schedule_layouts_cover_5d_and_strided(self, config, train):
        layouts = weight_product_layouts(config, train)
        assert any(len(shape) == 5 for shape, _, _ in layouts)
        assert any(strides != np.empty(shape, np.float32).strides
                   for shape, strides, _ in layouts)

    @pytest.mark.parametrize("config, train", SCHEDULES)
    def test_forward_bit_identical(self, config, train):
        rng = np.random.default_rng(zlib.crc32(config.encode()))
        for shape, strides, b_shape in weight_product_layouts(config, train):
            a = strided_array(rng, shape, strides, np.float32)
            b = rng.standard_normal(b_shape).astype(np.float32)
            got = tc.matmul(Tensor(a), Tensor(b)).data
            want = batched_matmul(Tensor(a), Tensor(b)).data
            assert got.shape == want.shape and np.array_equal(got, want), (shape, strides)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("config, train", SCHEDULES[:2])
    def test_gradients_match_reference(self, config, train, dtype):
        rng = np.random.default_rng(zlib.crc32(config.encode()) + 1)
        for shape, strides, b_shape in weight_product_layouts(config, train):
            a = strided_array(rng, shape, strides, dtype)
            b = rng.standard_normal(b_shape).astype(dtype)
            g = rng.standard_normal(shape[:-1] + b_shape[-1:]).astype(dtype)
            grads = []
            for op in (tc.matmul, batched_matmul):
                at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
                seeded_backward(op(at, bt), g)
                grads.append((at.grad, bt.grad))
            (ga, gb), (ra, rb) = grads
            assert_matches_reference(ga, ra)
            assert_matches_reference(gb, rb)

    def test_graph_keeps_no_copy_of_strided_a(self):
        """The graph holds the strided operand itself, not the contiguous
        rows the forward multiplied."""
        rng = np.random.default_rng(2)
        vol = Tensor(rng.standard_normal((16, 16, 16, 4, 16)).astype(np.float32))
        a = tc.reshape(tc.index(vol, slice_key(SubscaleFactor(2, 2, 2), (1, 0, 1))),
                       (1, 8, 8, 8, 64))
        assert np.shares_memory(a.data, vol.data) and not a.data.flags.c_contiguous
        b = Tensor(np.ones((64, 5), np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = tc.matmul(a, b)
            held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert out._backward is not None and held < a.data.nbytes // 8

    @pytest.mark.parametrize("a_grad", [True, False])
    @pytest.mark.parametrize("layout", ["3d", "5d", "strided"])
    def test_grad_check(self, layout, a_grad):
        rng = np.random.default_rng(zlib.crc32(layout.encode()) + a_grad)
        if layout == "3d":
            base, cut = t64(rng, 2, 3, 6), (lambda t: t)
        elif layout == "5d":
            base, cut = t64(rng, 2, 2, 1, 3, 6), (lambda t: t)
        else:
            key = slice_key(SubscaleFactor(2, 2, 2), (1, 0, 1))
            base = t64(rng, 4, 4, 4, 2, 3)
            cut = lambda t: tc.reshape(tc.index(t, key), (1, 2, 2, 2, 6))  # noqa: E731
            assert not cut(base).data.flags.c_contiguous
        base = Tensor(base.data, requires_grad=a_grad)
        w = t64(rng, 6, 5)
        mix = rng.standard_normal(cut(base).data.shape[:-1] + (5,))

        def loss(a, b):
            return sum_all(tc.mul(tc.matmul(cut(a), b), mix))

        if a_grad:
            assert grad_check(loss, [base, w]) < 1e-4
        else:
            assert grad_check(lambda b: loss(base, b), [w]) < 1e-4
            assert base.grad is None


def masked_scores(dtype):
    """(2, 4, 6) scores with ``MASK_NEG`` entries: row (0, 1) half masked,
    row (0, 2) with a single unmasked entry, row (1, 0) causal-style."""
    rng = np.random.default_rng(31)
    x = (rng.standard_normal((2, 4, 6)) * 3).astype(dtype)
    x[0, 1, 3:] = MASK_NEG
    x[0, 2, 1:] = MASK_NEG
    x[1, 0] += np.where(np.arange(6) <= 2, 0.0, MASK_NEG).astype(dtype)
    return x


class TestInPlaceForms:
    """``softmax`` and ``layernorm`` work in place only on their own
    temporaries: forward and backward leave every input unchanged, and the
    results equal the reference forms bit for bit.  These inputs give no
    subnormal weight, which ``softmax`` would flush (``TestSubnormalFlush``)."""

    @pytest.mark.parametrize("axis", [-1, 0])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax(self, dtype, axis):
        """``axis`` of the scores is normalized; axis 0 is moved last by a
        transposed view, so the input is not contiguous."""
        x = np.moveaxis(masked_scores(dtype), axis, -1)
        g = np.random.default_rng(1).standard_normal(x.shape).astype(dtype)
        results = []
        for op in (tc.softmax, two_temporary_softmax):
            a = Tensor(np.moveaxis(masked_scores(dtype), axis, -1), requires_grad=True)
            y = softmax_alone(a, op)
            seeded_backward(y, g)
            assert np.array_equal(a.data, x)
            results.append((y.data, a.grad))
        (y, ga), (ry, rga) = results
        assert np.array_equal(y, ry) and np.array_equal(ga, rga)
        if axis == -1:
            assert y[0, 2, 0] == 1.0 and not y[0, 2, 1:].any()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax_with_bias(self, dtype):
        """The bias is added in the buffer of the shifted copy; results and
        the bias gradient equal the reference's, which adds it in a new
        array, bit for bit."""
        x = masked_scores(dtype)
        rng = np.random.default_rng(3)
        b = (rng.standard_normal(x.shape[1:]) * 2).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        results = []
        for op in (tc.softmax, two_temporary_softmax):
            a, bias = Tensor(x.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
            y = op(a, bias=bias)
            seeded_backward(y, g)
            assert np.array_equal(a.data, x) and np.array_equal(bias.data, b)
            results.append((y.data, a.grad, bias.grad))
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_layernorm(self, dtype):
        x = masked_scores(dtype)
        rng = np.random.default_rng(2)
        gain, bias = (rng.standard_normal(6).astype(dtype) for _ in range(2))
        g = rng.standard_normal(x.shape).astype(dtype)
        results = []
        for op in (tc.layernorm, out_of_place_layernorm):
            ts = [Tensor(v.copy(), requires_grad=True) for v in (x, gain, bias)]
            y = op(*ts)
            seeded_backward(y, g)
            for t, v in zip(ts, (x, gain, bias)):
                assert np.array_equal(t.data, v)
            results.append([y.data] + [t.grad for t in ts])
        for got, want in zip(*results):
            assert np.array_equal(got, want)
        for row in (x[0, 0], x[0, 2], x):
            before = row.copy()
            got = tc.layernorm_array(row, gain, bias)
            assert np.array_equal(row, before)
            assert np.array_equal(got, out_of_place_layernorm_array(row, gain, bias))


def underflow_scores(dtype, rows=64, n=32):
    """(rows, n) scores: per row one maximum and the rest 79.3-103.9 below it
    in float32 (700.4-745.1 in float64), so their exponentials run from just
    above the smallest normal number through the subnormal band to 0.  Every
    row sums to exactly 1, so the weights are the exponentials."""
    rng = np.random.default_rng(41)
    lo = -np.log(np.finfo(dtype).tiny) - 8
    hi = np.log(2) - np.log(float(np.finfo(dtype).smallest_subnormal))
    x = rng.uniform(lo, hi, (rows, n))
    x[:, 0] = 0
    return -rng.permuted(x, axis=1).astype(dtype)


class TestSubnormalFlush:
    """``softmax`` and ``cross_entropy`` flush subnormal values: the softmax
    output and both input gradients hold none, equal the unflushed reference
    wherever its value is not subnormal, and are exactly 0 where it is.  (A
    row sum above 1 can still turn a normal exponential into a subnormal
    weight; these rows sum to exactly 1.)"""

    @staticmethod
    def check_flushed(got, want):
        sub = is_subnormal(want)
        small = ~sub & (np.abs(want) < 1e3 * np.finfo(want.dtype).tiny)
        assert sub.any() and small.any() and not is_subnormal(got).any()
        assert np.array_equal(got[~sub], want[~sub]) and not got[sub].any()

    @staticmethod
    def run(op, x, g):
        a = Tensor(x, requires_grad=True)
        y = op(a)
        seeded_backward(y, g)
        return y.data, a.grad

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax(self, dtype):
        x = underflow_scores(dtype)
        # |g - (g . y)| < 1, so a subnormal weight's gradient is subnormal too
        g = np.random.default_rng(2).uniform(-0.5, 0.5, x.shape).astype(dtype)
        (y, ga), (ry, rga) = (self.run(lambda a: softmax_alone(a, op), x, g)
                              for op in (tc.softmax, two_temporary_softmax))
        self.check_flushed(y, ry)
        self.check_flushed(ga, rga)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_log_softmax(self, dtype):
        """The gradient ``cross_entropy`` passes through its log-softmax, at
        one target per row."""
        x = underflow_scores(dtype)
        targets = np.random.default_rng(3).integers(0, x.shape[1], len(x))
        (loss, ga), (rloss, rga) = (
            self.run(lambda a: op(a, targets, np.ones(len(x))), x, np.ones((), dtype))
            for op in (tc.cross_entropy, unflushed_cross_entropy))
        assert np.array_equal(loss, rloss)
        self.check_flushed(ga, rga)


class TestSubnormalGradientFlush:
    """``mul`` and the operand-``b`` gradient of a batched ``matmul`` (an
    attention layer's dk and dv) hold no subnormal: they are 0 where the
    unflushed product is subnormal, and equal to it elsewhere."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_mul(self, dtype):
        tiny = np.finfo(dtype).tiny
        g = (np.random.default_rng(5).uniform(1, 8, (6, 8)) * tiny).astype(dtype)
        a = Tensor(np.ones_like(g), requires_grad=True)
        seeded_backward(tc.mul(a, 0.25), g)
        want = g * dtype(0.25)
        TestSubnormalFlush.check_flushed(a.grad, want)

    def test_mul_of_0d(self):
        """The product of two 0-d arrays is a numpy scalar; it is flushed too."""
        a = Tensor(np.float32(2.0), requires_grad=True)
        seeded_backward(tc.mul(a, 3.0), np.float32(np.finfo(np.float32).tiny))
        assert a.grad == 3 * np.finfo(np.float32).tiny
        tc.zero_grads([a])
        seeded_backward(tc.mul(a, 0.25), np.float32(np.finfo(np.float32).tiny))
        assert a.grad == 0

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matmul_b_gradient(self, dtype):
        tiny = np.finfo(dtype).tiny
        rng = np.random.default_rng(6)
        att = rng.uniform(0, 2, (2, 3, 4, 5)).astype(dtype)
        att[..., 1:, :] *= tiny  # rows 1-3 of every block give subnormal sums
        v = Tensor(rng.standard_normal((2, 3, 5, 2)).astype(dtype), requires_grad=True)
        g = rng.uniform(-1, 1, (2, 3, 4, 2)).astype(dtype)
        g[..., 0, :] = 0  # the only normal row reaches no gradient
        a = Tensor(att, requires_grad=True)
        seeded_backward(tc.matmul(a, v), g)
        want = np.matmul(np.swapaxes(att, -1, -2), g)
        TestSubnormalFlush.check_flushed(v.grad, want)
        assert np.array_equal(a.grad, np.matmul(g, np.swapaxes(v.data, -1, -2)))


class TestMeanAsSumOverN:
    """``tensor._layernorm`` forms its means as ``sum / n``: the same bits
    as ``np.mean`` on float32 and float64 rows of the model's widths and of
    odd widths, so ``layernorm`` and ``layernorm_array`` keep equal to their
    ``np.mean`` references."""

    @settings(max_examples=60, deadline=None)
    @given(width=st.sampled_from([12, 16, 48, 64, 96, 512]) | st.integers(0, 300).map(
               lambda k: 2 * k + 1),
           rows=st.integers(1, 4), dtype=st.sampled_from(DTYPES),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
    def test_sum_over_n_is_mean(self, width, rows, dtype, scale, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((rows, width)) * scale + rng.standard_normal()).astype(dtype)
        for keep in (x, x[0]):
            got = keep.sum(axis=-1, keepdims=True) / keep.shape[-1]
            want = keep.mean(axis=-1, keepdims=True)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        gain, bias = (rng.standard_normal(width).astype(dtype) for _ in range(2))
        for row in (x, x[0]):
            assert np.array_equal(tc.layernorm_array(row, gain, bias),
                                  out_of_place_layernorm_array(row, gain, bias))


class TestOneExpForms:
    """``one_hot`` is one indexing expression and ``sigmoid`` computes one
    exp; both equal their former forms bit for bit."""

    @pytest.mark.parametrize("shape", [(6,), (2, 8, 8, 6), (16, 64, 64, 6)])
    @pytest.mark.parametrize("in_dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_one_hot(self, shape, in_dtype, dtype):
        """float32, and exact in the float dtype a run casts it to."""
        values = np.random.default_rng(3).integers(0, 16, shape).astype(in_dtype)
        got, want = tc.one_hot(values, 16), put_along_axis_one_hot(values, 16, dtype)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.array_equal(got.astype(dtype), want)

    def test_one_hot_out_of_range(self):
        for op in (tc.one_hot, put_along_axis_one_hot):
            with pytest.raises(IndexError):
                op(np.array([3, 16]), 16)
        values = np.array([-1, 0])
        assert np.array_equal(tc.one_hot(values, 16), put_along_axis_one_hot(values, 16))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sigmoid(self, dtype):
        rng = np.random.default_rng(4)
        specials = [0.0, -0.0, 1e-30, -1e-30, 5e-324, 1.0, -1.0, 88.0, -88.0, 750.0, -750.0,
                    np.finfo(dtype).max, -np.finfo(dtype).max, np.inf, -np.inf]
        x = np.concatenate([np.array(specials, dtype=dtype),
                            (rng.standard_normal(4096) * 20).astype(dtype)])
        a = Tensor(x.copy(), requires_grad=True)
        y = tc.sigmoid(a)
        want = three_exp_sigmoid(x)
        assert y.data.dtype == want.dtype and np.array_equal(y.data, want)
        seeded_backward(y, np.ones_like(x))
        assert np.array_equal(a.grad, want * (1.0 - want))
