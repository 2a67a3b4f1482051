"""Tensor core: forward semantics against independent oracles, and
reverse-mode gradients against central finite differences."""

import tracemalloc
import zlib
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (add_at_conv_input_grad, add_at_gather_grad, batched_matmul,
                     einsum_conv_kernel_grad, grad_check, out_of_place_layernorm,
                     is_subnormal, out_of_place_layernorm_array, put_along_axis_one_hot,
                     relative_bias_indices, three_exp_sigmoid, two_temporary_softmax,
                     unflushed_log_softmax, zero_filled_index)
from svt import cli
from svt import model as M
from svt import tensor as tc
from svt.attention import MASK_NEG, BlockShape
from svt.subscale import SubscaleFactor, context_padding, slice_key, slice_order, slice_rank
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


class TestIndexIntoGradBuffer:
    """``tc.index`` adds its gradient into the parent's own buffer; the
    parent and leaf gradients are bit-equal to the zero-filled reference
    (``helpers.zero_filled_index``) when three index nodes (an attention
    layer's q, k and v) and another op read one parent, whichever of them
    reaches the parent first."""

    @staticmethod
    def gradients(index, dtype, other_first):
        rng = np.random.default_rng(int(other_first))
        leaf = Tensor(rng.standard_normal((2, 5, 3, 4)), requires_grad=True, dtype=dtype)
        parent = tc.transpose(leaf, (2, 0, 1, 3))  # (3, 2, 5, 4), as block_attention's qkv
        seen = []
        sweep = parent._backward
        parent._backward = lambda g: (seen.append(g.copy()), sweep(g))
        parts = [tc.mul(index(parent, i), rng.standard_normal((2, 5, 4))) for i in range(3)]
        other = tc.mul(parent, rng.standard_normal((3, 2, 5, 4)))
        terms = [other] + parts if other_first else parts + [other]
        loss = terms[0]
        for term in terms[1:]:
            loss = tc.add(loss, term)  # (3, 2, 5, 4): the parts broadcast
        tc.backward(loss, rng.standard_normal(loss.data.shape).astype(dtype))
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
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, dtype=np.float64)
        x.grad = np.ones((2, 3))
        tc.backward(tc.index(x, (1, slice(0, 2))), np.array([5.0, 7.0]))
        assert np.array_equal(x.grad, [[1, 1, 1], [6, 8, 1]])


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

    @pytest.mark.parametrize("bias_grad", [True, False])
    def test_softmax_with_broadcast_bias(self, bias_grad):
        """The bias broadcasts over a leading axis, as an attention layer's
        (heads, n, n) bias does over its blocks; its gradient is summed."""
        rng = np.random.default_rng(9 + bias_grad)
        x = t64(rng, 3, 2, 4, 5)
        bias = t64(rng, 2, 4, 5)
        bias.requires_grad = bias_grad
        w = Tensor(rng.standard_normal((3, 2, 4, 5)), dtype=np.float64)

        def loss(a, b):
            return tc.sum_all(tc.mul(tc.softmax(a, -1, bias=b), w))

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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@cache
def weight_product_layouts(config, train):
    """Sorted (a shape, a strides, b shape) of every weight product (``b``
    2-D, ``a`` of more than two dims) that ``forward_slices`` makes on the
    shipped ``config``, float32: on one slice per decoder, and with
    ``train`` also on the batch of all slices of each decoder (a desk
    training batch holds 8).  While recording, every matmul returns zeros
    and softmax and layernorm return their input, so even the canonical
    forward costs little."""
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
        mp.setattr(tc, "softmax", lambda a, axis=-1, bias=None: a)
        mp.setattr(tc, "layernorm", lambda a, gain, bias: a)
        for idxs in batches:
            M.forward_slices(params, cfg, [video] * len(idxs), idxs, prime_frames=1)
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
                tc.backward(op(at, bt), g)
                grads.append((at.grad, bt.grad))
            (ga, gb), (ra, rb) = grads
            assert_matches_reference(ga, ra)
            assert_matches_reference(gb, rb)

    def test_graph_keeps_no_copy_of_strided_a(self):
        """The graph holds the strided operand itself, not the contiguous
        rows the forward multiplied."""
        vol = Tensor(np.random.default_rng(2).standard_normal((16, 16, 16, 4, 16)),
                     dtype=np.float32)
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
        base.requires_grad = a_grad
        w = t64(rng, 6, 5)
        mix = Tensor(rng.standard_normal(cut(base).data.shape[:-1] + (5,)), dtype=np.float64)

        def loss(a, b):
            return tc.sum_all(tc.mul(tc.matmul(cut(a), b), mix))

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
        x = masked_scores(dtype)
        g = np.random.default_rng(1).standard_normal(x.shape).astype(dtype)
        results = []
        for op in (tc.softmax, two_temporary_softmax):
            a = Tensor(x.copy(), requires_grad=True)
            y = op(a, axis=axis)
            tc.backward(y, g)
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
            y = op(a, axis=-1, bias=bias)
            tc.backward(y, g)
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
            tc.backward(y, g)
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
    """``softmax`` and ``log_softmax`` flush subnormal values: the softmax
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
        y = op(a, axis=-1)
        tc.backward(y, g)
        return y.data, a.grad

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax(self, dtype):
        x = underflow_scores(dtype)
        # |g - (g . y)| < 1, so a subnormal weight's gradient is subnormal too
        g = np.random.default_rng(2).uniform(-0.5, 0.5, x.shape).astype(dtype)
        (y, ga), (ry, rga) = (self.run(op, x, g) for op in (tc.softmax, two_temporary_softmax))
        self.check_flushed(y, ry)
        self.check_flushed(ga, rga)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_log_softmax(self, dtype):
        x = underflow_scores(dtype)
        # an NLL-style gradient: -1 at one target per row, 0 elsewhere
        g = -tc.one_hot(np.random.default_rng(3).integers(0, x.shape[1], len(x)),
                        x.shape[1], dtype)
        (ls, ga), (rls, rga) = (self.run(op, x, g)
                                for op in (tc.log_softmax, unflushed_log_softmax))
        assert np.array_equal(ls, rls)
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
        tc.backward(tc.mul(a, 0.25), g)
        want = g * dtype(0.25)
        TestSubnormalFlush.check_flushed(a.grad, want)

    def test_mul_of_0d(self):
        """The product of two 0-d arrays is a numpy scalar; it is flushed too."""
        a = Tensor(np.float32(2.0), requires_grad=True)
        tc.backward(tc.mul(a, 3.0), np.float32(np.finfo(np.float32).tiny))
        assert a.grad == 3 * np.finfo(np.float32).tiny
        tc.zero_grads([a])
        tc.backward(tc.mul(a, 0.25), np.float32(np.finfo(np.float32).tiny))
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
        tc.backward(tc.matmul(a, v), g)
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
        values = np.random.default_rng(3).integers(0, 16, shape).astype(in_dtype)
        got, want = tc.one_hot(values, 16, dtype), put_along_axis_one_hot(values, 16, dtype)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

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
        tc.backward(y, np.ones_like(x))
        assert np.array_equal(a.grad, want * (1.0 - want))
