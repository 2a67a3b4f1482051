"""Block-local attention: partition geometry, bias, masking, full layers."""

import numpy as np
import pytest

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (block_coordinates, gathered_relative_bias_matrix, grad_check,
                     relative_bias, relative_bias_indices, sum_all)
from svt import cli
from svt import tensor as tc
from svt.attention import (MASK_NEG, AttentionLayerSpec, BlockShape, attention_layer,
                           block_attention, block_merge, _axis_distance_indices,
                           block_partition, block_slots, causal_mask, relative_bias_matrix)
from svt.tensor import ConfigError, Tensor


def random_layer_params(rng, d, spec, dtype=np.float64, zero_bias_tables=False):
    na, da, b = spec.n_heads, spec.d_head, spec.block
    def p(*shape):
        return Tensor((rng.standard_normal(shape) * 0.3).astype(dtype), requires_grad=True)
    def z(*shape):
        return Tensor(np.zeros(shape, dtype), requires_grad=True)
    return {
        "ln1_gain": Tensor(np.ones(d, dtype), requires_grad=True),
        "ln1_bias": z(d),
        "w_qkv": p(d, 3 * na * da),
        "w_p": p(na * da, d),
        "bias_t": z(na, 2 * b.t - 1) if zero_bias_tables else p(na, 2 * b.t - 1),
        "bias_h": z(na, 2 * b.h - 1) if zero_bias_tables else p(na, 2 * b.h - 1),
        "bias_w": z(na, 2 * b.w - 1) if zero_bias_tables else p(na, 2 * b.w - 1),
        "ln2_gain": Tensor(np.ones(d, dtype), requires_grad=True),
        "ln2_bias": z(d),
        "t1": p(d, d),
        "t2": p(d, d),
    }


class TestBlockPartition:
    def test_whole_slice_single_block(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 2, 3, 4, 5)))
        out = block_partition(x, BlockShape(2, 3, 4))
        assert out.data.shape == (1, 24, 5)
        assert np.array_equal(out.data[0], x.data.reshape(24, 5))

    def test_canonical_count(self):
        x = Tensor(np.zeros((1, 4, 32, 32, 2), dtype=np.float32))
        out = block_partition(x, BlockShape(4, 8, 4))
        assert out.data.shape == (32, 128, 2)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 4, 6, 4, 3)))
        bs = BlockShape(2, 3, 2)
        back = block_merge(block_partition(x, bs), bs, (4, 6, 4), 2)
        assert np.array_equal(back.data, x.data)

    def test_non_divisible_raises(self):
        with pytest.raises(ConfigError):
            block_partition(Tensor(np.zeros((1, 4, 4, 4, 1))), BlockShape(3, 2, 2))

    def test_each_position_touched_once(self):
        coords = block_coordinates((4, 4, 4), BlockShape(2, 4, 1))
        flat = coords.reshape(-1, 3)
        assert len(np.unique(flat[:, 0] * 16 + flat[:, 1] * 4 + flat[:, 2])) == 64


    @pytest.mark.parametrize("bs", [BlockShape(2, 3, 2), BlockShape(1, 6, 1),
                                    BlockShape(4, 1, 4), BlockShape(4, 6, 4)])
    def test_slots_locate_partitioned_positions(self, bs):
        raster = Tensor(np.arange(96, dtype=np.float64).reshape(1, 4, 6, 4, 1))
        parts = block_partition(raster, bs).data[..., 0]
        block, slot = block_slots((4, 6, 4), bs)
        assert np.array_equal(parts[block, slot], np.arange(96))


class TestRelativeBias:
    def test_zero_offset_entries(self):
        bs = BlockShape(2, 3, 2)
        rng = np.random.default_rng(2)
        tables = [rng.standard_normal(2 * n - 1) for n in (2, 3, 2)]
        got = relative_bias(bs, tables, (1, 2, 1), (1, 2, 1))
        assert got == pytest.approx(tables[0][1] + tables[1][2] + tables[2][1])

    def test_antisymmetric_indexing(self):
        bs = BlockShape(2, 2, 2)
        rng = np.random.default_rng(3)
        tables = [rng.standard_normal(3) for _ in range(3)]
        i, j = (1, 0, 1), (0, 1, 0)
        assert relative_bias(bs, tables, i, j) == pytest.approx(
            tables[0][2] + tables[1][0] + tables[2][2])
        assert relative_bias(bs, tables, j, i) == pytest.approx(
            tables[0][0] + tables[1][2] + tables[2][0])

    def test_zero_tables_give_zero_matrix(self):
        bs = BlockShape(2, 2, 1)
        z = Tensor(np.zeros((3, 3)))
        mat = relative_bias_matrix(bs, Tensor(np.zeros((3, 2 * 2 - 1))),
                                   Tensor(np.zeros((3, 2 * 2 - 1))),
                                   Tensor(np.zeros((3, 1))))
        assert not mat.data.any()

    def test_matrix_matches_scalar_form(self):
        bs = BlockShape(2, 2, 2)
        rng = np.random.default_rng(4)
        t_t = rng.standard_normal((1, 3)); t_h = rng.standard_normal((1, 3))
        t_w = rng.standard_normal((1, 3))
        mat = relative_bias_matrix(bs, Tensor(t_t), Tensor(t_h), Tensor(t_w)).data[0]
        coords = [(t, h, w) for t in range(2) for h in range(2) for w in range(2)]
        for i, ci in enumerate(coords):
            for j, cj in enumerate(coords):
                assert mat[i, j] == pytest.approx(
                    relative_bias(bs, [t_t[0], t_h[0], t_w[0]], ci, cj), abs=1e-6)


def shipped_block_shapes():
    """Every block shape of the shipped configs' attention schedules."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    shapes = set()
    for path in sorted(configs.glob("*.cfg")):
        cfg = cli.model_config_from(cli.load_config(path))
        for schedule in (cfg.enc_schedule, cfg.dec_schedule, cfg.first_slice_schedule):
            shapes.update(spec.block for spec in schedule)
    return sorted(shapes)


def bias_tables(rng, bs, n_heads, dtype):
    return [Tensor(rng.standard_normal((n_heads, 2 * e - 1)).astype(dtype), requires_grad=True)
            for e in bs]


class TestRelativeBiasNode:
    """``relative_bias_matrix`` is one graph node whose forward equals the
    three-gather form (``gathered_relative_bias_matrix``) bit for bit, with
    and without the causal mask.  Its float32 table gradients do too.  Its
    float64 table gradients sum per axis before the ``np.bincount``, a
    different order from the gathers', so each entry is within
    8 * eps64 * (the sum of |g| over that entry's contributions)."""

    @staticmethod
    def check_against_gathered(bs, n_heads, dtype, seed):
        rng = np.random.default_rng(seed)
        for mask in (None, causal_mask(bs)):
            g = rng.standard_normal((n_heads, bs.size, bs.size)).astype(dtype)
            results = []
            for op in (relative_bias_matrix, gathered_relative_bias_matrix):
                tables = bias_tables(np.random.default_rng(seed), bs, n_heads, dtype)
                out = op(bs, *tables, mask)
                tc.backward(out, g)
                results.append([out.data] + [t.grad for t in tables])
            # per table entry, the sum of |g| over the bias entries that read it
            tables = bias_tables(np.random.default_rng(seed), bs, n_heads, dtype)
            tc.backward(gathered_relative_bias_matrix(bs, *tables), np.abs(g))
            (out, *grads), (want_out, *want_grads) = results
            assert out.dtype == want_out.dtype and np.array_equal(out, want_out)
            for got, want, table in zip(grads, want_grads, tables):
                assert got.dtype == want.dtype
                if dtype == np.float32:
                    assert np.array_equal(got, want)
                else:
                    assert (np.abs(got - want) <= 8 * np.finfo(np.float64).eps * table.grad).all()

    def test_shipped_block_shapes(self):
        shapes = shipped_block_shapes()
        assert BlockShape(2, 8, 8) in shapes and len(shapes) > 2
        for i, bs in enumerate(shapes):
            for n_heads in (4, 8):  # 8: the canonical head count
                for dtype in (np.float32, np.float64):
                    self.check_against_gathered(bs, n_heads, dtype, seed=i)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
           n_heads=st.integers(1, 3), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**16))
    def test_drawn_block_shapes(self, shape, n_heads, dtype, seed):
        self.check_against_gathered(BlockShape(*shape), n_heads, dtype, seed)

    def test_one_node(self):
        bs = BlockShape(2, 2, 3)
        tables = bias_tables(np.random.default_rng(0), bs, 2, np.float32)
        for mask in (None, causal_mask(bs)):
            out = relative_bias_matrix(bs, *tables, mask)
            assert out.node.parents == tuple(t.node for t in tables)
        with tc.no_grad():
            assert relative_bias_matrix(bs, *tables)._backward is None

    @pytest.mark.parametrize("masked", [False, True])
    def test_grad_check(self, masked):
        bs = BlockShape(2, 3, 2)
        rng = np.random.default_rng(7 + masked)
        tables = bias_tables(rng, bs, 2, np.float64)
        mask = causal_mask(bs) if masked else None
        w = rng.standard_normal((2, bs.size, bs.size))
        # masked entries sit at MASK_NEG, so weigh only the allowed pairs
        allowed = np.broadcast_to(causal_mask(bs) if masked else True, w.shape).astype(np.float64)
        err = grad_check(lambda *t: sum_all(tc.mul(tc.mul(
            relative_bias_matrix(bs, *t, mask), w), allowed)), tables)
        assert err < 1e-4


class TestCausalMask:
    def test_first_position_self_only(self):
        m = causal_mask(BlockShape(2, 2, 2))
        assert m[0].sum() == 1 and m[0, 0]

    def test_last_position_sees_all(self):
        m = causal_mask(BlockShape(2, 2, 2))
        assert m[-1].all()

    def test_offset_independent(self):
        """In every block of a slice, ranking the positions' global raster
        indices gives the mask: in-block order is global order, whatever
        the block's offset."""
        for slice_shape, bs in [((4, 8, 8), BlockShape(2, 2, 2)),
                                ((4, 8, 8), BlockShape(1, 8, 2)),
                                ((2, 6, 4), BlockShape(2, 3, 1)),
                                ((3, 3, 3), BlockShape(1, 3, 3)),
                                ((4, 4, 6), BlockShape(4, 1, 3))]:
            _, H, W = slice_shape
            mask = causal_mask(bs)
            for coords in block_coordinates(slice_shape, bs):
                raster = (coords[:, 0] * H + coords[:, 1]) * W + coords[:, 2]
                assert np.array_equal(raster[None, :] <= raster[:, None], mask)

    def test_lower_triangular_in_raster_order(self):
        bs = BlockShape(2, 1, 3)
        m = causal_mask(bs)
        assert np.array_equal(m, np.tril(np.ones_like(m)))


class TestBlockConstantCache:
    """``_axis_distance_indices`` and ``causal_mask`` are computed once per
    block shape; the cached arrays are read-only and equal a fresh
    computation."""

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 2), (1, 4, 4), (2, 8, 8), (4, 2, 3)])
    def test_cached_equals_fresh_and_is_read_only(self, shape):
        bs = BlockShape(*shape)
        indices = _axis_distance_indices(bs)
        assert indices is _axis_distance_indices(BlockShape(*shape))
        mask = causal_mask(bs)
        assert mask is causal_mask(BlockShape(*shape))
        # each axis's (n_p, n_p) index matrix, from the block's coordinates,
        # is that axis's (e, e) matrix broadcast over the other axes
        coords = block_coordinates(shape, bs)[0]  # the one block, raster order
        delta = coords[:, None, :] - coords[None, :, :]
        for axis, (got, extent) in enumerate(zip(indices, shape)):
            fresh = (delta[..., axis] + extent - 1).reshape(shape + shape)
            other_axes = [a for a in range(6) if a % 3 != axis]
            assert got.shape == (extent, extent)
            assert np.array_equal(np.broadcast_to(np.expand_dims(got, other_axes), fresh.shape),
                                  fresh)
        assert np.array_equal(mask, np.tril(np.ones((bs.size,) * 2, dtype=bool)))
        for got in indices + (mask,):
            with pytest.raises(ValueError):
                got[0, 0] = 0


class TestBlockAttention:
    def test_zero_query_uniform_attention(self):
        """With q == 0 the softmax is uniform, so outputs average the allowed v."""
        rng = np.random.default_rng(5)
        n_p, d, da = 4, 6, 3
        w = np.zeros((d, 3 * da))
        w[:, da:] = rng.standard_normal((d, 2 * da))  # zero the q block only
        z = Tensor(rng.standard_normal((1, n_p, d)))
        out = block_attention(z, Tensor(w), Tensor(np.zeros((1, n_p, n_p))), 1, da)
        v = z.data[0] @ w[:, 2 * da:]
        assert np.allclose(out.data[0], np.broadcast_to(v.mean(axis=0), (n_p, da)), atol=1e-5)

    def test_causal_first_position_attends_self(self):
        rng = np.random.default_rng(6)
        n_p, d, da = 4, 6, 3
        z = Tensor(rng.standard_normal((1, n_p, d)))
        w = Tensor(rng.standard_normal((d, 3 * da)))
        mask = np.where(np.tril(np.ones((n_p, n_p), dtype=bool)), 0.0, MASK_NEG)
        out = block_attention(z, w, Tensor(mask[None]), 1, da)
        v0 = z.data[0] @ w.data[:, 2 * da:]
        assert np.allclose(out.data[0, 0], v0[0], atol=1e-5)

    def test_two_position_hand_softmax(self):
        """Crafted q, k reproduce a hand-evaluated 2x2 attention."""
        d, da = 2, 1
        w = np.zeros((d, 3))
        w[0, 0] = 1.0   # q = x0
        w[1, 1] = 1.0   # k = x1
        w[0, 2] = 1.0   # v = x0
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = block_attention(Tensor(z.reshape(1, 2, 2)), Tensor(w),
                              Tensor(np.zeros((1, 2, 2))), 1, da).data[0]
        q = z[:, 0]; k = z[:, 1]; v = z[:, 0]
        for i in range(2):
            logits = q[i] * k / np.sqrt(da)
            p = np.exp(logits - logits.max()); p /= p.sum()
            assert out[i, 0] == pytest.approx((p * v).sum(), rel=1e-9)


class TestAttentionLayer:
    def test_residual_only_identity(self):
        """Zero W_p and zero T2 reduce the layer to the identity."""
        rng = np.random.default_rng(7)
        spec = AttentionLayerSpec(BlockShape(2, 2, 2), 2, 3)
        params = random_layer_params(rng, 5, spec)
        params["w_p"] = Tensor(np.zeros((2 * 3, 5)))
        params["t2"] = Tensor(np.zeros((5, 5)))
        x = Tensor(rng.standard_normal((1, 2, 4, 4, 5)))
        out = attention_layer(x, params, spec, causal=False)
        assert np.array_equal(out.data, x.data)

    @pytest.mark.parametrize("block", [(4, 8, 4), (4, 4, 8), (1, 32, 4), (1, 4, 32)])
    def test_shape_contract_canonical_schedule(self, block):
        rng = np.random.default_rng(8)
        spec = AttentionLayerSpec(BlockShape(*block), 2, 4)
        params = random_layer_params(rng, 8, spec, dtype=np.float32)
        x = Tensor(rng.standard_normal((1, 4, 32, 32, 8)).astype(np.float32))
        out = attention_layer(x, params, spec, causal=True)
        assert out.data.shape == x.data.shape

    def test_gradient_check_small_block(self):
        """Full layer on a 2x2x2 block passes grad_check under 1e-4."""
        rng = np.random.default_rng(9)
        spec = AttentionLayerSpec(BlockShape(2, 2, 2), 2, 3)
        params = random_layer_params(rng, 4, spec)
        x = Tensor(rng.standard_normal((1, 2, 2, 2, 4)), requires_grad=True)
        w = rng.standard_normal((1, 2, 2, 2, 4))
        names = sorted(params)
        def fn(x, *ps):
            p = dict(zip(names, ps))
            return sum_all(tc.mul(attention_layer(x, p, spec, causal=True), w))
        err = grad_check(fn, [x] + [params[n] for n in names])
        assert err < 1e-4

    def test_matches_full_attention_oracle(self):
        """Zero bias tables + one full-volume block == standard self-attention."""
        rng = np.random.default_rng(10)
        shape = (2, 4, 4)
        n_p, d, na, da = 32, 6, 2, 5
        spec = AttentionLayerSpec(BlockShape(*shape), na, da)
        params = random_layer_params(rng, d, spec, zero_bias_tables=True)
        x = rng.standard_normal((1,) + shape + (d,))
        got = attention_layer(Tensor(x), params, spec,
                              causal=False).data.reshape(n_p, d)

        # independent numpy reimplementation
        z = x.reshape(n_p, d)
        mu = z.mean(-1, keepdims=True)
        ln = (z - mu) / np.sqrt(((z - mu) ** 2).mean(-1, keepdims=True) + 1e-6)
        qkv = (ln @ params["w_qkv"].data).reshape(n_p, 3, na, da)
        heads = []
        for h in range(na):
            q, k, v = qkv[:, 0, h], qkv[:, 1, h], qkv[:, 2, h]
            a = q @ k.T / np.sqrt(da)
            a = np.exp(a - a.max(-1, keepdims=True))
            a /= a.sum(-1, keepdims=True)
            heads.append(a @ v)
        zt = np.concatenate(heads, axis=-1) @ params["w_p"].data + z
        mu = zt.mean(-1, keepdims=True)
        ln2 = (zt - mu) / np.sqrt(((zt - mu) ** 2).mean(-1, keepdims=True) + 1e-6)
        expect = np.maximum(ln2 @ params["t1"].data, 0) @ params["t2"].data + zt
        assert np.abs(got - expect).max() < 1e-9

    def test_masked_agrees_with_unmasked_on_lower_triangle(self):
        """Attention weights on allowed pairs are unchanged by masking when
        the mask is already lower-triangular-complete for that row."""
        rng = np.random.default_rng(11)
        spec = AttentionLayerSpec(BlockShape(1, 2, 2), 1, 4)
        params = random_layer_params(rng, 4, spec)
        x = Tensor(rng.standard_normal((1, 1, 2, 2, 4)))
        causal = attention_layer(x, params, spec, causal=True)
        full = attention_layer(x, params, spec, causal=False)
        # the raster-last position may attend everywhere: identical output row
        assert np.allclose(causal.data[0, 0, 1, 1], full.data[0, 0, 1, 1], atol=1e-12)

    def test_layer_permutation_preserves_shape_and_causality(self):
        rng = np.random.default_rng(12)
        shape = (2, 2, 2)
        specs = [AttentionLayerSpec(BlockShape(2, 1, 2), 1, 3),
                 AttentionLayerSpec(BlockShape(1, 2, 2), 1, 3)]
        params = [random_layer_params(rng, 4, s) for s in specs]
        P = 8
        for order in ([0, 1], [1, 0]):
            for p in range(P):
                x = Tensor(rng.standard_normal((1,) + shape + (4,)), requires_grad=True)
                y = x
                for i in order:
                    y = attention_layer(y, params[i], specs[i], causal=True)
                flat = tc.reshape(y, (P, 4))
                tc.backward(sum_all(tc.index(flat, p)))
                touched = np.nonzero(np.abs(x.grad[0]).sum(-1).reshape(P))[0]
                assert all(q <= p for q in touched)

