"""Model assembly: channel codec, encoder/decoder contracts, heads, losses,
variants, checkpoints."""

import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (REFERENCE_ATTENTION, REFERENCE_OPS, clear_graph_grads, decode_slice,
                     encode_slice, entry_bytes, grad_check, graph_bytes, is_subnormal,
                     predict_channels, reference_backward, reference_sample_slice, seal,
                     sum_all, tiny_config, traced_peak, two_temporary_softmax)
from svt import attention, cli, data, metrics, optim, sampler
from svt import model as M
from svt import tensor as tc
from svt.subscale import SubscaleFactor, extract_slice, slice_key, slice_order, slice_rank
from svt.tensor import ConfigError, Tensor

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestChannelCodec:
    def test_known_triple(self):
        got = M.split_channels(np.array([255, 0, 128], dtype=np.uint8))
        assert got.tolist() == [15, 0, 8, 15, 0, 0]

    def test_black(self):
        assert M.split_channels(np.zeros(3, dtype=np.uint8)).tolist() == [0] * 6

    def test_join_split_identity_per_byte(self):
        v = np.arange(256, dtype=np.uint8).reshape(-1, 1)
        assert np.array_equal(M.join_channels(M.split_channels(v)), v)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)))
    def test_join_split_identity_rgb(self, rgb):
        v = np.array(rgb, dtype=np.uint8)
        assert np.array_equal(M.join_channels(M.split_channels(v)), v)

    def test_coarse_before_fine_ordering(self):
        v = np.array([0x12, 0x34, 0x56], dtype=np.uint8)
        got = M.split_channels(v)
        assert got.tolist() == [1, 3, 5, 2, 4, 6]  # high nibbles then low nibbles


class TestEncoder:
    def test_first_slice_sees_nothing(self):
        """At index (0,0,0) everything is masked: two different videos give
        identical encoder output."""
        cfg = tiny_config()
        ps = M.init_params(cfg)
        rng = np.random.default_rng(0)
        v1 = rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        v2 = rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        z1 = encode_slice(ps, cfg, v1, (0, 0, 0))
        z2 = encode_slice(ps, cfg, v2, (0, 0, 0))
        assert np.array_equal(z1.data, z2.data)

    def test_output_shape(self):
        cfg = tiny_config()
        ps = M.init_params(cfg)
        v = np.zeros((4, 8, 8, 3), dtype=np.uint8)
        z = encode_slice(ps, cfg, v, (1, 0, 1))
        assert z.data.shape == (2, 4, 4, cfg.d)

    def test_future_slice_change_invisible(self):
        cfg = tiny_config()
        ps = M.init_params(cfg)
        rng = np.random.default_rng(1)
        v = rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        idx = (1, 0, 0)  # rank 4: slices (0,*,*) visible
        z1 = encode_slice(ps, cfg, v, idx)
        v2 = v.copy()
        v2[1, 1, 1] = 255 - v2[1, 1, 1]  # (1,1,1) belongs to slice (1,1,1), rank 7
        z2 = encode_slice(ps, cfg, v2, idx)
        assert np.array_equal(z1.data, z2.data)

    def test_past_slice_change_visible(self):
        cfg = tiny_config()
        ps = M.init_params(cfg)
        rng = np.random.default_rng(2)
        v = rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        v2 = v.copy()
        v2[0, 0, 0] ^= 0xAA  # slice (0,0,0) is visible at rank 4
        z1 = encode_slice(ps, cfg, v, (1, 0, 0))
        z2 = encode_slice(ps, cfg, v2, (1, 0, 0))
        assert not np.array_equal(z1.data, z2.data)


class TestDecoder:
    def test_first_position_independent_of_slice(self):
        cfg = tiny_config()
        ps = M.init_params(cfg)
        rng = np.random.default_rng(3)
        z = Tensor(rng.standard_normal((2, 4, 4, cfg.d)).astype(np.float32))
        s1 = rng.integers(0, 16, (2, 4, 4, 6))
        s2 = rng.integers(0, 16, (2, 4, 4, 6))
        y1 = decode_slice(ps, cfg, s1, z)
        y2 = decode_slice(ps, cfg, s2, z)
        assert np.allclose(y1.data[0, 0, 0], y2.data[0, 0, 0])

    def test_output_shape(self):
        cfg = tiny_config()
        ps = M.init_params(cfg)
        z = Tensor(np.zeros((2, 4, 4, cfg.d), dtype=np.float32))
        y = decode_slice(ps, cfg, np.zeros((2, 4, 4, 6), dtype=np.int64), z)
        assert y.data.shape == (2, 4, 4, cfg.d)

    def test_raster_sensitivity(self):
        """grad of y(p) w.r.t. slice pixel q is zero for q >= p in raster order."""
        cfg = tiny_config()
        ps = M.init_params(cfg)
        rng = np.random.default_rng(4)
        video = rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        idx = (0, 1, 0)
        leaf = Tensor(M.video_onehot(video), requires_grad=True)
        slice_oh = tc.index(leaf, slice_key(cfg.s, idx))
        z = M.encode_slices(ps, cfg, [Tensor(M.video_onehot(video))], [idx])
        x = tc.reshape(slice_oh, (1, *cfg.slice_shape, cfg.input_channels))
        y = M.decode_slices(ps, cfg, x, z, slice_rank(cfg.s, idx))
        P = 32
        yf = tc.reshape(y, (P, cfg.d))
        for p in [0, 7, 31]:
            clear_graph_grads(yf)
            seed = np.zeros((P, cfg.d), dtype=np.float32)
            seed[p] = 1.0
            reference_backward(yf, seed)
            g = np.abs(leaf.grad[idx[0]::2, idx[1]::2, idx[2]::2]).sum(axis=(-1, -2))
            touched = np.nonzero(g.reshape(P))[0]
            assert all(q < p for q in touched)


class TestHeads:
    def test_channel_zero_ignores_channel_values(self):
        cfg = tiny_config()
        ps = M.init_params(cfg, head_init="normal")
        rng = np.random.default_rng(5)
        y = Tensor(rng.standard_normal((1, 2, 4, 4, cfg.d)).astype(np.float32))
        a = predict_channels(ps, cfg, y, rng.integers(0, 16, (2, 4, 4, 6)))
        b = predict_channels(ps, cfg, y, rng.integers(0, 16, (2, 4, 4, 6)))
        assert np.array_equal(a.data[:, 0, :], b.data[:, 0, :])

    def test_zero_head_gives_uniform_four_bits(self):
        cfg = tiny_config()
        ps = M.init_params(cfg)  # head/p is zero
        y = Tensor(np.random.default_rng(6).standard_normal((1, 2, 4, 4, cfg.d)).astype(np.float32))
        vals = np.zeros((2, 4, 4, 6), dtype=np.int64)
        logits = predict_channels(ps, cfg, y, vals)
        assert not logits.data.any()
        # uniform over 16 values = 4 bits per channel
        P, nc, _ = logits.data.shape
        loss = M.nll_loss(tc.reshape(logits, (1, P, nc, 16)), vals.reshape(1, P, nc),
                          np.ones((1, P)))
        assert loss.item() / (P * nc * math.log(2.0)) == pytest.approx(4.0, abs=1e-5)

    def test_flipping_channel0_moves_channel1_only(self):
        cfg = tiny_config()
        ps = M.init_params(cfg, head_init="normal")
        rng = np.random.default_rng(7)
        y = Tensor(rng.standard_normal((1, 2, 4, 4, cfg.d)).astype(np.float32))
        vals = rng.integers(0, 16, (2, 4, 4, 6))
        flipped = vals.copy()
        flipped[0, 0, 0, 0] = (flipped[0, 0, 0, 0] + 7) % 16
        a = predict_channels(ps, cfg, y, vals)
        b = predict_channels(ps, cfg, y, flipped)
        assert np.array_equal(a.data[:, 0, :], b.data[:, 0, :])
        assert not np.array_equal(a.data[0, 1, :], b.data[0, 1, :])


class TestLosses:
    def test_perfect_prediction_zero_nll(self):
        logits = np.full((1, 4, 2, 16), -1e9, dtype=np.float32)
        targets = np.random.default_rng(8).integers(0, 16, (1, 4, 2))
        for p in range(4):
            for c in range(2):
                logits[0, p, c, targets[0, p, c]] = 0.0
        loss = M.nll_loss(Tensor(logits), targets, np.ones((1, 4)))
        assert loss.item() < 1e-6

    def test_uniform_prediction(self):
        logits = Tensor(np.zeros((1, 5, 6, 16), dtype=np.float32))
        targets = np.zeros((1, 5, 6), dtype=np.int64)
        loss = M.nll_loss(logits, targets, np.ones((1, 5)))
        assert loss.item() == pytest.approx(5 * 6 * math.log(16.0), rel=1e-6)

    def test_prime_mask_excludes_frame(self):
        cfg = tiny_config()
        rng = np.random.default_rng(9)
        logits = Tensor(rng.standard_normal((1, 32, 6, 16)).astype(np.float32))
        targets = rng.integers(0, 16, (1, 32, 6))
        mask_all = np.ones((1, 32), dtype=np.float32)
        mask_prime = M.pixel_loss_mask(cfg, (0, 0, 0), 1).reshape(1, 32)
        full = M.nll_loss(logits, targets, mask_all)
        masked = M.nll_loss(logits, targets, mask_prime)
        frame0 = np.zeros((2, 4, 4), dtype=np.float32)
        frame0[0] = 1.0
        only_frame0 = M.nll_loss(logits, targets, frame0.reshape(1, 32))
        assert masked.item() == pytest.approx(full.item() - only_frame0.item(), rel=1e-6)

    def test_deterministic_half_gives_n_ln2(self):
        pred = Tensor(np.full((1, 64, 1), 0.5, dtype=np.float32))
        z = np.random.default_rng(10).random((1, 64, 1))
        loss = M.deterministic_loss(pred, z, np.ones((1, 64)))
        assert loss.item() == pytest.approx(64 * math.log(2.0), rel=1e-5)

    def test_deterministic_perfect_limits(self):
        z = np.array([0.0, 1.0, 1.0, 0.0]).reshape(1, 4, 1)
        pred = Tensor(z.astype(np.float32))
        loss = M.deterministic_loss(pred, z, np.ones((1, 4)))
        assert loss.item() <= 4 * 1e-7 * 16

    def test_deterministic_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        z = rng.random((1, 10, 1))
        y = rng.uniform(0.01, 0.99, (1, 10, 1))
        loss = M.deterministic_loss(Tensor(y), z, np.ones((1, 10)))
        expect = 0.0
        for i in range(10):
            yi, zi = y[0, i, 0], z[0, i, 0]
            expect += -(zi * math.log(yi) + (1 - zi) * math.log(1 - yi))
        assert loss.item() == pytest.approx(expect, rel=1e-9)


class TestBuildVariant:
    def test_spatiotemporal_geometry(self):
        cfg = M.build_variant("spatiotemporal", (16, 64, 64))
        assert cfg.s == (4, 2, 2)
        assert cfg.n_slices == 16 and cfg.slice_shape == (4, 32, 32)
        blocks = [s.block for s in cfg.enc_schedule]
        assert blocks[:4] == [(4, 8, 4), (4, 4, 8), (1, 32, 4), (1, 4, 32)]
        assert blocks[4:] == blocks[:4][::-1]
        assert cfg.d_e == 128 and cfg.d == 512
        assert all(s.n_heads == 8 and s.d_head == 128 for s in cfg.enc_schedule)

    def test_spatial_geometry(self):
        cfg = M.build_variant("spatial", (4, 64, 64))
        assert cfg.s == (1, 2, 2)
        assert cfg.n_slices == 4 and cfg.slice_shape == (4, 32, 32)

    def test_single_frame_geometry(self):
        from svt.subscale import context_padding
        cfg = M.build_variant("single_frame", (16, 64, 64))
        assert cfg.s == (16, 1, 1)
        assert cfg.kernel == (6, 1, 1)
        for a in range(4):
            assert context_padding(cfg.kernel, (a, 0, 0)) == (3 - a, 0, 0)
        blocks = [s.block for s in cfg.enc_schedule]
        assert blocks[:4] == [(1, 8, 16), (1, 16, 8), (1, 2, 64), (1, 64, 2)]

    def test_large_preset_widths(self):
        cfg = M.build_variant("spatiotemporal", (16, 64, 64), preset="large")
        assert cfg.d == 2048
        heads = [s.n_heads for s in cfg.dec_schedule]
        assert heads == [8, 8, 8, 8, 16, 16, 16, 16]

    def test_large_preset_widens_listed_blocks_too(self):
        """One schedule rule for both kinds of stack: the listed encoder
        gets the large preset's 16 heads on its last 4 layers, like the
        derived decoder; the first-slice decoder keeps n_heads throughout."""
        cfg = M.build_variant("spatiotemporal", (4, 16, 16), preset="large", d=16, d_head=4,
                              enc_blocks=[(2, 8, 8)] * 6, first_slice_layers=5)
        assert [s.n_heads for s in cfg.enc_schedule] == [8, 8, 16, 16, 16, 16]
        assert [s.n_heads for s in cfg.dec_schedule] == [8, 8, 8, 8, 16, 16, 16, 16]
        assert [s.n_heads for s in cfg.first_slice_schedule] == [8] * 5
        base = M.build_variant("spatiotemporal", (4, 16, 16), enc_blocks=[(2, 8, 8)] * 6)
        assert [s.n_heads for s in base.enc_schedule] == [8] * 6

    @pytest.mark.parametrize("key", ["enc_blocks", "dec_blocks"])
    def test_layers_must_match_a_listed_stack(self, key):
        with pytest.raises(ConfigError, match=f"layers = 2, but {key} lists 3 blocks"):
            M.build_variant("spatiotemporal", (4, 16, 16), layers=2, **{key: [(2, 8, 8)] * 3})
        listed = M.build_variant("spatiotemporal", (4, 16, 16), layers=0,
                                 **{key: [(2, 8, 8)] * 3})
        assert len(getattr(listed, key[:3] + "_schedule")) == 3

    def test_preset_parameter_counts(self):
        """Regression on assembled sizes: the base preset lands near 45M
        parameters and the large preset near 370M at 16x64x64 (embedding
        tables move the totals slightly with geometry)."""
        def count(cfg):
            return sum(int(np.prod(s)) for s in M.parameter_shapes(cfg).values())
        base = M.build_variant("spatiotemporal", (16, 64, 64))
        assert 43e6 < count(base) < 48e6
        large = M.build_variant("spatiotemporal", (16, 64, 64), preset="large")
        assert 360e6 < count(large) < 385e6

    def test_desk_preset_proportional(self):
        cfg = M.build_variant("spatiotemporal", (4, 16, 16))
        assert cfg.s == (2, 2, 2)
        assert cfg.slice_shape == (2, 8, 8)

    def test_indivisible_geometry_rejected(self):
        with pytest.raises(ConfigError):
            M.build_variant("spatiotemporal", (4, 16, 16), s=SubscaleFactor(3, 2, 2))

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            M.build_variant("spatiotemporal", (4, 16, 16), banana=1)

    def test_unset_axes_derived_per_axis(self):
        cfg = M.build_variant("spatiotemporal", (16, 64, 64), s=(4, 0, 0), kernel=(5, 0, 0),
                              d=64, layers=0)
        assert cfg.s == (4, 2, 2)
        assert cfg.kernel == (5, 2, 2)
        assert (cfg.d_e, cfg.d, len(cfg.dec_schedule)) == (128, 64, 8)
        frame = M.build_variant("single_frame", (4, 8, 8), s=(0, 0, 0), kernel=(0, 0, 0))
        assert frame.s == (4, 1, 1) and frame.kernel == (6, 1, 1)

    def test_numpy_integers_record_as_python_ints(self):
        """A config built from numpy integers equals, and records as, the
        one built from Python ints, so ``load_trained`` accepts either's
        checkpoint under the other."""
        kwargs = dict(d=8, n_heads=1, d_head=8, layers=1)
        from_numpy = M.build_variant("spatiotemporal", tuple(np.array([4, 16, 16])),
                                     s=(np.int64(2), 2, 2), d_e=np.int32(8),
                                     kernel=(np.int64(3), 3, 3), mconv=np.array([3, 3, 3]),
                                     enc_blocks=[tuple(np.array([2, 8, 8]))], **kwargs)
        plain = M.build_variant("spatiotemporal", (4, 16, 16), s=(2, 2, 2), d_e=8,
                                kernel=(3, 3, 3), mconv=(3, 3, 3), enc_blocks=[(2, 8, 8)],
                                **kwargs)
        assert from_numpy == plain
        assert M.model_record(from_numpy).tobytes() == M.model_record(plain).tobytes()

    @pytest.mark.parametrize("bad", [dict(video_shape=(4.5, 16, 16)), dict(s=(2.0, 2, 2)),
                                     dict(kernel=(3, 3.5, 3)), dict(d_e=8.0),
                                     dict(enc_blocks=[(2, 8, 8.0)]), dict(mconv=(3, "3", 3))])
    def test_non_integer_is_rejected_not_truncated(self, bad):
        kwargs = dict(video_shape=(4, 16, 16)) | bad
        with pytest.raises(ConfigError, match="must be integers"):
            M.build_variant("spatiotemporal", **kwargs)
        with pytest.raises(ConfigError, match="subscale factor must be integers"):
            SubscaleFactor(np.float64(2), 2, 2)

    def test_first_slice_decoder_needs_layers(self):
        """0 layers is no first-slice decoder; a negative count is refused."""
        with pytest.raises(ConfigError, match="first_slice_layers"):
            M.build_variant("spatiotemporal", (4, 16, 16), first_slice_layers=-1)
        assert not M.build_variant("spatiotemporal", (4, 16, 16),
                                   first_slice_layers=0).first_slice_schedule


class TestSingleFrameVariant:
    def make(self):
        return M.build_variant("single_frame", (4, 8, 8), d_e=8, d=16,
                               n_heads=2, d_head=8, layers=2, seed=6)

    def test_uniform_start_and_shapes(self):
        cfg = self.make()
        assert cfg.s == (4, 1, 1) and cfg.kernel == (6, 1, 1)
        ps = M.init_params(cfg)
        video = np.random.default_rng(20).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        z = encode_slice(ps, cfg, video, (2, 0, 0))
        assert z.data.shape == (1, 8, 8, cfg.d)
        loss, n_pix, _ = M.forward_slices(ps, cfg, [video], [(2, 0, 0)], 0)
        assert loss.item() / (math.log(2.0) * 3 * n_pix) == pytest.approx(8.0, abs=0.1)

    def test_context_is_three_past_frames(self):
        """Encoding frame a depends on frames a-3..a-1 and nothing else
        (visibility masks the present/future; the kernel bounds the past)."""
        cfg = self.make()
        ps = M.init_params(cfg, head_init="normal")
        video = np.random.default_rng(21).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        for a in range(4):
            leaf = Tensor(M.video_onehot(video), requires_grad=True)
            z = M.encode_slices(ps, cfg, [leaf], [(a, 0, 0)])
            tc.backward(sum_all(z))
            touched = np.nonzero(np.abs(leaf.grad).sum(axis=(1, 2, 3, 4)))[0]
            expect = [t for t in range(4) if a - 3 <= t <= a - 1]
            assert touched.tolist() == expect


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config()
        ps = M.init_params(cfg, head_init="normal")
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, ps.arrays())
        loaded = M.load_checkpoint(path)
        assert sorted(loaded) == ps.names()
        for name, t in ps.items():
            assert np.array_equal(loaded[name], t.data)

    def test_forward_reproduces_logits_bit_exact(self, tmp_path):
        cfg = tiny_config()
        ps = M.init_params(cfg, head_init="normal")
        video = np.random.default_rng(12).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        _, _, logits = M.forward_slices(ps, cfg, [video], [(1, 1, 0)], 0)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, ps.arrays())
        ps2 = M.params_from_checkpoint(cfg, M.load_checkpoint(path))
        _, _, logits2 = M.forward_slices(ps2, cfg, [video], [(1, 1, 0)], 0)
        assert np.array_equal(logits.data, logits2.data)

    def test_bad_magic_rejected(self, tmp_path):
        from svt.data import DataError
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="bad checkpoint magic b'NOPE'"):
            M.load_checkpoint(path)

    def test_malformed_bytes_raise_data_error(self, tmp_path):
        """A 0-d, an empty and a 2-D entry round-trip bit for bit; every
        truncation of the file and every single-bit flip of it raise
        DataError (the CRC-32 catches each flip in the body)."""
        from svt.data import DataError
        arrays = {"a/scalar": np.float32(1.5), "b/row": np.arange(5, dtype=np.float32),
                  "c/empty": np.zeros((0, 3), dtype=np.float32),
                  "d/matrix": np.ones((3, 4), dtype=np.float32)}
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, arrays)
        raw = path.read_bytes()

        def load(data):
            path.write_bytes(data)
            try:
                return M.load_checkpoint(path)
            except DataError:
                return None

        for k in range(len(raw)):
            assert load(raw[:k]) is None
        back = load(raw)
        assert sorted(back) == sorted(arrays)
        for name, a in arrays.items():
            assert back[name].dtype == np.float32 and back[name].shape == np.shape(a)
            assert back[name].tobytes() == np.asarray(a).tobytes()
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert load(bytes(flipped)) is None, bit

    @pytest.mark.parametrize("names, message", [
        ([b"w", b"w"], "entry name 'w' appears twice"),
        ([b"\xff\xfe"], r"entry name b'\\xff\\xfe' is not UTF-8")], ids=["repeated", "not-utf8"])
    def test_bad_entry_name_rejected(self, tmp_path, names, message):
        """A repeated name would let the last entry win silently; a name
        that is not UTF-8 is a bad name, not a truncated file.  Both behind
        a valid CRC."""
        from svt.data import DataError
        raw = len(names).to_bytes(4, "little") + b"".join(
            entry_bytes(name, b"<f4", (1,), np.float32(3.0).tobytes()) for name in names)
        path = tmp_path / "names.ckpt"
        path.write_bytes(seal(M.CHECKPOINT_MAGIC, raw))
        with pytest.raises(DataError, match=message):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_param_rejected(self, tmp_path, value):
        """A non-finite parameter entry stops at load with NumericError,
        naming the first such parameter in name order and its count."""
        cfg = tiny_config()
        arrays = M.init_params(cfg).arrays()
        arrays["dec/l0/w_qkv"][0, :2] = value
        arrays["head/u0"][1, 1] = value
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, arrays)
        size = arrays["dec/l0/w_qkv"].size
        with pytest.raises(tc.NumericError, match=f"parameter dec/l0/w_qkv in checkpoint: "
                                                   f"2 of {size} entries"):
            M.params_from_checkpoint(cfg, M.load_checkpoint(path))
        assert optim.NumericError is tc.NumericError

    def test_missing_param_rejected(self, tmp_path):
        cfg = tiny_config()
        ps = M.init_params(cfg)
        arrays = ps.arrays()
        arrays.pop("head/p")
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, arrays)
        with pytest.raises(ConfigError):
            M.params_from_checkpoint(cfg, M.load_checkpoint(path))


class TestTruncNormal:
    """``trunc_normal`` redraws only the entries still out of range; the
    parameters are bit-equal to the full-rescan reference
    (``helpers.full_rescan_trunc_normal``)."""

    @pytest.mark.parametrize("config", ["sprites-rgb.cfg", "sprites-gray.cfg", None])
    def test_init_params_bit_equal_to_full_rescan(self, monkeypatch, config):
        cfg = (tiny_config(seed=9) if config is None else
               cli.model_config_from(cli.load_config(CONFIGS / config)))
        got = M.init_params(cfg, head_init="normal").arrays()
        monkeypatch.setattr(M, "trunc_normal", helpers.full_rescan_trunc_normal)
        want = M.init_params(cfg, head_init="normal").arrays()
        assert sorted(got) == sorted(want)
        for name in got:
            assert got[name].dtype == want[name].dtype == np.float32
            assert np.array_equal(got[name], want[name]), name

    def test_many_rounds(self):
        """A draw large enough to need several rounds, in range after them."""
        got = M.trunc_normal(np.random.default_rng(4), (300, 400))
        want = helpers.full_rescan_trunc_normal(np.random.default_rng(4), (300, 400))
        assert np.array_equal(got, want) and np.abs(got).max() <= np.float32(2 * M.INIT_STD)


class TestComposite:
    def test_initial_bits_per_dim_is_eight(self):
        cfg = tiny_config()
        ps = M.init_params(cfg)  # zero head
        video = np.random.default_rng(13).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        loss, n_pix, _ = M.forward_slices(ps, cfg, [video], [(0, 1, 1)], 0)
        bpd = loss.item() / (math.log(2.0) * 3 * n_pix)
        assert bpd == pytest.approx(8.0, abs=0.1)

    def test_causality_smoke_one_slice(self):
        from helpers import allowed_influence_mask
        cfg = tiny_config()
        ps = M.init_params(cfg, head_init="normal")
        rng = np.random.default_rng(14)
        video = rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        idx = (1, 0, 1)
        leaf = Tensor(M.video_onehot(video), requires_grad=True)
        _, _, logits = M.forward_slices(ps, cfg, [video], [idx], 0, onehots=[leaf])
        for pixel, chan in [(0, 0), (5, 3), (31, 5)]:
            clear_graph_grads(logits)
            seed = np.zeros_like(logits.data)
            seed[0, pixel, chan, :] = rng.standard_normal(16)
            reference_backward(logits, seed)
            nonzero = np.abs(leaf.grad).sum(axis=-1) > 0
            assert np.array_equal(nonzero, allowed_influence_mask(cfg, idx, pixel, chan))

    @pytest.mark.parametrize("head", ["categorical", "deterministic"])
    def test_onehot_leaves_match_uint8_input(self, head):
        """Passing the gradient-tracked one-hot leaves the causality tests
        trace gives the loss and outputs of the uint8 videos alone, bit for
        bit, on a batch of several slices."""
        cfg = tiny_config(**({} if head == "categorical" else {"channels": "gray", "head": head}))
        ps = M.init_params(cfg, head_init="normal")
        rng = np.random.default_rng(22)
        videos = [rng.integers(0, 256, (4, 8, 8, cfg.bytes_per_pixel)).astype(np.uint8)
                  for _ in range(3)]
        idxs = [(1, 0, 1), (0, 1, 1), (1, 1, 0)]
        loss, n_pix, out = M.forward_slices(ps, cfg, videos, idxs, 1)
        leaves = [Tensor(M.video_onehot(v), requires_grad=True) for v in videos]
        loss2, n_pix2, out2 = M.forward_slices(ps, cfg, videos, idxs, 1, onehots=leaves)
        assert np.array_equal(loss.data, loss2.data) and n_pix == n_pix2
        assert out.data.shape[0] == len(idxs) and np.array_equal(out.data, out2.data)

    def test_one_onehot_per_distinct_video(self, monkeypatch):
        """A batch that repeats a video builds its one-hot once, and trains
        exactly as with one one-hot per batch entry: same loss, outputs and
        parameter gradients."""
        cfg = tiny_config()
        rng = np.random.default_rng(24)
        a, b = (rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8) for _ in range(2))
        videos = [a, b, a, a, b]
        idxs = slice_order(cfg.s)[2:7]
        per_entry = [Tensor(M.video_onehot(v)) for v in videos]
        runs = []
        for onehots in (None, per_entry):
            ps = M.init_params(cfg, head_init="normal")
            built = []
            onehot = M.video_onehot
            monkeypatch.setattr(M, "video_onehot", lambda v: built.append(1) or onehot(v))
            loss, n_pix, out = M.forward_slices(ps, cfg, videos, idxs, 1, onehots=onehots)
            monkeypatch.setattr(M, "video_onehot", onehot)
            tc.backward(loss)
            runs.append((len(built), loss.data, n_pix, out.data, ps.grads()))
        (built, loss, n_pix, out, grads), (_, loss2, n_pix2, out2, grads2) = runs
        assert built == 2
        assert np.array_equal(loss, loss2) and n_pix == n_pix2 and np.array_equal(out, out2)
        assert all(np.array_equal(grads[n], grads2[n]) for n in grads)

    def test_onehot_cut_is_onehot_of_extracted_slice(self, monkeypatch):
        """The decoder input that ``forward_slices`` cuts from each video's
        one-hot tensor is ``video_onehot`` of that video's extracted slice."""
        cfg = tiny_config()
        ps = M.init_params(cfg)
        rng = np.random.default_rng(23)
        videos = [rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8) for _ in range(2)]
        idxs = slice_order(cfg.s)[1:3]
        seen = []
        decode = M.decode_slices
        monkeypatch.setattr(M, "decode_slices",
                            lambda p, c, x, *a, **k: seen.append(x.data) or decode(p, c, x, *a, **k))
        M.forward_slices(ps, cfg, videos, idxs)
        want = np.stack([M.video_onehot(extract_slice(v, cfg.s, idx))
                         for v, idx in zip(videos, idxs)])
        assert np.array_equal(seen[0], want.reshape(2, *cfg.slice_shape, cfg.input_channels))

    def test_composite_grad_check(self):
        """2-layer encoder + 2-layer decoder + head, float64, against finite
        differences on a handful of parameters.  eps=3e-4 keeps the probe
        step inside the piecewise-linear region of the head ReLUs (at 1e-3 a
        kink falls inside the window and the difference quotient is off by
        construction, not by a gradient bug)."""
        cfg = tiny_config(video_shape=(2, 4, 4), s=(2, 2, 2), d_e=6, d=8,
                          n_heads=2, d_head=4)
        ps64 = _params_float64(cfg, seed=15)
        video = np.random.default_rng(16).integers(0, 256, (2, 4, 4, 3)).astype(np.uint8)
        probe = ["enc/conv_kernel", "enc/l0/w_qkv", "dec/mconv_kernel",
                 "dec/l1/t1", "head/u1", "head/p", "dec/z_proj"]
        def fn(*tensors):
            store = M.ParamStore({**{n: t for n, t in ps64.items()},
                                  **dict(zip(probe, tensors))})
            loss, _, _ = M.forward_slices(store, cfg, [video], [(1, 0, 1)], 0)
            return loss
        err = grad_check(fn, [ps64[n] for n in probe], eps=3e-4,
                            max_entries=40, seed=2)
        assert err < 1e-4

    def test_first_slice_decoder_paths(self, monkeypatch):
        cfg = tiny_config(first_slice_layers=2)
        ps = M.init_params(cfg, head_init="normal")
        assert any(n.startswith("dec0/") for n in ps.names())
        video = np.random.default_rng(18).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        loss0, pix0, out0 = M.forward_slices(ps, cfg, [video], [(0, 0, 0)], 0)
        loss1, pix1, out1 = M.forward_slices(ps, cfg, [video], [(0, 0, 1)], 0)
        assert np.isfinite(loss0.item()) and np.isfinite(loss1.item())
        # a mixed batch: one loss over both groups' rows, merged into batch order
        losses = []
        nll_loss = M.nll_loss
        monkeypatch.setattr(M, "nll_loss", lambda *a: losses.append(a) or nll_loss(*a))
        loss, pix, out = M.forward_slices(ps, cfg, [video, video], [(0, 0, 1), (0, 0, 0)], 0)
        assert len(losses) == 1
        assert np.array_equal(loss.data, tc.add(loss0, loss1).data) and pix == pix0 + pix1
        assert np.array_equal(out.data, np.concatenate([out1.data, out0.data]))

    def test_first_slice_decoder_causality(self):
        """The deeper stand-alone decoder obeys the order on its slice too."""
        from helpers import allowed_influence_mask
        cfg = tiny_config(first_slice_layers=2)
        ps = M.init_params(cfg, head_init="normal")
        rng = np.random.default_rng(19)
        video = rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        leaf = Tensor(M.video_onehot(video), requires_grad=True)
        _, _, logits = M.forward_slices(ps, cfg, [video], [(0, 0, 0)], 0,
                                        onehots=[leaf])
        for pixel, chan in [(0, 0), (9, 2), (31, 5)]:
            clear_graph_grads(logits)
            seed = np.zeros_like(logits.data)
            seed[0, pixel, chan, :] = rng.standard_normal(16)
            reference_backward(logits, seed)
            nonzero = np.abs(leaf.grad).sum(axis=-1) > 0
            assert np.array_equal(nonzero,
                                  allowed_influence_mask(cfg, (0, 0, 0), pixel, chan))


class TestReferenceOps:
    """The desk model computes the same bits with ``tc.matmul``,
    ``tc.softmax``, ``tc.cross_entropy`` and ``tc.layernorm`` (and
    ``tc.layernorm_array``) as with their reference forms in ``helpers``, and
    with the lean attention score path (queries scaled before the product,
    the bias inside ``tc.softmax``, one-node relative bias) as with the
    reference chain (``helpers.REFERENCE_ATTENTION``): in the teacher-forced
    forward and in the sampler, and with all but ``tc.matmul`` in training
    and evaluation, at normal-init parameters and where attention weights are
    subnormal.  The desk's d_head is 16, so its query scale 1/4 is exact.
    Both runs share one process, so one BLAS build."""

    @staticmethod
    def desk(qkv_scale=1.0, config="sprites-rgb.cfg"):
        """Desk config, normal-init parameters with every ``w_qkv`` scaled by
        ``qkv_scale``, and two videos."""
        conf = cli.load_config(CONFIGS / config)
        cfg = cli.model_config_from(conf)
        videos = data.gen_sprites(*cfg.video_shape, 2, channels=cfg.bytes_per_pixel, seed=7)
        params = M.init_params(cfg, head_init="normal")
        for name, t in params.items():
            if name.endswith("/w_qkv"):
                t.data *= np.float32(qkv_scale)
        return conf, cfg, params, videos

    @staticmethod
    def shipped_and_reference(monkeypatch, run, ops=REFERENCE_OPS):
        shipped = run()
        for name, op in ops.items():
            monkeypatch.setattr(tc, name, op)
        for name, op in REFERENCE_ATTENTION.items():
            monkeypatch.setattr(attention, name, op)
        return shipped, run()

    def teacher_forced(self, config):
        """(shipped, reference) loss and logits of every slice of one video,
        one slice per call, and of all slices of the other in one call."""
        conf, cfg, params, videos = self.desk(config=config)
        order = slice_order(cfg.s)

        def run():
            out = [M.forward_slices(params, cfg, videos[:1], [idx], conf["prime_frames"])
                   for idx in order]
            out.append(M.forward_slices(params, cfg, [videos[1]] * len(order), order,
                                        conf["prime_frames"]))
            return [(loss.data, logits.data) for loss, _, logits in out]

        with pytest.MonkeyPatch.context() as mp:
            shipped, reference = self.shipped_and_reference(mp, run)
        assert len(shipped) == len(order) + 1
        return shipped, reference

    def test_forward_slices(self):
        shipped, reference = self.teacher_forced("sprites-rgb.cfg")
        for (loss, logits), (ref_loss, ref_logits) in zip(shipped, reference):
            assert np.array_equal(loss, ref_loss) and np.array_equal(logits, ref_logits)

    def test_forward_slices_last_ulp(self):
        """Where 1/sqrt(d_head) is not a power of two (sprites-gray's d_head
        12), scaling the queries instead of the scores rounds differently:
        a declared last-ulp change of some head outputs, far inside rtol 1e-6
        of the loss."""
        shipped, reference = self.teacher_forced("sprites-gray.cfg")
        assert any(not np.array_equal(out, ref) for (_, out), (_, ref) in zip(shipped, reference))
        for (loss, out), (ref_loss, ref_out) in zip(shipped, reference):
            assert loss == pytest.approx(ref_loss, rel=1e-6)
            assert np.abs(out - ref_out).max() <= 1e-6 * np.abs(ref_out).max()

    def test_canonical_forward_last_ulp(self, monkeypatch):
        """The canonical model's d_head is 128, so its query scale is not a
        power of two either: one no-grad 4x32x32 slice (rank 3) keeps its
        loss within rtol 1e-6 of the reference chain."""
        conf = cli.load_config(CONFIGS / "base-16x64x64.cfg")
        cfg = cli.model_config_from(conf)
        params = M.init_params(cfg, head_init="normal")
        video = data.gen_sprites(*cfg.video_shape, 1, channels=cfg.bytes_per_pixel, seed=1)[0]
        idx = slice_order(cfg.s)[3]

        def run():
            with tc.no_grad():
                return M.forward_slices(params, cfg, [video], [idx], conf["prime_frames"])[0].item()

        shipped, reference = self.shipped_and_reference(monkeypatch, run)
        assert shipped == pytest.approx(reference, rel=1e-6)

    def test_sample_video(self, monkeypatch):
        conf, cfg, params, videos = self.desk()
        scfg = sampler.SampleConfig(prime_frames=conf["prime_frames"],
                                    temperature=conf["temperature"], seed=3)
        shipped, reference = self.shipped_and_reference(
            monkeypatch, lambda: sampler.sample_video(params, cfg, videos[0], scfg)[0])
        assert np.array_equal(shipped, reference)

    # scales the desk's q.k scores by SHARP**2, so that attention weights fall
    # below float32's smallest normal number and ``tc.softmax`` flushes them
    SHARP = 48

    # the one-GEMM weight product's gradients differ from the batch loop's
    # in the last ulp, a declared change, so training keeps ``tc.matmul``
    TRAIN_OPS = {name: op for name, op in REFERENCE_OPS.items() if name != "matmul"}

    @staticmethod
    def train_config(conf):
        return optim.TrainConfig(steps=3, batch_slices=conf["batch_slices"],
                                 train_seed=conf["train_seed"],
                                 prime_frames=conf["prime_frames"], lr=conf["lr"])

    def train_and_evaluate(self, monkeypatch, qkv_scale):
        conf, cfg, _, videos = self.desk(qkv_scale)
        tcfg = self.train_config(conf)

        def run():
            ps, opt, records = optim.train(cfg, tcfg, videos, params=self.desk(qkv_scale)[2])
            result = metrics.evaluate(ps, cfg, videos, conf["prime_frames"])
            return [r[1] for r in records], ps.arrays(), opt.acc, opt.mom, result

        shipped, reference = self.shipped_and_reference(monkeypatch, run, self.TRAIN_OPS)
        (losses, *arrays, result), (ref_losses, *ref_arrays, ref_result) = shipped, reference
        assert len(losses) == tcfg.steps
        assert losses == ref_losses and result == ref_result
        for got, want in zip(arrays, ref_arrays):
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[n], want[n]) for n in got)

    def test_train_and_evaluate(self, monkeypatch):
        self.train_and_evaluate(monkeypatch, 1.0)

    def test_train_and_evaluate_with_subnormal_weights(self, monkeypatch):
        conf, cfg, params, videos = self.desk(self.SHARP)
        counts = []

        def counted_softmax(a, bias):
            y = two_temporary_softmax(a, bias)
            counts.append(int(is_subnormal(y.data).sum()))
            return y

        with pytest.MonkeyPatch.context() as mp:  # step 0's forward, unflushed
            mp.setattr(tc, "softmax", counted_softmax)
            batch = optim.batch_at(len(videos), cfg.s, conf["batch_slices"],
                                   conf["train_seed"], 0)
            M.forward_slices(params, cfg, [videos[v] for v, _ in batch],
                             [idx for _, idx in batch], conf["prime_frames"])
        assert sum(counts) > 0
        self.train_and_evaluate(monkeypatch, self.SHARP)

    @pytest.mark.parametrize("prime", [0, 1])
    def test_sample_video_with_subnormal_weights(self, monkeypatch, prime):
        conf, cfg, params, videos = self.desk(self.SHARP)
        scfg = sampler.SampleConfig(prime_frames=prime, temperature=conf["temperature"], seed=3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "sample_slice", reference_sample_slice)
            full = sampler.sample_video(params, cfg, videos[0], scfg)
        cached, reference = self.shipped_and_reference(
            monkeypatch, lambda: sampler.sample_video(params, cfg, videos[0], scfg))
        for other in (full, reference):
            assert np.array_equal(cached[0], other[0]) and np.array_equal(cached[1], other[1])

    def test_no_subnormal_gradient_enters_a_matmul_backward(self, monkeypatch):
        """Census over 3 training steps of the SHARP desk model: no float32
        subnormal reaches the backward of any matrix product, weight product
        or score product.  The reference chain's score scale, applied after
        the product, passes some to ``q @ kT``'s backward."""
        conf, cfg, _, videos = self.desk(self.SHARP)
        tcfg = self.train_config(conf)
        census = []

        def counting(op):
            def product(a, b):
                out = op(a, b)
                if out._backward is not None:
                    back = out._backward

                    def counted(g):
                        census.append(int(is_subnormal(g).sum()))
                        back(g)

                    out._backward = counted
                return out
            return product

        def run():
            census.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tc, "matmul", counting(tc.matmul))
                mp.setattr(helpers, "batched_matmul", counting(helpers.batched_matmul))
                optim.train(cfg, tcfg, videos, params=self.desk(self.SHARP)[2])
            return list(census)

        shipped, reference = self.shipped_and_reference(monkeypatch, run, self.TRAIN_OPS)
        assert len(shipped) == len(reference) > 0
        assert sum(shipped) == 0 and sum(reference) > 0


class TestForwardMemory:
    """A forward without a graph frees each activation after its last reader."""

    def _setup(self):
        cfg = M.build_variant("spatiotemporal", (8, 32, 32), s=(2, 2, 2), d_e=32, d=128,
                              n_heads=8, d_head=64, enc_blocks=[(4, 8, 4)] * 2,
                              dec_blocks=[(4, 8, 4)] * 2)
        params = M.init_params(cfg, head_init="normal")
        rng = np.random.default_rng(41)
        video = rng.integers(0, 256, (*cfg.video_shape, cfg.bytes_per_pixel)).astype(np.uint8)
        return cfg, params, video, slice_order(cfg.s)[3]

    def test_peak_is_one_layer_of_activations(self):
        """On a 4x16x16 slice in 4x8x4 blocks (d = 128, 8 heads of 64, so the
        qkv product is the largest array), the peak of a no-grad forward is
        what one attention layer needs at once: its input, the blocked copy,
        the qkv product, the scores and the softmax output, and the softmax's
        bool mask, plus the bias matrix and two layer-sized arrays of slack.
        The video one-hot, the encoder output and the heads are gone by then
        (the parameters are allocated before the trace)."""
        cfg, params, video, idx = self._setup()
        spec = cfg.dec_schedule[0]
        P, G, n_p = int(np.prod(cfg.slice_shape)), 8, spec.block.size
        layer = P * cfg.d * 4
        qkv = P * 3 * spec.n_heads * spec.d_head * 4
        scores = G * spec.n_heads * n_p * n_p * 4
        bias = spec.n_heads * n_p * n_p * 4
        bound = 2 * layer + qkv + 2 * scores + scores // 4 + bias + 2 * layer
        with tc.no_grad():
            (loss, _, _), peak = traced_peak(M.forward_slices, params, cfg, [video], [idx])
        assert np.isfinite(loss.item())
        assert peak <= bound, (peak / 2**20, bound / 2**20)

    def test_single_slice_cut_is_a_copy(self, monkeypatch):
        """The decoder input of a one-slice batch shares no memory with the
        video one-hot, so the cut does not keep the one-hot alive."""
        cfg, params, video, idx = self._setup()
        onehot = Tensor(M.video_onehot(video))
        seen = []
        decode = M.decode_slices
        monkeypatch.setattr(M, "decode_slices",
                            lambda p, c, x, *a, **k: seen.append(x.data) or decode(p, c, x, *a, **k))
        with tc.no_grad():
            M.forward_slices(params, cfg, [video], [idx], onehots=[onehot])
        assert len(seen) == 1 and not np.shares_memory(seen[0], onehot.data)


class TestTrainingGraph:
    """On a desk training batch the graph frees the values no backward
    reads, among them every attention layer's scores (the softmax input);
    it keeps the attention weights (the softmax output) and, as the encoder
    conv's input, the one-hot that every entry of a video shares, not a
    masked copy per entry; and it gives the same gradients as when the
    caller holds every one of those values.  A swept graph keeps only the
    parameters' gradients."""

    @staticmethod
    def forward(watch=False, keep=False):
        """(loss, params, refs, held, one-hot ids per conv call, distinct
        videos) of one desk training batch; with ``watch``, ``refs`` holds
        weak references to the watched values, and with ``keep`` ``held``
        holds the values themselves."""
        conf = cli.load_config(CONFIGS / "sprites-rgb.cfg")
        cfg = cli.model_config_from(conf)
        videos = data.gen_sprites(*cfg.video_shape, 4, channels=cfg.bytes_per_pixel, seed=2)
        params = M.init_params(cfg, head_init="normal")
        batch = optim.batch_at(len(videos), cfg.s, conf["batch_slices"], conf["train_seed"], 0)
        refs = {"scores": [], "weights": [], "conv_input": []}
        onehot_ids, held = [], []
        softmax, conv3d = tc.softmax, tc.conv3d

        def watched_softmax(a, bias):
            out = softmax(a, bias)
            refs["scores"].append(weakref.ref(a.data))
            refs["weights"].append(weakref.ref(out.data))
            held.extend([a, out] if keep else [])
            return out

        def watched_conv3d(x, *args, visible):
            owner = x.data if x.data.base is None else x.data.base
            assert owner.shape == (*cfg.video_shape, cfg.n_channels, M.N_VALUES)
            assert visible.shape == cfg.video_shape and visible.dtype == bool
            refs["conv_input"].append(weakref.ref(owner))
            onehot_ids.append(id(owner))
            held.extend([x] if keep else [])
            return conv3d(x, *args, visible=visible)

        with pytest.MonkeyPatch.context() as mp:
            if watch:
                mp.setattr(tc, "softmax", watched_softmax)
                mp.setattr(tc, "conv3d", watched_conv3d)
            loss = M.forward_slices(params, cfg, [videos[v] for v, _ in batch],
                                    [idx for _, idx in batch], conf["prime_frames"])[0]
        return loss, params, refs, held, onehot_ids, len({v for v, _ in batch})

    def step(self, keep):
        loss, params, refs, _held, onehot_ids, n_videos = self.forward(watch=True, keep=keep)
        alive = {k: [r() is not None for r in rs] for k, rs in refs.items()}
        tc.backward(loss)
        return alive, len(set(onehot_ids)), n_videos, {n: t.grad for n, t in params.items()}

    def test_unread_values_freed_and_gradients_unchanged(self):
        alive, n_onehots, n_videos, grads = self.step(keep=False)
        assert len(alive["scores"]) == 4 and len(alive["conv_input"]) == 8
        assert not any(alive["scores"])
        assert all(alive["weights"]) and all(alive["conv_input"])
        assert n_onehots == n_videos < 8  # one kept one-hot per video, not per entry
        held, _, _, want = self.step(keep=True)
        assert all(all(v) for v in held.values())
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            assert np.array_equal(g, want[name]), name

    def test_swept_graph_keeps_only_parameter_gradients(self):
        loss, params, *_ = self.forward()
        before = graph_bytes(loss)
        tc.backward(loss)
        grads = [t.grad for _, t in params.items() if t.grad is not None]
        assert graph_bytes(loss) == sum(g.nbytes for g in grads) < before

    def test_reference_sweep_matches_first_sweep(self):
        """``helpers.reference_backward`` gives every parameter the
        gradient ``tc.backward`` gives, bit for bit."""
        grads = []
        for sweep in (reference_backward, tc.backward):
            loss, params, *_ = self.forward()
            sweep(loss)
            grads.append({n: t.grad for n, t in params.items()})
        assert grads[0].keys() == grads[1].keys()
        assert sum(g is not None for g in grads[0].values()) > 20
        for name, g in grads[0].items():
            want = grads[1][name]
            assert (g is None and want is None) or np.array_equal(g, want), name


def _params_float64(cfg, seed):
    ps = M.init_params(cfg, head_init="normal")
    rng = np.random.default_rng(seed)
    out = {}
    for name, t in ps.items():
        data = t.data.astype(np.float64)
        if not data.any():  # give zero-init tables some signal for grad checks
            data = rng.standard_normal(data.shape) * 0.1
        out[name] = Tensor(data, requires_grad=True)
    return M.ParamStore(out)
