"""Model assembly: channel codec, encoder/decoder contracts, heads, losses,
variants, checkpoints."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (REFERENCE_OPS, clear_graph_grads, decode_slice, encode_slice, grad_check,
                     predict_channels, tiny_config)
from svt import cli, data, sampler
from svt import model as M
from svt import tensor as tc
from svt.subscale import SubscaleFactor, extract_slice, slice_key, slice_order, slice_rank
from svt.tensor import ConfigError, Tensor


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
        leaf = Tensor(M.video_onehot(cfg, video), requires_grad=True)
        slice_oh = tc.index(leaf, slice_key(cfg.s, idx))
        z = M.encode_slices(ps, cfg, [Tensor(M.video_onehot(cfg, video))], [idx])
        x = tc.reshape(slice_oh, (1, *cfg.slice_shape, cfg.input_channels))
        y = M.decode_slices(ps, cfg, x, z, slice_rank(cfg.s, idx))
        P = 32
        yf = tc.reshape(y, (P, cfg.d))
        for p in [0, 7, 31]:
            clear_graph_grads(yf)
            seed = np.zeros((P, cfg.d), dtype=np.float32)
            seed[p] = 1.0
            tc.backward(yf, seed)
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
        lp = tc.log_softmax(logits, axis=-1)
        nll_bits = -lp.data[0, 0, 0] / math.log(2.0)
        assert np.allclose(nll_bits, 4.0, atol=1e-5)

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
        loss, n = M.nll_loss(Tensor(logits), targets, np.ones((1, 4)))
        assert loss.item() < 1e-6 and n == 4

    def test_uniform_prediction(self):
        logits = Tensor(np.zeros((1, 5, 6, 16), dtype=np.float32))
        targets = np.zeros((1, 5, 6), dtype=np.int64)
        loss, n = M.nll_loss(logits, targets, np.ones((1, 5)))
        assert loss.item() == pytest.approx(5 * 6 * math.log(16.0), rel=1e-6)

    def test_prime_mask_excludes_frame(self):
        cfg = tiny_config()
        rng = np.random.default_rng(9)
        logits = Tensor(rng.standard_normal((1, 32, 6, 16)).astype(np.float32))
        targets = rng.integers(0, 16, (1, 32, 6))
        mask_all = np.ones((1, 32), dtype=np.float32)
        mask_prime = M.pixel_loss_mask(cfg, (0, 0, 0), 1).reshape(1, 32)
        full, _ = M.nll_loss(logits, targets, mask_all)
        masked, _ = M.nll_loss(logits, targets, mask_prime)
        frame0 = np.zeros((2, 4, 4), dtype=np.float32)
        frame0[0] = 1.0
        only_frame0, _ = M.nll_loss(logits, targets, frame0.reshape(1, 32))
        assert masked.item() == pytest.approx(full.item() - only_frame0.item(), rel=1e-6)

    def test_deterministic_half_gives_n_ln2(self):
        pred = Tensor(np.full((1, 64, 1), 0.5, dtype=np.float32))
        z = np.random.default_rng(10).random((1, 64, 1))
        loss = M.deterministic_loss(pred, z)
        assert loss.item() == pytest.approx(64 * math.log(2.0), rel=1e-5)

    def test_deterministic_perfect_limits(self):
        z = np.array([0.0, 1.0, 1.0, 0.0]).reshape(1, 4, 1)
        pred = Tensor(z.astype(np.float32))
        loss = M.deterministic_loss(pred, z)
        assert loss.item() <= 4 * 1e-7 * 16

    def test_deterministic_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        z = rng.random((1, 10, 1))
        y = rng.uniform(0.01, 0.99, (1, 10, 1))
        loss = M.deterministic_loss(Tensor(y, dtype=np.float64), z)
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

    def test_first_slice_decoder_needs_layers(self):
        with pytest.raises(ConfigError, match="first_slice_layers"):
            M.build_variant("spatiotemporal", (4, 16, 16), first_slice_decoder=True,
                            first_slice_layers=0)
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
            leaf = Tensor(M.video_onehot(cfg, video), requires_grad=True)
            z = M.encode_slices(ps, cfg, [leaf], [(a, 0, 0)])
            tc.backward(tc.sum_all(z))
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
        with pytest.raises(DataError):
            M.load_checkpoint(path)

    def test_malformed_bytes_raise_data_error(self, tmp_path):
        """Every truncation of a valid checkpoint, and seeded byte flips of
        it, load to a dict of float32 arrays or raise DataError."""
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
        assert sorted(load(raw)) == sorted(arrays)
        rng = np.random.default_rng(0)
        for _ in range(1500):
            flipped = bytearray(raw)
            flipped[rng.integers(len(raw))] ^= 1 << int(rng.integers(8))
            out = load(bytes(flipped))
            assert out is None or all(a.dtype == np.float32 for a in out.values())

    def test_missing_param_rejected(self, tmp_path):
        cfg = tiny_config()
        ps = M.init_params(cfg)
        arrays = ps.arrays()
        arrays.pop("head/p")
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, arrays)
        with pytest.raises(ConfigError):
            M.params_from_checkpoint(cfg, M.load_checkpoint(path))


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
        leaf = Tensor(M.video_onehot(cfg, video), requires_grad=True)
        _, _, logits = M.forward_slices(ps, cfg, [video], [idx], 0, onehots=[leaf])
        for pixel, chan in [(0, 0), (5, 3), (31, 5)]:
            clear_graph_grads(logits)
            seed = np.zeros_like(logits.data)
            seed[0, pixel, chan, :] = rng.standard_normal(16)
            tc.backward(logits, seed)
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
        leaves = [Tensor(M.video_onehot(cfg, v), requires_grad=True) for v in videos]
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
        per_entry = [Tensor(M.video_onehot(cfg, v)) for v in videos]
        runs = []
        for onehots in (None, per_entry):
            ps = M.init_params(cfg, head_init="normal")
            built = []
            onehot = M.video_onehot
            monkeypatch.setattr(M, "video_onehot", lambda c, v: built.append(1) or onehot(c, v))
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
        want = np.stack([M.video_onehot(cfg, extract_slice(v, cfg.s, idx))
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
        cfg = tiny_config(first_slice_decoder=True, first_slice_layers=2)
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
        cfg = tiny_config(first_slice_decoder=True, first_slice_layers=2)
        ps = M.init_params(cfg, head_init="normal")
        rng = np.random.default_rng(19)
        video = rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        leaf = Tensor(M.video_onehot(cfg, video), requires_grad=True)
        _, _, logits = M.forward_slices(ps, cfg, [video], [(0, 0, 0)], 0,
                                        onehots=[leaf])
        for pixel, chan in [(0, 0), (9, 2), (31, 5)]:
            clear_graph_grads(logits)
            seed = np.zeros_like(logits.data)
            seed[0, pixel, chan, :] = rng.standard_normal(16)
            tc.backward(logits, seed)
            nonzero = np.abs(leaf.grad).sum(axis=-1) > 0
            assert np.array_equal(nonzero,
                                  allowed_influence_mask(cfg, (0, 0, 0), pixel, chan))


class TestReferenceOps:
    """The desk model computes the same bits with ``tc.matmul``,
    ``tc.softmax`` and ``tc.layernorm`` (and ``tc.layernorm_array``) as with
    their reference forms in ``helpers``, in the teacher-forced forward and
    in the sampler.  Both runs share one process, so one BLAS build."""

    @staticmethod
    def desk():
        conf = cli.load_config(Path(__file__).resolve().parents[1] / "configs" / "sprites-rgb.cfg")
        cfg = cli.model_config_from(conf)
        videos = data.gen_sprites(*cfg.video_shape, 2, channels=cfg.bytes_per_pixel, seed=7)
        return conf, cfg, M.init_params(cfg, head_init="normal"), videos

    @staticmethod
    def shipped_and_reference(monkeypatch, run):
        shipped = run()
        for name, op in REFERENCE_OPS.items():
            monkeypatch.setattr(tc, name, op)
        return shipped, run()

    def test_forward_slices(self, monkeypatch):
        conf, cfg, params, videos = self.desk()
        order = slice_order(cfg.s)

        def run():
            out = [M.forward_slices(params, cfg, videos[:1], [idx], conf["prime_frames"])
                   for idx in order]
            out.append(M.forward_slices(params, cfg, [videos[1]] * len(order), order,
                                        conf["prime_frames"]))
            return [(loss.data, logits.data) for loss, _, logits in out]

        shipped, reference = self.shipped_and_reference(monkeypatch, run)
        assert len(shipped) == len(order) + 1
        for (loss, logits), (ref_loss, ref_logits) in zip(shipped, reference):
            assert np.array_equal(loss, ref_loss) and np.array_equal(logits, ref_logits)

    def test_sample_video(self, monkeypatch):
        conf, cfg, params, videos = self.desk()
        scfg = sampler.SampleConfig(prime_frames=conf["prime_frames"],
                                    temperature=conf["temperature"], seed=3)
        shipped, reference = self.shipped_and_reference(
            monkeypatch, lambda: sampler.sample_video(params, cfg, videos[0], scfg)[0])
        assert np.array_equal(shipped, reference)


def _params_float64(cfg, seed):
    ps = M.init_params(cfg, head_init="normal")
    rng = np.random.default_rng(seed)
    out = {}
    for name, t in ps.items():
        data = t.data.astype(np.float64)
        if not data.any():  # give zero-init tables some signal for grad checks
            data = rng.standard_normal(data.shape) * 0.1
        out[name] = Tensor(data, requires_grad=True, dtype=np.float64)
    return M.ParamStore(out)
