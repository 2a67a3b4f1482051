"""Evaluation metrics: bits/dim, nats/frame, baseline, batching invariance."""

import json
import math

import numpy as np
import pytest

from helpers import clamped_baseline, reference_evaluate, tiny_config
from svt import metrics, model as M, tensor as tc
from svt.subscale import extract_slice, slice_order
from svt.tensor import ConfigError


class TestBitsPerDim:
    def test_uniform_model_is_eight(self):
        # 6 channels x ln 16 nats per pixel over 3 RGB dims
        nats = 100 * 6 * math.log(16.0)
        assert metrics.bits_per_dim(nats, 100) == pytest.approx(8.0)

    def test_halving_probability_adds_one_bit(self):
        nats = 10 * 6 * math.log(16.0)
        plus = nats + math.log(2.0)  # one channel's value got half as likely
        delta = metrics.bits_per_dim(plus, 10) - metrics.bits_per_dim(nats, 10)
        assert delta == pytest.approx(1.0 / (3 * 10))

    def test_zero_dims_rejected(self):
        with pytest.raises(ConfigError):
            metrics.bits_per_dim(1.0, 0)

    def test_prime_exclusion_from_both_sides(self):
        """Evaluating 15 of 16 frames: frame 0 is excluded from the pixel
        count as well as the numerator."""
        cfg = tiny_config()
        ps = M.init_params(cfg)  # uniform head
        video = np.random.default_rng(0).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        res = metrics.evaluate(ps, cfg, [video], prime_frames=1)
        assert res.n_pixels == 3 * 8 * 8  # (T - 1) * H * W
        assert res.bits_per_dim == pytest.approx(8.0, abs=1e-4)


class TestNatsPerFrame:
    def test_half_prediction_on_64x64(self):
        nats = 10 * 4096 * math.log(2.0)
        assert metrics.nats_per_frame(nats, 10) == pytest.approx(4096 * math.log(2.0))

    def test_perfect_prediction_near_zero(self):
        assert metrics.nats_per_frame(1e-5, 10) < 1e-5

    def test_zero_frames_rejected(self):
        with pytest.raises(ConfigError):
            metrics.nats_per_frame(1.0, 0)


class TestBaseline:
    def test_static_video_near_zero(self):
        v = np.full((4, 4, 4, 1), 255, dtype=np.uint8)
        base = metrics.copy_last_frame_baseline([v], 1)
        assert base < 4 * 4 * 1e-6

    def test_alternating_video_maximal(self):
        v = np.zeros((4, 2, 2, 1), dtype=np.uint8)
        v[1::2] = 255
        base = metrics.copy_last_frame_baseline([v], 1)
        # every pixel flips every frame: -ln(1e-7) per pixel
        assert base == pytest.approx(4 * -math.log(1e-7), rel=1e-3)

    def test_seed_stable(self):
        from svt.data import gen_sprites
        videos = gen_sprites(4, 8, 8, 3, channels=1, seed=8)
        a = metrics.copy_last_frame_baseline(videos, 1)
        b = metrics.copy_last_frame_baseline(gen_sprites(4, 8, 8, 3, channels=1, seed=8), 1)
        assert a == b

    @pytest.mark.parametrize("prime", [0, 1, 2])
    def test_equals_clamped_formula(self, prime):
        """Scored by ``tc.binary_cross_entropy``, the baseline equals the
        clamped formula it replaced bit for bit, on random videos (every
        intensity, 0 and 255 among them, which the clamp holds) and on
        sprites."""
        from svt.data import gen_sprites
        rng = np.random.default_rng(prime)
        videos = [rng.integers(0, 256, (6, 8, 8, 1)).astype(np.uint8) for _ in range(3)]
        videos[0][:, 0, 0, 0] = [0, 255, 255, 0, 0, 255]
        videos += gen_sprites(4, 16, 16, 5, channels=1, seed=3)
        for batch in (videos[:1], videos[3:], videos):
            assert metrics.copy_last_frame_baseline(batch, prime) == clamped_baseline(batch, prime)


class TestEvaluate:
    def test_batch_partition_invariance(self):
        """Accumulating per-slice in canonical order: the reported total must
        equal an independently chunked accumulation."""
        cfg = tiny_config()
        ps = M.init_params(cfg, head_init="normal")
        rng = np.random.default_rng(1)
        videos = [rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8) for _ in range(3)]
        whole = metrics.evaluate(ps, cfg, videos, prime_frames=1)
        parts = [metrics.evaluate(ps, cfg, [v], prime_frames=1) for v in videos]
        assert whole.total_nats == sum(p.total_nats for p in parts)
        assert whole.n_pixels == sum(p.n_pixels for p in parts)

    def test_matches_direct_log2_accumulation(self):
        """bits/dim equals a per-pixel log2 accumulation oracle."""
        cfg = tiny_config()
        ps = M.init_params(cfg, head_init="normal")
        video = np.random.default_rng(2).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        res = metrics.evaluate(ps, cfg, [video], prime_frames=1)
        total_log2 = 0.0
        n_pix = 0
        for idx in slice_order(cfg.s):
            with tc.no_grad():
                _, _, logits = M.forward_slices(ps, cfg, [video], [idx], 1)
            z = logits.data[0].astype(np.float64)
            z -= z.max(axis=-1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
            targets = M.split_channels(extract_slice(video, cfg.s, idx)).reshape(32, 6)
            mask = M.pixel_loss_mask(cfg, idx, 1).reshape(32)
            picked = np.take_along_axis(logp, targets[..., None].astype(np.int64), -1)[..., 0]
            total_log2 += -(picked * mask[:, None]).sum() / math.log(2.0)
            n_pix += int(mask.sum())
        oracle = total_log2 / (3 * n_pix)
        assert res.bits_per_dim == pytest.approx(oracle, rel=1e-5)

    def test_deterministic_head_reports_baseline(self):
        cfg = tiny_config(channels="gray", head="deterministic")
        ps = M.init_params(cfg)
        videos = [np.random.default_rng(3).integers(0, 256, (4, 8, 8, 1)).astype(np.uint8)]
        res = metrics.evaluate(ps, cfg, videos, prime_frames=1)
        assert res.frames == 3
        # zero head: y = 0.5 -> H = pixels * ln 2 per frame
        assert res.nats_per_frame == pytest.approx(8 * 8 * math.log(2.0), rel=1e-4)
        assert res.baseline_nats_per_frame > 0
        assert any("nats_per_frame" in ln for ln in res.lines())

    @pytest.mark.parametrize("prime", [-1, 4, 5])
    def test_prime_out_of_range_rejected_before_any_forward(self, monkeypatch, prime):
        """With every frame primed there is nothing to evaluate: ``evaluate``
        says so before it runs a single forward."""
        cfg = tiny_config()
        ps = M.init_params(cfg)
        calls = []
        forward = M.forward_slices
        monkeypatch.setattr(M, "forward_slices",
                            lambda *a, **k: calls.append(1) or forward(*a, **k))
        video = np.zeros((4, 8, 8, 3), dtype=np.uint8)
        with pytest.raises(ConfigError, match="prime_frames must be in 0..3"):
            metrics.evaluate(ps, cfg, [video], prime_frames=prime)
        assert calls == []
        metrics.evaluate(ps, cfg, [video], prime_frames=3)
        assert len(calls) == 1   # all 8 slices of 32 positions in one call

    @pytest.mark.parametrize("config", ["rgb", "gray-deterministic", "first-slice-decoder"])
    @pytest.mark.parametrize("prime", [0, 1, 3])
    @pytest.mark.parametrize("n_videos", [1, 5])
    @pytest.mark.parametrize("budget", [None, 96])
    def test_matches_per_slice_reference(self, monkeypatch, config, prime, n_videos, budget):
        """Chunked evaluation reports exactly the totals of one B=1 forward
        per slice; a budget of 96 positions (3 slices) splits every video
        across calls."""
        cfg = EVAL_CONFIGS[config]()
        ps = M.init_params(cfg, head_init="normal")
        rng = np.random.default_rng(n_videos + prime)
        videos = [rng.integers(0, 256, (4, 8, 8, cfg.bytes_per_pixel)).astype(np.uint8)
                  for _ in range(n_videos)]
        if budget is not None:
            monkeypatch.setattr(metrics, "EVAL_POSITIONS", budget)
        got = metrics.evaluate(ps, cfg, videos, prime_frames=prime)
        ref = reference_evaluate(ps, cfg, videos, prime_frames=prime)
        for name in ("total_nats", "n_pixels", "dims", "bits_per_dim", "frames",
                     "nats_per_frame", "baseline_nats_per_frame"):
            assert getattr(got, name) == getattr(ref, name), name

    @pytest.mark.parametrize("budget", [1, 64, 96, 256, 4096])
    @pytest.mark.parametrize("n_videos", [1, 3])
    def test_one_forward_per_chunk(self, monkeypatch, budget, n_videos):
        """``forward_slices`` runs once per chunk of max(1, budget // P')
        (video, slice) pairs."""
        cfg = tiny_config()
        ps = M.init_params(cfg)
        calls = []
        forward = M.forward_slices
        monkeypatch.setattr(M, "forward_slices",
                            lambda *a, **k: calls.append(len(a[3])) or forward(*a, **k))
        monkeypatch.setattr(metrics, "EVAL_POSITIONS", budget)
        videos = [np.zeros((4, 8, 8, 3), dtype=np.uint8)] * n_videos
        metrics.evaluate(ps, cfg, videos, prime_frames=1)
        pairs = n_videos * len(slice_order(cfg.s))
        per_call = max(1, budget // 32)
        assert len(calls) == math.ceil(pairs / per_call)
        assert sum(calls) == pairs and max(calls) == min(per_call, pairs)

    @pytest.mark.parametrize("config", ["rgb", "gray-deterministic"])
    def test_per_rank_nats(self, config):
        """Per-rank nats sum to the total, and on one video each rank's value
        is the loss of that slice's own forward."""
        cfg = EVAL_CONFIGS[config]()
        ps = M.init_params(cfg, head_init="normal")
        rng = np.random.default_rng(4)
        videos = [rng.integers(0, 256, (4, 8, 8, cfg.bytes_per_pixel)).astype(np.uint8)
                  for _ in range(3)]
        res = metrics.evaluate(ps, cfg, videos, prime_frames=1)
        assert math.isclose(sum(res.rank_nats), res.total_nats, rel_tol=1e-9)
        assert sum(res.rank_dims) == res.dims
        one = metrics.evaluate(ps, cfg, videos[:1], prime_frames=1)
        for rank, idx in enumerate(slice_order(cfg.s)):
            with tc.no_grad():
                loss, n_pix, _ = M.forward_slices(ps, cfg, videos[:1], [idx], prime_frames=1)
            assert one.rank_nats[rank] == loss.item()
            assert one.rank_dims[rank] == n_pix * (cfg.bytes_per_pixel
                                                   if cfg.head == "categorical" else 1)
        bpd = one.rank_bits_per_dim()
        assert bpd[0] == one.rank_nats[0] / (math.log(2.0) * one.rank_dims[0])
        assert json.loads(one.as_json())["rank_bits_per_dim"] == bpd

    def test_fully_primed_rank_has_no_bits_per_dim(self):
        """With frames 0..2 primed, the slices on even frames (0 and 2) have
        nothing left to score."""
        cfg = tiny_config()
        res = metrics.evaluate(M.init_params(cfg), cfg, [np.zeros((4, 8, 8, 3), np.uint8)], 3)
        bpd = res.rank_bits_per_dim()
        assert bpd[:4] == [None] * 4 and all(b is not None for b in bpd[4:])


EVAL_CONFIGS = {
    "rgb": tiny_config,
    "gray-deterministic": lambda: tiny_config(channels="gray", head="deterministic"),
    "first-slice-decoder": lambda: tiny_config(first_slice_layers=2),
}
