"""Sampling: temperature semantics, priming, determinism, prefix consistency."""

import numpy as np
import pytest

from helpers import reference_sample_slice, tiny_config
from svt import model as M
from svt import sampler
from svt.sampler import (SampleConfig, apply_temperature, sample_categorical,
                         sample_slice, sample_video, slice_uniforms, _position_stream)
from svt.subscale import extract_slice, primed_plane_mask, slice_order
from svt.tensor import ConfigError


def make_model(seed=23, **overrides):
    cfg = tiny_config(seed=seed, **overrides)
    return cfg, M.init_params(cfg, head_init="normal")


class TestTemperature:
    def test_identity_at_one(self):
        logits = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(apply_temperature(logits, 1.0), logits)

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            apply_temperature(np.zeros(3), 0.0)

    def test_low_temperature_degenerates_to_argmax(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal(16)
        stream = _position_stream(0, 0, 0, 0, 0)
        assert sample_categorical(logits, 1e-6, stream) == int(np.argmax(logits))

    def test_point_nine_sharpens(self):
        """Max-probability mass strictly increases for non-uniform logits."""
        rng = np.random.default_rng(1)
        for _ in range(20):
            logits = rng.standard_normal(16) * 2
            def probs(tau):
                z = apply_temperature(logits, tau)
                p = np.exp(z - z.max())
                return p / p.sum()
            assert probs(0.9).max() > probs(1.0).max()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SampleConfig(temperature=2.5).validate(4)
        with pytest.raises(ConfigError):
            SampleConfig(prime_frames=9).validate(4)
        SampleConfig(prime_frames=4, temperature=0.9).validate(4)


class TestStreams:
    def test_streams_reproducible(self):
        a = _position_stream(7, 1, 2, 3, 4).random()
        b = _position_stream(7, 1, 2, 3, 4).random()
        assert a == b

    def test_streams_distinct_across_positions(self):
        vals = {_position_stream(7, 0, s, p, c).random()
                for s in range(2) for p in range(3) for c in range(2)}
        assert len(vals) == 12

    def test_key_words_exact(self):
        """Negative and large seeds reach the key as exact uint64 words: a
        plain key list that mixes words below and above 2^63 goes through
        float64 in numpy, which sent seeds -1 and -7 to seed 0's streams."""
        vals = [_position_stream(seed, 0, 1, 2, 3).random()
                for seed in (0, -1, -7, 2**63, 2**63 + 1)]
        assert len(set(vals)) == 5
        assert vals[1] == _position_stream(2**64 - 1, 0, 1, 2, 3).random()


def position_uniforms(seed, video_index, rank, n_pixels, n_channels):
    """``slice_uniforms`` one numpy generator at a time (reference form)."""
    return np.array([[_position_stream(seed, video_index, rank, p, c).random()
                      for c in range(n_channels)] for p in range(n_pixels)])


class TestSliceUniforms:
    """The vectorised Philox4x64-10 draws against numpy's own Philox."""

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, -1])
    @pytest.mark.parametrize("video_index", [0, 7, 2**63 + 3])
    @pytest.mark.parametrize("rank", [0, 1, 63])
    def test_match_position_streams(self, seed, video_index, rank):
        for n_pixels in (1, 128):
            for n_channels in (2, 6):
                got = slice_uniforms(seed, video_index, rank, n_pixels, n_channels)
                want = position_uniforms(seed, video_index, rank, n_pixels, n_channels)
                assert got.dtype == np.float64 and got.shape == (n_pixels, n_channels)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_channels", [2, 6])
    def test_canonical_slice(self, n_channels):
        """Every stream of a 4x32x32 slice, at a large seed and video index."""
        args = (2**64 - 1, 2**63 + 3, 63, 4096, n_channels)
        assert np.array_equal(slice_uniforms(*args), position_uniforms(*args))


class TestSampleSlice:
    def test_fully_primed_slice_unchanged(self):
        cfg, ps = make_model()
        rng = np.random.default_rng(2)
        video = rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        scfg = SampleConfig(prime_frames=4, temperature=0.9, seed=0)
        out = sample_slice(ps, cfg, video, (1, 0, 1), scfg)
        expect = M.split_channels(extract_slice(video, cfg.s, (1, 0, 1)))
        assert np.array_equal(out, expect)

    def test_same_seed_bit_identical(self):
        cfg, ps = make_model()
        rng = np.random.default_rng(3)
        video = rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        scfg = SampleConfig(prime_frames=1, temperature=1.0, seed=11)
        a = sample_slice(ps, cfg, video, (0, 0, 0), scfg)
        b = sample_slice(ps, cfg, video, (0, 0, 0), scfg)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        cfg, ps = make_model()
        video = np.zeros((4, 8, 8, 3), dtype=np.uint8)
        a = sample_slice(ps, cfg, video, (0, 0, 0),
                         SampleConfig(prime_frames=0, temperature=1.5, seed=1))
        b = sample_slice(ps, cfg, video, (0, 0, 0),
                         SampleConfig(prime_frames=0, temperature=1.5, seed=2))
        assert not np.array_equal(a, b)


class TestSampleVideo:
    def test_prime_equals_video_length_echoes(self):
        cfg, ps = make_model()
        rng = np.random.default_rng(4)
        video = rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        scfg = SampleConfig(prime_frames=4, temperature=0.9, seed=0)
        out, split = sample_video(ps, cfg, video, scfg)
        assert np.array_equal(out, video)
        assert np.array_equal(M.join_channels(split), video)

    def test_output_ranges_and_split_consistency(self):
        cfg, ps = make_model()
        video = np.zeros((4, 8, 8, 3), dtype=np.uint8)
        scfg = SampleConfig(prime_frames=1, temperature=1.0, seed=5)
        out, split = sample_video(ps, cfg, video, scfg)
        assert out.dtype == np.uint8
        assert split.max() <= 15
        assert np.array_equal(M.join_channels(split), out)
        assert np.array_equal(split, M.split_channels(out))
        assert np.array_equal(out[0], video[0])  # primed frame copied

    def test_seed_determinism_full_video(self):
        cfg, ps = make_model()
        video = np.zeros((4, 8, 8, 3), dtype=np.uint8)
        scfg = SampleConfig(prime_frames=1, temperature=1.0, seed=9)
        a, _ = sample_video(ps, cfg, video, scfg)
        b, _ = sample_video(ps, cfg, video, scfg)
        assert np.array_equal(a, b)

    def test_prefix_consistency(self):
        """Extending the prime with frames the model sampled anyway leaves
        every remaining pixel bit-identical (per-position rng streams)."""
        cfg, ps = make_model()
        video = np.zeros((4, 8, 8, 3), dtype=np.uint8)
        first, _ = sample_video(ps, cfg, video, SampleConfig(
            prime_frames=1, temperature=1.0, seed=33))
        extended, _ = sample_video(ps, cfg, first, SampleConfig(
            prime_frames=2, temperature=1.0, seed=33))
        assert np.array_equal(extended, first)

    def test_bad_prime_shape_rejected(self):
        cfg, ps = make_model()
        with pytest.raises(ConfigError):
            sample_video(ps, cfg, np.zeros((4, 8, 8, 1), dtype=np.uint8),
                         SampleConfig(prime_frames=1, temperature=0.9, seed=0))

    def test_first_slice_decoder_sampling(self):
        cfg, ps = make_model(first_slice_decoder=True, first_slice_layers=2)
        video = np.zeros((4, 8, 8, 3), dtype=np.uint8)
        out, _ = sample_video(ps, cfg, video, SampleConfig(
            prime_frames=1, temperature=1.0, seed=3))
        assert out.shape == video.shape

    def test_deterministic_head_sampling(self):
        cfg, ps = make_model(channels="gray", head="deterministic")
        video = np.zeros((4, 8, 8, 1), dtype=np.uint8)
        out, split = sample_video(ps, cfg, video, SampleConfig(
            prime_frames=1, temperature=0.9, seed=0))
        assert out.shape == video.shape
        assert np.array_equal(M.join_channels(split), out)


SMALL = dict(d_e=12, d=16, n_heads=2, d_head=8, layers=2, seed=5)
DIFFERENTIAL_CONFIGS = {
    "tiny-rgb": lambda: tiny_config(),
    "first-slice-decoder": lambda: tiny_config(first_slice_decoder=True,
                                               first_slice_layers=2),
    "deterministic-gray": lambda: tiny_config(channels="gray", head="deterministic"),
    "spatial": lambda: M.build_variant("spatial", (4, 8, 8), **SMALL),
    "single-frame": lambda: M.build_variant("single_frame", (4, 8, 8), **SMALL),
    "several-blocks": lambda: M.build_variant(
        "spatiotemporal", (4, 8, 8), s=(2, 2, 2), enc_blocks=[(2, 4, 4)] * 2,
        dec_blocks=[(1, 2, 2), (2, 1, 4)], **SMALL),
}


def randomized_params(cfg, seed):
    """Normal-head params with every table perturbed, including the
    zero-initialised relative-bias tables and layernorm affines."""
    ps = M.init_params(cfg, head_init="normal")
    rng = np.random.default_rng(seed)
    for t in ps.tensors():
        t.data += (0.1 * rng.standard_normal(t.data.shape)).astype(t.data.dtype)
    return ps


def head_inputs(monkeypatch, seed):
    """Record the logits and intensities both samplers feed their draws,
    forcing each draw to the next value of a seeded sequence so that the
    two samplers condition on identical pixels."""
    seen = []
    forced = np.random.default_rng(seed).integers(0, M.N_VALUES, 10**4)
    head_intensity = M.head_intensity

    def draw(logits, tau, u):
        seen.append(np.array(logits))
        return int(forced[len(seen)])

    def intensity(params, cfg, y):
        out = head_intensity(params, cfg, y)
        seen.append(np.array(out.data))
        return out

    monkeypatch.setattr(sampler, "categorical_from_uniform", draw)
    monkeypatch.setattr(M, "head_intensity", intensity)
    return seen


class TestCachedDecoding:
    """The cached sampler against the full-recompute reference."""

    @pytest.mark.parametrize("prime", [0, 1])
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONFIGS))
    def test_head_inputs_match_full_recompute(self, monkeypatch, name, prime):
        cfg = DIFFERENTIAL_CONFIGS[name]()
        ps = randomized_params(cfg, 31)
        T, H, W = cfg.video_shape
        canvas = np.random.default_rng(4).integers(
            0, 256, (T, H, W, cfg.bytes_per_pixel)).astype(np.uint8)
        scfg = SampleConfig(prime_frames=prime, temperature=1.0, seed=2)
        outputs = []
        for fn in (sample_slice, reference_sample_slice):
            seen = head_inputs(monkeypatch, 8)
            chans = [fn(ps, cfg, canvas, idx, scfg) for idx in slice_order(cfg.s)]
            outputs.append((chans, seen))
            monkeypatch.undo()
        (cached, got), (full, want) = outputs
        Ts, Hs, Ws = cfg.slice_shape
        unprimed = sum(int((~primed_plane_mask(cfg.s, idx, Ts, prime)).sum())
                       for idx in slice_order(cfg.s)) * Hs * Ws
        per_pixel = cfg.n_channels if cfg.head == "categorical" else 1
        assert len(got) == len(want) == unprimed * per_pixel
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5)
        for a, b in zip(cached, full):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_video_as_full_recompute(self, monkeypatch, seed):
        cfg, ps = make_model()
        prime = np.random.default_rng(seed).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
        scfg = SampleConfig(prime_frames=1, temperature=1.0, seed=seed)
        cached = sample_video(ps, cfg, prime, scfg, video_index=seed)
        monkeypatch.setattr(sampler, "sample_slice", reference_sample_slice)
        full = sample_video(ps, cfg, prime, scfg, video_index=seed)
        assert np.array_equal(cached[0], full[0])
        assert np.array_equal(cached[1], full[1])

    @pytest.mark.parametrize("prime", [0, 1, 3])
    def test_one_prefill_per_sampled_slice(self, monkeypatch, prime):
        cfg, ps = make_model()
        calls = {"encode_slices": 0, "decode_slices": 0}
        for name in calls:
            def counted(*args, _fn=getattr(M, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(M, name, counted)
        video = np.zeros((4, 8, 8, 3), dtype=np.uint8)
        sample_video(ps, cfg, video, SampleConfig(prime_frames=prime, temperature=1.0))
        Ts = cfg.slice_shape[0]
        sampled = sum(not primed_plane_mask(cfg.s, idx, Ts, prime).all()
                      for idx in slice_order(cfg.s))
        assert calls == {"encode_slices": sampled, "decode_slices": sampled}
