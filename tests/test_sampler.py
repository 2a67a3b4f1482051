"""Sampling: temperature semantics, priming, determinism, prefix consistency,
the cached sampler against full recompute, and teacher-forced replay."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (clear_graph_grads, grad_check, reach_matrix, reference_backward,
                     reference_evaluate, reference_sample_slice, tiny_config)
from svt import metrics
from svt import model as M
from svt import sampler
from svt import tensor as tc
from svt.attention import AttentionLayerSpec
from svt.connectivity import dependency_graph
from svt.sampler import (SampleConfig, apply_temperature, categorical_from_uniform,
                         sample_categorical, sample_slice, sample_video, slice_uniforms,
                         _position_stream)
from svt.subscale import (BlockShape, SubscaleFactor, extract_slice, primed_plane_mask,
                          slice_key, slice_order, slice_rank)
from svt.tensor import ConfigError, NumericError, Tensor
from test_connectivity import _divisors
from test_model import _params_float64


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

    def test_argmax_of_logits_where_scaling_overflows(self):
        """Dividing by tau = 1e-308 would take [2, 3, 1] to [inf, inf,
        1e308], whose first maximum is index 0."""
        assert categorical_from_uniform([2.0, 3.0, 1.0], 1e-308, 0.5) == 1

    @pytest.mark.parametrize("tau", [0.9, 1e-6])
    @pytest.mark.parametrize("logits", [[0.0, np.nan, 1.0], [0.0, np.inf, 1.0], [-np.inf] * 3],
                             ids=["nan", "inf", "all-minus-inf"])
    def test_nonfinite_peak_raises(self, logits, tau):
        with pytest.raises(NumericError, match="non-finite logits"):
            categorical_from_uniform(logits, tau, 0.5)

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


class TestSliceDecoder:
    @pytest.mark.parametrize("bs", [BlockShape(2, 2, 2), BlockShape(1, 4, 2),
                                    BlockShape(2, 4, 4)])
    def test_columns_match_decode_over_stale_cache(self, bs):
        """Prefill on unrelated values, then take every column in raster
        order, committing each position's real values after its column:
        each stale slot is rewritten before it is read, so the columns equal
        ``decode_slices`` on the real values."""
        cfg = M.build_variant("spatiotemporal", (4, 8, 8), s=(2, 2, 2), d_e=4, d=6,
                              n_heads=2, d_head=3, layers=1, enc_blocks=[(2, 4, 4)],
                              dec_blocks=[tuple(bs)])
        ps = _params_float64(cfg, 7)
        rng = np.random.default_rng(7)
        real, stale = rng.integers(0, M.N_VALUES, (2, *cfg.slice_shape, cfg.n_channels))
        z = Tensor(rng.standard_normal((1, *cfg.slice_shape, cfg.d)))
        x = tc.one_hot(real, M.N_VALUES).reshape(1, *cfg.slice_shape, cfg.input_channels)
        full = M.decode_slices(ps, cfg, Tensor(x), z, 1).data.reshape(-1, cfg.d)
        decoder = sampler.SliceDecoder(ps, cfg, 1, stale, z)
        cols = []
        for p, values in enumerate(real.reshape(-1, cfg.n_channels)):
            cols.append(decoder.column(p))
            decoder.commit(p, values)
        np.testing.assert_allclose(np.stack(cols), full, rtol=1e-12, atol=1e-12)


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
        cfg, ps = make_model(first_slice_layers=2)
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
    "first-slice-decoder": lambda: tiny_config(first_slice_layers=2),
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


REPLAY_TOL = 1e-5  # a redraw may differ only this close to a CDF step or .5 boundary


def replay_slice(params, cfg, video, split, idx, scfg, video_index):
    """Redraw every unprimed value of slice ``idx`` of a sampled video from
    teacher-forced ``forward_slices`` outputs and the slice's uniforms.

    Returns (draws, mismatches admitted within ``REPLAY_TOL``); a mismatch
    beyond it fails."""
    Ts, Hs, Ws = cfg.slice_shape
    P, rank = Ts * Hs * Ws, slice_rank(cfg.s, idx)
    _, _, out = M.forward_slices(params, cfg, [video], [idx], scfg.prime_frames)
    unprimed = np.repeat(~primed_plane_mask(cfg.s, idx, Ts, scfg.prime_frames), Hs * Ws)
    draws = admitted = 0
    if cfg.head == "deterministic":
        sampled = extract_slice(video, cfg.s, idx).reshape(P)
        for pixel in np.flatnonzero(unprimed):
            x = float(out.data[0, pixel, 0]) * 255.0
            draws += 1
            got, want = round(x), int(sampled[pixel])
            if got != want:
                assert abs(got - want) == 1 and abs(x - (got + want) / 2) <= REPLAY_TOL, \
                    (idx, pixel, got, want)
                admitted += 1
        return draws, admitted
    logits = out.data.reshape(P, cfg.n_channels, M.N_VALUES)
    sampled = extract_slice(split, cfg.s, idx).reshape(P, cfg.n_channels)
    u = slice_uniforms(scfg.seed, video_index, rank, P, cfg.n_channels)
    for pixel in np.flatnonzero(unprimed):
        for c in range(cfg.n_channels):
            got = categorical_from_uniform(logits[pixel, c], scfg.temperature, u[pixel, c])
            want = int(sampled[pixel, c])
            draws += 1
            if got != want:
                z = apply_temperature(logits[pixel, c], scfg.temperature)
                cdf = np.cumsum(np.exp(z - z.max()) / np.exp(z - z.max()).sum())
                lo, hi = min(got, want), max(got, want)
                assert (abs(u[pixel, c] - cdf[lo]) <= REPLAY_TOL
                        and cdf[hi - 1] - cdf[lo] <= REPLAY_TOL), (idx, pixel, c, got, want)
                admitted += 1
    return draws, admitted


class TestTeacherForcedReplay:
    """Sampling and teacher forcing share one channel-head loop, so the
    teacher-forced outputs on a sampled video redraw every sampled value."""

    @pytest.mark.parametrize("prime", [0, 1])
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONFIGS))
    def test_replay_redraws_every_value(self, name, prime):
        cfg = DIFFERENTIAL_CONFIGS[name]()
        ps = randomized_params(cfg, 37)
        T, H, W = cfg.video_shape
        canvas = np.random.default_rng(6).integers(
            0, 256, (T, H, W, cfg.bytes_per_pixel)).astype(np.uint8)
        scfg = SampleConfig(prime_frames=prime, temperature=0.9, seed=4)
        video, split = sample_video(ps, cfg, canvas, scfg, video_index=2)
        with tc.no_grad():
            counts = [replay_slice(ps, cfg, video, split, idx, scfg, 2)
                      for idx in slice_order(cfg.s)]
        draws, admitted = np.sum(counts, axis=0)
        per_pixel = cfg.n_channels if cfg.head == "categorical" else 1
        assert draws == (T - prime) * H * W * per_pixel
        assert admitted <= 0.01 * draws


@st.composite
def model_configs(draw):
    """Small valid ModelConfigs: variant, s, encoder kernel, divisor block
    schedules (1-2 encoder and decoder layers, 0-2 first-slice decoder
    layers, 0 meaning none), mconv 3 or 5 per axis, head and channels, at
    tiny widths."""
    variant = draw(st.sampled_from(M.VARIANTS))
    shape = tuple(draw(st.sampled_from((2, 4))) for _ in range(3))
    if variant == "single_frame":
        s, kernel = (shape[0], 1, 1), (6, 1, 1)
    else:
        s = tuple(draw(st.sampled_from(_divisors(n))) for n in shape)
        s = (1, *s[1:]) if variant == "spatial" else s
        kernel = tuple(draw(st.integers(1, 3)) for _ in range(3))
    slice_shape = tuple(n // f for n, f in zip(shape, s))

    def schedule(least):
        return [AttentionLayerSpec(BlockShape(*(draw(st.sampled_from(_divisors(n)))
                                                for n in slice_shape)),
                                   draw(st.integers(1, 2)), 4)
                for _ in range(draw(st.integers(least, 2)))]

    channels, head = draw(st.sampled_from([("rgb", "categorical"), ("gray", "categorical"),
                                           ("gray", "deterministic")]))
    return M.ModelConfig(
        variant, shape, channels=channels, head=head, s=SubscaleFactor(*s), kernel=kernel,
        d_e=4, d=8, enc_schedule=schedule(1), dec_schedule=schedule(1),
        mconv=tuple(draw(st.sampled_from((3, 5))) for _ in range(3)),
        first_slice_schedule=schedule(0), seed=draw(st.integers(0, 99))).validate()


def tiny_model(variant, video_shape, s, enc, dec, first=(), channels="rgb",
               head="categorical"):
    """A ``model_configs`` config with the given blocks, kernel s, mconv 3, seed 1."""
    def schedule(blocks):
        return [AttentionLayerSpec(BlockShape(*b), 1, 4) for b in blocks]

    return M.ModelConfig(variant, video_shape, channels=channels, head=head,
                         s=SubscaleFactor(*s), kernel=s, d_e=4, d=8,
                         enc_schedule=schedule(enc), dec_schedule=schedule(dec),
                         mconv=(3, 3, 3), first_slice_schedule=schedule(first),
                         seed=1).validate()


def decoder_reach(params, cfg, video, idx):
    """(P', P') bool: [p, q] True iff the decoder output at slice position p
    has a nonzero gradient in the one-hot of slice position q, traced
    through ``forward_slices``'s ``onehots=`` leaf."""
    leaf = Tensor(M.video_onehot(video), requires_grad=True)
    decoded = []
    decode = M.decode_slices

    def recorded(*args, **kwargs):
        decoded.append(decode(*args, **kwargs))
        return decoded[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(M, "decode_slices", recorded)
        M.forward_slices(params, cfg, [video], [idx], 0, onehots=[leaf])
    y = decoded[0]
    P = int(np.prod(cfg.slice_shape))
    rng = np.random.default_rng(0)
    reach = np.zeros((P, P), dtype=bool)
    for p in range(P):
        clear_graph_grads(y)
        seed = np.zeros((P, cfg.d), dtype=y.data.dtype)
        seed[p] = rng.standard_normal(cfg.d)
        reference_backward(y, seed.reshape(y.data.shape))
        if leaf.grad is not None:
            grad = leaf.grad[slice_key(cfg.s, idx)].reshape(P, -1)
            reach[p] = np.abs(grad).sum(axis=-1) > 0.0
    return reach


class TestRandomConfigs:
    """The four guarantees on generated configs, each against its reference:
    the analyzer against gradients, the cached sampler against full
    recompute, chunked evaluation against one slice per call, and backward
    against finite differences.  The example sequence is fixed, so the
    suite's time and outcome do not vary between runs."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=model_configs(), prime=st.integers(0, 1), seed=st.integers(0, 2**16))
    # one-position slices
    @example(cfg=tiny_model("spatiotemporal", (2, 2, 4), (2, 2, 4), [(1, 1, 1)], [(1, 1, 1)]),
             prime=1, seed=3)
    # a first-slice decoder and the deterministic head on two-position slices
    @example(cfg=tiny_model("spatial", (2, 4, 4), (1, 4, 2), [(2, 1, 2)], [(1, 1, 2)],
                            first=[(2, 1, 1), (1, 1, 2)], channels="gray",
                            head="deterministic"), prime=0, seed=5)
    def test_matches_references(self, cfg, prime, seed):
        rng = np.random.default_rng(seed)
        T, H, W = cfg.video_shape
        videos = [rng.integers(0, 256, (T, H, W, cfg.bytes_per_pixel)).astype(np.uint8)
                  for _ in range(2)]
        ps = randomized_params(cfg, seed)
        order = slice_order(cfg.s)
        # (i) the analyzer's reach is the gradient reach of each slice's decoder
        for idx in order:
            schedule = M.decoder_for(cfg, slice_rank(cfg.s, idx))[1]
            want = reach_matrix(dependency_graph(cfg.slice_shape, schedule, cfg.mconv))
            assert np.array_equal(decoder_reach(ps, cfg, videos[0], idx), want), idx
        # (ii) the cached sampler draws the full-recompute reference's video
        scfg = SampleConfig(prime_frames=prime, temperature=0.9, seed=seed)
        cached = sample_video(ps, cfg, videos[0], scfg, video_index=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "sample_slice", reference_sample_slice)
            full = sample_video(ps, cfg, videos[0], scfg, video_index=1)
        assert np.array_equal(cached[0], full[0]) and np.array_equal(cached[1], full[1])
        # (iii) chunked evaluation reports the one-slice-per-call totals, bit
        # for bit where every product is matrix by matrix.  BLAS computes the
        # rows of a matrix-vector product (a one-position slice's, or the
        # deterministic head's (d, 1) projection) differently for different
        # row counts, so there the totals agree to float32 rounding only.
        ref = reference_evaluate(ps, cfg, videos, prime)
        P = int(np.prod(cfg.slice_shape))
        exact = P > 1 and cfg.head == "categorical"
        for budget in (2 * P, 3 * P):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metrics, "EVAL_POSITIONS", budget)
                got = metrics.evaluate(ps, cfg, videos, prime)
            for name in ("total_nats", "n_pixels", "dims", "bits_per_dim", "frames",
                         "nats_per_frame", "baseline_nats_per_frame"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a == b or not exact and math.isclose(a, b, rel_tol=1e-6), (budget, name)
        # (iv) the gradient of a mixed batch's loss on a random parameter subset
        ps64 = _params_float64(cfg, seed)
        probe = list(rng.choice(ps64.names(), 3, replace=False))
        batch = [order[-1], order[0], order[len(order) // 2]]

        def loss(*tensors):
            store = M.ParamStore({**dict(ps64.items()), **dict(zip(probe, tensors))})
            return M.forward_slices(store, cfg, [videos[0], videos[1], videos[0]], batch,
                                    prime)[0]

        assert grad_check(loss, [ps64[n] for n in probe], eps=1e-6, max_entries=6,
                          seed=seed) < 1e-4
