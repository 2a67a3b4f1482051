"""Autoregressive generation: slice by slice, pixel by pixel, channel by
channel, with temperature and frame priming.

Randomness comes from one counter-based stream per (slice, pixel, channel),
derived from the seed with a Philox counter, so priming or re-running never
shifts the randomness consumed by later positions: extending the prime with
frames the model would have sampled anyway leaves every remaining pixel
bit-identical.  A slice takes all its draws from one vectorised
Philox4x64-10 evaluation (``slice_uniforms``), bit-identical to the first
``random()`` of each position's numpy stream (``_position_stream``), so
prefix consistency holds as before and replays through those streams
reproduce every sampled value.

Positions inside primed frames are copied from the prime and never sampled.
Each slice runs the decoder once over its canvas (a prefill that caches
every layer's keys and values), then one decoder column per later pixel.
This is exact: a pixel's column depends only on earlier pixels, through the
center-excluded masked conv and causal attention within a block.
"""

from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as tc
from .subscale import (check_prime_frames, extract_slice, merge_slice, primed_plane_mask,
                       slice_order, slice_rank)
from .tensor import ConfigError, Tensor

# below this temperature the categorical collapses to argmax even in float64,
# so we take the argmax directly and the position's uniform goes unused
ARGMAX_TEMPERATURE = 1e-4


@dataclass
class SampleConfig:
    prime_frames: int = 1
    temperature: float = 0.9
    seed: int = 0

    def validate(self, video_t):
        if not (0 < self.temperature <= 2.0):
            raise ConfigError(f"temperature must be in (0, 2], got {self.temperature}")
        check_prime_frames(self.prime_frames, video_t)
        return self


def apply_temperature(logits, tau):
    """Scale logits by 1/tau before the softmax; tau < 1 sharpens."""
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    return np.asarray(logits, dtype=np.float64) / tau


# Philox4x64-10 multipliers and key increments (Salmon et al., SC'11), as in
# numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)


def _philox_key(seed, video_index):
    """The two Philox key words of one video's streams, built as uint64:
    numpy reads a plain list that mixes a word below 2^63 with one above
    through float64, which sent every small negative seed to key 0."""
    return np.array([seed & (2**64 - 1), video_index], dtype=np.uint64)


def _position_stream(seed, video_index, slice_rank_, pixel, channel):
    """Independent generator for one sampled value."""
    bits = np.random.Philox(key=_philox_key(seed, video_index),
                            counter=[0, channel, pixel, slice_rank_])
    return np.random.Generator(bits)


def _mulhilo(m, x):
    """High and low words of the 128-bit products of the constant ``m`` and
    the uint64 array ``x``, the high word built from 32-bit halves."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> np.uint64(32), x & _LOW32
    lo_lo, lo_hi, hi_lo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    mid = (lo_lo >> np.uint64(32)) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    hi = (x_hi * m_hi + (lo_hi >> np.uint64(32)) + (hi_lo >> np.uint64(32))
          + (mid >> np.uint64(32)))
    return hi, x * np.uint64(m)


def slice_uniforms(seed, video_index, rank, n_pixels, n_channels):
    """The first ``random()`` of ``_position_stream(seed, video_index, rank,
    pixel, channel)`` for every pixel and channel of a slice, as an
    (n_pixels, n_channels) float64 array, from one vectorised Philox4x64-10
    evaluation instead of one generator per position."""
    pixel, channel = np.indices((n_pixels, n_channels), dtype=np.uint64)
    # numpy increments the counter's word 0 (here 0) before its first block
    x = (np.ones_like(pixel), channel, pixel, np.full_like(pixel, rank))
    key = _philox_key(seed, video_index)
    for r in range(10):
        k0, k1 = key + np.uint64(r) * _PHILOX_W  # wraps modulo 2^64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x[2])
        x = (hi1 ^ x[1] ^ k0, lo1, hi0 ^ x[3] ^ k1, lo0)
    return (x[0] >> np.uint64(11)).astype(np.float64) * 2.0**-53


def categorical_from_uniform(logits, tau, u):
    """Temperature-sample one value from unnormalized logits by inverting
    the CDF at the uniform ``u`` (float64 path)."""
    z = apply_temperature(logits, tau)
    if tau <= ARGMAX_TEMPERATURE:
        return int(np.argmax(z))
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    return int(min(np.searchsorted(np.cumsum(p), u, side="right"), len(p) - 1))


def sample_categorical(logits, tau, stream):
    """``categorical_from_uniform`` at the next uniform of ``stream``."""
    return categorical_from_uniform(logits, tau, stream.random())


def sample_slice(params, cfg, canvas, idx, scfg, video_index=0):
    """Sample the pixels of slice ``idx`` given a canvas holding all
    preceding slices (and primed frames).  Returns (T',H',W',n_channels)
    split-channel values; primed planes are copied, never sampled."""
    Ts, Hs, Ws = cfg.slice_shape
    rank = slice_rank(cfg.s, idx)
    primed = primed_plane_mask(cfg.s, idx, Ts, scfg.prime_frames)
    chans = M.split_channels(extract_slice(canvas, cfg.s, idx)).astype(np.int64)
    chans[~primed] = 0  # not yet generated
    if primed.all():
        return chans
    values = chans.reshape(Ts * Hs * Ws, cfg.n_channels)  # a view, in raster order
    first = int(np.argmin(primed)) * Hs * Ws  # primed planes lead the slice
    with tc.no_grad():
        z = M.encode_slices(params, cfg, [Tensor(M.video_onehot(cfg, canvas))], [idx])
        decoder = M.SliceDecoder(params, cfg, rank, chans, z)
        if cfg.head == "categorical":
            u = slice_uniforms(scfg.seed, video_index, rank, len(values), cfg.n_channels)
        for pixel in range(first, len(values)):
            y = decoder.prefill[pixel] if pixel == first else decoder.column(pixel)
            if cfg.head == "categorical":
                ln = M.head_norm(params, Tensor(y[None]))
                vals = values[pixel]
                onehot = np.zeros((1, cfg.input_channels), dtype=np.float32)
                for c in range(cfg.n_channels):
                    prev = Tensor(onehot[:, :c * M.N_VALUES]) if c else None
                    logits = M.head_channel_logits(params, ln, prev, c).data[0]
                    vals[c] = categorical_from_uniform(logits, scfg.temperature, u[pixel, c])
                    onehot[0, c * M.N_VALUES + vals[c]] = 1.0
            else:
                x = float(M.head_intensity(params, cfg, Tensor(y[None, None])).data[0, 0, 0])
                values[pixel] = M.split_channels(np.array([round(x * 255.0)], dtype=np.uint8))
            decoder.commit(pixel, values[pixel])
    return chans


def sample_video(params, cfg, prime_video, scfg, video_index=0):
    """Generate a full video.  Returns (joined uint8 video, split channels).

    ``prime_video`` supplies at least the primed frames; slices are visited
    in generation order and merged into the canvas as they complete."""
    scfg.validate(cfg.video_shape[0])
    cfg.check_video(prime_video)
    canvas = np.zeros_like(prime_video)
    canvas[:scfg.prime_frames] = prime_video[:scfg.prime_frames]
    for idx in slice_order(cfg.s):
        chans = sample_slice(params, cfg, canvas, idx, scfg, video_index)
        canvas = merge_slice(canvas, cfg.s, idx, M.join_channels(chans))
    return canvas, M.split_channels(canvas)
