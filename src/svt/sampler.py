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
every layer's keys and values), then one decoder column per sampled pixel
(``SliceDecoder``).  This is exact: a pixel's column depends only on earlier
pixels, through the center-excluded masked conv and causal attention within
a block.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as tc
from .attention import block_slots
from .config import DEFAULTS
from .subscale import (check_prime_frames, extract_slice, merge_slice, primed_plane_mask,
                       slice_order, slice_rank)
from .tensor import ConfigError, NumericError, Tensor

# below this temperature the categorical collapses to argmax even in float64,
# so we take the argmax directly and the position's uniform goes unused
ARGMAX_TEMPERATURE = 1e-4


@dataclass
class SampleConfig:
    prime_frames: int = DEFAULTS["prime_frames"]
    temperature: float = DEFAULTS["temperature"]
    seed: int = DEFAULTS["sample_seed"]

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
    the CDF at the uniform ``u`` (float64 path).  At or below
    ``ARGMAX_TEMPERATURE`` it returns the argmax of the logits themselves,
    which scaling by 1/tau keeps but could overflow.  NumericError if the
    logits hold a NaN or +inf, or are all -inf: their peak is not finite."""
    argmax = 0 < tau <= ARGMAX_TEMPERATURE
    z = np.asarray(logits, dtype=np.float64) if argmax else apply_temperature(logits, tau)
    top = z.max()
    if not math.isfinite(top):
        raise NumericError(f"non-finite logits (peak {top})")
    if argmax:
        return int(np.argmax(z))
    p = np.exp(z - top)
    p /= p.sum()
    return int(min(np.searchsorted(np.cumsum(p), u, side="right"), len(p) - 1))


def sample_categorical(logits, tau, stream):
    """``categorical_from_uniform`` at the next uniform of ``stream``."""
    return categorical_from_uniform(logits, tau, stream.random())


class SliceDecoder:
    """Exact decoder columns of one slice, one position at a time.

    Construction is the prefill: one ``decode_slices`` pass over the slice
    ``values`` (T',H',W',n_channels), recording every causal layer's keys,
    values and masked bias per block.  ``commit(p, ...)`` gives position p
    its final values.  ``column(p)`` computes p's decoder output alone: the
    masked conv window of earlier embeddings, the positional and encoder
    terms, then each layer, which writes p's key and value into its block
    slot and attends over the slots up to p's own.  Slots are in raster
    order, so those are what the causal mask admits, and a stale slot after
    p is rewritten when its own position comes: the column is exact once
    every position before p holds its final values.
    """

    def __init__(self, params, cfg, rank, values, z):
        prefix, schedule = M.decoder_for(cfg, rank)
        records = []
        oh = tc.one_hot(values, M.N_VALUES).reshape(1, *cfg.slice_shape, cfg.input_channels)
        M.decode_slices(params, cfg, Tensor(oh), z, rank, record=records)
        P = int(np.prod(cfg.slice_shape))
        self.embed = params[f"{prefix}/chan_embed"].data
        # channel embeddings of every position, plus the zero padding row
        emb = oh.reshape(P, cfg.input_channels) @ self.embed
        self.emb = np.concatenate([emb, np.zeros((1, cfg.d_e), dtype=emb.dtype)])
        self.windows = tc.masked_conv_windows(cfg.mconv, cfg.slice_shape)
        self.kernel = params[f"{prefix}/mconv_kernel"].data
        base = (params[f"{prefix}/mconv_bias"].data
                + params[f"{prefix}/pos_t"].data[:, None, None]
                + params[f"{prefix}/pos_h"].data[None, :, None]
                + params[f"{prefix}/pos_w"].data[None, None, :])
        self.base = base.reshape(P, cfg.d)
        if z is not None:
            self.base = self.base + z.data.reshape(P, cfg.d) @ params[f"{prefix}/z_proj"].data
        # per layer: weights, cached keys, values and bias, each position's
        # block and slot, the (q, k, v) split and the query scale
        self.layers = [({k: t.data for k, t in params.layer(prefix, i).items()}, *record,
                        *block_slots(cfg.slice_shape, spec.block),
                        (3, spec.n_heads, spec.d_head), float(1.0 / np.sqrt(spec.d_head)))
                       for i, (spec, record) in enumerate(zip(schedule, records, strict=True))]

    def commit(self, p, channel_values):
        """Record the final (n_channels,) values of position p."""
        oh = tc.one_hot(channel_values, M.N_VALUES).reshape(-1)
        self.emb[p] = oh @ self.embed

    def column(self, p):
        """Decoder output (d,) at position p; every position before p must
        hold its final values."""
        x = self.emb[self.windows[p]].reshape(-1) @ self.kernel + self.base[p]
        for w, keys, values, bias, block, slot, qkv_shape, scale in self.layers:
            g, i = block[p], slot[p]
            normed = tc.layernorm_array(x, w["ln1_gain"], w["ln1_bias"])
            q, keys[g, :, i], values[g, :, i] = (normed @ w["w_qkv"]).reshape(qkv_shape)
            scores = (keys[g, :, :i + 1] @ (q * scale)[:, :, None])[..., 0]
            scores += bias[:, i, :i + 1]
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            att = e / e.sum(axis=-1, keepdims=True)
            heads = (att[:, None, :] @ values[g, :, :i + 1])[:, 0]
            ztil = heads.reshape(-1) @ w["w_p"] + x
            ff = tc.layernorm_array(ztil, w["ln2_gain"], w["ln2_bias"])
            x = np.maximum(ff @ w["t1"], 0) @ w["t2"] + ztil
        return x


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
        z = M.encode_slices(params, cfg, [Tensor(M.video_onehot(canvas))], [idx])
        decoder = SliceDecoder(params, cfg, rank, chans, z)
        if cfg.head == "categorical":
            u = slice_uniforms(scfg.seed, video_index, rank, len(values), cfg.n_channels)
        for pixel in range(first, len(values)):
            y = decoder.column(pixel)
            try:
                if cfg.head == "categorical":
                    vals, onehot = values[pixel], np.zeros((1, cfg.input_channels), np.float32)
                    heads = M.channel_logits(params, Tensor(y[None]), Tensor(onehot))
                    for c, logits in enumerate(heads):  # draw c enters onehot before channel c+1
                        vals[c] = categorical_from_uniform(logits.data[0], scfg.temperature,
                                                           u[pixel, c])
                        onehot[0, c * M.N_VALUES + vals[c]] = 1.0
                else:
                    x = float(M.head_intensity(params, cfg, Tensor(y[None, None])).data[0, 0, 0])
                    if not math.isfinite(x):
                        raise NumericError(f"non-finite intensity {x}")
                    values[pixel] = M.split_channels(np.array([round(x * 255.0)], dtype=np.uint8))
            except NumericError as e:
                raise NumericError(f"sampling slice {idx}, pixel {pixel}: {e}") from None
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
