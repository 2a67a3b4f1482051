"""Autoregressive generation: slice by slice, pixel by pixel, channel by
channel, with temperature and frame priming.

Randomness comes from one counter-based stream per (slice, pixel, channel),
derived from the seed with a Philox counter, so priming or re-running never
shifts the randomness consumed by later positions: extending the prime with
frames the model would have sampled anyway leaves every remaining pixel
bit-identical.

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
# so we take the argmax directly (no rng draw is consumed either way)
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


def _position_stream(seed, video_index, slice_rank_, pixel, channel):
    """Independent generator for one sampled value."""
    bits = np.random.Philox(key=[seed & (2**64 - 1), video_index],
                            counter=[0, channel, pixel, slice_rank_])
    return np.random.Generator(bits)


def sample_categorical(logits, tau, stream):
    """Temperature-sample one value from unnormalized logits (float64 path)."""
    z = apply_temperature(logits, tau)
    if tau <= ARGMAX_TEMPERATURE:
        return int(np.argmax(z))
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    u = stream.random()
    return int(min(np.searchsorted(np.cumsum(p), u, side="right"), len(p) - 1))


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
        _, _, encoded = M.decoder_for(cfg, rank)
        z = (M.encode_slices(params, cfg, [Tensor(M.video_onehot(cfg, canvas))], [idx])
             if encoded else None)
        decoder = M.SliceDecoder(params, cfg, rank, chans, z)
        for pixel in range(first, len(values)):
            y = decoder.prefill[pixel] if pixel == first else decoder.column(pixel)
            if cfg.head == "categorical":
                ln = M.head_norm(params, Tensor(y[None]))
                vals = values[pixel]
                onehot = np.zeros((1, cfg.input_channels), dtype=np.float32)
                for c in range(cfg.n_channels):
                    prev = Tensor(onehot[:, :c * M.N_VALUES]) if c else None
                    logits = M.head_channel_logits(params, ln, prev, c).data[0]
                    stream = _position_stream(scfg.seed, video_index, rank, pixel, c)
                    vals[c] = sample_categorical(logits, scfg.temperature, stream)
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
