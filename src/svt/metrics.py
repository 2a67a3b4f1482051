"""Intrinsic evaluation: bits per dimension and nats per frame.

bits/dim is the negative log2-probability per RGB channel value, averaged
over evaluated pixels: the six split-channel log-probabilities of a pixel
sum into the numerator while the denominator counts 3 byte dimensions per
pixel (1 for grayscale).  Primed frames are excluded from both numerator and
denominator.  The deterministic head reports total binary cross-entropy per
predicted frame, plus a copy-last-frame baseline computed by the evaluator
itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as tc
from .subscale import slice_order
from .tensor import ConfigError


@dataclass
class EvalResult:
    total_nats: float
    n_pixels: float            # pixels contributing to the loss
    dims: float                # byte dimensions contributing
    bits_per_dim: float = None
    frames: float = None       # deterministic head only
    nats_per_frame: float = None
    baseline_nats_per_frame: float = None

    def lines(self):
        out = [f"nats={self.total_nats!r}", f"pixels={int(self.n_pixels)}",
               f"dims={int(self.dims)}"]
        if self.bits_per_dim is not None:
            out.append(f"bits_per_dim={self.bits_per_dim!r}")
        if self.nats_per_frame is not None:
            out.append(f"frames={int(self.frames)}")
            out.append(f"nats_per_frame={self.nats_per_frame!r}")
        if self.baseline_nats_per_frame is not None:
            out.append(f"baseline_nats_per_frame={self.baseline_nats_per_frame!r}")
        return out


def bits_per_dim(total_nats, n_pixels_evaluated, dims_per_pixel=3):
    """nats / (ln2 * dims); primed pixels must already be excluded."""
    if n_pixels_evaluated <= 0:
        raise ConfigError("bits/dim needs at least one evaluated pixel")
    return total_nats / (math.log(2.0) * dims_per_pixel * n_pixels_evaluated)


def nats_per_frame(total_nats, predicted_frames):
    if predicted_frames <= 0:
        raise ConfigError("nats/frame needs at least one predicted frame")
    return total_nats / predicted_frames


def copy_last_frame_baseline(videos, prime_frames):
    """Binary cross-entropy of predicting each frame as its predecessor.

    The predictor is the previous frame's intensities clamped away from 0/1;
    only frames >= prime_frames are scored.  Returns nats per frame.
    """
    total = 0.0
    frames = 0
    for v in videos:
        z = v.astype(np.float64) / 255.0
        for t in range(max(prime_frames, 1), v.shape[0]):
            y = np.clip(z[t - 1], 1e-7, 1.0 - 1e-7)
            total += -(z[t] * np.log(y) + (1.0 - z[t]) * np.log(1.0 - y)).sum()
            frames += 1
    if frames == 0:
        raise ConfigError("no frames to evaluate")
    return float(total / frames)


def evaluate(params, cfg, videos, prime_frames):
    """Teacher-forced evaluation over every (video, slice) pair.

    Slices are visited in a fixed canonical order and accumulated in float64,
    so the result is independent of any batch partitioning.
    """
    T = cfg.video_shape[0]
    if not 0 <= prime_frames < T:
        raise ConfigError(f"prime_frames must be in 0..{T - 1} to leave a frame to "
                          f"evaluate, got {prime_frames}")
    total = 0.0
    pixels = 0.0
    for video in videos:
        cfg.check_video(video)
        for idx in slice_order(cfg.s):
            with tc.no_grad():
                loss, n_pix, _ = M.forward_slices(params, cfg, [video], [idx],
                                                  prime_frames=prime_frames)
            total += loss.item()
            pixels += n_pix
    if cfg.head == "categorical":
        dims = cfg.bytes_per_pixel * pixels
        return EvalResult(total, pixels, dims,
                          bits_per_dim=bits_per_dim(total, pixels, cfg.bytes_per_pixel))
    frames = len(videos) * (T - prime_frames)
    return EvalResult(total, pixels, pixels,
                      frames=frames,
                      nats_per_frame=nats_per_frame(total, frames),
                      baseline_nats_per_frame=copy_last_frame_baseline(videos, prime_frames))
