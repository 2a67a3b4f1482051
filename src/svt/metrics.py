"""Intrinsic evaluation: bits per dimension and nats per frame.

bits/dim is the negative log2-probability per RGB channel value, averaged
over evaluated pixels: the six split-channel log-probabilities of a pixel
sum into the numerator while the denominator counts 3 byte dimensions per
pixel (1 for grayscale).  Primed frames are excluded from both numerator and
denominator.  The deterministic head reports total binary cross-entropy per
predicted frame, plus a copy-last-frame baseline computed by the evaluator
itself.  Both also report nats and dimensions per slice rank.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import model as M
from . import tensor as tc
from .subscale import check_frame_left, slice_order, slice_rank
from .tensor import ConfigError, NumericError, Tensor

# Slice positions per forward_slices call in evaluate: one canonical 4x32x32
# slice.  A canonical no-grad forward peaks near 435 MB RSS for one slice and
# grows about 200 MB per extra slice while its time stays linear, so larger
# chunks buy nothing there; a 2x8x8 desk slice fits 32 to a call.
EVAL_POSITIONS = 4096


@dataclass
class EvalResult:
    total_nats: float
    n_pixels: float            # pixels contributing to the loss
    dims: float                # byte dimensions contributing
    bits_per_dim: float = None
    frames: float = None       # deterministic head only
    nats_per_frame: float = None
    baseline_nats_per_frame: float = None
    rank_nats: list = None     # float64 nats per slice rank, summed over videos
    rank_dims: list = None     # byte dimensions per slice rank

    def rank_bits_per_dim(self):
        """bits/dim of each slice rank; None for a rank with nothing evaluated."""
        return [n / (math.log(2.0) * d) if d else None
                for n, d in zip(self.rank_nats, self.rank_dims, strict=True)]

    def as_json(self):
        """Every field, plus ``rank_bits_per_dim``, as one JSON object."""
        return json.dumps(dict(asdict(self),
                               rank_bits_per_dim=self.rank_bits_per_dim()))

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

    The predictor is the previous frame's intensities, scored in float64 by
    ``tc.binary_cross_entropy`` (which clamps it away from 0/1); only frames
    >= prime_frames are scored.  Returns nats per frame.
    """
    total = 0.0
    frames = 0
    for v in videos:
        z = v.astype(np.float64) / 255.0
        for t in range(max(prime_frames, 1), v.shape[0]):
            total += tc.binary_cross_entropy(Tensor(z[t - 1]), z[t], 1.0).item()
            frames += 1
    if frames == 0:
        raise ConfigError("no frames to evaluate")
    return float(total / frames)


def evaluate(params, cfg, videos, prime_frames):
    """Teacher-forced evaluation over every (video, slice) pair.

    Under teacher forcing the slices of a video are independent, so the pairs
    (video by video, ``slice_order`` within each) run in chunks of
    ``max(1, EVAL_POSITIONS // P')`` slices, one ``model.forward_slices`` call
    per chunk.  Each pair's loss is scored from its own rows of that call's
    output and added in float64 in that fixed order, so the totals equal a
    one-slice-per-call loop's and do not depend on the chunking or on how the
    videos are split between calls.  A pair whose loss is not finite raises
    ``NumericError`` naming the video and the slice.
    """
    T = cfg.video_shape[0]
    check_frame_left(prime_frames, T, "evaluate")
    for video in videos:
        cfg.check_video(video)
    order = slice_order(cfg.s)
    pairs = [(v, idx) for v in range(len(videos)) for idx in order]
    per_call = max(1, EVAL_POSITIONS // int(np.prod(cfg.slice_shape)))
    rank_nats = np.zeros(len(order))
    rank_pixels = np.zeros(len(order))
    total = 0.0
    pixels = 0.0
    for lo in range(0, len(pairs), per_call):
        chunk, idxs = zip(*pairs[lo:lo + per_call])
        chunk_videos = [videos[v] for v in chunk]
        with tc.no_grad():
            _, _, out = M.forward_slices(params, cfg, chunk_videos, idxs,
                                         prime_frames=prime_frames)
            targets, mask = M.slice_targets(cfg, chunk_videos, idxs, prime_frames)
            for b, idx in enumerate(idxs):
                rows = slice(b, b + 1)
                loss, n_pix = M.slice_loss(cfg, tc.index(out, rows), targets[rows], mask[rows])
                nats = loss.item()
                if not math.isfinite(nats):
                    raise NumericError(f"non-finite loss {nats!r} on video {chunk[b]}, "
                                       f"slice {idx}")
                rank = slice_rank(cfg.s, idx)
                rank_nats[rank] += nats
                rank_pixels[rank] += n_pix
                total += nats
                pixels += n_pix
    if cfg.head == "categorical":
        dims = cfg.bytes_per_pixel * pixels
        return EvalResult(total, pixels, dims,
                          bits_per_dim=bits_per_dim(total, pixels, cfg.bytes_per_pixel),
                          rank_nats=rank_nats.tolist(),
                          rank_dims=(cfg.bytes_per_pixel * rank_pixels).tolist())
    frames = len(videos) * (T - prime_frames)
    return EvalResult(total, pixels, pixels,
                      frames=frames,
                      nats_per_frame=nats_per_frame(total, frames),
                      baseline_nats_per_frame=copy_last_frame_baseline(videos, prime_frames),
                      rank_nats=rank_nats.tolist(), rank_dims=rank_pixels.tolist())
