"""Spatiotemporal subscaling geometry.

A subscale factor (s_t, s_h, s_w) partitions a (T, H, W) video into
s_t*s_h*s_w interleaved slices: slice (a, b, c) holds every s_t-th frame,
s_h-th row and s_w-th column starting at offset (a, b, c).  Slices are
generated in raster order of their offsets; these helpers provide the order,
extraction/merging, the partial-visibility mask used by the slice encoder,
and the signed context padding that centers the encoder convolution on the
current slice's pixels.

All functions here are pure and operate on plain numpy arrays.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import ConfigError


@dataclass(frozen=True)
class SubscaleFactor:
    t: int
    h: int
    w: int

    def __post_init__(self):
        if min(self.t, self.h, self.w) < 1:
            raise ConfigError(f"subscale factor must be positive, got {self}")

    @property
    def count(self):
        return self.t * self.h * self.w

    def as_tuple(self):
        return (self.t, self.h, self.w)

    def check_divides(self, shape):
        T, H, W = shape[:3]
        if T % self.t or H % self.h or W % self.w:
            raise ConfigError(
                f"subscale factor {self.as_tuple()} does not divide video shape {(T, H, W)}")

    def slice_shape(self, shape):
        self.check_divides(shape)
        return (shape[0] // self.t, shape[1] // self.h, shape[2] // self.w)


def slice_order(s):
    """All slice indices (a, b, c) in raster order of their offsets."""
    return [(a, b, c) for a in range(s.t) for b in range(s.h) for c in range(s.w)]


def slice_rank(s, idx):
    a, b, c = idx
    if not (0 <= a < s.t and 0 <= b < s.h and 0 <= c < s.w):
        raise ConfigError(f"slice index {idx} out of range for factor {s.as_tuple()}")
    return (a * s.h + b) * s.w + c


def extract_slice(video, s, idx):
    """slice(t',h',w') = video(t'*s_t + a, h'*s_h + b, w'*s_w + c)."""
    s.check_divides(video.shape)
    a, b, c = idx
    slice_rank(s, idx)
    return video[a::s.t, b::s.h, c::s.w].copy()


def merge_slice(video, s, idx, slc):
    """Inverse scatter of extract_slice; untouched positions unchanged."""
    s.check_divides(video.shape)
    a, b, c = idx
    slice_rank(s, idx)
    expect = s.slice_shape(video.shape) + video.shape[3:]
    if tuple(slc.shape) != tuple(expect):
        raise ConfigError(f"slice shape {slc.shape} != expected {expect}")
    out = video.copy()
    out[a::s.t, b::s.h, c::s.w] = slc
    return out


def visibility_mask(shape, s, idx):
    """Boolean (T,H,W): True where the pixel belongs to a slice before idx."""
    T, H, W = shape[:3]
    s.check_divides(shape)
    rank = slice_rank(s, idx)
    at = np.arange(T) % s.t
    bh = np.arange(H) % s.h
    cw = np.arange(W) % s.w
    ranks = (at[:, None, None] * s.h + bh[None, :, None]) * s.w + cw[None, None, :]
    return ranks < rank


def context_padding(k, idx):
    """Signed padding (floor(k1/2)-a, floor(k2/2)-b, floor(k3/2)-c).

    Centers the encoder convolution window on the current slice's pixels;
    components go negative once the slice offset exceeds floor(k/2).
    """
    a, b, c = idx
    return (k[0] // 2 - a, k[1] // 2 - b, k[2] // 2 - c)


def slice_frame_globals(s, a, t_len):
    """Global frame index of each temporal plane of slice offset ``a``."""
    return np.arange(t_len) * s.t + a


def check_prime_frames(prime_frames, video_t):
    """Raise ConfigError unless 0 <= prime_frames <= video_t."""
    if not 0 <= prime_frames <= video_t:
        raise ConfigError(f"prime frame count {prime_frames} out of range 0..{video_t}")


def primed_plane_mask(s, idx, t_len, prime_frames):
    """Boolean (T'_slice,): True for planes that fall in primed global frames.
    Every train, eval and sample path calls this, so it checks the count."""
    check_prime_frames(prime_frames, t_len * s.t)
    return slice_frame_globals(s, idx[0], t_len) < prime_frames
