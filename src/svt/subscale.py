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

from collections import namedtuple

import numpy as np

from .tensor import ConfigError


class Extents(namedtuple("Extents", "t h w")):
    """Positive (t, h, w) extents: a subscale factor or an attention block
    shape.  ``kind`` and ``target`` name the value and the shape it divides
    in error messages; it prints as a plain tuple."""

    __slots__ = ()
    kind, target = "extents", "shape"

    def __new__(cls, t, h, w):
        self = super().__new__(cls, t, h, w)
        if min(self) < 1:
            raise ConfigError(f"{cls.kind} must be positive, got {self}")
        return self

    __repr__ = tuple.__repr__

    @property
    def size(self):
        return self.t * self.h * self.w

    def divide(self, shape):
        """The leading (T, H, W) of ``shape`` divided axis by axis; raises
        ConfigError unless every axis divides evenly."""
        T, H, W = shape[:3]
        if T % self.t or H % self.h or W % self.w:
            raise ConfigError(f"{self.kind} {self} does not divide {self.target} {(T, H, W)}")
        return (T // self.t, H // self.h, W // self.w)


class SubscaleFactor(Extents):
    __slots__ = ()
    kind, target = "subscale factor", "video shape"


class BlockShape(Extents):
    __slots__ = ()
    kind, target = "block shape", "slice shape"


def slice_order(s):
    """All slice indices (a, b, c) in raster order of their offsets."""
    return [(a, b, c) for a in range(s.t) for b in range(s.h) for c in range(s.w)]


def slice_rank(s, idx):
    a, b, c = idx
    if not (0 <= a < s.t and 0 <= b < s.h and 0 <= c < s.w):
        raise ConfigError(f"slice index {idx} out of range for factor {s}")
    return (a * s.h + b) * s.w + c


def slice_key(s, idx):
    """The basic index of slice ``idx`` = (a, b, c) in a (T, H, W, ...)
    array: every s_t-th frame, s_h-th row and s_w-th column from (a, b, c)."""
    slice_rank(s, idx)
    return tuple(slice(o, None, f) for o, f in zip(idx, s))


def extract_slice(video, s, idx):
    """slice(t',h',w') = video(t'*s_t + a, h'*s_h + b, w'*s_w + c)."""
    s.divide(video.shape)
    return video[slice_key(s, idx)].copy()


def merge_slice(video, s, idx, slc):
    """Inverse scatter of extract_slice; untouched positions unchanged."""
    key = slice_key(s, idx)
    expect = s.divide(video.shape) + video.shape[3:]
    if tuple(slc.shape) != tuple(expect):
        raise ConfigError(f"slice shape {slc.shape} != expected {expect}")
    out = video.copy()
    out[key] = slc
    return out


def visibility_mask(shape, s, idx):
    """Boolean (T,H,W): True where the pixel belongs to a slice before idx."""
    T, H, W = shape[:3]
    s.divide(shape)
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


def check_frame_left(prime_frames, video_t, task):
    """Raise ConfigError unless 0 <= prime_frames < video_t: a frame to ``task``."""
    if not 0 <= prime_frames < video_t:
        raise ConfigError(f"prime_frames must be in 0..{video_t - 1} to leave a frame to "
                          f"{task}, got {prime_frames}")


def primed_plane_mask(s, idx, t_len, prime_frames):
    """Boolean (T'_slice,): True for planes that fall in primed global frames.
    Every train, eval and sample path calls this, so it checks the count."""
    check_prime_frames(prime_frames, t_len * s.t)
    return slice_frame_globals(s, idx[0], t_len) < prime_frames
