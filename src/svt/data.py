"""Video containers and synthetic bouncing-sprite datasets.

The container is a minimal little-endian format: magic "SVT1", a version and
video count, then per video the (T, H, W, C) extents, a dtype tag and the raw
row-major uint8 payload.  Validation is strict; a truncated file, a bad magic
or a size mismatch each raise a distinct, descriptive error.  Containers and
checkpoints are written through ``atomic_write``, so a crash mid-write
leaves the previous file intact.

The sprite generator stands in for external datasets: square sprites move
with constant integer velocity and reflect off the canvas borders, so videos
are deterministic given their seed and cheap to overfit.
"""

import os
import secrets
import struct
from contextlib import contextmanager

import numpy as np

from .tensor import ConfigError

MAGIC = b"SVT1"
VERSION = 1
DTYPE_U8 = 0


class DataError(Exception):
    """A file failed validation (bad magic, size mismatch, truncation)."""


@contextmanager
def atomic_write(path):
    """Binary file handle whose bytes replace ``path`` only once complete.

    Writes go to a new temp file beside ``path``, which is flushed, fsynced
    and renamed over it with ``os.replace``.  If the body raises, the temp
    file is removed and ``path`` keeps its previous bytes."""
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_container(path, videos):
    """Write a list of (T,H,W,C) uint8 arrays; C must be 1 or 3."""
    for v in videos:
        if v.ndim != 4 or v.shape[3] not in (1, 3):
            raise ConfigError(f"video shape {v.shape} unsupported (need T,H,W,C with C in 1|3)")
        if v.dtype != np.uint8:
            raise ConfigError(f"video dtype {v.dtype} unsupported (need uint8)")
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(videos)))
        for v in videos:
            f.write(struct.pack("<IIIIB", *v.shape, DTYPE_U8))
            f.write(np.ascontiguousarray(v).tobytes())


def read_container(path):
    """Read a container back into a list of uint8 arrays, validating sizes."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12:
        raise DataError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: bad magic {raw[:4]!r}")
    version, count = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    off = 12
    videos = []
    for i in range(count):
        if off + 17 > len(raw):
            raise DataError(f"{path}: truncated at video {i} header")
        t, h, w, c, tag = struct.unpack_from("<IIIIB", raw, off)
        off += 17
        if tag != DTYPE_U8:
            raise DataError(f"{path}: unknown dtype tag {tag}")
        if c not in (1, 3):
            raise DataError(f"{path}: channel count {c} not in (1, 3)")
        n = t * h * w * c
        if off + n > len(raw):
            raise DataError(f"{path}: payload size mismatch at video {i} "
                            f"(need {n} bytes, have {len(raw) - off})")
        try:  # an empty payload can still carry extents too big for any array
            videos.append(np.frombuffer(raw, dtype=np.uint8, count=n,
                                        offset=off).reshape(t, h, w, c).copy())
        except ValueError as e:
            raise DataError(f"{path}: video {i} extents {(t, h, w, c)} unusable ({e})") from e
        off += n
    if off != len(raw):
        raise DataError(f"{path}: {len(raw) - off} trailing bytes")
    return videos


def import_raw(path, t, h, w, c):
    """Wrap a raw uint8 file of N stacked (t,h,w,c) videos into containers."""
    if min(t, h, w) < 1 or c not in (1, 3):
        raise ConfigError(f"raw video extents must be positive with 1 or 3 channels, "
                          f"got {(t, h, w, c)}")
    with open(path, "rb") as f:
        raw = f.read()
    per = t * h * w * c
    if len(raw) % per:
        raise DataError(f"{path}: size {len(raw)} is not a multiple of {per} "
                        f"(= {t}*{h}*{w}*{c})")
    n = len(raw) // per
    buf = np.frombuffer(raw, dtype=np.uint8)
    return [buf[i * per:(i + 1) * per].reshape(t, h, w, c).copy() for i in range(n)]


def _bounce(pos, vel, lo, hi):
    """One reflective step on a line segment [lo, hi]."""
    pos += vel
    if pos < lo:
        pos = 2 * lo - pos
        vel = -vel
    elif pos > hi:
        pos = 2 * hi - pos
        vel = -vel
    return pos, vel


def gen_sprites(t, h, w, n_videos, n_sprites=2, sprite_size=3, vel_max=1,
                channels=3, seed=0):
    """Deterministic bouncing-sprite videos; overlaps compose by maximum."""
    if min(t, h, w, sprite_size) < 1 or min(n_videos, n_sprites, vel_max) < 0:
        raise ConfigError(f"need positive extents {(t, h, w)} and sprite size {sprite_size}, "
                          f"non-negative counts {(n_videos, n_sprites)} and vel_max {vel_max}")
    if sprite_size > min(h, w):
        raise ConfigError(f"sprite size {sprite_size} exceeds canvas {(h, w)}")
    if channels not in (1, 3):
        raise ConfigError("channels must be 1 (grayscale) or 3 (RGB)")
    rng = np.random.default_rng(seed)
    videos = []
    for _ in range(n_videos):
        video = np.zeros((t, h, w, channels), dtype=np.uint8)
        sprites = []
        for _ in range(n_sprites):
            y = int(rng.integers(0, h - sprite_size + 1))
            x = int(rng.integers(0, w - sprite_size + 1))
            vy = int(rng.integers(-vel_max, vel_max + 1))
            vx = int(rng.integers(-vel_max, vel_max + 1))
            color = rng.integers(96, 256, size=channels).astype(np.uint8)
            sprites.append([y, x, vy, vx, color])
        for frame in range(t):
            for sp in sprites:
                y, x, vy, vx, color = sp
                patch = video[frame, y:y + sprite_size, x:x + sprite_size]
                np.maximum(patch, color, out=patch)
            for sp in sprites:
                sp[0], sp[2] = _bounce(sp[0], sp[2], 0, h - sprite_size)
                sp[1], sp[3] = _bounce(sp[1], sp[3], 0, w - sprite_size)
        videos.append(video)
    return videos


def write_ppm_frames(prefix, video):
    """Dump frames as PPM (RGB) or PGM (grayscale) for eyeballing."""
    t, h, w, c = video.shape
    paths = []
    for i in range(t):
        path = f"{prefix}_{i:04d}.{'ppm' if c == 3 else 'pgm'}"
        header = f"{'P6' if c == 3 else 'P5'}\n{w} {h}\n255\n".encode()
        with open(path, "wb") as f:
            f.write(header)
            f.write(np.ascontiguousarray(video[i]).tobytes())
        paths.append(path)
    return paths
