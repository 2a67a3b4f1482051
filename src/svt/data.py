"""Video containers, the file format they share with checkpoints, and
synthetic bouncing-sprite datasets.

Containers and checkpoints share one little-endian format of named arrays
(``write_arrays``, ``read_arrays``): a 4-byte magic per file kind, version 2
and the ``zlib.crc32`` of the body, which is an entry count and per entry
the length-prefixed UTF-8 name, a dtype tag from ``DTYPES``, the rank, the
u64 extents and the row-major payload.  The CRC is checked before parsing;
a flipped bit, a truncation, a version-1 file, trailing bytes or a bad tag,
name or extents each raise a descriptive ``DataError``.  A file is replaced
atomically, so a crash mid-write leaves the previous file intact.

The sprite generator stands in for external datasets: square sprites move
with constant integer velocity and reflect off the canvas borders, so videos
are deterministic given their seed and cheap to overfit.
"""

import math
import os
import secrets
import struct
import zlib

import numpy as np

from .tensor import ConfigError

MAGIC = b"SVT1"  # containers; checkpoints have model.CHECKPOINT_MAGIC
VERSION = 2
HEADER = struct.Struct("<4sII")  # magic, version, CRC-32 of the body
# dtype tag (the dtype's ``str``) -> the little-endian dtype of the payload
DTYPES = {np.dtype(t).str.encode(): np.dtype(t) for t in ("u1", "<f4", "<i8")}


class DataError(Exception):
    """A file failed validation (bad magic, size mismatch, truncation)."""


def write_arrays(path, magic, entries):
    """Write (name, array) ``entries`` in order, each array of a dtype in
    ``DTYPES``, behind the header.  The bytes go to a new temp file beside
    ``path``, which is flushed, fsynced and renamed over it with
    ``os.replace``; if anything raises, the temp file is removed and
    ``path`` keeps its previous bytes."""
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            parts = [struct.pack("<I", len(entries))]
            for name, arr in entries:
                arr = np.asarray(arr, order="C")
                enc = name.encode("utf-8")
                parts += [struct.pack(f"<I{len(enc)}s3sI{arr.ndim}Q", len(enc), enc,
                                      arr.dtype.str.encode(), arr.ndim, *arr.shape), arr]
            crc = 0
            for part in parts:
                crc = zlib.crc32(part, crc)
            f.write(HEADER.pack(magic, VERSION, crc))
            f.writelines(parts)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_arrays(path, magic, kind):
    """{name: array} of a file written by ``write_arrays`` with ``magic``, in
    file order: fresh native-endian copies.  ``kind`` names the file in
    every ``DataError``."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < HEADER.size:
        raise DataError(f"{path}: truncated {kind} header ({len(raw)} bytes)")
    got, version, crc = HEADER.unpack_from(raw)
    if got != magic:
        raise DataError(f"{path}: bad {kind} magic {got!r}")
    if version != VERSION:
        raise DataError(f"{path}: unsupported {kind} version {version}; regenerate the file")
    if zlib.crc32(memoryview(raw)[HEADER.size:]) != crc:
        raise DataError(f"{path}: {kind} fails its CRC-32 check (truncated or corrupt)")
    out = {}
    try:
        (count,) = struct.unpack_from("<I", raw, HEADER.size)
        off = HEADER.size + 4
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", raw, off)
            off += 4
            try:
                name = raw[off:off + nlen].decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: entry name {raw[off:off + nlen]!r} "
                                "is not UTF-8") from None
            if name in out:
                raise DataError(f"{path}: entry name {name!r} appears twice")
            off += nlen
            tag, rank = struct.unpack_from("<3sI", raw, off)
            off += 7
            dtype = DTYPES.get(tag)
            if dtype is None:
                raise DataError(f"{path}: entry {name!r} has unknown dtype tag {tag!r}")
            shape = struct.unpack_from(f"<{rank}Q", raw, off)
            off += 8 * rank
            n = math.prod(shape)
            size = n * dtype.itemsize
            if size > len(raw) - off:
                raise ValueError(f"entry {name!r} needs {size} bytes, {len(raw) - off} left")
            try:  # an empty payload can still carry extents too big for any array
                out[name] = np.frombuffer(raw, dtype, n, off).reshape(shape).astype(dtype.type)
            except ValueError as e:
                raise DataError(f"{path}: entry {name!r} extents {shape} unusable ({e})") from e
            off += size
    except (struct.error, ValueError) as e:
        raise DataError(f"{path}: truncated {kind} ({e})") from e
    if off != len(raw):
        raise DataError(f"{path}: {len(raw) - off} trailing bytes in {kind}")
    return out


def write_container(path, videos):
    """Write a list of (T,H,W,C) uint8 arrays; C must be 1 or 3."""
    for v in videos:
        if v.dtype != np.uint8 or v.ndim != 4 or v.shape[3] not in (1, 3):
            raise ConfigError(f"video {v.dtype} {v.shape} unsupported (need uint8 T,H,W,C, C 1|3)")
    write_arrays(path, MAGIC, [(f"video/{i}", v) for i, v in enumerate(videos)])


def read_container(path):
    """Read a container back into its list of uint8 (T, H, W, 1|3) videos."""
    videos = read_arrays(path, MAGIC, "container")
    for name, v in videos.items():
        if v.dtype != np.uint8 or v.ndim != 4 or v.shape[3] not in (1, 3):
            raise DataError(f"{path}: entry {name!r} is {v.dtype} {v.shape}, "
                            "not a uint8 (T, H, W, 1|3) video")
    return list(videos.values())


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
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
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
