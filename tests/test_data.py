"""Containers, the framed file format they share with checkpoints, raw
import, sprite generation, PPM dumps."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import entry_bytes, seal
from svt import model as M
from svt.data import (DTYPES, MAGIC, DataError, gen_sprites, import_raw, read_container,
                      write_container, write_ppm_frames)
from svt.tensor import ConfigError


def rand_videos(rng, n=2, shape=(3, 4, 5, 3)):
    return [rng.integers(0, 256, shape).astype(np.uint8) for _ in range(n)]


def body(*entries, count=None, tail=b""):
    """A framed body: the u32 entry count (the number of entries unless
    given), the entries and ``tail``."""
    return struct.pack("<I", len(entries) if count is None else count) + b"".join(entries) + tail


def _read_or_data_error(reader, path, raw):
    """``reader(path)`` on ``raw``; None when it raises DataError.  Any other
    exception propagates and fails the test."""
    path.write_bytes(raw)
    try:
        return reader(path)
    except DataError:
        return None


class TestContainer:
    def test_round_trip(self, tmp_path):
        """Bit-exact, for 3 and 1 channels, zero-length extents and an empty
        list."""
        rng = np.random.default_rng(0)
        videos = (rand_videos(rng) + rand_videos(rng, 1, (2, 2, 2, 1))
                  + [np.zeros((0, 2, 2, 3), dtype=np.uint8)])
        path = tmp_path / "v.svt"
        for written in (videos, []):
            write_container(path, written)
            back = read_container(path)
            assert len(back) == len(written)
            for a, b in zip(written, back):
                assert a.shape == b.shape and b.dtype == np.uint8 and np.array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.svt"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(DataError, match="bad container magic b'XXXX'"):
            read_container(path)

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "v.svt"
        write_container(path, rand_videos(rng, 1))
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(DataError, match=r"container fails its CRC-32 check \(truncated"):
            read_container(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        """An appended byte fails the CRC; resealed, it is still refused as
        trailing bytes."""
        rng = np.random.default_rng(2)
        path = tmp_path / "v.svt"
        write_container(path, rand_videos(rng, 1))
        raw = path.read_bytes() + b"\x00"
        path.write_bytes(raw)
        with pytest.raises(DataError, match="CRC-32"):
            read_container(path)
        path.write_bytes(seal(MAGIC, raw[12:]))
        with pytest.raises(DataError, match="1 trailing bytes"):
            read_container(path)

    def test_oversized_empty_extents_rejected(self, tmp_path):
        """Extents (0, 2**64-1, 2**64-1, 3) hold no bytes but no array can
        have them."""
        path = tmp_path / "v.svt"
        path.write_bytes(seal(MAGIC, body(entry_bytes(
            b"video/0", b"|u1", (0, 2 ** 64 - 1, 2 ** 64 - 1, 3), b""))))
        # a message starts with the path, whose directory is named after the test
        with pytest.raises(DataError, match=r"entry 'video/0' extents \(0, 1844"):
            read_container(path)

    def test_malformed_bytes_raise_data_error(self, tmp_path):
        """Every truncation of a valid container and every single-bit flip of
        it raise DataError: the CRC-32 catches each flip in the body."""
        rng = np.random.default_rng(3)
        path = tmp_path / "v.svt"
        write_container(path, rand_videos(rng, 2, (2, 2, 3, 3)) +
                        rand_videos(rng, 1, (1, 2, 1, 1)))
        raw = path.read_bytes()
        for k in range(len(raw)):
            assert _read_or_data_error(read_container, path, raw[:k]) is None
        assert len(_read_or_data_error(read_container, path, raw)) == 3
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert _read_or_data_error(read_container, path, bytes(flipped)) is None, bit

    def test_unsupported_channels_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_container(tmp_path / "v.svt",
                            [np.zeros((2, 2, 2, 2), dtype=np.uint8)])

    @settings(max_examples=20, deadline=None)
    @given(t=st.integers(1, 4), h=st.integers(1, 4), w=st.integers(1, 4),
           c=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 31))
    def test_round_trip_property(self, tmp_path_factory, t, h, w, c, seed):
        rng = np.random.default_rng(seed)
        v = rng.integers(0, 256, (t, h, w, c)).astype(np.uint8)
        path = tmp_path_factory.mktemp("container") / "p.svt"
        write_container(path, [v])
        assert np.array_equal(read_container(path)[0], v)


_F4 = np.float32(3.0).tobytes()
_CONTAINER, _CHECKPOINT = (MAGIC, read_container), (M.CHECKPOINT_MAGIC, M.load_checkpoint)
# file kind, body behind a valid CRC, the DataError it raises
STRUCTURAL = {
    "truncated-entry": (_CHECKPOINT, body(entry_bytes(b"w", b"<f4", (4,), _F4)),
                        "truncated checkpoint .*needs 16 bytes, 4 left"),
    "trailing-bytes": (_CHECKPOINT, body(entry_bytes(b"w", b"<f4", (1,), _F4), tail=b"\x00"),
                       "1 trailing bytes in checkpoint"),
    "unknown-dtype-tag": (_CHECKPOINT, body(entry_bytes(b"w", b"<f8", (1,), _F4 * 2)),
                          "unknown dtype tag b'<f8'"),
    "oversized-extents": (_CHECKPOINT, body(entry_bytes(b"w", b"<f4", (0, 2 ** 40, 2 ** 40), b"")),
                          r"entry 'w' extents \(0, 1099511627776, 1099511627776\) unusable"),
    "repeated-name": (_CHECKPOINT, body(*[entry_bytes(b"w", b"<f4", (1,), _F4)] * 2),
                      "entry name 'w' appears twice"),
    "non-utf8-name": (_CONTAINER, body(entry_bytes(b"\xff", b"|u1", (1, 1, 1, 1), b"\x00")),
                      r"entry name b'\\xff' is not UTF-8"),
    "container-float32": (_CONTAINER, body(entry_bytes(b"v", b"<f4", (1, 1, 1, 1), _F4)),
                          r"entry 'v' is float32 \(1, 1, 1, 1\), not a uint8 \(T, H, W, 1\|3\)"),
    "container-rank-3": (_CONTAINER, body(entry_bytes(b"v", b"|u1", (1, 1, 1), b"\x00")),
                         r"entry 'v' is uint8 \(1, 1, 1\), not a uint8"),
    "container-2-channels": (_CONTAINER, body(entry_bytes(b"v", b"|u1", (1, 1, 1, 2), b"\0\0")),
                             r"entry 'v' is uint8 \(1, 1, 1, 2\), not a uint8"),
}


@pytest.mark.parametrize("case", sorted(STRUCTURAL))
def test_structural_error_behind_a_valid_crc(tmp_path, case):
    """The CRC passes, and the parser's own check still names the fault."""
    (magic, reader), raw, message = STRUCTURAL[case]
    path = tmp_path / "f"
    path.write_bytes(seal(magic, raw))
    with pytest.raises(DataError, match=message):
        reader(path)


# Small extents most of the time, so that headers often parse; any u32/u64 now and then.
_COUNT = st.one_of(st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
_ENTRY_BYTES = st.builds(
    entry_bytes, st.binary(max_size=8),
    st.one_of(st.sampled_from(sorted(DTYPES)), st.binary(min_size=3, max_size=3)),
    st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2 ** 64 - 1)), max_size=5),
    st.binary(max_size=64), st.one_of(st.none(), _COUNT))
_BODY = st.builds(lambda entries, count, tail: body(*entries, count=count, tail=tail),
                  st.lists(_ENTRY_BYTES, max_size=3), st.one_of(st.none(), _COUNT),
                  st.binary(max_size=8))


def _file_bytes(magic):
    """Any bytes; or a drawn body sealed with a valid CRC, which reaches the
    parser's structural checks; or one behind any version and CRC."""
    return st.one_of(
        st.binary(max_size=200),
        st.builds(seal, st.just(magic), _BODY),
        st.builds(lambda version, crc, raw: magic + struct.pack("<II", version, crc) + raw,
                  st.one_of(st.just(2), _COUNT), _COUNT, _BODY))


_VIDEOS = st.lists(st.builds(
    lambda shape, seed: np.random.default_rng(seed).integers(0, 256, shape).astype(np.uint8),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, 3])),
    st.integers(0, 2 ** 32)), max_size=3)
_ARRAYS = st.dictionaries(
    st.text(max_size=6),
    st.builds(lambda shape, seed: np.random.default_rng(seed).standard_normal(shape)
              .astype(np.float32),
              st.lists(st.integers(0, 3), max_size=3).map(tuple), st.integers(0, 2 ** 32)),
    max_size=3)


def _is_container(out):
    return isinstance(out, list) and all(
        isinstance(v, np.ndarray) and v.dtype == np.uint8 and v.ndim == 4
        and v.shape[3] in (1, 3) for v in out)


def _is_checkpoint(out):
    return isinstance(out, dict) and all(
        isinstance(k, str) and isinstance(a, np.ndarray) and a.dtype in DTYPES.values()
        for k, a in out.items())


class TestParserFuzz:
    """``read_container`` and ``load_checkpoint`` on any bytes: a valid
    result or ``DataError``, and nothing else."""

    @settings(max_examples=400, deadline=None)
    @given(raw=_file_bytes(MAGIC))
    def test_any_bytes_give_videos_or_data_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "f.svt"
        out = _read_or_data_error(read_container, path, raw)
        assert out is None or _is_container(out)

    @settings(max_examples=400, deadline=None)
    @given(raw=_file_bytes(M.CHECKPOINT_MAGIC))
    def test_any_bytes_give_arrays_or_data_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "f.ckpt"
        out = _read_or_data_error(M.load_checkpoint, path, raw)
        assert out is None or _is_checkpoint(out)

    @settings(max_examples=60, deadline=None)
    @given(videos=_VIDEOS, edit=st.data())
    def test_every_truncation_and_an_edit_of_a_container(self, tmp_path_factory, videos,
                                                        edit):
        path = tmp_path_factory.mktemp("fuzz") / "f.svt"
        write_container(path, videos)
        raw = path.read_bytes()
        for size in range(len(raw)):
            assert _read_or_data_error(read_container, path, raw[:size]) is None
        back = _read_or_data_error(read_container, path, raw)
        assert len(back) == len(videos)
        assert all(np.array_equal(a, b) for a, b in zip(back, videos))
        i = edit.draw(st.integers(0, len(raw)))
        j = edit.draw(st.integers(i, len(raw)))
        out = _read_or_data_error(read_container, path,
                                 raw[:i] + edit.draw(st.binary(max_size=24)) + raw[j:])
        assert out is None or _is_container(out)

    @settings(max_examples=60, deadline=None)
    @given(arrays=_ARRAYS, edit=st.data())
    def test_every_truncation_and_an_edit_of_a_checkpoint(self, tmp_path_factory, arrays,
                                                         edit):
        path = tmp_path_factory.mktemp("fuzz") / "f.ckpt"
        M.save_checkpoint(path, arrays)
        raw = path.read_bytes()
        for size in range(len(raw)):
            assert _read_or_data_error(M.load_checkpoint, path, raw[:size]) is None
        back = _read_or_data_error(M.load_checkpoint, path, raw)
        assert sorted(back) == sorted(arrays)
        assert all(np.array_equal(back[k], a) for k, a in arrays.items())
        i = edit.draw(st.integers(0, len(raw)))
        j = edit.draw(st.integers(i, len(raw)))
        out = _read_or_data_error(M.load_checkpoint, path,
                                 raw[:i] + edit.draw(st.binary(max_size=24)) + raw[j:])
        assert out is None or _is_checkpoint(out)


class Exploding:
    """Passes the writers' checks, then raises when its bytes are taken."""
    ndim, shape, dtype = 4, (1, 2, 2, 1), np.dtype(np.uint8)

    def __array__(self, *args, **kwargs):
        raise OSError("device full")


# writer, then payloads: the first file, a second one, one that fails partway
ATOMIC_WRITERS = {
    "container": (write_container, [np.zeros((1, 2, 2, 1), dtype=np.uint8)],
                  [np.ones((1, 2, 2, 1), dtype=np.uint8)],
                  [np.ones((1, 2, 2, 1), dtype=np.uint8), Exploding()]),
    "checkpoint": (M.save_checkpoint, {"a": np.zeros(3)}, {"a": np.ones(3)},
                   {"a": np.ones(3), "b": Exploding()}),
}


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
    def test_replaces_whole_file(self, tmp_path, writer):
        write, first, second, _ = ATOMIC_WRITERS[writer]
        path = tmp_path / "f"
        write(path, first)
        old = path.read_bytes()
        write(path, second)
        assert path.read_bytes() != old
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    @pytest.mark.parametrize("failure", ["partway", "fsync"])
    @pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, writer, failure):
        """A write that raises partway through its payload, or whose fsync
        fails, leaves the previous file byte-identical and no temp file."""
        write, first, second, exploding = ATOMIC_WRITERS[writer]
        path = tmp_path / "f"
        write(path, first)
        old = path.read_bytes()
        payload = exploding
        if failure == "fsync":
            def fsync(fd):
                raise OSError("device full")
            monkeypatch.setattr(os, "fsync", fsync)
            payload = second
        with pytest.raises(OSError, match="device full"):
            write(path, payload)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["f"]


class TestImportRaw:
    def test_two_videos_from_1536_bytes(self, tmp_path):
        raw = np.arange(1536, dtype=np.uint8).tobytes()
        path = tmp_path / "raw.bin"
        path.write_bytes(raw)
        videos = import_raw(path, 4, 8, 8, 3)
        assert len(videos) == 2 and videos[0].shape == (4, 8, 8, 3)

    def test_wrong_size_rejected(self, tmp_path):
        path = tmp_path / "raw.bin"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(DataError):
            import_raw(path, 4, 8, 8, 3)

    def test_import_export_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        payload = rng.integers(0, 256, 2 * 2 * 2 * 2 * 3).astype(np.uint8).tobytes()
        raw = tmp_path / "raw.bin"
        raw.write_bytes(payload)
        videos = import_raw(raw, 2, 2, 2, 3)
        out = tmp_path / "v.svt"
        write_container(out, videos)
        assert b"".join(v.tobytes() for v in read_container(out)) == payload


class TestSprites:
    def test_zero_velocity_static(self):
        videos = gen_sprites(5, 8, 8, 1, n_sprites=1, sprite_size=2, vel_max=0,
                             channels=3, seed=4)
        v = videos[0]
        for t in range(1, 5):
            assert np.array_equal(v[t], v[0])

    def test_single_pixel_bounce_period_14(self):
        """Velocity (0,1) on an 8-wide canvas: a 1-pixel sprite retraces its
        path with period 2*(8-1) = 14 (reflection arithmetic)."""
        t = 30
        videos = None
        for seed in range(200):
            vids = gen_sprites(t, 3, 8, 1, n_sprites=1, sprite_size=1,
                               vel_max=1, channels=1, seed=seed)
            v = vids[0]
            ys, xs = np.nonzero(v[0][:, :, 0])
            # want pure horizontal motion: frame 1 same row, shifted column
            ys1, xs1 = np.nonzero(v[1][:, :, 0])
            if len(xs) == 1 and ys[0] == ys1[0] and abs(int(xs1[0]) - int(xs[0])) == 1:
                videos = v
                break
        assert videos is not None, "no horizontal mover among seeds"
        for t0 in range(t - 14):
            assert np.array_equal(videos[t0], videos[t0 + 14])

    def test_same_seed_byte_identical(self):
        a = gen_sprites(4, 8, 8, 2, seed=9)
        b = gen_sprites(4, 8, 8, 2, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_sprites_stay_in_canvas(self):
        videos = gen_sprites(40, 8, 10, 3, n_sprites=3, sprite_size=3,
                             vel_max=2, channels=1, seed=5)
        for v in videos:
            assert v.shape == (40, 8, 10, 1)
            assert v.max() > 0  # something is drawn on every video
        # reflective bouncing keeps every drawn pixel inside by construction;
        # check no frame is fully saturated (sprites remain compact)
        assert all((v > 0).mean() < 0.5 for v in videos)

    def test_oversized_sprite_rejected(self):
        with pytest.raises(ConfigError):
            gen_sprites(2, 4, 4, 1, sprite_size=5)


class TestPpm:
    def test_rgb_and_gray_headers(self, tmp_path):
        rgb = np.zeros((2, 3, 4, 3), dtype=np.uint8)
        gray = np.zeros((1, 3, 4, 1), dtype=np.uint8)
        p1 = write_ppm_frames(str(tmp_path / "rgb"), rgb)
        p2 = write_ppm_frames(str(tmp_path / "gray"), gray)
        assert len(p1) == 2 and p1[0].endswith(".ppm")
        assert open(p1[0], "rb").read(2) == b"P6"
        assert open(p2[0], "rb").read(2) == b"P5"
