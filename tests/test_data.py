"""Containers, raw import, sprite generation, PPM dumps."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svt import model as M
from svt.data import (DataError, gen_sprites, import_raw, read_container,
                      write_container, write_ppm_frames)
from svt.tensor import ConfigError


def rand_videos(rng, n=2, shape=(3, 4, 5, 3)):
    return [rng.integers(0, 256, shape).astype(np.uint8) for _ in range(n)]


class TestContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        videos = rand_videos(rng) + rand_videos(rng, 1, (2, 2, 2, 1))
        path = tmp_path / "v.svt"
        write_container(path, videos)
        back = read_container(path)
        assert len(back) == 3
        for a, b in zip(videos, back):
            assert np.array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.svt"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(DataError, match="magic"):
            read_container(path)

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "v.svt"
        write_container(path, rand_videos(rng, 1))
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(DataError, match="size mismatch|truncated"):
            read_container(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "v.svt"
        write_container(path, rand_videos(rng, 1))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            read_container(path)

    def test_oversized_empty_extents_rejected(self, tmp_path):
        """Extents (0, 2**32-1, 2**32-1, 3) hold no bytes but no array can
        have them."""
        path = tmp_path / "v.svt"
        path.write_bytes(b"SVT1" + struct.pack("<II", 1, 1)
                         + struct.pack("<IIIIB", 0, 2**32 - 1, 2**32 - 1, 3, 0))
        with pytest.raises(DataError, match="extents"):
            read_container(path)

    def test_malformed_bytes_raise_data_error(self, tmp_path):
        """Every truncation of a valid container, and seeded bit flips of it,
        read to a list of uint8 videos or raise DataError."""
        rng = np.random.default_rng(3)
        path = tmp_path / "v.svt"
        write_container(path, rand_videos(rng, 2, (2, 2, 3, 3)) +
                        rand_videos(rng, 1, (1, 2, 1, 1)))
        raw = path.read_bytes()

        def read(data):
            path.write_bytes(data)
            try:
                return read_container(path)
            except DataError:
                return None

        for k in range(len(raw)):
            assert read(raw[:k]) is None
        assert len(read(raw)) == 3
        for _ in range(1500):
            flipped = bytearray(raw)
            flipped[rng.integers(len(raw))] ^= 1 << int(rng.integers(8))
            out = read(bytes(flipped))
            assert out is None or all(v.dtype == np.uint8 and v.ndim == 4 for v in out)

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


# Small extents most of the time, so that headers often parse; any u32 now and then.
_COUNT = st.one_of(st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
_VIDEO_BYTES = st.builds(
    lambda ext, c, tag, payload: struct.pack("<IIIIB", *ext, c, tag) + payload,
    st.tuples(_COUNT, _COUNT, _COUNT), st.one_of(st.sampled_from([1, 3]), _COUNT),
    st.one_of(st.just(0), st.integers(0, 255)), st.binary(max_size=64))
_CONTAINER_BYTES = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda version, count, videos, tail:
              b"SVT1" + struct.pack("<II", version, count) + b"".join(videos) + tail,
              st.one_of(st.just(1), _COUNT), _COUNT, st.lists(_VIDEO_BYTES, max_size=3),
              st.binary(max_size=8)))
_ENTRY_BYTES = st.builds(
    lambda name, rank, dims, payload: (struct.pack("<I", len(name)) + name
                                       + struct.pack("<I", rank)
                                       + struct.pack(f"<{len(dims)}Q", *dims) + payload),
    st.binary(max_size=8), st.one_of(st.integers(0, 4), _COUNT),
    st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2 ** 64 - 1)), max_size=5),
    st.binary(max_size=64))
_CHECKPOINT_BYTES = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda version, count, entries, tail:
              M.CHECKPOINT_MAGIC + struct.pack("<II", version, count) + b"".join(entries) + tail,
              st.one_of(st.just(M.CHECKPOINT_VERSION), _COUNT), _COUNT,
              st.lists(_ENTRY_BYTES, max_size=3), st.binary(max_size=8)))
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


def _read_or_data_error(reader, path, raw):
    """``reader(path)`` on ``raw``; None when it raises DataError.  Any other
    exception propagates and fails the test."""
    path.write_bytes(raw)
    try:
        return reader(path)
    except DataError:
        return None


def _is_container(out):
    return isinstance(out, list) and all(
        isinstance(v, np.ndarray) and v.dtype == np.uint8 and v.ndim == 4
        and v.shape[3] in (1, 3) for v in out)


def _is_checkpoint(out):
    return isinstance(out, dict) and all(
        isinstance(k, str) and isinstance(a, np.ndarray) and a.dtype == np.float32
        for k, a in out.items())


class TestParserFuzz:
    """``read_container`` and ``load_checkpoint`` on any bytes: a valid
    result or ``DataError``, and nothing else."""

    @settings(max_examples=400, deadline=None)
    @given(raw=_CONTAINER_BYTES)
    def test_any_bytes_give_videos_or_data_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "f.svt"
        out = _read_or_data_error(read_container, path, raw)
        assert out is None or _is_container(out)

    @settings(max_examples=400, deadline=None)
    @given(raw=_CHECKPOINT_BYTES)
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
