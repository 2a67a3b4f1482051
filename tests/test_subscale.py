"""Subscale geometry: (t, h, w) extents, ordering, extraction, merging,
visibility, padding."""

import re

import numpy as np
import pytest

from helpers import mask_preceding
from svt.subscale import (BlockShape, SubscaleFactor, context_padding, extract_slice,
                          merge_slice, primed_plane_mask, slice_key,
                          slice_order, slice_rank, visibility_mask)
from svt.tensor import ConfigError


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestSliceOrder:
    def test_no_subscaling(self):
        assert slice_order(SubscaleFactor(1, 1, 1)) == [(0, 0, 0)]

    def test_first_three_of_422(self):
        order = slice_order(SubscaleFactor(4, 2, 2))
        assert order[:3] == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]

    def test_length_sixteen(self):
        assert len(slice_order(SubscaleFactor(4, 2, 2))) == 16

    def test_lexicographic_and_rank_consistent(self):
        s = SubscaleFactor(2, 3, 2)
        order = slice_order(s)
        assert order == sorted(order)
        assert [slice_rank(s, idx) for idx in order] == list(range(s.size))


class TestExtractMerge:
    def test_identity_factor(self):
        v = np.arange(2 * 2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 2, 3)
        assert np.array_equal(extract_slice(v, SubscaleFactor(1, 1, 1), (0, 0, 0)), v)

    def test_canonical_shape(self):
        v = np.zeros((16, 64, 64, 3), dtype=np.uint8)
        out = extract_slice(v, SubscaleFactor(4, 2, 2), (1, 0, 1))
        assert out.shape == (4, 32, 32, 3)

    def test_zero_offset_selects_even_coordinates(self):
        v = np.random.default_rng(0).integers(0, 256, (4, 4, 4, 1)).astype(np.uint8)
        out = extract_slice(v, SubscaleFactor(2, 2, 2), (0, 0, 0))
        assert np.array_equal(out, v[::2, ::2, ::2])

    def test_merge_restores_after_extract(self):
        rng = np.random.default_rng(1)
        v = rng.integers(0, 256, (4, 6, 4, 3)).astype(np.uint8)
        s = SubscaleFactor(2, 3, 2)
        for idx in slice_order(s):
            slc = extract_slice(v, s, idx)
            assert np.array_equal(merge_slice(v, s, idx, slc), v)

    def test_merging_all_slices_reconstructs(self):
        rng = np.random.default_rng(2)
        v = rng.integers(0, 256, (16, 64, 64, 3)).astype(np.uint8)
        s = SubscaleFactor(4, 2, 2)
        canvas = np.zeros_like(v)
        for idx in slice_order(s):
            canvas = merge_slice(canvas, s, idx, extract_slice(v, s, idx))
        assert np.array_equal(canvas, v)

    def test_merge_touches_exactly_one_share(self):
        s = SubscaleFactor(2, 2, 2)
        v = np.zeros((4, 4, 4, 1), dtype=np.uint8)
        slc = np.ones((2, 2, 2, 1), dtype=np.uint8)
        out = merge_slice(v, s, (1, 0, 1), slc)
        assert int(out.sum()) == 4 * 4 * 4 // s.size

    @pytest.mark.parametrize("factor", [(2, 2, 2), (4, 2, 2)])
    def test_slice_key_matches_extract_slice(self, factor):
        """``video[slice_key(s, idx)]`` is ``extract_slice`` for every
        slice, and both hold video(t'*s_t + a, h'*s_h + b, w'*s_w + c)."""
        s = SubscaleFactor(*factor)
        v = np.random.default_rng(3).integers(0, 256, (8, 4, 6, 3)).astype(np.uint8)
        for idx in slice_order(s):
            got = v[slice_key(s, idx)]
            assert np.array_equal(got, extract_slice(v, s, idx))
            t, h, w = (np.arange(n) * f + o for n, f, o in
                       zip(s.divide(v.shape), factor, idx))
            assert np.array_equal(got, v[np.ix_(t, h, w)])

    def test_slice_key_checks_the_index(self):
        with pytest.raises(ConfigError):
            slice_key(SubscaleFactor(2, 2, 2), (0, 2, 0))

    def test_non_divisible_raises(self):
        with pytest.raises(ConfigError):
            extract_slice(np.zeros((3, 4, 4, 1), dtype=np.uint8),
                          SubscaleFactor(2, 2, 2), (0, 0, 0))

    def test_partition_exhaustive_small_shapes(self):
        """Every divisor factor on shapes up to 8x8x8 partitions the volume."""
        for T in divisors(8):
            for H in divisors(8):
                for W in divisors(8):
                    vol = np.arange(T * H * W, dtype=np.int64).reshape(T, H, W)
                    for st in divisors(T):
                        for sh in divisors(H):
                            for sw in divisors(W):
                                s = SubscaleFactor(st, sh, sw)
                                seen = np.zeros(vol.shape, dtype=np.int32)
                                for idx in slice_order(s):
                                    a, b, c = idx
                                    seen[a::st, b::sh, c::sw] += 1
                                assert (seen == 1).all()


class TestMaskPreceding:
    def test_first_slice_all_masked(self):
        v = np.full((2, 2, 2, 1), 9, dtype=np.uint8)
        masked, vis = mask_preceding(v, SubscaleFactor(2, 2, 2), (0, 0, 0))
        assert masked.sum() == 0 and not vis.any()

    def test_even_frames_visible(self):
        v = np.full((4, 2, 2, 1), 1, dtype=np.uint8)
        masked, vis = mask_preceding(v, SubscaleFactor(2, 1, 1), (1, 0, 0))
        assert vis[::2].all() and not vis[1::2].any()
        assert masked[::2].all() and not masked[1::2].any()

    def test_visible_count_matches_rank(self):
        rng = np.random.default_rng(3)
        for shape, s in [((4, 4, 4), SubscaleFactor(2, 2, 2)),
                         ((6, 4, 2), SubscaleFactor(3, 2, 1)),
                         ((8, 8, 8), SubscaleFactor(4, 2, 2))]:
            n_pix = int(np.prod(shape))
            for idx in slice_order(s):
                vis = visibility_mask(shape, s, idx)
                assert int(vis.sum()) == slice_rank(s, idx) * n_pix // s.size

    def test_monotone_along_order(self):
        s = SubscaleFactor(2, 2, 1)
        prev = None
        for idx in slice_order(s):
            vis = visibility_mask((4, 4, 2), s, idx)
            if prev is not None:
                assert (vis | ~prev).all()  # everything visible stays visible
            prev = vis


class TestContextPadding:
    @pytest.mark.parametrize("idx,expect", [
        ((0, 0, 0), (2, 1, 1)),
        ((1, 0, 1), (1, 1, 0)),
        ((3, 1, 1), (-1, 0, 0)),
    ])
    def test_formula(self, idx, expect):
        assert context_padding((4, 2, 2), idx) == expect

    def test_window_centered_on_slice_pixels(self):
        """For output o the window is centered (up to floor) on o*s + idx."""
        k, s = (3, 3, 3), SubscaleFactor(2, 2, 2)
        for idx in slice_order(s):
            pad = context_padding(k, idx)
            for o in range(3):
                lo = o * 2 - pad[0]
                hi = lo + k[0] - 1
                center = o * 2 + idx[0]
                assert lo <= center <= hi
                assert center - lo == k[0] // 2


class TestPrimedPlanes:
    def test_prime_five_of_s4(self):
        """Prime 5 frames at s_t=4: offset-0 slices carry primed planes {0,1}
        (global frames 0 and 4); offsets 1..3 carry plane {0} only."""
        s = SubscaleFactor(4, 2, 2)
        for a in range(4):
            mask = primed_plane_mask(s, (a, 0, 0), 4, 5)
            expect = [True, True, False, False] if a == 0 else [True, False, False, False]
            assert mask.tolist() == expect

    def test_no_priming(self):
        assert not primed_plane_mask(SubscaleFactor(2, 1, 1), (0, 0, 0), 2, 0).any()


class TestExtents:
    @pytest.mark.parametrize("kind, name, target", [
        (SubscaleFactor, "subscale factor", "video shape"),
        (BlockShape, "block shape", "slice shape")])
    def test_errors_name_the_kind_and_the_value(self, kind, name, target):
        for bad in [(0, 1, 1), (1, -2, 1), (1, 1, 0)]:
            with pytest.raises(ConfigError, match=re.escape(f"{name} must be positive, got {bad}")):
                kind(*bad)
        with pytest.raises(ConfigError,
                           match=re.escape(f"{name} (2, 3, 2) does not divide {target} (4, 6, 5)")):
            kind(2, 3, 2).divide((4, 6, 5, 3))

    def test_a_tuple_with_fields_a_size_and_a_quotient(self):
        s = SubscaleFactor(4, 2, 2)
        assert isinstance(s, tuple) and s == (4, 2, 2) and str(s) == "(4, 2, 2)"
        assert (s.t, s.h, s.w, s.size) == (4, 2, 2, 16)
        assert s.divide((16, 64, 64, 3)) == (4, 32, 32)
        assert BlockShape(*s) == s and hash(BlockShape(*s)) == hash((4, 2, 2))
