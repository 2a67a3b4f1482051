"""Dependency analyzer: reachability vs gradients, blind spots, encoder
connectivity, monotonicity."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (bool_conv_window_edges, bool_dependency_graph,
                     bool_verify_encoder_connectivity, gradient_reachability)
from svt.attention import BlockShape
from svt.connectivity import (_reaches_forward, conv_window_edges, dependency_graph,
                              find_blind_spots, report_text,
                              verify_encoder_connectivity)


# schedules over <= 4x4x4 slices used for the analyzer/gradient equivalence
CATALOG = [
    ((2, 4, 4), [(2, 4, 4)], (3, 3, 3)),
    ((2, 4, 4), [(1, 2, 2), (2, 1, 2)], (3, 3, 3)),
    ((2, 4, 4), [(2, 2, 2), (1, 4, 4)], (3, 3, 3)),
    ((1, 4, 4), [(1, 1, 2)], (3, 3, 3)),
    ((1, 4, 4), [(1, 4, 1), (1, 1, 4)], (3, 3, 3)),
    ((4, 4, 4), [(4, 1, 1), (1, 4, 4)], (3, 3, 3)),
    ((4, 4, 4), [(2, 2, 2), (2, 2, 2), (4, 4, 4)], (3, 3, 3)),
    ((4, 2, 2), [(2, 2, 2)], (5, 3, 3)),
    ((2, 2, 4), [(1, 2, 2), (2, 2, 1)], (1, 3, 5)),
    ((2, 4, 4), [(2, 4, 4)], (3, 5, 5)),
    ((3, 3, 3), [(1, 3, 3), (3, 1, 3)], (3, 3, 3)),
]


def blocks_of(raw):
    return [BlockShape(*b) for b in raw]


class TestDependencyGraph:
    def test_zero_layers_equals_conv_window(self):
        rep = dependency_graph((2, 3, 3), [], (3, 3, 3))
        # position (1,1,1) sees its 13 strictly-prior window taps, all in bounds
        p = 1 * 9 + 1 * 3 + 1
        assert rep.reach[p].sum() == 13
        # origin sees nothing
        assert rep.reach[0].sum() == 0

    def test_single_full_block_layer(self):
        """One full-volume causal layer: reach = union of strictly-prior conv
        windows over raster predecessors.  Not the full lower triangle: a
        pixel whose forward window lies entirely after p stays invisible (the
        raster-wrap blind spots the masked decoder has by construction)."""
        shape = (2, 4, 4)
        rep = dependency_graph(shape, blocks_of([shape]), (3, 3, 3))
        grad = gradient_reachability(shape, blocks_of([shape]), (3, 3, 3), seed=0)
        assert np.array_equal(rep.reach, grad)
        assert rep.blind_count() > 0  # e.g. ((0,1,0),(0,0,3)) is structural
        p = 1 * 4 + 0  # (0,1,0)
        q = 0 * 4 + 3  # (0,0,3)
        assert not rep.reach[p, q]

    @pytest.mark.parametrize("case", CATALOG, ids=lambda c: f"{c[0]}-{len(c[1])}L-{c[2]}")
    def test_matches_gradient_sensitivity(self, case):
        shape, raw_blocks, kernel = case
        rep = dependency_graph(shape, blocks_of(raw_blocks), kernel)
        grad = gradient_reachability(shape, blocks_of(raw_blocks), kernel, seed=1)
        assert np.array_equal(rep.reach, grad)
        assert rep.blind_count() == np.count_nonzero(np.tril(~grad, k=-1))

    def test_never_reaches_forward(self):
        rep = dependency_graph((2, 4, 4), blocks_of([(2, 4, 4), (1, 2, 2)]), (3, 3, 3))
        P = len(rep.reach)
        assert not (np.triu(np.ones((P, P), dtype=bool)) & rep.reach).any()

    def test_adding_layers_is_monotone(self):
        shape = (2, 4, 4)
        small = dependency_graph(shape, blocks_of([(1, 2, 2)]), (3, 3, 3))
        bigger = dependency_graph(shape, blocks_of([(1, 2, 2), (2, 2, 2)]), (3, 3, 3))
        assert not (small.reach & ~bigger.reach).any()

    def test_enlarging_blocks_is_monotone(self):
        shape = (2, 4, 4)
        small = dependency_graph(shape, blocks_of([(1, 2, 2)]), (3, 3, 3))
        wide = dependency_graph(shape, blocks_of([(2, 2, 2)]), (3, 3, 3))
        assert not (small.reach & ~wide.reach).any()


class TestBlindSpots:
    def test_kernel_growth_strictly_shrinks_on_small_case(self):
        shape = (1, 1, 8)
        blocks = blocks_of([(1, 1, 2)])
        b3 = dependency_graph(shape, blocks, (1, 1, 3))
        b5 = dependency_graph(shape, blocks, (1, 1, 5))
        assert not (b3.reach & ~b5.reach).any()
        assert b5.blind_count() < b3.blind_count()

    def test_nearest_first_ordering(self):
        rep = dependency_graph((1, 4, 4), blocks_of([(1, 1, 2)]), (1, 3, 3))
        pairs = find_blind_spots(rep, max_report=10)
        H, W = 4, 4
        dists = [(p[0] * H * W + p[1] * W + p[2]) - (q[0] * H * W + q[1] * W + q[2])
                 for p, q in pairs]
        assert dists == sorted(dists)
        assert all(d > 0 for d in dists)

    def test_max_report_cap(self):
        rep = dependency_graph((1, 4, 4), blocks_of([(1, 1, 2)]), (1, 3, 3))
        assert len(find_blind_spots(rep, max_report=3)) == 3

    @pytest.mark.parametrize("cap", [0, -3])
    def test_non_positive_cap_lists_nothing(self, cap):
        rep = dependency_graph((1, 4, 4), blocks_of([(1, 1, 2)]), (1, 3, 3))
        assert find_blind_spots(rep, max_report=cap) == []


class TestEncoderConnectivity:
    def test_single_position_blocks_disconnected(self):
        ok, witness = verify_encoder_connectivity((2, 2, 2), blocks_of([(1, 1, 1)]))
        assert not ok and witness is not None

    def test_full_volume_block_connected(self):
        ok, witness = verify_encoder_connectivity((2, 2, 2), blocks_of([(2, 2, 2)]))
        assert ok and witness is None

    def test_axis_stretching_layers_connect(self):
        blocks = blocks_of([(2, 1, 1), (1, 2, 1), (1, 1, 2)])
        ok, _ = verify_encoder_connectivity((2, 2, 2), blocks)
        assert ok

    def test_insufficient_layers_witnessed(self):
        ok, witness = verify_encoder_connectivity((2, 2, 2), blocks_of([(2, 1, 1)]))
        assert not ok
        p, q = witness
        assert p != q


class TestReportText:
    def test_mentions_schedule_and_counts(self):
        text = report_text((2, 4, 4), blocks_of([(2, 4, 4)]), (3, 3, 3),
                           enc_schedule=blocks_of([(2, 4, 4)]), max_pairs=4)
        assert "decoder schedule" in text
        assert "blind pairs:" in text
        assert "encoder connectivity: connected" in text

    def test_disconnected_witness_shown(self):
        text = report_text((2, 2, 2), blocks_of([(1, 1, 1)]), (3, 3, 3),
                           enc_schedule=blocks_of([(1, 1, 1)]), stack="encoder")
        assert "DISCONNECTED" in text


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def analyzer_cases(draw):
    """(slice shape, decoder schedule, encoder schedule, masked conv kernel)."""
    shape = tuple(draw(st.integers(1, 5)) for _ in range(3))

    def schedule():
        return [BlockShape(*(draw(st.sampled_from(_divisors(n))) for n in shape))
                for _ in range(draw(st.integers(0, 3)))]

    kernel = draw(st.tuples(*[st.sampled_from((1, 3, 5))] * 3))
    return shape, schedule(), schedule(), kernel


class TestPackedRows:
    """The packed-row analyzer against the bool-matrix references in
    ``helpers``."""

    @settings(max_examples=150, deadline=None)
    @given(case=analyzer_cases())
    # P < 8, one block spanning the slice, single-position encoder blocks
    @example(case=((1, 1, 5), blocks_of([(1, 1, 5)]), blocks_of([(1, 1, 1)]), (1, 3, 5)))
    # P = 27, not a multiple of 8; an encoder that never mixes along h and w
    @example(case=((3, 3, 3), blocks_of([(1, 3, 3), (3, 1, 3)]), blocks_of([(3, 1, 1)]),
                   (3, 3, 3)))
    @example(case=((2, 4, 4), blocks_of([(2, 4, 4), (1, 1, 1)]), blocks_of([(2, 4, 4)]),
                   (5, 5, 5)))
    @example(case=((1, 1, 1), blocks_of([(1, 1, 1)]), blocks_of([(1, 1, 1)]), (3, 3, 3)))
    # a (1, 1, 1) kernel leaves the masked conv no taps, so no conv edges
    @example(case=((2, 2, 2), blocks_of([(2, 2, 2)]), blocks_of([]), (1, 1, 1)))
    def test_matches_the_bool_reference(self, case):
        shape, dec, enc, kernel = case
        fast = dependency_graph(shape, dec, kernel)
        ref = bool_dependency_graph(shape, dec, kernel)
        assert fast.reach.dtype == bool and fast.reach.shape == ref.reach.shape
        assert np.array_equal(fast.reach, ref.reach)
        assert fast.blind_count() == ref.blind_count()
        every = fast.ordered_pair_count()
        assert find_blind_spots(fast, every) == find_blind_spots(ref, every)
        assert (verify_encoder_connectivity(shape, enc)
                == bool_verify_encoder_connectivity(shape, enc))

    @pytest.mark.parametrize("shape, kernel", [((1, 1, 5), (1, 3, 5)), ((3, 3, 3), (3, 3, 3)),
                                               ((2, 4, 4), (5, 5, 5)), ((2, 3, 5), (3, 5, 3))])
    def test_edges_are_the_packed_bool_edges(self, shape, kernel):
        bool_edges = bool_conv_window_edges(shape, kernel)
        assert np.array_equal(conv_window_edges(shape, kernel),
                              np.packbits(bool_edges, axis=1))

    @pytest.mark.parametrize("P", [1, 5, 8, 13, 16])
    def test_forward_check_is_the_upper_triangle(self, P):
        """Every single bit on or above the diagonal trips the check, and no
        bit below it does: the check is ``np.triu(reach).any()``."""
        assert not _reaches_forward(np.zeros((P, (P + 7) // 8), dtype=np.uint8))
        for p in range(P):
            for q in range(P):
                one = np.zeros((P, P), dtype=bool)
                one[p, q] = True
                assert _reaches_forward(np.packbits(one, axis=1)) == (q >= p), (p, q)

    def test_peak_memory_is_about_one_reach_matrix(self):
        """The packed rows are an eighth of the (P, P) bool ``reach``, so the
        only full-size array ``dependency_graph`` builds is the one it
        returns."""
        shape = (4, 16, 32)
        blocks = blocks_of([(4, 4, 8), (1, 16, 4), (2, 8, 8), (4, 4, 8)])
        tracemalloc.start()
        try:
            rep = dependency_graph(shape, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.reach.nbytes == 2048 * 2048
        assert peak <= 1.5 * rep.reach.nbytes, peak / rep.reach.nbytes
