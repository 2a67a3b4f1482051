"""Dependency analyzer: reachability vs gradients, blind spots, encoder
connectivity, monotonicity."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (bool_conv_window_edges, bool_dependency_graph, bool_find_blind_spots,
                     bool_verify_encoder_connectivity, gradient_reachability, packed_rows,
                     reach_matrix, traced_peak)
from svt.attention import BlockShape
from svt.connectivity import (DependencyReport, _reaches_forward, conv_window_edges,
                              dependency_graph, find_blind_spots, report_text,
                              verify_encoder_connectivity)
from svt.model import build_variant
from svt.tensor import ConfigError

GOLDEN = Path(__file__).resolve().parent / "golden"


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
        reach = reach_matrix(dependency_graph((2, 3, 3), [], (3, 3, 3)))
        # position (1,1,1) sees its 13 strictly-prior window taps, all in bounds
        p = 1 * 9 + 1 * 3 + 1
        assert reach[p].sum() == 13
        # origin sees nothing
        assert reach[0].sum() == 0

    def test_single_full_block_layer(self):
        """One full-volume causal layer: reach = union of strictly-prior conv
        windows over raster predecessors.  Not the full lower triangle: a
        pixel whose forward window lies entirely after p stays invisible (the
        raster-wrap blind spots the masked decoder has by construction)."""
        shape = (2, 4, 4)
        rep = dependency_graph(shape, blocks_of([shape]), (3, 3, 3))
        grad = gradient_reachability(shape, blocks_of([shape]), (3, 3, 3), seed=0)
        assert np.array_equal(reach_matrix(rep), grad)
        assert rep.blind_count() > 0  # e.g. ((0,1,0),(0,0,3)) is structural
        p = 1 * 4 + 0  # (0,1,0)
        q = 0 * 4 + 3  # (0,0,3)
        assert not reach_matrix(rep)[p, q]

    @pytest.mark.parametrize("case", CATALOG, ids=lambda c: f"{c[0]}-{len(c[1])}L-{c[2]}")
    def test_matches_gradient_sensitivity(self, case):
        shape, raw_blocks, kernel = case
        rep = dependency_graph(shape, blocks_of(raw_blocks), kernel)
        grad = gradient_reachability(shape, blocks_of(raw_blocks), kernel, seed=1)
        assert np.array_equal(reach_matrix(rep), grad)
        assert rep.blind_count() == np.count_nonzero(np.tril(~grad, k=-1))

    def test_never_reaches_forward(self):
        rep = dependency_graph((2, 4, 4), blocks_of([(2, 4, 4), (1, 2, 2)]), (3, 3, 3))
        assert not np.triu(reach_matrix(rep)).any()

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

    @pytest.mark.parametrize("cap", [0, -3])
    def test_non_positive_cap_scans_nothing(self, cap):
        """A cap of zero or less returns before the first diagonal: a report
        with no rows to read still lists nothing."""
        rep = DependencyReport((1, 4, 4), [], (1, 3, 3), reach=None)
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

    @pytest.mark.parametrize("stack", ["both ", "Encoder", ""])
    def test_unknown_stack_is_a_config_error(self, stack):
        """A misspelt stack is an error, not a report of the slice shape alone."""
        with pytest.raises(ConfigError, match=repr(stack)):
            report_text((2, 4, 4), blocks_of([(2, 4, 4)]), (3, 3, 3),
                        enc_schedule=blocks_of([(2, 4, 4)]), stack=stack)

    @pytest.mark.parametrize("stack", ["both", "encoder"])
    def test_encoder_stack_needs_an_encoder_schedule(self, stack):
        with pytest.raises(ConfigError, match="no encoder schedule"):
            report_text((2, 4, 4), blocks_of([(2, 4, 4)]), (3, 3, 3), stack=stack)

    def test_decoder_stack_needs_no_encoder_schedule(self):
        text = report_text((2, 4, 4), blocks_of([(2, 4, 4)]), (3, 3, 3), stack="decoder")
        assert "blind pairs:" in text and "encoder" not in text

    def test_paper_scale_slice_matches_the_recorded_text(self):
        """The default spatiotemporal build of a 16x128x128 video has a
        4x64x64 slice, P = 16384.  Its analysis is the recorded text, and the
        run's peak allocation is at most twice the packed rows (the bool
        (P, P) matrix alone would be 256 MiB)."""
        cfg = build_variant("spatiotemporal", (16, 128, 128))
        P = int(np.prod(cfg.slice_shape))
        text, peak = traced_peak(report_text, cfg.slice_shape, cfg.dec_schedule, cfg.mconv,
                                 enc_schedule=cfg.enc_schedule, max_pairs=8, stack="both")
        assert text.encode() == (GOLDEN / "analyze-16x128x128.txt").read_bytes()
        assert peak <= 2 * P * -(-P // 64) * 8, peak / 2**20


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
    # P = 63, 64, 65, 127, 128 and 129: rows of one word, one word and a bit,
    # two words, and two words and a bit
    @example(case=((1, 7, 9), blocks_of([(1, 7, 3), (1, 1, 9)]), blocks_of([(1, 7, 1), (1, 1, 9)]),
                   (3, 3, 3)))
    @example(case=((1, 8, 8), blocks_of([(1, 8, 8)]), blocks_of([(1, 2, 8), (1, 8, 2)]),
                   (1, 3, 3)))
    @example(case=((1, 5, 13), blocks_of([(1, 5, 1), (1, 1, 13)]), blocks_of([(1, 5, 1)]),
                   (3, 5, 5)))
    @example(case=((1, 1, 127), blocks_of([(1, 1, 127)]), blocks_of([(1, 1, 127)]), (1, 1, 5)))
    @example(case=((2, 8, 8), blocks_of([(2, 4, 4), (1, 8, 8)]), blocks_of([(2, 1, 1), (1, 8, 8)]),
                   (3, 3, 3)))
    @example(case=((1, 3, 43), blocks_of([(1, 3, 1), (1, 1, 43)]), blocks_of([(1, 1, 43)]),
                   (1, 3, 3)))
    def test_matches_the_bool_reference(self, case):
        shape, dec, enc, kernel = case
        fast = dependency_graph(shape, dec, kernel)
        ref = bool_dependency_graph(shape, dec, kernel)
        P = len(ref)
        assert fast.reach.dtype == np.uint8 and fast.reach.shape == (P, 8 * -(-P // 64))
        assert np.array_equal(fast.reach, packed_rows(ref))  # pad bits included
        assert fast.blind_count() == np.count_nonzero(np.tril(~ref, k=-1))
        every = fast.ordered_pair_count()
        assert find_blind_spots(fast, every) == bool_find_blind_spots(shape, ref, every)
        assert (verify_encoder_connectivity(shape, enc)
                == bool_verify_encoder_connectivity(shape, enc))

    @pytest.mark.parametrize("shape, kernel", [((1, 1, 5), (1, 3, 5)), ((3, 3, 3), (3, 3, 3)),
                                               ((2, 4, 4), (5, 5, 5)), ((2, 3, 5), (3, 5, 3)),
                                               ((1, 5, 13), (3, 5, 5)), ((1, 3, 43), (3, 3, 3))])
    def test_edges_are_the_packed_bool_edges(self, shape, kernel):
        bool_edges = bool_conv_window_edges(shape, kernel)
        assert np.array_equal(conv_window_edges(shape, kernel), packed_rows(bool_edges))

    @pytest.mark.parametrize("P", [1, 5, 8, 13, 16, 63, 64, 65, 127, 128, 129])
    def test_forward_check_is_the_upper_triangle(self, P):
        """Every single bit on or above the diagonal trips the check, and no
        bit below it does: the check is ``np.triu(reach).any()``."""
        rows = packed_rows(np.zeros((P, P), dtype=bool))
        assert not _reaches_forward(rows)
        for p in range(P):
            for q in range(P):
                rows[p, q >> 3] = 0x80 >> (q & 7)  # the one bit (p, q), as np.packbits sets it
                assert _reaches_forward(rows) == (q >= p), (p, q)
                rows[p, q >> 3] = 0

    def test_peak_memory_is_about_one_reach_matrix(self):
        """The packed rows are the one (P, P)-sized array ``dependency_graph``
        builds; besides them it holds the (P, taps) conv index map, O(P)
        per-tap indices and O(P^2 / 64) bytes of forward-check masks, here
        less than two more row-sized arrays.  (The bool (P, P) matrix alone
        would be 8 times the rows.)"""
        shape = (4, 16, 32)
        blocks = blocks_of([(4, 4, 8), (1, 16, 4), (2, 8, 8), (4, 4, 8)])
        rep, peak = traced_peak(dependency_graph, shape, blocks)
        assert rep.reach.nbytes == 2048 * 2048 // 8
        assert peak <= 3 * rep.reach.nbytes, peak / rep.reach.nbytes
