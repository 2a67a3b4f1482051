"""Static reachability analysis for masked block-local attention schedules.

The analyzer answers, without running the network: which input pixels can
influence the decoder state at each position, where are the blind spots
(ordered pairs the masking makes structurally independent), and does an
unmasked encoder schedule connect every pair of positions?

Block layout and conv windows are the model's own: positions are grouped
by ``attention.block_slots`` and window taps come from
``tensor.masked_conv_windows``, so the analyzer cannot drift from the
layers it describes.

Semantics match gradient sensitivity exactly.  A pixel enters the stack only
through the masked convolution in front of it (strictly-preceding window
positions; the center is excluded), so the input-influence relation is the
composition of those window edges with the attention reachability, where a
causal layer lets information flow from j to p iff both share a block and
j's raster index is <= p's.  Residual connections make every layer keep what
a position already reached.
"""

from dataclasses import dataclass

import numpy as np

from .attention import block_slots
from .tensor import masked_conv_windows


def _blocks(schedule):
    """BlockShapes of a schedule of BlockShapes or layer specs."""
    return [b.block if hasattr(b, "block") else b for b in schedule]


def _raster_coords(slice_shape, pid):
    return tuple(int(c) for c in np.unravel_index(pid, slice_shape))


def _block_index_groups(slice_shape, bs):
    """(num_blocks, n_p) position ids, raster-ordered within each block."""
    block, slot = block_slots(slice_shape, bs)
    groups = np.empty((len(block) // bs.size, bs.size), dtype=np.int64)
    groups[block, slot] = np.arange(len(block))
    return groups


def conv_window_edges(slice_shape, kernel):
    """(P, P) bool: [p, q] True iff q is a strictly-preceding window tap of p."""
    windows = masked_conv_windows(kernel, slice_shape)
    P = len(windows)
    edges = np.zeros((P, P), dtype=bool)
    rows, taps = np.nonzero(windows < P)  # row P of the window is zero padding
    edges[rows, windows[rows, taps]] = True
    return edges


def _apply_attention(reach, groups, causal):
    """One attention layer over per-position reach sets, in place."""
    flat = groups.reshape(-1)
    rows = reach[flat].reshape(groups.shape[0], groups.shape[1], -1)
    if causal:
        np.logical_or.accumulate(rows, axis=1, out=rows)
    else:
        rows |= rows.any(axis=1, keepdims=True)
    reach[flat] = rows.reshape(len(flat), -1)


@dataclass
class DependencyReport:
    slice_shape: tuple
    schedule: list            # list of BlockShape
    kernel: tuple
    reach: np.ndarray         # (P, P) bool, [p, q]: input q influences position p

    def raster_coords(self, pid):
        return _raster_coords(self.slice_shape, pid)

    def blind_count(self):
        """Number of ordered pairs (p, q), q before p, with no influence path
        (``reach`` holds nothing on or above the diagonal)."""
        return self.ordered_pair_count() - int(np.count_nonzero(self.reach))

    def ordered_pair_count(self):
        P = len(self.reach)
        return P * (P - 1) // 2


def dependency_graph(slice_shape, schedule, kernel=(3, 3, 3)):
    """Layered input-influence reachability for a masked decoder stack.

    ``schedule``: iterable of BlockShape (or anything with a ``block``
    attribute).  Layer 0 is the masked convolution window; every attention
    layer then merges reach sets forward in raster order within its blocks.
    """
    blocks = _blocks(schedule)
    reach = conv_window_edges(tuple(slice_shape), tuple(kernel))
    for bs in blocks:
        groups = _block_index_groups(tuple(slice_shape), bs)
        _apply_attention(reach, groups, causal=True)
    report = DependencyReport(tuple(slice_shape), blocks, tuple(kernel), reach)
    # masking can never create forward influence
    assert not np.triu(reach).any()
    return report


def find_blind_spots(report, max_report=32):
    """At most ``max_report`` blind pairs (p, q) as coordinate tuples,
    nearest raster distance first."""
    P = len(report.reach)
    out = []
    for d in range(1, P):
        ps = np.arange(d, P)
        blind = ~report.reach[ps, ps - d]
        for p in ps[blind]:
            if len(out) >= max_report:
                return out
            out.append((report.raster_coords(int(p)), report.raster_coords(int(p - d))))
    return out


def verify_encoder_connectivity(slice_shape, schedule):
    """Does the unmasked layer graph connect every ordered position pair?

    Returns (True, None) or (False, (p, q)) with an unconnected witness pair
    in raster coordinates.
    """
    P = int(np.prod(slice_shape))
    reach = np.eye(P, dtype=bool)
    for bs in _blocks(schedule):
        groups = _block_index_groups(tuple(slice_shape), bs)
        _apply_attention(reach, groups, causal=False)
    if reach.all():
        return True, None
    p, q = np.argwhere(~reach)[0]
    return False, (_raster_coords(slice_shape, p), _raster_coords(slice_shape, q))


def report_text(slice_shape, dec_schedule, kernel, enc_schedule=None,
                max_pairs=16, stack="both"):
    """Human-readable analysis: schedule echo, verdicts, blind spots."""
    fmt_blocks = lambda sched: " ".join(map(str, _blocks(sched)))
    lines = [f"slice shape: {tuple(slice_shape)}"]
    if stack in ("both", "decoder"):
        report = dependency_graph(slice_shape, dec_schedule, kernel)
        blind = report.blind_count()
        lines.append(f"decoder schedule: {fmt_blocks(dec_schedule)}")
        lines.append(f"masked conv kernel: {tuple(kernel)}")
        lines.append(f"blind pairs: {blind} of {report.ordered_pair_count()} ordered pairs")
        for p, q in find_blind_spots(report, max_pairs):
            lines.append(f"  blind: p={p} cannot see q={q}")
    if stack in ("both", "encoder") and enc_schedule is not None:
        ok, witness = verify_encoder_connectivity(slice_shape, enc_schedule)
        lines.append(f"encoder schedule: {fmt_blocks(enc_schedule)}")
        if ok:
            lines.append("encoder connectivity: connected")
        else:
            lines.append(f"encoder connectivity: DISCONNECTED witness p={witness[0]} q={witness[1]}")
    return "\n".join(lines) + "\n"
