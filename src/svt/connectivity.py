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

Reach sets are packed bit rows.  Row p holds ``np.packbits`` of the P-long
bool set of inputs that influence p: ceil(P/8) bytes, with bit q in byte
``q >> 3`` under mask ``0x80 >> (q & 7)`` and the pad bits of the last byte
always zero.  An attention layer gathers its blocks' rows into a (blocks,
slots, bytes) array and merges whole rows with byte-wise ORs: a causal layer
makes one ``rows[:, i] |= rows[:, i - 1]`` per block slot, in raster order,
and an unmasked layer gives every slot its block's ``np.bitwise_or.reduce``.
A layer so touches P * P / 8 bytes where a bool matrix took P * P.  The
conv edges and the identity are built packed, the no-forward-influence check
reads the packed rows, and ``dependency_graph`` unpacks once, into the (P, P)
bool ``DependencyReport.reach``.
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


def _bit(q):
    """(byte column, uint8 mask) of bit q in a packed row."""
    q = np.asarray(q)
    return q >> 3, (0x80 >> (q & 7)).astype(np.uint8)


def _packed_zeros(P):
    return np.zeros((P, (P + 7) // 8), dtype=np.uint8)


def conv_window_edges(slice_shape, kernel):
    """(P, ceil(P/8)) packed rows: bit q of row p set iff q is a
    strictly-preceding window tap of p."""
    windows = masked_conv_windows(kernel, slice_shape)
    P = len(windows)
    edges = _packed_zeros(P)
    rows, taps = np.nonzero(windows < P)  # row P of the window is zero padding
    col, mask = _bit(windows[rows, taps])
    np.bitwise_or.at(edges, (rows, col), mask)
    return edges


def _apply_attention(reach, groups, causal):
    """One attention layer over packed reach rows, in place."""
    rows = reach[groups]  # (num_blocks, n_p, bytes)
    if causal:
        for i in range(1, groups.shape[1]):
            rows[:, i] |= rows[:, i - 1]
    else:
        rows[:] = np.bitwise_or.reduce(rows, axis=1, keepdims=True)
    reach[groups] = rows


def _reaches_forward(reach):
    """Does any packed row p hold a bit q >= p?"""
    p = np.arange(len(reach))
    col, _ = _bit(p)
    later = np.arange(reach.shape[1]) > col[:, None]
    return bool((reach[p, col] & (0xFF >> (p & 7))).any() or np.any(reach, where=later))


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
    packed = conv_window_edges(tuple(slice_shape), tuple(kernel))
    for bs in blocks:
        groups = _block_index_groups(tuple(slice_shape), bs)
        _apply_attention(packed, groups, causal=True)
    # masking can never create forward influence
    assert not _reaches_forward(packed)
    reach = np.unpackbits(packed, axis=1, count=len(packed)).view(bool)
    return DependencyReport(tuple(slice_shape), blocks, tuple(kernel), reach)


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
    reach = _packed_zeros(P)
    col, mask = _bit(np.arange(P))
    reach[np.arange(P), col] = mask
    for bs in _blocks(schedule):
        groups = _block_index_groups(tuple(slice_shape), bs)
        _apply_attention(reach, groups, causal=False)
    full = (reach == np.packbits(np.ones(P, dtype=bool))).all(axis=1)
    if full.all():
        return True, None
    p = int(np.argmin(full))
    q = int(np.argmin(np.unpackbits(reach[p], count=P)))
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
