"""Static reachability analysis for masked block-local attention schedules.

The analyzer answers, without running the network: which input pixels can
influence the decoder state at each position, where are the blind spots
(ordered pairs the masking makes structurally independent), and does an
unmasked encoder schedule connect every pair of positions?

Block layout and conv windows are the model's own: blocks are the raster
grid of ``BlockShape.divide`` with slots in raster order within a block, as
``attention.block_slots`` numbers them, and window taps come from
``tensor.masked_conv_windows``, so the analyzer cannot drift from the layers
it describes.

Semantics match gradient sensitivity exactly.  A pixel enters the stack only
through the masked convolution in front of it (strictly-preceding window
positions; the center is excluded), so the input-influence relation is the
composition of those window edges with the attention reachability, where a
causal layer lets information flow from j to p iff both share a block and
j's raster index is <= p's.  Residual connections make every layer keep what
a position already reached.

Reach sets are packed bit rows: row p is ``np.packbits`` of the P-long bool
set of inputs that influence p, zero-padded to whole 64-bit words (bit q in
byte ``q >> 3`` under mask ``0x80 >> (q & 7)``), and every merge ORs whole
rows through a ``uint64`` view, which gives the same bytes in either byte
order.  A causal layer reshapes the rows so that each axis splits into
(block, offset); one slot of every block is then a strided (blocks, words)
view, and the layer ORs each slot into the next in raster order, in place,
with no gather or scatter.  The encoder check keeps one row per block: after
an unmasked layer all positions of a block reach the same set, so a block of
the next layer ORs the rows of the previous blocks it overlaps, one grid axis
at a time, O(blocks * P/64) per layer.  ``DependencyReport.reach`` is the
(P, 8 * ceil(P/64)) uint8 rows; ``blind_count`` is their popcount, and the
blind-spot scan and the no-forward-influence check read their bits.  No
(P, P) bool matrix is built.
"""

from dataclasses import dataclass

import numpy as np

from .attention import block_slots
from .subscale import BlockShape
from .tensor import ConfigError, masked_conv_windows


def _blocks(schedule):
    """BlockShapes of a schedule of BlockShapes or layer specs."""
    return [b.block if hasattr(b, "block") else b for b in schedule]


def _raster_coords(slice_shape, pid):
    return tuple(int(c) for c in np.unravel_index(pid, slice_shape))


def _bit(q):
    """(byte column, uint8 mask) of bit q in a packed row."""
    q = np.asarray(q)
    return q >> 3, (0x80 >> (q & 7)).astype(np.uint8)


def _zero_rows(n, P):
    """(n, 8 * ceil(P/64)) empty packed rows."""
    return np.zeros((n, 8 * -(-P // 64)), dtype=np.uint8)


def conv_window_edges(slice_shape, kernel):
    """(P, 8 * ceil(P/64)) packed rows: bit q of row p set iff q is a
    strictly-preceding window tap of p."""
    windows = masked_conv_windows(kernel, slice_shape)
    P = len(windows)
    edges = _zero_rows(P, P)
    for taps in windows.T:  # a tap sets at most one bit per row
        p = np.flatnonzero(taps < P)  # row P of the window is zero padding
        col, mask = _bit(taps[p])
        edges[p, col] |= mask
    return edges


def _causal_layer(words, slice_shape, bs):
    """One causal attention layer over (P, words) uint64 rows, in place: the
    slots of every block, in raster order, each OR in the slot before."""
    (nt, nh, nw), (bt, bh, bw) = bs.divide(slice_shape), bs
    v = words.reshape(nt, bt, nh, bh, nw, bw, -1)
    slots = [v[:, t, :, h, :, w] for t, h, w in np.ndindex(bt, bh, bw)]  # (blocks, words) each
    for prev, cur in zip(slots, slots[1:]):
        cur |= prev


# _BELOW[r]: the bits at offsets 0..r-1 of a 64-bit word of a packed row
_BELOW = np.packbits(np.tri(64, k=-1, dtype=bool), axis=1).view(np.uint64)[:, 0]


def _reaches_forward(reach):
    """Does any packed row p hold a bit q >= p?"""
    words = reach.view(np.uint64)
    p = np.arange(len(words))
    later = ~np.tri(words.shape[1], dtype=bool).repeat(64, axis=0)[:len(p)]  # words after p's
    return bool((words[p, p >> 6] & ~_BELOW[p & 63]).any()  # bits >= p of p's own word
                or (words.astype(bool) & later).any())


@dataclass
class DependencyReport:
    slice_shape: tuple
    schedule: list            # list of BlockShape
    kernel: tuple
    reach: np.ndarray         # (P, 8 * ceil(P/64)) uint8 packed rows: row p holds
                              # the inputs q that influence position p

    def raster_coords(self, pid):
        return _raster_coords(self.slice_shape, pid)

    def blind_count(self):
        """Number of ordered pairs (p, q), q before p, with no influence path
        (``reach`` holds nothing on or above the diagonal)."""
        return self.ordered_pair_count() - int(
            np.bitwise_count(self.reach.view(np.uint64)).sum(dtype=np.int64))

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
        _causal_layer(reach.view(np.uint64), tuple(slice_shape), bs)
    # masking can never create forward influence
    assert not _reaches_forward(reach)
    return DependencyReport(tuple(slice_shape), blocks, tuple(kernel), reach)


def find_blind_spots(report, max_report=32):
    """At most ``max_report`` blind pairs (p, q) as coordinate tuples,
    nearest raster distance first."""
    if max_report <= 0:
        return []
    P = len(report.reach)
    out = []
    for d in range(1, P):
        ps = np.arange(d, P)
        col, mask = _bit(ps - d)
        for p in ps[(report.reach[ps, col] & mask) == 0]:
            if len(out) >= max_report:
                return out
            out.append((report.raster_coords(int(p)), report.raster_coords(int(p - d))))
    return out


def verify_encoder_connectivity(slice_shape, schedule):
    """Does the unmasked layer graph connect every ordered position pair?

    Returns (True, None) or (False, (p, q)) with an unconnected witness pair
    in raster coordinates.
    """
    shape = tuple(slice_shape)
    P = int(np.prod(shape))
    blocks = _blocks(schedule) or [BlockShape(1, 1, 1)]  # (1, 1, 1) blocks mix nothing
    owner, _ = block_slots(shape, blocks[0])
    rows = _zero_rows(owner[-1] + 1, P)
    col, mask = _bit(np.arange(P))
    np.bitwise_or.at(rows, (owner, col), mask)  # a block reaches its own positions
    rows = rows.reshape(*blocks[0].divide(shape), -1)
    for old, new in zip(blocks, blocks[1:]):
        # a new block ORs the rows of the old blocks it overlaps, one axis at a time
        # (OR is idempotent, so a shorter run of old blocks repeats its last one)
        for axis, (n, bo, bn) in enumerate(zip(shape, old, new)):
            if bo == bn:
                continue
            j = np.arange(n // bn)
            first, last = j * bn // bo, ((j + 1) * bn - 1) // bo
            merged = rows.take(first, axis=axis)
            for k in range(1, int((last - first).max()) + 1):
                merged |= rows.take(np.minimum(first + k, last), axis=axis)
            rows = merged
    rows = rows.reshape(-1, rows.shape[-1])
    full = np.bitwise_count(rows.view(np.uint64)).sum(axis=1) == P
    if full.all():
        return True, None
    b = int(np.argmin(full))  # its corner is the first position that misses some q
    corner = np.unravel_index(b, blocks[-1].divide(shape))
    p = tuple(int(i) * e for i, e in zip(corner, blocks[-1]))
    q = int(np.argmin(np.unpackbits(rows[b], count=P)))
    return False, (p, _raster_coords(shape, q))


def report_text(slice_shape, dec_schedule, kernel, enc_schedule=None,
                max_pairs=16, stack="both"):
    """Human-readable analysis: schedule echo, verdicts, blind spots.

    ``stack`` is "decoder", "encoder" or "both"; a stack with the encoder
    needs ``enc_schedule``.
    """
    if stack not in ("both", "decoder", "encoder"):
        raise ConfigError(f"unknown stack {stack!r}: expected both, decoder or encoder")
    if stack != "decoder" and enc_schedule is None:
        raise ConfigError(f"stack {stack!r} includes the encoder, but no encoder schedule "
                          "was given")
    fmt_blocks = lambda sched: " ".join(map(str, _blocks(sched)))
    lines = [f"slice shape: {tuple(slice_shape)}"]
    if stack != "encoder":
        report = dependency_graph(slice_shape, dec_schedule, kernel)
        blind = report.blind_count()
        lines.append(f"decoder schedule: {fmt_blocks(dec_schedule)}")
        lines.append(f"masked conv kernel: {tuple(kernel)}")
        lines.append(f"blind pairs: {blind} of {report.ordered_pair_count()} ordered pairs")
        for p, q in find_blind_spots(report, max_pairs):
            lines.append(f"  blind: p={p} cannot see q={q}")
    if stack != "decoder":
        ok, witness = verify_encoder_connectivity(slice_shape, enc_schedule)
        lines.append(f"encoder schedule: {fmt_blocks(enc_schedule)}")
        if ok:
            lines.append("encoder connectivity: connected")
        else:
            lines.append(f"encoder connectivity: DISCONNECTED witness p={witness[0]} q={witness[1]}")
    return "\n".join(lines) + "\n"
