"""Block-local multi-head self-attention over 3D volumes.

Each layer partitions a (T', H', W') slice into non-overlapping blocks of a
per-layer shape, runs pre-layernorm multi-head attention with an additive
per-axis relative-distance bias inside every block, projects and adds the
residual, then applies a two-matrix ReLU feed-forward with its own residual.
Varying block shapes between layers is what propagates information across
blocks; blocks never overlap.

Masked (decoder) layers allow position i to attend to j iff j's global
raster index is <= i's.  Attending to self is safe because the decoder input
representation never contains the current pixel's value (the masked
convolution in front of the stack excludes its center).
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import tensor as tc
from .subscale import BlockShape

MASK_NEG = -1e9  # additive pre-softmax value for disallowed pairs


@dataclass(frozen=True)
class AttentionLayerSpec:
    block: BlockShape
    n_heads: int
    d_head: int


def block_partition(x, bs):
    """(B, T', H', W', d) -> (B*num_blocks, n_p, d), raster within blocks."""
    B, *slice_shape, d = x.data.shape
    nt, nh, nw = bs.divide(slice_shape)
    x = tc.reshape(x, (B, nt, bs.t, nh, bs.h, nw, bs.w, d))
    x = tc.transpose(x, (0, 1, 3, 5, 2, 4, 6, 7))
    return tc.reshape(x, (B * nt * nh * nw, bs.size, d))


def block_merge(x, bs, slice_shape, batch):
    """Inverse of block_partition."""
    nt, nh, nw = bs.divide(slice_shape)
    d = x.data.shape[-1]
    x = tc.reshape(x, (batch, nt, nh, nw, bs.t, bs.h, bs.w, d))
    x = tc.transpose(x, (0, 1, 4, 2, 5, 3, 6, 7))
    return tc.reshape(x, (batch, *slice_shape, d))


@cache
def _axis_distance_indices(bs):
    """Per axis of extent e, the (e, e) index matrix i - j + e - 1 into that
    axis's bias table.  Cached per block shape; the arrays are read-only."""
    return tuple(tc.read_only(np.subtract.outer(np.arange(e), np.arange(e)) + e - 1)
                 for e in bs)


def relative_bias_matrix(bs, table_t, table_h, table_w, mask=None):
    """(n_heads, n_p, n_p) additive bias: the sum of the per-axis distance
    terms, plus ``MASK_NEG`` where the boolean (n_p, n_p) ``mask``
    (``causal_mask``) forbids a pair.

    One graph node.  The forward broadcast-adds each axis's (e, e) terms
    over the block's (t, h, w) x (t, h, w) grid, so the t and h terms are
    added before the w term, as three (n_p, n_p) gathers would.  The
    backward reads the same layout: per axis, it sums the gradient in
    float64 to (n_heads, e, e), as two products with the (n_p, e) one-hot of
    each position's coordinate on that axis, then adds those entries into
    the table with one small ``np.bincount``.
    """
    nodes = (table_t.node, table_h.node, table_w.node)
    n_heads = table_t.data.shape[0]
    it, ih, iw = _axis_distance_indices(bs)
    bt = np.take(table_t.data, it, axis=1)[:, :, None, None, :, None, None]
    bh = np.take(table_h.data, ih, axis=1)[:, None, :, None, None, :, None]
    bw = np.take(table_w.data, iw, axis=1)[:, None, None, :, None, None, :]
    out = ((bt + bh) + bw).reshape(n_heads, bs.size, bs.size)
    if mask is not None:
        out += np.where(mask, 0.0, MASK_NEG).astype(out.dtype)

    def back(g):
        g = g.astype(np.float64)
        loc = np.indices(bs).reshape(3, -1)  # each block position's (t, h, w)
        for node, idx, e, coord in zip(nodes, (it, ih, iw), bs, loc):
            if node is not None:
                sel = np.eye(e)[coord]  # (n_p, e): one-hot of each position's coordinate
                ge = sel.T @ (g @ sel)  # (n_heads, e, e): g summed per axis pair
                dest = idx + node.shape[1] * np.arange(n_heads)[:, None, None]
                gt = np.bincount(dest.ravel(), weights=ge.ravel(),
                                 minlength=n_heads * node.shape[1])
                tc._accumulate(node, gt.reshape(node.shape).astype(node.dtype))

    return tc._make(out, nodes, back)


@cache
def causal_mask(bs):
    """Boolean (n_p, n_p): entry [i, j] True iff i may attend to j.

    j is attendable iff its global raster index is <= i's.  Positions share
    their block, and in-block raster order is global raster order, so that
    is exactly j <= i in block order, whatever the block's offset.  Cached
    per block shape; the array is read-only.
    """
    return tc.read_only(np.tril(np.ones((bs.size, bs.size), dtype=bool)))


def block_attention(z, w_qkv, bias, n_heads, d_head, record=None):
    """Multi-head attention inside one block (or a stack of blocks).

    z: (G, n_p, d) pre-normalized block representations; ``bias`` the
    (n_heads, n_p, n_p) additive pre-softmax Tensor from
    ``relative_bias_matrix``, with the causal mask in a masked layer.  The
    queries are scaled by 1/sqrt(d_head) before the product, and ``bias``
    enters the softmax, so no pass over the scores is spent on either.
    Returns the concatenated head outputs (G, n_p, n_heads*d_head);
    projection and residual are the caller's job.  ``record``, when given,
    is a list that receives (keys, values, bias) arrays: keys and values
    (G, n_heads, n_p, d_head), bias the (n_heads, n_p, n_p) ``bias`` values.
    """
    G, n_p, d = z.data.shape
    qkv = tc.matmul(z, w_qkv)  # (G, n_p, 3*n_heads*d_head)
    qkv = tc.reshape(qkv, (G, n_p, 3, n_heads, d_head))
    # split before transposing, so the index nodes' parent is C-contiguous
    q, k, v = (tc.transpose(tc.index(qkv, np.s_[:, :, i]), (0, 2, 1, 3)) for i in range(3))
    if record is not None:
        record.append((np.array(k.data), np.array(v.data), bias.data))
    # no name holds the scaled queries, so without a graph they are freed
    # once the product is formed (on the canonical model they are as large
    # as the scores)
    scores = tc.matmul(tc.mul(q, 1.0 / np.sqrt(d_head)), tc.transpose(k, (0, 1, 3, 2)))
    att = tc.softmax(scores, bias=bias)  # bias broadcast over G
    out = tc.matmul(att, v)  # (G, heads, n_p, d_head)
    out = tc.transpose(out, (0, 2, 1, 3))
    return tc.reshape(out, (G, n_p, n_heads * d_head))


def attention_layer(x, params, spec, causal, record=None):
    """One full block-local layer on a (B, T', H', W', d) tensor.

    params is a mapping with keys ln1_gain, ln1_bias, w_qkv, w_p, bias_t,
    bias_h, bias_w, ln2_gain, ln2_bias, t1, t2.  A causal layer folds the
    mask (``causal_mask``) into the relative bias, so the scores get a
    single additive term.  ``record`` is passed to ``block_attention``.
    """
    B = x.data.shape[0]
    slice_shape = x.data.shape[1:4]
    bs = spec.block
    zb = block_partition(x, bs)
    normed = tc.layernorm(zb, params["ln1_gain"], params["ln1_bias"])
    bias = relative_bias_matrix(bs, params["bias_t"], params["bias_h"], params["bias_w"],
                                causal_mask(bs) if causal else None)
    heads = block_attention(normed, params["w_qkv"], bias, spec.n_heads, spec.d_head,
                            record)
    ztil = tc.add(tc.matmul(heads, params["w_p"]), zb)
    ff = tc.layernorm(ztil, params["ln2_gain"], params["ln2_bias"])
    ff = tc.matmul(tc.relu(tc.matmul(ff, params["t1"])), params["t2"])
    out = tc.add(ff, ztil)
    return block_merge(out, bs, slice_shape, B)


def block_slots(slice_shape, bs):
    """(block, slot) of every raster position of a slice: the group of
    ``block_partition``'s output that holds it (batch 1), and its index
    within that block."""
    _, nh, nw = bs.divide(slice_shape)
    t, h, w = np.indices(slice_shape).reshape(3, -1)
    block = ((t // bs.t) * nh + h // bs.h) * nw + w // bs.w
    slot = ((t % bs.t) * bs.h + h % bs.h) * bs.w + w % bs.w
    return block, slot

