"""Shared test harnesses: the finite-difference gradient checker and the
``sum_all`` loss it checks through, graph walks (the nodes, the bytes a
graph keeps alive, and the backward sweep that keeps the graph for tests
that sweep it again), causality sweeps,
analyzer gradient oracles, bool-matrix analyzer references and the bool
form of the analyzer's packed rows, the full-recompute reference sampler,
the one-slice-per-call evaluator, and the reference and single-slice forms
of library functions that only tests use, among them the attention score
chain with the scale and the bias as nodes of their own, and hand-built bytes
of the framed file format."""

import struct
import zlib

import numpy as np

from svt import model as M
from svt import sampler
from svt import tensor as tc
from svt.attention import MASK_NEG, AttentionLayerSpec, attention_layer, block_slots
from svt.connectivity import _blocks, _raster_coords
from svt.metrics import EvalResult, bits_per_dim, copy_last_frame_baseline, nats_per_frame
from svt.subscale import (check_frame_left, extract_slice, primed_plane_mask, slice_order,
                          slice_rank, visibility_mask)
from svt.tensor import Tensor, masked_conv_windows


def grad_check(fn, inputs, eps=1e-3, max_entries=None, seed=0):
    """Max relative error between reverse-mode and central finite differences.

    ``fn`` maps the input Tensors to a scalar Tensor; inputs should be float64
    leaves with requires_grad=True.  Relative error uses max(1, |a|, |n|) in
    the denominator so near-zero gradients do not blow it up.  By default
    every coordinate is perturbed; ``max_entries`` caps the (seeded, random)
    coordinate sample per input, which keeps large composites affordable.
    """
    out = fn(*inputs)
    if out.data.shape != ():
        raise tc.ShapeError("grad_check needs a scalar-valued function")
    tc.zero_grads(inputs)
    tc.backward(out)
    analytic = [np.zeros_like(i.data) if i.grad is None else i.grad.copy()
                for i in inputs]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i, inp in enumerate(inputs):
        flat = inp.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_entries is not None and flat.size > max_entries:
            coords = rng.choice(flat.size, size=max_entries, replace=False)
        for j in coords:
            orig = flat[j]
            flat[j] = orig + eps
            hi = fn(*inputs).item()
            flat[j] = orig - eps
            lo = fn(*inputs).item()
            flat[j] = orig
            num = (hi - lo) / (2.0 * eps)
            ana = analytic[i].reshape(-1)[j]
            rel = abs(ana - num) / max(1.0, abs(ana), abs(num))
            worst = max(worst, rel)
    return worst


def sum_all(a):
    """The sum of every entry of ``a``, one graph node: the scalar loss of
    the gradient checks."""
    na = a.node

    def back(g):
        tc._accumulate(na, np.broadcast_to(g, na.shape).astype(na.dtype))

    return tc._make(a.data.sum(), (na,), back)


def graph_nodes(t):
    """Every graph node reachable from ``t``'s node, ``t``'s own first."""
    nodes, seen = [], set()
    stack = [] if t.node is None else [t.node]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        nodes.append(node)
        stack.extend(node.parents)
    return nodes


def clear_graph_grads(t):
    """Reset .grad on every node reachable from ``t`` so the same graph can
    be swept backward again with a different seed."""
    for node in graph_nodes(t):
        node.grad = None


def reference_backward(t, seed=None):
    """The reverse-mode sweep of ``tc.backward`` that leaves the graph in
    place: every closure stays, so tests that sweep one graph many times
    (clearing its gradients with ``clear_graph_grads`` in between) can.
    ``tc.backward`` releases each closure once it has run."""
    root = t.node
    if root is None:
        return
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in visited:
                stack.append((p, False))
    if seed is None:
        seed = np.ones(root.shape, root.dtype)
    tc._accumulate(root, np.asarray(seed, dtype=root.dtype))
    for node in reversed(topo):
        if node.backward is not None and node.grad is not None:
            node.backward(node.grad)
            node.grad = None


def graph_bytes(t):
    """Bytes of the distinct arrays that ``t``'s graph keeps alive: the
    arrays its backward closures hold (following tuples, lists and nested
    closures, not globals) and the gradient buffers, each view counted as
    the array that owns its memory.  ``t``'s own value counts only if a
    backward keeps it."""
    arrays, seen = {}, set()
    stack = [t]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            arrays[id(obj)] = obj
        elif isinstance(obj, Tensor):
            stack.append(obj.node)
        elif isinstance(obj, tc.Node):
            stack += [obj.backward, obj.grad, *obj.parents]
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack += [cell.cell_contents for cell in obj.__closure__]
    return sum(a.nbytes for a in arrays.values())


def block_coordinates(slice_shape, bs):
    """Global (t,h,w) of every block position: (num_blocks, n_p, 3) int array,
    blocks in ``block_partition`` order, raster order within a block."""
    nt, nh, nw = bs.divide(slice_shape)
    base = np.indices((nt, nh, nw)).reshape(3, -1).T * np.array(bs)
    local = np.indices(bs).reshape(3, -1).T
    return base[:, None, :] + local[None, :, :]


def relative_bias(bs, tables, i, j):
    """Scalar bias between in-block coordinates i and j (reference form)."""
    bt, bh, bw = tables
    dt, dh, dw = (i[0] - j[0], i[1] - j[1], i[2] - j[2])
    return float(bt[dt + bs.t - 1] + bh[dh + bs.h - 1] + bw[dw + bs.w - 1])


def mask_preceding(video, s, idx):
    """Zero out everything not in a strictly preceding slice.

    Returns (masked video, visibility mask).  Downstream the invisible
    positions become all-zero one-hot vectors, so a visible value-0 pixel
    (one-hot with a 1 in bin 0) stays distinguishable from padding.
    """
    vis = visibility_mask(video.shape, s, idx)
    masked = video * vis.reshape(vis.shape + (1,) * (video.ndim - 3)).astype(video.dtype)
    return masked, vis


def encode_slice(params, cfg, video, idx):
    """Single-slice ``encode_slices``; returns a (T',H',W',d) Tensor."""
    z = M.encode_slices(params, cfg, [Tensor(M.video_onehot(cfg, video))], [idx])
    return tc.reshape(z, z.data.shape[1:])


def decode_slice(params, cfg, slice_values, z):
    """Single-slice ``decode_slices`` on the main decoder: slice_values
    (T',H',W',nc) ints, z the (T',H',W',d) encoder output Tensor."""
    oh = tc.one_hot(np.asarray(slice_values), M.N_VALUES)
    x = Tensor(oh.reshape(1, *cfg.slice_shape, cfg.input_channels))
    zb = tc.reshape(z, (1,) + z.data.shape)
    y = M.decode_slices(params, cfg, x, zb, rank=1)  # rank > 0: the main decoder
    return tc.reshape(y, y.data.shape[1:])


def predict_channels(params, cfg, y_slice, channel_values):
    """Logits (P', n_channels, 16) for one decoded slice.

    ``channel_values``: (T',H',W',n_channels) ints; only channels before k
    feed channel k's head.
    """
    oh = Tensor(tc.one_hot(channel_values, M.N_VALUES))
    P = int(np.prod(cfg.slice_shape))
    flat = tc.reshape(oh, (1, P, cfg.n_channels * M.N_VALUES))
    logits = M.head_logits(params, cfg, y_slice, flat)
    return tc.reshape(logits, (P, cfg.n_channels, M.N_VALUES))


def allowed_influence_mask(cfg, idx, pixel, channel):
    """(T,H,W,n_channels) bool: inputs the order permits to reach this logit.

    Allowed: any channel of a pixel in a strictly preceding slice, any
    channel of a same-slice pixel strictly before ``pixel`` in raster order,
    and channels < ``channel`` of the pixel itself.
    """
    T, H, W = cfg.video_shape
    nc = cfg.n_channels
    allowed = np.zeros((T, H, W, nc), dtype=bool)
    allowed |= visibility_mask((T, H, W), cfg.s, idx)[..., None]
    a, b, c = idx
    Ts, Hs, Ws = cfg.slice_shape
    t, h, w = pixel // (Hs * Ws), (pixel // Ws) % Hs, pixel % Ws
    raster = np.arange(Ts * Hs * Ws).reshape(Ts, Hs, Ws)
    before = raster < raster[t, h, w]
    sl = (slice(a, None, cfg.s.t), slice(b, None, cfg.s.h), slice(c, None, cfg.s.w))
    allowed[sl] |= before[..., None]
    gt, gh, gw = t * cfg.s.t + a, h * cfg.s.h + b, w * cfg.s.w + c
    allowed[gt, gh, gw, :channel] = True
    return allowed


def causality_sweep(params, cfg, video, seed, on_violation=None):
    """Check every logit's input gradient against the generation order.

    Returns the number of (slice, pixel, channel) logit groups checked.
    Raises AssertionError on the first violation unless ``on_violation`` is
    given (then it is called with a description and the sweep continues).
    """
    rng = np.random.default_rng(seed)
    Ts, Hs, Ws = cfg.slice_shape
    P = Ts * Hs * Ws
    checked = 0
    for idx in slice_order(cfg.s):
        leaf = Tensor(M.video_onehot(cfg, video), requires_grad=True)
        _, _, logits = M.forward_slices(params, cfg, [video], [idx],
                                        prime_frames=0, onehots=[leaf])
        for pixel in range(P):
            for chan in range(cfg.n_channels):
                clear_graph_grads(logits)
                seed_grad = np.zeros_like(logits.data)
                seed_grad[0, pixel, chan, :] = rng.standard_normal(M.N_VALUES)
                reference_backward(logits, seed_grad)
                grad = np.abs(leaf.grad).sum(axis=-1)  # (T,H,W,nc)
                nonzero = grad > 0.0
                allowed = allowed_influence_mask(cfg, idx, pixel, chan)
                if not np.array_equal(nonzero, allowed):
                    msg = (f"slice {idx} pixel {pixel} channel {chan}: "
                           f"forbidden-but-nonzero={int((nonzero & ~allowed).sum())} "
                           f"allowed-but-zero={int((allowed & ~nonzero).sum())}")
                    if on_violation is None:
                        raise AssertionError(msg)
                    on_violation(msg)
                checked += 1
    return checked


def masked_decoder_stack(slice_shape, blocks, kernel, rng, d_in=3, d=6):
    """A random-parameter float64 masked decoder stack on a random input:
    the (1, T, H, W, d_in) input leaf and the (P, d) output."""
    T, H, W = slice_shape

    def p64(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)

    n_taps = len(tc.masked_taps(kernel))
    kern, kb = p64(n_taps * d_in, d), p64(d)
    specs = [AttentionLayerSpec(b, 2, 4) for b in blocks]
    layers = []
    for b in blocks:
        layers.append({
            "ln1_gain": p64(d), "ln1_bias": p64(d),
            "w_qkv": p64(d, 3 * 2 * 4), "w_p": p64(2 * 4, d),
            "bias_t": p64(2, 2 * b.t - 1), "bias_h": p64(2, 2 * b.h - 1),
            "bias_w": p64(2, 2 * b.w - 1),
            "ln2_gain": p64(d), "ln2_bias": p64(d),
            "t1": p64(d, d), "t2": p64(d, d)})
    x = Tensor(rng.standard_normal((1, T, H, W, d_in)), requires_grad=True,
               dtype=np.float64)
    y = tc.masked_conv3d(x, kern, kb, kernel)
    for spec, lp in zip(specs, layers):
        y = attention_layer(y, lp, spec, causal=True)
    return x, tc.reshape(y, (T * H * W, d))


def gradient_reachability(slice_shape, blocks, kernel, seed, d_in=3, d=6):
    """Oracle for the connectivity analyzer: the exact nonzero-gradient
    pattern of a random-parameter masked decoder stack, float64."""
    rng = np.random.default_rng(seed)
    x, yf = masked_decoder_stack(slice_shape, blocks, kernel, rng, d_in, d)
    P = yf.data.shape[0]
    reach = np.zeros((P, P), dtype=bool)
    for p in range(P):
        clear_graph_grads(yf)
        seed_grad = np.zeros((P, d))
        seed_grad[p] = rng.standard_normal(d)
        reference_backward(yf, seed_grad)
        reach[p] = np.abs(x.grad[0]).sum(axis=-1).reshape(P) > 0.0
    return reach


def reach_matrix(report):
    """(P, P) bool form of a ``DependencyReport``'s packed rows: [p, q] True
    iff input q influences position p."""
    return np.unpackbits(report.reach, axis=1, count=len(report.reach)).view(bool)


def packed_rows(matrix):
    """The analyzer's row layout of a (P, Q) bool matrix: ``np.packbits`` of
    each row, zero-padded to whole 64-bit words."""
    P, Q = matrix.shape
    padded = np.zeros((P, 64 * -(-Q // 64)), dtype=bool)
    padded[:, :Q] = matrix
    return np.packbits(padded, axis=1)


def block_index_groups(slice_shape, bs):
    """(num_blocks, n_p) position ids, raster-ordered within each block."""
    block, slot = block_slots(slice_shape, bs)
    groups = np.empty((len(block) // bs.size, bs.size), dtype=np.int64)
    groups[block, slot] = np.arange(len(block))
    return groups


def bool_conv_window_edges(slice_shape, kernel):
    """(P, P) bool: [p, q] True iff q is a strictly-preceding window tap of p.
    The bool form of ``connectivity.conv_window_edges``."""
    windows = masked_conv_windows(kernel, slice_shape)
    P = len(windows)
    edges = np.zeros((P, P), dtype=bool)
    rows, taps = np.nonzero(windows < P)  # row P of the window is zero padding
    edges[rows, windows[rows, taps]] = True
    return edges


def bool_apply_attention(reach, groups, causal):
    """One attention layer over per-position reach sets, in place: a causal
    layer gives each block slot the union of the slots up to it, an unmasked
    one gives every slot its block's union."""
    flat = groups.reshape(-1)
    rows = reach[flat].reshape(groups.shape[0], groups.shape[1], -1)
    if causal:
        np.logical_or.accumulate(rows, axis=1, out=rows)
    else:
        rows |= rows.any(axis=1, keepdims=True)
    reach[flat] = rows.reshape(len(flat), -1)


def bool_dependency_graph(slice_shape, schedule, kernel=(3, 3, 3)):
    """``connectivity.dependency_graph``'s reach as a (P, P) bool matrix."""
    reach = bool_conv_window_edges(tuple(slice_shape), tuple(kernel))
    for bs in _blocks(schedule):
        bool_apply_attention(reach, block_index_groups(tuple(slice_shape), bs), causal=True)
    # masking can never create forward influence
    assert not np.triu(reach).any()
    return reach


def bool_find_blind_spots(slice_shape, reach, max_report):
    """``connectivity.find_blind_spots`` on a (P, P) bool reach matrix."""
    P = len(reach)
    out = []
    for d in range(1, P):
        ps = np.arange(d, P)
        for p in ps[~reach[ps, ps - d]]:
            if len(out) >= max_report:
                return out
            out.append((_raster_coords(slice_shape, p), _raster_coords(slice_shape, p - d)))
    return out


def bool_verify_encoder_connectivity(slice_shape, schedule):
    """``connectivity.verify_encoder_connectivity`` on a (P, P) bool matrix."""
    P = int(np.prod(slice_shape))
    reach = np.eye(P, dtype=bool)
    for bs in _blocks(schedule):
        bool_apply_attention(reach, block_index_groups(tuple(slice_shape), bs), causal=False)
    if reach.all():
        return True, None
    p, q = np.argwhere(~reach)[0]
    return False, (_raster_coords(slice_shape, p), _raster_coords(slice_shape, q))


def add_at_conv_input_grad(x, kernel, g, taps, stride, pad):
    """Input gradient of a convolution in the ``np.add.at`` form: the
    reference for the per-tap scatter of ``tensor._conv_core``.  x: (B, T,
    H, W, Cin) array, kernel (K*Cin, Cout), g the (B, T', H', W', Cout)
    output gradient."""
    B, T, H, W, cin = x.shape
    n = T * H * W
    idx = tc._conv_index_map((T, H, W), taps, stride, pad, g.shape[1:4])
    gp = np.matmul(g.reshape(B, -1, g.shape[-1]), kernel.T).reshape(B, -1, cin)
    gflat = np.zeros((B, n + 1, cin), dtype=x.dtype)
    np.add.at(gflat, (slice(None), idx), gp)
    return gflat[:, :n].reshape(x.shape)


def mul_masked_conv3d(x, kernel, bias, extents, stride, pad, out_shape, visible):
    """``tc.conv3d`` of ``x`` multiplied by the (T, H, W) bool ``visible``:
    the masked copy that ``conv3d(..., visible=)`` reads without making."""
    mask = Tensor(visible[..., None].astype(x.data.dtype))
    return tc.conv3d(tc.mul(x, mask), kernel, bias, extents, stride, pad, out_shape)


def einsum_conv_kernel_grad(x, g, taps, stride, pad):
    """Kernel gradient of a convolution in the per-batch ``np.einsum`` form:
    the reference for the one-GEMM form of ``tensor._conv_core``.  x: (B, T,
    H, W, Cin) array, g the (B, T', H', W', Cout) output gradient; returns
    (K*Cin, Cout)."""
    B, T, H, W, cin = x.shape
    n = T * H * W
    idx = tc._conv_index_map((T, H, W), taps, stride, pad, g.shape[1:4])
    flat = np.concatenate([x.reshape(B, n, cin), np.zeros((B, 1, cin), x.dtype)], axis=1)
    patches = flat[:, idx, :].reshape(B, -1, len(taps) * cin)
    return np.einsum("bpi,bpo->io", patches, g.reshape(B, -1, g.shape[-1]))


def add_at_gather_grad(table, idx, g):
    """Table gradient of ``tensor.gather`` in the ``np.add.at`` form: the
    reference for its ``np.bincount`` backward."""
    gt = np.zeros_like(table)
    np.add.at(gt, np.asarray(idx), g)
    return gt


def batched_matmul(a, b):
    """``tensor.matmul`` with every product through ``np.matmul``'s batch
    loop and a broadcast operand's gradient summed by ``_unbroadcast``: the
    reference for the one-GEMM weight product."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise tc.ShapeError(f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}")
    out = np.matmul(a.data, b.data)
    na, nb, av, bv = a.node, b.node, a.data, b.data

    def back(g):
        if na is not None:
            tc._accumulate(na, tc._unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), na.shape))
        if nb is not None:
            tc._accumulate(nb, tc._unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), nb.shape))

    return tc._make(out, (na, nb), back)


def two_temporary_softmax(a, bias=None):
    """``tensor.softmax`` with one new array for the sum with ``bias``, one
    for the exponentials and one for the quotient, and no flush of subnormal
    values: the reference for the in-place, flushing form."""
    x = a.data if bias is None else a.data + bias.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)
    na, nbias = a.node, None if bias is None else bias.node

    def back(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        r = y * (g - dot)
        if nbias is not None:
            tc._accumulate(nbias, tc._unbroadcast(r, nbias.shape))
        tc._accumulate(na, r)

    return tc._make(y, (na, nbias), back)


def unflushed_cross_entropy(logits, targets, weights):
    """``tensor.cross_entropy`` without the flushes of subnormal gradient
    entries: its reference."""
    x = logits.data
    idx = np.asarray(targets)[..., None]
    w = np.asarray(weights, dtype=x.dtype)
    s = x - x.max(axis=-1, keepdims=True)
    ls = s - np.log(np.exp(s).sum(axis=-1, keepdims=True))
    na = logits.node

    def back(g):
        gp = (np.broadcast_to(-g, idx.shape[:-1]) * w)[..., None]
        gx = np.zeros(na.shape, na.dtype)
        np.put_along_axis(gx, idx, gp, axis=-1)
        tc._accumulate(na, gx - np.exp(ls) * gp)

    return tc._make(-(np.take_along_axis(ls, idx, axis=-1)[..., 0] * w).sum(), (na,), back)


def is_subnormal(x):
    """Where ``x`` is nonzero and smaller in magnitude than its dtype's
    smallest normal number."""
    return (x != 0) & (np.abs(x) < np.finfo(x.dtype).tiny)


def out_of_place_normalize(x):
    """(xhat, 1/std) over the last axis, each step a new array: the
    reference for the in-place normalisation of ``tensor.layernorm``."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(tc.LN_EPS, dtype=x.dtype))
    return xc * inv, inv


def out_of_place_layernorm_array(x, gain, bias):
    """The reference for ``tensor.layernorm_array``."""
    return out_of_place_normalize(x)[0] * gain + bias


def out_of_place_layernorm(a, gain, bias):
    """The reference for ``tensor.layernorm``."""
    xhat, inv = out_of_place_normalize(a.data)
    out = xhat * gain.data + bias.data
    na, ngain, nbias, gv = a.node, gain.node, bias.node, gain.data

    def back(g):
        if ngain is not None:
            tc._accumulate(ngain, tc._unbroadcast(g * xhat, ngain.shape))
        if nbias is not None:
            tc._accumulate(nbias, tc._unbroadcast(g, nbias.shape))
        if na is not None:
            dxhat = g * gv
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            tc._accumulate(na, inv * (dxhat - m1 - xhat * m2))

    return tc._make(out, (na, ngain, nbias), back)


def put_along_axis_one_hot(values, n, dtype=np.float32):
    """The reference for ``tensor.one_hot``: a zero array with a 1 put along
    the last axis."""
    values = np.asarray(values)
    out = np.zeros(values.shape + (n,), dtype=dtype)
    np.put_along_axis(out, values[..., None].astype(np.int64), 1.0, axis=-1)
    return out


def three_exp_sigmoid(x):
    """The reference for the forward of ``tensor.sigmoid``: the stable
    two-branch form with exp(-|x|) computed three times."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x)))).astype(x.dtype)


def zero_filled_index(a, key):
    """``tensor.index`` with a backward that writes the gradient into a new
    zero array of ``a``'s full shape and accumulates that: the reference for
    the backward that adds into ``a``'s own gradient buffer."""
    na, av = a.node, a.data

    def back(g):
        full = np.zeros_like(av)
        full[key] = g
        tc._accumulate(na, full)

    return tc._make(a.data[key], (na,), back)


REFERENCE_OPS = {"matmul": batched_matmul, "softmax": two_temporary_softmax,
                 "cross_entropy": unflushed_cross_entropy, "layernorm": out_of_place_layernorm,
                 "layernorm_array": out_of_place_layernorm_array, "index": zero_filled_index}


def unflushed_scale(a, c):
    """``tensor.mul`` of ``a`` by the constant ``c``, without the flush of
    subnormal gradient entries."""
    c = a.data.dtype.type(c)
    na = a.node
    return tc._make(a.data * c, (na,), lambda g: tc._accumulate(na, g * c))


def relative_bias_indices(bs):
    """Index matrices (n_p, n_p) into the (2t-1), (2h-1), (2w-1) bias tables:
    entry [i, j] of axis a's matrix is i_a - j_a + e_a - 1, for in-block
    raster positions i and j."""
    loc = np.indices(bs).reshape(3, -1).T  # in-block raster order
    delta = loc[:, None, :] - loc[None, :, :]  # i - j
    return tuple(delta[..., axis] + extent - 1 for axis, extent in enumerate(bs))


def gathered_relative_bias_matrix(bs, table_t, table_h, table_w, mask=None):
    """``attention.relative_bias_matrix`` as three (n_heads, n_p, n_p)
    ``tc.gather`` nodes (each of the rows of a transposed table), two
    ``tc.add`` nodes and, with ``mask``, a third ``tc.add`` of the additive
    mask: its reference."""
    def gathered(table, idx):
        return tc.transpose(tc.gather(tc.transpose(table, (1, 0)), idx), (2, 0, 1))

    it, ih, iw = relative_bias_indices(bs)
    bias = tc.add(tc.add(gathered(table_t, it), gathered(table_h, ih)), gathered(table_w, iw))
    if mask is not None:
        bias = tc.add(bias, Tensor(np.where(mask, 0.0, MASK_NEG).astype(bias.dtype)))
    return bias


def post_scaled_block_attention(z, w_qkv, bias, n_heads, d_head, record=None):
    """``attention.block_attention`` with the scores scaled by 1/sqrt(d_head)
    after the product, the bias added by its own ``tc.add`` node, and the
    two score products and the scale through unflushed ops
    (``batched_matmul``, ``unflushed_scale``): its reference."""
    G, n_p, d = z.data.shape
    qkv = tc.matmul(z, w_qkv)
    qkv = tc.reshape(qkv, (G, n_p, 3, n_heads, d_head))
    q, k, v = (tc.transpose(tc.index(qkv, np.s_[:, :, i]), (0, 2, 1, 3)) for i in range(3))
    if record is not None:
        record.append((np.array(k.data), np.array(v.data), bias.data))
    scores = unflushed_scale(batched_matmul(q, tc.transpose(k, (0, 1, 3, 2))),
                             1.0 / np.sqrt(d_head))
    att = tc.softmax(tc.add(scores, bias))
    out = tc.transpose(batched_matmul(att, v), (0, 2, 1, 3))
    return tc.reshape(out, (G, n_p, n_heads * d_head))


REFERENCE_ATTENTION = {"block_attention": post_scaled_block_attention,
                       "relative_bias_matrix": gathered_relative_bias_matrix}


def make_batches(n_videos, s, batch_size, seed):
    """Endless stream of [(video_index, slice_index), ...] batches: the
    reference for ``optim.batch_at``, whose step k is this stream's k-th batch.

    Every epoch reshuffles the full (video x slice) product with a seed
    derived from (seed, epoch), so the stream is reproducible.
    """
    if n_videos < 1:
        raise tc.ConfigError("empty dataset")
    order = slice_order(s)
    pairs = [(v, idx) for v in range(n_videos) for idx in order]
    epoch = 0
    while True:
        rng = np.random.default_rng((seed, epoch))
        perm = rng.permutation(len(pairs))
        for lo in range(0, len(pairs), batch_size):
            chunk = perm[lo:lo + batch_size]
            yield [pairs[i] for i in chunk]
        epoch += 1


def full_rescan_trunc_normal(rng, shape, std=0.02):
    """``model.trunc_normal`` with every round rescanning the whole array
    for out-of-range draws: the reference for the form that checks only the
    redrawn entries."""
    x = rng.standard_normal(shape) * std
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(x) > 2 * std
    return x.astype(np.float32)


def entry_bytes(name, tag, dims, payload, rank=None):
    """One entry of a framed file body, laid out by hand: the u32 name length,
    the name, the 3-byte dtype tag, the u32 rank (``len(dims)`` unless
    given), the u64 extents and ``payload``."""
    rank = len(dims) if rank is None else rank
    return (struct.pack(f"<I{len(name)}s3sI{len(dims)}Q", len(name), name, tag, rank, *dims)
            + payload)


def seal(magic, body, version=2):
    """A framed file of ``body``: the header ``data.read_arrays`` checks
    before it parses, with ``magic``, ``version`` and a valid CRC-32."""
    return magic + struct.pack("<II", version, zlib.crc32(body)) + body


def tiny_config(**overrides):
    """Small spatiotemporal config with no structural blind spots.

    Full-volume attention blocks plus a masked-conv kernel wide enough to
    hold every pixel's raster successor make the decoder realize the whole
    generation order, so "forbidden by the order" and "structurally absent"
    coincide and the causality sweep can assert exact equality.
    """
    kwargs = dict(d_e=12, d=16, n_heads=2, d_head=8, layers=2, seed=5,
                  kernel=(3, 3, 3))
    kwargs.update(overrides)
    video_shape = kwargs.pop("video_shape", (4, 8, 8))
    s = kwargs.pop("s", (2, 2, 2))
    cfg = M.build_variant("spatiotemporal", video_shape, s=s, **kwargs)
    Ts, Hs, Ws = cfg.slice_shape
    kwargs.setdefault("mconv", (3, 2 * Hs - 1, 2 * Ws - 1))
    full = [cfg.slice_shape] * len(cfg.enc_schedule)
    return M.build_variant("spatiotemporal", video_shape, s=s,
                           enc_blocks=full, dec_blocks=full, **kwargs)


def reference_sample_slice(params, cfg, canvas, idx, scfg, video_index=0):
    """The full-recompute form of ``sampler.sample_slice``: the whole decoder
    runs again for every pixel, with no cache, and channel c's logits come
    from the teacher-forced ``model.head_logits`` on the values drawn so
    far.  Same streams and output; draws go through
    ``sampler.sample_categorical``."""
    Ts, Hs, Ws = cfg.slice_shape
    rank = slice_rank(cfg.s, idx)
    primed = primed_plane_mask(cfg.s, idx, Ts, scfg.prime_frames)
    chans = M.split_channels(extract_slice(canvas, cfg.s, idx)).astype(np.int64)
    chans[~primed] = 0  # not yet generated
    if primed.all():
        return chans
    with tc.no_grad():
        z = M.encode_slices(params, cfg, [Tensor(M.video_onehot(cfg, canvas))], [idx])
        for t in range(Ts):
            if primed[t]:
                continue
            for h in range(Hs):
                for w in range(Ws):
                    pixel = (t * Hs + h) * Ws + w
                    oh = tc.one_hot(chans, M.N_VALUES)
                    x = Tensor(oh.reshape(1, Ts, Hs, Ws, cfg.input_channels))
                    y = M.decode_slices(params, cfg, x, z, rank)
                    if cfg.head == "categorical":
                        vals = chans[t, h, w]
                        for c in range(cfg.n_channels):
                            # teacher forcing on the values drawn so far
                            oh = tc.one_hot(chans, M.N_VALUES).reshape(1, -1, cfg.input_channels)
                            logits = M.head_logits(params, cfg, y, Tensor(oh)).data[0, pixel, c]
                            stream = sampler._position_stream(scfg.seed, video_index,
                                                              rank, pixel, c)
                            vals[c] = sampler.sample_categorical(logits, scfg.temperature,
                                                                 stream)
                    else:
                        y_vec = y.data.reshape(Ts * Hs * Ws, cfg.d)[pixel]
                        x = M.head_intensity(params, cfg, Tensor(y_vec[None, None]))
                        byte = round(float(x.data[0, 0, 0]) * 255.0)
                        chans[t, h, w] = M.split_channels(np.array([byte], dtype=np.uint8))
    return chans


def clamped_baseline(videos, prime_frames):
    """``metrics.copy_last_frame_baseline`` with its own clamped binary
    cross-entropy formula in place of ``tc.binary_cross_entropy``: its
    reference."""
    total = 0.0
    frames = 0
    for v in videos:
        z = v.astype(np.float64) / 255.0
        for t in range(max(prime_frames, 1), v.shape[0]):
            y = np.clip(z[t - 1], 1e-7, 1.0 - 1e-7)
            total += -(z[t] * np.log(y) + (1.0 - z[t]) * np.log(1.0 - y)).sum()
            frames += 1
    return float(total / frames)


def reference_evaluate(params, cfg, videos, prime_frames):
    """The one-slice-per-call form of ``metrics.evaluate``: one B=1
    ``forward_slices`` per (video, slice) pair, losses added in float64 in
    canonical order.  Reports no per-rank fields."""
    T = cfg.video_shape[0]
    check_frame_left(prime_frames, T, "evaluate")
    total = 0.0
    pixels = 0.0
    for video in videos:
        cfg.check_video(video)
        for idx in slice_order(cfg.s):
            with tc.no_grad():
                loss, n_pix, _ = M.forward_slices(params, cfg, [video], [idx],
                                                  prime_frames=prime_frames)
            total += loss.item()
            pixels += n_pix
    if cfg.head == "categorical":
        dims = cfg.bytes_per_pixel * pixels
        return EvalResult(total, pixels, dims,
                          bits_per_dim=bits_per_dim(total, pixels, cfg.bytes_per_pixel))
    frames = len(videos) * (T - prime_frames)
    return EvalResult(total, pixels, pixels,
                      frames=frames,
                      nats_per_frame=nats_per_frame(total, frames),
                      baseline_nats_per_frame=copy_last_frame_baseline(videos, prime_frames))
