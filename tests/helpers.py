"""Shared test harnesses: the finite-difference gradient checker, causality
sweeps, analyzer gradient oracles, the full-recompute reference sampler, and
the reference and single-slice forms of library functions that only tests
use."""

import numpy as np

from svt import model as M
from svt import sampler
from svt import tensor as tc
from svt.attention import AttentionLayerSpec, attention_layer
from svt.subscale import (extract_slice, primed_plane_mask, slice_order, slice_rank,
                          visibility_mask)
from svt.tensor import Tensor


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


def clear_graph_grads(t):
    """Reset .grad on every node reachable from ``t`` so the same graph can
    be swept backward again with a different seed."""
    seen = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        node.grad = None
        stack.extend(node._parents)


def block_coordinates(slice_shape, bs):
    """Global (t,h,w) of every block position: (num_blocks, n_p, 3) int array,
    blocks in ``block_partition`` order, raster order within a block."""
    T, H, W = slice_shape
    bs.check_divides(slice_shape)
    nt, nh, nw = T // bs.t, H // bs.h, W // bs.w
    base = np.indices((nt, nh, nw)).reshape(3, -1).T * np.array(bs.as_tuple())
    local = np.indices(bs.as_tuple()).reshape(3, -1).T
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
                tc.backward(logits, seed_grad)
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


def gradient_reachability(slice_shape, blocks, kernel, seed, d_in=3, d=6):
    """Oracle for the connectivity analyzer: the exact nonzero-gradient
    pattern of a random-parameter masked decoder stack, float64."""
    T, H, W = slice_shape
    P = T * H * W
    rng = np.random.default_rng(seed)

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
    yf = tc.reshape(y, (P, d))
    reach = np.zeros((P, P), dtype=bool)
    for p in range(P):
        clear_graph_grads(yf)
        seed_grad = np.zeros((P, d))
        seed_grad[p] = rng.standard_normal(d)
        tc.backward(yf, seed_grad)
        reach[p] = np.abs(x.grad[0]).sum(axis=-1).reshape(P) > 0.0
    return reach


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


def add_at_gather_grad(table, idx, g, axis):
    """Table gradient of ``tensor.gather`` in the ``np.add.at`` form: the
    reference for its ``np.bincount`` backward."""
    gt = np.zeros_like(table)
    np.add.at(gt, (slice(None),) * axis + (np.asarray(idx),), g)
    return gt


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
    runs again for every pixel, with no cache.  Same streams, head and
    output; draws go through ``sampler.sample_categorical``."""
    Ts, Hs, Ws = cfg.slice_shape
    rank = slice_rank(cfg.s, idx)
    primed = primed_plane_mask(cfg.s, idx, Ts, scfg.prime_frames)
    chans = M.split_channels(extract_slice(canvas, cfg.s, idx)).astype(np.int64)
    chans[~primed] = 0  # not yet generated
    if primed.all():
        return chans
    _, _, encoded = M.decoder_for(cfg, rank)
    with tc.no_grad():
        z = (M.encode_slices(params, cfg, [Tensor(M.video_onehot(cfg, canvas))], [idx])
             if encoded else None)
        for t in range(Ts):
            if primed[t]:
                continue
            for h in range(Hs):
                for w in range(Ws):
                    pixel = (t * Hs + h) * Ws + w
                    oh = tc.one_hot(chans, M.N_VALUES)
                    x = Tensor(oh.reshape(1, Ts, Hs, Ws, cfg.input_channels))
                    y = M.decode_slices(params, cfg, x, z, rank)
                    y_vec = y.data.reshape(Ts * Hs * Ws, cfg.d)[pixel]
                    if cfg.head == "categorical":
                        ln = M.head_norm(params, Tensor(y_vec[None]))
                        vals = chans[t, h, w]
                        for c in range(cfg.n_channels):
                            prev = (Tensor(tc.one_hot(vals[:c], M.N_VALUES).reshape(1, -1))
                                    if c else None)
                            logits = M.head_channel_logits(params, ln, prev, c).data[0]
                            stream = sampler._position_stream(scfg.seed, video_index,
                                                              rank, pixel, c)
                            vals[c] = sampler.sample_categorical(logits, scfg.temperature,
                                                                 stream)
                    else:
                        x = M.head_intensity(params, cfg, Tensor(y_vec[None, None]))
                        byte = round(float(x.data[0, 0, 0]) * 255.0)
                        chans[t, h, w] = M.split_channels(np.array([byte], dtype=np.uint8))
    return chans
