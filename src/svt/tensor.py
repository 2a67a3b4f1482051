"""Dense n-dimensional arrays with reverse-mode automatic differentiation.

A ``Tensor`` wraps a row-major numpy array (float32 by default, float64 for
verification runs) together with the operation that produced it.  Every op
below records its parents and a closure that routes the output gradient back
to them, so a forward pass implicitly builds a DAG and ``backward`` walks it
once in reverse topological order.

Only the operations the video model actually needs are provided: batched
matmul, softmax/log-softmax, layer normalization, ReLU, sigmoid, strided 3D
convolution with signed padding, raster-causal masked 3D convolution,
gathers, basic indexing, reshapes and concatenation.  The tests check every
analytic gradient against central finite differences (``tests/helpers.py``).

``backward`` computes only the gradients some tensor needs: an op with
several parents skips the gradient of every parent that does not require
one (a one-hot input, a mask, a frozen weight), rather than forming it and
dropping it.

Float32 subnormals make BLAS and numpy take slow paths, so they are zeroed
where they arise: softmax exponentials, the input gradients of softmax and
log-softmax, ``mul``'s gradients and a batched ``matmul``'s ``b`` gradient
(an attention layer's dk and dv), so the gradients an attention layer passes
to its matrix products hold none.
"""

from __future__ import annotations

from functools import cache

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A geometry or configuration parameter is invalid."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction (sampling, eval)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def _make(data, parents, backward):
    """Create an op output, keeping the graph only where gradients can flow."""
    track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track)
    if track:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accumulate(t, grad):
    if not t.requires_grad:
        return
    if grad.shape != t.data.shape:
        raise ShapeError(f"gradient shape {grad.shape} != value shape {t.data.shape}")
    if t.grad is None:
        t.grad = grad.astype(t.data.dtype, copy=True)
    else:
        t.grad += grad


def _wrap(x, like):
    """Coerce a scalar or array constant to a Tensor matching ``like``'s dtype."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` along axes numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def backward(t, seed=None):
    """Reverse-mode sweep from ``t``; accumulates into ``.grad`` of leaves.

    Visits each node exactly once, children before parents.  An op output's
    gradient is freed once it has been passed on, since every node that
    adds to it has already run; only leaves keep theirs.
    """
    topo = []
    visited = set()
    stack = [(t, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    if seed is None:
        seed = np.ones_like(t.data)
    _accumulate(t, np.asarray(seed, dtype=t.data.dtype))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# elementwise and reduction ops
# ---------------------------------------------------------------------------

def add(a, b):
    a = a if isinstance(a, Tensor) else _wrap(a, b)
    b = _wrap(b, a)

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), back)


def sub(a, b):
    a = a if isinstance(a, Tensor) else _wrap(a, b)
    b = _wrap(b, a)

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(a.data - b.data, (a, b), back)


def mul(a, b):
    """Elementwise product.  A factor below 1 (an attention layer's query
    scale) turns gradients just above the smallest normal number into
    subnormals, so the backward flushes them (``_flush_subnormals``)."""
    a = a if isinstance(a, Tensor) else _wrap(a, b)
    b = _wrap(b, a)

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(_flush_subnormals(g * b.data), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(_flush_subnormals(g * a.data), b.data.shape))

    return _make(a.data * b.data, (a, b), back)


def neg(a):
    def back(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), back)


def relu(a):
    def back(g):
        _accumulate(a, g * (a.data > 0))

    return _make(np.maximum(a.data, 0), (a,), back)


def sigmoid(a):
    x = a.data
    e = np.exp(-np.abs(x))
    y = (np.where(x >= 0, 1, e) / (1 + e)).astype(x.dtype)

    def back(g):
        _accumulate(a, g * y * (1.0 - y))

    return _make(y, (a,), back)


def log(a):
    def back(g):
        _accumulate(a, g / a.data)

    return _make(np.log(a.data), (a,), back)


def clip(a, lo, hi):
    """Clamp values; gradient passes through only in the interior."""
    y = np.clip(a.data, lo, hi)

    def back(g):
        _accumulate(a, g * ((a.data >= lo) & (a.data <= hi)))

    return _make(y, (a,), back)


def sum_all(a):
    def back(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype))

    return _make(a.data.sum(), (a,), back)


# ---------------------------------------------------------------------------
# linear algebra and normalization
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product; leading extents broadcast, so stacked batches are free.

    A weight product (``b`` 2-D, ``a`` of more than two dims) folds ``a``'s
    leading extents into rows, so it runs as one 2-D GEMM forward and one
    for each gradient (``_fold_matmul``).
    """
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}")
    if a.data.ndim > 2 and b.data.ndim == 2:
        return _fold_matmul(a, b)
    out = np.matmul(a.data, b.data)

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)),
                                        a.data.shape))
        if b.requires_grad:
            # an attention layer's dk and dv: sums weighted by attention
            # weights far below 1 can be subnormal
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
            _accumulate(b, _flush_subnormals(gb))

    return _make(out, (a, b), back)


def _fold_matmul(a, b):
    """``matmul`` of an (..., k) ``a`` and a (k, e) ``b`` as (rows, k) @ (k, e).

    The backward reshapes ``a`` again rather than keeping the forward's
    rows: for a strided ``a`` they are a copy, which the graph would hold.
    """
    k, e = b.data.shape
    lead = a.data.shape[:-1]
    out = (a.data.reshape(-1, k) @ b.data).reshape(*lead, e)

    def back(g):
        g2 = g.reshape(-1, e)
        if a.requires_grad:
            _accumulate(a, (g2 @ b.data.T).reshape(a.data.shape))
        if b.requires_grad:
            _accumulate(b, a.data.reshape(-1, k).T @ g2)

    return _make(out, (a, b), back)


def _flush_subnormals(x):
    """Zero, in place, the entries of ``x`` below its dtype's smallest normal
    magnitude, on which BLAS and numpy take slow paths; returns ``x`` (a
    numpy scalar, such as the product of two 0-d arrays, as a 0-d array)."""
    x = np.asarray(x)
    np.copyto(x, 0, where=np.abs(x) < np.finfo(x.dtype).tiny)
    return x


def softmax(a, axis=-1, bias=None):
    """Exp-normalize ``a + bias`` along ``axis``, stabilized by max
    subtraction.  ``bias``, a Tensor that broadcasts against ``a`` (an
    attention layer's (heads, n, n) bias), is added into the copy of the
    input, which is then shifted, exponentiated and normalised in place; its
    gradient is the input gradient summed over the broadcast axes.
    Subnormal exponentials and input gradients are flushed to 0: a row's
    largest weight is at least 1/n, so the sums they would enter drop them."""
    y = a.data.copy() if bias is None else a.data + bias.data
    y -= y.max(axis=axis, keepdims=True)
    np.copyto(y, -np.inf, where=y < np.log(np.finfo(y.dtype).tiny))
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def back(g):
        r = g - (g * y).sum(axis=axis, keepdims=True)
        r *= y
        _flush_subnormals(r)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _unbroadcast(r, bias.data.shape))
        _accumulate(a, r)

    return _make(y, (a,) if bias is None else (a, bias), back)


def log_softmax(a, axis=-1):
    """Log of ``softmax``, with the input gradient flushed likewise."""
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    s = x - m
    ls = s - np.log(np.exp(s).sum(axis=axis, keepdims=True))

    def back(g):
        _accumulate(a, _flush_subnormals(g - np.exp(ls) * g.sum(axis=axis, keepdims=True)))

    return _make(ls, (a,), back)


def _layernorm(x, gain, bias, eps):
    """(xhat * gain + bias, xhat, 1/std) with xhat zero-mean unit-variance
    over the last axis; xhat is scaled in place in the centred copy of x.
    A mean is ``sum / n``, the same bits as ``np.mean`` at less overhead."""
    n = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / n
    var = np.square(xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, xhat, inv


def layernorm_array(x, gain, bias, eps=1e-6):
    """The forward of ``layernorm`` on plain arrays (no graph)."""
    return _layernorm(x, gain, bias, eps)[0]


def layernorm(a, gain, bias, eps=1e-6):
    """Zero-mean unit-variance over the last (feature) axis, then affine."""
    out, xhat, inv = _layernorm(a.data, gain.data, bias.data, eps)

    def back(g):
        if gain.requires_grad:
            _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            dxhat = g * gain.data
            n = dxhat.shape[-1]
            m1 = dxhat.sum(axis=-1, keepdims=True) / n
            m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
            _accumulate(a, inv * (dxhat - m1 - xhat * m2))

    return _make(out, (a, gain, bias), back)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape):
    old = a.data.shape

    def back(g):
        _accumulate(a, g.reshape(old))

    return _make(a.data.reshape(shape), (a,), back)


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def back(g):
        _accumulate(a, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), back)


def concat(parts, axis=-1):
    parts = list(parts)
    sizes = [p.data.shape[axis] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)

    def back(g):
        offs = np.cumsum([0] + sizes)
        for p, lo, hi in zip(parts, offs[:-1], offs[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(sl)])

    return _make(out, tuple(parts), back)


def index(a, key):
    """``a[key]`` for a basic index: integers, slices and ``Ellipsis``.

    The backward adds the gradient into ``a``'s own gradient buffer at the
    same key, allocating that buffer (zeros) only if ``a`` has none yet, so
    several index nodes on one parent (an attention layer's q, k and v)
    share one buffer.
    """
    def back(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[key] += g

    return _make(a.data[key], (a,), back)


def gather(table, idx, axis=0):
    """Differentiable lookup: entries of ``table`` along ``axis`` at ``idx``.

    The backward adds every gradient element into the table entry it was
    read from with one ``np.bincount`` over the flat entry indices, so a
    repeated index sums its gradients.  The sums are float64, cast to the
    table's dtype.
    """
    idx = np.asarray(idx)
    out = np.take(table.data, idx, axis=axis)

    def back(g):
        size, shape = table.data.size, table.data.shape
        # the flat table entry each output element was read from
        dest = np.take(np.arange(size).reshape(shape), idx, axis=axis)
        gt = np.bincount(dest.reshape(-1), weights=g.reshape(-1).astype(np.float64),
                         minlength=size)
        _accumulate(table, gt.reshape(shape).astype(table.data.dtype))

    return _make(out, (table,), back)


def take_index_last(a, idx):
    """Pick one entry along the last axis per position (for NLL targets)."""
    idx = np.asarray(idx)
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def back(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        _accumulate(a, full)

    return _make(out, (a,), back)


def one_hot(values, n, dtype=np.float32):
    """Plain one-hot encoding of an integer array (a constant, not an op)."""
    return np.eye(n, dtype=dtype)[values]


# ---------------------------------------------------------------------------
# 3D convolution with signed padding, and its raster-causal masked variant
# ---------------------------------------------------------------------------

def read_only(a):
    """``a``, made read-only so that a cached result cannot be changed."""
    a.flags.writeable = False
    return a


@cache
def _conv_index_map(in_shape, taps, stride, pad, out_shape):
    """Flat gather indices (P_out*K,) into a zero-padded flat input.

    Out-of-bounds taps point at the sentinel row ``N`` (kept all-zero), which
    realizes both zero padding and negative (window-shifting) padding.
    Cached per geometry (``taps`` a tuple of (t, h, w) tuples); the array is
    read-only.
    """
    T, H, W = in_shape
    ot, oh, ow = np.meshgrid(np.arange(out_shape[0]), np.arange(out_shape[1]),
                             np.arange(out_shape[2]), indexing="ij")
    outs = np.stack([ot.ravel(), oh.ravel(), ow.ravel()], axis=1)  # (P_out, 3)
    taps = np.asarray(taps, dtype=np.int64).reshape(-1, 3)  # (K, 3); K = 0 has no taps
    coords = outs[:, None, :] * np.asarray(stride) - np.asarray(pad) + taps[None, :, :]
    inb = ((coords >= 0) & (coords < np.asarray([T, H, W]))).all(axis=2)
    flat = coords[..., 0] * (H * W) + coords[..., 1] * W + coords[..., 2]
    flat = np.where(inb, flat, T * H * W).astype(np.int64)  # sentinel row
    return read_only(flat.reshape(-1))


def _scatter_taps(gp, idx_k, n, dtype):
    """(B, n, Cin) input gradient, of ``dtype``, from the per-tap gradients
    gp (B, P_out, K, Cin) of the (P_out, K) flat input rows ``idx_k``; row
    ``n`` is the sentinel.

    A tap reads each input row at most once, apart from the discarded
    sentinel, so one buffered add per tap is exact.  A row's later taps come
    from earlier outputs, so adding the taps in reverse order sums every row
    in output raster order, as ``np.add.at(gflat, idx, gp)`` does: the result
    is bit-identical to it.
    """
    B, _, K, cin = gp.shape
    gflat = np.zeros((B, n + 1, cin), dtype=dtype)
    for k in reversed(range(K)):
        gflat[:, idx_k[:, k]] += gp[:, :, k]
    return gflat[:, :n]


def _conv_core(x, kernel, bias, taps, stride, pad, out_shape):
    """Shared gather-matmul convolution.  x: (B,T,H,W,Cin); taps: (K,3).

    The backward forms the kernel gradient as one 2D GEMM of the
    (B*P_out, K*Cin) patches with the (B*P_out, Cout) output gradient, and
    the input gradient by a per-tap scatter (``_scatter_taps``).
    """
    B, T, H, W, cin = x.data.shape
    k_rows = kernel.data.shape[0]  # K*Cin
    K = len(taps)
    if k_rows != K * cin:
        raise ShapeError(f"kernel expects {k_rows // K if K else 0} input channels, got {cin}")
    cout = kernel.data.shape[1]
    idx = _conv_index_map((T, H, W), taps, stride, pad, out_shape)
    n = T * H * W
    flat = np.concatenate(
        [x.data.reshape(B, n, cin), np.zeros((B, 1, cin), dtype=x.data.dtype)], axis=1)
    patches = flat[:, idx, :].reshape(B, -1, K * cin)  # (B, P_out, K*Cin)
    out = np.matmul(patches, kernel.data) + bias.data
    p_out = out.shape[1]

    def back(g):
        g2 = g.reshape(B, p_out, cout)
        if bias.requires_grad:
            _accumulate(bias, g2.sum(axis=(0, 1)))
        if kernel.requires_grad:
            gk = patches.reshape(-1, K * cin).T @ g2.reshape(-1, cout)
            _accumulate(kernel, gk.astype(kernel.data.dtype, copy=False))
        if x.requires_grad:
            gp = np.matmul(g2, kernel.data.T).reshape(B, p_out, K, cin)
            gx = _scatter_taps(gp, idx.reshape(p_out, K), n, x.data.dtype)
            _accumulate(x, gx.reshape(x.data.shape))

    return _make(out.reshape(B, *out_shape, cout), (x, kernel, bias), back)


def kernel_taps(extents):
    kt, kh, kw = extents
    g = np.meshgrid(np.arange(kt), np.arange(kh), np.arange(kw), indexing="ij")
    return tuple((int(a), int(b), int(c)) for a, b, c in
                 zip(g[0].ravel(), g[1].ravel(), g[2].ravel()))


def conv3d(x, kernel, bias, extents, stride, pad, out_shape):
    """Strided 3D convolution with signed padding and an explicit out shape.

    x: (B, T, H, W, Cin); kernel: flattened (K*Cin, Cout) with taps in raster
    order over ``extents``; ``pad`` components may be negative, which shifts
    the window forward instead of padding.
    output(o) = sum_taps kernel . input(o*stride - pad + tap) + bias
    """
    return _conv_core(x, kernel, bias, kernel_taps(extents), tuple(stride),
                      tuple(pad), tuple(out_shape))


def masked_taps(extents):
    """Taps strictly before the center in raster (t,h,w) order (center excluded)."""
    kt, kh, kw = extents
    if kt % 2 == 0 or kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"masked conv kernel extents must be odd, got {extents}")
    center = (kt // 2, kh // 2, kw // 2)
    return tuple(t for t in kernel_taps(extents) if t < center)


def _centered_pad(extents):
    return (extents[0] // 2, extents[1] // 2, extents[2] // 2)


def masked_conv3d(x, kernel, bias, extents):
    """Raster-causal 3D convolution: output at p sees only inputs before p.

    Kernel is stored flat as (K_allowed*Cin, Cout) over the allowed taps only;
    extents must be odd and the window is centered (stride 1).
    """
    out_shape = x.data.shape[1:4]
    return _conv_core(x, kernel, bias, masked_taps(extents), (1, 1, 1),
                      _centered_pad(extents), out_shape)


def masked_conv_windows(extents, shape):
    """(P, K) flat input rows read by ``masked_conv3d`` at each of the P
    raster positions of a (T, H, W) volume; row P stands for zero padding.
    A read-only view of the cached index map."""
    taps = masked_taps(extents)
    shape = tuple(shape)
    idx = _conv_index_map(shape, taps, (1, 1, 1), _centered_pad(extents), shape)
    return idx.reshape(int(np.prod(shape)), len(taps))
