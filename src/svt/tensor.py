"""Dense n-dimensional arrays with reverse-mode automatic differentiation.

A ``Tensor`` wraps a row-major numpy array (float32 by default, float64 for
verification runs).  With gradients on, every op below also gives its output
a graph ``Node``: the parents' nodes and a closure that routes the output
gradient back to them, so a forward pass implicitly builds a DAG of nodes
and ``backward`` walks it once in reverse topological order, releasing
each closure as it runs.  A node holds no value of its own; its closure
keeps only the arrays its backward reads, and only for the gradients that
are live (``matmul`` keeps ``a`` only if ``b`` needs a gradient;
``softmax`` keeps its output, not its input; a convolution its input, not
its patches), so a value that no backward reads is freed as soon as its
caller drops it, and a swept graph keeps only its bare nodes.

Only the operations the video model actually needs are provided: batched
matmul, softmax over the last axis, layer normalization, ReLU, sigmoid,
strided 3D convolution with signed padding, raster-causal masked 3D
convolution, row gathers, basic indexing, reshapes and concatenation, and
the model's two losses, each one node: the categorical and the binary
cross-entropy.  Forms that only tests use live in ``tests/helpers.py``, as
does the finite-difference check of every analytic gradient.

``backward`` computes only the gradients some tensor needs: an op with
several parents skips the gradient of every parent that does not require
one (a one-hot input, a mask, a frozen weight), rather than forming it and
dropping it.

Float32 subnormals make BLAS and numpy take slow paths, so they are zeroed
where they arise: softmax exponentials, the input gradients of softmax and
``cross_entropy``, ``mul``'s gradients and a batched ``matmul``'s ``b``
gradient (an attention layer's dk and dv), so the gradients an attention
layer passes to its matrix products hold none.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A geometry or configuration parameter is invalid."""


class NumericError(RuntimeError):
    """A non-finite value: a training loss or gradient, or a parameter
    loaded from a checkpoint."""


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


class Node:
    """A vertex of the autograd graph: the nodes of the parents a gradient
    flows to, the backward closure, the gradient buffer, and the shape and
    dtype of the value the node stands for.

    A node holds no value.  Its closure keeps exactly the arrays its
    backward reads, so a value that no backward reads is freed as soon as
    the caller drops its Tensor.  A leaf's node has no parents and no
    closure; an op node loses its closure when ``backward`` runs it.
    """

    __slots__ = ("parents", "backward", "grad", "shape", "dtype")

    def __init__(self, shape, dtype, parents=(), backward=None):
        self.parents = parents
        self.backward = backward
        self.grad = None
        self.shape = shape
        self.dtype = dtype


class Tensor:
    """A value, and its graph ``node`` when a gradient can flow to it: a
    leaf node for ``requires_grad=True``, an op's node for an op output."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.node = Node(arr.shape, arr.dtype) if requires_grad else None

    @property
    def requires_grad(self):
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g):
        if self.node is not None:
            self.node.grad = g
        elif g is not None:
            raise ValueError("a Tensor that requires no gradient holds none")

    @property
    def _backward(self):
        """The backward closure of an op output's node; settable, so that a
        tracer can wrap it."""
        return None if self.node is None else self.node.backward

    @_backward.setter
    def _backward(self, fn):
        self.node.backward = fn

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
    """An op output: ``data`` with, when gradients are on and some parent
    node (None for a parent that needs no gradient) exists, a node over the
    parent nodes and ``backward``."""
    out = Tensor(data)
    if _GRAD_ENABLED:
        live = tuple(p for p in parents if p is not None)
        if live:
            out.node = Node(out.data.shape, out.data.dtype, live, backward)
    return out


def _accumulate(node, grad):
    """Add ``grad`` into ``node``'s gradient buffer; no-op for None."""
    if node is None:
        return
    if grad.shape != node.shape:
        raise ShapeError(f"gradient shape {grad.shape} != value shape {node.shape}")
    if node.grad is None:
        node.grad = grad.astype(node.dtype, copy=True)
    else:
        node.grad += grad


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
    """Reverse-mode sweep from ``t``'s node; accumulates into the ``.grad``
    of leaves.

    Visits each node exactly once, children before parents.  The sweep
    consumes the graph: an op node's closure is released once it has run,
    and with it the arrays it kept, and its gradient is freed once passed
    on, since every node that adds to it has already run; only leaves keep
    theirs.  A second sweep through a consumed node raises ``RuntimeError``
    before any gradient moves.
    """
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
        if node.parents and node.backward is None:
            raise RuntimeError("backward reached a node whose graph an earlier "
                               "backward consumed; build the graph again")
        visited.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in visited:
                stack.append((p, False))
    if seed is None:
        seed = np.ones(root.shape, root.dtype)
    _accumulate(root, np.asarray(seed, dtype=root.dtype))
    for node in reversed(topo):
        back, node.backward = node.backward, None
        if back is not None and node.grad is not None:
            back(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# elementwise and reduction ops
# ---------------------------------------------------------------------------

def add(a, b):
    """Elementwise sum; ``b`` may be a constant."""
    b = _wrap(b, a)
    na, nb = a.node, b.node

    def back(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g, na.shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g, nb.shape))

    return _make(a.data + b.data, (na, nb), back)


def mul(a, b):
    """Elementwise product.  A factor below 1 (an attention layer's query
    scale) turns gradients just above the smallest normal number into
    subnormals, so the backward flushes them (``_flush_subnormals``).  Each
    factor is kept only for the other's gradient; ``b`` may be a constant."""
    b = _wrap(b, a)
    na, nb = a.node, b.node
    av = a.data if nb is not None else None
    bv = b.data if na is not None else None

    def back(g):
        if na is not None:
            _accumulate(na, _unbroadcast(_flush_subnormals(g * bv), na.shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(_flush_subnormals(g * av), nb.shape))

    return _make(a.data * b.data, (na, nb), back)


def relu(a):
    """max(a, 0); the backward reads the output, which is positive exactly
    where the input is."""
    na = a.node
    y = np.maximum(a.data, 0)

    def back(g):
        _accumulate(na, g * (y > 0))

    return _make(y, (na,), back)


def sigmoid(a):
    na = a.node
    x = a.data
    e = np.exp(-np.abs(x))
    y = (np.where(x >= 0, 1, e) / (1 + e)).astype(x.dtype)

    def back(g):
        _accumulate(na, g * y * (1.0 - y))

    return _make(y, (na,), back)


# ---------------------------------------------------------------------------
# linear algebra and normalization
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product; leading extents broadcast, so stacked batches are free.

    A weight product (``b`` 2-D, ``a`` of more than two dims) folds ``a``'s
    leading extents into rows, so it runs as one 2-D GEMM forward and one
    for each gradient (``_fold_matmul``).  The graph keeps ``a`` only if
    ``b`` needs a gradient, and ``b`` only if ``a`` does.
    """
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}")
    if a.data.ndim > 2 and b.data.ndim == 2:
        return _fold_matmul(a, b)
    na, nb = a.node, b.node
    av = a.data if nb is not None else None
    bv = b.data if na is not None else None

    def back(g):
        if na is not None:
            _accumulate(na, _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), na.shape))
        if nb is not None:
            # an attention layer's dk and dv: sums weighted by attention
            # weights far below 1 can be subnormal
            gb = _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), nb.shape)
            _accumulate(nb, _flush_subnormals(gb))

    return _make(np.matmul(a.data, b.data), (na, nb), back)


def _fold_matmul(a, b):
    """``matmul`` of an (..., k) ``a`` and a (k, e) ``b`` as (rows, k) @ (k, e).

    The backward reshapes ``a`` again rather than keeping the forward's
    rows: for a strided ``a`` they are a copy, which the graph would hold.
    """
    k, e = b.data.shape
    lead = a.data.shape[:-1]
    out = (a.data.reshape(-1, k) @ b.data).reshape(*lead, e)
    na, nb = a.node, b.node
    av = a.data if nb is not None else None
    bv = b.data if na is not None else None

    def back(g):
        g2 = g.reshape(-1, e)
        if na is not None:
            _accumulate(na, (g2 @ bv.T).reshape(na.shape))
        if nb is not None:
            _accumulate(nb, av.reshape(-1, k).T @ g2)

    return _make(out, (na, nb), back)


def _flush_subnormals(x):
    """Zero, in place, the entries of ``x`` below its dtype's smallest normal
    magnitude, on which BLAS and numpy take slow paths; returns ``x`` (a
    numpy scalar, such as the product of two 0-d arrays, as a 0-d array)."""
    x = np.asarray(x)
    np.copyto(x, 0, where=np.abs(x) < np.finfo(x.dtype).tiny)
    return x


def softmax(a, bias=None):
    """Exp-normalize ``a + bias`` along the last axis, stabilized by max
    subtraction.  ``bias``, a Tensor that broadcasts against ``a`` (an
    attention layer's (heads, n, n) bias), is added into the copy of the
    input, which is then shifted, exponentiated and normalised in place; its
    gradient is the input gradient summed over the broadcast axes.
    Subnormal exponentials and input gradients are flushed to 0: a row's
    largest weight is at least 1/n, so the sums they would enter drop them.
    The graph keeps the output, not the input."""
    na, nbias = a.node, None if bias is None else bias.node
    y = a.data.copy() if bias is None else a.data + bias.data
    y -= y.max(axis=-1, keepdims=True)
    np.copyto(y, -np.inf, where=y < np.log(np.finfo(y.dtype).tiny))
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def back(g):
        r = g - (g * y).sum(axis=-1, keepdims=True)
        r *= y
        _flush_subnormals(r)
        if nbias is not None:
            _accumulate(nbias, _unbroadcast(r, nbias.shape))
        _accumulate(na, r)

    return _make(y, (na, nbias), back)


LN_EPS = 1e-6  # the variance floor of every layer normalization


def _layernorm(x, gain, bias):
    """(xhat * gain + bias, xhat, 1/std) with xhat zero-mean unit-variance
    over the last axis; xhat is scaled in place in the centred copy of x.
    A mean is ``sum / n``, the same bits as ``np.mean`` at less overhead."""
    n = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / n
    var = np.square(xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + np.asarray(LN_EPS, dtype=x.dtype))
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, xhat, inv


def layernorm_array(x, gain, bias):
    """The forward of ``layernorm`` on plain arrays (no graph)."""
    return _layernorm(x, gain, bias)[0]


def layernorm(a, gain, bias):
    """Zero-mean unit-variance over the last (feature) axis, then affine.
    The graph keeps xhat and 1/std, not the input."""
    out, xhat, inv = _layernorm(a.data, gain.data, bias.data)
    na, ngain, nbias = a.node, gain.node, bias.node
    gv = gain.data

    def back(g):
        if ngain is not None:
            _accumulate(ngain, _unbroadcast(g * xhat, ngain.shape))
        if nbias is not None:
            _accumulate(nbias, _unbroadcast(g, nbias.shape))
        if na is not None:
            dxhat = g * gv
            n = dxhat.shape[-1]
            m1 = dxhat.sum(axis=-1, keepdims=True) / n
            m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
            _accumulate(na, inv * (dxhat - m1 - xhat * m2))

    return _make(out, (na, ngain, nbias), back)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def cross_entropy(logits, targets, weights):
    """Weighted negative log-likelihood, summed: -sum(weights * log
    softmax(logits)[targets]), the softmax over the last axis.

    ``targets`` (ints) has the shape of ``logits`` without the last axis and
    ``weights`` broadcasts against it.  Subnormal entries of the per-target
    gradient and of the logits' gradient are flushed to 0, as ``softmax``
    flushes its own.  The graph keeps the log-softmax, not the logits.
    """
    na = logits.node
    x = logits.data
    idx = np.asarray(targets)[..., None]
    w = np.asarray(weights, dtype=x.dtype)
    s = x - x.max(axis=-1, keepdims=True)
    ls = s - np.log(np.exp(s).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(ls, idx, axis=-1)[..., 0]

    def back(g):
        gp = _flush_subnormals(np.broadcast_to(-g, idx.shape[:-1]) * w)[..., None]
        gx = np.zeros(na.shape, na.dtype)
        np.put_along_axis(gx, idx, gp, axis=-1)
        gx -= np.exp(ls) * gp
        _accumulate(na, _flush_subnormals(gx))

    return _make(-(picked * w).sum(), (na,), back)


def binary_cross_entropy(pred, target, weights):
    """Weighted binary cross-entropy, summed: -sum(weights * (z log y +
    (1 - z) log(1 - y))) for targets z in [0, 1] and y = ``pred`` clamped to
    [1e-7, 1 - 1e-7]; where the clamp holds ``pred`` gets no gradient.

    ``target`` has the shape of ``pred`` and ``weights`` broadcasts against
    it.  The per-term gradients are flushed of subnormals, as ``mul``'s are.
    """
    na = pred.node
    x = pred.data
    z = np.asarray(target, dtype=x.dtype)
    w = np.asarray(weights, dtype=x.dtype)
    lo, hi = 1e-7, 1.0 - 1e-7
    y = np.clip(x, lo, hi)
    y1, z1 = 1.0 - y, 1.0 - z
    ll = np.log(y) * z + np.log(y1) * z1

    def back(g):
        gl = _flush_subnormals(np.broadcast_to(-g, x.shape) * w)
        gy = _flush_subnormals(gl * z) / y - _flush_subnormals(gl * z1) / y1
        _accumulate(na, gy * ((x >= lo) & (x <= hi)))

    return _make(-(ll * w).sum(), (na,), back)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape):
    na = a.node

    def back(g):
        _accumulate(na, g.reshape(na.shape))

    return _make(a.data.reshape(shape), (na,), back)


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    na = a.node

    def back(g):
        _accumulate(na, g.transpose(inv))

    return _make(a.data.transpose(axes), (na,), back)


def concat(parts, axis=-1):
    parts = list(parts)
    sizes = [p.data.shape[axis] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    nodes = [p.node for p in parts]

    def back(g):
        offs = np.cumsum([0] + sizes)
        for node, lo, hi in zip(nodes, offs[:-1], offs[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(node, g[tuple(sl)])

    return _make(out, nodes, back)


def index(a, key):
    """``a[key]`` for a basic index: integers, slices and ``Ellipsis``.

    The backward adds the gradient into ``a``'s own gradient buffer at the
    same key, allocating that buffer (zeros) only if ``a`` has none yet, so
    several index nodes on one parent (an attention layer's q, k and v)
    share one buffer.
    """
    na = a.node

    def back(g):
        if na.grad is None:
            na.grad = np.zeros(na.shape, na.dtype)
        na.grad[key] += g

    return _make(a.data[key], (na,), back)


def gather(table, idx):
    """Differentiable lookup: the rows (entries along axis 0) of ``table``
    at ``idx``.

    The backward adds every gradient element into the table entry it was
    read from with one ``np.bincount`` over the flat entry indices, so a
    repeated index sums its gradients.  The sums are float64, cast to the
    table's dtype.
    """
    idx = np.asarray(idx)
    out = np.take(table.data, idx, axis=0)
    nt = table.node

    def back(g):
        size, shape = math.prod(nt.shape), nt.shape
        # the flat table entry each output element was read from
        dest = np.take(np.arange(size).reshape(shape), idx, axis=0)
        gt = np.bincount(dest.reshape(-1), weights=g.reshape(-1).astype(np.float64),
                         minlength=size)
        _accumulate(nt, gt.reshape(shape).astype(nt.dtype))

    return _make(out, (nt,), back)


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


def _patches(x, idx, K):
    """(B, P_out, K*Cin) patches of the (B, T, H, W, Cin) array ``x`` at the
    flat index map ``idx``: a zero row is appended as the sentinel."""
    B, cin = x.shape[0], x.shape[-1]
    n = x.size // (B * cin)
    flat = np.concatenate([x.reshape(B, n, cin), np.zeros((B, 1, cin), dtype=x.dtype)], axis=1)
    return flat[:, idx, :].reshape(B, -1, K * cin)


def _conv_core(x, kernel, bias, taps, stride, pad, out_shape, visible=None):
    """Shared gather-matmul convolution.  x: (B,T,H,W,Cin); taps: (K,3).

    ``visible``, a (T, H, W) bool array, reads every input where it is
    False as zero: those taps point at the sentinel row.  The backward
    forms the kernel gradient as one 2D GEMM of the (B*P_out, K*Cin)
    patches, gathered again from ``x``, with the (B*P_out, Cout) output
    gradient, and the input gradient by a per-tap scatter
    (``_scatter_taps``).  The graph keeps ``x``, for the kernel gradient,
    and not the patches, which are K times larger.
    """
    B, T, H, W, cin = x.data.shape
    k_rows = kernel.data.shape[0]  # K*Cin
    K = len(taps)
    if k_rows != K * cin:
        raise ShapeError(f"kernel expects {k_rows // K if K else 0} input channels, got {cin}")
    cout = kernel.data.shape[1]
    idx = _conv_index_map((T, H, W), taps, stride, pad, out_shape)
    n = T * H * W
    if visible is not None:
        if visible.shape != (T, H, W):
            raise ShapeError(f"visibility shape {visible.shape} != input extents {(T, H, W)}")
        idx = np.where(np.append(visible.reshape(-1), False)[idx], idx, n)
    out = np.matmul(_patches(x.data, idx, K), kernel.data) + bias.data
    p_out = out.shape[1]
    nx, nk, nb = x.node, kernel.node, bias.node
    xv = x.data if nk is not None else None
    kv = kernel.data if nx is not None else None

    def back(g):
        g2 = g.reshape(B, p_out, cout)
        if nb is not None:
            _accumulate(nb, g2.sum(axis=(0, 1)))
        if nk is not None:
            gk = _patches(xv, idx, K).reshape(-1, K * cin).T @ g2.reshape(-1, cout)
            _accumulate(nk, gk.astype(nk.dtype, copy=False))
        if nx is not None:
            gp = np.matmul(g2, kv.T).reshape(B, p_out, K, cin)
            gx = _scatter_taps(gp, idx.reshape(p_out, K), n, nx.dtype)
            _accumulate(nx, gx.reshape(nx.shape))

    return _make(out.reshape(B, *out_shape, cout), (nx, nk, nb), back)


def kernel_taps(extents):
    kt, kh, kw = extents
    g = np.meshgrid(np.arange(kt), np.arange(kh), np.arange(kw), indexing="ij")
    return tuple((int(a), int(b), int(c)) for a, b, c in
                 zip(g[0].ravel(), g[1].ravel(), g[2].ravel()))


def conv3d(x, kernel, bias, extents, stride, pad, out_shape, visible=None):
    """Strided 3D convolution with signed padding and an explicit out shape.

    x: (B, T, H, W, Cin); kernel: flattened (K*Cin, Cout) with taps in raster
    order over ``extents``; ``pad`` components may be negative, which shifts
    the window forward instead of padding.  ``visible``, an optional
    (T, H, W) bool array, zeroes the input where it is False, as
    multiplying ``x`` by it would, without making the masked copy.
    output(o) = sum_taps kernel . input(o*stride - pad + tap) + bias
    """
    return _conv_core(x, kernel, bias, kernel_taps(extents), tuple(stride),
                      tuple(pad), tuple(out_shape), visible)


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
