"""The subscale video model: slice encoder, masked slice decoder, heads.

Pixels are modeled channel-by-channel: each 8-bit intensity is split into a
coarse (high) and fine (low) 4-bit value, and the coarse values of all color
channels are predicted before the fine ones.  A slice is generated by

  * encoding the partially masked video (only preceding slices visible) with
    a strided 3D convolution whose signed padding centers the kernel on the
    current slice, followed by unmasked block-local attention layers;
  * decoding the slice pixels through a center-excluded masked convolution
    plus causal block-local attention, conditioned on the encoder output;
  * predicting each 4-bit channel with a one-hidden-layer MLP that sees the
    decoder state and the one-hot values of the channels before it
    (``channel_logits``, one loop for teacher forcing and sampling).

Parameters live in a flat name -> Tensor store; a checkpoint holds them as
named float32 arrays in ``svt.data``'s file format, under its own magic.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as tc
from .attention import AttentionLayerSpec, attention_layer
from .config import DEFAULTS
from .data import DataError, read_arrays, write_arrays
from .subscale import (BlockShape, SubscaleFactor, as_ints, context_padding, extract_slice,
                       primed_plane_mask, slice_key, slice_rank, visibility_mask)
# the benchmark calls M.extract_slice_u8; the one extractor lives in subscale
from .subscale import extract_slice as extract_slice_u8  # noqa: F401
from .tensor import ConfigError, NumericError, Tensor

N_VALUES = 16  # each split channel holds a 4-bit value
INIT_STD = 0.02  # the standard deviation of every random initial weight

CHECKPOINT_MAGIC = b"SVTC"


# ---------------------------------------------------------------------------
# channel codec
# ---------------------------------------------------------------------------

def split_channels(video):
    """(..., B) uint8 -> (..., 2B) values in 0..15, coarse bytes first.

    Coarse is the high nibble, fine the low nibble; for RGB the order is
    [R_coarse, G_coarse, B_coarse, R_fine, G_fine, B_fine].
    """
    v = np.asarray(video)
    return np.concatenate([v >> 4, v & 0x0F], axis=-1).astype(np.uint8)


def join_channels(chans):
    """Inverse of split_channels."""
    c = np.asarray(chans)
    nb = c.shape[-1] // 2
    coarse = c[..., :nb].astype(np.uint8)
    fine = c[..., nb:].astype(np.uint8)
    return ((coarse << 4) | fine).astype(np.uint8)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

VARIANTS = ("spatiotemporal", "spatial", "single_frame")

# wide_heads: the head count of the last 4 layers of each stack, 0 for n_heads
_PRESETS = {
    "base": dict(d_e=128, d=512, n_heads=8, d_head=128, layers=8, wide_heads=0),
    "large": dict(d_e=128, d=2048, n_heads=8, d_head=128, layers=8, wide_heads=16),
}


@dataclass
class ModelConfig:
    """A resolved model, as ``build_variant`` assembles it; it keeps no defaults."""
    variant: str
    video_shape: tuple          # (T, H, W)
    channels: str               # "rgb" | "gray"
    head: str                   # "categorical" | "deterministic"
    s: SubscaleFactor
    kernel: tuple
    d_e: int
    d: int
    enc_schedule: list
    dec_schedule: list
    mconv: tuple
    first_slice_schedule: list  # empty: no first-slice decoder
    seed: int

    @property
    def bytes_per_pixel(self):
        return 3 if self.channels == "rgb" else 1

    @property
    def n_channels(self):
        return 2 * self.bytes_per_pixel

    @property
    def slice_shape(self):
        return self.s.divide(self.video_shape)

    @property
    def n_slices(self):
        return self.s.size

    @property
    def input_channels(self):
        return self.n_channels * N_VALUES

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.channels not in ("rgb", "gray"):
            raise ConfigError(f"channels must be rgb or gray, got {self.channels!r}")
        if self.head not in ("categorical", "deterministic"):
            raise ConfigError(f"unknown head {self.head!r}")
        if self.head == "deterministic" and self.channels != "gray":
            raise ConfigError("the deterministic head models grayscale video only")
        if self.seed < 0:
            raise ConfigError(f"model_seed must be >= 0, got {self.seed}")
        specs = self.enc_schedule + self.dec_schedule + self.first_slice_schedule
        sizes = [("kernel", self.kernel), ("mconv", self.mconv), ("d_e and d", (self.d_e, self.d))]
        sizes += [("n_heads and d_head", (spec.n_heads, spec.d_head)) for spec in specs]
        for name, values in sizes:
            if min(values) < 1:
                raise ConfigError(f"{name} must be positive, got {values}")
        ss = self.slice_shape  # checks that s divides the video
        if self.variant == "single_frame":
            if self.s != (self.video_shape[0], 1, 1):
                raise ConfigError("single_frame requires s = (T, 1, 1)")
            if self.kernel != (6, 1, 1):
                raise ConfigError("single_frame requires kernel (6, 1, 1)")
        for spec in specs:
            spec.block.divide(ss)
        if not tc.masked_taps(self.mconv):  # rejects even extents
            raise ConfigError(f"mconv {self.mconv} leaves the masked conv no taps")
        if not self.enc_schedule or not self.dec_schedule:
            raise ConfigError("empty layer schedule")
        return self

    def check_video(self, video, crop=False):
        """Raise ConfigError unless ``video`` is a (T, H, W, bytes_per_pixel)
        video of this config; with ``crop``, longer videos pass too (training
        crops them to T frames)."""
        want = (*self.video_shape, self.bytes_per_pixel)
        got = tuple(np.shape(video))
        if len(got) != 4 or got[1:] != want[1:] or (got[0] < want[0] if crop else got != want):
            raise ConfigError(
                f"video has {got[0] if got else 0} frames of shape {got[1:]}, config wants "
                f"{want[0]}{' or more' if crop else ''} frames of shape {want[1:]}")


def _largest_divisor_leq(n, cap):
    cap = max(1, min(n, cap))
    for d in range(cap, 0, -1):
        if n % d == 0:
            return d


def _scaled_blocks(slice_shape, divisors):
    """Block shapes from per-axis divisor targets, snapped to real divisors."""
    T, H, W = slice_shape
    out = []
    for ft, fh, fw in divisors:
        bt = _largest_divisor_leq(T, max(1, T // ft))
        bh = _largest_divisor_leq(H, max(1, H // fh))
        bw = _largest_divisor_leq(W, max(1, W // fw))
        out.append(BlockShape(bt, bh, bw))
    return out


def default_block_pattern(variant, slice_shape):
    """Four block shapes per the variant, scaled from the canonical slice.

    The canonical 4x32x32 slice yields (4,8,4); (4,4,8); (1,32,4); (1,4,32)
    for subscaling variants, and a 1x64x64 single-frame slice yields
    (1,8,16); (1,16,8); (1,2,64); (1,64,2); other slice shapes scale
    proportionally.
    """
    if variant == "single_frame":
        divisors = [(1, 8, 4), (1, 4, 8), (1, 32, 1), (1, 1, 32)]
    else:
        t_full = slice_shape[0]
        divisors = [(1, 4, 8), (1, 8, 4), (t_full, 1, 8), (t_full, 8, 1)]
    return _scaled_blocks(slice_shape, divisors)


def derived_blocks(variant, slice_shape, layers):
    """``layers`` block shapes: the 4-shape pattern followed by its reverse,
    repeated."""
    pattern = default_block_pattern(variant, slice_shape)
    cycle = pattern + pattern[::-1]
    return [cycle[i % len(cycle)] for i in range(layers)]


def schedule_for(blocks, n_heads, d_head, wide_heads):
    """One layer per (t, h, w) block, with ``n_heads`` heads of ``d_head``;
    a non-zero ``wide_heads`` (large preset) replaces n_heads on the last 4."""
    wide_from = len(blocks) - 4 if wide_heads else len(blocks)
    return [AttentionLayerSpec(BlockShape(*b), wide_heads if i >= wide_from else n_heads, d_head)
            for i, b in enumerate(blocks)]


def default_subscale(variant, video_shape):
    T, H, W = video_shape
    if variant == "single_frame":
        return SubscaleFactor(T, 1, 1)
    st = 1
    if variant == "spatiotemporal":
        if T % 4 == 0 and T >= 16:
            st = 4
        elif T % 2 == 0 and T >= 4:
            st = 2
    sh = 2 if H % 2 == 0 and H >= 8 else 1
    sw = 2 if W % 2 == 0 and W >= 8 else 1
    return SubscaleFactor(st, sh, sw)


def _per_axis(given, derived):
    """``given`` (t, h, w) with each unset (0) axis taken from ``derived``;
    None leaves every axis unset."""
    return tuple(g or d for g, d in zip(given or (0, 0, 0), derived, strict=True))


def build_variant(variant, video_shape, preset=DEFAULTS["preset"], s=None, kernel=None, d_e=0,
                  d=0, n_heads=0, d_head=0, layers=0, enc_blocks=None, dec_blocks=None,
                  channels=DEFAULTS["channels"], head=DEFAULTS["head"],
                  mconv=(DEFAULTS["mconv"],) * 3,
                  first_slice_layers=DEFAULTS["first_slice_layers"], seed=DEFAULTS["model_seed"],
                  **unknown):
    """Assemble a ModelConfig for one of the named variants.

    Every unset value (0 or None) is resolved here, per axis for ``s`` and
    ``kernel``: ``s`` falls back to ``default_subscale``, ``kernel`` to ``s``
    ((6, 1, 1) for single_frame), the widths d_e, d, n_heads, d_head and
    layers to the preset, and the blocks of each stack to ``derived_blocks``
    unless enc_blocks/dec_blocks list their (t, h, w) blocks; a non-zero
    ``layers`` must then equal the listed count.  Both kinds of stack take
    the preset's wide heads through ``schedule_for``.  A non-zero
    ``first_slice_layers`` gives rank-0 slices a stand-alone decoder of that
    many layers, which keeps n_heads on every layer; 0 gives none.
    Every integer becomes a Python int here (``as_ints``).
    """
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}")
    if unknown:
        raise ConfigError(f"unknown build_variant overrides: {sorted(unknown)}")
    video_shape = as_ints(video_shape, "video extents")
    if min(video_shape) < 1:
        raise ConfigError(f"video extents must be positive, got {video_shape}")
    d_e, d, n_heads, d_head, layers, first_slice_layers, seed = as_ints(
        (d_e, d, n_heads, d_head, layers, first_slice_layers, seed),
        "d_e, d, n_heads, d_head, layers, first_slice_layers and seed")
    p = _PRESETS[preset]
    d_e, d = d_e or p["d_e"], d or p["d"]
    n_heads, d_head = n_heads or p["n_heads"], d_head or p["d_head"]
    s = SubscaleFactor(*_per_axis(s, default_subscale(variant, video_shape)))
    kernel = as_ints(_per_axis(kernel, (6, 1, 1) if variant == "single_frame" else s), "kernel")
    slice_shape = s.divide(video_shape)

    def sched(key, blocks):
        if blocks is None:
            blocks = derived_blocks(variant, slice_shape, layers or p["layers"])
        elif layers and layers != len(blocks):
            raise ConfigError(f"layers = {layers}, but {key} lists {len(blocks)} blocks")
        return schedule_for(blocks, n_heads, d_head, p["wide_heads"])

    if first_slice_layers < 0:
        raise ConfigError(f"first_slice_layers must be >= 0, got {first_slice_layers}")
    first_sched = schedule_for(derived_blocks(variant, slice_shape, first_slice_layers),
                               n_heads, d_head, 0)
    return ModelConfig(
        variant=variant, video_shape=video_shape, channels=channels, head=head, s=s,
        kernel=kernel, d_e=d_e, d=d, enc_schedule=sched("enc_blocks", enc_blocks),
        dec_schedule=sched("dec_blocks", dec_blocks), mconv=as_ints(mconv, "mconv"),
        first_slice_schedule=first_sched, seed=seed).validate()


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class ParamStore:
    """Flat name -> Tensor map with deterministic iteration order."""

    def __init__(self, params):
        self._params = dict(params)

    def __getitem__(self, name):
        return self._params[name]

    def names(self):
        return sorted(self._params)

    def items(self):
        return [(n, self._params[n]) for n in self.names()]

    def tensors(self):
        return [self._params[n] for n in self.names()]

    def zero_grads(self):
        tc.zero_grads(self.tensors())

    def grads(self):
        return {n: (t.grad if t.grad is not None else np.zeros_like(t.data))
                for n, t in self.items()}

    def arrays(self):
        return {n: t.data for n, t in self.items()}

    def layer(self, prefix, i):
        return {k: self._params[f"{prefix}/l{i}/{k}"] for k in LAYER_KEYS}


def trunc_normal(rng, shape):
    """Normal(0, INIT_STD) with draws beyond 2 INIT_STD resampled.  Each
    round redraws the entries still out of range, in raster order, and
    checks only those again."""
    x = rng.standard_normal(shape) * INIT_STD
    flat = x.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2 * INIT_STD)
    while bad.size:
        flat[bad] = rng.standard_normal(bad.size) * INIT_STD
        bad = bad[np.abs(flat[bad]) > 2 * INIT_STD]
    return x.astype(np.float32)


# parameters of one attention layer, in initialization order
LAYER_KEYS = ("ln1_gain", "ln1_bias", "w_qkv", "w_p", "bias_t", "bias_h",
              "bias_w", "ln2_gain", "ln2_bias", "t1", "t2")


def _layer_param_arrays(sample, d, spec):
    na, da, b = spec.n_heads, spec.d_head, spec.block
    return dict(zip(LAYER_KEYS, (
        np.ones(d, dtype=np.float32),
        np.zeros(d, dtype=np.float32),
        sample((d, 3 * na * da)),
        sample((na * da, d)),
        np.zeros((na, 2 * b.t - 1), dtype=np.float32),
        np.zeros((na, 2 * b.h - 1), dtype=np.float32),
        np.zeros((na, 2 * b.w - 1), dtype=np.float32),
        np.ones(d, dtype=np.float32),
        np.zeros(d, dtype=np.float32),
        sample((d, d)),
        sample((d, d)),
    )))


def _decoder_arrays(sample, cfg, prefix, schedule, with_z_proj):
    T, H, W = cfg.slice_shape
    k_taps = len(tc.masked_taps(cfg.mconv))
    out = {
        f"{prefix}/chan_embed": sample((cfg.input_channels, cfg.d_e)),
        f"{prefix}/mconv_kernel": sample((k_taps * cfg.d_e, cfg.d)),
        f"{prefix}/mconv_bias": np.zeros(cfg.d, dtype=np.float32),
        f"{prefix}/pos_t": sample((T, cfg.d)),
        f"{prefix}/pos_h": sample((H, cfg.d)),
        f"{prefix}/pos_w": sample((W, cfg.d)),
    }
    if with_z_proj:
        out[f"{prefix}/z_proj"] = sample((cfg.d, cfg.d))
    for i, spec in enumerate(schedule):
        for k, v in _layer_param_arrays(sample, cfg.d, spec).items():
            out[f"{prefix}/l{i}/{k}"] = v
    return out


def _all_param_arrays(sample, cfg, head_init):
    T, H, W = cfg.slice_shape
    kk = int(np.prod(cfg.kernel))
    arrays = {
        "enc/conv_kernel": sample((kk * cfg.input_channels, cfg.d_e)),
        "enc/conv_bias": np.zeros(cfg.d_e, dtype=np.float32),
        "enc/pos_t": sample((T, cfg.d_e)),
        "enc/pos_h": sample((H, cfg.d_e)),
        "enc/pos_w": sample((W, cfg.d_e)),
        "enc/slice_embed": sample((cfg.n_slices, cfg.d_e)),
        "enc/in_proj": sample((cfg.d_e, cfg.d)),
    }
    for i, spec in enumerate(cfg.enc_schedule):
        for k, v in _layer_param_arrays(sample, cfg.d, spec).items():
            arrays[f"enc/l{i}/{k}"] = v
    arrays.update(_decoder_arrays(sample, cfg, "dec", cfg.dec_schedule, True))
    if cfg.first_slice_schedule:
        arrays.update(_decoder_arrays(sample, cfg, "dec0", cfg.first_slice_schedule, False))
    arrays["head/ln_gain"] = np.ones(cfg.d, dtype=np.float32)
    arrays["head/ln_bias"] = np.zeros(cfg.d, dtype=np.float32)
    if cfg.head == "categorical":
        for k in range(cfg.n_channels):
            arrays[f"head/u{k}"] = sample((cfg.d + k * N_VALUES, cfg.d))
        arrays["head/p"] = (sample((cfg.d, N_VALUES)) if head_init == "normal"
                            else np.zeros((cfg.d, N_VALUES), dtype=np.float32))
    else:
        arrays["head/u_det"] = sample((cfg.d, cfg.d))
        arrays["head/p_det"] = (sample((cfg.d, 1)) if head_init == "normal"
                                else np.zeros((cfg.d, 1), dtype=np.float32))
    return arrays


def init_params(cfg, head_init="zero"):
    """Fresh ParamStore for ``cfg``; head output matrices start at zero so
    training begins at the uniform distribution (set head_init='normal' for
    the randomized heads the causality tests need)."""
    rng = np.random.default_rng(cfg.seed)
    arrays = _all_param_arrays(lambda shape: trunc_normal(rng, shape), cfg, head_init)
    return ParamStore({n: Tensor(a, requires_grad=True) for n, a in arrays.items()})


def parameter_shapes(cfg):
    """name -> shape for every parameter, without allocating the values."""
    arrays = _all_param_arrays(
        lambda shape: np.broadcast_to(np.float32(0), shape), cfg, "zero")
    return {n: tuple(a.shape) for n, a in arrays.items()}


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def video_onehot(video):
    """(T,H,W,bytes) uint8 video -> (T,H,W,n_channels,16) float32 one-hots."""
    chans = split_channels(video)
    return tc.one_hot(chans, N_VALUES)


def _add_positional(x, pt, ph, pw):
    B, T, H, W, D = x.data.shape
    x = tc.add(x, tc.reshape(pt, (1, T, 1, 1, D)))
    x = tc.add(x, tc.reshape(ph, (1, 1, H, 1, D)))
    return tc.add(x, tc.reshape(pw, (1, 1, 1, W, D)))


def encode_slices(params, cfg, onehots, idxs):
    """Encode a batch of one decoder's slices -> (B, T', H', W', d), or None
    for the stand-alone first-slice decoder's, which sees no encoder output.

    ``onehots[b]`` is the (T,H,W,n_channels,16) one-hot Tensor of the video
    (``video_onehot``) whose slice ``idxs[b]`` is encoded; only the slices
    preceding it in the generation order are visible to the encoder.  The
    conv reads the one-hot itself through its visibility mask, so an entry
    makes no masked copy, and the graph keeps one one-hot per video.
    ``onehots`` is read once, so an iterator frees them before the layers.
    """
    ranks = np.array([slice_rank(cfg.s, idx) for idx in idxs])
    if _first_slice_decoder(cfg, ranks[0]):
        return None
    z = [tc.conv3d(tc.reshape(oh, (1, *cfg.video_shape, cfg.input_channels)),
                   params["enc/conv_kernel"], params["enc/conv_bias"], cfg.kernel, cfg.s,
                   context_padding(cfg.kernel, idx), cfg.slice_shape,
                   visible=visibility_mask(cfg.video_shape, cfg.s, idx))
         for oh, idx in zip(onehots, idxs, strict=True)]
    del onehots
    z = z[0] if len(z) == 1 else tc.concat(z, axis=0)
    z = _add_positional(z, params["enc/pos_t"], params["enc/pos_h"], params["enc/pos_w"])
    se = tc.gather(params["enc/slice_embed"], ranks)  # (B, d_e)
    z = tc.add(z, tc.reshape(se, (len(idxs), 1, 1, 1, cfg.d_e)))
    z = tc.matmul(z, params["enc/in_proj"])
    for i, spec in enumerate(cfg.enc_schedule):
        z = attention_layer(z, params.layer("enc", i), spec, causal=False)
    return z


def _first_slice_decoder(cfg, rank):
    """Whether slices of ``rank`` use the stand-alone first-slice decoder."""
    return bool(cfg.first_slice_schedule) and rank == 0


def decoder_for(cfg, rank):
    """(parameter prefix, layer schedule) of the decoder for slices of
    ``rank``: the stand-alone first-slice decoder or the main decoder."""
    if _first_slice_decoder(cfg, rank):
        return "dec0", cfg.first_slice_schedule
    return "dec", cfg.dec_schedule


def decode_slices(params, cfg, x, z, rank, record=None):
    """Decode a batch of slices -> (B, T', H', W', d).

    ``x``: the (B, T', H', W', n_channels*16) one-hot Tensor of the slices'
    own pixels.  ``rank`` picks the decoder through ``decoder_for``.  ``z``
    is the encoder output to condition on, or None for the stand-alone
    first-slice decoder.  ``record`` is passed to every attention layer
    (see ``attention.block_attention``).
    """
    prefix, schedule = decoder_for(cfg, rank)
    y = tc.matmul(x, params[f"{prefix}/chan_embed"])  # summed channel embeddings
    y = tc.masked_conv3d(y, params[f"{prefix}/mconv_kernel"],
                         params[f"{prefix}/mconv_bias"], cfg.mconv)
    y = _add_positional(y, params[f"{prefix}/pos_t"], params[f"{prefix}/pos_h"],
                        params[f"{prefix}/pos_w"])
    if z is not None:
        y = tc.add(y, tc.matmul(z, params[f"{prefix}/z_proj"]))
    del z
    for i, spec in enumerate(schedule):
        y = attention_layer(y, params.layer(prefix, i), spec, causal=True,
                            record=record)
    return y


def head_norm(params, y):
    """Layernormed decoder state, the input every head shares."""
    return tc.layernorm(y, params["head/ln_gain"], params["head/ln_bias"])


def channel_logits(params, y, onehots):
    """Yield each channel's logits (..., 16) from ``head_norm(y)``, y (..., d),
    and the one-hots of the channels before it, read from ``onehots`` (...,
    n_channels*16) only when that channel is asked for: the targets under
    teacher forcing, or the draws a sampler writes in between.  The output
    projection is shared across channels."""
    ln = head_norm(params, y)
    for k in range(onehots.data.shape[-1] // N_VALUES):
        inp = ln if k == 0 else tc.concat(
            [ln, tc.index(onehots, (..., slice(0, k * N_VALUES)))], axis=-1)
        u = tc.relu(tc.matmul(inp, params[f"head/u{k}"]))
        yield tc.matmul(u, params["head/p"])


def head_logits(params, cfg, y, slice_onehots_flat):
    """Teacher-forced ``channel_logits`` of decoded slices ``y`` on their own
    one-hots (B, P', n_channels*16) -> logits (B, P', n_channels, 16)."""
    B = y.data.shape[0]
    P = int(np.prod(cfg.slice_shape))
    per_channel = channel_logits(params, tc.reshape(y, (B, P, cfg.d)), slice_onehots_flat)
    return tc.concat([tc.reshape(lg, (B, P, 1, N_VALUES)) for lg in per_channel], axis=2)


def head_intensity(params, cfg, y):
    """Deterministic head -> sigmoid intensities (B, n, 1) for y holding
    any n positions per batch entry (n = P' for a decoded slice)."""
    B = y.data.shape[0]
    ln = head_norm(params, tc.reshape(y, (B, -1, cfg.d)))
    u = tc.relu(tc.matmul(ln, params["head/u_det"]))
    return tc.sigmoid(tc.matmul(u, params["head/p_det"]))


def nll_loss(logits, targets, pixel_mask):
    """Summed negative log-likelihood in nats over unmasked pixels.

    logits (B,P,nc,16); targets (B,P,nc) ints; pixel_mask (B,P) with 1 where
    the pixel contributes.
    """
    m = np.asarray(pixel_mask, dtype=logits.data.dtype)
    return tc.cross_entropy(logits, targets, m[..., None])


def deterministic_loss(pred, target, pixel_mask):
    """Binary cross-entropy H(z, y) summed over unmasked pixels, y clamped
    away from 0 and 1.  pred: Tensor (B, P, 1) in (0,1); target: array-like
    in [0,1]; pixel_mask (B, P) with 1 where the pixel contributes."""
    z = np.asarray(target, dtype=pred.data.dtype).reshape(pred.data.shape)
    m = np.asarray(pixel_mask, dtype=pred.data.dtype).reshape(pred.data.shape[:2])
    return tc.binary_cross_entropy(pred, z, m[..., None])


def pixel_loss_mask(cfg, idx, prime_frames):
    """(T',H',W') float: 1 where the pixel's loss counts (not a primed frame)."""
    planes = primed_plane_mask(cfg.s, idx, cfg.slice_shape[0], prime_frames)
    return np.broadcast_to(~planes[:, None, None], cfg.slice_shape).astype(np.float32)


# ---------------------------------------------------------------------------
# assembled forward passes
# ---------------------------------------------------------------------------

def forward_slices(params, cfg, videos, idxs, prime_frames=0, onehots=None):
    """Teacher-forced forward for a batch of (video, slice index) pairs.

    Returns (loss Tensor in nats, n_pixels, logits-or-intensity Tensor).
    Each decoder group sees one ``video_onehot`` Tensor per distinct video
    object (``onehots``, if given: one per batch entry, gradient leaves that
    let tests trace what reaches a logit) and cuts each slice from it; the
    uint8 videos give the targets.  A mixed batch runs the first-slice
    decoder's slices, then the rest, each in batch order; their outputs are
    merged into batch order and one ``slice_loss`` scores the whole batch.
    """
    first = [_first_slice_decoder(cfg, slice_rank(cfg.s, idx)) for idx in idxs]
    groups = [[b for b, f in enumerate(first) if f == want] for want in (True, False)]
    # a group's one-hots are built in the call, so that only it holds them
    outs = [_forward_group(params, cfg, _video_onehots([videos[b] for b in g]) if onehots is None
                           else [onehots[b] for b in g], [idxs[b] for b in g])
            for g in groups if g]
    rows = np.argsort(groups[0] + groups[1])  # batch entry -> row of the group outputs
    out = outs[0] if len(outs) == 1 else tc.gather(tc.concat(outs, axis=0), rows)
    loss, n_pix = slice_loss(cfg, out, *slice_targets(cfg, videos, idxs, prime_frames))
    return loss, n_pix, out


def _video_onehots(videos):
    """One ``video_onehot`` Tensor per distinct video object, listed per entry."""
    built = {key: Tensor(video_onehot(v)) for key, v in {id(v): v for v in videos}.items()}
    return [built[id(v)] for v in videos]


def _forward_group(params, cfg, onehots, idxs):
    """Head outputs of a batch of slices that all use one decoder.  The cut is
    a copy, and the encoder gets the one-hots as an iterator that frees them
    once its conv has read them (a first-slice group's when the group ends)."""
    B = len(idxs)
    P = int(np.prod(cfg.slice_shape))
    x = tc.concat([tc.reshape(tc.index(oh, slice_key(cfg.s, idx)),
                              (1, *cfg.slice_shape, cfg.input_channels))
                   for oh, idx in zip(onehots, idxs, strict=True)], axis=0)
    onehots = iter(onehots)
    y = decode_slices(params, cfg, x, encode_slices(params, cfg, onehots, idxs),
                      slice_rank(cfg.s, idxs[0]))
    if cfg.head == "categorical":
        return head_logits(params, cfg, y, tc.reshape(x, (B, P, cfg.input_channels)))
    return head_intensity(params, cfg, y)


def slice_targets(cfg, videos, idxs, prime_frames):
    """(B, P', bytes) uint8 target values and (B, P') float32 loss mask of a
    batch of (video, slice index) pairs."""
    P = int(np.prod(cfg.slice_shape))
    mask = np.stack([pixel_loss_mask(cfg, idx, prime_frames) for idx in idxs])
    targets = np.stack([extract_slice(v, cfg.s, idx).reshape(P, cfg.bytes_per_pixel)
                        for v, idx in zip(videos, idxs, strict=True)])
    return targets, mask.reshape(len(idxs), P)


def slice_loss(cfg, out, targets, mask):
    """(loss Tensor in nats, n_pixels) of the head output ``out`` (logits or
    intensities, (B, P', ...)) against ``slice_targets`` rows of the same B."""
    if cfg.head == "categorical":
        loss = nll_loss(out, split_channels(targets).astype(np.int64), mask)
    else:
        loss = deterministic_loss(out, targets.astype(np.float32) / 255.0, mask)
    return loss, float(mask.sum())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, arrays):
    """Write named arrays in name order through ``data.write_arrays``, uint8 as
    is, other integers as int64, the rest as float32: a bit-exact, atomic round trip."""
    arrays = {name: np.asarray(arrays[name]) for name in sorted(arrays)}  # 0-d stays 0-d
    write_arrays(path, CHECKPOINT_MAGIC, [
        (name, a if a.dtype == np.uint8 else
         a.astype("<i8" if a.dtype.kind in "iu" else "<f4", copy=False))
        for name, a in arrays.items()])


def load_checkpoint(path):
    """{name: array} of a checkpoint file, checked by ``data.read_arrays``."""
    return read_arrays(path, CHECKPOINT_MAGIC, "checkpoint")


def checkpoint_entries(cfg, arrays, prefix=""):
    """{parameter name: float32 copy of checkpoint entry ``prefix + name``}
    for every parameter of ``cfg``; a missing entry or one of another shape
    is a ConfigError, one that is not float32 a DataError, and a NaN or an
    infinity a NumericError, naming the first such entry in name order and
    its count."""
    out = {}
    for name, shape in parameter_shapes(cfg).items():
        entry = arrays.get(prefix + name)
        if entry is None:
            raise ConfigError(f"checkpoint is missing {prefix + name}")
        if entry.dtype != np.float32:
            raise DataError(f"checkpoint entry {prefix + name} is {entry.dtype}, not float32")
        if entry.shape != shape:
            raise ConfigError(
                f"checkpoint entry {prefix + name} has shape {entry.shape}, expected {shape}")
        out[name] = entry.astype(np.float32)
    for name in sorted(out):
        bad = np.count_nonzero(~np.isfinite(out[name]))
        if bad:
            what = f"entry {prefix}{name}" if prefix else f"parameter {name}"
            raise NumericError(f"non-finite {what} in checkpoint: "
                               f"{bad} of {out[name].size} entries")
    return out


def model_record(cfg):
    """A training checkpoint's ``meta/model``: UTF-8 ``field = repr`` lines of
    every field of ``cfg`` but ``seed``, which only picks the initial draw."""
    return np.frombuffer("".join(f"{f.name} = {getattr(cfg, f.name)!r}\n" for f in fields(cfg)
                                 if f.name != "seed").encode(), dtype=np.uint8)


def load_trained(path, cfg):
    """(arrays, ParamStore) of checkpoint ``path``, whose ``model_record`` must
    be ``cfg``'s; a ConfigError names a missing record or the first field that differs."""
    arrays = load_checkpoint(path)
    if "meta/model" not in arrays:
        raise ConfigError(f"{path}: checkpoint has no meta/model record of its model")
    got, want = (dict(line.partition(" = ")[::2] for line in
                      a.tobytes().decode("utf-8", "replace").splitlines())
                 for a in (arrays["meta/model"], model_record(cfg)))
    for name in want:
        if got.get(name) != want[name]:
            raise ConfigError(f"{path}: checkpoint model has {name} = {got.get(name)}, "
                              f"the config gives {want[name]}")
    return arrays, params_from_checkpoint(cfg, arrays)


def params_from_checkpoint(cfg, arrays):
    """Rebuild a ParamStore from the checked ``checkpoint_entries``."""
    entries = checkpoint_entries(cfg, arrays)
    return ParamStore({n: Tensor(a, requires_grad=True) for n, a in entries.items()})
