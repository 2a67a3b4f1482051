"""RMSProp-with-momentum training over shuffled video slices.

The optimizer is the non-centered variant with momentum applied to the
preconditioned gradient and epsilon inside the square root:

    acc <- decay*acc + (1-decay)*g^2
    mom <- momentum*mom + lr*g/sqrt(acc + eps)
    p   <- p - mom

Batches shuffle the full (video x slice) product every epoch so one batch
rarely concentrates on a single video; videos longer than the training
length are cropped randomly in time.  No gradient clipping and no explicit
regularization.  Step k's batch and crops depend only on (seed, k), and a
checkpoint holds everything else a step reads, so a fixed seed in
single-threaded mode reproduces the loss trajectory, checkpoints and logs
bit for bit, resumed or not.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import tensor as tc
from .data import DataError
from .subscale import check_frame_left, slice_order
from .tensor import ConfigError, NumericError

LOG_FORMAT = "step=%d nats=%r dims=%d bits_per_dim=%r wall_ms=%d"  # one train record


@dataclass
class RmsPropConfig:
    lr: float = 2e-5
    decay: float = 0.95
    momentum: float = 0.9
    eps: float = 1e-8


class OptimizerState:
    """Per-parameter second-moment and momentum buffers, and the float32
    bits/dim of the last ``stop_window`` steps that the early stop reads."""

    def __init__(self, params, hyper=None):
        self.hyper = hyper or RmsPropConfig()
        self.acc = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.mom = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.window = np.zeros(0, dtype=np.float32)

    def arrays(self):
        out = {"meta/stop_window": self.window}
        for n, a in self.acc.items():
            out[f"opt/acc/{n}"] = a
        for n, a in self.mom.items():
            out[f"opt/mom/{n}"] = a
        return out


def _check_rmsprop(h):
    """Raise ConfigError unless the RMSProp settings give finite updates:
    eps finite and > 0, decay in [0, 1], momentum in [0, 1), lr finite and
    >= 0 (NaN fails every test)."""
    checks = [("rms_eps", h.eps, 0 < h.eps < math.inf, "finite and > 0"),
              ("rms_decay", h.decay, 0 <= h.decay <= 1, "in [0, 1]"),
              ("rms_momentum", h.momentum, 0 <= h.momentum < 1, "in [0, 1)"),
              ("lr", h.lr, 0 <= h.lr < math.inf, "finite and >= 0")]
    for name, value, ok, want in checks:
        if not ok:
            raise ConfigError(f"{name} must be {want}, got {value!r}")


def rmsprop_step(params, grads, state):
    """One elementwise-independent update of every parameter in place.

    Every gradient is checked first, so a wrong shape (ConfigError) or a
    non-finite entry (NumericError, naming the first such parameter) leaves
    all parameters and optimizer buffers unchanged."""
    for name, t in params.items():
        g = grads[name]
        if g.shape != t.data.shape:
            raise ConfigError(f"gradient shape {g.shape} != param {name} shape {t.data.shape}")
        bad = np.count_nonzero(~np.isfinite(g))
        if bad:
            raise NumericError(f"non-finite gradient for {name}: {bad} of {g.size} entries")
    h = state.hyper
    for name, t in params.items():
        g = grads[name]
        acc = state.acc[name]
        mom = state.mom[name]
        acc *= h.decay
        acc += (1.0 - h.decay) * g * g
        mom *= h.momentum
        mom += h.lr * g / np.sqrt(acc + h.eps)
        t.data -= mom


def batch_at(n_videos, s, batch_size, seed, step):
    """Step ``step``'s [(video_index, slice_index), ...] batch: every epoch
    reshuffles the full (video x slice) product with a seed derived from
    (seed, epoch) and cuts it into batches of ``batch_size``, the last one
    short when the size does not divide it."""
    if n_videos < 1:
        raise ConfigError("empty dataset")
    order = slice_order(s)
    n_pairs = n_videos * len(order)
    epoch, k = divmod(step, -(-n_pairs // batch_size))
    perm = np.random.default_rng((seed, epoch)).permutation(n_pairs)
    return [(int(i) // len(order), order[int(i) % len(order)])
            for i in perm[k * batch_size:(k + 1) * batch_size]]


def random_temporal_crop(video, t_target, rng):
    """Contiguous t_target frames at a uniform offset."""
    T = video.shape[0]
    if T < t_target:
        raise ConfigError(f"video has {T} frames, need at least {t_target}")
    if T == t_target:
        return video
    off = int(rng.integers(0, T - t_target + 1))
    return video[off:off + t_target]


@dataclass
class TrainConfig:
    steps: int = 1000
    batch_slices: int = 64
    seed: int = 0
    prime_frames: int = 1
    ckpt_every: int = 0           # 0: final checkpoint only
    log_every: int = 1
    rmsprop: RmsPropConfig = field(default_factory=RmsPropConfig)
    stop_bits_per_dim: float = 0.0  # 0: never stop early
    stop_window: int = 20


def train(cfg, tcfg, videos, params=None, opt=None, start_step=0,
          ckpt_path=None, log_fn=None):
    """Train on a list of uint8 videos; returns (params, opt, records).

    Step k trains on ``batch_at(..., k)`` with crops drawn from
    ``default_rng((seed, 0x0C0F, k))``, and ``opt`` carries the early-stop
    window, so a resumed run continues exactly.  Each record is (step, nats,
    dims, bits_per_dim, wall_ms); every ``log_every``-th record is passed to
    ``log_fn`` when given.  Raises NumericError on a non-finite loss or
    gradient, before the step changes any parameter, optimizer buffer or
    checkpoint.  For the deterministic head the bits/dim column carries
    nats-per-pixel converted to bits over the byte dimension, so the early
    stop knob works for both heads.
    """
    if tcfg.batch_slices < 1:
        raise ConfigError("batch size must be >= 1")
    if tcfg.log_every < 1:
        raise ConfigError(f"log_every must be >= 1, got {tcfg.log_every}")
    if tcfg.ckpt_every < 0:
        raise ConfigError(f"ckpt_every must be >= 0, got {tcfg.ckpt_every}")
    if tcfg.stop_bits_per_dim > 0 and tcfg.stop_window < 1:
        raise ConfigError(f"early stop needs stop_window >= 1, got {tcfg.stop_window}")
    if tcfg.seed < 0:
        raise ConfigError(f"train_seed must be >= 0, got {tcfg.seed}")
    if tcfg.steps < start_step:
        raise ConfigError(f"steps must be >= the start step {start_step}, got {tcfg.steps}")
    check_frame_left(tcfg.prime_frames, cfg.video_shape[0], "train on")
    _check_rmsprop(opt.hyper if opt is not None else tcfg.rmsprop)
    for v in videos:
        cfg.check_video(v, crop=True)
    if params is None:
        params = M.init_params(cfg)
    if opt is None:
        opt = OptimizerState(params, tcfg.rmsprop)
    records = []
    for step in range(start_step, tcfg.steps):
        t0 = time.monotonic()
        batch = batch_at(len(videos), cfg.s, tcfg.batch_slices, tcfg.seed, step)
        crop_rng = np.random.default_rng((tcfg.seed, 0x0C0F, step))
        clips = [random_temporal_crop(videos[v], cfg.video_shape[0], crop_rng)
                 for v, _ in batch]
        idxs = [idx for _, idx in batch]
        params.zero_grads()
        loss, n_pix, _ = M.forward_slices(params, cfg, clips, idxs, prime_frames=tcfg.prime_frames)
        if not np.isfinite(loss.data):
            raise NumericError(f"non-finite loss at step {step}: {loss.item()!r}")
        tc.backward(loss)
        nats = loss.item()
        rmsprop_step(params, params.grads(), opt)
        dims = cfg.bytes_per_pixel * n_pix
        bpd = nats / (math.log(2.0) * dims) if dims else float("nan")
        wall_ms = int((time.monotonic() - t0) * 1000)
        rec = (step, nats, int(dims), bpd, wall_ms)
        records.append(rec)
        if log_fn and step % tcfg.log_every == 0:
            log_fn(rec)
        if tcfg.stop_bits_per_dim > 0:
            opt.window = np.append(opt.window, np.float32(bpd))[-tcfg.stop_window:]
            if (len(opt.window) == tcfg.stop_window
                    and float(opt.window.max()) < tcfg.stop_bits_per_dim):
                break  # the final checkpoint below is written at step + 1
        if ckpt_path and tcfg.ckpt_every and (step + 1) % tcfg.ckpt_every == 0:
            save_training_checkpoint(ckpt_path, params, opt, step + 1)
    if ckpt_path:
        save_training_checkpoint(ckpt_path, params, opt, records[-1][0] + 1 if records else start_step)
    return params, opt, records


def save_training_checkpoint(path, params, opt, step):
    arrays = dict(params.arrays())
    arrays.update(opt.arrays())
    arrays["meta/step"] = np.array([step], dtype=np.int64)
    M.save_checkpoint(path, arrays)


def load_training_checkpoint(path, cfg, hyper=None):
    """Returns (params, opt, step); opt state is zero if absent, and so is
    the step, and the early-stop window is empty.  Entries are checked by
    ``M.checkpoint_entries``; a negative second moment, a step that is not
    one int64 >= 0, or a window that is not 1-D float32, is a DataError."""
    arrays = M.load_checkpoint(path)
    params = M.params_from_checkpoint(cfg, arrays)
    opt = OptimizerState(params, hyper)
    if any(n.startswith("opt/") for n in arrays):
        opt.acc = M.checkpoint_entries(cfg, arrays, "opt/acc/")
        opt.mom = M.checkpoint_entries(cfg, arrays, "opt/mom/")
    for name in sorted(opt.acc):
        neg = np.count_nonzero(opt.acc[name] < 0)
        if neg:
            raise DataError(f"{path}: negative second moment opt/acc/{name}: "
                            f"{neg} of {opt.acc[name].size} entries")
    step = arrays.get("meta/step", np.zeros(1, np.int64))
    if step.dtype != np.int64 or step.size != 1 or step.item() < 0:
        raise DataError(f"{path}: meta/step {step.dtype} {step.tolist()} is not one int64 >= 0")
    opt.window = arrays.get("meta/stop_window", opt.window)
    if opt.window.dtype != np.float32 or opt.window.ndim != 1:
        raise DataError(f"{path}: meta/stop_window {opt.window.dtype} {opt.window.shape} "
                        "is not 1-D float32")
    return params, opt, int(step.item())
