"""RMSProp-with-momentum training over shuffled video slices.

The optimizer is the non-centered variant with momentum applied to the
preconditioned gradient and epsilon inside the square root:

    acc <- decay*acc + (1-decay)*g^2
    mom <- momentum*mom + lr*g/sqrt(acc + eps)
    p   <- p - mom

Batches shuffle the full (video x slice) product every epoch so one batch
rarely concentrates on a single video; videos longer than the training
length are cropped randomly in time.  No gradient clipping and no explicit
regularization.  Step k's batch and crops depend only on (train_seed, k),
and a checkpoint holds everything else a step reads, so a fixed seed in
single-threaded mode reproduces the loss trajectory, checkpoints and logs
bit for bit, resumed or not.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as tc
from .config import DEFAULTS
from .data import DataError
from .subscale import check_frame_left, slice_order
from .tensor import ConfigError, NumericError

LOG_FORMAT = "step=%d nats=%r dims=%d bits_per_dim=%r wall_ms=%d"  # one train record


class OptimizerState:
    """Per-parameter second-moment and momentum buffers, and the float32
    bits/dim of the last ``stop_window`` steps that the early stop reads."""

    def __init__(self, params):
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


def _check_rmsprop(t):
    """Raise ConfigError unless the RMSProp settings of TrainConfig ``t``
    give finite updates: eps finite and > 0, decay in [0, 1], momentum in
    [0, 1), lr finite and >= 0 (NaN fails every test)."""
    checks = [("rms_eps", t.rms_eps, 0 < t.rms_eps < math.inf, "finite and > 0"),
              ("rms_decay", t.rms_decay, 0 <= t.rms_decay <= 1, "in [0, 1]"),
              ("rms_momentum", t.rms_momentum, 0 <= t.rms_momentum < 1, "in [0, 1)"),
              ("lr", t.lr, 0 <= t.lr < math.inf, "finite and >= 0")]
    for name, value, ok, want in checks:
        if not ok:
            raise ConfigError(f"{name} must be {want}, got {value!r}")


def rmsprop_step(params, grads, state, tcfg):
    """One elementwise-independent update of every parameter in place, with
    the RMSProp settings of TrainConfig ``tcfg``.

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
    decay, momentum, lr, eps = tcfg.rms_decay, tcfg.rms_momentum, tcfg.lr, tcfg.rms_eps
    for name, t in params.items():
        g = grads[name]
        acc = state.acc[name]
        mom = state.mom[name]
        acc *= decay
        acc += (1.0 - decay) * g * g
        mom *= momentum
        mom += lr * g / np.sqrt(acc + eps)
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
    """The training keys of a config file, under their file names."""
    steps: int = DEFAULTS["steps"]
    batch_slices: int = DEFAULTS["batch_slices"]
    train_seed: int = DEFAULTS["train_seed"]
    prime_frames: int = DEFAULTS["prime_frames"]
    lr: float = DEFAULTS["lr"]
    rms_decay: float = DEFAULTS["rms_decay"]
    rms_momentum: float = DEFAULTS["rms_momentum"]
    rms_eps: float = DEFAULTS["rms_eps"]
    ckpt_every: int = DEFAULTS["ckpt_every"]
    log_every: int = DEFAULTS["log_every"]
    stop_bits_per_dim: float = DEFAULTS["stop_bits_per_dim"]
    stop_window: int = DEFAULTS["stop_window"]


def train(cfg, tcfg, videos, params=None, opt=None, start_step=0,
          ckpt_path=None, log_fn=None):
    """Train on a list of uint8 videos; returns (params, opt, records).

    Step k trains on ``batch_at(..., k)`` with crops drawn from
    ``default_rng((train_seed, 0x0C0F, k))``, and ``opt`` carries the
    early-stop window, so a resumed run continues exactly.  Each record is
    (step, nats, dims, bits_per_dim, wall_ms); every ``log_every``-th record
    is passed to ``log_fn`` when given.  Raises NumericError on a non-finite loss or
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
    if tcfg.train_seed < 0:
        raise ConfigError(f"train_seed must be >= 0, got {tcfg.train_seed}")
    if tcfg.steps < start_step:
        raise ConfigError(f"steps must be >= the start step {start_step}, got {tcfg.steps}")
    check_frame_left(tcfg.prime_frames, cfg.video_shape[0], "train on")
    _check_rmsprop(tcfg)
    for v in videos:
        cfg.check_video(v, crop=True)
    if params is None:
        params = M.init_params(cfg)
    if opt is None:
        opt = OptimizerState(params)
    records = []
    for step in range(start_step, tcfg.steps):
        t0 = time.monotonic()
        batch = batch_at(len(videos), cfg.s, tcfg.batch_slices, tcfg.train_seed, step)
        crop_rng = np.random.default_rng((tcfg.train_seed, 0x0C0F, step))
        clips = [random_temporal_crop(videos[v], cfg.video_shape[0], crop_rng)
                 for v, _ in batch]
        idxs = [idx for _, idx in batch]
        params.zero_grads()
        loss, n_pix, _ = M.forward_slices(params, cfg, clips, idxs, prime_frames=tcfg.prime_frames)
        if not np.isfinite(loss.data):
            raise NumericError(f"non-finite loss at step {step}: {loss.item()!r}")
        tc.backward(loss)
        nats = loss.item()
        rmsprop_step(params, params.grads(), opt, tcfg)
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
            save_training_checkpoint(ckpt_path, cfg, params, opt, step + 1)
    if ckpt_path:
        save_training_checkpoint(ckpt_path, cfg, params, opt,
                                 records[-1][0] + 1 if records else start_step)
    return params, opt, records


def save_training_checkpoint(path, cfg, params, opt, step):
    arrays = dict(params.arrays())
    arrays.update(opt.arrays())
    arrays["meta/step"] = np.array([step], dtype=np.int64)
    arrays["meta/model"] = M.model_record(cfg)
    M.save_checkpoint(path, arrays)


def load_training_checkpoint(path, cfg):
    """Returns (params, opt, step) from a checkpoint that
    ``save_training_checkpoint`` wrote.  ``M.load_trained`` checks the model
    record, and ``M.checkpoint_entries`` the parameter and optimizer entries,
    a missing one included (ConfigError); a missing step or early-stop
    window, a negative second moment, a step that is not one int64 >= 0, or
    a window that is not 1-D float32, is a DataError."""
    arrays, params = M.load_trained(path, cfg)
    opt = OptimizerState(params)
    opt.acc = M.checkpoint_entries(cfg, arrays, "opt/acc/")
    opt.mom = M.checkpoint_entries(cfg, arrays, "opt/mom/")
    for key in ("meta/step", "meta/stop_window"):
        if key not in arrays:
            raise DataError(f"{path}: checkpoint is missing {key}")
    for name in sorted(opt.acc):
        neg = np.count_nonzero(opt.acc[name] < 0)
        if neg:
            raise DataError(f"{path}: negative second moment opt/acc/{name}: "
                            f"{neg} of {opt.acc[name].size} entries")
    step = arrays["meta/step"]
    if step.dtype != np.int64 or step.size != 1 or step.item() < 0:
        raise DataError(f"{path}: meta/step {step.dtype} {step.tolist()} is not one int64 >= 0")
    opt.window = arrays["meta/stop_window"]
    if opt.window.dtype != np.float32 or opt.window.ndim != 1:
        raise DataError(f"{path}: meta/stop_window {opt.window.dtype} {opt.window.shape} "
                        "is not 1-D float32")
    return params, opt, int(step.item())
