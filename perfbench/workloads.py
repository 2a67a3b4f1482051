"""The benchmark's three workloads, driven through svt's public functions.

* desk-train: ``optim.train`` on the shipped desk config in chunks of
  steps, each followed by ``metrics.evaluate`` over the dataset.  The only
  workload with a backward pass and an optimizer; periodic checkpoints
  exercise the write path.
* desk-sample: ``sampler.sample_video`` with the desk model, whose
  normal-initialised parameters are loaded back from a checkpoint written
  here.  The decoder is recomputed per pixel without gradients, so per-op
  Python overhead sets the cost; a cache or incremental decoding shows here
  and nowhere else.
* canonical: teacher-forced ``model.forward_slices`` under ``no_grad`` on
  one 4x32x32 slice of the canonical 16x64x64 config, each followed by
  ``connectivity.report_text`` on both stacks.  Same code at a scale where
  BLAS matmul dominates, so Python-overhead and matmul-path changes move
  different workloads.  Forward only: a graph-keeping forward peaks at
  4.5 GB here.

Inputs come from ``data.gen_sprites`` seeded by the benchmark seed.  Every
timed unit is one attempted op; an op that raises or fails its check counts
as failed.  A run repeats its cycle of ops until ``--seconds`` is used, but
never fewer than the minimum counts; a fixed-work run (the traced one) does
exactly the minimum counts.
"""

import dataclasses
import gc
import math
import os
import resource
import statistics
import time
import traceback
import types

import numpy as np

from svt import cli, connectivity, data, metrics, model as M, optim, sampler, subscale
from svt import tensor as tc

DESK_CONFIG = "sprites-rgb.cfg"
CANONICAL_CONFIG = "base-16x64x64.cfg"
DESK_VIDEOS = 4

TRAIN_CHUNK = 10           # steps per optim.train call; the dataset is evaluated after each
CKPT_EVERY = 5
MIN_TRAIN_STEPS = 20
LOSS_WINDOW = 10           # last steps whose mean bits/dim must be well below the start
WINDOW_MAX_SHARE = 0.5     # ... at most this share of the step-0 value
UNIFORM_BPD = 8.0          # zero-initialised head: log2(16) bits per split channel
UNIFORM_TOL = 1e-4

MIN_SAMPLED_VIDEOS = 2
REPLAY_TOL = 1e-5          # a replay mismatch is admitted only within this of a CDF step

MIN_FORWARDS = 2
ANALYZE_PER_FORWARD = 3
BLIND_PAIRS = 2307893
ORDERED_PAIRS = 8386560
# Teacher-forced loss (nats) of the canonical forward on the seed code,
# normal-initialised heads, float32, one BLAS thread.  The seed picks the
# variant: gen_sprites(seed=variant) and slice rank CANONICAL_RANKS[variant].
CANONICAL_RANKS = (3, 6, 9, 12)
CANONICAL_LOSS = {0: 51350.40234375, 1: 69672.2265625, 2: 68978.5, 3: 69199.9765625}
CANONICAL_RTOL = 1e-5

SETUP_REPEATS = {"desk-train": 5, "desk-sample": 5, "canonical": 3}

# Host speed on shared machines drifts by up to 1.5x within minutes (the same
# desk train step measured 141-367 ms within half an hour), far beyond any bound a
# benchmark could use.  So on the desk workloads a fixed BLAS kernel,
# independent of svt, is timed next to every op, and each op's wall time is
# rescaled to a machine on which that kernel takes CAL_REF_S; in ten-run
# trials this cut the spread of the run medians from 10-20% to about 5%.
# The canonical forward (large BLAS, tens of thousands of page faults) does
# not track that kernel, nor a canonical-sized matmul: rescaled, its spread
# rose from 5-8% to 11-14%, so it keeps wall time.
RESCALED = {"desk-train": True, "desk-sample": True, "canonical": False}
CAL_MATMULS = 20           # 128x128 float32 products per kernel call
CAL_REF_S = 1e-3
CAL_WINDOW_S = 3.0         # kernel timings this close to an op calibrate it


class Clock:
    """Wall-clock intervals, rescaled to the reference speed of a fixed
    kernel when ``rescale`` is set."""

    def __init__(self, rescale):
        self.rescale = rescale
        self._a = np.random.default_rng(0).random((128, 128), dtype=np.float32)
        self.kernel = []      # (start, seconds) of every kernel call
        self.spent = 0.0      # seconds spent in the kernel

    def calibrate(self):
        if not self.rescale:
            return
        t = time.perf_counter()
        for _ in range(CAL_MATMULS):
            self._a @ self._a
        dt = time.perf_counter() - t
        self.kernel.append((t, dt))
        self.spent += dt

    def scaled(self, t0, t1, excluded=0.0):
        """Seconds of [t0, t1], less ``excluded``, at the reference speed."""
        if not self.rescale:
            return t1 - t0 - excluded
        near = [k for t, k in self.kernel if t0 - CAL_WINDOW_S <= t <= t1 + CAL_WINDOW_S]
        if not near:
            near = [min(self.kernel, key=lambda c: abs(c[0] - t0))[1]]
        return (t1 - t0 - excluded) * CAL_REF_S / statistics.median(near)


class Run:
    """State of one workload run: settings, op accounting, results."""

    def __init__(self, root, workload, seed, seconds, fixed, tracer=None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.fixed = fixed
        self.tracer = tracer
        self.tmp = os.path.join(root, ".perfbench-out", f"tmp-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.clock = Clock(RESCALED[workload])
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.units = {}       # per-layer normalisers: sampled pixels, ...
        self.e2e = {}         # end-to-end metric -> value
        self.samples = {}     # rescaled and wall per-op times behind them
        self.named = []       # (name, value, unit, note) for the text report
        self.notes = []
        self.setup_s = None

    def path(self, name):
        return os.path.join(self.tmp, name)

    def config_path(self, name):
        return os.path.join(self.root, "configs", name)

    def op(self, kind):
        if self.tracer is not None:
            self.tracer.start_op(kind)

    def relabel(self, kind):
        if self.tracer is not None:
            self.tracer.relabel_op(kind)

    def more(self, done, minimum, deadline):
        if done < minimum:
            return True
        return not self.fixed and time.perf_counter() < deadline

    def attempt(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def setup(self, fn):
        """Run ``fn`` several times (once in fixed-work runs); the median of
        its rescaled times is setup_s, its last result is returned."""
        spans = []
        out = None
        for _ in range(1 if self.fixed else SETUP_REPEATS[self.workload]):
            out = None
            gc.collect()
            self.op("setup")
            self.clock.calibrate()
            t = time.perf_counter()
            out = fn()
            spans.append((t, time.perf_counter()))
        self.clock.calibrate()
        self.setup_s = self._summarise("setup", [(t0, t1, 0.0, 1) for t0, t1 in spans])[0]
        return out

    def _summarise(self, key, spans):
        """(rescaled median, wall median) of op spans (t0, t1, excluded, divisor)."""
        scaled = [self.clock.scaled(t0, t1, ex) / n for t0, t1, ex, n in spans]
        wall = [(t1 - t0 - ex) / n for t0, t1, ex, n in spans]
        self.samples[key] = {"scaled_s": scaled, "wall_s": wall, "spans": spans}
        self.samples["kernel"] = self.clock.kernel
        return statistics.median(scaled), statistics.median(wall)

    def finish(self, op, op_spans, task, task_spans, items, items_name=None):
        """End-to-end metrics from the spans (t0, t1, excluded, divisor) of
        the main and the second op; ``op``/``task`` are (name, unit) for the
        text report, unit "ms" or "s"."""
        for key, (name, unit), spans in (("op", op, op_spans), ("task", task, task_spans)):
            scaled, wall = self._summarise(key, spans)
            self.e2e[f"{key}_ms_p50"] = 1e3 * scaled
            f = 1e3 if unit == "ms" else 1.0
            note = f"(wall {wall * f:.6g} {unit}, n={len(spans)})"
            self.named.append((name, scaled * f, unit, note))
            t = tail(self.samples[key]["scaled_s"])
            if t is not None:
                stem = name[:-len("_p50")] if name.endswith("_p50") else name
                self.named.append((f"{stem}_p{t[0]:.0f}", t[1] * f, unit, f"(n={len(spans)})"))
        busy = sum(self.clock.scaled(t0, t1, ex) for t0, t1, ex, _ in op_spans)
        self.e2e["items_per_s"] = items / busy
        if items_name:
            wall = sum(t1 - t0 - ex for t0, t1, ex, _ in op_spans)
            self.named.append((items_name, items / busy, "1/s",
                               f"(wall {items / wall:.6g} 1/s, {items} in {wall:.3f} s)"))

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when that is not above the median."""
    k = len(values) - 10
    if 2 * k <= len(values):
        return None
    return 100.0 * k / len(values), sorted(values)[k - 1]


def _config(run, name):
    conf = cli.load_config(run.config_path(name))
    return conf, cli.model_config_from(conf)


def _dataset(run, cfg, n_videos, seed, name):
    """gen_sprites videos, written to a container and read back."""
    videos = data.gen_sprites(*cfg.video_shape, n_videos, channels=cfg.bytes_per_pixel,
                              seed=seed)
    path = run.path(name)
    data.write_container(path, videos)
    return data.read_container(path)


def _guarded(run, what, fn, *args, **kwargs):
    """Call ``fn``; an exception is reported and returned as None."""
    try:
        return fn(*args, **kwargs)
    except Exception:
        run.errors.append(f"{what} raised:\n{traceback.format_exc()}")
        return None


# ---------------------------------------------------------------------------
# desk-train
# ---------------------------------------------------------------------------

def desk_train(run):
    def setup():
        conf, cfg = _config(run, DESK_CONFIG)
        videos = _dataset(run, cfg, DESK_VIDEOS, run.seed, "train.svt")
        return conf, cfg, videos, M.init_params(cfg)

    conf, cfg, videos, params = run.setup(setup)
    tcfg = dataclasses.replace(cli.train_config_from(conf, types.SimpleNamespace(steps=None)),
                               ckpt_every=CKPT_EVERY, stop_bits_per_dim=0.0, log_every=1)
    ckpt = run.path("train.ckpt")

    # Train in chunks, resumed from the returned params and optimizer state
    # (the same trajectory as one long call), and evaluate the dataset after
    # each chunk, so both ops sample the whole run.
    steps, bpd, evals = [], [], []
    opt = None
    eval_bpd = float("nan")
    deadline = time.perf_counter() + run.seconds
    while run.more(len(bpd), MIN_TRAIN_STEPS, deadline):
        # A step runs from the end of the previous one (or of the kernel
        # call after it) to its log callback, so it includes a periodic
        # checkpoint written after the previous step.
        def on_step(rec):
            nonlocal last
            steps.append((last, time.perf_counter(), 0.0, 1))
            bpd.append(rec[3])
            run.op("train_step")
            run.clock.calibrate()
            last = time.perf_counter()

        run.op("train_step")
        run.clock.calibrate()
        last = time.perf_counter()
        done = len(bpd)
        out = _guarded(run, f"optim.train from step {done}", optim.train, cfg,
                       dataclasses.replace(tcfg, steps=done + TRAIN_CHUNK), videos,
                       params=params, opt=opt, start_step=done, ckpt_path=ckpt,
                       log_fn=on_step)
        run.relabel("train_ckpt")
        if out is None:
            run.attempt(False, f"train step {len(bpd)}")
            break
        params, opt, _ = out
        nats = dims = 0.0
        for i, video in enumerate(videos):
            run.op("eval_video")
            run.clock.calibrate()
            t = time.perf_counter()
            r = _guarded(run, f"metrics.evaluate on video {i}", metrics.evaluate,
                         params, cfg, [video], conf["prime_frames"])
            evals.append((t, time.perf_counter(), 0.0, 1))
            ok = r is not None and math.isfinite(r.bits_per_dim)
            run.attempt(ok, f"eval video {i} after step {len(bpd)}: bits/dim not finite")
            if ok:
                nats += r.total_nats
                dims += r.dims
        eval_bpd = nats / (math.log(2.0) * dims) if dims else float("nan")

    bad = {i for i, b in enumerate(bpd) if not math.isfinite(b)}
    for i in sorted(bad):
        run.errors.append(f"train step {i}: bits/dim {bpd[i]!r} is not finite")
    if bpd and abs(bpd[0] - UNIFORM_BPD) > UNIFORM_TOL:
        bad.add(0)
        run.errors.append(f"train step 0: bits/dim {bpd[0]!r} != {UNIFORM_BPD} (uniform start)")
    if len(bpd) >= LOSS_WINDOW:
        window = float(np.mean(bpd[-LOSS_WINDOW:]))
        if not window < WINDOW_MAX_SHARE * bpd[0]:
            bad.add(len(bpd) - 1)
            run.errors.append(f"last {LOSS_WINDOW} steps average {window!r} bits/dim, "
                              f"not below {WINDOW_MAX_SHARE} x the start {bpd[0]!r}")
    run.attempted += len(bpd)
    run.failed += len(bad)

    run.clock.calibrate()
    run.units.update(train_steps=len(steps), eval_videos=len(evals))
    run.finish(("train_step_ms_p50", "ms"), steps, ("eval_ms_per_video", "ms"), evals,
               tcfg.batch_slices * len(steps), "train_slices_per_s")
    run.notes = [f"bits/dim: step 0 {bpd[0]!r}, last {LOSS_WINDOW} steps "
                 f"{float(np.mean(bpd[-LOSS_WINDOW:]))!r}, "
                 f"eval over the dataset {eval_bpd!r}"]


# ---------------------------------------------------------------------------
# desk-sample
# ---------------------------------------------------------------------------

def desk_sample(run):
    def setup():
        conf, cfg = _config(run, DESK_CONFIG)
        primes = _dataset(run, cfg, DESK_VIDEOS, run.seed, "primes.svt")
        ckpt = run.path("sample.ckpt")
        M.save_checkpoint(ckpt, M.init_params(cfg, head_init="normal").arrays())
        return conf, cfg, primes, M.params_from_checkpoint(cfg, M.load_checkpoint(ckpt))

    conf, cfg, primes, params = run.setup(setup)
    scfg = sampler.SampleConfig(prime_frames=conf["prime_frames"],
                                temperature=conf["temperature"], seed=run.seed)
    Ts, Hs, Ws = cfg.slice_shape

    def unprimed(idx):
        planes = subscale.primed_plane_mask(cfg.s, idx, Ts, scfg.prime_frames)
        return int((~planes).sum()) * Hs * Ws

    # Per-slice times, from a timer around the sampler's own slice loop.
    slices = []
    inner = sampler.sample_slice

    def timed_slice(params_, cfg_, canvas, idx, scfg_, video_index=0):
        n = unprimed(idx)
        run.clock.calibrate()
        t = time.perf_counter()
        out = inner(params_, cfg_, canvas, idx, scfg_, video_index)
        if n:
            slices.append((t, time.perf_counter(), 0.0, n))
            run.units["sampled_pixels"] = run.units.get("sampled_pixels", 0) + n
            run.units["sampled_slices"] = run.units.get("sampled_slices", 0) + 1
        return out

    videos = []
    admitted = draws = 0
    deadline = time.perf_counter() + run.seconds
    sampler.sample_slice = timed_slice
    try:
        while run.more(len(videos), MIN_SAMPLED_VIDEOS, deadline):
            i = len(videos)
            prime = primes[i % len(primes)]
            run.op("sample_video")
            spent = run.clock.spent
            t = time.perf_counter()
            out = _guarded(run, f"sample_video {i}", sampler.sample_video,
                           params, cfg, prime, scfg, video_index=i)
            videos.append((t, time.perf_counter(), run.clock.spent - spent, 1))
            run.op("replay")
            ok = out is not None
            if ok:
                video, split = out
                ok, n_draws, n_admitted = _check_sample(run, params, cfg, scfg, prime,
                                                        video, split, i)
                draws += n_draws
                admitted += n_admitted
            run.attempt(ok, f"sampled video {i} failed its check")
    finally:
        sampler.sample_slice = inner

    run.clock.calibrate()
    run.finish(("sample_ms_per_pixel", "ms"), slices, ("sample_s_per_video", "s"), videos,
               run.units.get("sampled_pixels", 0))
    run.notes = [f"replay: {draws} draws, {admitted} mismatches admitted "
                 f"within {REPLAY_TOL} of a CDF step"]


def _check_sample(run, params, cfg, scfg, prime, video, split, video_index):
    """Primed frames copied exactly, and a teacher-forced replay through the
    same Philox streams reproduces every sampled value.

    Returns (ok, draws, admitted mismatches)."""
    p = scfg.prime_frames
    if not np.array_equal(video[:p], prime[:p]):
        run.errors.append(f"video {video_index}: primed frames not copied exactly")
        return False, 0, 0
    Ts, Hs, Ws = cfg.slice_shape
    P = Ts * Hs * Ws
    draws = admitted = 0
    for idx in subscale.slice_order(cfg.s):
        rank = subscale.slice_rank(cfg.s, idx)
        with tc.no_grad():
            _, _, logits = M.forward_slices(params, cfg, [video], [idx], prime_frames=p)
        logits = logits.data.reshape(P, cfg.n_channels, M.N_VALUES)
        sampled = M.extract_slice_u8(split, cfg.s, idx).reshape(P, cfg.n_channels)
        planes = subscale.primed_plane_mask(cfg.s, idx, Ts, p)
        for pixel in range(P):
            if planes[pixel // (Hs * Ws)]:
                continue
            for c in range(cfg.n_channels):
                stream = sampler._position_stream(scfg.seed, video_index, rank, pixel, c)
                got = sampler.sample_categorical(logits[pixel, c], scfg.temperature, stream)
                draws += 1
                want = int(sampled[pixel, c])
                if got == want:
                    continue
                u = sampler._position_stream(scfg.seed, video_index, rank, pixel, c).random()
                z = sampler.apply_temperature(logits[pixel, c], scfg.temperature)
                cdf = np.cumsum(np.exp(z - z.max()) / np.exp(z - z.max()).sum())
                lo, hi = min(got, want), max(got, want)
                if abs(u - cdf[lo]) <= REPLAY_TOL and cdf[hi - 1] - cdf[lo] <= REPLAY_TOL:
                    admitted += 1
                    continue
                run.errors.append(f"video {video_index} slice {idx} pixel {pixel} channel {c}: "
                                  f"sampled {want}, replay drew {got}")
                return False, draws, admitted
    return True, draws, admitted


# ---------------------------------------------------------------------------
# canonical
# ---------------------------------------------------------------------------

def canonical_inputs(cfg, seed):
    """(gen_sprites seed, slice index) of the canonical forward for ``seed``."""
    variant = seed % len(CANONICAL_RANKS)
    return variant, subscale.slice_order(cfg.s)[CANONICAL_RANKS[variant]]


def canonical(run):
    def setup():
        conf, cfg = _config(run, CANONICAL_CONFIG)
        variant, _ = canonical_inputs(cfg, run.seed)
        videos = _dataset(run, cfg, 1, variant, "canonical.svt")
        return conf, cfg, videos, M.init_params(cfg, head_init="normal")

    conf, cfg, videos, params = run.setup(setup)
    variant, idx = canonical_inputs(cfg, run.seed)
    expect = f"blind pairs: {BLIND_PAIRS} of {ORDERED_PAIRS} ordered pairs"

    # Each forward is followed by ANALYZE_PER_FORWARD analyze calls, so both
    # ops sample the whole run.
    forwards, analyses, losses = [], [], []
    reference = CANONICAL_LOSS[variant]
    deadline = time.perf_counter() + run.seconds
    while run.more(len(forwards), MIN_FORWARDS, deadline):
        run.op("forward")
        t = time.perf_counter()
        with tc.no_grad():
            out = _guarded(run, "forward_slices", M.forward_slices, params, cfg, videos,
                           [idx], prime_frames=conf["prime_frames"])
        forwards.append((t, time.perf_counter(), 0.0, 1))
        loss = float("nan") if out is None else out[0].item()
        ok = (math.isfinite(loss) and (not losses or loss == losses[0]) and
              abs(loss - reference) <= CANONICAL_RTOL * abs(reference))
        losses.append(loss)
        run.attempt(ok, f"forward {len(forwards) - 1}: loss {loss!r}, reference "
                        f"{reference!r} (rtol {CANONICAL_RTOL}), first {losses[0]!r}")
        for _ in range(ANALYZE_PER_FORWARD):
            run.op("analyze")
            t = time.perf_counter()
            text = _guarded(run, "report_text", connectivity.report_text, cfg.slice_shape,
                            cfg.dec_schedule, cfg.mconv, enc_schedule=cfg.enc_schedule,
                            max_pairs=8, stack="both")
            analyses.append((t, time.perf_counter(), 0.0, 1))
            ok = (text is not None and expect in text
                  and "encoder connectivity: connected" in text)
            run.attempt(ok, f"analyze {len(analyses) - 1}: expected '{expect}' and a "
                            f"connected encoder, got:\n{text}")
    run.finish(("canonical_fwd_s_per_slice", "s"), forwards, ("analyze_s", "s"), analyses,
               len(forwards))
    run.notes = [f"canonical forward: variant {variant}, slice {idx}, loss {losses[0]!r} nats"]


WORKLOADS = {"desk-train": desk_train, "desk-sample": desk_sample, "canonical": canonical}
