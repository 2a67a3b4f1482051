"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Everything here is seeded and deterministic.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (causality_sweep, grad_check, gradient_reachability, reach_matrix,
                     sum_all, tiny_config)
from svt import metrics, model as M, optim as O, tensor as tc
from svt.attention import AttentionLayerSpec, BlockShape, attention_layer
from svt.connectivity import (dependency_graph, find_blind_spots,
                              verify_encoder_connectivity)
from svt.data import gen_sprites, write_container
from svt.sampler import SampleConfig, sample_video
from svt.subscale import (SubscaleFactor, context_padding, extract_slice,
                          merge_slice, slice_key, slice_order)
from svt.tensor import Tensor
from test_connectivity import CATALOG, blocks_of


@contextmanager
def criterion(n, desc, budget_s=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {n:2d}] FAIL  {desc}")
        raise
    dt = time.monotonic() - t0
    print(f"\n[criterion {n:2d}] PASS  {desc} ({dt:.1f}s)")
    if budget_s is not None:
        assert dt < budget_s, f"criterion {n} exceeded its {budget_s}s budget"


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


class TestAcceptance:
    def test_01_gradient_suite(self):
        """Every differentiable op and a 2-layer encoder/decoder composite
        agree with central finite differences to < 1e-4 in float64."""
        with criterion(1, "gradient suite < 1e-4 (ops + composite)", budget_s=120):
            rng = np.random.default_rng(0)
            worst = {}

            w34 = Tensor(rng.standard_normal((3, 4)), dtype=np.float64)
            x = t64(rng, 3, 4)
            y = t64(rng, 3, 4)
            g = t64(rng, 4)
            b = t64(rng, 4)
            w35 = Tensor(rng.standard_normal((4, 5)), dtype=np.float64)
            w43 = Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
            w38 = Tensor(rng.standard_normal((3, 8)), dtype=np.float64)
            w32 = Tensor(rng.standard_normal((3, 2)), dtype=np.float64)
            w25 = Tensor(rng.standard_normal((2, 5)), dtype=np.float64)
            z34 = 1.0 / (1.0 + np.exp(-rng.standard_normal((3, 4))))  # BCE targets
            # 3 entries clamped at each end, the rest in [0.2, 0.8]
            pred = Tensor(np.array([[-0.5, 0.2, 1.3, 0.5], [0.35, -0.1, 0.8, 1.05],
                                    [0.65, 1.5, -0.3, 0.4]]), requires_grad=True)
            idx = rng.integers(0, 3, size=(6,))
            wg = Tensor(rng.standard_normal((6, 4)), dtype=np.float64)
            targets = rng.integers(0, 4, size=3)
            hot = Tensor(tc.one_hot(np.array([1, 3]), 4, dtype=np.float64),
                         requires_grad=True)
            checks = {
                "matmul": (lambda a: sum_all(tc.matmul(a, w35)), [x]),
                "add": (lambda a, c: sum_all(tc.mul(tc.add(a, c), w34)), [x, y]),
                "mul": (lambda a, c: sum_all(tc.mul(tc.mul(a, c), w34)), [x, y]),
                "relu": (lambda a: sum_all(tc.mul(tc.relu(a), w34)), [x]),
                "sigmoid": (lambda a: sum_all(tc.mul(tc.sigmoid(a), w34)), [x]),
                "sum_all": (lambda a: sum_all(a), [x]),
                "softmax": (lambda a: sum_all(tc.mul(tc.softmax(a), w34)), [x]),
                "layernorm": (lambda a, gg, bb: sum_all(tc.mul(tc.layernorm(a, gg, bb), w34)), [x, g, b]),
                "reshape": (lambda a: sum_all(tc.mul(tc.reshape(a, (4, 3)), w43)), [x]),
                "transpose": (lambda a: sum_all(tc.mul(tc.transpose(a, (1, 0)), w43)), [x]),
                "concat": (lambda a, c: sum_all(tc.mul(tc.concat([a, c], -1), w38)), [x, y]),
                "index": (lambda a: sum_all(tc.mul(tc.index(a, (..., slice(1, 3))), w32)), [x]),
                "gather": (lambda a: sum_all(tc.mul(tc.gather(a, idx), wg)), [x]),
                "cross_entropy": (lambda a: tc.cross_entropy(a, targets, [0.5, 0.0, 2.0]), [x]),
                "binary_cross_entropy": (lambda a: tc.binary_cross_entropy(
                    a, z34, np.abs(w34.data)), [pred]),
                "one_hot_leaf": (lambda a: sum_all(tc.mul(tc.matmul(a, w35), w25)), [hot]),
            }
            for name, (fn, inputs) in checks.items():
                worst[name] = grad_check(fn, inputs)

            # exactly at the clamp, binary_cross_entropy passes the interior
            # gradient: compare it with a difference quotient taken inside
            at = Tensor(np.array([1e-7, 1.0 - 1e-7]), requires_grad=True)
            z_at, w_at = np.array([0.3, 0.6]), np.array([1.5, 0.5])
            tc.backward(tc.binary_cross_entropy(at, z_at, w_at))
            for j, step in ((0, 1e-13), (1, -1e-13)):
                moved = at.data.copy()
                moved[j] += step
                f0, f1 = (tc.binary_cross_entropy(Tensor(v), z_at, w_at).item()
                          for v in (at.data, moved))
                num, ana = (f1 - f0) / (moved[j] - at.data[j]), at.grad[j]
                worst[f"binary_cross_entropy_at_clamp_{j}"] = (
                    abs(ana - num) / max(1.0, abs(ana), abs(num)))

            # convolutions
            xc = t64(rng, 1, 3, 4, 4, 2)
            kc = t64(rng, 8 * 2, 3)
            bc = t64(rng, 3)
            wc = Tensor(rng.standard_normal((1, 2, 2, 2, 3)), dtype=np.float64)
            worst["conv3d"] = grad_check(
                lambda a, k, bb: sum_all(tc.mul(tc.conv3d(
                    a, k, bb, (2, 2, 2), (2, 2, 2), (1, 0, -1), (2, 2, 2)), wc)),
                [xc, kc, bc])
            n_taps = len(tc.masked_taps((3, 3, 3)))
            km = t64(rng, n_taps * 2, 3)
            wm = Tensor(rng.standard_normal((1, 3, 4, 4, 3)), dtype=np.float64)
            worst["masked_conv3d"] = grad_check(
                lambda a, k, bb: sum_all(tc.mul(tc.masked_conv3d(a, k, bb, (3, 3, 3)), wm)),
                [xc, km, bc])

            # strided index (slice extraction path)
            vol = t64(rng, 4, 4, 4, 2)
            wv = Tensor(rng.standard_normal((2, 2, 2, 2)), dtype=np.float64)
            key = slice_key(SubscaleFactor(2, 2, 2), (0, 1, 0))
            worst["index_slice"] = grad_check(
                lambda a: sum_all(tc.mul(tc.index(a, key), wv)), [vol])

            # attention layer on a 2x2x2 block
            spec = AttentionLayerSpec(BlockShape(2, 2, 2), 2, 3)
            lp = {k: t64(rng, *shape) for k, shape in [
                ("ln1_gain", (4,)), ("ln1_bias", (4,)), ("w_qkv", (4, 18)),
                ("w_p", (6, 4)), ("bias_t", (2, 3)), ("bias_h", (2, 3)),
                ("bias_w", (2, 3)), ("ln2_gain", (4,)), ("ln2_bias", (4,)),
                ("t1", (4, 4)), ("t2", (4, 4))]}
            xa = t64(rng, 1, 2, 2, 2, 4)
            wa = Tensor(rng.standard_normal((1, 2, 2, 2, 4)), dtype=np.float64)
            names = sorted(lp)
            worst["attention_layer"] = grad_check(
                lambda a, *ps: sum_all(tc.mul(attention_layer(
                    a, dict(zip(names, ps)), spec, causal=True), wa)),
                [xa] + [lp[n] for n in names])

            # full 2-layer encoder/decoder composite (sampled coordinates,
            # eps below the head-ReLU kink scale)
            cfg = tiny_config(video_shape=(2, 4, 4), s=(2, 2, 2), d_e=6, d=8,
                              n_heads=2, d_head=4)
            ps64 = _float64_params(cfg, seed=15)
            video = np.random.default_rng(16).integers(0, 256, (2, 4, 4, 3)).astype(np.uint8)
            probe = ["enc/conv_kernel", "enc/l0/w_qkv", "enc/l1/t2",
                     "dec/mconv_kernel", "dec/l0/bias_h", "dec/l1/t1",
                     "dec/z_proj", "head/u1", "head/p", "enc/slice_embed"]

            def composite(*tensors):
                store = M.ParamStore({**{n: t for n, t in ps64.items()},
                                      **dict(zip(probe, tensors))})
                loss, _, _ = M.forward_slices(store, cfg, [video], [(1, 0, 1)], 0)
                return loss

            worst["composite_enc_dec"] = grad_check(
                composite, [ps64[n] for n in probe], eps=3e-4, max_entries=30, seed=3)

            # every public op of svt.tensor has a check above
            not_ops = {"Tensor", "Node", "ShapeError", "ConfigError", "NumericError",
                       "no_grad", "backward", "zero_grads", "one_hot", "read_only",
                       "kernel_taps", "masked_taps", "masked_conv_windows", "layernorm_array"}
            public = {n for n, v in vars(tc).items()
                      if not n.startswith("_") and getattr(v, "__module__", None) == tc.__name__}
            assert not_ops <= public, sorted(not_ops - public)
            assert not public - not_ops - set(worst), sorted(public - not_ops - set(worst))

            for name, err in sorted(worst.items()):
                assert err < 1e-4, f"{name}: {err}"
            print("  worst op error: %.3e (%s)" % (
                max(worst.values()), max(worst, key=worst.get)))

    def test_02_causality_suite(self):
        """On video 4x8x8, s=(2,2,2), 2+2 layers, d=16: every logit's input
        gradient is zero exactly where the generation order forbids
        influence, across slices, within slices and within pixel channels."""
        with criterion(2, "causality: gradients zero exactly off the order",
                       budget_s=600):
            total = 0
            for seed in (0, 1, 2):
                cfg = tiny_config(d_e=12, d=16, n_heads=2, d_head=8, layers=2,
                                  seed=100 + seed)
                params = M.init_params(cfg, head_init="normal")
                video = np.random.default_rng(seed).integers(
                    0, 256, (4, 8, 8, 3)).astype(np.uint8)
                total += causality_sweep(params, cfg, video, seed=seed)
            print(f"  {total} logit groups checked across 3 seeds")
            assert total == 3 * 8 * 32 * 6

    def test_03_subscale_geometry(self):
        """Exhaustive partition/round-trip/order checks for every divisor
        factor on shapes up to 8x8x8; signed context padding formula."""
        with criterion(3, "subscale geometry exhaustive + signed padding"):
            def divisors(n):
                return [d for d in range(1, n + 1) if n % d == 0]

            shapes = 0
            for T in range(1, 9):
                for H in range(1, 9):
                    for W in range(1, 9):
                        vol = np.arange(T * H * W, dtype=np.int32).reshape(T, H, W)
                        for st in divisors(T):
                            for sh in divisors(H):
                                for sw in divisors(W):
                                    s = SubscaleFactor(st, sh, sw)
                                    order = slice_order(s)
                                    assert order == sorted(order)
                                    assert len(order) == s.size
                                    seen = np.zeros_like(vol)
                                    canvas = np.zeros_like(vol)
                                    for idx in order:
                                        slc = extract_slice(vol, s, idx)
                                        a, bb, c = idx
                                        assert np.array_equal(
                                            slc, vol[a::st, bb::sh, c::sw])
                                        seen[a::st, bb::sh, c::sw] += 1
                                        canvas = merge_slice(canvas, s, idx, slc)
                                    assert (seen == 1).all()
                                    assert np.array_equal(canvas, vol)
                                    shapes += 1
            print(f"  {shapes} (shape, factor) combinations verified")
            for k, idx, expect in [((4, 2, 2), (0, 0, 0), (2, 1, 1)),
                                   ((4, 2, 2), (1, 0, 1), (1, 1, 0)),
                                   ((4, 2, 2), (3, 1, 1), (-1, 0, 0)),
                                   ((6, 1, 1), (5, 0, 0), (-2, 0, 0)),
                                   ((3, 3, 3), (2, 2, 2), (-1, -1, -1))]:
                assert context_padding(k, idx) == expect

    def test_04_channel_codec(self):
        """Split/join identity: exhaustive per byte, 1e5 sampled RGB triples;
        coarse-then-fine channel ordering."""
        with criterion(4, "channel codec: exhaustive byte + 1e5 RGB triples"):
            every = np.arange(256, dtype=np.uint8).reshape(-1, 1)
            assert np.array_equal(M.join_channels(M.split_channels(every)), every)
            rng = np.random.default_rng(4)
            triples = rng.integers(0, 256, (100_000, 3)).astype(np.uint8)
            split = M.split_channels(triples)
            assert split.shape == (100_000, 6) and split.max() <= 15
            assert np.array_equal(M.join_channels(split), triples)
            assert np.array_equal(split[:, :3], triples >> 4)   # coarse x3 first
            assert np.array_equal(split[:, 3:], triples & 0x0F)  # then fine x3

    def test_05_analyzer_equivalence(self):
        """Analyzer == gradient reachability on a >= 10-schedule catalog；
        encoder connectivity of the default schedule at 4x32x32; the App-C
        blind pair; kernel-enlargement monotonicity."""
        with criterion(5, "dependency analyzer vs gradients + default schedule"):
            assert len(CATALOG) >= 10
            for shape, raw_blocks, kernel in CATALOG:
                assert int(np.prod(shape)) <= 64
                rep = dependency_graph(shape, blocks_of(raw_blocks), kernel)
                for seed in (0, 1, 2):
                    grad = gradient_reachability(shape, blocks_of(raw_blocks),
                                                 kernel, seed=seed)
                    assert np.array_equal(reach_matrix(rep), grad), (shape, raw_blocks, seed)

            canonical = M.build_variant("spatiotemporal", (16, 64, 64))
            ok, witness = verify_encoder_connectivity(
                (4, 32, 32), [s.block for s in canonical.enc_schedule])
            assert ok, f"encoder disconnected: {witness}"

            rep3 = dependency_graph((4, 32, 32),
                                    [s.block for s in canonical.dec_schedule], (3, 3, 3))
            H = W = 32
            p = 1 * H * W  # (1, 0, 0)
            q = p - 1      # (0, 31, 31)
            assert not reach_matrix(rep3)[p, q], "App-C pair must be blind"
            pairs = find_blind_spots(rep3, max_report=256)
            assert ((1, 0, 0), (0, H - 1, W - 1)) in pairs

            rep5 = dependency_graph((4, 32, 32),
                                    [s.block for s in canonical.dec_schedule], (5, 5, 5))
            assert not (rep3.reach & ~rep5.reach).any(), "kernel growth lost reach"
            assert rep5.blind_count() < rep3.blind_count()
            print(f"  blind pairs 3^3: {rep3.blind_count()}  5^3: {rep5.blind_count()}")

    def test_06_uniform_start(self):
        """Zero-initialized head: bits/dim = 8.0 +- 0.1 on any data."""
        with criterion(6, "uniform start at 8.0 bits/dim"):
            cfg = tiny_config()
            params = M.init_params(cfg)
            for seed in range(3):
                video = np.random.default_rng(seed).integers(
                    0, 256, (4, 8, 8, 3)).astype(np.uint8)
                res = metrics.evaluate(params, cfg, [video], prime_frames=1)
                assert res.bits_per_dim == pytest.approx(8.0, abs=0.1)

    def test_07_overfit_regression(self):
        """Tiny spatiotemporal model (d=64, 2+2 layers) memorizes 4 sprite
        videos of 4x16x16 within 5000 steps, then argmax sampling reproduces
        every non-primed pixel exactly."""
        with criterion(7, "overfit to < 0.5 bits/dim + exact argmax replay",
                       budget_s=900):
            videos = gen_sprites(4, 16, 16, 4, n_sprites=2, sprite_size=4,
                                 vel_max=1, channels=3, seed=7)
            cfg = M.build_variant(
                "spatiotemporal", (4, 16, 16), s=(2, 2, 2), kernel=(3, 3, 3),
                d_e=32, d=64, n_heads=4, d_head=16, layers=2,
                enc_blocks=[(2, 8, 8)] * 2, dec_blocks=[(2, 8, 8)] * 2, seed=11)
            tcfg = O.TrainConfig(steps=5000, batch_slices=8, train_seed=1,
                                 prime_frames=1, lr=1e-3,
                                 stop_bits_per_dim=0.001, stop_window=10)
            params, _, records = O.train(cfg, tcfg, videos)
            last_step, bpd = records[-1][0], records[-1][3]
            assert last_step < 5000
            assert bpd < 0.5, f"bits/dim {bpd} at step {last_step}"
            res = metrics.evaluate(params, cfg, videos, prime_frames=1)
            assert res.bits_per_dim < 0.5
            print(f"  stopped at step {last_step}, eval {res.bits_per_dim:.4f} bits/dim")

            # every non-primed value is memorised: the teacher-forced argmax
            # hits it, so the argmax replay below depends on no near-tie
            P = int(np.prod(cfg.slice_shape))
            for i, v in enumerate(videos):
                for idx in slice_order(cfg.s):
                    with tc.no_grad():
                        _, _, logits = M.forward_slices(params, cfg, [v], [idx],
                                                        prime_frames=1)
                    target = M.split_channels(extract_slice(v, cfg.s, idx).reshape(P, -1))
                    wrong = logits.data[0].argmax(axis=-1) != target
                    n_wrong = int(wrong[M.pixel_loss_mask(cfg, idx, 1).reshape(P) > 0].sum())
                    assert n_wrong == 0, \
                        f"video {i} slice {idx}: {n_wrong} teacher-forced argmax errors"

            scfg = SampleConfig(prime_frames=1, temperature=1e-6, seed=0)
            for i, v in enumerate(videos):
                out, _ = sample_video(params, cfg, v, scfg, video_index=i)
                assert np.array_equal(out[0], v[0])
                assert np.array_equal(out[1:], v[1:]), \
                    f"video {i}: {(out[1:] != v[1:]).sum()} mismatched bytes"

    def test_08_deterministic_head_regression(self):
        """Grayscale sprite task: the trained deterministic head beats the
        copy-last-frame baseline by >= 20% within 3000 steps; the y=0.5
        analytic value validates the metric."""
        with criterion(8, "deterministic head >= 20% over copy-last-frame"):
            # analytic check of the metric itself: y = 0.5 on 64x64 frames
            assert metrics.nats_per_frame(5 * 4096 * math.log(2.0), 5) == \
                pytest.approx(4096 * math.log(2.0))
            assert 4096 * math.log(2.0) == pytest.approx(2839.2, abs=0.1)

            videos = gen_sprites(4, 16, 16, 6, n_sprites=2, sprite_size=3,
                                 vel_max=1, channels=1, seed=3)
            cfg = M.build_variant(
                "spatiotemporal", (4, 16, 16), s=(2, 2, 2), kernel=(3, 3, 3),
                channels="gray", head="deterministic",
                d_e=24, d=48, n_heads=4, d_head=12, layers=2,
                enc_blocks=[(2, 8, 8)] * 2, dec_blocks=[(2, 8, 8)] * 2, seed=21)
            tcfg = O.TrainConfig(steps=3000, batch_slices=8, train_seed=2,
                                 prime_frames=1, lr=2e-4,
                                 stop_bits_per_dim=0.2, stop_window=10)
            params, _, records = O.train(cfg, tcfg, videos)
            assert records[-1][0] < 3000
            res = metrics.evaluate(params, cfg, videos, prime_frames=1)
            improvement = 1.0 - res.nats_per_frame / res.baseline_nats_per_frame
            print(f"  model {res.nats_per_frame:.2f} vs baseline "
                  f"{res.baseline_nats_per_frame:.2f} nats/frame "
                  f"({improvement:.0%} better, step {records[-1][0]})")
            assert improvement >= 0.20

    def test_09_reproducibility(self, tmp_path):
        """Fixed seed with --threads 1: two CLI runs give bit-identical loss
        logs (wall-clock column excluded), checkpoints and samples; loading a
        checkpoint reproduces logits bit-exactly in process."""
        with criterion(9, "bit-identical runs and checkpoints"):
            cfg_text = "\n".join([
                "variant = spatiotemporal", "video_t = 4", "video_h = 8",
                "video_w = 8", "subscale_t = 2", "subscale_h = 2",
                "subscale_w = 2", "kernel_t = 3", "kernel_h = 3", "kernel_w = 3",
                "d_embed = 8", "d_model = 16", "n_heads = 2", "d_head = 8",
                "layers = 2", "enc_blocks = 2x4x4;2x4x4",
                "dec_blocks = 2x4x4;2x4x4", "model_seed = 3",
                "batch_slices = 4", "steps = 4", "train_seed = 1",
                "prime_frames = 1", "lr = 0.001", "temperature = 1.0", ""])
            config = tmp_path / "repro.cfg"
            config.write_text(cfg_text)
            data = tmp_path / "data.svt"
            write_container(data, gen_sprites(4, 8, 8, 2, sprite_size=2, seed=5))
            outputs = []
            for tag in ("a", "b"):
                ck = tmp_path / f"{tag}.ckpt"
                lg = tmp_path / f"{tag}.log"
                sm = tmp_path / f"{tag}.svt"
                for args in (
                    ["--threads", "1", "train", "--config", str(config),
                     "--data", str(data), "--out-ckpt", str(ck), "--log", str(lg)],
                    ["--threads", "1", "sample", "--config", str(config),
                     "--ckpt", str(ck), "--prime-video", str(data),
                     "--prime-frames", "1", "--seed", "9", "--out", str(sm)],
                ):
                    r = subprocess.run([sys.executable, "-m", "svt.cli", *args],
                                       capture_output=True, text=True)
                    assert r.returncode == 0, r.stderr
                log_no_wall = [
                    " ".join(kv for kv in line.split() if not kv.startswith("wall_ms"))
                    for line in lg.read_text().splitlines()]
                outputs.append((ck.read_bytes(), log_no_wall, sm.read_bytes()))
            assert outputs[0][0] == outputs[1][0], "checkpoints differ"
            assert outputs[0][1] == outputs[1][1], "loss logs differ"
            assert outputs[0][2] == outputs[1][2], "samples differ"

            cfg = tiny_config()
            params = M.init_params(cfg, head_init="normal")
            video = np.random.default_rng(0).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
            _, _, logits = M.forward_slices(params, cfg, [video], [(1, 0, 1)], 0)
            ck = tmp_path / "inproc.ckpt"
            M.save_checkpoint(ck, params.arrays())
            params2 = M.params_from_checkpoint(cfg, M.load_checkpoint(ck))
            _, _, logits2 = M.forward_slices(params2, cfg, [video], [(1, 0, 1)], 0)
            assert np.array_equal(logits.data, logits2.data)

    def test_10_variant_construction(self):
        """build_variant reproduces the canonical variant geometry."""
        with criterion(10, "variant geometry facts"):
            st = M.build_variant("spatiotemporal", (16, 64, 64))
            assert st.s == (4, 2, 2)
            assert st.n_slices == 16
            assert st.slice_shape == (4, 32, 32)

            sp = M.build_variant("spatial", (4, 64, 64))
            assert sp.s == (1, 2, 2)
            assert sp.n_slices == 4
            assert sp.slice_shape == (4, 32, 32)

            sf = M.build_variant("single_frame", (16, 64, 64))
            assert sf.s == (16, 1, 1)
            assert sf.kernel == (6, 1, 1)
            for a in range(6):
                pad = context_padding(sf.kernel, (a, 0, 0))
                assert pad == (3 - a, 0, 0)
                # visible window = frames a-3..a+2; future frames are masked,
                # so the effective context is the 3 past frames
                lo = 0 * sf.s.t - pad[0]
                assert lo == a - 3


def _float64_params(cfg, seed):
    ps = M.init_params(cfg, head_init="normal")
    rng = np.random.default_rng(seed)
    out = {}
    for name, t in ps.items():
        data = t.data.astype(np.float64)
        if not data.any():
            data = rng.standard_normal(data.shape) * 0.1
        out[name] = Tensor(data, requires_grad=True, dtype=np.float64)
    return M.ParamStore(out)
