"""Optimizer, batching, cropping and the training loop."""

import dataclasses
import math
import shutil

import numpy as np
import pytest

from helpers import make_batches, tiny_config
from svt import cli
from svt import model as M
from svt import optim as O
from svt import tensor as tc
from svt.data import DataError, gen_sprites, write_container
from svt.model import ParamStore
from svt.subscale import SubscaleFactor, slice_rank
from svt.tensor import ConfigError, Tensor
from test_cli import TINY_CONFIG


def scalar_params(value):
    return ParamStore({"w": Tensor(np.array([value], dtype=np.float32),
                                   requires_grad=True)})


class TestRmsProp:
    def test_zero_gradient_no_motion(self):
        ps = scalar_params(1.5)
        state = O.OptimizerState(ps)
        O.rmsprop_step(ps, {"w": np.zeros(1, dtype=np.float32)}, state, O.TrainConfig())
        assert ps["w"].data[0] == 1.5

    def test_single_step_formula(self):
        g = 0.25
        ps = scalar_params(1.0)
        h = O.TrainConfig()
        state = O.OptimizerState(ps)
        O.rmsprop_step(ps, {"w": np.array([g], dtype=np.float32)}, state, h)
        acc = (1 - h.rms_decay) * g * g
        expect = 1.0 - h.lr * g / math.sqrt(acc + h.rms_eps)
        assert ps["w"].data[0] == pytest.approx(expect, rel=1e-5)
        assert state.acc["w"][0] == pytest.approx(acc, rel=1e-5)

    def test_quadratic_bowl_monotone_after_warmup(self):
        """Minimizing 0.5*(w-3)^2 descends monotonically once the
        second-moment estimate settles (lr small enough that 100 steps stay
        on the approach; near the optimum momentum would overshoot)."""
        ps = scalar_params(0.0)
        state, tcfg = O.OptimizerState(ps), O.TrainConfig(lr=5e-4)
        objective = []
        for _ in range(100):
            w = float(ps["w"].data[0])
            objective.append(0.5 * (w - 3.0) ** 2)
            O.rmsprop_step(ps, {"w": np.array([w - 3.0], dtype=np.float32)}, state, tcfg)
        tail = objective[10:]
        assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))
        assert objective[-1] < 0.75 * objective[0]

    def test_shape_mismatch_raises(self):
        ps = scalar_params(0.0)
        state = O.OptimizerState(ps)
        with pytest.raises(ConfigError):
            O.rmsprop_step(ps, {"w": np.zeros(2, dtype=np.float32)}, state, O.TrainConfig())

    def test_elementwise_independence(self):
        """Permuting parameter order permutes updates identically."""
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(6).astype(np.float32)
        grads = rng.standard_normal(6).astype(np.float32)
        perm = rng.permutation(6)
        a = ParamStore({"w": Tensor(vals.copy(), requires_grad=True)})
        sa = O.OptimizerState(a)
        O.rmsprop_step(a, {"w": grads}, sa, O.TrainConfig())
        b = ParamStore({"w": Tensor(vals[perm].copy(), requires_grad=True)})
        sb = O.OptimizerState(b)
        O.rmsprop_step(b, {"w": grads[perm]}, sb, O.TrainConfig())
        assert np.array_equal(a["w"].data[perm], b["w"].data)


class TestBatching:
    def test_full_epoch_in_one_batch(self):
        s = SubscaleFactor(2, 2, 1)  # 4 slices
        batch = O.batch_at(2, s, 8, seed=0, step=0)
        assert sorted(batch) == sorted(
            (v, idx) for v in range(2) for idx in
            [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)])

    def test_same_seed_same_stream(self):
        s = SubscaleFactor(2, 1, 1)
        for step in range(5):
            assert O.batch_at(3, s, 4, 9, step) == O.batch_at(3, s, 4, 9, step)

    def test_epochs_reshuffle(self):
        s = SubscaleFactor(2, 2, 2)
        first, second = (O.batch_at(4, s, 32, 1, step) for step in (0, 1))
        assert sorted(first) == sorted(second) and first != second

    def test_same_video_multiplicity_near_hypergeometric(self):
        """Per-batch same-video counts concentrate near the expectation for
        sampling without replacement from the (video x slice) product."""
        n_videos, batch = 16, 16
        s = SubscaleFactor(4, 2, 2)  # 16 slices/video, population 256
        counts = []
        for step in range(200):
            b = O.batch_at(n_videos, s, batch, 3, step)
            vids = [v for v, _ in b]
            counts.append(np.mean([vids.count(v) for v in set(vids)]))
        # expected per-video draws within a batch: batch/n_videos = 1, plus
        # light clustering; simulation oracle puts the mean near 1.13
        sim = np.random.default_rng(0)
        oracle = []
        population = [(v, i) for v in range(n_videos) for i in range(s.size)]
        for _ in range(500):
            picks = sim.choice(len(population), size=batch, replace=False)
            vids = [population[i][0] for i in picks]
            oracle.append(np.mean([vids.count(v) for v in set(vids)]))
        assert abs(np.mean(counts) - np.mean(oracle)) < 0.05

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            O.batch_at(0, SubscaleFactor(1, 1, 1), 1, seed=0, step=0)

    @pytest.mark.parametrize("n_videos, s, batch", [
        (2, (2, 2, 1), 8), (3, (2, 1, 1), 4), (4, (2, 2, 2), 5), (1, (4, 2, 2), 16),
        (5, (1, 1, 1), 7)])
    def test_matches_the_stream(self, n_videos, s, batch):
        """Step k's batch is the k-th batch of the reference stream, for
        every step of three epochs, also when the batch size does not
        divide the epoch (its last batch is short)."""
        s = SubscaleFactor(*s)
        stream = make_batches(n_videos, s, batch, seed=4)
        for step in range(3 * -(-n_videos * s.size // batch)):
            assert O.batch_at(n_videos, s, batch, 4, step) == next(stream), step


class TestTemporalCrop:
    def test_identity_when_equal(self):
        v = np.arange(4 * 2 * 2 * 1, dtype=np.uint8).reshape(4, 2, 2, 1)
        out = O.random_temporal_crop(v, 4, np.random.default_rng(0))
        assert np.array_equal(out, v)

    def test_offsets_cover_range(self):
        v = np.arange(10).reshape(10, 1, 1, 1).astype(np.uint8)
        rng = np.random.default_rng(1)
        offsets = {int(O.random_temporal_crop(v, 4, rng)[0, 0, 0, 0])
                   for _ in range(300)}
        assert offsets == set(range(7))

    def test_spatial_dims_unchanged(self):
        v = np.zeros((8, 5, 6, 3), dtype=np.uint8)
        out = O.random_temporal_crop(v, 3, np.random.default_rng(2))
        assert out.shape == (3, 5, 6, 3)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            O.random_temporal_crop(np.zeros((2, 2, 2, 1), dtype=np.uint8), 4,
                                   np.random.default_rng(0))


class TestTrainLoop:
    def test_step0_uniform_bits(self):
        cfg = tiny_config()
        videos = [np.random.default_rng(i).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
                  for i in range(2)]
        tcfg = O.TrainConfig(steps=1, batch_slices=4, train_seed=0, prime_frames=1)
        _, _, records = O.train(cfg, tcfg, videos)
        assert records[0][3] == pytest.approx(8.0, abs=0.1)

    def test_seeded_run_reproduces_exactly(self):
        cfg = tiny_config()
        videos = [np.random.default_rng(7).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)]
        tcfg = O.TrainConfig(steps=3, batch_slices=2, train_seed=5, prime_frames=1)
        p1, _, r1 = O.train(cfg, tcfg, videos)
        p2, _, r2 = O.train(cfg, tcfg, videos)
        assert [r[:4] for r in r1] == [r[:4] for r in r2]
        for name, t in p1.items():
            assert np.array_equal(t.data, p2[name].data)

    def test_longer_videos_are_cropped(self):
        cfg = tiny_config()
        videos = [np.random.default_rng(8).integers(0, 256, (7, 8, 8, 3)).astype(np.uint8)]
        tcfg = O.TrainConfig(steps=2, batch_slices=2, train_seed=1, prime_frames=1)
        _, _, records = O.train(cfg, tcfg, videos)
        assert len(records) == 2

    def test_nonfinite_loss_aborts(self):
        cfg = tiny_config()
        ps = M.init_params(cfg)
        ps["enc/in_proj"].data[0, 0] = np.nan
        videos = [np.random.default_rng(9).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)]
        tcfg = O.TrainConfig(steps=1, batch_slices=1, train_seed=0, prime_frames=0)
        with pytest.raises(O.NumericError):
            O.train(cfg, tcfg, videos, params=ps)

    def test_nonfinite_gradient_changes_nothing(self, tmp_path, monkeypatch):
        """A NaN gradient behind a finite loss raises NumericError naming the
        first such parameter, before any parameter, optimizer buffer or
        checkpoint changes (the last parameter in update order is poisoned
        too, so an update loop that checked as it went would have moved
        every other one)."""
        cfg = tiny_config()
        videos = [np.random.default_rng(10).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)]
        ck = tmp_path / "t.ckpt"
        tcfg = O.TrainConfig(steps=3, batch_slices=2, train_seed=2, prime_frames=1, ckpt_every=1)
        params, opt, _ = O.train(cfg, dataclasses.replace(tcfg, steps=1), videos,
                                 ckpt_path=str(ck))
        on_disk = ck.read_bytes()
        before = {n: a.copy() for n, a in {**params.arrays(), **opt.arrays()}.items()}
        names = params.names()
        first, last = names[len(names) // 2], names[-1]
        backward = tc.backward

        def poisoned(loss, *args):
            backward(loss, *args)
            for name in (first, last):
                params[name].grad = np.full_like(params[name].data, np.nan)

        monkeypatch.setattr(tc, "backward", poisoned)
        with pytest.raises(O.NumericError, match=f"gradient for {first}:"):
            O.train(cfg, tcfg, videos, params=params, opt=opt, start_step=1,
                    ckpt_path=str(ck))
        after = {**params.arrays(), **opt.arrays()}
        assert sorted(after) == sorted(before)
        assert all(np.array_equal(after[n], a) for n, a in before.items())
        assert ck.read_bytes() == on_disk
        assert [p.name for p in tmp_path.iterdir()] == ["t.ckpt"]

    def test_checkpoint_resume_continues_exactly(self, tmp_path):
        videos = [np.random.default_rng(10).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)]
        _assert_resume_continues_exactly(tmp_path, videos)

    def test_resume_replays_crops(self, tmp_path):
        """7-frame videos are cropped to the config's 4: a resumed step
        draws the same crops as in the uninterrupted run."""
        videos = [np.random.default_rng(12 + i).integers(0, 256, (7, 8, 8, 3)).astype(np.uint8)
                  for i in range(2)]
        _assert_resume_continues_exactly(tmp_path, videos)

    def test_resume_rejects_short_video(self):
        videos = [np.zeros((3, 8, 8, 3), dtype=np.uint8)]
        tcfg = O.TrainConfig(steps=4, batch_slices=2, train_seed=2, prime_frames=1)
        with pytest.raises(ConfigError, match="3 frames"):
            O.train(tiny_config(), tcfg, videos, start_step=2)

    def test_resume_with_early_stop_matches_continuous_run(self, tmp_path):
        """With early stop firing at step 8 (window 3), resuming from the
        checkpoint of every step k up to it ends at the same step, with the
        same records, parameters and optimizer state (the window included),
        as the uninterrupted run; 7-frame videos make every step draw crops."""
        cfg = tiny_config()
        videos = gen_sprites(7, 8, 8, 2, seed=4)
        tcfg = O.TrainConfig(steps=40, batch_slices=2, train_seed=2, prime_frames=1,
                             ckpt_every=1, lr=0.01, stop_bits_per_dim=4.0, stop_window=3)
        ck = tmp_path / "t.ckpt"

        def keep(rec):  # the file holds the checkpoint of step rec[0] when step rec[0] ends
            if rec[0]:
                shutil.copy(ck, tmp_path / f"{rec[0]}.ckpt")

        params, opt, full = O.train(cfg, tcfg, videos, ckpt_path=str(ck), log_fn=keep)
        stop = full[-1][0]
        assert stop == 8 and len(opt.window) == 3
        for k in range(1, stop + 1):
            p, o, step = O.load_training_checkpoint(tmp_path / f"{k}.ckpt", cfg)
            assert step == k
            p, o, resumed = O.train(cfg, tcfg, videos, params=p, opt=o, start_step=k)
            assert [r[:4] for r in resumed] == [r[:4] for r in full[k:]], k
            for got, want in ((p.arrays(), params.arrays()), (o.arrays(), opt.arrays())):
                assert sorted(got) == sorted(want)
                assert all(np.array_equal(got[n], a) for n, a in want.items()), k

    def test_steps_below_start_step_rejected(self, tmp_path):
        """A step count below the resume step is a ConfigError before
        anything is written."""
        videos = [np.zeros((4, 8, 8, 3), dtype=np.uint8)]
        tcfg = O.TrainConfig(steps=1, batch_slices=2, train_seed=2, prime_frames=1)
        with pytest.raises(ConfigError, match="start step 2"):
            O.train(tiny_config(), tcfg, videos, start_step=2,
                    ckpt_path=str(tmp_path / "t.ckpt"))
        assert not list(tmp_path.iterdir())

    def test_malformed_resume_checkpoint(self, tmp_path):
        """Seeded fuzz: deleting, reshaping or retyping a parameter, opt/acc,
        opt/mom, meta/step or meta/stop_window entry, deleting every
        optimizer entry, or a step that is not one int64 >= 0, loads to the
        saved state or raises ConfigError/DataError (entry names and shapes:
        config; an entry that is not float32, a missing step or window, the
        step's type and value, and a window that is not 1-D float32: data).
        No entry falls back to a default."""
        cfg = tiny_config()
        params = M.init_params(cfg, head_init="normal")
        path = tmp_path / "t.ckpt"
        O.save_training_checkpoint(path, cfg, params, O.OptimizerState(params), 3)
        good = M.load_checkpoint(path)
        assert good["meta/step"].dtype == np.int64
        rng = np.random.default_rng(0)
        cases = [("meta/step", None, DataError), ("meta/step", np.array([[3]]), None),
                 ("meta/step", np.array([3, 3]), DataError),
                 ("meta/step", np.array([-1]), DataError)]
        cases += [("meta/step", np.array([v], dtype=np.float32), DataError)
                  for v in (np.nan, np.inf, -np.inf, -1.0, -0.5, 2.5, 2.0 ** 24, 3.0)]
        cases += [("meta/step", np.array([[3.0]], dtype=np.float32), DataError)]
        cases += [("meta/stop_window", None, DataError),
                  ("meta/stop_window", np.array([[[0.5], [0.25]]], dtype=np.float32), DataError),
                  ("meta/stop_window", np.array([[0.5]], dtype=np.float32), DataError),
                  ("meta/stop_window", np.array([1]), DataError)]
        for prefix in ("", "opt/acc/", "opt/mom/"):
            for name in rng.choice(sorted(M.parameter_shapes(cfg)), 4, replace=False):
                entry = good[prefix + name]
                flat = entry.reshape(-1)
                cases += [(prefix + name, None, ConfigError),
                          (prefix + name, flat, None if flat.shape == entry.shape else ConfigError),
                          (prefix + name, np.append(flat, np.float32(1.0)), ConfigError),
                          (prefix + name, entry.astype(np.int64), DataError)]
        cases += [("opt/", None, ConfigError)]
        for key, value, expect in cases:
            arrays = dict(good)
            if value is None:  # "opt/" deletes every optimizer entry
                for n in [n for n in good if n == key or key == "opt/" and n.startswith(key)]:
                    del arrays[n]
            else:
                arrays[key] = value
            M.save_checkpoint(path, arrays)
            try:
                loaded, opt, step = O.load_training_checkpoint(path, cfg)
            except (ConfigError, DataError) as e:
                assert type(e) is expect, (key, value)
                continue
            assert expect is None, (key, value)
            assert step == 3
            saved = {**loaded.arrays(), **opt.arrays()}
            assert sorted(saved) == sorted(n for n in good
                                           if n not in ("meta/step", "meta/model"))
            assert all(np.array_equal(a, good[n]) for n, a in saved.items())

    def test_step_above_float32_range_resumes_exactly(self, tmp_path):
        """``meta/step`` is int64: a checkpoint at step 2^24 + 1, which no
        float32 holds, resumes at exactly that step."""
        params = M.init_params(tiny_config())
        path = tmp_path / "t.ckpt"
        O.save_training_checkpoint(path, tiny_config(), params, O.OptimizerState(params),
                                   2 ** 24 + 1)
        _, _, step = O.load_training_checkpoint(path, tiny_config())
        assert step == 2 ** 24 + 1

    def test_log_file_format(self, tmp_path, capsys):
        cfg = tiny_config()
        videos = [np.random.default_rng(11).integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)]
        tcfg = O.TrainConfig(steps=2, batch_slices=1, train_seed=0, prime_frames=1)
        lines = []
        O.train(cfg, tcfg, videos, log_fn=lambda rec: lines.append(O.LOG_FORMAT % rec))
        assert len(lines) == 2
        for i, line in enumerate(lines):
            fields = dict(kv.split("=") for kv in line.split())
            assert int(fields["step"]) == i
            assert set(fields) == {"step", "nats", "dims", "bits_per_dim", "wall_ms"}
        # ``svt train`` echoes exactly the lines it writes to --log
        config, data = tmp_path / "tiny.cfg", tmp_path / "train.svt"
        cli_log = tmp_path / "cli.log"
        config.write_text(TINY_CONFIG)
        write_container(data, videos)
        assert cli.main(["train", "--config", str(config), "--data", str(data),
                         "--out-ckpt", str(tmp_path / "m.ckpt"), "--log", str(cli_log),
                         "--steps", "2"]) == 0
        echoed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("step=")]
        assert len(echoed) == 2 and echoed == cli_log.read_text().splitlines()


def _assert_resume_continues_exactly(tmp_path, videos):
    """Six steps in one run equal three steps, a checkpoint, and a resumed
    run from step 3."""
    cfg = tiny_config()
    ck = tmp_path / "t.ckpt"
    tcfg6 = O.TrainConfig(steps=6, batch_slices=2, train_seed=2, prime_frames=1)
    _, _, full = O.train(cfg, tcfg6, videos)
    tcfg3 = O.TrainConfig(steps=3, batch_slices=2, train_seed=2, prime_frames=1)
    O.train(cfg, tcfg3, videos, ckpt_path=str(ck))
    params, opt, step = O.load_training_checkpoint(str(ck), cfg)
    assert step == 3
    _, _, resumed = O.train(cfg, tcfg6, videos, params=params, opt=opt,
                            start_step=step)
    assert [r[:4] for r in resumed] == [r[:4] for r in full[3:]]


class TestFirstSliceDecoder:
    """Training a config with a stand-alone first-slice decoder on batches
    that mix rank-0 and later slices."""

    def setup_method(self):
        self.cfg = tiny_config(first_slice_layers=2)
        self.videos = [np.random.default_rng(20 + i).integers(0, 256, (4, 8, 8, 3))
                       .astype(np.uint8) for i in range(2)]
        self.tcfg = O.TrainConfig(steps=3, batch_slices=8, train_seed=2, prime_frames=1)

    def batches(self, n):
        return [O.batch_at(len(self.videos), self.cfg.s, self.tcfg.batch_slices,
                           self.tcfg.train_seed, step) for step in range(n)]

    def test_batches_mix_ranks(self):
        for batch in self.batches(self.tcfg.steps):
            is_rank0 = {slice_rank(self.cfg.s, idx) == 0 for _, idx in batch}
            assert is_rank0 == {True, False}

    def test_finite_and_reproducible(self):
        p1, _, r1 = O.train(self.cfg, self.tcfg, self.videos)
        p2, _, r2 = O.train(self.cfg, self.tcfg, self.videos)
        assert all(np.isfinite(r[1]) and np.isfinite(r[3]) for r in r1)
        assert [r[:4] for r in r1] == [r[:4] for r in r2]
        for name, t in p1.items():
            assert np.array_equal(t.data, p2[name].data)

    def test_gradients_sum_rank0_group_first(self):
        """One step's gradients are the rank-0 group's backward followed by
        the rest group's backward, each group in batch order."""
        tcfg = dataclasses.replace(self.tcfg, steps=1)
        trained, _, _ = O.train(self.cfg, tcfg, self.videos)
        (batch,) = self.batches(1)
        ref = M.init_params(self.cfg)
        ref.zero_grads()
        for first in (True, False):
            group = [(self.videos[v], idx) for v, idx in batch
                     if (slice_rank(self.cfg.s, idx) == 0) == first]
            loss, _, _ = M.forward_slices(ref, self.cfg, [v for v, _ in group],
                                          [idx for _, idx in group], prime_frames=1)
            tc.backward(loss)
        got = trained.grads()
        for name, g in ref.grads().items():
            assert np.array_equal(got[name], g), name
