"""Command-line interface: config handling, commands, exit codes,
determinism of whole runs."""

import subprocess
import sys

import numpy as np
import pytest

from svt import cli
from svt.data import read_container, write_container

TINY_CONFIG = """
# tiny spatiotemporal model for CLI tests
variant = spatiotemporal
video_t = 4
video_h = 8
video_w = 8
subscale_t = 2
subscale_h = 2
subscale_w = 2
kernel_t = 3
kernel_h = 3
kernel_w = 3
d_embed = 8
d_model = 16
n_heads = 2
d_head = 8
layers = 2
enc_blocks = 2x4x4;2x4x4
dec_blocks = 2x4x4;2x4x4
model_seed = 3
batch_slices = 4
steps = 3
train_seed = 1
prime_frames = 1
lr = 0.001
temperature = 1.0
sample_seed = 7
"""


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "svt.cli", *map(str, args)],
                          capture_output=True, text=True)


@pytest.fixture
def tiny_setup(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    data = tmp_path / "train.svt"
    rng = np.random.default_rng(0)
    videos = [rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8) for _ in range(2)]
    write_container(data, videos)
    return tmp_path, config, data


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("variant = spatial\nbananas = 4\n")
        with pytest.raises(Exception, match="unknown key"):
            cli.load_config(cfg)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("video_t = soon\n")
        with pytest.raises(Exception, match="video_t"):
            cli.load_config(cfg)

    def test_dump_round_trips(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(TINY_CONFIG)
        conf = cli.load_config(cfg)
        echoed = tmp_path / "b.cfg"
        echoed.write_text(cli.dump_config(conf))
        assert cli.load_config(echoed) == conf

    @pytest.mark.parametrize("text, key, derived", [
        ("subscale_t = 4", "s", (4, 2, 2)),
        ("kernel_t = 5", "kernel", (5, 2, 2)),
        ("subscale_h = 4\nkernel_w = 3", "kernel", (4, 4, 3)),
    ], ids=["subscale_t", "kernel_t", "subscale_h-kernel_w"])
    def test_unset_axes_derived_per_axis(self, tmp_path, text, key, derived):
        """On the default 16x64x64 video, each axis left at 0 takes its
        derived value: s (4, 2, 2), kernel = s."""
        cfg = tmp_path / "axis.cfg"
        cfg.write_text(text + "\n")
        resolved = cli.model_config_from(cli.load_config(cfg))
        assert {"s": resolved.s.as_tuple(), "kernel": resolved.kernel}[key] == derived

    def test_geometry_checked_at_load(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("variant = spatiotemporal\nvideo_t = 5\nsubscale_t = 2\n")
        conf = cli.load_config(cfg)
        with pytest.raises(Exception, match="divide"):
            cli.model_config_from(conf)


class TestExitCodes:
    def test_config_error_is_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope = 1\n")
        r = run_cli("analyze", "--config", cfg)
        assert r.returncode == 1
        assert "error[config]" in r.stderr

    def test_io_error_is_two(self, tiny_setup):
        tmp, config, data = tiny_setup
        r = run_cli("train", "--config", config, "--data", tmp / "missing.svt",
                    "--out-ckpt", tmp / "m.ckpt")
        assert r.returncode == 2
        assert "error[io]" in r.stderr

    def test_truncated_checkpoint_is_two(self, tiny_setup):
        from svt import model as M
        tmp, config, data = tiny_setup
        cfg = cli.model_config_from(cli.load_config(config))
        ckpt = tmp / "m.ckpt"
        M.save_checkpoint(ckpt, M.init_params(cfg).arrays())
        raw = ckpt.read_bytes()
        for size in (10, len(raw) // 2):   # inside the header, inside a payload
            ckpt.write_bytes(raw[:size])
            r = run_cli("eval", "--config", config, "--ckpt", ckpt, "--data", data)
            assert r.returncode == 2
            assert "error[io]" in r.stderr and "Traceback" not in r.stderr

    def test_resume_with_short_video_is_one(self, tiny_setup):
        from svt import model as M, optim as O
        tmp, config, _ = tiny_setup
        params = M.init_params(cli.model_config_from(cli.load_config(config)))
        ckpt, short = tmp / "m.ckpt", tmp / "short.svt"
        O.save_training_checkpoint(ckpt, params, O.OptimizerState(params), 2)
        write_container(short, [np.zeros((3, 8, 8, 3), dtype=np.uint8)])
        r = run_cli("train", "--config", config, "--data", short,
                    "--out-ckpt", tmp / "out.ckpt", "--resume", ckpt)
        assert r.returncode == 1
        assert "error[config]" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("case, code", [
        ("eval-gray-data", 1), ("resume-missing-mom", 1), ("resume-nan-step", 2),
        ("resume-acc-shape", 1), ("zero-block", 1), ("negative-mconv", 1),
        ("negative-kernel", 1), ("negative-width", 1), ("zero-video-t", 1),
        ("negative-video-h", 1), ("zero-log-every", 1), ("zero-stop-window", 1),
        ("negative-ckpt-every", 1), ("negative-train-seed", 1), ("negative-model-seed", 1),
        ("empty-prime", 1), ("gen-data-negative-frames", 1),
        ("gen-data-negative-vel-max", 1), ("gen-data-negative-seed", 1),
        ("import-raw-negative-frames", 1), ("sample-negative-count", 1),
        ("eval-negative-prime", 1)])
    def test_malformed_input_exits_cleanly(self, tiny_setup, case, code):
        """Each input disagrees with the config or is malformed: a one-line
        error and exit 1 (config) or 2 (io), never a traceback."""
        from svt import model as M, optim as O
        tmp, config, data = tiny_setup
        edits = {"zero-block": "enc_blocks = 0x4x4;2x4x4", "negative-mconv": "mconv = -1",
                 "negative-kernel": "kernel_t = -1", "negative-width": "d_model = -4",
                 "zero-video-t": "video_t = 0", "negative-video-h": "video_h = -8"}
        train_edits = {"zero-log-every": "log_every = 0",
                       "negative-ckpt-every": "ckpt_every = -1",
                       "negative-train-seed": "train_seed = -1",
                       "negative-model-seed": "model_seed = -1",
                       "zero-stop-window": "stop_window = 0\nstop_bits_per_dim = 0.5"}
        if case in edits:
            config.write_text(TINY_CONFIG + edits[case] + "\n")
            argv = ["analyze", "--config", config]
        elif case in train_edits:
            config.write_text(TINY_CONFIG + train_edits[case] + "\n")
            argv = ["train", "--config", config, "--data", data, "--out-ckpt", tmp / "out.ckpt"]
        elif case.startswith("gen-data"):
            flag = "--" + case[len("gen-data-negative-"):]
            argv = ["gen-data", "--out", tmp / "g.svt", flag, -1]
        elif case == "import-raw-negative-frames":
            raw = tmp / "clips.bin"
            raw.write_bytes(b"\x00" * 3072)
            argv = ["import-raw", "--raw", raw, "--out", tmp / "o.svt", "--frames", -4,
                    "--height", 16, "--width", 16]
        elif case in ("eval-gray-data", "empty-prime", "sample-negative-count",
                      "eval-negative-prime"):
            ckpt, videos = tmp / "m.ckpt", tmp / "videos.svt"
            M.save_checkpoint(ckpt, M.init_params(cli.model_config_from(
                cli.load_config(config))).arrays())
            if case == "eval-gray-data":
                write_container(videos, [np.zeros((4, 8, 8, 1), dtype=np.uint8)] * 4)
                argv = ["eval", "--config", config, "--ckpt", ckpt, "--data", videos]
            elif case == "eval-negative-prime":
                argv = ["eval", "--config", config, "--ckpt", ckpt, "--data", data,
                        "--prime", -1]
            elif case == "sample-negative-count":
                argv = ["sample", "--config", config, "--ckpt", ckpt, "--prime-video", data,
                        "--out", tmp / "sampled.svt", "--count", -1]
            else:
                write_container(videos, [])
                argv = ["sample", "--config", config, "--ckpt", ckpt, "--prime-video", videos,
                        "--out", tmp / "sampled.svt"]
        else:
            params = M.init_params(cli.model_config_from(cli.load_config(config)))
            ckpt = tmp / "m.ckpt"
            O.save_training_checkpoint(ckpt, params, O.OptimizerState(params), 2)
            arrays = M.load_checkpoint(ckpt)
            if case == "resume-missing-mom":
                del arrays["opt/mom/dec/l0/w_p"]
            elif case == "resume-nan-step":
                arrays["meta/step"][0] = np.nan
            else:
                arrays["opt/acc/head/p"] = np.zeros(7, dtype=np.float32)
            M.save_checkpoint(ckpt, arrays)
            argv = ["train", "--config", config, "--data", data,
                    "--out-ckpt", tmp / "out.ckpt", "--resume", ckpt]
        r = run_cli(*argv)
        assert r.returncode == code
        assert "error[" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("edit", [
        "rms_eps = 0", "rms_eps = -1e-8", "rms_eps = inf", "rms_eps = nan",
        "rms_decay = 1.5", "rms_decay = -0.1", "rms_decay = nan",
        "rms_momentum = 1", "rms_momentum = -0.5", "rms_momentum = nan",
        "lr = -0.001", "lr = inf", "lr = nan"])
    def test_bad_rmsprop_settings_exit_one_before_any_checkpoint(self, tiny_setup, edit):
        """RMSProp settings that can make an update non-finite (0/sqrt(0)
        with eps = 0 on the zero-initialised head) are a config error before
        the first step, so no checkpoint is written."""
        tmp, config, data = tiny_setup
        config.write_text(TINY_CONFIG + "ckpt_every = 1\n" + edit + "\n")
        ckpt = tmp / "out.ckpt"
        r = run_cli("train", "--config", config, "--data", data, "--out-ckpt", ckpt)
        assert r.returncode == 1
        assert "error[config]" in r.stderr and "Traceback" not in r.stderr
        assert not ckpt.exists()

    def test_success_is_zero(self, tiny_setup):
        tmp, config, data = tiny_setup
        r = run_cli("analyze", "--config", config, "--max-blind", 4)
        assert r.returncode == 0


class TestCommands:
    def test_gen_data_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svt", tmp_path / "b.svt"
        for out in (a, b):
            r = run_cli("gen-data", "--out", out, "--videos", 2, "--frames", 4,
                        "--height", 8, "--width", 8, "--seed", 5)
            assert r.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_analyze_reports_blind_and_connected(self, tiny_setup):
        tmp, config, _ = tiny_setup
        r = run_cli("analyze", "--config", config, "--stack", "both",
                    "--max-blind", 4)
        assert r.returncode == 0
        assert "blind pairs:" in r.stdout
        assert "encoder connectivity: connected" in r.stdout

    def test_train_eval_sample_pipeline(self, tiny_setup):
        tmp, config, data = tiny_setup
        ckpt = tmp / "model.ckpt"
        log = tmp / "train.log"
        r = run_cli("--threads", 1, "train", "--config", config, "--data", data,
                    "--out-ckpt", ckpt, "--log", log)
        assert r.returncode == 0, r.stderr
        assert ckpt.exists() and len(log.read_text().splitlines()) == 3

        r = run_cli("eval", "--config", config, "--ckpt", ckpt, "--data", data,
                    "--prime", 1)
        assert r.returncode == 0, r.stderr
        assert "bits_per_dim=" in r.stdout

        out = tmp / "samples.svt"
        r = run_cli("sample", "--config", config, "--ckpt", ckpt,
                    "--prime-video", data, "--prime-frames", 4, "--out", out)
        assert r.returncode == 0, r.stderr
        # priming with every frame echoes the prime video
        assert np.array_equal(read_container(out)[0], read_container(data)[0])

    @pytest.mark.parametrize("command", ["train", "eval", "sample", "analyze"])
    def test_dump_config_flag(self, tiny_setup, command):
        tmp, config, data = tiny_setup
        out = tmp / "x.out"
        extra = {"train": ["--data", data, "--out-ckpt", out],
                 "eval": ["--ckpt", tmp / "missing.ckpt", "--data", data, "--out", out],
                 "sample": ["--ckpt", tmp / "missing.ckpt", "--prime-video", data,
                            "--out", out],
                 "analyze": ["--out", out]}[command]
        r = run_cli(command, "--config", config, *extra, "--dump-config")
        assert r.returncode == 0, r.stderr
        assert r.stdout == cli.dump_config(cli.load_config(config))
        assert not out.exists()

    def test_help_lists_flags(self):
        r = run_cli("sample", "--help")
        assert r.returncode == 0
        for flag in ("--config", "--ckpt", "--prime-video", "--prime-frames",
                     "--temperature", "--seed", "--out"):
            assert flag in r.stdout

    def test_import_raw_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        payload = rng.integers(0, 256, 2 * 4 * 8 * 8 * 3).astype(np.uint8)
        raw = tmp_path / "clips.bin"
        raw.write_bytes(payload.tobytes())
        out = tmp_path / "clips.svt"
        r = run_cli("import-raw", "--raw", raw, "--out", out, "--frames", 4,
                    "--height", 8, "--width", 8, "--channels", 3)
        assert r.returncode == 0, r.stderr
        videos = read_container(out)
        assert len(videos) == 2
        assert np.array_equal(np.concatenate([v.reshape(-1) for v in videos]), payload)

    def test_import_raw_bad_size_is_io_error(self, tmp_path):
        raw = tmp_path / "clips.bin"
        raw.write_bytes(b"\x00" * 100)
        r = run_cli("import-raw", "--raw", raw, "--out", tmp_path / "o.svt",
                    "--frames", 4, "--height", 8, "--width", 8)
        assert r.returncode == 2
        assert "error[io]" in r.stderr


class TestThreadsAndNumeric:
    def test_cli_import_leaves_numpy_unloaded(self):
        """--threads pins BLAS through the environment, which only works
        while numpy is not yet loaded; the package exports stay usable."""
        code = ("import sys, svt.cli; assert 'numpy' not in sys.modules; "
                "from svt import build_variant; print(build_variant.__module__)")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "svt.model"

    def test_threads_flag_sets_blas_env(self, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        cli._configure_threads(["--threads", "1", "analyze"])
        import os
        assert all(os.environ[v] == "1" for v in cli._THREAD_VARS)

    def test_svt_threads_env_fallback(self, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("SVT_THREADS", "2")
        cli._configure_threads(["train"])
        import os
        assert all(os.environ[v] == "2" for v in cli._THREAD_VARS)

    def test_nonfinite_loss_exits_three(self, tiny_setup):
        from svt import model as M, optim as O
        from svt.cli import load_config, model_config_from

        tmp, config, data = tiny_setup
        cfg = model_config_from(load_config(config))
        params = M.init_params(cfg)
        params["enc/in_proj"].data[0, 0] = np.nan
        poisoned = tmp / "poisoned.ckpt"
        O.save_training_checkpoint(poisoned, params, O.OptimizerState(params), 0)
        r = run_cli("train", "--config", config, "--data", data,
                    "--out-ckpt", tmp / "out.ckpt", "--resume", poisoned)
        assert r.returncode == 3
        assert "error[numeric]" in r.stderr

    def test_nonfinite_gradient_exits_three(self, tiny_setup, monkeypatch, capsys):
        """NaN gradients behind a finite loss exit 3 and leave the previous
        checkpoint in place."""
        from svt import model as M

        tmp, config, data = tiny_setup
        out = tmp / "out.ckpt"
        out.write_bytes(b"previous")
        monkeypatch.setattr(M.ParamStore, "grads", lambda self: {
            n: np.full_like(t.data, np.nan) for n, t in self.items()})
        code = cli.main(["train", "--config", str(config), "--data", str(data),
                         "--out-ckpt", str(out)])
        assert code == cli.EXIT_NUMERIC == 3
        assert "error[numeric]: non-finite gradient" in capsys.readouterr().err
        assert out.read_bytes() == b"previous"


class TestDeterminism:
    def test_two_runs_bit_identical(self, tiny_setup):
        """Same seed, --threads 1: loss logs (minus wall time), checkpoints
        and samples agree byte for byte."""
        tmp, config, data = tiny_setup
        results = []
        for tag in ("one", "two"):
            ck, lg, sm = (tmp / f"{tag}.ckpt", tmp / f"{tag}.log", tmp / f"{tag}.svt")
            r = run_cli("--threads", 1, "train", "--config", config, "--data",
                        data, "--out-ckpt", ck, "--log", lg)
            assert r.returncode == 0, r.stderr
            r = run_cli("--threads", 1, "sample", "--config", config, "--ckpt",
                        ck, "--prime-video", data, "--prime-frames", 1,
                        "--out", sm, "--seed", 3)
            assert r.returncode == 0, r.stderr
            strip = [" ".join(kv for kv in line.split() if not kv.startswith("wall_ms"))
                     for line in lg.read_text().splitlines()]
            results.append((ck.read_bytes(), strip, sm.read_bytes()))
        assert results[0] == results[1]
