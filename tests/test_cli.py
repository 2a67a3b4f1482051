"""Command-line interface: config handling, commands, exit codes,
determinism of whole runs."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svt import cli
from svt.config import SCHEMA
from svt.data import read_container, write_container
from svt.model import load_checkpoint
from svt.tensor import ConfigError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

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


def tiny_config_with(edit, base=TINY_CONFIG):
    """``base`` config text with the ``key = value`` lines of ``edit``: each
    replaces the line that sets its key, or is added, since a repeated key
    is a config error."""
    keys = {line.split("=", 1)[0].strip() for line in edit.splitlines()}
    kept = [line for line in base.splitlines() if line.split("=", 1)[0].strip() not in keys]
    return "\n".join(kept + [edit]) + "\n"


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

    def test_repeated_key_rejected(self, tmp_path):
        """A key set twice is an error naming the key and both lines, not a
        silent last-one-wins."""
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("lr = 0.1\nvariant = spatial\n# again\nlr = 0.2\n")
        with pytest.raises(ConfigError, match=r":4: key 'lr' repeated \(first set on line 1\)"):
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
        assert {"s": resolved.s, "kernel": resolved.kernel}[key] == derived

    def test_byte_order_mark_ignored(self, tmp_path):
        """A UTF-8 byte-order mark, as some editors write, is not part of the
        first key."""
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text("variant = spatial\n" + TINY_CONFIG.replace("variant =", "# variant ="))
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert cli.load_config(bom) == cli.load_config(plain)

    def test_geometry_checked_at_load(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("variant = spatiotemporal\nvideo_t = 5\nsubscale_t = 2\n")
        conf = cli.load_config(cfg)
        with pytest.raises(Exception, match="divide"):
            cli.model_config_from(conf)


def load_or_config_error(path):
    """``cli.load_config(path)``, or None on a ConfigError; anything else
    fails the calling test."""
    try:
        conf = cli.load_config(path)
    except ConfigError:
        return None
    assert set(conf) == set(SCHEMA)
    return conf


# values that ``dump_config`` writes and ``load_config`` reads back
_VALUES = {
    int: st.integers(-2 ** 63, 2 ** 63),
    float: st.floats(allow_nan=False),
    str: st.text(st.characters(exclude_categories=("Cs",), exclude_characters="#\r\n"),
                 max_size=12).filter(lambda t: t == t.strip()),
}

# random bytes, and lines of schema keys with random byte values
_CONFIG_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.tuples(st.sampled_from(sorted(SCHEMA)), st.binary(max_size=12)),
             max_size=8).map(lambda kv: b"".join(k.encode() + b" = " + v + b"\n" for k, v in kv)))


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(raw=_CONFIG_BYTES)
    def test_any_bytes_give_a_config_or_config_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"
        path.write_bytes(raw)
        load_or_config_error(path)

    @pytest.mark.parametrize("name", ["sprites-rgb", "sprites-gray", "base-16x64x64"])
    def test_every_truncation_of_a_shipped_config(self, tmp_path, name):
        raw = (CONFIGS / f"{name}.cfg").read_bytes()
        path = tmp_path / "cut.cfg"
        for size in range(len(raw) + 1):
            path.write_bytes(raw[:size])
            load_or_config_error(path)
        assert load_or_config_error(path) is not None  # the whole file is valid

    @settings(max_examples=100, deadline=None)
    @given(conf=st.fixed_dictionaries({k: _VALUES[kind] for k, (kind, _) in SCHEMA.items()}))
    def test_dump_round_trips_generated_values(self, tmp_path_factory, conf):
        path = tmp_path_factory.mktemp("dump") / "dumped.cfg"
        path.write_text(cli.dump_config(conf), encoding="utf-8")
        assert cli.load_config(path) == conf


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

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_version_1_file_is_refused_in_one_line(self, tiny_setup, command):
        """A checkpoint (``eval --ckpt``) or container (``train --data``) in
        the version-1 layout, a 12-byte header of magic, version 1 and count
        and no CRC, is refused with exit 2 and one stderr line that names
        the version."""
        from svt import model as M
        tmp, config, data = tiny_setup
        v1 = tmp / "v1"
        if command == "eval":
            arrays = M.init_params(cli.model_config_from(cli.load_config(config))).arrays()
            raw = b"SVTC" + struct.pack("<II", 1, len(arrays))
            for name in sorted(arrays):
                a, enc = arrays[name], name.encode()
                raw += struct.pack(f"<I{len(enc)}sI{a.ndim}Q", len(enc), enc, a.ndim, *a.shape)
                raw += a.astype("<f4").tobytes()
            kind, argv = "checkpoint", ["--ckpt", v1, "--data", data]
        else:
            videos = read_container(data)
            raw = b"SVT1" + struct.pack("<II", 1, len(videos)) + b"".join(
                struct.pack("<IIIIB", *v.shape, 0) + v.tobytes() for v in videos)
            kind, argv = "container", ["--data", v1, "--out-ckpt", tmp / "out.ckpt"]
        v1.write_bytes(raw)
        r = run_cli(command, "--config", config, *argv)
        assert r.returncode == 2
        assert r.stderr == f"error[io]: {v1}: unsupported {kind} version 1; regenerate the file\n"

    def test_container_as_checkpoint_is_bad_magic(self, tiny_setup):
        """The two file kinds share a format but not a magic: a container
        passed as ``--ckpt`` is refused by its magic."""
        tmp, config, data = tiny_setup
        r = run_cli("eval", "--config", config, "--ckpt", data, "--data", data)
        assert r.returncode == 2
        assert r.stderr == f"error[io]: {data}: bad checkpoint magic b'SVT1'\n"

    def test_resume_with_short_video_is_one(self, tiny_setup):
        from svt import model as M, optim as O
        tmp, config, _ = tiny_setup
        cfg = cli.model_config_from(cli.load_config(config))
        params = M.init_params(cfg)
        ckpt, short = tmp / "m.ckpt", tmp / "short.svt"
        O.save_training_checkpoint(ckpt, cfg, params, O.OptimizerState(params), 2)
        write_container(short, [np.zeros((3, 8, 8, 3), dtype=np.uint8)])
        r = run_cli("train", "--config", config, "--data", short,
                    "--out-ckpt", tmp / "out.ckpt", "--resume", ckpt)
        assert r.returncode == 1
        assert "error[config]" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("case, code", [
        ("eval-gray-data", 1), ("resume-missing-mom", 1), ("resume-nan-step", 2),
        ("resume-acc-shape", 1), ("zero-block", 1), ("negative-mconv", 1),
        ("mconv-one", 1), ("negative-kernel", 1), ("negative-width", 1), ("zero-video-t", 1),
        ("negative-video-h", 1), ("zero-log-every", 1), ("zero-stop-window", 1),
        ("negative-ckpt-every", 1), ("negative-train-seed", 1), ("negative-model-seed", 1),
        ("empty-prime", 1), ("gen-data-negative-frames", 1),
        ("gen-data-negative-vel-max", 1), ("gen-data-negative-seed", 1),
        ("import-raw-negative-frames", 1), ("sample-negative-count", 1),
        ("eval-negative-prime", 1), ("negative-steps", 1), ("config-not-utf8", 1),
        ("train-prime-all-frames", 1), ("eval-prime-all-frames", 1)])
    def test_malformed_input_exits_cleanly(self, tiny_setup, case, code):
        """Each input disagrees with the config or is malformed: a one-line
        error and exit 1 (config) or 2 (io), never a traceback."""
        from svt import model as M, optim as O
        tmp, config, data = tiny_setup
        edits = {"zero-block": "enc_blocks = 0x4x4;2x4x4", "negative-mconv": "mconv = -1",
                 "mconv-one": "mconv = 1",
                 "negative-kernel": "kernel_t = -1", "negative-width": "d_model = -4",
                 "zero-video-t": "video_t = 0", "negative-video-h": "video_h = -8"}
        train_edits = {"zero-log-every": "log_every = 0",
                       "negative-ckpt-every": "ckpt_every = -1",
                       "negative-train-seed": "train_seed = -1",
                       "negative-model-seed": "model_seed = -1",
                       "zero-stop-window": "stop_window = 0\nstop_bits_per_dim = 0.5",
                       "train-prime-all-frames": "prime_frames = 4"}
        if case in edits:
            config.write_text(tiny_config_with(edits[case]))
            argv = ["analyze", "--config", config]
        elif case == "config-not-utf8":
            config.write_bytes(TINY_CONFIG.encode() + b"# \xff\xfe\n")
            argv = ["analyze", "--config", config]
        elif case in train_edits or case == "negative-steps":
            config.write_text(tiny_config_with(train_edits.get(case, "")))
            argv = ["train", "--config", config, "--data", data, "--out-ckpt", tmp / "out.ckpt",
                    "--log", tmp / "train.log"]
            argv += ["--steps", -1] if case == "negative-steps" else []
        elif case.startswith("gen-data"):
            flag = "--" + case[len("gen-data-negative-"):]
            argv = ["gen-data", "--out", tmp / "g.svt", flag, -1]
        elif case == "import-raw-negative-frames":
            raw = tmp / "clips.bin"
            raw.write_bytes(b"\x00" * 3072)
            argv = ["import-raw", "--raw", raw, "--out", tmp / "o.svt", "--frames", -4,
                    "--height", 16, "--width", 16]
        elif case in ("eval-gray-data", "empty-prime", "sample-negative-count",
                      "eval-negative-prime", "eval-prime-all-frames"):
            ckpt, videos = tmp / "m.ckpt", tmp / "videos.svt"
            cfg = cli.model_config_from(cli.load_config(config))
            M.save_checkpoint(ckpt, {**M.init_params(cfg).arrays(),
                                     "meta/model": M.model_record(cfg)})
            if case == "eval-gray-data":
                write_container(videos, [np.zeros((4, 8, 8, 1), dtype=np.uint8)] * 4)
                argv = ["eval", "--config", config, "--ckpt", ckpt, "--data", videos]
            elif case in ("eval-negative-prime", "eval-prime-all-frames"):
                argv = ["eval", "--config", config, "--ckpt", ckpt, "--data", data,
                        "--prime", -1 if case == "eval-negative-prime" else 4]
            elif case == "sample-negative-count":
                argv = ["sample", "--config", config, "--ckpt", ckpt, "--prime-video", data,
                        "--out", tmp / "sampled.svt", "--count", -1]
            else:
                write_container(videos, [])
                argv = ["sample", "--config", config, "--ckpt", ckpt, "--prime-video", videos,
                        "--out", tmp / "sampled.svt"]
        else:
            cfg = cli.model_config_from(cli.load_config(config))
            params = M.init_params(cfg)
            ckpt = tmp / "m.ckpt"
            O.save_training_checkpoint(ckpt, cfg, params, O.OptimizerState(params), 2)
            arrays = M.load_checkpoint(ckpt)
            if case == "resume-missing-mom":
                del arrays["opt/mom/dec/l0/w_p"]
            elif case == "resume-nan-step":  # a float step, let alone NaN, is a DataError
                arrays["meta/step"] = np.array([np.nan], dtype=np.float32)
            else:
                arrays["opt/acc/head/p"] = np.zeros(7, dtype=np.float32)
            M.save_checkpoint(ckpt, arrays)
            argv = ["train", "--config", config, "--data", data,
                    "--out-ckpt", tmp / "out.ckpt", "--resume", ckpt]
        r = run_cli(*argv)
        assert r.returncode == code
        assert "error[" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp / "out.ckpt").exists() and not (tmp / "train.log").exists()
        if case == "config-not-utf8":
            assert f"error[config]: config {config} is not UTF-8" in r.stderr
        if case == "eval-prime-all-frames":
            assert "error[config]: prime_frames must be in 0..3" in r.stderr

    @pytest.mark.parametrize("edit, message", [
        ("subscale_t = -2", "subscale factor must be positive, got (-2, 2, 2)"),
        ("subscale_h = 3", "subscale factor (2, 3, 2) does not divide video shape (4, 8, 8)"),
        ("enc_blocks = 2x4x4;2x0x4", "block shape must be positive, got (2, 0, 4)"),
        ("dec_blocks = 2x3x4;2x4x4", "block shape (2, 3, 4) does not divide slice shape (2, 4, 4)")])
    def test_bad_geometry_names_the_kind_and_the_value(self, tiny_setup, edit, message):
        tmp, config, _ = tiny_setup
        config.write_text(tiny_config_with(edit))
        r = run_cli("analyze", "--config", config)
        assert r.returncode == 1
        assert f"error[config]: {message}" in r.stderr and "Traceback" not in r.stderr

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
        config.write_text(tiny_config_with("ckpt_every = 1\n" + edit))
        ckpt = tmp / "out.ckpt"
        r = run_cli("train", "--config", config, "--data", data, "--out-ckpt", ckpt)
        assert r.returncode == 1
        assert "error[config]" in r.stderr and "Traceback" not in r.stderr
        assert not ckpt.exists()

    @pytest.mark.parametrize("command, flag", [
        ("train", "--out-ckpt"), ("train", "--log"), ("sample", "--out"), ("sample", "--ppm")])
    def test_missing_output_directory_fails_before_the_work(self, tiny_setup, monkeypatch,
                                                          capsys, command, flag):
        """An output path in a directory that does not exist is an I/O error
        that names the path as given, raised before training or sampling
        starts; nothing is written."""
        from svt import model as M, optim as O, sampler as S
        tmp, config, data = tiny_setup
        ckpt = tmp / "m.ckpt"
        M.save_checkpoint(ckpt, M.init_params(cli.model_config_from(
            cli.load_config(config))).arrays())

        def never(*args, **kwargs):
            raise AssertionError("the command started its work")

        monkeypatch.setattr(O, "train", never)
        monkeypatch.setattr(S, "sample_video", never)
        inputs = {"train": ["--data", data], "sample": ["--ckpt", ckpt, "--prime-video", data]}
        outputs = {"train": {"--out-ckpt": "out.ckpt", "--log": "train.log"},
                   "sample": {"--out": "o.svt", "--ppm": "frames"}}[command]
        paths = {f: tmp / ("nodir" if f == flag else "") / name for f, name in outputs.items()}
        before = sorted(tmp.iterdir())
        argv = [command, "--config", config, *inputs[command], *sum(paths.items(), ())]
        assert cli.main([str(a) for a in argv]) == cli.EXIT_IO
        assert f"error[io]: cannot write {paths[flag]}: no directory" in capsys.readouterr().err
        assert sorted(tmp.iterdir()) == before

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

    @pytest.mark.parametrize("name, flags", [
        ("base-16x64x64", ["--stack", "both", "--max-blind", "8"]),
        ("sprites-rgb", []), ("sprites-gray", [])])
    def test_analyze_prints_the_recorded_text(self, name, flags):
        """``analyze`` on the shipped configs prints, byte for byte, the text
        recorded in ``tests/golden``; the canonical one is the 2307893 blind
        pairs of 8386560 and a connected encoder."""
        r = subprocess.run([sys.executable, "-m", "svt.cli", "analyze", "--config",
                            CONFIGS / f"{name}.cfg", *flags], capture_output=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout == (GOLDEN / f"analyze-{name}.txt").read_bytes()

    def test_max_blind_lists_at_most_that_many_pairs(self, tiny_setup):
        tmp, config, _ = tiny_setup
        listed = {n: run_cli("analyze", "--config", config, "--max-blind", n).stdout
                  .count("  blind: ") for n in (1, 0)}
        assert listed == {1: 1, 0: 0}

    def test_negative_max_blind_is_a_usage_error(self, tiny_setup):
        tmp, config, _ = tiny_setup
        r = run_cli("analyze", "--config", config, "--max-blind", -3)
        assert r.returncode == 2
        assert "usage:" in r.stderr and "non-negative integer" in r.stderr

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
        text = dict(line.split("=") for line in r.stdout.splitlines())
        r = run_cli("eval", "--config", config, "--ckpt", ckpt, "--data", data,
                    "--prime", 1, "--json")
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        assert report["total_nats"] == float(text["nats"])
        assert report["bits_per_dim"] == float(text["bits_per_dim"])
        assert len(report["rank_bits_per_dim"]) == len(report["rank_nats"]) == 8

        out = tmp / "samples.svt"
        r = run_cli("sample", "--config", config, "--ckpt", ckpt,
                    "--prime-video", data, "--prime-frames", 4, "--out", out)
        assert r.returncode == 0, r.stderr
        # priming with every frame echoes the prime video
        assert np.array_equal(read_container(out)[0], read_container(data)[0])

    def test_train_log_lines_reach_disk_as_logged(self, tiny_setup, monkeypatch, capsys):
        """Each --log line is on disk when the next step starts, and a run
        whose settings are rejected creates no log."""
        from svt import optim as O
        tmp, config, data = tiny_setup
        log, on_disk = tmp / "train.log", []
        train = O.train

        def spy(*args, log_fn, **kwargs):
            def logged(rec):
                log_fn(rec)
                on_disk.append(log.read_text().splitlines())
            return train(*args, log_fn=logged, **kwargs)

        monkeypatch.setattr(O, "train", spy)
        argv = ["train", "--config", str(config), "--data", str(data),
                "--out-ckpt", str(tmp / "m.ckpt"), "--log", str(log)]
        assert cli.main(argv) == 0
        echoed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("step=")]
        assert len(echoed) == 3 and on_disk == [echoed[:k] for k in (1, 2, 3)]
        log.unlink()
        config.write_text(TINY_CONFIG + "log_every = 0\n")
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not log.exists()

    def test_log_keeps_whole_records_before_the_start_step(self, tmp_path):
        """A run's log keeps the whole record lines of the steps before its
        first: later steps, other lines and a torn last line go, and a fresh
        run's log starts empty."""
        from svt.optim import LOG_FORMAT
        rec = [LOG_FORMAT % (k, 1500.25 - k, 288, 8.0 - k / 64, 40 + k) + "\n"
               for k in range(8)]
        log = tmp_path / "train.log"
        log.write_text("".join(rec[:2]) + "note\n" + "".join(rec[2:4] + rec[6:])
                       + rec[4][:-2])
        cli._keep_log_before(log, 5)
        assert log.read_text() == "".join(rec[:4])
        cli._keep_log_before(log, 0)
        assert log.read_text() == ""
        cli._keep_log_before(tmp_path / "new.log", 3)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.log", "train.log"]
        assert (tmp_path / "new.log").read_text() == ""

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

    @pytest.mark.parametrize("command, flag, key, value", [
        ("train", "--steps", "steps", "7"), ("eval", "--prime", "prime_frames", "2"),
        ("sample", "--prime-frames", "prime_frames", "2"),
        ("sample", "--temperature", "temperature", "0.5"),
        ("sample", "--seed", "sample_seed", "3"), ("sample", "--count", "sample_count", "4")])
    def test_dump_config_echoes_override_flags(self, tiny_setup, capsys, command, flag, key,
                                               value):
        """The echo is the config the command runs with: each override flag
        replaces its key's line, and nothing else changes."""
        tmp, config, data = tiny_setup
        extra = {"train": ["--data", data, "--out-ckpt", tmp / "m.ckpt"],
                 "eval": ["--ckpt", tmp / "m.ckpt", "--data", data],
                 "sample": ["--ckpt", tmp / "m.ckpt", "--prime-video", data,
                            "--out", tmp / "s.svt"]}[command]
        argv = [command, "--config", config, *extra, flag, value, "--dump-config"]
        assert cli.main([str(a) for a in argv]) == 0
        echoed = capsys.readouterr().out
        conf = cli.load_config(config)
        assert f"{key} = {value}\n" in echoed and str(conf[key]) != value
        assert echoed == cli.dump_config({**conf, key: SCHEMA[key][0](value)})

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
    def test_dump_config_without_flags_is_the_file(self, tmp_path, capsys, config):
        assert cli.main(["sample", "--config", str(config), "--ckpt", "x.ckpt",
                         "--prime-video", "x.svt", "--out", str(tmp_path / "s.svt"),
                         "--dump-config"]) == 0
        assert capsys.readouterr().out == cli.dump_config(cli.load_config(config))

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


class TestFirstSliceKey:
    """``first_slice_layers`` alone selects the first-slice decoder: 0, the
    default, gives none."""

    def test_two_layers_train_evaluate_and_sample(self, tiny_setup):
        tmp, _, data = tiny_setup
        config = tmp / "first.cfg"
        config.write_text(tiny_config_with("first_slice_layers = 2\nsteps = 2"))
        ckpt = tmp / "first.ckpt"
        r = run_cli("--threads", 1, "train", "--config", config, "--data", data,
                    "--out-ckpt", ckpt)
        assert r.returncode == 0, r.stderr
        assert r.stdout.count("step=") == 2
        assert any(name.startswith("dec0/l1/") for name in load_checkpoint(ckpt))
        r = run_cli("eval", "--config", config, "--ckpt", ckpt, "--data", data)
        assert r.returncode == 0, r.stderr
        out = tmp / "first.svt"
        r = run_cli("sample", "--config", config, "--ckpt", ckpt, "--prime-video", data,
                    "--out", out)
        assert r.returncode == 0, r.stderr
        assert read_container(out)[0].shape == (4, 8, 8, 3)

    def test_the_former_switch_is_an_unknown_key(self, tiny_setup):
        tmp, _, data = tiny_setup
        config = tmp / "switch.cfg"
        config.write_text(tiny_config_with("first_slice_decoder = true"))
        r = run_cli("train", "--config", config, "--data", data, "--out-ckpt", tmp / "m.ckpt")
        assert r.returncode == cli.EXIT_CONFIG
        assert "unknown key 'first_slice_decoder'" in r.stderr

    def test_negative_layers_are_a_config_error(self, tmp_path):
        config = tmp_path / "negative.cfg"
        config.write_text(tiny_config_with("first_slice_layers = -1"))
        with pytest.raises(ConfigError, match="first_slice_layers must be >= 0, got -1"):
            cli.model_config_from(cli.load_config(config))

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
    def test_shipped_configs_dump_zero_layers(self, tmp_path, capsys, config):
        assert cli.main(["analyze", "--config", str(config), "--dump-config"]) == 0
        echoed = capsys.readouterr().out
        assert "first_slice_layers = 0\n" in echoed and "first_slice_decoder" not in echoed
        again = tmp_path / "echo.cfg"
        again.write_text(echoed)
        assert cli.load_config(again) == cli.load_config(config)
        assert not cli.model_config_from(cli.load_config(again)).first_slice_schedule


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
        cli._pin_threads(cli.build_parser().parse_args(
            ["--threads", "1", "analyze", "--config", "c.cfg"]).threads)
        assert all(os.environ[v] == "1" for v in cli._THREAD_VARS)

    def test_svt_threads_env_fallback(self, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("SVT_THREADS", "2")
        cli._pin_threads(None)
        assert all(os.environ[v] == "2" for v in cli._THREAD_VARS)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_threads_flag_rejects_non_positive(self, value):
        """OpenBLAS reads 0 and negative counts as unset, so they would run
        unpinned: a usage error, as for a non-integer."""
        r = run_cli("--threads", value, "analyze", "--config", "c.cfg")
        assert r.returncode == 2
        assert "usage:" in r.stderr and "positive integer" in r.stderr

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_bad_svt_threads_is_config_error(self, value):
        """Rejected before numpy loads, with nothing written to the BLAS
        variables."""
        code = ("import os, sys, svt.cli; code = svt.cli.main(['analyze', '--config', 'c.cfg']); "
                "assert 'numpy' not in sys.modules and 'OPENBLAS_NUM_THREADS' not in os.environ; "
                "sys.exit(code)")
        env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS}
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**env, "SVT_THREADS": value})
        assert r.returncode == 1
        assert "error[config]: SVT_THREADS" in r.stderr and "Traceback" not in r.stderr

    def test_nonfinite_loss_exits_three(self, tiny_setup, monkeypatch, capsys):
        """A NaN parameter that reaches training (a checkpoint's is stopped
        at load, so here it comes from ``init_params``) gives a non-finite
        loss: exit 3, and no checkpoint."""
        from svt import model as M

        tmp, config, data = tiny_setup
        init = M.init_params

        def poisoned(cfg, *args, **kwargs):
            params = init(cfg, *args, **kwargs)
            params["enc/in_proj"].data[0, 0] = np.nan
            return params

        monkeypatch.setattr(M, "init_params", poisoned)
        out = tmp / "out.ckpt"
        code = cli.main(["train", "--config", str(config), "--data", str(data),
                         "--out-ckpt", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error[numeric]: non-finite loss at step 0: nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "sample", "train"])
    def test_nonfinite_parameter_in_checkpoint_exits_three(self, tiny_setup, command):
        """A checkpoint with one NaN parameter entry stops at load: exit 3,
        naming the entry and the count, and no output is written."""
        from svt import model as M, optim as O

        tmp, config, data = tiny_setup
        cfg = cli.model_config_from(cli.load_config(config))
        params = M.init_params(cfg)
        params["dec/l0/w_qkv"].data[0, 1] = np.nan
        ckpt, out = tmp / "poisoned.ckpt", tmp / "out"
        O.save_training_checkpoint(ckpt, cfg, params, O.OptimizerState(params), 0)
        args = {"eval": ["--ckpt", ckpt, "--data", data, "--out", out],
                "sample": ["--ckpt", ckpt, "--prime-video", data, "--out", out],
                "train": ["--data", data, "--resume", ckpt, "--out-ckpt", out]}[command]
        r = run_cli(command, "--config", config, *args)
        size = params["dec/l0/w_qkv"].data.size
        assert r.returncode == 3
        assert (f"error[numeric]: non-finite parameter dec/l0/w_qkv in checkpoint: "
                f"1 of {size} entries") in r.stderr
        assert "Traceback" not in r.stderr and r.stdout == "" and not out.exists()

    def test_nonfinite_eval_loss_exits_three(self, tiny_setup):
        """Finite parameters can still give a non-finite loss: with the
        head's output projection at +-3e38 the logits overflow.  ``svt
        eval`` exits 3 naming the first such (video, slice) pair, and prints
        and writes no bits/dim."""
        from svt import model as M, optim as O

        tmp, config, data = tiny_setup
        cfg = cli.model_config_from(cli.load_config(config))
        params = M.init_params(cfg, head_init="normal")
        p = params["head/p"].data
        p[...] = np.where(np.arange(p.size).reshape(p.shape) % 2, 3e38, -3e38)
        assert all(np.isfinite(t.data).all() for _, t in params.items())
        ckpt, out = tmp / "huge.ckpt", tmp / "eval.txt"
        O.save_training_checkpoint(ckpt, cfg, params, O.OptimizerState(params), 0)
        r = run_cli("eval", "--config", config, "--ckpt", ckpt, "--data", data, "--out", out)
        assert r.returncode == 3, r.stderr
        assert "error[numeric]: non-finite loss nan on video 0, slice (0, 0, 0)" in r.stderr
        assert "Traceback" not in r.stderr and r.stdout == "" and not out.exists()

    @pytest.mark.parametrize("name", ["sprites-rgb", "sprites-gray"])
    def test_nonfinite_sample_exits_three(self, tmp_path, name):
        """Finite head weights at +-3e38 give logits (sprites-rgb) or an
        intensity (sprites-gray, the deterministic head) that are not
        finite: ``svt sample`` exits 3 at the first sampled pixel, naming its
        slice, and writes nothing."""
        from svt import model as M, optim as O

        config = CONFIGS / f"{name}.cfg"
        cfg = cli.model_config_from(cli.load_config(config))
        params = M.init_params(cfg, head_init="normal")
        rng = np.random.default_rng(0)
        for key, t in params.items():
            if key.startswith(("head/u", "head/p")):
                t.data[...] = np.where(rng.random(t.data.shape) < 0.5, 3e38, -3e38)
        ckpt, data, out = tmp_path / "huge.ckpt", tmp_path / "prime.svt", tmp_path / "out.svt"
        O.save_training_checkpoint(ckpt, cfg, params, O.OptimizerState(params), 0)
        write_container(data, [rng.integers(0, 256, (*cfg.video_shape, cfg.bytes_per_pixel))
                               .astype(np.uint8)])
        r = run_cli("sample", "--config", config, "--ckpt", ckpt, "--prime-video", data,
                    "--out", out)
        assert r.returncode == 3, r.stderr
        assert "error[numeric]: sampling slice (0, 0, 0), pixel 64: non-finite" in r.stderr
        assert "Traceback" not in r.stderr and r.stdout == "" and not out.exists()

    @pytest.mark.parametrize("command", ["eval", "sample", "train"])
    def test_overflow_prints_only_the_error_line(self, tmp_path, command):
        """Head weights at +-3e38 overflow in the forward: ``eval``,
        ``sample`` and ``train --resume`` exit 3 with one line on stderr,
        the error, and no numpy warning ahead of it."""
        from svt import model as M, optim as O

        config = CONFIGS / "sprites-rgb.cfg"
        cfg = cli.model_config_from(cli.load_config(config))
        params = M.init_params(cfg, head_init="normal")
        rng = np.random.default_rng(0)
        for key, t in params.items():
            if key.startswith(("head/u", "head/p")):
                t.data[...] = np.where(rng.random(t.data.shape) < 0.5, 3e38, -3e38)
        ckpt, data, out = tmp_path / "huge.ckpt", tmp_path / "videos.svt", tmp_path / "out"
        O.save_training_checkpoint(ckpt, cfg, params, O.OptimizerState(params), 0)
        write_container(data, [rng.integers(0, 256, (*cfg.video_shape, cfg.bytes_per_pixel))
                               .astype(np.uint8)])
        args = {"eval": ["--ckpt", ckpt, "--data", data, "--out", out],
                "sample": ["--ckpt", ckpt, "--prime-video", data, "--out", out],
                "train": ["--data", data, "--resume", ckpt, "--out-ckpt", out]}[command]
        r = run_cli(command, "--config", config, *args)
        assert r.returncode == 3
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[numeric]: "), r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("entry, value, code, line", [
        ("opt/acc/dec/l0/w_qkv", np.nan, 3, "error[numeric]: non-finite entry "
         "opt/acc/dec/l0/w_qkv in checkpoint: 1 of {size} entries"),
        ("opt/mom/dec/l0/w_qkv", np.nan, 3, "error[numeric]: non-finite entry "
         "opt/mom/dec/l0/w_qkv in checkpoint: 1 of {size} entries"),
        ("opt/acc/dec/l0/w_qkv", -1.0, 2, "error[io]: {ckpt}: negative second moment "
         "opt/acc/dec/l0/w_qkv: 1 of {size} entries")],
        ids=["acc-nan", "mom-nan", "acc-negative"])
    def test_corrupt_optimizer_state_stops_resume(self, tiny_setup, entry, value, code, line):
        """A non-finite optimizer entry (exit 3) or a negative second moment
        (exit 2, as RMSProp would take its square root) stops ``train
        --resume`` at load, naming the entry: no step runs, and a
        checkpoint written every step leaves the output file as it was."""
        from svt import model as M, optim as O

        tmp, config, data = tiny_setup
        config.write_text(tiny_config_with("ckpt_every = 1"))
        cfg = cli.model_config_from(cli.load_config(config))
        params = M.init_params(cfg)
        ckpt, out = tmp / "resume.ckpt", tmp / "out.ckpt"
        O.save_training_checkpoint(ckpt, cfg, params, O.OptimizerState(params), 1)
        arrays = M.load_checkpoint(ckpt)
        arrays[entry][0, 1] = value
        M.save_checkpoint(ckpt, arrays)
        out.write_bytes(b"previous")
        r = run_cli("train", "--config", config, "--data", data, "--resume", ckpt,
                    "--out-ckpt", out)
        size = params["dec/l0/w_qkv"].data.size
        assert r.returncode == code
        assert out.read_bytes() == b"previous"
        assert r.stderr == line.format(ckpt=ckpt, size=size) + "\n"

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


class TestModelRecord:
    """A training checkpoint records the resolved model it was trained as
    (``meta/model``); ``eval``, ``sample`` and ``train --resume`` refuse a
    checkpoint that records no model or another one, with exit 1."""

    @staticmethod
    def run(command, config, ckpt, data, out):
        args = {"eval": ["--ckpt", ckpt, "--data", data, "--out", out],
                "sample": ["--ckpt", ckpt, "--prime-video", data, "--out", out],
                "train": ["--resume", ckpt, "--data", data, "--out-ckpt", out]}[command]
        return cli.main([command, "--config", str(config), *map(str, args)])

    @pytest.mark.parametrize("command", ["eval", "sample", "train"])
    def test_other_geometry_is_refused(self, tmp_path, capsys, command):
        """A sprites-rgb checkpoint (4x16x16, s = 2,2,2) under the same
        config with 8x32 frames and s = 2,1,4: the slice shape, and so every
        parameter shape, is the same, yet the record names the video shape."""
        from svt.data import gen_sprites

        config, data = tmp_path / "rgb.cfg", tmp_path / "train.svt"
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "out"
        rgb = (CONFIGS / "sprites-rgb.cfg").read_text()
        config.write_text(rgb)
        write_container(data, gen_sprites(4, 16, 16, 2, seed=7))
        assert cli.main(["train", "--config", str(config), "--data", str(data),
                         "--out-ckpt", str(ckpt), "--steps", "1"]) == 0
        capsys.readouterr()
        config.write_text(tiny_config_with(
            "video_h = 8\nvideo_w = 32\nsubscale_h = 1\nsubscale_w = 4", base=rgb))
        assert self.run(command, config, ckpt, data, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error[config]: {ckpt}: checkpoint model has video_shape = (4, 16, 16), "
            "the config gives (4, 8, 32)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "sample", "train"])
    def test_checkpoint_without_record_is_refused(self, tiny_setup, capsys, command):
        from svt import model as M

        tmp, config, data = tiny_setup
        ckpt, out = tmp / "m.ckpt", tmp / "out"
        M.save_checkpoint(ckpt, M.init_params(cli.model_config_from(cli.load_config(config)))
                          .arrays())
        assert self.run(command, config, ckpt, data, out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error[config]: {ckpt}: checkpoint has no meta/model record of its model\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "sample", "train"])
    def test_unset_and_explicit_widths_are_one_model(self, tiny_setup, capsys, command):
        """Trained with d_embed and layers unset, loaded with the values they
        resolve to (the preset's 128, the two listed blocks): one model."""
        tmp, config, data = tiny_setup
        ckpt, out = tmp / "m.ckpt", tmp / "out"
        config.write_text(tiny_config_with("d_embed = 0\nlayers = 0"))
        assert cli.main(["train", "--config", str(config), "--data", str(data),
                         "--out-ckpt", str(ckpt), "--steps", "1"]) == 0
        config.write_text(tiny_config_with("d_embed = 128\nlayers = 2"))
        assert self.run(command, config, ckpt, data, out) == cli.EXIT_OK
        assert capsys.readouterr().err == "" and out.exists()


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
