"""Training survives SIGKILL at any instant.

``svt train`` is killed at instants read from its log's progress, and once
at a seeded delay, and each time resumed from its checkpoint (or started
again while there is none) until it exits 0.  The final checkpoint must
equal an uninterrupted run's bit for bit, and the log must hold the same
records line for line, ``wall_ms`` aside: a resumed run redoes the steps
after its checkpoint, and their records must not appear twice.
"""

import random
import re
import subprocess
import sys
import time

import numpy as np

from svt import model as M
from svt.data import write_container

from test_cli import tiny_config_with

KILL_CONFIG = tiny_config_with("steps = 12\nckpt_every = 5\nlog_every = 1")
POLL_S = 0.001
TIMEOUT_S = 30


def setup(tmp_path):
    config = tmp_path / "kill.cfg"
    config.write_text(KILL_CONFIG)
    data = tmp_path / "train.svt"
    rng = np.random.default_rng(0)
    write_container(data, [rng.integers(0, 256, (4, 8, 8, 3)).astype(np.uint8)
                           for _ in range(2)])
    return config, data


def start(run_dir, config, data):
    """``svt train`` into ``run_dir``, resumed from its checkpoint if there is one."""
    ckpt, log = run_dir / "run.ckpt", run_dir / "train.log"
    args = [sys.executable, "-m", "svt.cli", "--threads", "1", "train", "--config", config,
            "--data", data, "--out-ckpt", ckpt, "--log", log]
    if ckpt.exists():
        args += ["--resume", ckpt]
    return subprocess.Popen([str(a) for a in args], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)


def logged_steps(log):
    """The steps of the whole record lines of ``log`` so far."""
    text = log.read_text() if log.exists() else ""
    return [int(m[1]) for m in re.finditer(r"^step=(\d+) .*\n", text, re.M)]


def kill_when_logged(proc, log, step):
    """SIGKILL ``proc`` as soon as ``log`` records ``step``."""
    deadline = time.monotonic() + TIMEOUT_S
    while step not in logged_steps(log):
        assert proc.poll() is None, f"the run exited {proc.returncode} before step {step}"
        assert time.monotonic() < deadline, f"step {step} not logged in {TIMEOUT_S} s"
        time.sleep(POLL_S)
    proc.kill()


def finish(proc):
    _, err = proc.communicate(timeout=TIMEOUT_S)
    return proc.returncode, err.decode()


def records(log):
    return [re.sub(r" wall_ms=\d+$", "", line) for line in log.read_text().splitlines()]


def test_killed_runs_resume_to_the_uninterrupted_result(tmp_path):
    config, data = setup(tmp_path)
    ref_dir, run_dir = tmp_path / "reference", tmp_path / "killed"
    ref_dir.mkdir()
    run_dir.mkdir()
    code, err = finish(start(ref_dir, config, data))
    assert code == 0, err

    # before the first checkpoint: the next run starts again, with a fresh log
    proc = start(run_dir, config, data)
    kill_when_logged(proc, run_dir / "train.log", 2)
    assert finish(proc)[0] == -9
    # between the step-5 checkpoint and a later logged step: a resumed run
    # redoes steps 5, 6 and 7, which the log already records
    proc = start(run_dir, config, data)
    kill_when_logged(proc, run_dir / "train.log", 7)
    assert finish(proc)[0] == -9
    # at a seeded delay, wherever it lands
    proc = start(run_dir, config, data)
    time.sleep(random.Random(31).uniform(0.1, 0.8))
    proc.kill()
    code, err = finish(proc)
    while code != 0:
        assert code == -9, err
        code, err = finish(start(run_dir, config, data))

    want = M.load_checkpoint(ref_dir / "run.ckpt")
    got = M.load_checkpoint(run_dir / "run.ckpt")
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].dtype == want[name].dtype and np.array_equal(got[name], want[name]), name
    assert records(run_dir / "train.log") == records(ref_dir / "train.log")
    assert len(records(ref_dir / "train.log")) == 12
