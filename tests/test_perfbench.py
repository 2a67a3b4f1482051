"""The benchmark's tracer and checks against the library it wraps."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_tracer_patches_and_restores_every_binding(monkeypatch):
    """``perfbench/tracing.py`` wraps svt functions at the module attributes
    their callers look up.  A refactor that drops or renames one of them
    (``model.attention_layer``, ``optim.train``, ...) fails ``install`` here,
    not only under ``perfbench/run.py --trace 1``; ``uninstall`` puts every
    original back."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)


@pytest.mark.parametrize("workload", ["desk-sample", "desk-train"])
def test_traced_desk_workload_passes_its_checks(tmp_path, workload):
    """``perfbench/run.py --trace 1`` on a copy of the checkout, so that its
    output stays out of the tree: the coverage guard, the repeat-call check,
    the replay of sampled videos and the training checks all pass."""
    for sub in ("src", "configs", "perfbench"):
        shutil.copytree(ROOT / sub, tmp_path / sub,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench-out"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seconds", "1", "--trace", "1"],
                       cwd=tmp_path, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, r.stderr
    if workload == "desk-train":
        # evaluate runs a desk video's 8 slices in one forward_slices call
        assert result["metrics"]["metrics.forward_calls_per_video"]["value"] == 1.0
