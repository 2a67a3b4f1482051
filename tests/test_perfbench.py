"""The benchmark's tracer against the library it wraps."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
