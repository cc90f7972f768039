"""The benchmark's span tracer must find every attribute it wraps.

``perfbench/spans.py`` traces by replacing scenetok module attributes by
name, so a renamed function would break ``perfbench/run.py --trace 1``.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_wraps_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install(0)
    patches = list(tracer._patches)
    try:
        assert patches
        for module, attr, original in patches:
            assert getattr(module, attr) is not original, (module.__name__, attr)
    finally:
        tracer.uninstall()
    for module, attr, original in patches:
        assert getattr(module, attr) is original, (module.__name__, attr)
