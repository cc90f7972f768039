"""The benchmark's span tracer must find every attribute it wraps.

``perfbench/spans.py`` traces by replacing scenetok module attributes by
name, so a renamed function would break ``perfbench/run.py --trace 1``.
"""

from pathlib import Path

import numpy as np
import pytest

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


def test_stage_spans_cover_the_library_stages(monkeypatch):
    # run.py reads timings.get(stage, 0.0), so a renamed stage would read 0.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from scenetok.pipeline import STAGES

    assert set(spans.STAGE_SPANS) == set(STAGES)


@pytest.mark.filterwarnings("error::scenetok.errors.BudgetOverflowWarning")
def test_tracking_counters_match_the_scene(monkeypatch, small_scene,
                                           small_config):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from scenetok import pipeline

    tracer = spans.Tracer()
    tracer.install(0)
    try:
        result = pipeline.tokenize_bundle(small_scene.bundle, small_config)
    finally:
        tracer.uninstall()
    counts = tracer.counts[0]
    clusters = sum(np.unique(cid[cid >= 0]).size
                   for cid in result.partition.cluster_id)
    openset = [el for el in result.scene.elements if el.kind == "open-set"]
    assert clusters > len(openset) > 0
    assert counts["tracking.detections"] == clusters
    assert counts["tracking.tracks"] == len(openset)
