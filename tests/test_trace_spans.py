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


def test_decompose_spans_per_scene_and_per_frame(monkeypatch, small_scene,
                                                 small_config):
    # perfbench attributes box fitting and agent membership to the decompose
    # stage: one batched box fit per scene, one membership call per frame.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from scenetok import pipeline

    tracer = spans.Tracer()
    tracer.install(0)
    try:
        pipeline.tokenize_bundle(small_scene.bundle, small_config)
    finally:
        tracer.uninstall()
    _, _, calls = tracer.op_times(0)
    n_frames = small_scene.bundle.frame_size.size
    assert calls["decompose.fit_tight_box"] == 1
    assert calls["decompose.extract_agent_elements"] == n_frames
    assert calls["decompose.decompose_frame"] == n_frames

    by_name = {}
    for _, name, parent, start, end in tracer.spans:
        by_name.setdefault(name, []).append((parent, start, end))
    stage_start = max(end for _, _, end in by_name["ground.fit_and_segment"])
    stage_end = min(start for _, start, _ in by_name["tracking.track_open_set"])
    names = [span[1] for span in tracer.spans]
    for name, parent_name in (("decompose.fit_tight_box",
                               "pipeline.tokenize_bundle"),
                              ("decompose.extract_agent_elements",
                               "decompose.decompose_frame")):
        for parent, start, end in by_name[name]:
            assert names[parent] == parent_name
            assert stage_start <= start <= end <= stage_end


def test_fusion_spans_record_calls(monkeypatch, ragged_fusion_inputs):
    # perfbench names each fusion layer by the network function it wraps;
    # a layer that stops calling through that name would read 0 calls.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from scenetok.fusion import init_fusion_params, network

    t = ragged_fusion_inputs
    params = init_fusion_params(T=t["T"], D=t["D"], hidden=8, n_heads=2,
                                seed=1)
    tracer = spans.Tracer()
    tracer.install(0)
    try:
        network.fusion_loss_and_grads(params, t["P_xyz"], t["P_ind"], t["B"],
                                      t["F_img"], t["elem_valid"])
    finally:
        tracer.uninstall()
    _, _, calls = tracer.op_times(0)
    for name in ("fusion.time_attn", "fusion.elem_attn",
                 "fusion.masked_softmax", "fusion.time_mean",
                 "fusion.backward"):
        assert calls[name] > 0, name
    assert calls["fusion.time_attn"] == calls["fusion.elem_attn"] == 1
