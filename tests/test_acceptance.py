"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import time
import warnings

import numpy as np
import pytest

import scenetok as st
from camera_helpers import per_point_ids
from fusion_helpers import attn_along_axis, zero_attention_output
from scenetok.compact import pool_image_features
from scenetok.decompose import (
    LABEL_AGENT,
    LABEL_DISCARDED,
    LABEL_GROUND,
    LABEL_OPENSET,
)
from scenetok.fusion import (
    fuse_scene,
    fusion_forward,
    grad_check,
    init_fusion_params,
)


def report(criterion, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {description}",
          flush=True)
    assert ok, f"criterion {criterion} failed: {description}"


def small_spec(**kw):
    base = dict(n_agents=1, n_clutter=2, T=3, area_m=40.0, cameras=1, D=4,
                ground_points_per_frame=150, agent_points=80,
                clutter_points=30)
    base.update(kw)
    return st.SceneSpec(**base)


def small_config(**kw):
    base = dict(T=3, D=4, n_elem_agent=8, n_elem_openset=16, n_elem_ground=64,
                n_pts_ground=1000, n_pts_agent=500, n_pts_openset=500)
    base.update(kw)
    return st.PipelineConfig(**base)


def test_criterion_01_partition_invariant():
    violations = 0
    config = small_config()
    for seed in range(100):
        scene = st.generate_scene(seed, small_spec())
        result = st.tokenize_bundle(scene.bundle, config)
        for f, lab in enumerate(result.partition.labels):
            n = scene.bundle.frame_size[f]
            if lab.shape[0] != n:
                violations += 1
            if not np.isin(lab, [LABEL_GROUND, LABEL_AGENT, LABEL_OPENSET,
                                 LABEL_DISCARDED]).all():
                violations += 1
            # sub-labels agree with the class label
            tr = result.partition.agent_track[f]
            ci = result.partition.cluster_id[f]
            if not ((tr >= 0) == (lab == LABEL_AGENT)).all():
                violations += 1
            if not ((ci >= 0) == (lab == LABEL_OPENSET)).all():
                violations += 1
    report(1, f"every point labeled exactly once over 100 scenes "
              f"({violations} violations)", violations == 0)


def test_criterion_02_decomposition_fidelity():
    t0 = time.perf_counter()
    total = agree = 0
    config = st.PipelineConfig(T=5, D=8, n_elem_agent=16, n_elem_openset=32,
                               n_elem_ground=128, n_pts_ground=40_000,
                               n_pts_agent=20_000, n_pts_openset=20_000)
    for seed in (0, 1, 2, 3, 4, 5):
        spec = small_spec(n_agents=3, n_clutter=4, T=5, area_m=70.0, D=8,
                          cameras=2, ground_points_per_frame=500,
                          agent_points=200, clutter_points=60)
        scene = st.generate_scene(seed, spec)
        result = st.tokenize_bundle(scene.bundle, config)
        for f in range(spec.T):
            truth = scene.truth.labels[f]
            got = result.partition.labels[f]
            total += truth.shape[0]
            agree += (truth == got).sum()
    elapsed = time.perf_counter() - t0
    rate = agree / total
    report(2, f"label agreement {rate:.4%} (>= 99%) in {elapsed:.1f}s (< 10s)",
           rate >= 0.99 and elapsed < 10.0)


def test_criterion_03_pooling_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        n, n_elem, T, D = 300, 8, 5, 6
        F_pts = rng.normal(size=(n, D))
        valid = rng.random(n) > 0.3
        P_ind = np.stack([rng.integers(0, T, n), rng.integers(0, n_elem, n)],
                         axis=1)
        kinds = rng.integers(0, 3, n_elem)
        F_img, ok = pool_image_features(F_pts, per_point_ids(valid), P_ind,
                                        kinds, n_elem, T)

        # O(N*E*T) brute force, including the open-set temporal average
        exp = np.zeros((n_elem, T, D))
        exp_ok = np.zeros((n_elem, T), dtype=bool)
        for e in range(n_elem):
            for t in range(T):
                rows = [i for i in range(n) if valid[i]
                        and P_ind[i, 1] == e and P_ind[i, 0] == t]
                if rows:
                    exp[e, t] = F_pts[rows].mean(axis=0)
                    exp_ok[e, t] = True
        for e in range(n_elem):
            if kinds[e] == 1:  # open-set: average valid frames, broadcast
                if exp_ok[e].any():
                    avg = exp[e][exp_ok[e]].mean(axis=0)
                    exp[e] = avg
                    exp_ok[e] = True
                else:
                    exp[e] = 0.0
        worst = max(worst, float(np.abs(F_img - exp).max()))
        assert (ok == exp_ok).all()
    report(3, f"pooling matches brute force, max abs diff {worst:.2e} (< 1e-6)",
           worst < 1e-6)


def test_criterion_04_geometry_encoding_oracle(toy_fusion_inputs):
    t = toy_fusion_inputs
    params = init_fusion_params(T=t["T"], D=t["D"], hidden=8, n_heads=2, seed=1)
    F_geo = st.encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)

    def mlp(x, p):
        return np.maximum(x @ p.w1.T + p.b1, 0.0) @ p.w2.T + p.b2

    phi = mlp(t["P_xyz"], params.mlp_f)
    expected = np.zeros_like(F_geo)
    for e in range(t["n_elem"]):
        for fr in range(t["T"]):
            rows = np.flatnonzero((t["P_ind"][:, 1] == e)
                                  & (t["P_ind"][:, 0] == fr))
            if rows.size:
                expected[e, fr] = phi[rows].mean(axis=0)
            expected[e, fr] += mlp(t["B"][e, fr], params.mlp_c)
    diff = float(np.abs(F_geo - expected).max())
    report(4, f"geometry encoding two-path diff {diff:.2e} (< 1e-9)",
           diff < 1e-9)


def test_criterion_05_fusion_contract(toy_fusion_inputs):
    t = toy_fusion_inputs
    params = init_fusion_params(T=t["T"], D=t["D"], hidden=8, n_heads=2, seed=3)
    F_img, elem_valid = t["F_img"], t["elem_valid"]
    F_geo = st.encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)

    _, w = attn_along_axis(F_img + F_geo, "time", params.time_block,
                           elem_valid)
    sums = w.sum(axis=-1)
    row_ok = np.abs(sums[elem_valid.any(axis=1)] - 1.0).max() < 1e-9

    out = fuse_scene(F_img, F_geo, params, elem_valid)
    perm = np.random.default_rng(0).permutation(t["n_elem"])
    out_p = fuse_scene(F_img[perm], F_geo[perm], params, elem_valid[perm])
    perm_ok = np.abs(out[perm] - out_p).max() < 1e-12

    garbage_img = np.where(elem_valid[:, :, None], F_img, -1e7)
    garbage_geo = np.where(elem_valid[:, :, None], F_geo, 1e7)
    out_g = fuse_scene(garbage_img, garbage_geo, params, elem_valid)
    mask_ok = np.abs(out - out_g).max() < 1e-12

    p0 = zero_attention_output(params)
    res = fuse_scene(F_img, F_geo, p0, elem_valid)
    X = F_img + F_geo + p0.f_temporal[None]
    counts = elem_valid.sum(axis=1)
    expected = (X * elem_valid[:, :, None]).sum(axis=1)
    nz = counts > 0
    expected[nz] /= counts[nz, None]
    expected[~nz] = 0.0
    residual_ok = np.array_equal(res, expected)

    report(5, f"attention row sums=1: {row_ok}, permutation equivariance: "
              f"{perm_ok}, masked non-influence: {mask_ok}, residual-only "
              f"mean: {residual_ok}",
           row_ok and perm_ok and mask_ok and residual_ok)


def test_criterion_06_gradient_check(toy_fusion_inputs):
    t = toy_fusion_inputs
    assert (t["n_elem"], t["T"], t["D"]) == (4, 3, 8)
    params = init_fusion_params(T=3, D=8, hidden=8, n_heads=2, seed=1)
    t0 = time.perf_counter()
    err = grad_check(params, t["P_xyz"], t["P_ind"], t["B"], t["F_img"],
                     t["elem_valid"])
    elapsed = time.perf_counter() - t0
    report(6, f"max relative gradient error {err:.2e} (< 1e-6) in "
              f"{elapsed:.1f}s (< 60s)", err < 1e-6 and elapsed < 60.0)


def test_criterion_07_token_budget():
    per_t = {1: dict(ground_points_per_frame=6000, agent_points=160,
                     clutter_points=200),
             11: dict(ground_points_per_frame=800, agent_points=60,
                      clutter_points=40),
             22: dict(ground_points_per_frame=500, agent_points=40,
                      clutter_points=30)}
    ok = True
    detail = []
    for T, knobs in per_t.items():
        spec = st.SceneSpec(n_agents=10, n_clutter=12, T=T, area_m=175.0,
                            cameras=1, D=4, min_separation_m=9.0, **knobs)
        config = st.PipelineConfig(T=T, D=4, n_pts_ground=4096,
                                   n_pts_agent=1024, n_pts_openset=2048)
        scene = st.generate_scene(T, spec)
        result = st.tokenize_bundle(scene.bundle, config)
        n_elem = result.scene.n_elem
        n_rows = result.scene.n_pts
        by_kind = {k: sum(el.kind == k for el in result.scene.elements)
                   for k in ("agent", "open-set", "ground")}
        this_ok = (n_elem <= 768
                   and by_kind["agent"] <= config.n_elem_agent
                   and by_kind["open-set"] <= config.n_elem_openset
                   and by_kind["ground"] <= config.n_elem_ground
                   and n_rows == config.n_pts
                   and result.scene.P_ind.shape[0] == config.n_pts)
        ok = ok and this_ok
        detail.append(f"T={T}: {n_elem} tokens, {n_rows} points")
    report(7, f"budget 768 respected, row totals = N_pts ({'; '.join(detail)})",
           ok)


def test_criterion_08_tracking_stability():
    # five constant-velocity objects with no perception boxes: drop all
    # agents so their returns flow into open-set tracking
    spec = st.SceneSpec(n_agents=5, n_clutter=0, T=11, area_m=120.0,
                        cameras=1, D=4, agent_points=500,
                        ground_points_per_frame=2500, min_separation_m=14.0)
    scene = st.generate_scene(21, spec)
    ablated, dropped = st.drop_agents(scene.bundle, 1.0, seed=0)
    assert len(dropped) == 5
    config = st.PipelineConfig(T=11, D=4, n_elem_agent=8, n_elem_openset=32,
                               n_elem_ground=256, n_pts_ground=30_000,
                               n_pts_agent=500, n_pts_openset=20_000)
    result = st.tokenize_bundle(ablated, config)
    tracks = [el for el in result.scene.elements if el.kind == "open-set"]
    n_tracks_ok = len(tracks) == 5
    all_valid = all(el.frame_valid.all() for el in tracks)

    # zero identity switches: each track's centers follow one true agent
    switches = 0
    for el in tracks:
        centers = el.boxes[:, :2]
        errs = []
        for a in scene.agent_specs:
            truth = np.array([a["start"][:2] + a["velocity"][:2] * (f * spec.dt_s)
                              for f in range(spec.T)])
            errs.append(np.linalg.norm(centers - truth, axis=1).max())
        if min(errs) > 1.0:
            switches += 1
    report(8, f"5 tracks ({len(tracks)}), all frames valid: {all_valid}, "
              f"id switches: {switches}",
           n_tracks_ok and all_valid and switches == 0)


def test_criterion_09_geometry_oracles():
    rng = np.random.default_rng(7)
    worst_area = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 25))
        xy = rng.normal(size=(n, 2)) * rng.uniform(0.5, 4.0, size=2)
        pts = np.column_stack([xy, rng.normal(size=n)])
        box = st.fit_tight_box(pts, [len(pts)])[0]
        area = box[3] * box[4]

        best = np.inf
        for i in range(n):
            for j in range(i + 1, n):
                d = xy[j] - xy[i]
                norm = np.hypot(d[0], d[1])
                if norm < 1e-12:
                    continue
                c, s = d[0] / norm, d[1] / norm
                u = xy[:, 0] * c + xy[:, 1] * s
                v = -xy[:, 0] * s + xy[:, 1] * c
                best = min(best, (u.max() - u.min()) * (v.max() - v.min()))
        worst_area = max(worst_area, abs(area - best))
    rect_ok = worst_area < 1e-9

    n_in, n_out = 1800, 200
    xy = rng.uniform(-25, 25, (n_in, 2))
    inliers = np.column_stack([xy, 0.1 * xy[:, 0]])
    oxy = rng.uniform(-25, 25, (n_out, 2))
    outliers = np.column_stack([oxy, 0.1 * oxy[:, 0] + 5.0])
    plane = st.fit_ground_plane(np.concatenate([inliers, outliers]),
                                st.RansacConfig(), seed=1)
    A = np.column_stack([inliers[:, 0], inliers[:, 1], np.ones(n_in)])
    (a, b, _), *_ = np.linalg.lstsq(A, inliers[:, 2], rcond=None)
    n_ls = np.array([-a, -b, 1.0])
    n_ls /= np.linalg.norm(n_ls)
    angle = float(np.arccos(np.clip(abs(plane.normal @ n_ls), -1, 1)))
    plane_ok = angle < 1e-3
    report(9, f"min-area rect max diff {worst_area:.2e} (< 1e-9), RANSAC "
              f"angular error {angle:.2e} (< 1e-3)", rect_ok and plane_ok)


def test_criterion_10_ablation_mechanics():
    spec = st.SceneSpec(n_agents=10, n_clutter=4, T=5, area_m=140.0,
                        cameras=1, D=4, agent_points=300,
                        ground_points_per_frame=2000, min_separation_m=10.0)
    scene = st.generate_scene(5, spec)
    config = st.PipelineConfig(T=5, D=4, n_elem_agent=16, n_elem_openset=64,
                               n_elem_ground=256, n_pts_ground=12_000,
                               n_pts_agent=8000, n_pts_openset=20_000)
    base = st.tokenize_bundle(scene.bundle, config)
    base_open = sum(el.kind == "open-set" for el in base.scene.elements)
    base_points = scene.bundle.points.shape[0]

    ok = True
    detail = []
    for ratio in (0.1, 0.3, 0.5):
        ablated, dropped = st.drop_agents(scene.bundle, ratio, seed=2)
        exact = len(dropped) == int(np.floor(ratio * 10))
        points_kept = ablated.points.shape[0] == base_points
        result = st.tokenize_bundle(ablated, config)
        n_open = sum(el.kind == "open-set" for el in result.scene.elements)
        grows = n_open >= base_open
        ok = ok and exact and points_kept and grows
        detail.append(f"r={ratio}: -{len(dropped)} tracks, open-set "
                      f"{base_open}->{n_open}")
    report(10, "; ".join(detail), ok)


@pytest.fixture(scope="module")
def full_size_scene():
    spec = st.SceneSpec(n_agents=16, n_clutter=60, T=11, area_m=160.0,
                        cameras=2, D=256, ground_points_per_frame=3200,
                        agent_points=60, clutter_points=40,
                        min_separation_m=6.0, feature_res=32)
    return st.generate_scene(100, spec), st.PipelineConfig()


def test_criterion_11_performance_budget(full_size_scene, request):
    scene, config = full_size_scene
    params32 = init_fusion_params(T=11, D=256, hidden=64, n_heads=2, seed=0,
                                  dtype=np.float32)

    report_obj = st.bench_tokenize(scene.bundle, config, repetitions=3)
    tokenize_ms = report_obj.total_p50_ms(include_fuse=False)
    print(report_obj.text(), flush=True)

    result = st.tokenize_bundle(scene.bundle, config)
    n_pts_ok = result.scene.n_pts == 65536

    # fusion forward timed at exactly the configured budget dims
    rng = np.random.default_rng(0)
    n_elem, T, D = 768, 11, 256
    P_xyz = rng.normal(size=(65536, 3)).astype(np.float32)
    P_ind = np.stack([rng.integers(0, T, 65536),
                      rng.integers(0, n_elem, 65536)], axis=1)
    B = rng.normal(size=(n_elem, T, 7)).astype(np.float32)
    F_img = rng.normal(size=(n_elem, T, D)).astype(np.float32)
    valid = np.ones((n_elem, T), dtype=bool)
    fusion_ms = []
    for _ in range(3):
        t0 = time.perf_counter()
        fusion_forward(params32, P_xyz, P_ind, B, F_img, valid)
        fusion_ms.append((time.perf_counter() - t0) * 1e3)
    fusion_p50 = float(np.median(fusion_ms))

    # regression tracking against the last recorded run on this machine,
    # skipped when pytest runs without its cache (-p no:cacheprovider)
    cache = getattr(request.config, "cache", None)
    if cache is not None:
        baseline = cache.get("scenetok/perf_baseline", None)
        if baseline is not None:
            for name, value in (("tokenize_ms", tokenize_ms),
                                ("fusion_ms", fusion_p50)):
                ref = baseline[name]
                if not (0.75 * ref <= value <= 1.25 * ref):
                    warnings.warn(f"{name} drifted beyond 25%: {ref:.0f} -> "
                                  f"{value:.0f} ms")
        cache.set("scenetok/perf_baseline",
                  {"tokenize_ms": tokenize_ms, "fusion_ms": fusion_p50})

    report(11, f"tokenize p50 {tokenize_ms:.0f} ms (< 2000), fusion forward "
               f"p50 {fusion_p50:.0f} ms (< 5000), N_pts={result.scene.n_pts}",
           tokenize_ms < 2000.0 and fusion_p50 < 5000.0 and n_pts_ok)


def test_criterion_12_format_round_trip(tmp_path, small_scene):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    st.write_scene_bundle(d1, small_scene.bundle)
    st.write_scene_bundle(d2, st.read_scene_bundle(d1))
    bundle_ok = ({p.name: p.read_bytes() for p in sorted(d1.iterdir())}
                 == {p.name: p.read_bytes() for p in sorted(d2.iterdir())})

    config = st.PipelineConfig(T=5, D=8, n_elem_agent=8, n_elem_openset=32,
                               n_elem_ground=64, n_pts_ground=2000,
                               n_pts_agent=1200, n_pts_openset=1000)
    params = init_fusion_params(T=5, D=8, seed=0)
    result = st.tokenize_bundle(small_scene.bundle, config, params=params)
    t1, t2 = tmp_path / "a.tokens", tmp_path / "b.tokens"
    st.write_tokens(t1, result.tokens)
    st.write_tokens(t2, st.read_tokens(t1))
    tokens_ok = t1.read_bytes() == t2.read_bytes()
    report(12, f"bundle byte-identical: {bundle_ok}, tokens byte-identical: "
               f"{tokens_ok}", bundle_ok and tokens_ok)
