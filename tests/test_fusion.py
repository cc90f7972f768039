import dataclasses

import numpy as np
import pytest

from scenetok.errors import ShapeMismatch
from scenetok.fusion import (
    attn_along_axis,
    compare_grads,
    encode_geometry,
    finite_difference_grads,
    fuse_scene,
    fusion_loss_and_grads,
    grad_check,
    init_fusion_params,
    zero_attention_output,
)
from scenetok.fusion.layers import LN_EPS


def toy_params(T=3, D=8, hidden=8, seed=1):
    return init_fusion_params(T=T, D=D, hidden=hidden, n_heads=2, seed=seed)


def mlp_ref(x, p):
    return np.maximum(x @ p.w1.T + p.b1, 0.0) @ p.w2.T + p.b2


# ---------------------------------------------------------------------------
# straight-line reference implementation, kept independent of the library
# internals on purpose

def ln_ref(x, gamma, beta):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + LN_EPS) + beta


def attn_ref(X, block, key_valid):
    B, L, D = X.shape
    h = block.n_heads
    dh = D // h
    out = X.copy()
    for b in range(B):
        valid = np.flatnonzero(key_valid[b])
        if valid.size == 0:
            continue
        Y = ln_ref(X[b], block.ln_gamma, block.ln_beta)
        Q = Y @ block.wq.T + block.bq
        K = Y @ block.wk.T
        V = Y @ block.wv.T + block.bv
        ctx = np.zeros((L, D))
        for head in range(h):
            sl = slice(head * dh, (head + 1) * dh)
            logits = Q[:, sl] @ K[valid, sl].T / np.sqrt(dh)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            w = e / e.sum(axis=1, keepdims=True)
            ctx[:, sl] = w @ V[valid, sl]
        out[b] = X[b] + ctx @ block.wo.T + block.bo
    return out


def fuse_ref(F_img, F_geo, params, elem_valid):
    X = F_img + F_geo + params.f_temporal[None]
    X = attn_ref(X, params.time_block, elem_valid)
    X = attn_ref(X.transpose(1, 0, 2), params.elem_block,
                 elem_valid.T).transpose(1, 0, 2)
    out = np.zeros((X.shape[0], X.shape[2]))
    for i in range(X.shape[0]):
        valid = np.flatnonzero(elem_valid[i])
        if valid.size:
            out[i] = X[i, valid].mean(axis=0)
    return out


class TestEncodeGeometry:
    def test_zero_point_mlp_leaves_box_term(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = toy_params()
        params.mlp_f.w2 = np.zeros_like(params.mlp_f.w2)
        params.mlp_f.b2 = np.zeros_like(params.mlp_f.b2)
        F_geo = encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)
        expected = mlp_ref(t["B"].reshape(-1, 7), params.mlp_c).reshape(
            t["n_elem"], t["T"], t["D"])
        np.testing.assert_array_equal(F_geo, expected)

    def test_single_point_cell_pools_to_mlp_of_point(self):
        params = toy_params()
        P_xyz = np.array([[0.3, -0.5, 1.2]])
        P_ind = np.array([[1, 2]])  # frame 1, token 2
        B = np.zeros((4, 3, 7))
        F_geo = encode_geometry(P_xyz, P_ind, B, params)
        pooled_term = F_geo[2, 1] - mlp_ref(B[2, 1], params.mlp_c)
        np.testing.assert_allclose(pooled_term, mlp_ref(P_xyz[0], params.mlp_f),
                                   atol=1e-12)

    def test_two_path_recomputation_oracle(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = toy_params()
        F_geo = encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)

        # independent evaluation: explicit per-cell mean + box term
        phi = mlp_ref(t["P_xyz"], params.mlp_f)
        expected = np.zeros((t["n_elem"], t["T"], t["D"]))
        for e in range(t["n_elem"]):
            for fr in range(t["T"]):
                rows = np.flatnonzero((t["P_ind"][:, 1] == e)
                                      & (t["P_ind"][:, 0] == fr))
                if rows.size:
                    expected[e, fr] = phi[rows].mean(axis=0)
                expected[e, fr] += mlp_ref(t["B"][e, fr], params.mlp_c)
        assert np.abs(F_geo - expected).max() < 1e-9

    def test_additive_decomposition_with_zero_biases(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = toy_params()
        for mlp in (params.mlp_f, params.mlp_c):
            mlp.b1 = np.zeros_like(mlp.b1)
            mlp.b2 = np.zeros_like(mlp.b2)
        both = encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)
        only_points = encode_geometry(t["P_xyz"], t["P_ind"],
                                      np.zeros_like(t["B"]), params)
        only_boxes = encode_geometry(np.empty((0, 3)),
                                     np.empty((0, 2), dtype=np.int64),
                                     t["B"], params)
        np.testing.assert_allclose(both, only_points + only_boxes, atol=1e-12)

    def test_shape_mismatch(self):
        params = toy_params()
        with pytest.raises(ShapeMismatch):
            encode_geometry(np.zeros((4, 2)), np.zeros((4, 2), dtype=int),
                            np.zeros((2, 3, 7)), params)
        with pytest.raises(ShapeMismatch):
            encode_geometry(np.zeros((4, 3)), np.zeros((4, 2), dtype=int),
                            np.zeros((2, 5, 7)), params)  # wrong T


class TestAttnAlongAxis:
    def test_axis_length_one(self):
        params = toy_params(T=1)
        block = params.time_block
        rng = np.random.default_rng(0)
        F = rng.normal(size=(3, 1, 8))
        mask = np.ones((3, 1), dtype=bool)
        out, weights = attn_along_axis(F, "time", block, mask)
        np.testing.assert_allclose(weights, 1.0)
        Y = ln_ref(F, block.ln_gamma, block.ln_beta)
        V = Y @ block.wv.T + block.bv
        expected = F + V @ block.wo.T + block.bo
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_identical_tokens_give_uniform_weights(self):
        params = toy_params(T=5)
        rng = np.random.default_rng(1)
        row = rng.normal(size=8)
        F = np.tile(row, (2, 5, 1))
        mask = np.ones((2, 5), dtype=bool)
        _, weights = attn_along_axis(F, "time", params.time_block, mask)
        np.testing.assert_allclose(weights, 0.2, atol=1e-12)

    def test_element_axis_permutation_equivariance(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = toy_params()
        F = t["F_img"]
        mask = t["elem_valid"]
        out, _ = attn_along_axis(F, "element", params.elem_block, mask)
        perm = np.random.default_rng(2).permutation(t["n_elem"])
        out_p, _ = attn_along_axis(F[perm], "element", params.elem_block,
                                   mask[perm])
        assert np.abs(out[perm] - out_p).max() < 1e-12

    def test_all_keys_masked_row_passes_input_through(self):
        params = toy_params(T=4)
        rng = np.random.default_rng(6)
        F = rng.normal(size=(3, 4, 8))
        mask = np.ones((3, 4), dtype=bool)
        mask[1] = False  # element 1 has no valid frame at all
        out, weights = attn_along_axis(F, "time", params.time_block, mask)
        np.testing.assert_array_equal(out[1], F[1])
        assert (weights[1] == 0).all()
        assert not np.array_equal(out[0], F[0])

    def test_row_sums_over_valid_keys(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = toy_params()
        _, weights = attn_along_axis(t["F_img"], "time", params.time_block,
                                     t["elem_valid"])
        sums = weights.sum(axis=-1)
        any_valid = t["elem_valid"].any(axis=1)
        assert np.abs(sums[any_valid] - 1.0).max() < 1e-9
        assert (sums[~any_valid] == 0).all()
        # masked keys receive zero weight
        key_w = weights.sum(axis=(1, 2))  # (n_elem, T) total weight per key
        assert (key_w[~t["elem_valid"]] == 0).all()


class TestFuseScene:
    def test_output_shape(self):
        params = toy_params()
        rng = np.random.default_rng(3)
        n_elem, T, D = 5, 3, 8
        out = fuse_scene(rng.normal(size=(n_elem, T, D)),
                         rng.normal(size=(n_elem, T, D)), params,
                         np.ones((n_elem, T), dtype=bool))
        assert out.shape == (5, 8)

    def test_residual_only_equals_masked_temporal_mean(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = zero_attention_output(toy_params())
        rng = np.random.default_rng(4)
        F_geo = rng.normal(size=t["F_img"].shape)
        out = fuse_scene(t["F_img"], F_geo, params, t["elem_valid"])
        X = t["F_img"] + F_geo + params.f_temporal[None]
        counts = t["elem_valid"].sum(axis=1)
        expected = (X * t["elem_valid"][:, :, None]).sum(axis=1)
        nz = counts > 0
        expected[nz] /= counts[nz, None]
        expected[~nz] = 0.0
        np.testing.assert_array_equal(out, expected)

    def test_bit_exact_reproducibility(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        a = fuse_scene(t["F_img"], t["F_img"] * 0.5, toy_params(),
                       t["elem_valid"])
        b = fuse_scene(t["F_img"], t["F_img"] * 0.5, toy_params(),
                       t["elem_valid"])
        np.testing.assert_array_equal(a, b)

    def test_matches_straight_line_reference(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = toy_params()
        F_geo = encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)
        out = fuse_scene(t["F_img"], F_geo, params, t["elem_valid"])
        expected = fuse_ref(t["F_img"], F_geo, params, t["elem_valid"])
        assert np.abs(out - expected).max() < 1e-12

    def test_element_permutation_equivariance(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = toy_params()
        F_geo = encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)
        out = fuse_scene(t["F_img"], F_geo, params, t["elem_valid"])
        perm = np.random.default_rng(5).permutation(t["n_elem"])
        out_p = fuse_scene(t["F_img"][perm], F_geo[perm], params,
                           t["elem_valid"][perm])
        assert np.abs(out[perm] - out_p).max() < 1e-12

    def test_masked_slots_never_influence_output(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = toy_params()
        base = fuse_scene(t["F_img"], t["F_img"] * 0.3, params, t["elem_valid"])
        garbage = np.where(t["elem_valid"][:, :, None], t["F_img"], 1e6)
        poisoned = fuse_scene(garbage, garbage * 0.3, params, t["elem_valid"])
        assert np.abs(base - poisoned).max() < 1e-12

    def test_no_valid_frames_yields_zero_row(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = toy_params()
        out = fuse_scene(t["F_img"], t["F_img"], params, t["elem_valid"])
        assert (out[0] == 0).all()  # element 0 has elem_valid all False

    def test_shape_mismatch(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        with pytest.raises(ShapeMismatch):
            fuse_scene(t["F_img"], t["F_img"][:, :2], toy_params(),
                       t["elem_valid"])


class TestGradCheck:
    def test_linear_only_gradients_near_exact(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = zero_attention_output(toy_params())
        err = grad_check(params, t["P_xyz"], t["P_ind"], t["B"], t["F_img"],
                         t["elem_valid"])
        assert err < 1e-9

    def test_full_model(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        err = grad_check(toy_params(), t["P_xyz"], t["P_ind"], t["B"],
                         t["F_img"], t["elem_valid"])
        assert err < 1e-6

    def test_corrupted_gradient_detected(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = toy_params()
        args = (params, t["P_xyz"], t["P_ind"], t["B"], t["F_img"],
                t["elem_valid"])
        _, analytic = fusion_loss_and_grads(*args)
        numeric = finite_difference_grads(*args)
        analytic["time.wq"] = analytic["time.wq"].copy()
        analytic["time.wq"][0, 0] += max(1.0, np.abs(analytic["time.wq"]).max())
        assert compare_grads(analytic, numeric) > 1e-2

    def test_float32_params_rejected(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        with pytest.raises(ValueError):
            grad_check(toy_params().astype(np.float32), t["P_xyz"], t["P_ind"],
                       t["B"], t["F_img"], t["elem_valid"])


class TestPointPoolBackward:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_gather_reference_bit_for_bit(self, small_scene,
                                                 small_config, dtype):
        from scenetok import tokenize_bundle
        from scenetok.fusion.layers import mlp2_backward
        from scenetok.fusion.network import (_pooled_point_backward,
                                             _pooled_point_forward)
        from scenetok.pooling import cell_index

        # tight point budgets leave some (element, frame) cells without points
        config = dataclasses.replace(small_config, n_pts_ground=150,
                                     n_pts_agent=60, n_pts_openset=60)
        scene = tokenize_bundle(small_scene.bundle, config).scene
        n_elem = scene.B.shape[0]
        params = init_fusion_params(T=config.T, D=config.D,
                                    hidden=8, seed=3, dtype=dtype)
        _, cache = _pooled_point_forward(scene.P_xyz, scene.P_ind, params,
                                         n_elem)
        counts = cache[2]
        assert (counts == 0).any() and (counts > 1).any()

        g = np.random.default_rng(5).normal(
            size=(n_elem, params.T, params.D)).astype(dtype)
        got = _pooled_point_backward(g, cache, params, n_elem)

        # the pre-CSR backward: gather each point's cell gradient, scale by 1/count
        cells = cell_index(scene.P_ind, params.T)
        scale = np.zeros(counts.shape[0])
        scale[counts > 0] = 1.0 / counts[counts > 0]
        dphi = g.reshape(-1, params.D)[cells] * scale[cells, None]
        _, want = mlp2_backward(dphi.astype(dtype), cache[0], params.mlp_f)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].dtype == want[name].dtype
            np.testing.assert_array_equal(got[name], want[name])
