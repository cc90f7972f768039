import dataclasses
import tracemalloc

import numpy as np
import pytest

from fusion_helpers import (attention_forward_reference, attn_along_axis,
                            layernorm_backward_reference,
                            layernorm_forward_reference,
                            pooled_point_backward_reference,
                            pooled_point_forward_reference,
                            zero_attention_output)
from scenetok.errors import InvalidInput, ShapeMismatch
from scenetok.fusion import (
    compare_grads,
    encode_geometry,
    finite_difference_grads,
    fuse_scene,
    fusion_forward,
    fusion_loss_and_grads,
    grad_check,
    init_fusion_params,
)
from scenetok.fusion import network
from scenetok.fusion.layers import (LN_EPS, layernorm_backward,
                                    layernorm_forward, layernorm_output,
                                    masked_softmax, relu_backward,
                                    softmax_backward)
from scenetok.pooling import masked_mean


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

    def test_integer_mask_equals_boolean_mask(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        a = fuse_scene(t["F_img"], t["F_img"], toy_params(), t["elem_valid"])
        b = fuse_scene(t["F_img"], t["F_img"], toy_params(),
                       t["elem_valid"].astype(np.int64))
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


class TestRaggedValidity:
    """Elements valid in some frames only: several group lengths per axis."""

    @staticmethod
    def params(dtype=np.float64):
        return toy_params(T=4).astype(dtype)

    def test_fixture_runs_several_group_lengths(self, ragged_fusion_inputs):
        valid = ragged_fusion_inputs["elem_valid"]
        for axis_valid in (valid, valid.T):
            _, runs = network._group_rows(axis_valid, 2)
            assert len(runs) > 1 and max(g for _, g, _ in runs) > 1
            assert sorted(run_rows(runs)) == list(range(valid.sum()))

    def test_matches_straight_line_reference(self, ragged_fusion_inputs):
        t = ragged_fusion_inputs
        params = self.params()
        F_geo = encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)
        out = fuse_scene(t["F_img"], F_geo, params, t["elem_valid"])
        expected = fuse_ref(t["F_img"], F_geo, params, t["elem_valid"])
        assert np.abs(out - expected).max() < 1e-12
        assert (out[0] == 0).all()  # element 0 has no valid frame

    def test_grad_check(self, ragged_fusion_inputs):
        t = ragged_fusion_inputs
        err = grad_check(self.params(), t["P_xyz"], t["P_ind"], t["B"],
                         t["F_img"], t["elem_valid"])
        assert err < 1e-6

    def test_bit_exact_reproducibility(self, ragged_fusion_inputs):
        t = ragged_fusion_inputs
        args = (t["P_xyz"], t["P_ind"], t["B"], t["F_img"], t["elem_valid"])
        for dtype in (np.float32, np.float64):
            params = self.params(dtype)
            a = fusion_forward(params, *args)[0]
            b = fusion_forward(params, *args)[0]
            np.testing.assert_array_equal(a, b)
            loss_a, grads_a = fusion_loss_and_grads(params, *args)
            loss_b, grads_b = fusion_loss_and_grads(params, *args)
            assert loss_a == loss_b
            for name in grads_a:
                np.testing.assert_array_equal(grads_a[name], grads_b[name])

    def test_float32_close_to_float64(self, ragged_fusion_inputs):
        t = ragged_fusion_inputs
        args = (t["P_xyz"], t["P_ind"], t["B"], t["F_img"], t["elem_valid"])
        F64 = fusion_forward(self.params(), *args)[0]
        F32 = fusion_forward(self.params(np.float32), *args)[0]
        assert F32.dtype == np.float32
        ulp = np.spacing(np.float32(np.abs(F64).max()))
        assert np.abs(F32 - F64).max() <= 4 * ulp
        _, g64 = fusion_loss_and_grads(self.params(), *args)
        _, g32 = fusion_loss_and_grads(self.params(np.float32), *args)
        assert compare_grads(g32, g64) <= 2e-5

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, 1e7, -1e7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_invalid_slot_values_never_reach_output(self, ragged_fusion_inputs,
                                                    fill, dtype):
        t = ragged_fusion_inputs
        params = self.params(dtype)
        valid = t["elem_valid"][:, :, None]
        F_img = t["F_img"].astype(dtype)
        F_geo = encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)
        base = fuse_scene(F_img, F_geo, params, t["elem_valid"])
        for img, geo in ((np.where(valid, F_img, fill), F_geo),
                         (F_img, np.where(valid, F_geo, fill))):
            out = fuse_scene(img.astype(dtype), geo.astype(dtype), params,
                             t["elem_valid"])
            np.testing.assert_array_equal(out, base)


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


class TestSoftmaxBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_equals_reference_bit_for_bit(self, dtype):
        rng = np.random.default_rng(9)
        w = masked_softmax(rng.normal(size=(6, 2, 7, 7)).astype(dtype))
        w[0] = 0  # all-zero weights, as a query with no key would have
        g = rng.normal(size=w.shape).astype(dtype)
        want = w * (g - (g * w).sum(axis=-1, keepdims=True))
        got = softmax_backward(g.copy(), w)
        assert got is w
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestLayerNormInPlace:
    """The in-place LayerNorm against the out-of-place formulas it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(50, 16), (3, 7, 16)])
    def test_equals_reference_bit_for_bit(self, dtype, shape):
        rng = np.random.default_rng(12)
        x = (3.0 * rng.normal(size=shape) + 1.0).astype(dtype)
        x.reshape(-1, shape[-1])[4] = 2.5  # a constant row: xhat is all zero
        gamma = rng.normal(size=shape[-1]).astype(dtype)
        beta = rng.normal(size=shape[-1]).astype(dtype)
        x_in = x.copy()
        y, cache = layernorm_forward(x, gamma, beta)
        y_ref, cache_ref = layernorm_forward_reference(x, gamma, beta)
        assert_bits_equal(x, x_in)
        assert_bits_equal(y, y_ref)
        for got, want in zip(cache, cache_ref):
            assert_bits_equal(got, want)
        assert (cache[0].reshape(-1, shape[-1])[4] == 0).all()

        g = rng.normal(size=shape).astype(dtype)
        want = layernorm_backward_reference(g, cache_ref, gamma)
        got = layernorm_backward(g.copy(), cache, gamma)
        for a, b in zip(got, want):
            assert_bits_equal(a, b)


class TestStackedAttentionForward:
    """``_attention_fwd`` writes Q, K and V into one table and every chunk's
    logits into one buffer; both must equal the separate arrays they
    replaced bit for bit, or the token files would change."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 37, 65, 1000])
    def test_qkv_table_equals_three_projections(self, dtype, n):
        # OpenBLAS's small-matrix path rounds a stacked (D, 3D) product
        # differently from three (D, D) ones at a few rows, D = 256
        D = 256
        block = init_fusion_params(T=1, D=D, seed=3, dtype=dtype).time_block
        X = np.random.default_rng(n).normal(size=(n, D)).astype(dtype)
        _, runs = network._group_rows(np.ones((n, 1), dtype=bool), 2)
        _, cache = network._attention_fwd(X, block, runs)
        _, _, Q, K, V, _, _ = attention_forward_reference(X, block, runs)
        QKV = cache[1]
        assert QKV.shape == (n, 3 * D)
        for i, want in enumerate((Q, K, V)):
            assert_bits_equal(np.ascontiguousarray(QKV[:, i * D:(i + 1) * D]),
                              want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("buffer", [None, 1])
    def test_equals_reference(self, ragged_fusion_inputs, monkeypatch,
                              dtype, buffer):
        if buffer is not None:
            monkeypatch.setattr(network, "_GROUP_BUFFER", buffer)
        t = ragged_fusion_inputs
        block = init_fusion_params(T=t["T"], D=t["D"], seed=5,
                                   dtype=dtype).elem_block
        slots, runs = network._group_rows(t["elem_valid"].T, block.n_heads)
        X = t["F_img"].astype(dtype).transpose(1, 0, 2).reshape(
            -1, t["D"])[slots]
        out, Y, *_, weights, ctx = attention_forward_reference(X, block, runs)
        got, no_cache = network._attention_fwd(X, block, runs,
                                               keep_cache=False)
        assert no_cache is None
        assert_bits_equal(got, out)
        got, cache = network._attention_fwd(X, block, runs)
        assert_bits_equal(got, out)
        (xhat, inv), _, cache_runs, got_weights, got_ctx = cache
        assert cache_runs is runs
        assert_bits_equal(got_ctx, ctx)
        assert len(got_weights) == len(weights) > 1
        for a, b in zip(got_weights, weights):
            assert_bits_equal(a, b)
        # every chunk's weights are views of one buffer
        assert len({id(w.base) for w in got_weights}) == 1
        # the backward rebuilds the LayerNorm output from the cache
        rebuilt = layernorm_output(xhat, block.ln_gamma, block.ln_beta,
                                   out=np.empty_like(xhat))
        assert_bits_equal(rebuilt, Y)


class TestTimeMean:
    """The time-mean over each element's contiguous rows against
    ``pooling.masked_mean`` over the zero-filled (element, frame) table."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [1, 4, 11])
    @pytest.mark.parametrize("buffer", [None, 1])
    def test_equals_masked_mean(self, monkeypatch, dtype, T, buffer):
        if buffer is not None:
            monkeypatch.setattr(network, "_GROUP_BUFFER", buffer)
        rng = np.random.default_rng(T)
        n_elem, D = 60, 5
        valid = rng.random((n_elem, T)) < 0.6
        valid[:3] = False
        valid[3] = True
        X = rng.normal(size=(n_elem, T, D)).astype(dtype)
        slots, runs = network._group_rows(valid, 2)
        got, counts = network._masked_time_mean_fwd(
            X.reshape(-1, D)[slots], slots // T, runs, n_elem)
        table = np.zeros_like(X)
        table[valid] = X[valid]
        want, want_counts = masked_mean(table, valid)
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(counts, want_counts)
        # equal bit for bit up to the sign of an exactly-zero sum
        np.testing.assert_array_equal(got, want)
        assert (got[~valid.any(axis=1)] == 0).all()


class TestEmptyScene:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_and_gradients_are_zero(self, dtype):
        T, D = 3, 8
        params = init_fusion_params(T=T, D=D, n_heads=2, seed=2, dtype=dtype)
        args = (np.empty((0, 3), dtype=dtype), np.empty((0, 2), dtype=np.int64),
                np.empty((0, T, 7), dtype=dtype),
                np.empty((0, T, D), dtype=dtype), np.empty((0, T), dtype=bool))
        F_geo = encode_geometry(*args[:3], params)
        assert fuse_scene(args[3], F_geo, params, args[4]).shape == (0, D)
        loss, grads = fusion_loss_and_grads(params, *args)
        assert loss == 0.0
        assert grads.keys() == params.tensors().keys()
        for name, value in params.tensors().items():
            assert grads[name].shape == value.shape
            assert grads[name].dtype == value.dtype
            assert not grads[name].any()


class TestPointIndexRange:
    """A point whose frame or token id is out of range is rejected, naming
    its row, before it can pool into another element's cell."""

    @pytest.mark.parametrize("bad", [(3, 1), (-1, 1), (0, 4), (0, -1)],
                             ids=["frame_T", "frame_-1", "token_n_elem",
                                  "token_-1"])
    def test_rejected(self, toy_fusion_inputs, bad):
        t = toy_fusion_inputs
        assert (t["T"], t["n_elem"]) == (3, 4)
        P_ind = t["P_ind"].copy()
        P_ind[5] = bad
        params = toy_params()
        with pytest.raises(InvalidInput, match="P_ind row 5 "):
            encode_geometry(t["P_xyz"], P_ind, t["B"], params)
        with pytest.raises(InvalidInput, match="P_ind row 5 "):
            fusion_loss_and_grads(params, t["P_xyz"], P_ind, t["B"],
                                  t["F_img"], t["elem_valid"])

    def test_frame_T_used_to_fill_the_next_element(self):
        # frame 3 of token 0 with T = 3 is cell 3: element 1, frame 0
        params = toy_params()
        with pytest.raises(InvalidInput, match=r"frames must lie in \[0, 3\)"):
            encode_geometry(np.ones((1, 3)), np.array([[3, 0]]),
                            np.zeros((2, 3, 7)), params)


class TestInPlaceSafety:
    """In-place steps write only into arrays the fusion made itself."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inputs_and_params_unchanged_and_repeats_identical(
            self, ragged_fusion_inputs, dtype):
        t = ragged_fusion_inputs
        params = init_fusion_params(T=t["T"], D=t["D"], n_heads=2, seed=6,
                                    dtype=dtype)
        F_geo = encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)
        args = (t["P_xyz"], t["P_ind"], t["B"], t["F_img"].astype(dtype),
                t["elem_valid"])

        def step():
            loss, grads = fusion_loss_and_grads(params, *args)
            return dict(grads, loss=np.float64(loss))

        calls = [lambda: {"F_geo": encode_geometry(*args[:3], params)},
                 lambda: {"F_elem": fuse_scene(args[3], F_geo, params,
                                               args[4])},
                 step]
        names = ("P_xyz", "P_ind", "B", "F_img", "elem_valid")
        arrays = {**dict(zip(names, args)), "F_geo": F_geo,
                  **params.tensors()}
        before = {k: v.copy() for k, v in arrays.items()}
        for call in calls:
            first, again = call(), call()
            for name in first:
                assert_bits_equal(again[name], first[name])
            for name, value in arrays.items():
                assert_bits_equal(value, before[name])


class TestPointPoolBackward:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_gather_reference_bit_for_bit(self, small_scene,
                                                 small_config, dtype):
        from scenetok import tokenize_bundle
        from scenetok.fusion.layers import mlp2_param_grads
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
        counts = cache[3]
        assert (counts == 0).any() and (counts > 1).any()

        g = np.random.default_rng(5).normal(
            size=(n_elem, params.T, params.D)).astype(dtype)
        got = _pooled_point_backward(g, cache, params, n_elem)

        # the pre-CSR backward: gather each point's cell gradient, scale by 1/count
        cells = cell_index(scene.P_ind, params.T)
        scale = np.zeros(counts.shape[0])
        scale[counts > 0] = 1.0 / counts[counts > 0]
        dphi = g.reshape(-1, params.D)[cells] * scale[cells, None]
        # hidden >= D: W2 read the per-point ReLU output, cached last
        assert params.hidden >= params.D
        want = mlp2_param_grads(dphi.astype(dtype), (cache[0], cache[4]),
                                params.mlp_f)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].dtype == want[name].dtype
            np.testing.assert_array_equal(got[name], want[name])


def point_branch_inputs():
    """Points in 10 elements x 4 frames, with empty and crowded cells."""
    rng = np.random.default_rng(17)
    n_elem, T = 10, 4
    cells = np.concatenate([rng.integers(0, 24, 150), rng.integers(30, 40, 8)])
    P_ind = np.stack([cells % T, cells // T], axis=1)
    return rng.normal(0.0, 5.0, size=(cells.size, 3)), P_ind, n_elem, T


# (D, hidden): W2 runs before the pool on the first two, after it on the rest
WIDTHS = [(8, 64), (8, 8), (16, 4), (32, 8)]


class TestPointBranchMatchesTwoPathReference:
    """The one-path point branch against the two paths it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("D,hidden", WIDTHS)
    def test_forward_bit_for_bit(self, dtype, D, hidden):
        P_xyz, P_ind, n_elem, T = point_branch_inputs()
        params = init_fusion_params(T=T, D=D, hidden=hidden, n_heads=2,
                                    seed=4, dtype=dtype)
        got, cache = network._pooled_point_forward(P_xyz, P_ind, params,
                                                   n_elem)
        want, _ = pooled_point_forward_reference(P_xyz, P_ind, params, n_elem)
        counts = cache[3]
        assert (counts == 0).any() and (counts > 1).any()
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("dtype,D,hidden", [
        (dtype, D, hidden) for dtype in (np.float32, np.float64)
        for D, hidden in WIDTHS if hidden >= D or dtype == np.float64])
    def test_backward(self, dtype, D, hidden):
        """Bit for bit where W2 runs before the pool; where it runs after,
        the pooled gradient is multiplied by ``1 / count`` in place of a
        division by ``count``, so float64 agrees to 1e-12."""
        P_xyz, P_ind, n_elem, T = point_branch_inputs()
        params = init_fusion_params(T=T, D=D, hidden=hidden, n_heads=2,
                                    seed=4, dtype=dtype)
        g = np.random.default_rng(6).normal(size=(n_elem, T, D)).astype(dtype)
        _, cache = network._pooled_point_forward(P_xyz, P_ind, params, n_elem)
        got = network._pooled_point_backward(g, cache, params, n_elem)
        _, ref_cache = pooled_point_forward_reference(P_xyz, P_ind, params,
                                                      n_elem)
        want = pooled_point_backward_reference(g, ref_cache, params, n_elem)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].dtype == want[name].dtype == dtype
            if hidden >= D:
                np.testing.assert_array_equal(got[name], want[name])
            else:
                np.testing.assert_allclose(got[name], want[name], rtol=1e-12,
                                           atol=0)


class TestPoolFirstPath:
    """``hidden < D``: the point branch pools before its second layer."""

    @staticmethod
    def wide_params(dtype=np.float64):
        return init_fusion_params(T=3, D=16, hidden=4, n_heads=2, seed=1,
                                  dtype=dtype)

    @staticmethod
    def wide_inputs(t):
        rng = np.random.default_rng(11)
        return dict(t, D=16, F_img=rng.normal(size=(t["n_elem"], t["T"], 16)))

    def test_per_cell_oracle(self, toy_fusion_inputs):
        t = toy_fusion_inputs
        params = self.wide_params()
        F_geo = encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)

        phi = mlp_ref(t["P_xyz"], params.mlp_f)
        expected = np.zeros((t["n_elem"], t["T"], 16))
        for e in range(t["n_elem"]):
            for fr in range(t["T"]):
                rows = np.flatnonzero((t["P_ind"][:, 1] == e)
                                      & (t["P_ind"][:, 0] == fr))
                if rows.size:
                    expected[e, fr] = phi[rows].mean(axis=0)
                expected[e, fr] += mlp_ref(t["B"][e, fr], params.mlp_c)
        assert np.abs(F_geo - expected).max() < 1e-9

    def test_grad_check(self, toy_fusion_inputs):
        t = self.wide_inputs(toy_fusion_inputs)
        err = grad_check(self.wide_params(), t["P_xyz"], t["P_ind"], t["B"],
                         t["F_img"], t["elem_valid"])
        assert err < 1e-6

    def test_backward_equals_per_cell_reference(self, toy_fusion_inputs,
                                                monkeypatch):
        t = toy_fusion_inputs
        params = self.wide_params()
        p = params.mlp_f
        n_elem, T = t["n_elem"], t["T"]
        _, cache = network._pooled_point_forward(t["P_xyz"], t["P_ind"],
                                                 params, n_elem)
        g = np.random.default_rng(8).normal(size=(n_elem, T, 16))
        seen = []

        def spy(dh, active):
            seen.append(dh.copy())  # relu_backward writes into dh
            return relu_backward(dh, active)

        monkeypatch.setattr(network, "relu_backward", spy)
        got = network._pooled_point_backward(g, cache, params, n_elem)

        h_pre = t["P_xyz"] @ p.w1.T + p.b1
        h = np.maximum(h_pre, 0.0)
        dw2 = np.zeros_like(p.w2)
        db2 = np.zeros_like(p.b2)
        dh = np.zeros_like(h)
        for e in range(n_elem):
            for fr in range(T):
                rows = np.flatnonzero((t["P_ind"][:, 1] == e)
                                      & (t["P_ind"][:, 0] == fr))
                if rows.size == 0:
                    continue
                dw2 += np.outer(g[e, fr], h[rows].mean(axis=0))
                db2 += g[e, fr]
                dh[rows] = g[e, fr] @ p.w2 / rows.size
        dh_pre = dh * (h_pre > 0)
        want = {"w1": dh_pre.T @ t["P_xyz"], "b1": dh_pre.sum(axis=0),
                "w2": dw2, "b2": db2}
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0], dh, rtol=1e-12, atol=1e-14)
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12,
                                       atol=1e-14)

    @pytest.mark.parametrize("D,hidden", [(16, 4), (8, 8), (8, 64)])
    def test_segment_sum_pools_the_narrower_side(self, toy_fusion_inputs,
                                                 monkeypatch, D, hidden):
        t = toy_fusion_inputs
        widths = []
        segment_sum = network.segment_sum

        def recording(values, *args, **kwargs):
            widths.append(values.shape[1])
            return segment_sum(values, *args, **kwargs)

        monkeypatch.setattr(network, "segment_sum", recording)
        params = init_fusion_params(T=t["T"], D=D, hidden=hidden, n_heads=2)
        encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)
        assert widths == [min(D, hidden)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_cells_are_exact_zeros(self, toy_fusion_inputs, dtype):
        t = toy_fusion_inputs
        params = self.wide_params(dtype)
        # empty cells: element 1 at frame 2, and two elements with no points
        keep = ~((t["P_ind"][:, 1] == 1) & (t["P_ind"][:, 0] == 2))
        P_ind = t["P_ind"][keep]
        n_elem = t["n_elem"] + 2
        pooled, _ = network._pooled_point_forward(t["P_xyz"][keep], P_ind,
                                                  params, n_elem)
        occupied = np.zeros((n_elem, t["T"]), dtype=bool)
        occupied[P_ind[:, 1], P_ind[:, 0]] = True
        assert pooled.dtype == dtype
        assert (~occupied).any() and occupied.any()
        assert (pooled[~occupied] == 0).all()
        assert (pooled[occupied] != 0).any(axis=-1).all()

    def test_float32_gradients_keep_dtype(self, toy_fusion_inputs):
        t = self.wide_inputs(toy_fusion_inputs)
        params = self.wide_params(np.float32)
        _, grads = fusion_loss_and_grads(params, t["P_xyz"], t["P_ind"],
                                         t["B"], t["F_img"], t["elem_valid"])
        assert grads.keys() == params.tensors().keys()
        assert all(g.dtype == np.float32 for g in grads.values())

    def test_float32_token_files_are_byte_identical(self, small_scene,
                                                    small_config, tmp_path):
        from scenetok import tokenize_bundle, write_tokens

        params = init_fusion_params(T=small_config.T, D=small_config.D,
                                    hidden=4, seed=2, dtype=np.float32)
        assert params.hidden < params.D
        paths = [tmp_path / "a.tok", tmp_path / "b.tok"]
        for path in paths:
            result = tokenize_bundle(small_scene.bundle, small_config,
                                     params=params)
            assert result.tokens.F_elem.dtype == np.float32
            write_tokens(path, result.tokens)
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestOutputsKeepParamsDtype:
    """Every layer output and every gradient has ``params.dtype``."""

    def test_encode_geometry(self, toy_fusion_inputs, dtype):
        t = toy_fusion_inputs
        params = toy_params().astype(dtype)
        F_geo = encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)
        assert F_geo.dtype == dtype

    @pytest.mark.parametrize("axis", ["time", "element"])
    def test_attn_along_axis(self, toy_fusion_inputs, dtype, axis):
        t = toy_fusion_inputs
        params = toy_params().astype(dtype)
        out, weights = attn_along_axis(t["F_img"].astype(dtype), axis,
                                       params.time_block, t["elem_valid"])
        assert out.dtype == dtype
        assert weights.dtype == dtype

    def test_fuse_scene_and_fusion_forward(self, toy_fusion_inputs, dtype):
        t = toy_fusion_inputs
        params = toy_params().astype(dtype)
        F_geo = encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)
        assert fuse_scene(t["F_img"], F_geo, params,
                          t["elem_valid"]).dtype == dtype
        F_elem, _, _ = fusion_forward(
            params, t["P_xyz"], t["P_ind"], t["B"], t["F_img"],
            t["elem_valid"])
        assert F_elem.dtype == dtype

    def test_every_gradient(self, toy_fusion_inputs, dtype):
        t = toy_fusion_inputs
        params = toy_params().astype(dtype)
        _, grads = fusion_loss_and_grads(params, t["P_xyz"], t["P_ind"],
                                         t["B"], t["F_img"], t["elem_valid"])
        assert grads.keys() == params.tensors().keys()
        assert {k: g.dtype for k, g in grads.items()} == \
            {k: np.dtype(dtype) for k in grads}


def traced_peak_mb(fn, *args):
    """MB that ``fn(*args)`` allocates at its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_fuse_backward_peak_memory():
    """The fusion backward at the budget shape (768 elements x 11 frames,
    D=256, float32) allocates at most 19 MB at its peak.  It measured
    17.2 MB writing its gradients over the forward's cache; fresh dctx, dQ,
    dK, dV and dYv arrays per block measured 49.8 MB, per-chunk row
    gathers and out-of-place steps 89.7 MB, and a dense (elements, frames,
    D) time-mean gradient 97.9 MB."""
    rng = np.random.default_rng(0)
    n_elem, T, D = 768, 11, 256
    elem_valid = rng.random((n_elem, T)) >= 0.2
    params = init_fusion_params(T=T, D=D, seed=0, dtype=np.float32)
    F = rng.normal(size=(n_elem, T, D)).astype(np.float32)
    F_elem, cache = network._fuse_fwd(F, F, params, elem_valid)
    dF_elem = 2.0 * F_elem
    assert traced_peak_mb(network._fuse_bwd, dF_elem, cache, params,
                          elem_valid) < 19


def test_fuse_scene_peak_memory():
    """Inference fusion at the budget shape (768 elements x 11 frames, all
    slots valid, D=256, float32) allocates at most 51 MB at its peak.  It
    measured 46.1 MB with one Q/K/V table, one reused logits buffer and the
    time-mean over each element's rows; a dense (elements, frames, D)
    time-mean table measured 58.9 MB, per-chunk copies of Q, K and V
    66.9 MB, and a forward that kept every block's cache and attended over
    all groups of a length at once 174.2 MB."""
    rng = np.random.default_rng(0)
    n_elem, T, D = 768, 11, 256
    elem_valid = np.ones((n_elem, T), dtype=bool)
    params = init_fusion_params(T=T, D=D, seed=0, dtype=np.float32)
    F = rng.normal(size=(n_elem, T, D)).astype(np.float32)
    assert traced_peak_mb(fuse_scene, F, F, params, elem_valid) < 51


def budget_step_inputs():
    """``fusion_loss_and_grads`` arguments at the budget shape (768
    elements x 11 frames, D=256, 65 536 points, float32, about 20 % of the
    slots invalid)."""
    rng = np.random.default_rng(21)
    n_elem, T, D, n_pts = 768, 11, 256, 65_536
    elem_valid = rng.random((n_elem, T)) >= 0.2
    elem_valid[:8] = False
    P_ind = np.stack([rng.integers(0, T, n_pts),
                      rng.integers(0, n_elem, n_pts)], axis=1)
    P_xyz = rng.normal(size=(n_pts, 3)).astype(np.float32)
    B = rng.normal(size=(n_elem, T, 7)).astype(np.float32)
    F_img = rng.normal(size=(n_elem, T, D)).astype(np.float32)
    params = init_fusion_params(T=T, D=D, seed=0, dtype=np.float32)
    return params, P_xyz, P_ind, B, F_img, elem_valid


def test_fusion_step_peak_memory():
    """One training step, ``fusion_loss_and_grads``, at the budget shape
    allocates at most 135 MB at its peak.  It measured 122.3 MB, reached in
    the fusion backward; with the geometry table alive through attention
    and the point branch's ReLU mask cached it measured 129.0 MB, reached
    in the forward; with Y, separate Q, K and V, the point branch's ReLU
    output, fresh backward arrays and the fusion cache alive through the
    geometry backward 184.1 MB, and with per-chunk row gathers,
    out-of-place LayerNorm and gradient sums and the discarded point and
    box input gradients 223.6 MB."""
    assert traced_peak_mb(fusion_loss_and_grads, *budget_step_inputs()) < 135


def test_fusion_forward_cache_memory():
    """The caches ``fusion_forward`` returns at the budget shape hold at
    most 115 MB, and the point branch's cache no per-point ``(N, hidden)``
    array.  They measured 104.2 MB: per attention block the LayerNorm's
    xhat, one (n, 3D) Q/K/V table, the attention weights and ctx.  With
    the point branch's boolean ReLU mask they measured 108.2 MB, and with
    the LayerNorm output, the ReLU output and separate Q, K and V
    133.3 MB."""
    args = budget_step_inputs()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = fusion_forward(*args)
        held_mb = (tracemalloc.get_traced_memory()[0] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert held[0].shape == (768, 256)
    assert held_mb < 115
    # hidden < D: W2 read the per-cell means, so x (N, 3) and each point's
    # cell are the only per-point arrays kept
    n_pts = args[1].shape[0]
    point_cache = held[1][0]
    assert [a.shape for a in point_cache if isinstance(a, np.ndarray)
            and a.shape[0] == n_pts] == [(n_pts, 3), (n_pts,)]


def budget_fusion_inputs():
    """Training tensors at the 768 x 11 x 256 budget shape, about 20 % of
    the slots invalid and 8 elements with none valid; few points."""
    rng = np.random.default_rng(21)
    n_elem, T, D, n_pts = 768, 11, 256, 4096
    elem_valid = rng.random((n_elem, T)) >= 0.2
    elem_valid[:8] = False
    P_ind = np.stack([rng.integers(0, T, n_pts),
                      rng.integers(0, n_elem, n_pts)], axis=1)
    return dict(n_elem=n_elem, T=T, D=D, P_xyz=rng.normal(size=(n_pts, 3)),
                P_ind=P_ind, B=rng.normal(size=(n_elem, T, 7)),
                F_img=rng.normal(size=(n_elem, T, D)), elem_valid=elem_valid)


class TestGroupChunks:
    """Attention runs over chunks of whole groups; a chunk's logits hold at
    most ``_GROUP_BUFFER`` values unless a single group holds more."""

    @staticmethod
    def run(t, dtype):
        """(fuse_scene output, training F_elem, loss, grads) on ``t``."""
        params = init_fusion_params(T=t["T"], D=t["D"], n_heads=2, seed=6,
                                    dtype=dtype)
        args = (t["P_xyz"], t["P_ind"], t["B"], t["F_img"], t["elem_valid"])
        F_geo = encode_geometry(t["P_xyz"], t["P_ind"], t["B"], params)
        fused = fuse_scene(t["F_img"], F_geo, params, t["elem_valid"])
        F_elem = fusion_forward(params, *args)[0]
        loss, grads = fusion_loss_and_grads(params, *args)
        return fused, F_elem, loss, grads

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("inputs", ["ragged", "budget"])
    def test_one_group_per_chunk_is_bit_identical(
            self, ragged_fusion_inputs, monkeypatch, dtype, inputs):
        t = ragged_fusion_inputs if inputs == "ragged" else budget_fusion_inputs()
        fused, F_elem, loss, grads = self.run(t, dtype)
        np.testing.assert_array_equal(fused, F_elem)
        monkeypatch.setattr(network, "_GROUP_BUFFER", 1)
        fused1, F_elem1, loss1, grads1 = self.run(t, dtype)
        assert fused1.dtype == dtype
        np.testing.assert_array_equal(fused1, fused)
        np.testing.assert_array_equal(F_elem1, F_elem)
        assert loss1 == loss
        assert grads1.keys() == grads.keys()
        for name in grads:
            np.testing.assert_array_equal(grads1[name], grads[name])

    def test_full_scene_element_axis_runs_six_chunks(self):
        # 11 frames of 332 elements, 2 heads: 2 groups of 2 x 332^2 logits fit
        _, runs = network._group_rows(np.ones((11, 332), dtype=bool), 2)
        assert [(g, L) for _, g, L in runs] == [(2, 332)] * 5 + [(1, 332)]

    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_chunks_cover_every_row_once_within_the_bound(self, heads):
        rng = np.random.default_rng(heads)
        sizes = np.concatenate([rng.integers(0, 12, 700),
                                [300, 300, 600, 0, 1000]])
        packed = np.arange(sizes.max()) < sizes[:, None]
        for valid in (packed, rng.permuted(packed, axis=1)):
            slots, runs = network._group_rows(valid, heads)
            rows = run_rows(runs)
            np.testing.assert_array_equal(np.sort(rows),
                                          np.arange(sizes.sum()))
            np.testing.assert_array_equal(np.sort(slots),
                                          np.flatnonzero(valid))
            for start, g, L in runs:
                assert g == 1 or g * heads * L * L <= network._GROUP_BUFFER
                # each group is L rows of one input group, in slot order
                group = slots[start:start + g * L].reshape(g, L)
                owner = group // valid.shape[1]
                assert (owner == owner[:, :1]).all()
                assert (sizes[owner[:, 0]] == L).all()
                assert (np.diff(group, axis=1) > 0).all()
            assert any(g > 1 for _, g, _ in runs)
            assert any(heads * L ** 2 > network._GROUP_BUFFER
                       for _, _, L in runs)


def run_rows(runs):
    """The row indices that ``(start, groups, L)`` runs cover, in run order."""
    return np.concatenate([np.arange(start, start + g * L)
                           for start, g, L in runs])
