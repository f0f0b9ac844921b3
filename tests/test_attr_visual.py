import math

import numpy as np
import pytest

from mczsl import attr_visual as av
from mczsl import autodiff as ad
from mczsl.attr_visual import AttrVisualParams
from mczsl.errors import ShapeError
from mczsl.gradcheck import finite_difference_check
from mczsl.numeric import make_rng
from mczsl.tensor_io import read_tensor


def rand_instance(k=2, r=3, d=4, da=3, seed=0):
    rng = make_rng(seed)
    V = rng.standard_normal((r, d))
    A = rng.standard_normal((k, da))
    params = AttrVisualParams(w1=rng.standard_normal((da, d)),
                              w2=rng.standard_normal((da, d)))
    return V, A, params


def run(V, A, params, Z=None):
    """Observed pass; identity prototypes by default, so logits = scores."""
    return av.forward(V, A, np.eye(A.shape[0]) if Z is None else Z, params)


def readout_oracle(A, w2, feats):
    """Entry k is a_k' w2 f_k for the attended features f (K x D), by scalar math."""
    return np.array([float(A[k] @ w2 @ feats[k]) for k in range(A.shape[0])])


class TestAttention:
    def test_single_region_all_ones(self):
        V, A, params = rand_instance(k=4, r=1)
        beta = run(V, A, params).attention.data
        assert beta.shape == (4, 1)
        assert np.array_equal(beta, np.ones((4, 1)))

    def test_zero_weight_uniform(self):
        V, A, params = rand_instance(k=3, r=5)
        params.w1 = np.zeros_like(params.w1)
        beta = run(V, A, params).attention.data
        assert np.allclose(beta, 1.0 / 5, atol=1e-12)

    def test_matches_direct_evaluation(self):
        # oracle: evaluate the bilinear-score softmax with scalar math
        V, A, params = rand_instance(k=2, r=2, d=3, da=2, seed=7)
        beta = run(V, A, params).attention.data
        for k in range(2):
            scores = [float(A[k] @ params.w1 @ V[r]) for r in range(2)]
            z = sum(math.exp(s) for s in scores)
            for r in range(2):
                assert abs(beta[k, r] - math.exp(scores[r]) / z) < 1e-12

    def test_rows_sum_to_one_random(self):
        for seed in range(50):
            V, A, params = rand_instance(k=4, r=6, seed=seed)
            beta = run(V, A, params).attention.data
            assert np.max(np.abs(beta.sum(axis=1) - 1.0)) < 1e-6

    def test_shape_mismatch(self):
        V, A, params = rand_instance()
        with pytest.raises(ShapeError):
            run(V[:, :2], A, params)


class TestFeatures:
    """The attended features, pinned through the scores of an intervened pass."""

    def test_uniform_two_regions_midpoint(self):
        V = np.array([[0.0, 2.0], [4.0, 6.0]])
        _, A, params = rand_instance(k=3, d=2)
        scores = av.intervened(run(V, A, params), np.full((3, 2), 0.5)).attr_scores.data
        assert np.allclose(scores, readout_oracle(A, params.w2, np.tile([2.0, 4.0], (3, 1))),
                           atol=1e-12)

    def test_one_hot_selects_region(self):
        V, A, params = rand_instance(k=3, r=4)
        beta = np.zeros((3, 4))
        beta[:, 2] = 1.0
        scores = av.intervened(run(V, A, params), beta).attr_scores.data
        assert np.array_equal(scores, ((A @ params.w2) @ V.T)[:, 2])

    def test_matches_weighted_sum_oracle(self):
        V, A, params = rand_instance(k=3, r=4, d=5, seed=3)
        rng = make_rng(3)
        beta = rng.random((3, 4))
        beta /= beta.sum(axis=1, keepdims=True)
        scores = av.intervened(run(V, A, params), beta).attr_scores.data
        expected = np.zeros((3, 5))
        for k in range(3):
            for r in range(4):
                expected[k] += beta[k, r] * V[r]
        assert np.max(np.abs(scores - readout_oracle(A, params.w2, expected))) < 1e-12

    def test_convex_hull_property(self):
        # f_k is a convex mix of regions, so a_k' w2 f_k lies between the
        # smallest and largest a_k' w2 v_r
        for seed in range(20):
            V, A, params = rand_instance(k=5, r=4, seed=seed)
            scores = run(V, A, params).attr_scores.data
            per_region = A @ params.w2 @ V.T
            assert np.all(scores >= per_region.min(axis=1) - 1e-9)
            assert np.all(scores <= per_region.max(axis=1) + 1e-9)


class TestEmbed:
    def test_zero_weight(self):
        V, A, params = rand_instance()
        params.w2 = np.zeros_like(params.w2)
        assert np.array_equal(run(V, A, params).attr_scores.data, np.zeros(2))

    def test_single_attribute_direct_evaluation(self):
        # one region: the attention is 1 and the attended feature is that region
        rng = make_rng(5)
        A = rng.standard_normal((1, 3))
        V = rng.standard_normal((1, 4))
        params = AttrVisualParams(w1=np.zeros((3, 4)), w2=rng.standard_normal((3, 4)))
        psi = run(V, A, params).attr_scores.data
        expected = float(A[0] @ params.w2 @ V[0])
        assert abs(psi[0] - expected) < 1e-12

    def test_bilinear_in_attribute_vector(self):
        V, A, params = rand_instance(seed=2)
        beta = np.asarray(make_rng(9).random((2, 3)))
        beta /= beta.sum(axis=1, keepdims=True)
        base = av.intervened(run(V, A, params), beta).attr_scores.data
        scaled_A = A.copy()
        scaled_A[1] *= 2.0
        scaled = av.intervened(run(V, scaled_A, params), beta).attr_scores.data
        assert abs(scaled[1] - 2.0 * base[1]) < 1e-12
        assert abs(scaled[0] - base[0]) < 1e-12


class TestPredict:
    def test_one_hot_prototypes_select_scores(self):
        fwd = run(*rand_instance(k=3, seed=4), Z=np.eye(3))
        assert np.array_equal(fwd.logits.data, fwd.attr_scores.data)

    def test_zero_scores_zero_logits(self):
        V, A, params = rand_instance(k=3)
        params.w2 = np.zeros_like(params.w2)
        Z = make_rng(0).random((4, 3))
        assert np.array_equal(run(V, A, params, Z).logits.data, np.zeros(4))

    def test_matches_dot_product_oracle(self):
        V, A, params = rand_instance(k=4, seed=8)
        Z = make_rng(8).standard_normal((3, 4))
        fwd = run(V, A, params, Z)
        psi = fwd.attr_scores.data
        for c in range(3):
            assert abs(fwd.logits.data[c] - float(np.dot(psi, Z[c]))) < 1e-12


class TestIntervened:
    def test_null_intervention_bit_exact(self):
        V, A, params = rand_instance(k=4, r=5, seed=11)
        Z = make_rng(12).random((3, 4))
        fwd = av.forward(V, A, Z, params)
        logits_bar = av.intervened(fwd, fwd.attention.data).logits
        assert np.array_equal(logits_bar.data, fwd.logits.data)
        assert np.array_equal(av.causal_effect(fwd.logits, logits_bar), np.zeros(3))

    def test_uniform_intervention_gives_region_mean(self):
        V, A, params = rand_instance(k=3, r=4, seed=1)
        scores = av.intervened(run(V, A, params), np.full((3, 4), 0.25)).attr_scores.data
        expected = readout_oracle(A, params.w2, np.tile(V.mean(axis=0), (3, 1)))
        assert np.allclose(scores, expected, atol=1e-12)

    def test_matches_compositional_oracle(self):
        V, A, params = rand_instance(k=4, r=3, seed=21)
        Z = make_rng(22).random((5, 4))
        rng = make_rng(23)
        beta_bar = rng.random((4, 3))
        beta_bar /= beta_bar.sum(axis=1, keepdims=True)
        bar = av.intervened(av.forward(V, A, Z, params), beta_bar)
        # oracle: the readout table, its attention-weighted row sums and the
        # prototype product in numpy
        psi_expected = np.sum(beta_bar * ((A @ params.w2) @ V.T), axis=1)
        assert np.array_equal(bar.attention.data, beta_bar)
        assert np.array_equal(bar.attr_scores.data, psi_expected)
        assert np.array_equal(bar.logits.data, Z @ psi_expected)

    def test_reuses_observed_products(self, monkeypatch):
        # only Z.psi runs again; the readout table comes from the observed pass
        V, A, params = rand_instance(k=4, r=3, seed=24)
        fwd = run(V, A, params)
        calls = []
        matmul = ad.matmul
        monkeypatch.setattr(ad, "matmul", lambda a, b: calls.append(1) or matmul(a, b))
        av.intervened(fwd, np.full((4, 3), 1.0 / 3))
        assert len(calls) == 1

    def test_unnormalized_rows_rejected(self):
        V, A, params = rand_instance()
        bad = np.full((2, 3), 0.5)  # rows sum to 1.5
        with pytest.raises(ValueError, match="sum to 1"):
            av.intervened(run(V, A, params), bad)

    def test_wrong_shape_rejected(self):
        V, A, params = rand_instance()
        with pytest.raises(ShapeError, match="differs from the observed"):
            av.intervened(run(V, A, params), np.full((3, 2), 0.5))

    def test_no_gradient_into_intervention(self):
        V, A, params = rand_instance(seed=31)
        Z = make_rng(32).random((3, 2))
        w1 = ad.Tensor(params.w1, requires_grad=True)
        w2 = ad.Tensor(params.w2, requires_grad=True)
        live = AttrVisualParams(w1=w1, w2=w2)
        beta_bar = ad.Tensor(np.full((2, 3), 1.0 / 3))
        logits_bar = av.intervened(av.forward(V, A, Z, live), beta_bar).logits
        ad.tsum(ad.mul(logits_bar, logits_bar)).backward()
        assert beta_bar.grad is None
        assert w2.grad is not None
        # the intervened pass never touches w1
        assert w1.grad is None

    def test_w1_gradient_independent_of_intervention_draw(self):
        # perturbing the stream that produced beta_bar must not change dW1
        V, A, params = rand_instance(seed=41)
        Z = make_rng(42).random((3, 2))
        grads = []
        for interv_seed in (1, 2):
            w1 = ad.Tensor(params.w1.copy(), requires_grad=True)
            w2 = ad.Tensor(params.w2.copy(), requires_grad=True)
            live = AttrVisualParams(w1=w1, w2=w2)
            fwd = av.forward(V, A, Z, live)
            rng = make_rng(interv_seed)
            beta_bar = rng.random((2, 3))
            beta_bar /= beta_bar.sum(axis=1, keepdims=True)
            logits_bar = av.intervened(fwd, beta_bar).logits
            loss = ad.add(ad.tsum(ad.mul(fwd.logits, fwd.logits)),
                          ad.tsum(ad.mul(logits_bar, logits_bar)))
            loss.backward()
            grads.append(w1.grad.copy())
        assert np.array_equal(grads[0], grads[1])


class TestCausalEffect:
    def test_identical_inputs_zero(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(av.causal_effect(x, x), np.zeros(2))

    def test_hand_arithmetic(self):
        assert np.array_equal(av.causal_effect([2.0, 0.0], [1.0, 1.0]), [1.0, -1.0])

    def test_antisymmetry(self):
        rng = make_rng(6)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        assert np.array_equal(av.causal_effect(a, b), -av.causal_effect(b, a))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            av.causal_effect(np.zeros(2), np.zeros(3))


def test_gradients_pass_finite_difference_check():
    # scalar function of the logits, differentiated w.r.t. w1 and w2
    V, A, params = rand_instance(k=2, r=3, d=4, da=3, seed=51)
    Z = make_rng(52).random((3, 2))
    base = {"w1": params.w1.copy(), "w2": params.w2.copy()}

    def loss_fn(p):
        w1 = ad.Tensor(p["w1"], requires_grad=True)
        w2 = ad.Tensor(p["w2"], requires_grad=True)
        fwd = av.forward(V, A, Z, AttrVisualParams(w1=w1, w2=w2))
        loss = ad.tsum(ad.mul(fwd.logits, fwd.logits))
        loss.backward()
        return loss.item(), {"w1": w1.grad, "w2": w2.grad}

    report = finite_difference_check(loss_fn, base, epsilon=1e-5, tolerance=1e-4)
    assert report.passed, report


def test_export_attention_round_trip(tmp_path):
    V, A, params = rand_instance(k=4, r=5, seed=61)
    beta = run(V, A, params).attention.data
    av.export_attention(beta, [f"attr_{i}" for i in range(4)], tmp_path / "beta")
    back = read_tensor(tmp_path / "beta.msdt")
    assert back.shape == (4, 5)
    assert np.max(np.abs(back.sum(axis=1) - 1.0)) < 1e-6
    assert np.array_equal(back, beta.astype(np.float32).astype(np.float64))
    lines = (tmp_path / "beta.attributes.txt").read_text().splitlines()
    assert lines[0] == "0\tattr_0"
    assert len(lines) == 4
