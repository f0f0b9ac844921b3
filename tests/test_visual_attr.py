import math

import numpy as np
import pytest

from mczsl import autodiff as ad
from mczsl import visual_attr as va
from mczsl.attr_visual import causal_effect
from mczsl.errors import ShapeError
from mczsl.gradcheck import finite_difference_check
from mczsl.numeric import make_rng, softmax
from mczsl.visual_attr import VisualAttrParams


def rand_instance(r=3, k=3, d=4, da=3, seed=0):
    rng = make_rng(seed)
    V = rng.standard_normal((r, d))
    A = rng.standard_normal((k, da))
    params = VisualAttrParams(w3=rng.standard_normal((d, da)),
                              w4=rng.standard_normal((d, da)),
                              w_att=rng.standard_normal((d, da)))
    return V, A, params


def run(V, A, params, Z=None):
    """Observed pass; identity prototypes by default, so logits = scores."""
    return va.forward(V, A, np.eye(A.shape[0]) if Z is None else Z, params)


def region_scores(attr_scores, V, A, params):
    """Read the R region scores back out of the K lifted attribute scores
    (R == K <= D, Da, so the lift table V w_att A' is square and invertible)."""
    return np.linalg.solve((V @ params.w_att @ A.T).T, attr_scores)


def readout_oracle(V, w4, mixes):
    """Entry r is v_r' w4 s_r for the attended mixes s (R x Da), by scalar math."""
    return np.array([float(V[r] @ w4 @ mixes[r]) for r in range(V.shape[0])])


class TestAttention:
    def test_two_attributes_zero_weight_half_half(self):
        V, A, params = rand_instance(r=4, k=2)
        params.w3 = np.zeros_like(params.w3)
        gamma = run(V, A, params).attention.data
        assert np.allclose(gamma, 0.5, atol=1e-12)

    def test_matches_direct_evaluation(self):
        V, A, params = rand_instance(r=2, k=3, seed=7)
        gamma = run(V, A, params).attention.data
        for r in range(2):
            scores = [float(V[r] @ params.w3 @ A[k]) for k in range(3)]
            z = sum(math.exp(s) for s in scores)
            for k in range(3):
                assert abs(gamma[r, k] - math.exp(scores[k]) / z) < 1e-12

    def test_row_shift_invariance(self):
        # adding a constant to one row's scores leaves that row's weights unchanged
        V, A, params = rand_instance(r=3, k=4, seed=9)
        scores = V @ params.w3 @ A.T
        gamma = run(V, A, params).attention.data
        shifted = scores.copy()
        shifted[1] += 123.0
        assert np.max(np.abs(softmax(shifted, axis=1) - gamma)) < 1e-9

    def test_rows_sum_to_one(self):
        for seed in range(50):
            V, A, params = rand_instance(r=5, k=6, seed=seed)
            gamma = run(V, A, params).attention.data
            assert np.max(np.abs(gamma.sum(axis=1) - 1.0)) < 1e-6


class TestFeatures:
    """The attended mixes, pinned through the region scores of an intervened
    pass, read back through the lift."""

    def test_one_hot_selects_attribute(self):
        V, A, params = rand_instance(r=3, k=3)
        gamma = np.zeros((3, 3))
        gamma[:, 1] = 1.0
        scores = va.intervened(run(V, A, params), gamma).attr_scores.data
        got = region_scores(scores, V, A, params)
        assert np.allclose(got, readout_oracle(V, params.w4, np.tile(A[1], (3, 1))), atol=1e-9)

    def test_uniform_gives_mean_attribute(self):
        V, A, params = rand_instance(r=5, k=5, d=5, da=5)
        scores = va.intervened(run(V, A, params), np.full((5, 5), 0.2)).attr_scores.data
        got = region_scores(scores, V, A, params)
        expected = readout_oracle(V, params.w4, np.tile(A.mean(axis=0), (5, 1)))
        assert np.allclose(got, expected, atol=1e-9)

    def test_matches_weighted_sum_oracle(self):
        V, A, params = rand_instance(r=4, k=4, da=5, seed=4)
        rng = make_rng(4)
        gamma = rng.random((4, 4))
        gamma /= gamma.sum(axis=1, keepdims=True)
        scores = va.intervened(run(V, A, params), gamma).attr_scores.data
        expected = np.zeros((4, 5))
        for r in range(4):
            for k in range(4):
                expected[r] += gamma[r, k] * A[k]
        got = region_scores(scores, V, A, params)
        assert np.allclose(got, readout_oracle(V, params.w4, expected), atol=1e-9)

    def test_convex_hull_property(self):
        # s_r is a convex mix of attributes, so v_r' w4 s_r lies between the
        # smallest and largest v_r' w4 a_k
        for seed in range(20):
            V, A, params = rand_instance(r=4, k=4, da=4, seed=seed)
            got = region_scores(run(V, A, params).attr_scores.data, V, A, params)
            per_attribute = V @ params.w4 @ A.T
            assert np.all(got >= per_attribute.min(axis=1) - 1e-9)
            assert np.all(got <= per_attribute.max(axis=1) + 1e-9)


class TestEmbed:
    def test_zero_weight(self):
        V, A, params = rand_instance()
        params.w4 = np.zeros_like(params.w4)
        assert np.array_equal(run(V, A, params).attr_scores.data, np.zeros(3))

    def test_single_region_direct_evaluation(self):
        # one region and a one-hot attention: the mix is attribute 1, and the
        # lift scales the region score by row 0 of the table
        rng = make_rng(5)
        V = rng.standard_normal((1, 4))
        A = rng.standard_normal((3, 3))
        params = VisualAttrParams(w3=np.zeros((4, 3)), w4=rng.standard_normal((4, 3)),
                                  w_att=rng.standard_normal((4, 3)))
        got = va.intervened(run(V, A, params), np.array([[0.0, 1.0, 0.0]])).attr_scores.data
        expected = float(V[0] @ params.w4 @ A[1]) * (V[0] @ params.w_att @ A.T)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_linear_in_region_feature(self):
        V, A, params = rand_instance(seed=2)
        gamma = make_rng(9).random((3, 3))
        gamma /= gamma.sum(axis=1, keepdims=True)
        base = region_scores(va.intervened(run(V, A, params), gamma).attr_scores.data,
                             V, A, params)
        V2 = V.copy()
        V2[1] *= 2.0
        doubled = region_scores(va.intervened(run(V2, A, params), gamma).attr_scores.data,
                                V2, A, params)
        assert abs(doubled[1] - 2.0 * base[1]) < 1e-9
        assert abs(doubled[0] - base[0]) < 1e-9


class TestProject:
    def test_zero_region_scores(self):
        V, A, params = rand_instance()
        params.w4 = np.zeros_like(params.w4)
        assert np.array_equal(run(V, A, params).attr_scores.data, np.zeros(3))

    def test_zero_lifting_weight(self):
        V, A, params = rand_instance()
        params.w_att = np.zeros_like(params.w_att)
        assert np.array_equal(run(V, A, params).attr_scores.data, np.zeros(3))

    def test_matches_two_step_matmul_oracle(self):
        V, A, params = rand_instance(r=2, k=3, seed=13)
        fwd = run(V, A, params)
        psi_hat = np.sum((V @ params.w4) * (fwd.attention.data @ A), axis=1)
        table = V @ params.w_att @ A.T  # R x K
        expected = psi_hat @ table
        assert np.max(np.abs(fwd.attr_scores.data - expected)) < 1e-12


class TestPredict:
    def test_one_hot_prototypes(self):
        fwd = run(*rand_instance(seed=3), Z=np.eye(3))
        assert np.array_equal(fwd.logits.data, fwd.attr_scores.data)

    def test_zero_scores(self):
        V, A, params = rand_instance()
        params.w_att = np.zeros_like(params.w_att)
        Z = make_rng(0).random((4, 3))
        assert np.array_equal(run(V, A, params, Z).logits.data, np.zeros(4))

    def test_dot_product_oracle(self):
        V, A, params = rand_instance(k=5, seed=8)
        Z = make_rng(8).standard_normal((3, 5))
        fwd = run(V, A, params, Z)
        scores = fwd.attr_scores.data
        for c in range(3):
            assert abs(fwd.logits.data[c] - float(np.dot(scores, Z[c]))) < 1e-12


class TestIntervened:
    def test_null_intervention_bit_exact(self):
        V, A, params = rand_instance(r=4, k=5, seed=11)
        Z = make_rng(12).random((3, 5))
        fwd = va.forward(V, A, Z, params)
        logits_bar = va.intervened(fwd, fwd.attention.data).logits
        assert np.array_equal(logits_bar.data, fwd.logits.data)
        assert np.array_equal(causal_effect(fwd.logits, logits_bar), np.zeros(3))

    def test_uniform_intervention_mean_attribute_rows(self):
        V, A, params = rand_instance(r=4, k=4, da=4, seed=15)
        scores = va.intervened(run(V, A, params), np.full((4, 4), 0.25)).attr_scores.data
        expected = readout_oracle(V, params.w4, np.tile(A.mean(axis=0), (4, 1)))
        assert np.allclose(region_scores(scores, V, A, params), expected, atol=1e-9)

    def test_matches_compositional_oracle(self):
        V, A, params = rand_instance(r=3, k=4, seed=21)
        Z = make_rng(22).random((5, 4))
        rng = make_rng(23)
        gamma_bar = rng.random((3, 4))
        gamma_bar /= gamma_bar.sum(axis=1, keepdims=True)
        bar = va.intervened(va.forward(V, A, Z, params), gamma_bar)
        # oracle: the readout table, its attention-weighted row sums, the
        # region-weighted rows of the lift table and the prototype product in numpy
        region = np.sum(gamma_bar * ((V @ params.w4) @ A.T), axis=1)
        expected_scores = np.sum(region[:, None] * (V @ params.w_att @ A.T), axis=0)
        assert np.array_equal(bar.attr_scores.data, expected_scores)
        assert np.array_equal(bar.logits.data, Z @ expected_scores)

    def test_reuses_observed_products(self, monkeypatch):
        # only Z.psi runs again; the readout and lift tables come from the
        # observed pass
        V, A, params = rand_instance(r=3, k=4, seed=24)
        fwd = run(V, A, params)
        calls = []
        matmul = ad.matmul
        monkeypatch.setattr(ad, "matmul", lambda a, b: calls.append(1) or matmul(a, b))
        va.intervened(fwd, np.full((3, 4), 0.25))
        assert len(calls) == 1

    def test_unnormalized_rejected(self):
        V, A, params = rand_instance()
        with pytest.raises(ValueError, match="sum to 1"):
            va.intervened(run(V, A, params), np.full((3, 3), 0.9))

    def test_detachment_and_w3_independence(self):
        V, A, params = rand_instance(seed=41)
        Z = make_rng(42).random((4, 3))
        grads_w3 = []
        grads_w4 = []
        for interv_seed in (1, 2):
            leaves = {n: ad.Tensor(getattr(params, n).copy(), requires_grad=True)
                      for n in ("w3", "w4", "w_att")}
            live = VisualAttrParams(**leaves)
            fwd = va.forward(V, A, Z, live)
            rng = make_rng(interv_seed)
            gamma_bar = rng.random((3, 3))
            gamma_bar /= gamma_bar.sum(axis=1, keepdims=True)
            bar = ad.Tensor(gamma_bar)
            logits_bar = va.intervened(fwd, bar).logits
            loss = ad.add(ad.tsum(ad.mul(fwd.logits, fwd.logits)),
                          ad.tsum(ad.mul(logits_bar, logits_bar)))
            loss.backward()
            assert bar.grad is None
            grads_w3.append(leaves["w3"].grad.copy())
            grads_w4.append(leaves["w4"].grad.copy())
        # gamma_bar never touches w3; it does flow through w4 and w_att
        assert np.array_equal(grads_w3[0], grads_w3[1])
        assert not np.array_equal(grads_w4[0], grads_w4[1])


class TestCausalEffect:
    def test_hand_arithmetic(self):
        assert np.array_equal(causal_effect([3.0, 1.0], [1.0, 3.0]), [2.0, -2.0])

    def test_identical_zero(self):
        x = make_rng(1).standard_normal(4)
        assert np.array_equal(causal_effect(x, x), np.zeros(4))

    def test_antisymmetry(self):
        rng = make_rng(2)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        assert np.array_equal(causal_effect(a, b), -causal_effect(b, a))

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            causal_effect(np.zeros(2), np.zeros(4))


def test_gradients_pass_finite_difference_check():
    V, A, params = rand_instance(r=3, k=3, d=4, da=3, seed=51)
    Z = make_rng(52).random((3, 3))
    base = {"w3": params.w3.copy(), "w4": params.w4.copy(), "w_att": params.w_att.copy()}

    def loss_fn(p):
        leaves = {n: ad.Tensor(p[n], requires_grad=True) for n in p}
        fwd = va.forward(V, A, Z, VisualAttrParams(**leaves))
        loss = ad.tsum(ad.mul(fwd.logits, fwd.logits))
        loss.backward()
        return loss.item(), {n: leaves[n].grad for n in p}

    report = finite_difference_check(loss_fn, base, epsilon=1e-5, tolerance=1e-4)
    assert report.passed, report
