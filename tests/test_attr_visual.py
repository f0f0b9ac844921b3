"""The bilinear cross-attention of attr_visual in its two readings, each built
from a weight dict by `conftest.subnet_pass` as training reads it: attributes
attending over regions (ATTR_SIDE, weights w1 and w2) and regions attending
over attributes (REGION_SIDE, weights w3 and w4, plus the lift table w_att).
The intervened pass runs through `attr_visual.intervened`, or its region-side
name `visual_attr.intervened`. A case that holds for both readings is written
once, in a `...Cases` class, and runs once per reading: `TestX` runs it on the
attribute reading and `TestXVisualAttr` on the region reading, each with its
own shapes, seeds and tolerances (`Reading.pick`). The cases that only one
reading has (one region, the shape check, export, the lift) sit in that
reading's class."""
import math

import numpy as np
import pytest

from conftest import subnet_pass
from mczsl import attr_visual as av
from mczsl import autodiff as ad
from mczsl import visual_attr as va
from mczsl.attr_visual import ATTR_SIDE, REGION_SIDE, causal_effect
from mczsl.errors import ShapeError
from mczsl.gradcheck import finite_difference_check
from mczsl.numeric import make_rng, softmax
from mczsl.tensor_io import read_tensor


class Reading:
    """Which of V (R x D) and A (K x Da) queries the other, and the weights
    that score (w_s) and read out (w_e) the attention, and lift (w_att)."""

    def __init__(self, module, names):
        self.module, self.names = module, names
        self.score, self.embed = names[:2]
        self.by_regions = names == REGION_SIDE

    def instance(self, k, r, d=4, da=3, seed=0):
        """V, A and then a dict of each weight, drawn from one seeded stream."""
        rng = make_rng(seed)
        V = rng.standard_normal((r, d))
        A = rng.standard_normal((k, da))
        shape = (d, da) if self.by_regions else (da, d)
        return V, A, {n: rng.standard_normal(shape) for n in self.names}

    def pick(self, attr_value, region_value):
        """This reading's value of a case parameter."""
        return region_value if self.by_regions else attr_value

    def sides(self, V, A):
        """(queries, keys); applied to (queries, keys) it gives back (V, A)."""
        return (V, A) if self.by_regions else (A, V)

    def run(self, V, A, params, Z=None):
        """Observed pass; identity prototypes by default, so logits = scores."""
        return subnet_pass(V, A, np.eye(A.shape[0]) if Z is None else Z, params, self.names)

    def readout(self, fwd, V, A, params):
        """Per query i, q_i' w_e (attention K)_i: the attribute scores, or the
        region scores read back through the lift."""
        scores = fwd.attr_scores.data
        return region_scores(scores, V, A, params) if self.by_regions else scores

    def readout_under(self, attention, V, A, params):
        """The readout of the pass with its attention forced to `attention`."""
        return self.readout(self.module.intervened(self.run(V, A, params), attention),
                            V, A, params)


AV = Reading(av, ATTR_SIDE)
VA = Reading(va, REGION_SIDE)


def zeroed(params, name):
    return {**params, name: np.zeros_like(params[name])}


def region_scores(attr_scores, V, A, params):
    """Read the R region scores back out of the K lifted attribute scores
    (R == K <= D, Da, so the lift table V w_att A' is square and invertible)."""
    return np.linalg.solve((V @ params["w_att"] @ A.T).T, attr_scores)


def readout_oracle(Q, w_e, mixes):
    """Entry i is q_i' w_e m_i for the attended mixes m (one row per query), by
    scalar math."""
    return np.array([float(Q[i] @ w_e @ mixes[i]) for i in range(Q.shape[0])])


class AttentionCases:
    def test_zero_weight_uniform(self):
        reading = self.reading
        V, A, params = reading.instance(**reading.pick(dict(k=3, r=5), dict(k=2, r=4)))
        attention = reading.run(V, A, zeroed(params, reading.score)).attention.data
        assert np.allclose(attention, 1.0 / len(reading.sides(V, A)[1]), atol=1e-12)

    def test_matches_direct_evaluation(self):
        # oracle: evaluate the bilinear-score softmax with scalar math
        reading = self.reading
        V, A, params = reading.instance(**reading.pick(dict(k=2, r=2, d=3, da=2, seed=7),
                                                       dict(k=3, r=2, seed=7)))
        Q, K = reading.sides(V, A)
        w_s = params[reading.score]
        attention = reading.run(V, A, params).attention.data
        for i in range(len(Q)):
            scores = [float(Q[i] @ w_s @ K[j]) for j in range(len(K))]
            z = sum(math.exp(s) for s in scores)
            for j in range(len(K)):
                assert abs(attention[i, j] - math.exp(scores[j]) / z) < 1e-12

    def test_rows_sum_to_one_random(self):
        reading = self.reading
        dims = reading.pick(dict(k=4, r=6), dict(k=6, r=5))
        for seed in range(50):
            V, A, params = reading.instance(**dims, seed=seed)
            attention = reading.run(V, A, params).attention.data
            assert np.max(np.abs(attention.sum(axis=1) - 1.0)) < 1e-6


class TestAttention(AttentionCases):
    reading = AV

    def test_single_region_all_ones(self):
        V, A, params = AV.instance(k=4, r=1)
        beta = AV.run(V, A, params).attention.data
        assert beta.shape == (4, 1)
        assert np.array_equal(beta, np.ones((4, 1)))

    def test_shape_mismatch(self):
        V, A, params = AV.instance(k=2, r=3)
        with pytest.raises(ShapeError):
            AV.run(V[:, :2], A, params)


class TestAttentionVisualAttr(AttentionCases):
    reading = VA

    def test_row_shift_invariance(self):
        # adding a constant to one row's scores leaves that row's weights unchanged
        V, A, params = VA.instance(k=4, r=3, seed=9)
        scores = V @ params["w3"] @ A.T
        gamma = VA.run(V, A, params).attention.data
        shifted = scores.copy()
        shifted[1] += 123.0
        assert np.max(np.abs(softmax(shifted, axis=1) - gamma)) < 1e-9


class FeaturesCases:
    """The attended mixes of keys, pinned through the readout of an intervened
    pass (read back through the lift in the region reading)."""

    def test_one_hot_selects_key(self):
        reading = self.reading
        V, A, params = reading.instance(**reading.pick(dict(k=3, r=4), dict(k=3, r=3)))
        key = reading.pick(2, 1)
        Q, K = reading.sides(V, A)
        w_e = params[reading.embed]
        attention = np.zeros((len(Q), len(K)))
        attention[:, key] = 1.0
        got = reading.readout_under(attention, V, A, params)
        table_column = ((Q @ w_e) @ K.T)[:, key]
        if reading.by_regions:
            assert np.allclose(got, table_column, atol=1e-9)
        else:
            assert np.array_equal(got, table_column)
        assert np.allclose(got, readout_oracle(Q, w_e, np.tile(K[key], (len(Q), 1))), atol=1e-9)

    def test_matches_weighted_sum_oracle(self):
        reading = self.reading
        dims = reading.pick(dict(k=3, r=4, d=5, seed=3), dict(k=4, r=4, da=5, seed=4))
        V, A, params = reading.instance(**dims)
        Q, K = reading.sides(V, A)
        rng = make_rng(dims["seed"])
        attention = rng.random((len(Q), len(K)))
        attention /= attention.sum(axis=1, keepdims=True)
        got = reading.readout_under(attention, V, A, params)
        expected = np.zeros((len(Q), K.shape[1]))
        for i in range(len(Q)):
            for j in range(len(K)):
                expected[i] += attention[i, j] * K[j]
        assert np.max(np.abs(got - readout_oracle(Q, params[reading.embed],
                                                  expected))) < reading.pick(1e-12, 1e-9)

    def test_convex_hull_property(self):
        # m_i is a convex mix of keys, so q_i' w_e m_i lies between the
        # smallest and largest q_i' w_e k_j
        reading = self.reading
        dims = reading.pick(dict(k=5, r=4), dict(k=4, r=4, da=4))
        for seed in range(20):
            V, A, params = reading.instance(**dims, seed=seed)
            Q, K = reading.sides(V, A)
            got = reading.readout(reading.run(V, A, params), V, A, params)
            per_key = Q @ params[reading.embed] @ K.T
            assert np.all(got >= per_key.min(axis=1) - 1e-9)
            assert np.all(got <= per_key.max(axis=1) + 1e-9)


class TestFeatures(FeaturesCases):
    reading = AV

    def test_uniform_two_regions_midpoint(self):
        V = np.array([[0.0, 2.0], [4.0, 6.0]])
        _, A, params = AV.instance(k=3, r=3, d=2)
        scores = av.intervened(AV.run(V, A, params), np.full((3, 2), 0.5)).attr_scores.data
        assert np.allclose(scores, readout_oracle(A, params["w2"], np.tile([2.0, 4.0], (3, 1))),
                           atol=1e-12)


class TestFeaturesVisualAttr(FeaturesCases):
    reading = VA

    def test_uniform_gives_mean_attribute(self):
        assert_uniform_gives_key_mean(VA, dict(k=5, r=5, d=5, da=5), 1e-9)


class EmbedCases:
    def test_zero_weight(self):
        reading = self.reading
        dims = reading.pick(dict(k=2, r=3), dict(k=3, r=3))
        V, A, params = reading.instance(**dims)
        scores = reading.run(V, A, zeroed(params, reading.embed)).attr_scores.data
        assert np.array_equal(scores, np.zeros(dims["k"]))

    def test_linear_in_query_row(self):
        reading = self.reading
        V, A, params = reading.instance(**reading.pick(dict(k=2, r=3, seed=2),
                                                       dict(k=3, r=3, seed=2)))
        tol = reading.pick(1e-12, 1e-9)
        Q, K = reading.sides(V, A)
        attention = np.asarray(make_rng(9).random((len(Q), len(K))))
        attention /= attention.sum(axis=1, keepdims=True)
        base = reading.readout_under(attention, V, A, params)
        doubled_Q = Q.copy()
        doubled_Q[1] *= 2.0
        doubled = reading.readout_under(attention, *reading.sides(doubled_Q, K), params)
        assert abs(doubled[1] - 2.0 * base[1]) < tol
        assert abs(doubled[0] - base[0]) < tol


class TestEmbed(EmbedCases):
    reading = AV

    def test_single_attribute_direct_evaluation(self):
        # one region: the attention is 1 and the attended feature is that region
        rng = make_rng(5)
        A = rng.standard_normal((1, 3))
        V = rng.standard_normal((1, 4))
        params = {"w1": np.zeros((3, 4)), "w2": rng.standard_normal((3, 4))}
        psi = AV.run(V, A, params).attr_scores.data
        expected = float(A[0] @ params["w2"] @ V[0])
        assert abs(psi[0] - expected) < 1e-12


class TestEmbedVisualAttr(EmbedCases):
    reading = VA

    def test_single_region_direct_evaluation(self):
        # one region and a one-hot attention: the mix is attribute 1, and the
        # lift scales the region score by row 0 of the table
        rng = make_rng(5)
        V = rng.standard_normal((1, 4))
        A = rng.standard_normal((3, 3))
        params = {"w3": np.zeros((4, 3)), "w4": rng.standard_normal((4, 3)),
                  "w_att": rng.standard_normal((4, 3))}
        got = va.intervened(VA.run(V, A, params), np.array([[0.0, 1.0, 0.0]])).attr_scores.data
        expected = float(V[0] @ params["w4"] @ A[1]) * (V[0] @ params["w_att"] @ A.T)
        assert np.max(np.abs(got - expected)) < 1e-12


class TestProject:
    def test_zero_region_scores(self):
        V, A, params = VA.instance(k=3, r=3)
        params["w4"] = np.zeros_like(params["w4"])
        assert np.array_equal(VA.run(V, A, params).attr_scores.data, np.zeros(3))

    def test_zero_lifting_weight(self):
        V, A, params = VA.instance(k=3, r=3)
        params["w_att"] = np.zeros_like(params["w_att"])
        assert np.array_equal(VA.run(V, A, params).attr_scores.data, np.zeros(3))

    def test_matches_two_step_matmul_oracle(self):
        V, A, params = VA.instance(k=3, r=2, seed=13)
        fwd = VA.run(V, A, params)
        psi_hat = np.sum((V @ params["w4"]) * (fwd.attention.data @ A), axis=1)
        table = V @ params["w_att"] @ A.T  # R x K
        expected = psi_hat @ table
        assert np.max(np.abs(fwd.attr_scores.data - expected)) < 1e-12


class PredictCases:
    def test_one_hot_prototypes_select_scores(self):
        reading = self.reading
        dims = reading.pick(dict(k=3, r=3, seed=4), dict(k=3, r=3, seed=3))
        fwd = reading.run(*reading.instance(**dims), Z=np.eye(3))
        assert np.array_equal(fwd.logits.data, fwd.attr_scores.data)

    def test_zero_scores_zero_logits(self):
        reading = self.reading
        V, A, params = reading.instance(k=3, r=3)
        Z = make_rng(0).random((4, 3))
        weight = reading.pick("w2", "w_att")
        assert np.array_equal(reading.run(V, A, zeroed(params, weight), Z).logits.data,
                              np.zeros(4))

    def test_matches_dot_product_oracle(self):
        reading = self.reading
        dims = reading.pick(dict(k=4, r=3, seed=8), dict(k=5, r=3, seed=8))
        V, A, params = reading.instance(**dims)
        Z = make_rng(8).standard_normal((3, dims["k"]))
        fwd = reading.run(V, A, params, Z)
        scores = fwd.attr_scores.data
        for c in range(3):
            assert abs(fwd.logits.data[c] - float(np.dot(scores, Z[c]))) < 1e-12


class TestPredict(PredictCases):
    reading = AV


class TestPredictVisualAttr(PredictCases):
    reading = VA


def assert_uniform_gives_key_mean(reading, dims, tol):
    """A uniform intervention reads out each query against the mean key."""
    V, A, params = reading.instance(**dims)
    Q, K = reading.sides(V, A)
    got = reading.readout_under(np.full((len(Q), len(K)), 1.0 / len(K)), V, A, params)
    mean_key = np.tile(K.mean(axis=0), (len(Q), 1))
    expected = readout_oracle(Q, params[reading.embed], mean_key)
    assert np.allclose(got, expected, atol=tol)


class IntervenedCases:
    def test_null_intervention_bit_exact(self):
        reading = self.reading
        dims = reading.pick(dict(k=4, r=5, seed=11), dict(k=5, r=4, seed=11))
        V, A, params = reading.instance(**dims)
        Z = make_rng(12).random((3, dims["k"]))
        fwd = reading.run(V, A, params, Z)
        logits_bar = reading.module.intervened(fwd, fwd.attention.data).logits
        assert np.array_equal(logits_bar.data, fwd.logits.data)
        assert np.array_equal(causal_effect(fwd.logits, logits_bar), np.zeros(3))

    def test_uniform_intervention_gives_key_mean(self):
        reading = self.reading
        assert_uniform_gives_key_mean(
            reading, reading.pick(dict(k=3, r=4, seed=1), dict(k=4, r=4, da=4, seed=15)),
            reading.pick(1e-12, 1e-9))

    def test_matches_compositional_oracle(self):
        reading = self.reading
        V, A, params = reading.instance(k=4, r=3, seed=21)
        Q, K = reading.sides(V, A)
        Z = make_rng(22).random((5, 4))
        attention_bar = make_rng(23).random((len(Q), len(K)))
        attention_bar /= attention_bar.sum(axis=1, keepdims=True)
        bar = reading.module.intervened(reading.run(V, A, params, Z), attention_bar)
        # oracle: the readout table, its attention-weighted row sums, in the
        # region reading the region-weighted rows of the lift table, and the
        # prototype product in numpy
        expected = np.sum(attention_bar * ((Q @ params[reading.embed]) @ K.T), axis=1)
        if reading.by_regions:
            expected = np.sum(expected[:, None] * (V @ params["w_att"] @ A.T), axis=0)
        assert np.array_equal(bar.attention.data, attention_bar)
        assert np.array_equal(bar.attr_scores.data, expected)
        assert np.array_equal(bar.logits.data, Z @ expected)

    def test_reuses_observed_products(self, monkeypatch):
        # only Z.psi runs again; the readout (and lift) tables come from the
        # observed pass
        reading = self.reading
        V, A, params = reading.instance(k=4, r=3, seed=24)
        Q, K = reading.sides(V, A)
        fwd = reading.run(V, A, params)
        calls = []
        matmul = ad.matmul
        monkeypatch.setattr(ad, "matmul", lambda a, b: calls.append(1) or matmul(a, b))
        reading.module.intervened(fwd, np.full((len(Q), len(K)), 1.0 / len(K)))
        assert len(calls) == 1

    def test_unnormalized_rows_rejected(self):
        reading = self.reading
        V, A, params = reading.instance(**reading.pick(dict(k=2, r=3), dict(k=3, r=3)))
        Q, K = reading.sides(V, A)
        bad = np.full((len(Q), len(K)), reading.pick(0.5, 0.9))  # rows sum to more than 1
        with pytest.raises(ValueError, match="sum to 1"):
            reading.module.intervened(reading.run(V, A, params), bad)

    def test_no_gradient_into_intervention(self):
        reading = self.reading
        dims = reading.pick(dict(k=2, r=3, seed=31), dict(k=3, r=3, seed=31))
        V, A, params = reading.instance(**dims)
        Q, K = reading.sides(V, A)
        Z = make_rng(32).random((3, dims["k"]))
        leaves = {n: ad.Tensor(params[n], requires_grad=True) for n in reading.names}
        attention_bar = ad.Tensor(np.full((len(Q), len(K)), 1.0 / len(K)))
        fwd = reading.run(V, A, leaves, Z)
        logits_bar = reading.module.intervened(fwd, attention_bar).logits
        ad.tsum(ad.mul(logits_bar, logits_bar)).backward()
        assert attention_bar.grad is None
        assert leaves[reading.embed].grad is not None
        # the intervened pass never touches the score weight
        assert leaves[reading.score].grad is None

    def test_score_weight_gradient_independent_of_intervention_draw(self):
        # perturbing the stream that produced the intervention must not change
        # the score weight's gradient; the draw does flow through the readout weight
        reading = self.reading
        dims = reading.pick(dict(k=2, r=3, seed=41), dict(k=3, r=3, seed=41))
        V, A, params = reading.instance(**dims)
        Q, K = reading.sides(V, A)
        Z = make_rng(42).random((reading.pick(3, 4), dims["k"]))
        grads = []
        for interv_seed in (1, 2):
            leaves = {n: ad.Tensor(params[n].copy(), requires_grad=True)
                      for n in reading.names}
            fwd = reading.run(V, A, leaves, Z)
            rng = make_rng(interv_seed)
            attention_bar = rng.random((len(Q), len(K)))
            attention_bar /= attention_bar.sum(axis=1, keepdims=True)
            bar = ad.Tensor(attention_bar)
            logits_bar = reading.module.intervened(fwd, bar).logits
            loss = ad.add(ad.tsum(ad.mul(fwd.logits, fwd.logits)),
                          ad.tsum(ad.mul(logits_bar, logits_bar)))
            loss.backward()
            assert bar.grad is None
            grads.append({n: leaves[n].grad.copy() for n in (reading.score, reading.embed)})
        assert np.array_equal(grads[0][reading.score], grads[1][reading.score])
        assert not np.array_equal(grads[0][reading.embed], grads[1][reading.embed])


class TestIntervened(IntervenedCases):
    reading = AV

    def test_wrong_shape_rejected(self):
        V, A, params = AV.instance(k=2, r=3)
        with pytest.raises(ShapeError, match="differs from the observed"):
            av.intervened(AV.run(V, A, params), np.full((3, 2), 0.5))


class TestIntervenedVisualAttr(IntervenedCases):
    reading = VA


class CausalEffectCases:
    def test_identical_inputs_zero(self):
        x = self.reading.pick(np.array([1.0, 2.0]), make_rng(1).standard_normal(4))
        assert np.array_equal(causal_effect(x, x), np.zeros(len(x)))

    def test_hand_arithmetic(self):
        logits, logits_bar, effect = self.reading.pick(
            ([2.0, 0.0], [1.0, 1.0], [1.0, -1.0]), ([3.0, 1.0], [1.0, 3.0], [2.0, -2.0]))
        assert np.array_equal(causal_effect(logits, logits_bar), effect)

    def test_antisymmetry(self):
        seed, size = self.reading.pick((6, 5), (2, 6))
        rng = make_rng(seed)
        a, b = rng.standard_normal(size), rng.standard_normal(size)
        assert np.array_equal(causal_effect(a, b), -causal_effect(b, a))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            causal_effect(np.zeros(2), np.zeros(self.reading.pick(3, 4)))


class TestCausalEffect(CausalEffectCases):
    reading = AV


class TestCausalEffectVisualAttr(CausalEffectCases):
    reading = VA


def assert_gradients_pass_finite_difference_check(reading, dims):
    # scalar function of the logits, differentiated w.r.t. the reading's weights
    V, A, params = reading.instance(**dims)
    Z = make_rng(52).random((3, dims["k"]))
    base = {n: params[n].copy() for n in reading.names}

    def loss_fn(p):
        leaves = {n: ad.Tensor(p[n], requires_grad=True) for n in p}
        fwd = reading.run(V, A, leaves, Z)
        loss = ad.tsum(ad.mul(fwd.logits, fwd.logits))
        loss.backward()
        return loss.item(), {n: leaves[n].grad for n in p}

    report = finite_difference_check(loss_fn, base, epsilon=1e-5, tolerance=1e-4)
    assert report.passed, report


def test_gradients_pass_finite_difference_check():
    assert_gradients_pass_finite_difference_check(AV, dict(k=2, r=3, seed=51))


def test_gradients_pass_finite_difference_check_visual_attr():
    assert_gradients_pass_finite_difference_check(VA, dict(k=3, r=3, seed=51))


def test_export_attention_round_trip(tmp_path):
    V, A, params = AV.instance(k=4, r=5, seed=61)
    beta = AV.run(V, A, params).attention.data
    av.export_attention(beta, [f"attr_{i}" for i in range(4)], tmp_path / "beta")
    back = read_tensor(tmp_path / "beta.msdt")
    assert back.shape == (4, 5)
    assert np.max(np.abs(back.sum(axis=1) - 1.0)) < 1e-6
    assert np.array_equal(back, beta.astype(np.float32).astype(np.float64))
    lines = (tmp_path / "beta.attributes.txt").read_text().splitlines()
    assert lines[0] == "0\tattr_0"
    assert len(lines) == 4
