import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import subnet_pass
from mczsl import attr_visual, autodiff as ad, visual_attr
from mczsl.attr_visual import ATTR_SIDE, REGION_SIDE
from mczsl.data import Split
from mczsl.errors import ShapeError
from mczsl.gradcheck import finite_difference_check
from mczsl.losses import (
    KL_FLOOR,
    LossWeights,
    acec_loss,
    ar_loss,
    causal_loss,
    distill_loss,
    seen_class_distribution,
    weighted_total,
)
from mczsl.numeric import make_rng


def seen_ce_oracle(f, label, Z, seen):
    """Direct 64-bit evaluation of -log softmax over seen classes."""
    logits = [float(np.dot(f, Z[c])) for c in seen]
    z = sum(math.exp(v) for v in logits)
    return -math.log(math.exp(logits[seen.index(label)]) / z)


def make_split(seen, unseen):
    return Split(list(seen), list(unseen), [], [], [])


class TestAcec:
    def test_zero_calibration_reduces_to_cross_entropy(self):
        rng = make_rng(0)
        f = rng.standard_normal(4)
        Z = rng.random((3, 4))
        split = make_split([0, 1], [2])
        got = acec_loss(Z @ f, 1, split, lambda_cal=0.0).item()
        assert abs(got - seen_ce_oracle(f, 1, Z, [0, 1])) < 1e-12

    def test_two_seen_equal_logits_ln2(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # classes 0,1 identical
        f = np.array([0.7, 0.3])
        split = make_split([0, 1], [2])
        got = acec_loss(Z @ f, 0, split, lambda_cal=0.0).item()
        assert abs(got - math.log(2.0)) < 1e-12

    def test_full_hand_case_with_indicator_shifts(self):
        # 2 seen + 1 unseen; oracle evaluates both terms directly
        f = np.array([0.5, -0.25, 1.0])
        Z = np.array([[1.0, 0.0, 0.5],
                      [0.2, 0.8, -0.3],
                      [0.6, 0.4, 0.1]])
        split = make_split([0, 1], [2])
        lam = 0.07
        term1 = seen_ce_oracle(f, 0, Z, [0, 1])
        shifted = [float(np.dot(f, Z[c])) + (1.0 if c == 2 else -1.0) for c in range(3)]
        z_all = sum(math.exp(v) for v in shifted)
        term2 = -lam * math.log(math.exp(shifted[2]) / z_all)
        got = acec_loss(Z @ f, 0, split, lambda_cal=lam).item()
        assert abs(got - (term1 + term2)) < 1e-12

    def test_calibration_sums_over_all_unseen(self):
        rng = make_rng(4)
        f = rng.standard_normal(3)
        Z = rng.random((5, 3))
        split = make_split([0, 1], [2, 3, 4])
        lam = 0.3
        term1 = seen_ce_oracle(f, 1, Z, [0, 1])
        shifted = [float(np.dot(f, Z[c])) + (1.0 if c >= 2 else -1.0) for c in range(5)]
        z_all = sum(math.exp(v) for v in shifted)
        term2 = -lam * sum(math.log(math.exp(shifted[c]) / z_all) for c in (2, 3, 4))
        got = acec_loss(Z @ f, 1, split, lambda_cal=lam).item()
        assert abs(got - (term1 + term2)) < 1e-10

    def test_unseen_label_rejected(self):
        split = make_split([0, 1], [2])
        with pytest.raises(ValueError, match="not a seen class"):
            acec_loss(np.zeros(3), 2, split, 0.1)

    def test_monotone_in_true_class_logit(self):
        # raising f.z_label with other logits fixed lowers the loss
        Z = np.eye(3)
        split = make_split([0, 1, 2], [])
        losses = []
        for t in (0.0, 0.5, 1.0, 2.0, 4.0):
            f = np.array([t, 0.3, -0.2])
            losses.append(acec_loss(Z @ f, 0, split, lambda_cal=0.0).item())
        assert all(a > b for a, b in zip(losses, losses[1:]))


class TestAr:
    def test_exact_match_zero(self):
        f = make_rng(0).standard_normal(6)
        assert ar_loss(f, f.copy()).item() == 0.0

    def test_hand_arithmetic(self):
        assert ar_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])).item() == 2.0

    def test_matches_elementwise_oracle_312_dims(self):
        rng = make_rng(312)
        f, z = rng.standard_normal(312), rng.standard_normal(312)
        expected = sum((float(a) - float(b)) ** 2 for a, b in zip(f, z))
        assert abs(ar_loss(f, z).item() - expected) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            ar_loss(np.zeros(3), np.zeros(4))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16),
           st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
    def test_nonnegative_zero_iff_equal(self, a, b):
        n = min(len(a), len(b))
        fa, fb = np.asarray(a[:n]), np.asarray(b[:n])
        v = ar_loss(fa, fb).item()
        assert v >= 0.0
        if np.array_equal(fa, fb):
            assert v == 0.0
        elif v == 0.0:
            # squared differences below ~1e-154 underflow to exactly zero
            assert np.max(np.abs(fa - fb)) < 1e-150


class TestCausal:
    def test_null_intervention_doubles_cross_entropy(self):
        rng = make_rng(1)
        f = rng.standard_normal(4)
        Z = rng.random((3, 4))
        split = make_split([0, 1], [2])
        ce = seen_ce_oracle(f, 0, Z, [0, 1])
        got = causal_loss(Z @ f, Z @ f, 0, split).item()
        assert abs(got - 2.0 * ce) < 1e-9

    def test_two_seen_uniform_embeddings(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        f = np.array([0.1, 0.9])
        split = make_split([0, 1], [2])
        got = causal_loss(Z @ f, Z @ f, 0, split).item()
        assert abs(got - 2.0 * math.log(2.0)) < 1e-12

    def test_three_class_double_ce_oracle(self):
        rng = make_rng(5)
        f, fbar = rng.standard_normal(4), rng.standard_normal(4)
        Z = rng.random((3, 4))
        split = make_split([0, 1, 2], [])
        expected = seen_ce_oracle(f, 2, Z, [0, 1, 2]) + seen_ce_oracle(fbar, 2, Z, [0, 1, 2])
        assert abs(causal_loss(Z @ f, Z @ fbar, 2, split).item() - expected) < 1e-10

    def test_label_validation(self):
        with pytest.raises(ValueError, match="seen"):
            causal_loss(np.zeros(6), np.zeros(6), 5, make_split([0], [1, 2, 3, 4, 5]))


class TestDistill:
    def test_identical_distributions_exactly_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert distill_loss(p, p.copy()).item() == 0.0

    def test_floor_hand_case(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        # oracle with floored logs, 0*log(...) = 0 convention
        def flog(x):
            return math.log(max(x, KL_FLOOR))
        kl_pq = sum(pi * (flog(pi) - flog(qi)) for pi, qi in zip(p, q) if pi > 0)
        kl_qp = sum(qi * (flog(qi) - flog(pi)) for qi, pi in zip(q, p) if qi > 0)
        expected = 0.5 * (kl_pq + kl_qp) + float(np.sum((p - q) ** 2))
        assert abs(distill_loss(p, q).item() - expected) < 1e-12

    def test_symmetry_random_pairs(self):
        rng = make_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            p = rng.random(n); p /= p.sum()
            q = rng.random(n); q /= q.sum()
            assert distill_loss(p, q).item() == distill_loss(q, p).item()

    def test_nonnegative_random_pairs(self):
        rng = make_rng(8)
        for _ in range(200):
            p = rng.random(5); p /= p.sum()
            q = rng.random(5); q /= q.sum()
            assert distill_loss(p, q).item() >= -1e-12

    def test_non_distribution_rejected(self):
        good = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="probability"):
            distill_loss(np.array([0.9, 0.3]), good)
        with pytest.raises(ValueError, match="probability"):
            distill_loss(np.array([-0.1, 1.1]), good)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            distill_loss(np.array([0.5, 0.5]), np.array([0.25, 0.25, 0.5]))


class TestTotal:
    def test_zero_weights_leave_only_acec(self):
        w = LossWeights(0.0, 0.0, 0.0, 0.0)
        assert weighted_total(3.0, 9.0, 8.0, 9.0, w) == 3.0

    def test_weighted_sum_hand_arithmetic(self):
        w = LossWeights(0.05, 0.03, 0.3, 0.001)
        expected = 1.5 + 0.03 * 3.0 + 0.3 * 4.5 + 0.001 * 4.0
        assert abs(weighted_total(1.5, 3.0, 4.5, 4.0, w) - expected) < 1e-12

    def test_doubling_ar_weight_changes_total_by_ar(self):
        terms = (1.5, 3.5, 3.5, 1.0)
        w1 = LossWeights(0.1, 0.2, 0.3, 0.4)
        w2 = LossWeights(0.1, 0.4, 0.3, 0.4)
        t1, t2 = weighted_total(*terms, w1), weighted_total(*terms, w2)
        assert abs((t2 - t1) - 0.2 * 3.5) < 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_ar=-0.1)


class TestRows:
    """A block call equals the stack of its rows' 1-D calls."""

    # leading axes (2, 3), C = 7 classes (4 seen, 3 unseen), K = 11 attributes
    LEAD, C, K = (2, 3), 7, 11
    SPLIT = make_split([0, 2, 3, 5], [1, 4, 6])

    def rows(self):
        rng = make_rng(23)
        logits = rng.standard_normal(self.LEAD + (self.C,))
        logits_bar = rng.standard_normal(self.LEAD + (self.C,))
        labels = rng.choice(self.SPLIT.seen_classes, size=self.LEAD)
        scores = rng.standard_normal(self.LEAD + (self.K,))
        protos = rng.random(self.LEAD + (self.K,))
        return logits, logits_bar, labels, scores, protos

    def assert_rowwise(self, block_fn, row_fn):
        block = block_fn()
        assert block.shape[:len(self.LEAD)] == self.LEAD
        for pos in np.ndindex(*self.LEAD):
            row = row_fn(pos)
            assert row.shape == block.shape[len(self.LEAD):]
            assert np.all(np.abs(block[pos] - row) <= 1e-15 * np.abs(row))

    @pytest.mark.parametrize("lambda_cal", [0.0, 0.07])
    def test_acec(self, lambda_cal):
        logits, _, labels, _, _ = self.rows()
        self.assert_rowwise(
            lambda: acec_loss(logits, labels, self.SPLIT, lambda_cal).data,
            lambda i: acec_loss(logits[i], int(labels[i]), self.SPLIT, lambda_cal).data)

    def test_ar(self):
        _, _, _, scores, protos = self.rows()
        self.assert_rowwise(lambda: ar_loss(scores, protos).data,
                            lambda i: ar_loss(scores[i], protos[i]).data)

    def test_causal(self):
        logits, logits_bar, labels, _, _ = self.rows()
        self.assert_rowwise(
            lambda: causal_loss(logits, logits_bar, labels, self.SPLIT).data,
            lambda i: causal_loss(logits[i], logits_bar[i], int(labels[i]), self.SPLIT).data)

    def test_seen_class_distribution(self):
        logits, _, _, _, _ = self.rows()
        self.assert_rowwise(lambda: seen_class_distribution(logits, self.SPLIT).data,
                            lambda i: seen_class_distribution(logits[i], self.SPLIT).data)

    def test_distill(self):
        logits, logits_bar, _, _, _ = self.rows()
        p1 = seen_class_distribution(logits, self.SPLIT).data
        p2 = seen_class_distribution(logits_bar, self.SPLIT).data
        self.assert_rowwise(lambda: distill_loss(p1, p2).data,
                            lambda i: distill_loss(p1[i], p2[i]).data)

    def test_one_unseen_label_in_a_block_rejected(self):
        logits, logits_bar, labels, _, _ = self.rows()
        labels = labels.copy()
        labels[1, 2] = self.SPLIT.unseen_classes[0]
        with pytest.raises(ValueError, match="not a seen class"):
            acec_loss(logits, labels, self.SPLIT, 0.1)
        with pytest.raises(ValueError, match="not a seen class"):
            causal_loss(logits, logits_bar, labels, self.SPLIT)

    def test_one_label_per_row(self):
        logits, _, labels, _, _ = self.rows()
        with pytest.raises(ShapeError):
            acec_loss(logits, labels[0], self.SPLIT, 0.1)


class FullModelLoss:
    """Full two-sub-net forward wired into one selected loss term."""

    def __init__(self, seed=0, k=3, r=3, d=4, da=3, c=3):
        rng = make_rng(seed)
        self.V = rng.standard_normal((r, d))
        self.A = rng.standard_normal((k, da))
        self.Z = rng.random((c, k))
        self.split = make_split(list(range(c - 1)), [c - 1])
        self.label = 0
        bbar = rng.random((k, r)); bbar /= bbar.sum(axis=1, keepdims=True)
        gbar = rng.random((r, k)); gbar /= gbar.sum(axis=1, keepdims=True)
        self.beta_bar, self.gamma_bar = bbar, gbar
        # init-scale weights keep the attention softmaxes unsaturated
        self.base = {
            "w1": 0.4 * rng.standard_normal((da, d)), "w2": 0.4 * rng.standard_normal((da, d)),
            "w3": 0.4 * rng.standard_normal((d, da)), "w4": 0.4 * rng.standard_normal((d, da)),
            "w_att": 0.4 * rng.standard_normal((d, da)),
        }

    def loss_fn(self, term):
        def fn(p):
            leaves = {n: ad.Tensor(p[n], requires_grad=True) for n in p}
            f1 = subnet_pass(self.V, self.A, self.Z, leaves, ATTR_SIDE)
            f2 = subnet_pass(self.V, self.A, self.Z, leaves, REGION_SIDE)
            if term == "acec":
                loss = ad.add(acec_loss(f1.logits, self.label, self.split, 0.1),
                              acec_loss(f2.logits, self.label, self.split, 0.1))
            elif term == "ar":
                loss = ad.add(ar_loss(f1.attr_scores, self.Z[self.label]),
                              ar_loss(f2.attr_scores, self.Z[self.label]))
            elif term == "causal":
                l1 = attr_visual.intervened(f1, self.beta_bar).logits
                l2 = visual_attr.intervened(f2, self.gamma_bar).logits
                loss = ad.add(causal_loss(f1.logits, l1, self.label, self.split),
                              causal_loss(f2.logits, l2, self.label, self.split))
            else:
                loss = distill_loss(seen_class_distribution(f1.logits, self.split),
                                    seen_class_distribution(f2.logits, self.split))
            loss.backward()
            return loss.item(), {n: (leaves[n].grad if leaves[n].grad is not None
                                     else np.zeros_like(p[n])) for n in p}
        return fn


@pytest.mark.parametrize("term", ["acec", "ar", "causal", "distill"])
def test_each_loss_is_differentiable(term):
    model = FullModelLoss(seed=17)
    report = finite_difference_check(model.loss_fn(term), model.base,
                                     epsilon=1e-5, tolerance=1e-4)
    assert report.passed, (term, report.max_relative_error, report.worst_parameter)
