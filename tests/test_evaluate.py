import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import build_dataset
from mczsl import training
from mczsl.data import Split
from mczsl.errors import NumericError, ShapeError
from mczsl.evaluate import (
    EvalReport,
    FusionConfig,
    candidate_classes,
    class_scores,
    evaluate,
    fused_score,
    harmonic_mean,
    per_class_accuracy,
    per_class_csv,
    report_to_dict,
    top_classes,
)
from mczsl.losses import LossWeights
from mczsl.numeric import make_rng
from mczsl.training import state_for_dataset


def make_split(seen, unseen):
    return Split(list(seen), list(unseen), [], [], [])


class TestFusedScore:
    # fused_score scores every class; a setting picks its candidate columns
    def test_attr_side_only_matches_its_argmax(self):
        rng = make_rng(0)
        psi, psi2 = rng.standard_normal(4), rng.standard_normal(4)
        Z = rng.random((5, 4))
        split = make_split([0, 1, 2], [3, 4])
        cfg = FusionConfig(alpha1=1.0, alpha2=0.0, setting="czsl")
        scores = fused_score(psi, psi2, Z, split, cfg)
        assert scores.shape == (5,)
        unseen = candidate_classes(split, "czsl")
        direct = np.array([float(np.dot(psi, Z[c])) for c in unseen]) + 1.0
        assert np.allclose(scores[unseen], direct, atol=1e-12)
        assert np.argmax(scores[unseen]) == np.argmax(direct)
        seen = candidate_classes(split, "train")
        assert np.allclose(scores[seen], Z[seen] @ psi - 1.0, atol=1e-12)

    def test_zero_embeddings_prefer_unseen(self):
        Z = make_rng(1).random((4, 3))
        split = make_split([0, 1], [2, 3])
        cfg = FusionConfig(setting="gzsl")
        scores = fused_score(np.zeros(3), np.zeros(3), Z, split, cfg)
        assert scores.shape == (4,)
        for c, s in enumerate(scores):
            assert s == (1.0 if c in (2, 3) else -1.0)
        cands = candidate_classes(split, "gzsl")
        assert cands[int(np.argmax(scores[cands]))] in (2, 3)
        assert top_classes(scores[None], split, "gzsl").tolist() == [2]

    def test_three_class_dot_product_oracle(self):
        rng = make_rng(2)
        psi, psi2 = rng.standard_normal(3), rng.standard_normal(3)
        Z = rng.standard_normal((3, 3))
        split = make_split([0, 1], [2])
        cfg = FusionConfig(alpha1=0.6, alpha2=0.4, setting="gzsl")
        scores = fused_score(psi, psi2, Z, split, cfg)
        assert scores.shape == (3,)
        for c in range(3):
            fused = 0.6 * psi + 0.4 * psi2
            expected = float(np.dot(fused, Z[c])) + (1.0 if c == 2 else -1.0)
            assert abs(scores[c] - expected) < 1e-12

    def test_joint_scaling_preserves_argmax(self):
        # scaling (alpha1, alpha2) and the +-1 offsets by the same positive factor
        rng = make_rng(3)
        split = make_split([0, 1, 2], [3, 4])
        Z = rng.standard_normal((5, 6))
        cfg = FusionConfig(alpha1=0.8, alpha2=0.2, setting="gzsl")
        offsets = fused_score(np.zeros(6), np.zeros(6), Z, split, cfg)
        for _ in range(100):
            psi, psi2 = rng.standard_normal(6), rng.standard_normal(6)
            lam = float(rng.uniform(0.1, 10.0))
            scaled = FusionConfig(alpha1=0.8 * lam, alpha2=0.2 * lam, setting="gzsl")
            s1 = fused_score(psi, psi2, Z, split, cfg)
            s2 = fused_score(psi, psi2, Z, split, scaled) + (lam - 1.0) * offsets
            assert np.argmax(s1) == np.argmax(s2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fused_score(np.zeros(3), np.zeros(4), np.zeros((2, 3)),
                        make_split([0], [1]), FusionConfig())

    def test_overflowing_score_names_its_sample(self, recwarn):
        # 1e308 + 1e308 overflows: refused, naming the row's sample, and no warning printed
        psi = np.zeros((4, 3))
        psi[2] = 1e308
        split = make_split([0, 1], [2, 3])
        cfg = FusionConfig(alpha1=1.0, alpha2=1.0)
        with pytest.raises(NumericError, match=r"score at sample index 12 \(alpha1=1.0, "):
            fused_score(psi, psi, np.ones((4, 3)), split, cfg, np.arange(10, 14))
        with pytest.raises(NumericError, match="score at sample index 2 "):
            fused_score(psi, psi, np.ones((4, 3)), split, cfg)
        assert not recwarn.list

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FusionConfig(alpha1=0.0, alpha2=0.0)
        with pytest.raises(ValueError):
            FusionConfig(setting="zsl")

    def test_train_accuracy_is_the_seen_column_argmax(self, monkeypatch):
        ds = build_dataset(num_classes=6, samples_per_class=4, n_unseen=3, seed=21)
        state = state_for_dataset(ds, make_rng(22))
        forwards = []
        forward_both = training.forward_both

        def recording(*args):
            forwards.append(forward_both(*args))
            return forwards[-1]

        monkeypatch.setattr(training, "forward_both", recording)
        batch = ds.split.train_idx
        report, _ = training.batch_loss_and_grads(
            batch, ds, state.params(), LossWeights(), lambda _, betas, gammas: (betas, gammas))
        [(f1, f2)] = forwards
        scores = fused_score(f1.attr_scores.data, f2.attr_scores.data, ds.class_semantics,
                             ds.split, FusionConfig())
        assert scores.shape == (len(batch), ds.num_classes)
        seen = sorted(ds.split.seen_classes)
        picks = np.asarray(seen)[np.argmax(scores[:, seen], axis=1)]
        assert report.correct == int(np.sum(picks == ds.labels[batch]))
        assert 0 < report.correct < len(batch)  # informative: neither all nor none
        # the unseen columns' +1 offset would win somewhere if they competed
        assert np.any(np.argmax(scores, axis=1) != picks)


class TestHarmonicMean:
    def test_equal_inputs_identity(self):
        assert harmonic_mean(0.37, 0.37) == pytest.approx(0.37, abs=1e-12)

    def test_published_reference_point(self):
        # U=48.4, S=60.1 must give H=53.6 to within 0.05
        assert abs(harmonic_mean(60.1, 48.4) - 53.6) <= 0.05

    def test_formula_on_random_grid(self):
        rng = make_rng(4)
        for _ in range(100):
            s, u = rng.uniform(0.01, 1.0, size=2)
            h = harmonic_mean(s, u)
            assert abs(h - 2 * s * u / (s + u)) < 1e-9

    def test_bounds(self):
        rng = make_rng(5)
        for _ in range(200):
            s, u = rng.uniform(0.0, 1.0, size=2)
            h = harmonic_mean(s, u)
            assert h <= 2 * min(s, u) + 1e-12
            assert h <= max(s, u) + 1e-12

    def test_zero_denominator(self):
        assert harmonic_mean(0.0, 0.0) == 0.0


class TestPerClassAccuracy:
    def test_constant_classifier_counting_oracle(self):
        # classifier always answers class 7; oracle counts by hand
        pairs = [(7, 7), (7, 7), (7, 7), (3, 7), (3, 7), (5, 7)]
        acc = per_class_accuracy(pairs)
        assert acc == {7: 1.0, 3: 0.0, 5: 0.0}

    def test_duplication_invariance(self):
        pairs = [(0, 0), (0, 1), (1, 1), (2, 2)]
        doubled = pairs + [(0, 0), (0, 1)]  # duplicate class 0's samples
        assert per_class_accuracy(pairs) == per_class_accuracy(doubled)


class TestPredictAndEvaluate:
    @pytest.fixture()
    def toy(self):
        ds = build_dataset(num_classes=4, samples_per_class=4, n_unseen=2, seed=9)
        rng = make_rng(10)
        state = state_for_dataset(ds, rng)
        return ds, state

    def test_predict_returns_valid_candidate(self, toy):
        ds, state = toy
        [czsl_pred] = top_classes(class_scores([ds.split.test_unseen_idx[0]], state, ds,
                                               FusionConfig(setting="czsl")), ds.split, "czsl")
        assert czsl_pred in ds.split.unseen_classes
        [gzsl_pred] = top_classes(class_scores([0], state, ds, FusionConfig(setting="gzsl")),
                                  ds.split, "gzsl")
        assert 0 <= gzsl_pred < ds.num_classes

    def test_tie_breaks_to_lowest_class_index(self, toy):
        ds, state = toy
        # zero weights give zero embeddings: all unseen candidates tie at +1
        for p in state.params().values():
            p[:] = 0.0
        [pred] = top_classes(class_scores([0], state, ds, FusionConfig(setting="gzsl")),
                             ds.split, "gzsl")
        assert pred == min(ds.split.unseen_classes)

    def test_evaluate_matches_counting_oracle(self, toy):
        ds, state = toy
        cfg = FusionConfig(setting="gzsl")
        report = evaluate(ds, state, cfg)
        # independent oracle: recount from raw predictions
        def oracle(indices):
            per_total, per_correct = {}, {}
            for i in indices:
                t = int(ds.labels[i])
                [p] = top_classes(class_scores([i], state, ds, cfg), ds.split, cfg.setting)
                per_total[t] = per_total.get(t, 0) + 1
                per_correct[t] = per_correct.get(t, 0) + (p == t)
            return {c: per_correct[c] / per_total[c] for c in per_total}

        unseen_acc = oracle(ds.split.test_unseen_idx)
        seen_acc = oracle(ds.split.test_seen_idx)
        u = sum(unseen_acc.values()) / len(unseen_acc)
        s = sum(seen_acc.values()) / len(seen_acc)
        assert report.gzsl_u == pytest.approx(u, abs=1e-12)
        assert report.gzsl_s == pytest.approx(s, abs=1e-12)
        assert report.gzsl_h == pytest.approx(2 * s * u / (s + u) if s + u else 0.0, abs=1e-9)

    def test_czsl_predictions_never_in_seen(self, toy):
        ds, state = toy
        report = evaluate(ds, state, FusionConfig(setting="czsl"))
        seen = set(ds.split.seen_classes)
        assert all(pred not in seen for (_, pred) in report.confusion_counts)
        assert set(report.per_class_acc) <= set(ds.split.unseen_classes)

    def test_duplicating_a_class_preserves_per_class_accuracy(self, toy):
        ds, state = toy
        base = evaluate(ds, state, FusionConfig(setting="gzsl"))
        dup_class = ds.split.unseen_classes[0]
        dup_idx = [i for i in ds.split.test_unseen_idx if int(ds.labels[i]) == dup_class]
        ds.features = np.concatenate([ds.features, ds.features[dup_idx]])
        ds.labels = np.concatenate([ds.labels, ds.labels[dup_idx]])
        new_ids = list(range(ds.num_samples - len(dup_idx), ds.num_samples))
        ds.split.test_unseen_idx.extend(new_ids)
        doubled = evaluate(ds, state, FusionConfig(setting="gzsl"))
        for c in base.per_class_acc:
            assert doubled.per_class_acc[c] == pytest.approx(base.per_class_acc[c], abs=1e-12)
        assert doubled.gzsl_u == pytest.approx(base.gzsl_u, abs=1e-12)

    def test_evaluate_s_equals_u_gives_h_equal(self, toy):
        ds, state = toy
        report = evaluate(ds, state, FusionConfig(setting="gzsl"))
        if report.gzsl_s == report.gzsl_u:
            assert report.gzsl_h == pytest.approx(report.gzsl_s, abs=1e-12)
        # the identity itself, regardless of what the model produced
        assert harmonic_mean(0.25, 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_empty_split_rejected(self, toy):
        ds, state = toy
        ds.split.test_unseen_idx.clear()
        with pytest.raises(ValueError, match="nonempty"):
            evaluate(ds, state, FusionConfig(setting="czsl"))


def load_reference():
    """perfbench's independent numpy scorer, loaded by path (it imports only numpy)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("setting", ["czsl", "gzsl"])
def test_block_predict_independent_of_blocking(monkeypatch, setting):
    # distinct prime dimensions, so a transposed or misrouted axis cannot fit
    k, r, d, da = 7, 5, 11, 13
    ds = build_dataset(num_classes=6, num_attributes=k, regions=r, feature_dim=d,
                       attr_dim=da, samples_per_class=4, n_unseen=3, seed=17)
    state = state_for_dataset(ds, make_rng(18))
    for p in state.params().values():
        p *= 4.0  # spread the scores beyond the +-1 offsets
    idx = [int(i) for i in make_rng(19).permutation(ds.num_samples)]
    cfg = FusionConfig(setting=setting)
    # blocks of 5 samples, cut by training.score_blocks
    monkeypatch.setattr(importlib.import_module("mczsl.training"), "BLOCK_VALUES", 5 * r * d)
    blocked = top_classes(class_scores(idx, state, ds, cfg), ds.split, setting).tolist()
    assert blocked == [top_classes(class_scores([i], state, ds, cfg), ds.split, setting)[0]
                       for i in idx]
    ref, margins = load_reference().predictions(ds, state.params(), idx, setting)
    clear = [(b, c) for b, c, m in zip(blocked, ref, margins) if m >= 1e-9]
    assert len(clear) > len(idx) // 2
    assert all(b == c for b, c in clear)
    assert len(set(blocked)) > 1


def test_block_scores_at_a_cub_like_inner_dimension(monkeypatch):
    # at D=2048 the one 2-D product over a block's stacked rows may round
    # differently from block to block, so the class scores of the same samples
    # under two block sizes agree to 1e-12 relative, not bit for bit
    r, d = 4, 2048
    ds = build_dataset(num_classes=4, num_attributes=6, regions=r, feature_dim=d,
                       attr_dim=8, samples_per_class=2, n_unseen=2, seed=3)
    state = state_for_dataset(ds, make_rng(4))
    idx = list(range(ds.num_samples))
    scores = []
    for block in (1, 3):
        monkeypatch.setattr(training, "BLOCK_VALUES", block * r * d)
        scores.append(class_scores(idx, state, ds, FusionConfig()))
    single, blocked = scores
    assert np.max(np.abs(blocked - single)) <= 1e-12 * np.max(np.abs(single))


def test_noise_free_training_recovers_planted_labels():
    # the generator plants a perfectly separable structure at zero noise;
    # after training, unseen test predictions recover the planted labels
    from mczsl.data import SynthConfig, generate_synthetic
    from mczsl.losses import LossWeights
    from mczsl.training import Hyperparams, train

    ds = generate_synthetic(SynthConfig(noise=0.0), seed=1)
    hp = Hyperparams(learning_rate=0.003, batch_size=50, epochs=30, seed=1,
                     loss_weights=LossWeights(0.05, 0.03, 0.3, 0.001))
    state, _ = train(ds, hp)
    cfg = FusionConfig(setting="czsl")
    idx = ds.split.test_unseen_idx
    predicted = top_classes(class_scores(idx, state, ds, cfg), ds.split, "czsl").tolist()
    pairs = list(zip((int(ds.labels[i]) for i in idx), predicted))
    match = sum(t == p for t, p in pairs) / len(pairs)
    assert match >= 0.90


class TestSerialization:
    def test_report_dict_round_trips_keys(self):
        rep = EvalReport(setting="gzsl", gzsl_u=0.5, gzsl_s=0.25,
                         gzsl_h=harmonic_mean(0.25, 0.5),
                         per_class_acc={3: 0.5, 1: 1.0},
                         confusion_counts={(1, 1): 4, (3, 2): 1})
        d = report_to_dict(rep)
        assert d["per_class_acc"] == {"1": 1.0, "3": 0.5}
        assert d["confusion_counts"] == {"1,1": 4, "3,2": 1}

    def test_per_class_csv(self):
        rep = EvalReport(setting="czsl", czsl_acc=0.75, per_class_acc={2: 0.75, 0: 1.0})
        csv = per_class_csv(rep, class_names=["zero", "one", "two"])
        lines = csv.strip().splitlines()
        assert lines[0] == "class,name,accuracy"
        assert lines[1] == "0,zero,1.000000"
        assert lines[2] == "2,two,0.750000"
