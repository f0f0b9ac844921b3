import copy
import importlib
import json
import tracemalloc

import numpy as np
import pytest

from conftest import build_dataset, subnet_pass
from mczsl import attr_visual as av
from mczsl.autodiff import Tensor, _topo_order
from mczsl.errors import ConfigError, FormatError, NumericError
from mczsl.evaluate import FusionConfig
from mczsl.gradcheck import directional_check, finite_difference_check
from mczsl.losses import LossWeights
from mczsl.numeric import make_rng, softmax
from mczsl.training import (
    ATTR_SIDE,
    INTERVENTION_KINDS,
    PARAM_NAMES,
    REGION_SIDE,
    Hyperparams,
    batch_loss_and_grads,
    init_state,
    load_checkpoint,
    make_intervention_attention,
    rmsprop_update,
    save_checkpoint,
    state_for_dataset,
    train,
    train_step,
)


def states_equal(a, b):
    return all(np.array_equal(a.params()[n], b.params()[n]) for n in a.params())


def clone_state(state):
    return copy.deepcopy(state)


def ranks_own_class_first(ds, state, i) -> bool:
    """Oracle: sample i's highest fused score over the seen classes (default
    fusion, no offset) is its own label, with each sub-net run on the sample alone."""
    cfg, seen = FusionConfig(), sorted(ds.split.seen_classes)
    A, Z, w = ds.attributes, ds.class_semantics, state.weights
    psi1 = subnet_pass(ds.features[i], A, Z, w, ATTR_SIDE)
    psi2 = subnet_pass(ds.features[i], A, Z, w, REGION_SIDE)
    psi1, psi2 = psi1.attr_scores.data, psi2.attr_scores.data
    scores = Z[seen] @ (cfg.alpha1 * psi1 + cfg.alpha2 * psi2)
    return seen[int(np.argmax(scores))] == int(ds.labels[i])


class TestHyperparams:
    def test_paper_defaults_accepted(self):
        hp = Hyperparams()
        assert hp.learning_rate == 1e-4
        assert hp.batch_size == 50
        assert hp.momentum == 0.9
        assert hp.weight_decay == 1e-4

    def test_validation(self):
        with pytest.raises(ConfigError):
            Hyperparams(batch_size=0)
        with pytest.raises(ConfigError):
            Hyperparams(momentum=1.0)
        with pytest.raises(ConfigError):
            Hyperparams(intervention="nope")
        with pytest.raises(ConfigError):
            Hyperparams(learning_rate=-1e-4)

    @pytest.mark.parametrize("field,value", [("seed", -1), ("intervention_seed", -3)])
    def test_negative_seed_rejected_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"violate {field} >= 0"):
            Hyperparams(**{field: value})


def observed_block(b, K, R, seed=5):
    """Row-normalized observed attentions of a block: betas b x K x R, gammas b x R x K."""
    rng = make_rng(seed)
    return (softmax(rng.standard_normal((b, K, R)), axis=-1),
            softmax(rng.standard_normal((b, R, K)), axis=-1))


class TestInterventionAttention:
    def test_uniform(self):
        beta_bars, gamma_bars = make_intervention_attention(
            "uniform", np.zeros((2, 3, 4)), np.zeros((2, 4, 3)), None)
        assert np.array_equal(beta_bars, np.full((2, 3, 4), 0.25))
        assert np.array_equal(gamma_bars, np.full((2, 4, 3), 1 / 3))

    def test_random_rows_normalized_and_deterministic(self):
        observed = observed_block(2, 5, 7)
        a = make_intervention_attention("random", *observed, make_rng(3))
        b = make_intervention_attention("random", *observed, make_rng(3))
        for side_a, side_b, shape in zip(a, b, ((2, 5, 7), (2, 7, 5))):
            assert side_a.shape == shape
            assert np.array_equal(side_a, side_b)
            assert np.max(np.abs(side_a.sum(axis=-1) - 1.0)) < 1e-6
            assert np.all(side_a > 0)

    def test_reversed_inverts_ranking(self):
        observed = np.array([[[0.94, 0.02, 0.02, 0.02]]])
        rev, _ = make_intervention_attention("reversed", observed, np.ones((1, 4, 1)), None)
        assert np.max(np.abs(rev.sum(axis=-1) - 1.0)) < 1e-9
        # the former-max entry is now strictly the smallest
        assert np.argmin(rev[0, 0]) == 0
        # remaining entries are near-uniform among themselves
        rest = rev[0, 0, 1:]
        assert np.max(rest) - np.min(rest) < 1e-9

    def test_reversed_orders_fully(self):
        observed = np.array([[[0.5, 0.3, 0.2]]])
        _, rev = make_intervention_attention("reversed", np.ones((1, 3, 1)), observed, None)
        assert rev[0, 0, 0] < rev[0, 0, 1] < rev[0, 0, 2]

    def test_reversed_requires_normalized_observed(self):
        with pytest.raises(ValueError, match="sum to 1"):
            make_intervention_attention("reversed", np.array([[[0.5, 0.3, 0.5]]]),
                                        np.ones((1, 3, 1)), None)

    def test_alternation(self):
        obs = (np.array([[[0.7, 0.2, 0.1]]]), np.ones((1, 3, 1)))
        even = make_intervention_attention("random_plus_reversed", *obs,
                                           make_rng(0), alternation_index=0)
        rand = make_intervention_attention("random", *obs, make_rng(0))
        assert all(map(np.array_equal, even, rand))
        odd = make_intervention_attention("random_plus_reversed", *obs,
                                          make_rng(0), alternation_index=1)
        rev = make_intervention_attention("reversed", *obs, None)
        assert all(map(np.array_equal, odd, rev))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown intervention"):
            make_intervention_attention("shuffled", np.zeros((1, 2, 2)), np.zeros((1, 2, 2)),
                                        make_rng(0))


def per_sample_interventions(kind, betas, gammas, rng, alternation_index):
    """Reference: each sample's (beta_bar, gamma_bar) on its own, in sample
    order, the random ones as a (K, R) then an (R, K) draw from the stream."""
    if kind == "random_plus_reversed":
        kind = "random" if alternation_index % 2 == 0 else "reversed"
    pairs = []
    for beta, gamma in zip(betas, gammas):
        K, R = beta.shape
        if kind == "random":
            pairs.append((softmax(rng.uniform(0, 1, (K, R)), axis=-1),
                          softmax(rng.uniform(0, 1, (R, K)), axis=-1)))
        elif kind == "uniform":
            pairs.append((np.full((K, R), 1.0 / R), np.full((R, K), 1.0 / K)))
        else:
            pairs.append((softmax(-np.log(beta + 1e-12), axis=-1),
                          softmax(-np.log(gamma + 1e-12), axis=-1)))
    return tuple(np.stack(side) for side in zip(*pairs))


@pytest.mark.parametrize("alternation_index", [0, 1])
@pytest.mark.parametrize("kind", INTERVENTION_KINDS)
def test_block_draw_is_the_per_sample_stream(kind, alternation_index):
    # distinct primes K=7, R=5, b=3: a transposed or misrouted half cannot fit
    betas, gammas = observed_block(3, 7, 5)
    block_rng, reference_rng = make_rng(11), make_rng(11)
    block = make_intervention_attention(kind, betas, gammas, block_rng, alternation_index)
    reference = per_sample_interventions(kind, betas, gammas, reference_rng, alternation_index)
    for got, want in zip(block, reference):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert block_rng.bit_generator.state == reference_rng.bit_generator.state


def test_one_intervention_call_per_training_block(monkeypatch):
    ds = prime_dataset()
    force_training_block(monkeypatch, ds, 2)
    module = importlib.import_module("mczsl.training")
    real, calls = module.make_intervention_attention, []

    def counting(kind, betas, gammas, *rest):
        calls.append(len(betas))
        return real(kind, betas, gammas, *rest)

    monkeypatch.setattr(module, "make_intervention_attention", counting)
    state = state_for_dataset(ds, make_rng(4))
    train_step(ds.split.train_idx[:5], ds, state, Hyperparams(), make_rng(2))
    assert calls == [2, 2, 1]  # one call per block of 2, not two per sample


class TestTrainStep:
    def test_zero_learning_rate_freezes_parameters(self, small_dataset):
        state = state_for_dataset(small_dataset, make_rng(0))
        before = clone_state(state)
        hp = Hyperparams(learning_rate=0.0, batch_size=4, epochs=1, seed=0)
        train_step(small_dataset.split.train_idx[:4], small_dataset, state, hp, make_rng(1))
        assert states_equal(before, state)

    def test_descent_on_repeated_small_batch(self, small_dataset):
        state = state_for_dataset(small_dataset, make_rng(0))
        hp = Hyperparams(learning_rate=1e-3, batch_size=2, epochs=1, seed=0)
        batch = small_dataset.split.train_idx[:2]
        rng = make_rng(5)
        first = train_step(batch, small_dataset, state, hp, rng).total
        last = first
        for _ in range(49):
            last = train_step(batch, small_dataset, state, hp, rng).total
        assert last < first

    def test_bit_identical_across_runs(self, small_dataset):
        finals = []
        for _ in range(2):
            state = state_for_dataset(small_dataset, make_rng(0))
            hp = Hyperparams(learning_rate=1e-3, batch_size=3, epochs=1, seed=0)
            rng = make_rng(9)
            for _ in range(5):
                train_step(small_dataset.split.train_idx[:3], small_dataset, state, hp, rng)
            finals.append(state)
        assert states_equal(finals[0], finals[1])

    def test_empty_batch_rejected(self, small_dataset):
        state = state_for_dataset(small_dataset, make_rng(0))
        with pytest.raises(ValueError, match="nonempty"):
            train_step([], small_dataset, state, Hyperparams(), make_rng(0))

    def test_report_satisfies_total_identity(self, small_dataset):
        state = state_for_dataset(small_dataset, make_rng(0))
        hp = Hyperparams(learning_rate=1e-3, batch_size=4)
        r = train_step(small_dataset.split.train_idx[:4], small_dataset, state, hp, make_rng(2))
        w = hp.loss_weights
        expected = (r.acec + w.lambda_ar * r.ar + w.lambda_causal * r.causal
                    + w.lambda_distill * r.distill)
        assert abs(r.total - expected) < 1e-9


def zero_grads(state):
    return {name: np.zeros_like(p) for name, p in state.params().items()}


class TestRmsprop:
    def test_zero_gradient_no_weight_decay_is_noop(self, small_dataset):
        state = state_for_dataset(small_dataset, make_rng(0))
        before = clone_state(state)
        rmsprop_update(state, zero_grads(state),
                       Hyperparams(learning_rate=0.1, weight_decay=0.0))
        assert states_equal(before, state)

    def test_decoupled_weight_decay_shrinks_parameters(self, small_dataset):
        state = state_for_dataset(small_dataset, make_rng(0))
        before = clone_state(state)
        hp = Hyperparams(learning_rate=0.5, weight_decay=0.1)
        rmsprop_update(state, zero_grads(state), hp)
        for name in state.params():
            assert np.allclose(state.params()[name],
                               before.params()[name] * (1 - 0.5 * 0.1), atol=1e-15)


class TestTrain:
    def test_zero_epochs_returns_initialized_state(self, small_dataset):
        hp = Hyperparams(epochs=0, seed=42)
        state, log = train(small_dataset, hp)
        from mczsl.numeric import spawn_rngs
        expected = state_for_dataset(small_dataset, spawn_rngs(42, 3)[0])
        assert states_equal(state, expected)
        assert log.epoch_reports == []

    def test_loss_trend_downward(self, small_dataset):
        hp = Hyperparams(learning_rate=3e-3, batch_size=4, epochs=10, seed=1)
        state, log = train(small_dataset, hp)
        assert len(log.epoch_reports) == 10
        assert log.epoch_reports[-1].total < log.epoch_reports[0].total

    def test_deterministic_given_seed(self, small_dataset):
        hp = Hyperparams(learning_rate=1e-3, batch_size=4, epochs=3, seed=7)
        s1, _ = train(small_dataset, hp)
        s2, _ = train(small_dataset, hp)
        assert states_equal(s1, s2)

    def test_intervention_stream_is_isolated_when_causal_weight_zero(self, small_dataset):
        weights = LossWeights(lambda_causal=0.0)
        base = dict(learning_rate=1e-3, batch_size=4, epochs=3, seed=7, loss_weights=weights)
        s1, _ = train(small_dataset, Hyperparams(**base, intervention_seed=111))
        s2, _ = train(small_dataset, Hyperparams(**base, intervention_seed=222))
        assert states_equal(s1, s2)

    def test_intervention_stream_matters_with_causal_loss(self, small_dataset):
        base = dict(learning_rate=1e-3, batch_size=4, epochs=3, seed=7)
        s1, _ = train(small_dataset, Hyperparams(**base, intervention_seed=111))
        s2, _ = train(small_dataset, Hyperparams(**base, intervention_seed=222))
        assert not states_equal(s1, s2)

    def test_no_training_samples_rejected(self, small_dataset):
        small_dataset.split.train_idx.clear()
        with pytest.raises(ValueError, match="no training samples"):
            train(small_dataset, Hyperparams(epochs=1, learning_rate=1e-3))

    def test_train_accuracy_counts_each_batch_before_its_update(self, default_dataset,
                                                                monkeypatch):
        # a train sample counts when it ranks its own class first under the
        # weights its own batch's forward used: before that batch's update
        from mczsl import training

        ds = default_dataset
        steps = []
        real_step = training.train_step

        def spy(batch, dataset, state, *args):
            steps.append((list(batch), clone_state(state)))
            return real_step(batch, dataset, state, *args)

        monkeypatch.setattr(training, "train_step", spy)
        hp = Hyperparams(learning_rate=3e-3, batch_size=50, epochs=1, seed=1)
        _, log = train(ds, hp)
        assert [len(batch) for batch, _ in steps] == [50, 48]
        # batch 1 under the initial weights, batch 2 under those after step 1
        initial, _ = train(ds, Hyperparams(batch_size=50, epochs=0, seed=1))
        assert states_equal(steps[0][1], initial)
        assert not states_equal(steps[1][1], initial)
        hits = sum(ranks_own_class_first(ds, state, i) for batch, state in steps for i in batch)
        expected = hits / len(ds.split.train_idx)
        assert 0.0 < expected < 1.0  # informative: neither all nor none
        assert log.train_accuracy == [expected]
        assert log.epoch_reports[0].correct == hits

    def test_short_final_batch_kept(self, small_dataset):
        # 6 train samples, batch 4 -> batches of 4 and 2
        assert len(small_dataset.split.train_idx) == 6
        hp = Hyperparams(learning_rate=1e-3, batch_size=4, epochs=1, seed=0)
        _, log = train(small_dataset, hp)
        assert len(log.epoch_reports) == 1


def test_gradient_fidelity_at_checkpoint(small_dataset):
    # a few steps in, the analytic batch gradient still matches central differences
    state = state_for_dataset(small_dataset, make_rng(1))
    hp = Hyperparams(learning_rate=1e-3, batch_size=3)
    rng = make_rng(2)
    for _ in range(3):
        train_step(small_dataset.split.train_idx[:3], small_dataset, state, hp, rng)

    frozen = frozen_interventions(small_dataset, 3)
    batch = small_dataset.split.train_idx[:3]

    def loss_fn(params):
        rep, grads = batch_loss_and_grads(batch, small_dataset, params,
                                          hp.loss_weights, replay(frozen))
        return rep.total, grads

    report = finite_difference_check(loss_fn, state.params(), epsilon=1e-5, tolerance=1e-4)
    assert report.passed, report


def prime_dataset(**dims):
    # distinct prime dimensions, so a transposed or misrouted axis cannot fit
    shape = dict(num_attributes=7, regions=5, feature_dim=11, attr_dim=13) | dims
    return build_dataset(num_classes=6, samples_per_class=4, n_unseen=3, seed=17, **shape)


def force_training_block(monkeypatch, ds, samples):
    monkeypatch.setattr(importlib.import_module("mczsl.training"), "TRAIN_BLOCK_VALUES",
                        samples * ds.num_regions * ds.feature_dim)


def frozen_interventions(ds, n, seed=3):
    """n per-sample (beta, gamma) random interventions from one block draw."""
    K, R = ds.num_attributes, ds.num_regions
    return list(zip(*make_intervention_attention(
        "random", np.zeros((n, K, R)), np.zeros((n, R, K)), make_rng(seed))))


def replay(frozen):
    """A block callback that hands out the frozen per-sample (beta, gamma) pairs."""
    def draw(positions, betas, gammas):
        pairs = frozen[positions]
        assert betas.shape[0] == gammas.shape[0] == len(pairs)
        return tuple(np.stack(side) for side in zip(*pairs))
    return draw


@pytest.mark.parametrize("block", [1, 2])
def test_directional_gradient_check_on_blocked_batch(monkeypatch, block):
    ds = prime_dataset()
    force_training_block(monkeypatch, ds, block)
    batch = ds.split.train_idx[:3]
    frozen = frozen_interventions(ds, len(batch))
    state = state_for_dataset(ds, make_rng(4))

    def loss_fn(params):
        rep, grads = batch_loss_and_grads(batch, ds, params, LossWeights(), replay(frozen))
        return rep.total, grads

    report = directional_check(loss_fn, state.params(), directions=3, seed=5)
    assert report.passed, report


def test_blocking_does_not_change_results(monkeypatch):
    ds = prime_dataset()
    batch = ds.split.train_idx[:5]
    frozen = frozen_interventions(ds, len(batch))
    params = state_for_dataset(ds, make_rng(4)).params()
    runs = {}
    for block in (1, 2, len(batch)):
        force_training_block(monkeypatch, ds, block)
        seen = []

        def draw(positions, betas, gammas):
            seen.append((positions, betas.copy(), gammas.copy()))
            return replay(frozen)(positions, betas, gammas)

        runs[block] = batch_loss_and_grads(batch, ds, params, LossWeights(), draw), seen
    (ref_report, ref_grads), ref_seen = runs[1]
    ref_betas = np.concatenate([betas for _, betas, _ in ref_seen])
    ref_gammas = np.concatenate([gammas for _, _, gammas in ref_seen])
    for block, ((report, grads), seen) in runs.items():
        for name in ("acec", "ar", "causal", "distill", "total"):
            a, b = getattr(report, name), getattr(ref_report, name)
            assert abs(a - b) <= 1e-12 * abs(b), name
        assert report.correct == ref_report.correct
        for name, g in grads.items():
            assert np.max(np.abs(g - ref_grads[name])) <= 1e-12 * np.max(np.abs(ref_grads[name]))
        # the blocks' positions tile the batch in order
        starts = list(range(0, len(batch), block))
        assert [(p.start, p.stop) for p, _, _ in seen] == [
            (start, min(start + block, len(batch))) for start in starts]
        assert np.array_equal(np.concatenate([betas for _, betas, _ in seen]), ref_betas)
        assert np.array_equal(np.concatenate([gammas for _, _, gammas in seen]), ref_gammas)


@pytest.mark.parametrize("block", [1, 2, 5])
def test_hit_count_matches_per_sample_forward(monkeypatch, block):
    # each row is judged by its own sample's fused seen-class score, whatever
    # block it falls in
    ds = prime_dataset()
    force_training_block(monkeypatch, ds, block)
    batch = ds.split.train_idx[:5]
    state = state_for_dataset(ds, make_rng(5))
    report, _ = batch_loss_and_grads(batch, ds, state.params(), LossWeights(),
                                     replay(frozen_interventions(ds, len(batch))))
    hits = sum(ranks_own_class_first(ds, state, i) for i in batch)
    assert 0 < hits < len(batch)  # informative: neither all nor none
    assert report.correct == hits


def test_train_step_draws_interventions_per_sample_in_batch_order(monkeypatch):
    # blocks of 2 over a batch of 5: the step's interventions are the per-sample
    # (beta, gamma) pairs of a same-seed stream, drawn in batch order
    ds = prime_dataset()
    force_training_block(monkeypatch, ds, 2)
    batch = ds.split.train_idx[:5]
    hp = Hyperparams(learning_rate=1e-3, batch_size=5, intervention="random")
    stepped = state_for_dataset(ds, make_rng(4))
    replayed = clone_state(stepped)
    train_step(batch, ds, stepped, hp, make_rng(9))
    _, grads = batch_loss_and_grads(batch, ds, replayed.params(), hp.loss_weights,
                                    replay(frozen_interventions(ds, len(batch), seed=9)))
    rmsprop_update(replayed, grads, hp)
    assert states_equal(stepped, replayed)


def test_tape_does_not_grow_with_the_block(monkeypatch):
    # the loss terms run once per block on its rows, so a block of 5 samples
    # builds as many tape nodes as a block of 1; after the block, the batch's
    # A w1 and A w2 add one two-node backward each (the product and its weight)
    ds = prime_dataset()
    frozen = frozen_interventions(ds, 5)
    params = state_for_dataset(ds, make_rng(4)).params()
    backward = Tensor.backward
    nodes = []

    def counting_backward(self, seed=1.0):
        nodes.append(len(_topo_order(self)))
        backward(self, seed)

    monkeypatch.setattr(Tensor, "backward", counting_backward)
    for block in (1, 5):
        force_training_block(monkeypatch, ds, block)
        batch_loss_and_grads(ds.split.train_idx[:block], ds, params, LossWeights(),
                             replay(frozen))
    assert len(nodes) == 6 and nodes[:3] == nodes[3:] and nodes[1:3] == [2, 2], nodes


def record_attribute_products(monkeypatch, ds):
    """Count the products of A (K x Da) with a Da x D weight: A w1 and A w2."""
    ad = importlib.import_module("mczsl.autodiff")
    matmul, shapes = ad.matmul, []

    def recording(a, b):
        shapes.append((np.shape(getattr(a, "data", a)), np.shape(getattr(b, "data", b))))
        return matmul(a, b)

    monkeypatch.setattr(ad, "matmul", recording)
    weight_side = ((ds.num_attributes, ds.attributes.shape[1]),
                   (ds.attributes.shape[1], ds.feature_dim))
    return lambda: shapes.count(weight_side)


def test_attribute_products_run_once_per_batch(monkeypatch):
    ds = prime_dataset()
    force_training_block(monkeypatch, ds, 1)
    batch = ds.split.train_idx[:5]
    params = state_for_dataset(ds, make_rng(4)).params()
    count = record_attribute_products(monkeypatch, ds)
    batch_loss_and_grads(batch, ds, params, LossWeights(),
                         replay(frozen_interventions(ds, len(batch))))
    assert count() == 2  # not 2 per block of 1


def test_attribute_products_run_once_per_predict_call(monkeypatch):
    from mczsl.evaluate import FusionConfig, class_scores, top_classes

    ds = prime_dataset()
    assert ds.num_samples == 24
    monkeypatch.setattr(importlib.import_module("mczsl.attr_visual"), "BLOCK_VALUES",
                        5 * ds.num_regions * ds.feature_dim)
    state = state_for_dataset(ds, make_rng(4))
    count = record_attribute_products(monkeypatch, ds)
    top_classes(class_scores(list(range(24)), state, ds, FusionConfig(setting="gzsl")),
                ds.split, "gzsl")
    assert count() == 2  # not 2 per block of 5


def test_non_finite_loss_names_the_dataset_sample(monkeypatch):
    ds = prime_dataset()
    force_training_block(monkeypatch, ds, 2)
    batch = ds.split.train_idx[2:6]
    bad = batch[3]  # second row of the second block
    assert bad not in (1, 3)
    ds.features[bad] *= 1e300
    frozen = frozen_interventions(ds, len(batch))
    params = state_for_dataset(ds, make_rng(4)).params()
    with np.errstate(all="ignore"), pytest.raises(NumericError,
                                                  match=rf"sample index {bad}$"):
        batch_loss_and_grads(batch, ds, params, LossWeights(), replay(frozen))


def test_training_memory_does_not_grow_with_the_batch(monkeypatch):
    # blocks of 2: only one block's graph is alive at a time, so doubling the
    # batch leaves the traced high-water where it was
    ds = prime_dataset(num_attributes=40, regions=49, feature_dim=256, attr_dim=30)
    force_training_block(monkeypatch, ds, 2)
    params = state_for_dataset(ds, make_rng(4)).params()
    peaks = []
    for n in (4, 8):
        batch = ds.split.train_idx[:n]
        frozen = frozen_interventions(ds, n)
        tracemalloc.start()
        try:
            batch_loss_and_grads(batch, ds, params, LossWeights(), replay(frozen))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.10 * peaks[0], peaks


class TestWeightContainer:
    def test_init_draws_the_five_weights_in_order(self):
        # the draw order fixes the bytes of every checkpoint a seed produces
        da, d = 3, 5
        state = init_state(da, d, make_rng(7))
        rng = make_rng(7)
        shapes = {"w1": (da, d), "w2": (da, d), "w3": (d, da), "w4": (d, da), "w_att": (d, da)}
        assert list(state.params()) == list(shapes)
        for name, (rows, cols) in shapes.items():
            expected = rng.uniform(-1 / np.sqrt(rows), 1 / np.sqrt(rows), (rows, cols))
            assert np.array_equal(state.params()[name], expected), name

    def test_params_is_the_dict_rmsprop_updates_in_place(self, small_dataset):
        state = state_for_dataset(small_dataset, make_rng(0))
        weights = state.params()
        arrays, before = dict(weights), clone_state(state)
        grads = {name: np.ones_like(p) for name, p in weights.items()}
        rmsprop_update(state, grads, Hyperparams(learning_rate=0.1))
        assert state.params() is weights
        for name, p in weights.items():
            assert p is arrays[name]
            assert not np.array_equal(p, before.params()[name])

    def test_checkpoint_loads_keys_in_order_with_side_shapes(self, tmp_path):
        da, d = 3, 5
        save_checkpoint(init_state(da, d, make_rng(0)), Hyperparams(), tmp_path / "ck", epoch=0)
        loaded, _ = load_checkpoint(tmp_path / "ck")
        assert tuple(loaded.params()) == PARAM_NAMES == ("w1", "w2", "w3", "w4", "w_att")
        assert [loaded.params()[name].shape for name in ATTR_SIDE] == [(da, d)] * 2
        assert [loaded.params()[name].shape for name in REGION_SIDE] == [(d, da)] * 3

    def test_checkpoint_shape_error_names_both_sides(self, tmp_path):
        state = init_state(3, 5, make_rng(0))
        state.params()["w3"] = state.params()["w3"].T
        save_checkpoint(state, Hyperparams(), tmp_path / "ck", epoch=0)
        with pytest.raises(FormatError, match=r"w3 has shape \(3, 5\), expected \(5, 3\) "
                                              r"\(w1, w2 are Da x D; w3, w4, w_att are D x Da\)"):
            load_checkpoint(tmp_path / "ck")


class TestDtypeContract:
    def test_checkpoint_weights_and_optimizer_state_stay_float64(self, tmp_path, small_dataset):
        hp = Hyperparams(learning_rate=0.01)
        save_checkpoint(state_for_dataset(small_dataset, make_rng(0)), hp, tmp_path / "ck",
                        epoch=0)
        state, _ = load_checkpoint(tmp_path / "ck")
        assert {p.dtype for p in state.params().values()} == {np.dtype(np.float64)}
        train_step(small_dataset.split.train_idx[:4], small_dataset, state, hp, make_rng(1))
        for group in (state.params(), state.sq_avg, state.momentum_buf):
            assert {p.dtype for p in group.values()} == {np.dtype(np.float64)}

    def test_float32_block_scores_equal_the_widened_block(self, small_dataset):
        ds = small_dataset
        weights = state_for_dataset(ds, make_rng(2)).params()
        products = av.query_products(ds.attributes, weights, ATTR_SIDE)
        block = ds.features[:5]
        assert block.dtype == np.float32
        narrow = av.forward_both(block, ds, products, weights)
        wide = av.forward_both(block.astype(np.float64), ds, products, weights)
        for a, b in zip(narrow, wide):
            assert a.attr_scores.data.tobytes() == b.attr_scores.data.tobytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path, small_dataset):
        state = state_for_dataset(small_dataset, make_rng(0))
        hp = Hyperparams(epochs=2, seed=5)
        save_checkpoint(state, hp, tmp_path / "ck", epoch=2)
        loaded, meta = load_checkpoint(tmp_path / "ck")
        for name in state.params():
            saved = state.params()[name].astype(np.float32).astype(np.float64)
            assert np.array_equal(loaded.params()[name], saved)
        assert meta["epoch"] == 2
        assert meta["seed"] == 5
        assert meta["hyperparams"]["batch_size"] == 50

    def test_metadata_has_no_wall_clock(self, tmp_path, small_dataset):
        state = state_for_dataset(small_dataset, make_rng(0))
        save_checkpoint(state, Hyperparams(), tmp_path / "ck", epoch=0)
        meta = json.loads((tmp_path / "ck" / "metadata.json").read_text())
        assert "seconds" not in json.dumps(meta)

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent")
