"""Acceptance gate: one test per release criterion, each printing a PASS line
with the measured quantity (run with -s or -v to see them)."""
import struct
import time

import numpy as np
import pytest

from conftest import build_dataset, subnet_pass
from mczsl import attr_visual, visual_attr
from mczsl.attr_visual import ATTR_SIDE, REGION_SIDE
from mczsl.cli import main
from mczsl.data import SynthConfig, generate_synthetic, load_dataset, save_dataset
from mczsl.errors import DataValidationError, FormatError
from mczsl.evaluate import FusionConfig, evaluate, harmonic_mean
from mczsl.gradcheck import finite_difference_check
from mczsl.losses import LossWeights, ar_loss, causal_loss, distill_loss
from mczsl.numeric import make_rng, softmax
from mczsl.tensor_io import read_tensor, write_tensor
from mczsl.training import (
    Hyperparams,
    batch_loss_and_grads,
    make_intervention_attention,
    train,
)
from test_losses import make_split, seen_ce_oracle

SYNTH_WEIGHTS = LossWeights(0.05, 0.03, 0.3, 0.001)
SYNTH_HP = dict(learning_rate=0.003, batch_size=50, epochs=30, loss_weights=SYNTH_WEIGHTS)


def report_pass(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def test_gradient_fidelity_full_model():
    """Full combined loss, both sub-nets, all five matrices, small instance."""
    start = time.perf_counter()
    ds = build_dataset(num_classes=3, num_attributes=4, regions=3, feature_dim=5,
                       attr_dim=4, samples_per_class=2, n_unseen=1, seed=13)
    from mczsl.training import state_for_dataset
    state = state_for_dataset(ds, make_rng(21))
    K, R = ds.num_attributes, ds.num_regions
    irng = make_rng(22)
    batch = ds.split.train_idx
    frozen = list(zip(*make_intervention_attention(
        "random", np.zeros((len(batch), K, R)), np.zeros((len(batch), R, K)), irng)))

    def loss_fn(params):
        rep, grads = batch_loss_and_grads(batch, ds, params, SYNTH_WEIGHTS,
                                          lambda p, b, g: tuple(map(np.stack, zip(*frozen[p]))))
        return rep.total, grads

    report = finite_difference_check(loss_fn, state.params(), epsilon=1e-5, tolerance=1e-4)
    elapsed = time.perf_counter() - start
    assert report.max_relative_error < 1e-4, report
    assert elapsed < 10.0
    report_pass("gradient-fidelity",
                f"max rel err {report.max_relative_error:.2e} in {elapsed:.2f}s")


def test_normalization_suite():
    """1000 random attention rows sum to 1 +- 1e-6; softmax shift-invariance 1e-9."""
    rng = make_rng(33)
    worst_row = 0.0
    for _ in range(1000):
        k, r, d, da = rng.integers(2, 7), rng.integers(1, 7), rng.integers(2, 6), rng.integers(2, 6)
        V = rng.standard_normal((r, d))
        A = rng.standard_normal((k, da))
        ap = {"w1": rng.standard_normal((da, d)), "w2": np.zeros((da, d))}
        vp = {"w3": rng.standard_normal((d, da)), "w4": np.zeros((d, da)),
              "w_att": np.zeros((d, da))}
        beta = subnet_pass(V, A, np.eye(k), ap, ATTR_SIDE).attention.data
        gamma = subnet_pass(V, A, np.eye(k), vp, REGION_SIDE).attention.data
        worst_row = max(worst_row,
                        float(np.max(np.abs(beta.sum(axis=1) - 1.0))),
                        float(np.max(np.abs(gamma.sum(axis=1) - 1.0))))
    assert worst_row < 1e-6

    worst_shift = 0.0
    for _ in range(1000):
        v = rng.standard_normal(rng.integers(1, 12)) * 10.0
        c = float(rng.uniform(-100.0, 100.0))
        worst_shift = max(worst_shift, float(np.max(np.abs(softmax(v) - softmax(v + c)))))
    assert worst_shift < 1e-9
    report_pass("normalization-suite",
                f"worst row dev {worst_row:.2e}, worst shift dev {worst_shift:.2e}")


def test_null_intervention_identities():
    """Forcing the learned attention reproduces the observed logits bit-exactly."""
    rng = make_rng(44)
    for trial in range(50):
        k, r, d, da, c = 4, 3, 5, 4, 3
        V = rng.standard_normal((r, d))
        A = rng.standard_normal((k, da))
        Z = rng.random((c, k))
        ap = {"w1": rng.standard_normal((da, d)),
              "w2": rng.standard_normal((da, d))}
        vp = {"w3": rng.standard_normal((d, da)),
              "w4": rng.standard_normal((d, da)),
              "w_att": rng.standard_normal((d, da))}
        f1 = subnet_pass(V, A, Z, ap, ATTR_SIDE)
        logits1_bar = attr_visual.intervened(f1, f1.attention.data).logits
        assert np.array_equal(logits1_bar.data, f1.logits.data)
        effect1 = attr_visual.causal_effect(f1.logits, logits1_bar)
        assert np.all(effect1 == 0.0)
        f2 = subnet_pass(V, A, Z, vp, REGION_SIDE)
        logits2_bar = visual_attr.intervened(f2, f2.attention.data).logits
        assert np.array_equal(logits2_bar.data, f2.logits.data)
        assert np.all(attr_visual.causal_effect(f2.logits, logits2_bar) == 0.0)
    report_pass("null-intervention", "50 random instances bit-exact, effects exactly zero")


def test_detachment_under_zero_causal_weight(default_dataset):
    """Different intervention streams, zero causal weight: identical weights."""
    weights = LossWeights(0.05, 0.03, 0.0, 0.001)
    base = dict(learning_rate=0.003, batch_size=50, epochs=5, seed=1,
                loss_weights=weights)
    s1, _ = train(default_dataset, Hyperparams(**base, intervention_seed=1001))
    s2, _ = train(default_dataset, Hyperparams(**base, intervention_seed=2002))
    for name in s1.params():
        assert np.array_equal(s1.params()[name], s2.params()[name]), name
    report_pass("detachment", "5 epochs, two intervention streams, bit-identical weights")


def test_loss_identities():
    rng = make_rng(55)
    # distillation: zero at identity, exactly symmetric
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = rng.random(n); p /= p.sum()
        q = rng.random(n); q /= q.sum()
        assert distill_loss(p, p.copy()).item() == 0.0
        assert distill_loss(p, q).item() == distill_loss(q, p).item()
    # regression: zero iff exact match
    f = rng.standard_normal(16)
    assert ar_loss(f, f.copy()).item() == 0.0
    assert ar_loss(f, f + 1e-8).item() > 0.0
    # causal under a null intervention doubles the cross-entropy
    worst = 0.0
    for _ in range(100):
        emb = rng.standard_normal(4)
        Z = rng.random((3, 4))
        split = make_split([0, 1], [2])
        ce = seen_ce_oracle(emb, 0, Z, [0, 1])
        worst = max(worst, abs(causal_loss(Z @ emb, Z @ emb, 0, split).item() - 2 * ce))
    assert worst < 1e-9
    report_pass("loss-identities", f"causal(f,f) vs 2*CE worst dev {worst:.2e}")


def test_harmonic_mean_reproduction():
    published = harmonic_mean(60.1, 48.4)
    assert abs(published - 53.6) <= 0.05
    rng = make_rng(66)
    worst = 0.0
    for _ in range(100):
        s, u = rng.uniform(0.001, 1.0, size=2)
        worst = max(worst, abs(harmonic_mean(s, u) - 2 * s * u / (s + u)))
    assert worst < 1e-9
    report_pass("harmonic-mean", f"U=48.4,S=60.1 -> H={published:.3f}; grid dev {worst:.1e}")


def test_synthetic_end_to_end(default_dataset):
    """Default synthetic data, 30 epochs, fixed seed: CZSL >= 0.90, H >= 0.70."""
    start = time.perf_counter()
    hp = Hyperparams(**SYNTH_HP, seed=1)
    state, log = train(default_dataset, hp)
    assert log.epoch_reports[-1].total < log.epoch_reports[0].total
    czsl = evaluate(default_dataset, state, FusionConfig(0.8, 0.2, "czsl"))
    gzsl = evaluate(default_dataset, state, FusionConfig(0.8, 0.2, "gzsl"))
    elapsed = time.perf_counter() - start
    assert czsl.czsl_acc >= 0.90, czsl.czsl_acc
    assert gzsl.gzsl_h >= 0.70, (gzsl.gzsl_u, gzsl.gzsl_s, gzsl.gzsl_h)
    assert elapsed < 300.0
    report_pass("synthetic-end-to-end",
                f"CZSL {czsl.czsl_acc:.3f}, H {gzsl.gzsl_h:.3f} in {elapsed:.1f}s")


def test_intervention_ablation(default_dataset, tmp_path):
    """4 table rows; identical rows at zero causal weight; every kind within
    0.02 of the no-causal-supervision baseline's H or better."""
    data_dir = tmp_path / "data"
    save_dataset(default_dataset, data_dir)

    # shape + zero-weight invariance through the CLI (cheap: 1 epoch)
    out0 = tmp_path / "cmp0"
    assert main(["intervene-compare", "--data", str(data_dir), "--out", str(out0),
                 "--epochs", "1", "--seed", "1", "--learning-rate", "0.003",
                 "--lambda-causal", "0"]) == 0
    lines = (out0 / "intervene_table.csv").read_text().strip().splitlines()
    assert len(lines) == 5
    assert len({",".join(ln.split(",")[1:]) for ln in lines[1:]}) == 1

    # full synthetic preset comparison
    out = tmp_path / "cmp"
    assert main(["intervene-compare", "--data", str(data_dir), "--out", str(out),
                 "--preset", "synthetic", "--seed", "1"]) == 0
    rows = (out / "intervene_table.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4
    h_by_kind = {ln.split(",")[0]: float(ln.split(",")[4]) for ln in rows}

    baseline_weights = LossWeights(0.05, 0.03, 0.0, 0.001)
    base_state, _ = train(default_dataset, Hyperparams(
        learning_rate=0.003, batch_size=50, epochs=30, seed=1,
        loss_weights=baseline_weights))
    baseline_h = evaluate(default_dataset, base_state,
                          FusionConfig(0.8, 0.2, "gzsl")).gzsl_h
    for kind, h in h_by_kind.items():
        assert h >= baseline_h - 0.02, (kind, h, baseline_h)
    report_pass("intervention-ablation",
                f"baseline H {baseline_h:.3f}; kinds " +
                " ".join(f"{k}={v:.3f}" for k, v in h_by_kind.items()))


def test_full_run_determinism(default_dataset, tmp_path):
    """Identical seeds give byte-identical checkpoints and evaluation reports."""
    data_dir = tmp_path / "data"
    save_dataset(default_dataset, data_dir)
    blobs = []
    for name in ("r1", "r2"):
        run = tmp_path / name
        assert main(["train", "--data", str(data_dir), "--out", str(run),
                     "--preset", "synthetic", "--epochs", "5", "--seed", "1"]) == 0
        assert main(["eval", "--data", str(data_dir),
                     "--checkpoint", str(run / "checkpoint"),
                     "--out", str(run), "--setting", "both"]) == 0
        ckpt = {p.name: p.read_bytes() for p in sorted((run / "checkpoint").iterdir())}
        blobs.append((ckpt, (run / "eval_report.json").read_bytes()))
    assert blobs[0] == blobs[1]
    report_pass("determinism", "checkpoints and reports byte-identical across runs")


def test_format_robustness_fuzz(tmp_path):
    """50 corrupted tensor files all raise typed format errors, never crash."""
    rng = make_rng(99)
    base = tmp_path / "base.msdt"
    write_tensor(base, rng.standard_normal((4, 5)))
    blob = base.read_bytes()
    failures = 0
    for case in range(50):
        mode = case % 5
        mutated = bytearray(blob)
        if mode == 0:  # truncate somewhere
            cut = int(rng.integers(0, len(blob)))
            mutated = mutated[:cut]
        elif mode == 1:  # corrupt magic
            mutated[int(rng.integers(0, 4))] ^= 0xFF
        elif mode == 2:  # corrupt version or rank
            mutated[int(rng.integers(4, 6))] ^= 0xFF
        elif mode == 3:  # inflate a dim so the payload is short
            dim = int(rng.integers(0, 2))
            mutated[6 + 4 * dim:10 + 4 * dim] = struct.pack("<I", 10_000 + case)
        else:  # append trailing garbage
            mutated.extend(b"\x7f" * int(rng.integers(1, 9)))
        path = tmp_path / f"case_{case}.msdt"
        path.write_bytes(bytes(mutated))
        try:
            read_tensor(path)
        except (FormatError, FileNotFoundError):
            failures += 1
        # any other exception propagates and fails the test
    assert failures == 50
    report_pass("format-robustness", "50/50 corrupted files raised clean format errors")


def test_dataset_fuzz_through_loader(tmp_path):
    """Corruption inside a dataset directory surfaces as typed errors too."""
    ds = generate_synthetic(SynthConfig(classes=4, attributes=4, regions=2,
                                        feature_dim=3, attr_dim=3,
                                        samples_per_class=2), seed=0)
    rng = make_rng(5)
    for case in range(10):
        d = tmp_path / f"d{case}"
        save_dataset(ds, d)
        target = d / "features.msdt"
        blob = bytearray(target.read_bytes())
        cut = int(rng.integers(0, len(blob)))
        target.write_bytes(bytes(blob[:cut]))
        with pytest.raises((FormatError, FileNotFoundError, DataValidationError)):
            load_dataset(d)
