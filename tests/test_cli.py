import json
import shlex
import shutil
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np
import pytest

from conftest import fail_nth_write, fill_disk_after, put_nan, subnet_pass
from mczsl import attr_visual, cli, training
from mczsl.attr_visual import ATTR_SIDE
from mczsl.cli import PRESETS, build_parser, main, parse_config_file
from mczsl.data import SynthConfig, generate_synthetic, load_dataset, save_dataset
from mczsl.errors import ConfigError, FormatError
from mczsl.evaluate import FusionConfig
from mczsl.losses import LossWeights
from mczsl.numeric import make_rng
from mczsl.tensor_io import read_tensor, write_tensor
from mczsl.training import Hyperparams, init_state, load_checkpoint, save_checkpoint


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "ds"
    assert main(["gen-synth", "--out", str(d), "--seed", "1"]) == 0
    return d


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, data_dir):
    run = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(data_dir), "--out", str(run),
                 "--preset", "synthetic", "--epochs", "2", "--seed", "1"])
    assert code == 0
    return run


class TestGenSynth:
    def test_deterministic_directories(self, tmp_path):
        for name in ("a", "b"):
            assert main(["gen-synth", "--out", str(tmp_path / name), "--seed", "7"]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_too_few_classes_exits_2(self, tmp_path, capsys):
        code = main(["gen-synth", "--out", str(tmp_path / "x"), "--classes", "3"])
        assert code == 2
        assert "classes" in capsys.readouterr().err

    def test_overflowing_noise_exits_3_and_writes_nothing(self, data_dir, tmp_path, capsys):
        # a finite setting whose features overflow float32: the write refuses them
        fresh, earlier = tmp_path / "x", tmp_path / "earlier"
        shutil.copytree(data_dir, earlier)
        for out in (fresh, earlier):
            assert main(["gen-synth", "--out", str(out), "--seed", "2", "--noise", "1e300"]) == 3
            assert str(out / "features.msdt") in capsys.readouterr().err
        assert not (fresh / "manifest.json").exists()
        assert tree_bytes(fresh) == {}
        assert tree_bytes(earlier) == tree_bytes(data_dir)

    # 1e300 overflows the float32 cast, 1e308 already the float64 noise product
    @pytest.mark.parametrize("noise", ["1e300", "1e308"])
    def test_overflowing_noise_warns_nothing(self, tmp_path, recwarn, noise):
        assert main(["gen-synth", "--out", str(tmp_path / "x"), "--noise", noise]) == 3
        assert [w.message for w in recwarn if issubclass(w.category, RuntimeWarning)] == []

    def test_output_passes_validation(self, data_dir):
        ds = load_dataset(data_dir)
        assert ds.num_classes == 10


@pytest.mark.parametrize("argv,rule", [
    (["train", "--seed", "-1"], "seed >= 0"),
    (["train", "--intervention-seed", "-3"], "intervention_seed >= 0"),
    (["gen-synth", "--seed", "-1"], "seed must be >= 0"),
    (["intervene-compare", "--eval-only", "--seed", "-1"], "seed >= 0"),
], ids=["train_seed", "train_intervention_seed", "gen_synth_seed", "eval_only_seed"])
def test_negative_seed_exits_2_before_reading_files(tmp_path, capsys, argv, rule):
    # the dataset directory does not exist: reading it first would exit 3
    data = ["--data", str(tmp_path / "absent")] if argv[0] != "gen-synth" else []
    assert main(argv + data + ["--out", str(tmp_path / "out")]) == 2
    assert rule in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestTrain:
    def test_writes_checkpoint_and_log(self, data_dir, tmp_path):
        run = tmp_path / "run"
        code = main(["train", "--data", str(data_dir), "--out", str(run),
                     "--epochs", "1", "--seed", "1", "--learning-rate", "0.003"])
        assert code == 0
        assert (run / "checkpoint" / "metadata.json").exists()
        log = json.loads((run / "train_log.json").read_text())
        assert len(log) == 1

    def test_preset_cub_weight_bundle(self, data_dir, tmp_path):
        run = tmp_path / "run"
        code = main(["train", "--data", str(data_dir), "--out", str(run),
                     "--preset", "cub", "--epochs", "1", "--learning-rate", "0.003",
                     "--seed", "0"])
        assert code == 0
        meta = json.loads((run / "checkpoint" / "metadata.json").read_text())
        lw = meta["hyperparams"]["loss_weights"]
        assert lw == {"lambda_cal": 0.05, "lambda_ar": 0.03,
                      "lambda_causal": 0.3, "lambda_distill": 0.001}

    def test_identical_invocations_byte_identical_checkpoints(self, data_dir, tmp_path):
        flags = ["--epochs", "2", "--seed", "3", "--learning-rate", "0.003"]
        for name in ("r1", "r2"):
            assert main(["train", "--data", str(data_dir), "--out",
                         str(tmp_path / name), *flags]) == 0
        assert tree_bytes(tmp_path / "r1" / "checkpoint") == tree_bytes(tmp_path / "r2" / "checkpoint")

    def test_missing_dataset_exits_3(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "run"), "--epochs", "1"])
        assert code == 3

    def test_zero_learning_rate_exits_2(self, data_dir, tmp_path):
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                     "--epochs", "1", "--learning-rate", "0"])
        assert code == 2

    def test_does_not_mutate_dataset_directory(self, data_dir, tmp_path):
        before = tree_bytes(data_dir)
        main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
              "--epochs", "1", "--learning-rate", "0.003", "--seed", "0"])
        assert tree_bytes(data_dir) == before

    def test_unset_flags_keep_dataclass_defaults(self, data_dir, tmp_path):
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--out", str(run), "--epochs", "0"]) == 0
        meta = json.loads((run / "checkpoint" / "metadata.json").read_text())
        assert meta["hyperparams"] == asdict(Hyperparams(epochs=0))


def count_scored_rows(monkeypatch):
    """Rows of region features that reach attr_visual.forward_both, per call."""
    rows = []
    forward_both = attr_visual.forward_both

    def counting(V, *args):
        rows.append(len(V))
        return forward_both(V, *args)

    monkeypatch.setattr(attr_visual, "forward_both", counting)
    return rows


def scored_test_samples(data_dir) -> int:
    split = load_dataset(data_dir).split
    return len(split.test_unseen_idx) + len(split.test_seen_idx)


# JSON that the parser refuses past the syntax: nesting beyond the recursion
# limit, and an integer beyond Python's 4,300-digit string conversion limit
UNPARSABLE_INDEX = [
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deep_nesting"),
    pytest.param(b'{"epoch": ' + b"7" * 5001 + b"}", id="long_integer"),
]


class TestEval:
    def test_untrained_checkpoint_finite_metrics(self, data_dir, tmp_path):
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--out", str(run),
                     "--epochs", "0", "--learning-rate", "0.003", "--seed", "0"]) == 0
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(data_dir), "--checkpoint",
                     str(run / "checkpoint"), "--out", str(out), "--setting", "both"]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        for v in (report["czsl"]["czsl_acc"], report["gzsl"]["gzsl_h"]):
            assert np.isfinite(v)

    def test_gzsl_output_satisfies_harmonic_identity(self, data_dir, trained_run, tmp_path, capsys):
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(data_dir), "--checkpoint",
                     str(trained_run / "checkpoint"), "--out", str(out),
                     "--setting", "gzsl", "--csv"]) == 0
        printed = capsys.readouterr().out
        assert "U=" in printed and "S=" in printed and "H=" in printed
        rep = json.loads((out / "eval_report.json").read_text())["gzsl"]
        u, s, h = rep["gzsl_u"], rep["gzsl_s"], rep["gzsl_h"]
        expected = 0.0 if s + u == 0 else 2 * s * u / (s + u)
        assert abs(h - expected) < 1e-9
        assert (out / "per_class_gzsl.csv").exists()

    def test_failed_write_keeps_the_earlier_report(self, data_dir, trained_run, tmp_path,
                                                    monkeypatch):
        out = tmp_path / "eval"
        args = ["eval", "--data", str(data_dir), "--checkpoint",
                str(trained_run / "checkpoint"), "--out", str(out), "--csv"]
        assert main(args + ["--setting", "both"]) == 0
        before = tree_bytes(out)
        fill_disk_after(monkeypatch, 100)  # partway through eval_report.json
        assert main(args + ["--setting", "czsl"]) == 3
        assert tree_bytes(out) == before  # the earlier files, and no temporary file

    def test_both_settings_score_each_test_sample_once(self, data_dir, trained_run, tmp_path,
                                                       monkeypatch):
        rows = count_scored_rows(monkeypatch)
        assert main(["eval", "--data", str(data_dir), "--checkpoint",
                     str(trained_run / "checkpoint"), "--out", str(tmp_path / "eval"),
                     "--setting", "both"]) == 0
        assert sum(rows) == scored_test_samples(data_dir)

    def test_matches_library_evaluation(self, data_dir, trained_run, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(data_dir), "--checkpoint",
                     str(trained_run / "checkpoint"), "--out", str(out),
                     "--setting", "czsl"]) == 0
        from mczsl.evaluate import FusionConfig, evaluate
        ds = load_dataset(data_dir)
        state, _ = load_checkpoint(trained_run / "checkpoint")
        expected = evaluate(ds, state, FusionConfig(0.8, 0.2, "czsl"))
        got = json.loads((out / "eval_report.json").read_text())["czsl"]
        assert got["czsl_acc"] == pytest.approx(expected.czsl_acc, abs=1e-12)

    @pytest.mark.parametrize("corrupt", [
        b"{not json\n", b"\xff\xfe{}", b"[1,2]", b"{}",
        *[pytest.param(json.dumps({"epoch": 2, "hyperparams": {
            **asdict(Hyperparams()), key: value}}).encode(), id=f"{key}_{value}")
          for key, value in [("batch_size", 0), ("batch_size", 1.5), ("seed", "x"),
                             ("seed", -1), ("epochs", 2.0), ("intervention_seed", "y"),
                             ("intervention_seed", -3),
                             ("learning_rate", True), ("weight_decay", float("inf"))]],
        pytest.param(json.dumps({"epoch": 2, "hyperparams": {
            **asdict(Hyperparams()),
            "loss_weights": {**asdict(LossWeights()), "lambda_cal": True}}}).encode(),
            id="lambda_cal_True"),
        *UNPARSABLE_INDEX,
    ])
    def test_corrupt_checkpoint_metadata_exits_3(self, data_dir, trained_run, tmp_path,
                                                 capsys, corrupt):
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(trained_run / "checkpoint", ckpt)
        (ckpt / "metadata.json").write_bytes(corrupt)
        code = main(["eval", "--data", str(data_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "e")])
        assert code == 3
        assert str(ckpt / "metadata.json") in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda m: {"num_classes": [10]}, id="num_classes_list"),
        pytest.param(lambda m: {"class_names": 5}, id="class_names_int"),
        pytest.param(lambda m: {"train_idx": [True, False]}, id="train_idx_bools"),
        pytest.param(lambda m: {"num_classes": "ten"}, id="num_classes_string"),
        pytest.param(lambda m: {"num_classes": 10.7}, id="num_classes_float"),
        pytest.param(lambda m: {"train_idx": [0, 99999]}, id="train_idx_out_of_range"),
        pytest.param(lambda m: {"seen_classes": m["seen_classes"] + m["unseen_classes"][:1]},
                     id="seen_unseen_overlap"),
        *[pytest.param(lambda m, key=key: {key: None}, id=f"{key}_null")
          for key in ("attributes", "class_semantics", "features", "labels")],
        pytest.param(lambda m: {"features": 5}, id="features_int"),
        pytest.param(lambda m: {"features": "../data/features.msdt"}, id="features_outside"),
        pytest.param(lambda m: {"features": ""}, id="features_empty"),
        # pops the key from the manifest before the (then empty) update merges in
        pytest.param(lambda m: m.pop("labels") and {}, id="labels_key_missing"),
        pytest.param(lambda m: {"class_names": m["class_names"][:-1]}, id="class_names_short"),
        pytest.param(lambda m: {"attribute_names": m["attribute_names"][:-1]},
                     id="attribute_names_short"),
    ])
    def test_bad_manifest_field_exits_3(self, data_dir, trained_run, tmp_path, capsys, edit):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps(manifest | edit(manifest)))
        code = main(["eval", "--data", str(data), "--checkpoint",
                     str(trained_run / "checkpoint"), "--out", str(tmp_path / "e")])
        assert code == 3
        assert str(data / "manifest.json") in capsys.readouterr().err

    @pytest.mark.parametrize("name,corrupt", [
        ("features", lambda p: put_nan(p, 1234)),
        ("features", lambda p: write_tensor(p, read_tensor(p)[:, :, 0])),
        ("labels", lambda p: write_tensor(p, read_tensor(p)[:, None])),
    ], ids=["nan_feature", "rank_2_features", "rank_2_labels"])
    def test_bad_dataset_tensor_exits_3(self, data_dir, trained_run, tmp_path, capsys,
                                        name, corrupt):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        corrupt(data / f"{name}.msdt")
        code = main(["eval", "--data", str(data), "--checkpoint",
                     str(trained_run / "checkpoint"), "--out", str(tmp_path / "e")])
        assert code == 3
        assert str(data / f"{name}.msdt") in capsys.readouterr().err

    @pytest.mark.parametrize("name,corrupt,fields,invariant", [
        ("labels", lambda t: t[:-1], {}, "labels length must equal sample count"),
        ("class_semantics", lambda t: np.pad(t, ((0, 0), (0, 1))), {},
         "class_semantics columns must equal attribute count K"),
        ("attributes", lambda t: t[:1], {"num_attributes": 1},
         "K >= 2 (at least two attributes)"),
    ], ids=["labels_one_short", "class_semantics_k_plus_1_columns", "one_attribute"])
    def test_tensor_breaking_an_invariant_exits_3(self, data_dir, trained_run, tmp_path, capsys,
                                                  name, corrupt, fields, invariant):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        write_tensor(data / f"{name}.msdt", corrupt(read_tensor(data / f"{name}.msdt")))
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps(manifest | fields))
        code = main(["eval", "--data", str(data), "--checkpoint",
                     str(trained_run / "checkpoint"), "--out", str(tmp_path / "e")])
        assert code == 3
        assert capsys.readouterr().err == (f"error: {data / 'manifest.json'}: dataset "
                                           f"invariant violated: {invariant}\n")

    @pytest.mark.parametrize("corrupt", [lambda w: w[0], lambda w: w[None]],
                             ids=["rank_1", "rank_3"])
    def test_weight_that_is_not_a_matrix_exits_3(self, data_dir, trained_run, tmp_path, capsys,
                                                 corrupt):
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(trained_run / "checkpoint", ckpt)
        write_tensor(ckpt / "w1.msdt", corrupt(read_tensor(ckpt / "w1.msdt")))
        code = main(["eval", "--data", str(data_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "e")])
        assert code == 3
        assert f"{ckpt / 'w1.msdt'}: w1 must be a matrix" in capsys.readouterr().err

    def test_inconsistent_weight_shapes_exit_3(self, data_dir, trained_run, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(trained_run / "checkpoint", ckpt)
        w4 = read_tensor(ckpt / "w4.msdt")
        write_tensor(ckpt / "w4.msdt", w4[:-1])
        code = main(["eval", "--data", str(data_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "e")])
        assert code == 3
        assert str(ckpt / "w4.msdt") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "export-attention", "intervene-compare"])
    def test_checkpoint_for_other_shape_exits_3(self, data_dir, tmp_path, capsys, command):
        # weights that are consistent among themselves but one feature wider
        # than the dataset's regions
        ds = load_dataset(data_dir)
        state = init_state(ds.attributes.shape[1], ds.feature_dim + 1, make_rng(0))
        out = tmp_path / "out"
        ckpt = out / "intervene_random" / "checkpoint"
        save_checkpoint(state, Hyperparams(), ckpt, epoch=0)
        args = {"eval": ["--checkpoint", str(ckpt)],
                "export-attention": ["--checkpoint", str(ckpt), "--samples", "0"],
                "intervene-compare": ["--eval-only"]}[command]
        code = main([command, "--data", str(data_dir), "--out", str(out), *args])
        assert code == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and str(data_dir) in err

    @pytest.mark.parametrize("corrupt", UNPARSABLE_INDEX)
    def test_unparsable_manifest_exits_3(self, data_dir, trained_run, tmp_path, capsys, corrupt):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "manifest.json").write_bytes(corrupt)
        code = main(["eval", "--data", str(data), "--checkpoint",
                     str(trained_run / "checkpoint"), "--out", str(tmp_path / "e")])
        assert code == 3
        assert str(data / "manifest.json") in capsys.readouterr().err

    def test_non_utf8_manifest_exits_3(self, data_dir, trained_run, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "manifest.json").write_bytes(b"\xff\xfe{}")
        code = main(["eval", "--data", str(data), "--checkpoint",
                     str(trained_run / "checkpoint"), "--out", str(tmp_path / "e")])
        assert code == 3
        assert str(data / "manifest.json") in capsys.readouterr().err

    def test_overflowing_class_scores_exit_4(self, data_dir, trained_run, tmp_path, capsys,
                                             recwarn):
        # 1e308 fusion coefficients overflow every fused class score: no accuracy is
        # printed from an argmax over inf and NaN, and no report is written
        out = tmp_path / "eval"
        code = main(["eval", "--data", str(data_dir), "--checkpoint",
                     str(trained_run / "checkpoint"), "--out", str(out), "--setting", "both",
                     "--alpha1", "1e308", "--alpha2", "1e308"])
        first = load_dataset(data_dir).split.test_unseen_idx[0]
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == (f"error: non-finite fused class score at sample index {first} "
                                f"(alpha1=1e+308, alpha2=1e+308)\n")
        assert not out.exists() and not recwarn.list

    def test_bad_setting_exits_2(self, data_dir, trained_run, tmp_path):
        code = main(["eval", "--data", str(data_dir), "--checkpoint",
                     str(trained_run / "checkpoint"), "--out", str(tmp_path / "e"),
                     "--setting", "nope"])
        assert code == 2


class TestInterveneCompare:
    def test_four_rows_and_zero_causal_rows_identical(self, data_dir, tmp_path):
        out = tmp_path / "cmp"
        code = main(["intervene-compare", "--data", str(data_dir), "--out", str(out),
                     "--epochs", "1", "--seed", "2", "--learning-rate", "0.003",
                     "--lambda-causal", "0"])
        assert code == 0
        lines = (out / "intervene_table.csv").read_text().strip().splitlines()
        assert lines[0] == "kind,czsl_acc,gzsl_u,gzsl_s,gzsl_h"
        assert len(lines) == 5
        kinds = [ln.split(",")[0] for ln in lines[1:]]
        assert kinds == ["random", "uniform", "reversed", "random_plus_reversed"]
        metric_cells = {",".join(ln.split(",")[1:]) for ln in lines[1:]}
        assert len(metric_cells) == 1  # interventions only act through the causal loss

    def test_eval_only_reuses_checkpoints(self, data_dir, tmp_path):
        out = tmp_path / "cmp"
        assert main(["intervene-compare", "--data", str(data_dir), "--out", str(out),
                     "--epochs", "1", "--seed", "2", "--learning-rate", "0.003"]) == 0
        first = (out / "intervene_table.csv").read_text()
        assert main(["intervene-compare", "--data", str(data_dir), "--out", str(out),
                     "--eval-only"]) == 0
        assert (out / "intervene_table.csv").read_text() == first

    def test_eval_only_scores_each_test_sample_once_per_kind(self, data_dir, compare_run,
                                                            tmp_path, monkeypatch):
        out = tmp_path / "cmp"
        shutil.copytree(compare_run, out)
        rows = count_scored_rows(monkeypatch)
        assert main(["intervene-compare", "--data", str(data_dir), "--out", str(out),
                     "--eval-only"]) == 0
        assert sum(rows) == len(training.INTERVENTION_KINDS) * scored_test_samples(data_dir)

    def test_zero_learning_rate_only_refused_when_training(self, data_dir, compare_run,
                                                         tmp_path, capsys):
        out = tmp_path / "cmp"
        shutil.copytree(compare_run, out)
        assert main(["intervene-compare", "--data", str(data_dir), "--out", str(out),
                     "--eval-only", "--learning-rate", "0"]) == 0
        table = "intervene_table.csv"
        assert (out / table).read_bytes() == (compare_run / table).read_bytes()
        # training with it is refused before the dataset is read
        assert main(["intervene-compare", "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "train"), "--learning-rate", "0"]) == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "train").exists()

    def test_overflowing_class_scores_exit_4_and_save_no_checkpoint(self, data_dir, tmp_path,
                                                                    capsys):
        # each kind is scored before its checkpoint is saved, so the refusal
        # leaves no run directory and no table behind
        out = tmp_path / "cmp"
        code = main(["intervene-compare", "--data", str(data_dir), "--out", str(out),
                     "--preset", "synthetic", "--seed", "1", "--epochs", "2",
                     "--alpha1", "1e308", "--alpha2", "1e308"])
        assert code == 4
        assert "non-finite fused class score" in capsys.readouterr().err
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("kind,failing", [("dataset", n) for n in range(1, 6)]
                         + [("checkpoint", n) for n in range(1, 7)])
def test_failed_save_never_loads_a_mix(data_dir, trained_run, tmp_path, capsys, monkeypatch,
                                       kind, failing):
    # a save of other contents over an earlier directory, whose n-th file write
    # fails: a dataset writes 4 tensors and its manifest, a checkpoint 5 and its
    # metadata; the directory must load as before or be refused, never as a mix
    data, ckpt = tmp_path / "data", tmp_path / "checkpoint"
    shutil.copytree(data_dir, data)
    shutil.copytree(trained_run / "checkpoint", ckpt)
    target, index = (data, "manifest.json") if kind == "dataset" else (ckpt, "metadata.json")
    before = tree_bytes(target)
    fail_nth_write(monkeypatch, failing)
    with pytest.raises(OSError, match="No space left"):
        if kind == "dataset":
            save_dataset(generate_synthetic(SynthConfig(), seed=2), data)
        else:
            save_checkpoint(init_state(16, 16, make_rng(5)), Hyperparams(), ckpt, epoch=0)
    if (target / index).exists():
        assert tree_bytes(target) == before
    else:
        assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "e")]) == 3
        assert str(target / index) in capsys.readouterr().err


def test_refused_tensor_leaves_the_earlier_dataset(data_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    ds = generate_synthetic(SynthConfig(), seed=2)
    ds.attributes[0, 0] = np.nan
    with pytest.raises(FormatError, match="attributes.msdt"):
        save_dataset(ds, data)
    assert tree_bytes(data) == tree_bytes(data_dir)


@pytest.mark.parametrize("missing", ["run.cfg", "data/manifest.json", "data/features.msdt",
                                     "checkpoint/metadata.json", "checkpoint/w3.msdt"])
def test_missing_file_exits_3_naming_it(data_dir, trained_run, tmp_path, capsys, missing):
    shutil.copytree(data_dir, tmp_path / "data")
    shutil.copytree(trained_run / "checkpoint", tmp_path / "checkpoint")
    (tmp_path / "run.cfg").write_text("")
    (tmp_path / missing).unlink()
    code = main(["eval", "--data", str(tmp_path / "data"), "--checkpoint",
                 str(tmp_path / "checkpoint"), "--out", str(tmp_path / "e"),
                 "--config", str(tmp_path / "run.cfg")])
    assert code == 3
    assert str(tmp_path / missing) in capsys.readouterr().err


@pytest.mark.parametrize("key", ["test_unseen_idx", "test_seen_idx"])
@pytest.mark.parametrize("command", ["eval", "intervene-compare"])
def test_empty_test_split_exits_3_before_training_or_checkpoint(data_dir, tmp_path, capsys,
                                                                 command, key):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    manifest = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(json.dumps(manifest | {key: []}))
    out = tmp_path / "out"
    # eval names a checkpoint that does not exist: the split check comes first
    args = {"eval": ["--checkpoint", str(tmp_path / "absent"), "--setting", "both"],
            "intervene-compare": ["--preset", "synthetic", "--epochs", "1"]}[command]
    assert main([command, "--data", str(data), "--out", str(out), *args]) == 3
    err = capsys.readouterr().err
    assert f"{data / 'manifest.json'}: " in err and f"nonempty {key}" in err
    assert not out.exists()
    assert not list(tmp_path.rglob("intervene_*"))


@pytest.mark.parametrize("command", ["train", "intervene-compare"])
def test_empty_train_split_exits_3_before_any_output(data_dir, tmp_path, capsys, command):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    manifest = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(json.dumps(manifest | {"train_idx": []}))
    out = tmp_path / "out"
    assert main([command, "--data", str(data), "--out", str(out), "--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert f"{data / 'manifest.json'}: " in err and "nonempty train_idx" in err
    assert not out.exists()
    # a run that trains nothing still accepts the dataset
    assert main([command, "--data", str(data), "--out", str(out), "--epochs", "0"]) == 0
    if command == "intervene-compare":
        assert main([command, "--data", str(data), "--out", str(out), "--epochs", "1",
                     "--eval-only"]) == 0


class TestExportAttention:
    def test_exports_match_forward_pass(self, data_dir, trained_run, tmp_path):
        out = tmp_path / "attn"
        assert main(["export-attention", "--data", str(data_dir), "--checkpoint",
                     str(trained_run / "checkpoint"), "--out", str(out),
                     "--samples", "0,5", "--top-n", "4"]) == 0
        ds = load_dataset(data_dir)
        state, _ = load_checkpoint(trained_run / "checkpoint")
        beta = read_tensor(out / "sample_0_region_attention.msdt")
        assert beta.shape == (ds.num_attributes, ds.num_regions)
        assert np.max(np.abs(beta.sum(axis=1) - 1.0)) < 1e-6
        fwd = subnet_pass(ds.features[0], ds.attributes, ds.class_semantics, state.weights,
                          ATTR_SIDE)
        expected = fwd.attention.data.astype(np.float32).astype(np.float64)
        assert np.array_equal(beta, expected)
        gamma = read_tensor(out / "sample_0_attribute_attention.msdt")
        assert gamma.shape == (ds.num_regions, ds.num_attributes)

    def test_top_n_file_sorted_descending(self, data_dir, trained_run, tmp_path):
        out = tmp_path / "attn"
        assert main(["export-attention", "--data", str(data_dir), "--checkpoint",
                     str(trained_run / "checkpoint"), "--out", str(out),
                     "--samples", "3", "--top-n", "5"]) == 0
        lines = (out / "sample_3_top_attributes.txt").read_text().strip().splitlines()
        assert len(lines) == 5
        scores = [float(ln.split("\t")[2]) for ln in lines]
        assert scores == sorted(scores, reverse=True)

    def test_blocks_do_not_change_exports(self, monkeypatch, data_dir, trained_run, tmp_path):
        # samples are scored in blocks; one sample per block writes the same bytes
        outputs = []
        for block_values in (attr_visual.BLOCK_VALUES, 1):
            monkeypatch.setattr(attr_visual, "BLOCK_VALUES", block_values)
            out = tmp_path / f"attn_{block_values}"
            assert main(["export-attention", "--data", str(data_dir), "--checkpoint",
                         str(trained_run / "checkpoint"), "--out", str(out),
                         "--samples", "7,0,5,7"]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(outputs[0]) == 3 * 5 and outputs[0] == outputs[1]

    def test_bad_sample_index_exits_2(self, data_dir, trained_run, tmp_path):
        # every index is checked before anything is written, so a bad one
        # after a good one leaves no partial output
        for samples in ("99999", "0,99999"):
            code = main(["export-attention", "--data", str(data_dir), "--checkpoint",
                         str(trained_run / "checkpoint"), "--out", str(tmp_path / "a"),
                         "--samples", samples])
            assert code == 2
            assert not (tmp_path / "a").exists()


class TestConfigFile:
    def test_parse_and_override(self, data_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nepochs=1\nlearning_rate=0.003\nseed=5\n")
        values = parse_config_file(cfg)
        assert values == {"epochs": 1, "learning_rate": 0.003, "seed": 5}
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--out", str(run),
                     "--config", str(cfg), "--seed", "9"]) == 0
        meta = json.loads((run / "checkpoint" / "metadata.json").read_text())
        assert meta["hyperparams"]["epochs"] == 1  # from file
        assert meta["seed"] == 9  # flag wins over file

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed=9\n")
        with pytest.raises(ConfigError, match="warp_speed"):
            parse_config_file(cfg)

    def test_unknown_key_exit_code(self, data_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed=9\n")
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                     "--config", str(cfg)])
        assert code == 2

    def test_repeated_key_rejected(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("epochs=3\n# again\nlearning_rate=0.003\nepochs=5\n")
        message = f"{cfg}:4: key 'epochs' already set on line 1"
        with pytest.raises(ConfigError) as raised:
            parse_config_file(cfg)
        assert str(raised.value) == message
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                     "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_file(cfg)

    def test_non_utf8_file_named(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="bad.cfg"):
            parse_config_file(cfg)
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                     "--config", str(cfg)])
        assert code == 2
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("command,line,message", [
        ("train", "epochs=abc", "bad value for epochs: 'abc'"),
        ("train", "intervention_seed=None", "bad value for intervention_seed: 'None'"),
        ("eval", "setting=both2", "setting must be czsl, gzsl, or both, got 'both2'"),
    ])
    def test_bad_value_exits_2(self, data_dir, trained_run, tmp_path, capsys, command, line,
                               message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        inputs = {"train": [], "eval": ["--checkpoint", str(trained_run / "checkpoint")]}
        code = main([command, "--data", str(data_dir), *inputs[command],
                     "--out", str(tmp_path / "r"), "--config", str(cfg)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key", ["data", "out", "checkpoint", "preset", "samples"])
    def test_non_setting_keys_rejected(self, tmp_path, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}=x\n")
        with pytest.raises(ConfigError, match=key):
            parse_config_file(cfg)


def _names(cls):
    return {f.name for f in fields(cls)}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_are_config_keys_that_build_settings(tmp_path, preset):
    values = PRESETS[preset]
    cfg = tmp_path / "preset.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    assert parse_config_file(cfg) == values

    def pick(cls):
        return {k: v for k, v in values.items() if k in _names(cls)}
    Hyperparams(**pick(Hyperparams), loss_weights=LossWeights(**pick(LossWeights)))
    FusionConfig(**pick(FusionConfig))
    assert set(values) <= _names(Hyperparams) | _names(LossWeights) | _names(FusionConfig)


# README's preset table: (lambda_cal, lambda_ar, lambda_causal, lambda_distill), (alpha1, alpha2)
PRESET_TABLE = {
    "cub": ((0.05, 0.03, 0.3, 0.001), (0.8, 0.2)),
    "sun": ((0.0001, 0.01, 0.0005, 0.05), (0.7, 0.3)),
    "awa2": ((0.4, 0.06, 0.1, 0.01), (0.8, 0.2)),
    "synthetic": ((0.05, 0.03, 0.3, 0.001), (0.8, 0.2)),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_resolves_to_the_readme_table(preset):
    args = build_parser().parse_args(["train", "--data", "d", "--out", "o", "--preset", preset])
    cfg = cli._resolve(args)
    hp, fusion = cli._hyperparams(cfg), cli._from_cfg(FusionConfig, cfg)
    assert astuple(hp.loss_weights) == PRESET_TABLE[preset][0]
    assert (fusion.alpha1, fusion.alpha2) == PRESET_TABLE[preset][1]
    if preset == "synthetic":
        assert (hp.learning_rate, hp.epochs) == (0.003, 30)


def test_presets_list_only_what_they_change():
    defaults = {name: default for cls in (Hyperparams, FusionConfig)
                for name, _, default in cli._settings(cls)}
    restated = [(preset, key) for preset, values in PRESETS.items()
                for key, value in values.items() if value == defaults[key]]
    assert not restated


# a valid value other than the dataclass default for every settings field
FIELD_VALUES = {
    "learning_rate": 0.002, "batch_size": 7, "epochs": 1, "momentum": 0.5,
    "weight_decay": 0.001, "rms_decay": 0.9, "rms_epsilon": 1e-6,
    "lambda_cal": 0.1, "lambda_ar": 0.2, "lambda_causal": 0.4, "lambda_distill": 0.5,
    "intervention": "uniform", "seed": 4, "intervention_seed": 8,
    "alpha1": 0.0, "alpha2": 1.0,
    "classes": 8, "attributes": 10, "regions": 5, "feature_dim": 8, "attr_dim": 8,
    "samples_per_class": 6, "unseen_fraction": 0.5, "noise": 0.2,
}
HP_FIELDS = sorted((_names(Hyperparams) - {"loss_weights"}) | _names(LossWeights))
REACHABLE = (
    [("gen-synth", n) for n in sorted(_names(SynthConfig))]
    + [("train", n) for n in HP_FIELDS]
    + [("eval", n) for n in sorted(_names(FusionConfig) - {"setting"})]
    + [("intervene-compare", n) for n in HP_FIELDS if n != "intervention"]
    + [("intervene-compare", n) for n in sorted(_names(FusionConfig) - {"setting"})]
)


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cmp")
    assert main(["intervene-compare", "--data", str(data_dir), "--out", str(out),
                 "--epochs", "1", "--seed", "2", "--learning-rate", "0.003"]) == 0
    return out


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command,name", REACHABLE)
def test_every_field_is_reachable(command, name, via, data_dir, trained_run,
                                  compare_run, tmp_path):
    """Each field a subcommand builds can be set by flag and by config key, and
    the value reaches the checkpoint, the report or the dataset."""
    value = FIELD_VALUES[name]
    out = tmp_path / "out"
    trains = command in ("train", "intervene-compare") and name in HP_FIELDS
    settings = {"epochs": 0, "learning_rate": 0.003} if trains else {}
    if via == "config":
        settings[name] = value
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    argv = [command, "--out", str(out), "--config", str(cfg)]
    if via == "flag":
        argv += [f"--{name.replace('_', '-')}", str(value)]
    if command == "gen-synth":
        assert main(argv + ["--seed", "1"]) == 0
        assert tree_bytes(out) != tree_bytes(data_dir)
        return
    argv += ["--data", str(data_dir)]
    if trains:
        assert main(argv) == 0
        ckpt = out / ("checkpoint" if command == "train" else "intervene_random/checkpoint")
        hp = json.loads((ckpt / "metadata.json").read_text())["hyperparams"]
        hp.update(hp.pop("loss_weights"))
        assert hp[name] == value
    elif command == "eval":
        ckpt = str(trained_run / "checkpoint")
        assert main(argv + ["--checkpoint", ckpt]) == 0
        assert main(["eval", "--data", str(data_dir), "--checkpoint", ckpt,
                     "--out", str(tmp_path / "default")]) == 0
        report = "eval_report.json"
        assert (out / report).read_bytes() != (tmp_path / "default" / report).read_bytes()
    else:
        shutil.copytree(compare_run, out)
        assert main(argv + ["--eval-only"]) == 0
        table = "intervene_table.csv"
        assert (out / table).read_bytes() != (compare_run / table).read_bytes()


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("mczsl ")]
    assert {argv[1] for argv in commands} == {
        "gen-synth", "train", "eval", "intervene-compare", "export-attention"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


@pytest.mark.parametrize("command,flag,value", [
    ("eval", "--alpha1", "nan"), ("train", "--learning-rate", "inf"),
    ("train", "--lambda-cal", "inf"), ("gen-synth", "--noise", "inf")])
def test_non_finite_setting_exits_2(command, flag, value, data_dir, trained_run, tmp_path,
                                    capsys):
    inputs = {"eval": ["--data", str(data_dir), "--checkpoint", str(trained_run / "checkpoint")],
              "train": ["--data", str(data_dir)], "gen-synth": []}[command]
    assert main([command, *inputs, "--out", str(tmp_path / "out"), flag, value]) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


def test_eval_checks_settings_before_loading(tmp_path, capsys):
    # a bad setting is a configuration error even when the inputs are missing too
    missing = tmp_path / "missing"
    argv = ["eval", "--data", str(missing), "--checkpoint", str(missing),
            "--out", str(tmp_path / "out"), "--alpha1", "nan"]
    assert main(argv) == 2
    assert "alpha1" in capsys.readouterr().err


@pytest.mark.parametrize("samples,message", [("a,b", "comma-separated integers"),
                                             (",", "no sample indices")])
def test_export_attention_checks_samples_before_loading(tmp_path, capsys, samples, message):
    # a malformed --samples is a configuration error even when the inputs are
    # missing too, and no output directory is created for it
    missing, out = tmp_path / "missing", tmp_path / "out"
    argv = ["export-attention", "--data", str(missing), "--checkpoint", str(missing),
            "--out", str(out), "--samples", samples]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("top_n", [0, -3])
def test_export_attention_refuses_top_n_below_one(tmp_path, capsys, top_n, via):
    # refused before the (missing) inputs are read, and no output directory is made
    missing, out = tmp_path / "missing", tmp_path / "out"
    argv = ["export-attention", "--data", str(missing), "--checkpoint", str(missing),
            "--out", str(out), "--samples", "0"]
    if via == "flag":
        argv += ["--top-n", str(top_n)]
    else:
        (tmp_path / "run.cfg").write_text(f"top_n={top_n}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 2
    assert "top_n" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    assert main(["transmogrify"]) == 2
