import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mczsl.data import (
    Dataset,
    Split,
    SynthConfig,
    datasets_equal,
    generate_synthetic,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from mczsl.errors import ConfigError, DataValidationError, FormatError
from mczsl.tensor_io import write_tensor


def dir_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestGenerator:
    def test_default_config_is_valid_and_loadable(self, tmp_path):
        ds = generate_synthetic(SynthConfig(), seed=0)
        assert ds.num_classes == 10
        assert ds.num_attributes == 12
        assert ds.num_regions == 9
        assert ds.feature_dim == 16
        assert ds.num_samples == 200
        save_dataset(ds, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert datasets_equal(ds, loaded)

    def test_same_seed_identical_bytes_after_save(self, tmp_path):
        for i, name in enumerate(("a", "b")):
            save_dataset(generate_synthetic(SynthConfig(), seed=11), tmp_path / name)
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_different_seeds_differ(self):
        a = generate_synthetic(SynthConfig(), seed=0)
        b = generate_synthetic(SynthConfig(), seed=1)
        assert not datasets_equal(a, b)

    def test_zero_noise_same_class_signatures_match_up_to_permutation(self):
        cfg = SynthConfig(noise=0.0)
        ds = generate_synthetic(cfg, seed=5)
        labels = ds.labels
        first, second = np.where(labels == labels[0])[0][:2]

        def sorted_rows(m):
            return m[np.lexsort(m.T[::-1])]

        assert np.array_equal(sorted_rows(ds.features[first]), sorted_rows(ds.features[second]))

    def test_noiseless_classes_are_perfectly_separable(self):
        # a nearest-signature classifier attains 1.0 on noiseless data: samples
        # of one class share a sorted-region matrix and classes never collide
        ds = generate_synthetic(SynthConfig(noise=0.0), seed=8)

        def sorted_rows(m):
            return m[np.lexsort(m.T[::-1])]

        signature_by_class = {}
        for i in range(ds.num_samples):
            sig = sorted_rows(ds.features[i]).tobytes()
            label = int(ds.labels[i])
            signature_by_class.setdefault(label, set()).add(sig)
        assert all(len(sigs) == 1 for sigs in signature_by_class.values())
        all_sigs = [next(iter(s)) for s in signature_by_class.values()]
        assert len(set(all_sigs)) == ds.num_classes

    def test_prototypes_in_unit_interval(self):
        ds = generate_synthetic(SynthConfig(), seed=2)
        assert ds.class_semantics.min() >= 0.0
        assert ds.class_semantics.max() <= 1.0

    def test_config_bounds_rejected(self):
        with pytest.raises(ConfigError, match="classes"):
            SynthConfig(classes=3)
        with pytest.raises(ConfigError, match="unseen_fraction"):
            SynthConfig(unseen_fraction=1.0)
        with pytest.raises(ConfigError, match="samples_per_class"):
            SynthConfig(samples_per_class=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            generate_synthetic(SynthConfig(), seed=-1)

    def test_too_many_classes_for_attribute_patterns(self):
        # 2^4 - 1 = 15 distinct non-empty patterns < 20 classes
        with pytest.raises(ConfigError, match="activation patterns"):
            generate_synthetic(SynthConfig(classes=20, attributes=4), seed=0)

    def test_split_partition_property_over_seeds(self):
        # partition invariants hold for 100 generator seeds
        for seed in range(100):
            ds = generate_synthetic(
                SynthConfig(classes=6, attributes=6, regions=3, feature_dim=4,
                            attr_dim=4, samples_per_class=2), seed=seed)
            seen, unseen = set(ds.split.seen_classes), set(ds.split.unseen_classes)
            assert not seen & unseen
            assert seen | unseen == set(range(ds.num_classes))
            assert all(int(ds.labels[i]) in seen for i in ds.split.train_idx)
            assert all(int(ds.labels[i]) in unseen for i in ds.split.test_unseen_idx)

    @settings(max_examples=25, deadline=None)
    @given(
        classes=st.integers(4, 8),
        attributes=st.integers(4, 8),
        regions=st.integers(2, 5),
        feature_dim=st.integers(2, 6),
        samples_per_class=st.integers(2, 4),
        unseen_fraction=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generator_always_valid(self, classes, attributes, regions, feature_dim,
                                    samples_per_class, unseen_fraction, seed):
        cfg = SynthConfig(classes=classes, attributes=attributes, regions=regions,
                          feature_dim=feature_dim, attr_dim=4,
                          samples_per_class=samples_per_class,
                          unseen_fraction=unseen_fraction)
        ds = generate_synthetic(cfg, seed=seed)  # validates internally
        assert 1 <= len(ds.split.unseen_classes) <= classes - 1


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        ds = generate_synthetic(SynthConfig(), seed=3)
        save_dataset(ds, tmp_path / "a")
        save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_empty_sample_list_rejected(self, tmp_path):
        ds = generate_synthetic(SynthConfig(), seed=0)
        ds.features = np.zeros((0, 9, 16))
        ds.labels = np.zeros(0, dtype=np.int64)
        ds.split = Split(ds.split.seen_classes, ds.split.unseen_classes, [], [], [])
        with pytest.raises(DataValidationError, match="at least one sample"):
            save_dataset(ds, tmp_path / "d")


class TestDtypes:
    def test_features_stay_float32_and_the_small_matrices_widen(self, tmp_path):
        ds = generate_synthetic(SynthConfig(), seed=0)
        save_dataset(ds, tmp_path / "d")
        for d in (ds, load_dataset(tmp_path / "d")):
            assert d.features.dtype == np.float32
            assert d.attributes.dtype == np.float64
            assert d.class_semantics.dtype == np.float64

    def test_load_peak_memory_stays_near_the_features_file(self, tmp_path):
        # 400 samples x 49 regions x 512 channels: a 40 MB float32 payload
        cfg = SynthConfig(feature_dim=512, regions=49, samples_per_class=40)
        save_dataset(generate_synthetic(cfg, seed=0), tmp_path / "d")
        size = (tmp_path / "d" / "features.msdt").stat().st_size
        tracemalloc.start()
        try:
            ds = load_dataset(tmp_path / "d")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * size, f"load peaked at {peak / size:.2f}x the features file"
        assert ds.features.nbytes == 400 * 49 * 512 * 4 == size - 18


def _stub_dataset(num_classes, num_seen, num_attributes, attr_dim=3, regions=2,
                  feature_dim=3, name="stub"):
    """Minimal dataset with a large class/attribute space but few samples."""
    rng = np.random.default_rng(0)
    seen = list(range(num_seen))
    unseen = list(range(num_seen, num_classes))
    features = rng.standard_normal((4, regions, feature_dim)).astype(np.float32).astype(np.float64)
    labels = np.array([seen[0], seen[1], unseen[0], unseen[1]], dtype=np.int64)
    return Dataset(
        name=name,
        features=features,
        labels=labels,
        attributes=rng.random((num_attributes, attr_dim)).astype(np.float32).astype(np.float64),
        class_semantics=rng.random((num_classes, num_attributes)).astype(np.float32).astype(np.float64),
        split=Split(seen, unseen, [0, 1], [], [2, 3]),
        class_names=[f"c{i}" for i in range(num_classes)],
    )


class TestShapedStubs:
    def test_cub_shaped_stub_loads(self, tmp_path):
        # 200 bird classes, 150 seen / 50 unseen, 312 attributes
        ds = _stub_dataset(200, 150, 312, name="cub_stub")
        save_dataset(ds, tmp_path / "cub")
        loaded = load_dataset(tmp_path / "cub")
        assert loaded.num_classes == 200
        assert loaded.num_attributes == 312
        assert len(loaded.split.seen_classes) == 150
        assert len(loaded.split.unseen_classes) == 50

    def test_awa2_shaped_stub_round_trips(self, tmp_path):
        # 50 animal classes, 40 seen / 10 unseen, 85 attributes
        ds = _stub_dataset(50, 40, 85, name="awa2_stub")
        save_dataset(ds, tmp_path / "a")
        save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_flo_shaped_semantics_dim(self, tmp_path):
        # high-dimensional semantics (K=1024) need no special casing
        ds = _stub_dataset(6, 4, 1024, name="flo_stub")
        save_dataset(ds, tmp_path / "f")
        assert load_dataset(tmp_path / "f").num_attributes == 1024


class TestLoadErrors:
    @pytest.fixture()
    def saved(self, tmp_path):
        save_dataset(generate_synthetic(SynthConfig(), seed=0), tmp_path / "d")
        return tmp_path / "d"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_dataset(tmp_path / "absent")

    def test_missing_tensor_file(self, saved):
        (saved / "features.msdt").unlink()
        with pytest.raises(FileNotFoundError, match="features.msdt"):
            load_dataset(saved)

    def test_truncated_tensor_is_format_error(self, saved):
        path = saved / "features.msdt"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError):
            load_dataset(saved)

    def test_bad_manifest_json(self, saved):
        (saved / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError, match="JSON"):
            load_dataset(saved)

    def test_unknown_manifest_key(self, saved):
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["surprise"] = 1
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="surprise"):
            load_dataset(saved)

    def test_manifest_shape_disagreement(self, saved):
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["num_attributes"] = 99
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="num_attributes"):
            load_dataset(saved)

    def test_nonintegral_labels_rejected(self, saved):
        labels = np.full(200, 0.5)
        write_tensor(saved / "labels.msdt", labels)
        with pytest.raises(FormatError, match="integral"):
            load_dataset(saved)

    @pytest.mark.parametrize("move,invariant", [
        (lambda s: {"train_idx": s["train_idx"] + s["test_unseen_idx"][:1],
                    "test_unseen_idx": s["test_unseen_idx"][1:]},
         "train sample labels must be seen classes"),
        (lambda s: {"test_seen_idx": s["test_seen_idx"] + s["test_unseen_idx"][:1],
                    "test_unseen_idx": s["test_unseen_idx"][1:]},
         "test_seen sample labels must be seen classes"),
        (lambda s: {"train_idx": s["train_idx"][1:],
                    "test_unseen_idx": s["test_unseen_idx"] + s["train_idx"][:1]},
         "test_unseen sample labels must be unseen classes"),
        (lambda s: {"train_idx": s["train_idx"] + s["train_idx"][:1]},
         "each sample index appears at most once"),
        (lambda s: {"test_seen_idx": s["test_seen_idx"] + s["train_idx"][:1]},
         "each sample index appears at most once"),
        (lambda s: {"seen_classes": s["seen_classes"] + s["seen_classes"][:1]},
         "each class appears exactly once in seen_classes and unseen_classes"),
        (lambda s: {"unseen_classes": s["unseen_classes"] + s["unseen_classes"][:1]},
         "each class appears exactly once in seen_classes and unseen_classes"),
    ], ids=["train_label", "test_seen_label", "test_unseen_label", "repeat_within",
            "repeat_across", "repeat_seen_class", "repeat_unseen_class"])
    def test_split_index_invariants(self, saved, move, invariant):
        ds = load_dataset(saved)
        ds.split = Split(**{**vars(ds.split), **move(vars(ds.split))})
        with pytest.raises(DataValidationError, match=invariant) as raised:
            validate_dataset(ds)
        assert "manifest.json" not in str(raised.value)
        manifest = json.loads((saved / "manifest.json").read_text())
        (saved / "manifest.json").write_text(json.dumps(manifest | move(manifest)))
        with pytest.raises(DataValidationError, match=invariant) as raised:
            load_dataset(saved)
        assert str(saved / "manifest.json") in str(raised.value)

    def test_split_violation_is_validation_error(self, saved):
        manifest = json.loads((saved / "manifest.json").read_text())
        overlap = manifest["unseen_classes"][0]
        manifest["seen_classes"] = sorted(manifest["seen_classes"] + [overlap])
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataValidationError, match="disjoint"):
            load_dataset(saved)
