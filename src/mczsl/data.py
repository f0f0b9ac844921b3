"""Datasets of pre-extracted region features with seen/unseen class splits.

A dataset bundles per-sample region features (N x R x D), per-attribute
semantic vectors (K x Da), per-class attribute prototypes (C x K), and the
index lists that define the zero-shot protocol. Directories hold one JSON
manifest plus MSDT tensor files; all tensor payloads round-trip bit-exactly.
"""
from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataValidationError, FormatError
from .numeric import check_finite_settings, make_rng
from .tensor_io import read_tensor, write_atomic, write_tensor

MANIFEST_NAME = "manifest.json"

_SHAPE_KEYS = ("num_classes", "num_attributes", "feature_dim", "regions_per_sample")
_SPLIT_KEYS = ("seen_classes", "unseen_classes", "train_idx", "test_seen_idx", "test_unseen_idx")
_REQUIRED_KEYS = {"name", *_SHAPE_KEYS, "attributes", "class_semantics", "features", "labels",
                  *_SPLIT_KEYS}
_OPTIONAL_KEYS = {"class_names", "attribute_names"}


@dataclass
class Split:
    seen_classes: list[int]
    unseen_classes: list[int]
    train_idx: list[int]
    test_seen_idx: list[int]
    test_unseen_idx: list[int]


@dataclass
class Dataset:
    name: str
    features: np.ndarray  # N x R x D, float32 as MSDT stores it; widened per block
    labels: np.ndarray  # N, integer-valued
    attributes: np.ndarray  # K x Da semantic vectors, fixed inputs
    class_semantics: np.ndarray  # C x K prototypes
    split: Split
    class_names: list[str] = field(default_factory=list)
    attribute_names: list[str] = field(default_factory=list)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_regions(self) -> int:
        return self.features.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[2]

    @property
    def num_attributes(self) -> int:
        return self.class_semantics.shape[1]

    @property
    def num_classes(self) -> int:
        return self.class_semantics.shape[0]


@dataclass(frozen=True)
class SynthConfig:
    classes: int = 10
    attributes: int = 12
    regions: int = 9
    feature_dim: int = 16
    attr_dim: int = 16
    samples_per_class: int = 20
    unseen_fraction: float = 0.3
    noise: float = 0.05

    def __post_init__(self):
        check_finite_settings(self)
        checks = [
            (self.classes >= 4, "classes >= 4"),
            (self.attributes >= 4, "attributes >= 4"),
            (self.regions >= 2, "regions >= 2"),
            (self.feature_dim >= 2, "feature_dim >= 2"),
            (self.attr_dim >= 2, "attr_dim >= 2"),
            (self.samples_per_class >= 2, "samples_per_class >= 2"),
            (0.0 < self.unseen_fraction < 1.0, "unseen_fraction in (0, 1)"),
            (self.noise >= 0.0, "noise >= 0"),
        ]
        for ok, rule in checks:
            if not ok:
                raise ConfigError(f"synthetic config violates {rule}")


def _f32_exact(a: np.ndarray) -> np.ndarray:
    # quantize through float32 so save/load is lossless
    return a.astype(np.float32).astype(np.float64)


def generate_synthetic(config: SynthConfig, seed: int) -> Dataset:
    """Deterministic dataset with planted structure.

    Class prototypes are 0/1 attribute activations. Each attribute k owns a
    fixed region slot (k mod R) and contributes a linear signature a_k @ M to
    that region when active in the class; per-sample region order is permuted
    and Gaussian noise of scale `config.noise` is added. A nearest-prototype
    classifier on the noiseless attribute activations is exact, so planted
    labels remain recoverable.
    """
    if seed < 0:
        raise ConfigError(f"synthetic dataset seed must be >= 0, got {seed}")
    rng = make_rng(seed)
    c, k = config.classes, config.attributes
    r, d, da = config.regions, config.feature_dim, config.attr_dim
    if c > 2**k - 1:
        raise ConfigError(
            f"{c} classes need distinct non-empty activation patterns but only "
            f"{2**k - 1} exist for {k} attributes"
        )

    # distinct, non-empty activation patterns per class
    protos = np.zeros((c, k))
    seen_patterns: set[bytes] = set()
    for ci in range(c):
        while True:
            row = (rng.random(k) < 0.5).astype(np.float64)
            key = row.tobytes()
            if row.sum() >= 1 and key not in seen_patterns:
                seen_patterns.add(key)
                protos[ci] = row
                break

    attr_vectors = rng.standard_normal((k, da))
    attr_vectors /= np.linalg.norm(attr_vectors, axis=1, keepdims=True)
    attr_to_feature = rng.standard_normal((da, d)) / np.sqrt(da)
    signatures = attr_vectors @ attr_to_feature  # K x D
    signatures /= np.linalg.norm(signatures, axis=1, keepdims=True)
    slot = np.arange(k) % r

    n_unseen = int(round(c * config.unseen_fraction))
    n_unseen = min(max(n_unseen, 1), c - 1)
    unseen = sorted(int(x) for x in rng.choice(c, size=n_unseen, replace=False))
    seen = [ci for ci in range(c) if ci not in set(unseen)]

    n = c * config.samples_per_class
    features = np.zeros((n, r, d), dtype=np.float32)  # rounded as a file round trip would
    labels = np.zeros(n, dtype=np.int64)
    i = 0
    for ci in range(c):
        base = np.zeros((r, d))
        for ki in range(k):
            if protos[ci, ki] >= 0.5:
                base[slot[ki]] += signatures[ki]
        for _ in range(config.samples_per_class):
            perm = rng.permutation(r)
            noisy = base + config.noise * rng.standard_normal((r, d))
            features[i] = noisy[perm]
            labels[i] = ci
            i += 1

    # per seen class: ~70% train, rest held out as seen-class test samples
    n_test = max(1, int(round(0.3 * config.samples_per_class)))
    train_idx: list[int] = []
    test_seen_idx: list[int] = []
    test_unseen_idx: list[int] = []
    for ci in range(c):
        idx = list(range(ci * config.samples_per_class, (ci + 1) * config.samples_per_class))
        if ci in set(unseen):
            test_unseen_idx.extend(idx)
        else:
            train_idx.extend(idx[:-n_test])
            test_seen_idx.extend(idx[-n_test:])

    ds = Dataset(
        name="synthetic",
        features=features,
        labels=labels,
        attributes=_f32_exact(attr_vectors),
        class_semantics=_f32_exact(protos),
        split=Split(seen, unseen, train_idx, test_seen_idx, test_unseen_idx),
        class_names=[f"class_{ci}" for ci in range(c)],
        attribute_names=[f"attr_{ki}" for ki in range(k)],
    )
    validate_dataset(ds)
    return ds


def validate_dataset(ds: Dataset, source: Path | None = None) -> None:
    """Raise DataValidationError naming the first violated invariant, and the
    manifest `source` of a loaded dataset."""
    def fail(invariant: str):
        where = f"{source}: " if source else ""
        raise DataValidationError(f"{where}dataset invariant violated: {invariant}")

    if ds.features.ndim != 3:
        fail("features must be N x R x D")
    n, r, d = ds.features.shape
    if n < 1:
        fail("at least one sample required (region count unknown otherwise)")
    if r < 1 or d < 1:
        fail("R >= 1 and D >= 1")
    if ds.attributes.ndim != 2 or ds.class_semantics.ndim != 2:
        fail("attributes and class_semantics must be matrices")
    k = ds.attributes.shape[0]
    if k < 2:
        fail("K >= 2 (at least two attributes)")
    if ds.class_semantics.shape[1] != k:
        fail("class_semantics columns must equal attribute count K")
    c = ds.class_semantics.shape[0]
    for name, a in (("features", ds.features), ("attributes", ds.attributes),
                    ("class_semantics", ds.class_semantics)):
        if not np.all(np.isfinite(a)):
            fail(f"{name} must be finite")
    if ds.labels.shape != (n,):
        fail("labels length must equal sample count")
    if ds.labels.min() < 0 or ds.labels.max() >= c:
        fail("labels must lie in [0, C)")

    sp = ds.split
    seen, unseen = set(sp.seen_classes), set(sp.unseen_classes)
    if seen & unseen:
        fail("seen and unseen classes must be disjoint")
    if sorted([*sp.seen_classes, *sp.unseen_classes]) != list(range(c)):
        fail("each class appears exactly once in seen_classes and unseen_classes")
    all_idx = sp.train_idx + sp.test_seen_idx + sp.test_unseen_idx
    if all_idx and (min(all_idx) < 0 or max(all_idx) >= n):
        fail("split indices must lie in [0, N)")
    if np.bincount(np.array(all_idx, dtype=np.intp), minlength=n).max() > 1:
        fail("each sample index appears at most once in train_idx, test_seen_idx, test_unseen_idx")
    if not np.isin(ds.labels[sp.train_idx], sp.seen_classes).all():
        fail("train sample labels must be seen classes")
    if not np.isin(ds.labels[sp.test_seen_idx], sp.seen_classes).all():
        fail("test_seen sample labels must be seen classes")
    if not np.isin(ds.labels[sp.test_unseen_idx], sp.unseen_classes).all():
        fail("test_unseen sample labels must be unseen classes")
    if ds.class_names and len(ds.class_names) != c:
        fail("class_names length must equal class count")
    if ds.attribute_names and len(ds.attribute_names) != k:
        fail("attribute_names length must equal attribute count")


def save_dataset(ds: Dataset, directory: str | Path) -> None:
    validate_dataset(ds)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_tensor(directory / "attributes.msdt", ds.attributes)
    write_tensor(directory / "class_semantics.msdt", ds.class_semantics)
    write_tensor(directory / "features.msdt", ds.features)
    write_tensor(directory / "labels.msdt", ds.labels.astype(np.float64))
    manifest = {
        "name": ds.name,
        "num_classes": ds.num_classes,
        "num_attributes": ds.num_attributes,
        "feature_dim": ds.feature_dim,
        "regions_per_sample": ds.num_regions,
        "attributes": "attributes.msdt",
        "class_semantics": "class_semantics.msdt",
        "features": "features.msdt",
        "labels": "labels.msdt",
        "seen_classes": list(map(int, ds.split.seen_classes)),
        "unseen_classes": list(map(int, ds.split.unseen_classes)),
        "train_idx": list(map(int, ds.split.train_idx)),
        "test_seen_idx": list(map(int, ds.split.test_seen_idx)),
        "test_unseen_idx": list(map(int, ds.split.test_unseen_idx)),
    }
    if ds.class_names:
        manifest["class_names"] = ds.class_names
    if ds.attribute_names:
        manifest["attribute_names"] = ds.attribute_names
    write_atomic(directory / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_dataset(directory: str | Path) -> Dataset:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise FormatError(f"{manifest_path}: not UTF-8 text ({e})") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"{manifest_path}: invalid JSON at position {e.pos}") from e
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: manifest must be a JSON object")
    keys = set(manifest)
    missing = _REQUIRED_KEYS - keys
    if missing:
        raise FormatError(f"{manifest_path}: missing keys {sorted(missing)}")
    unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise FormatError(f"{manifest_path}: unknown keys {sorted(unknown)}")
    # exact JSON types: a bool is not an integer, and 10.7 is not 10
    of_type = lambda t: lambda v: type(v) is t
    list_of = lambda t: lambda v: type(v) is list and set(map(type, v)) <= {t}
    for key_set, ok, what in (
            (["name"], of_type(str), "a string"),
            (_SHAPE_KEYS, of_type(int), "an integer"),
            (_SPLIT_KEYS, list_of(int), "a list of integers"),
            (sorted(_OPTIONAL_KEYS & keys), list_of(str), "a list of strings")):
        for key in key_set:
            if not ok(manifest[key]):
                raise FormatError(f"{manifest_path}: {key!r} must be {what}, "
                                  f"got {reprlib.repr(manifest[key])}")

    # read_tensor refuses a missing file with FileNotFoundError
    attributes, class_semantics, features, labels_f = (
        read_tensor(directory / manifest[key])
        for key in ("attributes", "class_semantics", "features", "labels"))
    attributes, class_semantics = (a.astype(np.float64) for a in (attributes, class_semantics))
    if labels_f.ndim != 1:
        raise FormatError(f"{directory / manifest['labels']}: labels must be rank-1")
    if not np.all(labels_f == np.round(labels_f)):
        raise FormatError(f"{directory / manifest['labels']}: labels must hold integral values")
    labels = labels_f.astype(np.int64)

    declared = {
        "num_classes": class_semantics.shape[0],
        "num_attributes": attributes.shape[0],
        "feature_dim": features.shape[2] if features.ndim == 3 else -1,
        "regions_per_sample": features.shape[1] if features.ndim == 3 else -1,
    }
    if features.ndim != 3:
        raise FormatError(f"{directory / manifest['features']}: features must be rank-3 (N x R x D)")
    for key, actual in declared.items():
        if manifest[key] != actual:
            raise FormatError(
                f"{manifest_path}: manifest {key}={manifest[key]} disagrees with tensor ({actual})"
            )

    ds = Dataset(
        name=manifest["name"],
        features=features,
        labels=labels,
        attributes=attributes,
        class_semantics=class_semantics,
        split=Split(**{key: manifest[key] for key in _SPLIT_KEYS}),
        class_names=manifest.get("class_names", []),
        attribute_names=manifest.get("attribute_names", []),
    )
    validate_dataset(ds, manifest_path)
    return ds


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (
        a.name == b.name
        and np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels)
        and np.array_equal(a.attributes, b.attributes)
        and np.array_equal(a.class_semantics, b.class_semantics)
        and a.split == b.split
        and a.class_names == b.class_names
        and a.attribute_names == b.attribute_names
    )
