"""Datasets of pre-extracted region features with seen/unseen class splits.

A dataset bundles per-sample region features (N x R x D), per-attribute
semantic vectors (K x Da), per-class attribute prototypes (C x K), and the
index lists that define the zero-shot protocol. Directories hold one JSON
manifest plus MSDT tensor files; all tensor payloads round-trip bit-exactly.
"""
from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataValidationError, FormatError
from .numeric import check_settings, make_rng
from .tensor_io import read_index, read_tensor, write_directory

MANIFEST_NAME = "manifest.json"

_SHAPE_KEYS = ("num_classes", "num_attributes", "feature_dim", "regions_per_sample")
_SPLIT_KEYS = ("seen_classes", "unseen_classes", "train_idx", "test_seen_idx", "test_unseen_idx")
_FILE_KEYS = ("attributes", "class_semantics", "features", "labels")
_REQUIRED_KEYS = {"name", *_SHAPE_KEYS, *_FILE_KEYS, *_SPLIT_KEYS}
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
        check_settings(
            self,
            (lambda: self.classes >= 4, "classes >= 4"),
            (lambda: self.attributes >= 4, "attributes >= 4"),
            (lambda: self.regions >= 2, "regions >= 2"),
            (lambda: self.feature_dim >= 2, "feature_dim >= 2"),
            (lambda: self.attr_dim >= 2, "attr_dim >= 2"),
            (lambda: self.samples_per_class >= 2, "samples_per_class >= 2"),
            (lambda: 0.0 < self.unseen_fraction < 1.0, "unseen_fraction in (0, 1)"),
            (lambda: self.noise >= 0.0, "noise >= 0"),
        )


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
    with np.errstate(over="ignore"):  # an overflow becomes inf, which the save refuses
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
    manifest `source` of a loaded dataset (tensor_io checks finiteness)."""
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


def _shape_fields(ds: Dataset) -> dict[str, int]:
    """The manifest's _SHAPE_KEYS, as the tensors of `ds` give them."""
    return dict(zip(_SHAPE_KEYS, (ds.num_classes, ds.attributes.shape[0], ds.feature_dim,
                                  ds.num_regions)))


def save_dataset(ds: Dataset, directory: str | Path) -> None:
    """Save `ds` as one unit (tensor_io.write_directory): a refused tensor or a
    failed write never leaves the earlier manifest over a mix of files."""
    validate_dataset(ds)
    manifest = {
        "name": ds.name,
        **_shape_fields(ds),
        **{key: f"{key}.msdt" for key in _FILE_KEYS},
        **{key: list(map(int, getattr(ds.split, key))) for key in _SPLIT_KEYS},
    }
    if ds.class_names:
        manifest["class_names"] = ds.class_names
    if ds.attribute_names:
        manifest["attribute_names"] = ds.attribute_names
    write_directory(directory, {key: getattr(ds, key) for key in _FILE_KEYS},
                    MANIFEST_NAME, manifest)


def load_dataset(directory: str | Path) -> Dataset:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    manifest = read_index(manifest_path)
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
    file_name = lambda v: type(v) is str and v not in ("", ".", "..") and Path(v).name == v
    for key_set, ok, what in (
            (["name"], of_type(str), "a string"),
            (_FILE_KEYS, file_name, "the name of a file in the dataset directory"),
            (_SHAPE_KEYS, of_type(int), "an integer"),
            (_SPLIT_KEYS, list_of(int), "a list of integers"),
            (sorted(_OPTIONAL_KEYS & keys), list_of(str), "a list of strings")):
        for key in key_set:
            if not ok(manifest[key]):
                raise FormatError(f"{manifest_path}: {key!r} must be {what}, "
                                  f"got {reprlib.repr(manifest[key])}")

    # read_tensor refuses a missing file with FileNotFoundError
    attributes, class_semantics, features, labels_f = (
        read_tensor(directory / manifest[key]) for key in _FILE_KEYS)
    attributes, class_semantics = (a.astype(np.float64) for a in (attributes, class_semantics))
    if labels_f.ndim != 1:
        raise FormatError(f"{directory / manifest['labels']}: labels must be rank-1")
    if not np.all(labels_f == np.round(labels_f)):
        raise FormatError(f"{directory / manifest['labels']}: labels must hold integral values")
    labels = labels_f.astype(np.int64)
    if features.ndim != 3:
        raise FormatError(f"{directory / manifest['features']}: features must be rank-3 (N x R x D)")

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
    for key, actual in _shape_fields(ds).items():
        if manifest[key] != actual:
            raise FormatError(
                f"{manifest_path}: manifest {key}={manifest[key]} disagrees with tensor ({actual})"
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
