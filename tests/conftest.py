import builtins
import errno
import importlib
import itertools

import numpy as np
import pytest

from mczsl.attr_visual import cross_attention
from mczsl.data import Dataset, Split, SynthConfig, generate_synthetic
from mczsl.numeric import make_rng


class _FullDisk:
    """A file whose writes stop with ENOSPC once `budget` bytes are written."""

    def __init__(self, f, budget):
        self.f, self.budget = f, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:self.budget])
        if len(data) > self.budget:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)


def fill_disk_after(monkeypatch, budget):
    """Make every file the package writes fail after `budget` bytes."""
    tensor_io = importlib.import_module("mczsl.tensor_io")
    monkeypatch.setattr(tensor_io, "open",
                        lambda path, mode: _FullDisk(builtins.open(path, mode), budget),
                        raising=False)


def fail_nth_write(monkeypatch, n):
    """Make the n-th `tensor_io.write_atomic` call from now on (counting from 1)
    fail with ENOSPC before it writes anything; every other call runs."""
    tensor_io = importlib.import_module("mczsl.tensor_io")
    write, calls = tensor_io.write_atomic, itertools.count(1)

    def failing(path, *chunks):
        if next(calls) == n:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        write(path, *chunks)

    monkeypatch.setattr(tensor_io, "write_atomic", failing)


def put_nan(path, index):
    """Overwrite value `index` of the MSDT file at `path` with NaN and return
    that value's byte offset."""
    blob = bytearray(path.read_bytes())
    offset = 6 + 4 * blob[5] + 4 * index  # the header holds one uint32 per rank
    blob[offset:offset + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(blob))
    return offset


def subnet_pass(V, A, Z, weights, side):
    """One sub-net's observed pass, read from the weights `side` of the mapping
    `weights` (arrays or tape leaves) as attr_visual.forward_both reads them:
    for ATTR_SIDE (w1, w2) the attributes A attend over the regions V; for
    REGION_SIDE (w3, w4, w_att) the regions attend over the attributes, and
    w_att lifts their scores to attribute scores. Both read their tables as
    (V w) A'."""
    return cross_attention(V, A, Z, weights, side)


@pytest.fixture(scope="session")
def default_dataset():
    return generate_synthetic(SynthConfig(), seed=1)


@pytest.fixture()
def small_dataset():
    cfg = SynthConfig(classes=4, attributes=4, regions=3, feature_dim=5,
                      attr_dim=4, samples_per_class=3, unseen_fraction=0.25,
                      noise=0.1)
    return generate_synthetic(cfg, seed=3)


def build_dataset(num_classes=3, num_attributes=4, regions=3, feature_dim=5,
                  attr_dim=4, samples_per_class=2, n_unseen=1, seed=0) -> Dataset:
    """Hand-rolled dataset for instances the generator's minimums disallow."""
    rng = make_rng(seed)
    c, k = num_classes, num_attributes
    n = c * samples_per_class
    features = rng.standard_normal((n, regions, feature_dim))
    labels = np.repeat(np.arange(c), samples_per_class).astype(np.int64)
    unseen = list(range(c - n_unseen, c))
    seen = list(range(c - n_unseen))
    train_idx, test_seen_idx, test_unseen_idx = [], [], []
    for i in range(n):
        if int(labels[i]) in unseen:
            test_unseen_idx.append(i)
        elif i % samples_per_class == samples_per_class - 1:
            test_seen_idx.append(i)
        else:
            train_idx.append(i)
    return Dataset(
        name="tiny",
        features=features,
        labels=labels,
        attributes=rng.standard_normal((k, attr_dim)),
        class_semantics=rng.random((c, k)),
        split=Split(seen, unseen, train_idx, test_seen_idx, test_unseen_idx),
    )
