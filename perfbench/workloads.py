"""Workload definitions, input preparation with a (shape, seed) cache, and the
timed job every workload runs.

A job is what a user of mczsl does: load the inputs from disk, train (if the
workload trains), save the checkpoint, evaluate CZSL and GZSL, and write the
report. Inputs are generated from the run's seed before any timing starts.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from statistics import mean

from bootstrap import ROOT, SRC

CACHE = ROOT / ".perfbench" / "cache"
WORK = ROOT / ".perfbench" / "work"
KEEP_PER_WORKLOAD = 2  # cache entries kept per workload; older seeds are evicted

SYNTH_SHAPE = dict(classes=10, attributes=12, regions=9, feature_dim=16, attr_dim=16)
CUB_SHAPE = dict(classes=10, attributes=312, regions=196, feature_dim=2048, attr_dim=300)
TINY_CUB_SHAPE = dict(classes=6, attributes=12, regions=6, feature_dim=32, attr_dim=10)
# the `synthetic` and `cub` presets share these loss weights (cal, ar, causal, distill)
LOSS_WEIGHTS = (0.05, 0.03, 0.3, 0.001)
FUSION = (0.8, 0.2)
ACCEPTANCE_SEED = 1  # the seed tests/test_acceptance.py fixes for the accuracy bars
ACCEPTANCE_WORKLOAD = "synth-train"  # whose hyperparameters the acceptance run uses
SETTINGS = ("czsl", "gzsl")


@dataclass(frozen=True)
class Workload:
    name: str
    data: dict  # SynthConfig fields of the dataset the job loads (and trains on)
    test: dict | None  # separate evaluation set; None evaluates `data`'s test split
    epochs: int  # 0: eval only, from a checkpoint written during preparation
    eval_shards: int  # evaluate() calls per setting and job, each timed on its own
    # throughputs are the rate the epochs or shards beat for all but this share
    # of their time (0.5: the time-weighted median); see sustained_rate in run.py
    slow_share: float
    learning_rate: float = 1e-4
    batch_size: int = 50

    @property
    def trains(self) -> bool:
        return self.epochs > 0


# slow_share follows how machine noise shows in each kind of workload. Single-
# threaded Python (synth-train) speeds up in spells of spare host capacity
# that last up to half a minute, so its median moves with them and its slow
# side does not. Two-thread BLAS products (the CUB-like shape) stall briefly
# whenever either vCPU is taken, so their slow side holds the stalls and
# their median is the steady figure.
WORKLOADS = {
    # Tape-bound: tiny matrices, so per-op Python and tape bookkeeping dominate.
    # The test set is a same-seed generation with more samples per class
    # (identical attributes, prototypes and class split), large enough that
    # eval takes more than half as long as training (15,300 test samples).
    "synth-train": Workload(
        "synth-train", dict(SYNTH_SHAPE, samples_per_class=20),
        dict(SYNTH_SHAPE, samples_per_class=3000), epochs=30, eval_shards=24,
        slow_share=0.1, learning_rate=0.003),
    # BLAS-bound: CUB-like shape, a few dozen training samples, one epoch.
    "cub-train": Workload(
        "cub-train", dict(CUB_SHAPE, samples_per_class=6), None, epochs=1, eval_shards=8,
        slow_share=0.5),
    # Inference only at the CUB-like shape, from a larger features file.
    "cub-eval": Workload(
        "cub-eval", dict(CUB_SHAPE, samples_per_class=10), None, epochs=0, eval_shards=8,
        slow_share=0.5),
}

TINY_WORKLOADS = {
    "synth-train": Workload(
        "synth-train", dict(SYNTH_SHAPE, samples_per_class=6),
        dict(SYNTH_SHAPE, samples_per_class=12), epochs=2, eval_shards=2,
        slow_share=0.1, learning_rate=0.003),
    "cub-train": Workload(
        "cub-train", dict(TINY_CUB_SHAPE, samples_per_class=5), None, epochs=1, eval_shards=2,
        slow_share=0.5),
    "cub-eval": Workload(
        "cub-eval", dict(TINY_CUB_SHAPE, samples_per_class=8), None, epochs=0, eval_shards=2,
        slow_share=0.5),
}


def get(name: str, tiny: bool) -> Workload:
    return (TINY_WORKLOADS if tiny else WORKLOADS)[name]


def modules():
    """The library modules, reached through importlib: `mczsl.evaluate` as an
    attribute is the re-exported function, not the module."""
    names = ("data", "training", "evaluate", "losses", "errors")
    return {n: importlib.import_module(f"mczsl.{n}") for n in names}


def hyperparams(mods, w: Workload, seed: int, epochs: int | None = None):
    training, losses = mods["training"], mods["losses"]
    return training.Hyperparams(
        learning_rate=w.learning_rate, batch_size=w.batch_size,
        epochs=w.epochs if epochs is None else epochs,
        loss_weights=losses.LossWeights(*LOSS_WEIGHTS), intervention="random", seed=seed)


# -- preparation ------------------------------------------------------------

def source_fingerprint() -> str:
    """sha256 over the library sources, so a cache never outlives the code
    that wrote it."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cache_key(w: Workload, seed: int) -> dict:
    return {"workload": asdict(w), "seed": seed, "source": source_fingerprint()}


@dataclass
class Inputs:
    data: Path
    test: Path
    checkpoint: Path | None


def _inputs(directory: Path, w: Workload) -> Inputs:
    return Inputs(directory / "data", directory / ("test" if w.test else "data"),
                  None if w.trains else directory / "checkpoint")


def prepare_into(w: Workload, seed: int, directory: Path) -> None:
    """Generate the workload's inputs into `directory` (called in a child process)."""
    mods = modules()
    data = mods["data"]
    paths = _inputs(directory, w)
    data.save_dataset(data.generate_synthetic(data.SynthConfig(**w.data), seed), paths.data)
    if w.test:
        data.save_dataset(data.generate_synthetic(data.SynthConfig(**w.test), seed), paths.test)
    if not w.trains:
        # the initialised model: eval cost does not depend on trained weights
        ds = data.load_dataset(paths.data)
        hp = hyperparams(mods, w, seed, epochs=0)
        state, _ = mods["training"].train(ds, hp)
        mods["training"].save_checkpoint(state, hp, paths.checkpoint, epoch=0)


def _child(args: list[str], tiny: bool) -> None:
    cmd = [sys.executable, str(Path(__file__).with_name("prepare.py")), *args]
    subprocess.run(cmd + (["--tiny"] if tiny else []), check=True, timeout=600)


def _cached(key: dict, name: str) -> Path:
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
    return CACHE / f"{name}-{digest}"


def ensure_prepared(w: Workload, seed: int, tiny: bool) -> tuple[Inputs, bool]:
    """Cached inputs for (workload shape, seed); generated in a child process
    so generation never counts towards this process's peak memory.
    Returns the inputs and whether the cache was reused."""
    key = cache_key(w, seed)
    directory = _cached(key, f"{w.name}-seed{seed}")
    key_file = directory / "key.json"
    if key_file.is_file() and json.loads(key_file.read_text()) == key:
        os.utime(directory)
        return _inputs(directory, w), True
    shutil.rmtree(directory, ignore_errors=True)
    tmp = CACHE / f".tmp-{os.getpid()}-{directory.name}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        _child(["--workload", w.name, "--seed", str(seed), "--out", str(tmp)], tiny)
        (tmp / "key.json").write_text(json.dumps(key, sort_keys=True))
        os.rename(tmp, directory)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _evict(w.name, keep=directory)
    return _inputs(directory, w), False


def acceptance_into(tiny: bool, path: Path) -> None:
    """CZSL accuracy and GZSL H of the acceptance run (called in a child process)."""
    w = get(ACCEPTANCE_WORKLOAD, tiny)
    mods = modules()
    data, evaluate = mods["data"], mods["evaluate"]
    ds = data.generate_synthetic(data.SynthConfig(), ACCEPTANCE_SEED)
    state, _ = mods["training"].train(ds, hyperparams(mods, w, ACCEPTANCE_SEED))
    czsl = evaluate.evaluate(ds, state, evaluate.FusionConfig(*FUSION, setting="czsl"))
    gzsl = evaluate.evaluate(ds, state, evaluate.FusionConfig(*FUSION, setting="gzsl"))
    path.write_text(json.dumps({"czsl_acc": czsl.czsl_acc, "gzsl_h": gzsl.gzsl_h}))


def acceptance_scores(tiny: bool) -> dict:
    """The acceptance bars hold for one fixed configuration (default synthetic
    set, seed 1, synth-train's hyperparameters), not for every seed, so they
    are checked there. The result depends only on the sources, so it is cached
    by their hash and is the same for every workload and run seed."""
    w = get(ACCEPTANCE_WORKLOAD, tiny)
    path = _cached({"workload": asdict(w), "source": source_fingerprint()}, "acceptance")
    if not path.is_file():
        CACHE.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
        try:
            _child(["--workload", w.name, "--seed", str(ACCEPTANCE_SEED),
                    "--out", str(tmp), "--acceptance"], tiny)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    return json.loads(path.read_text())


def _evict(name: str, keep: Path) -> None:
    entries = sorted((p for p in CACHE.glob(f"{name}-seed*") if p != keep),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for old in entries[KEEP_PER_WORKLOAD - 1:]:
        shutil.rmtree(old, ignore_errors=True)


# -- the timed job -----------------------------------------------------------

DATASET_FILES = 5  # manifest + attributes, class_semantics, features, labels
CHECKPOINT_FILES = 6  # metadata + five weight tensors


@dataclass
class Job:
    setup_s: float = 0.0
    train_s: float = 0.0
    eval_s: float = 0.0
    wall_s: float = 0.0
    train_sample_steps: int = 0
    steps: int = 0
    scored: int = 0
    files: int = 0
    epoch_losses: list = field(default_factory=list)
    epoch_s: list = field(default_factory=list)  # the train log's per-epoch seconds
    eval_parts: list = field(default_factory=list)  # (samples scored, seconds) per shard
    reports: dict = field(default_factory=dict)  # per setting, merged over the shards
    state: object = None
    test: object = None

    @property
    def attempted(self) -> int:
        return self.steps + self.scored + self.files


def load_inputs(mods, w: Workload, inputs: Inputs):
    """Everything the job reads from disk: (train set, test set, checkpoint state)."""
    data = mods["data"]
    ds = data.load_dataset(inputs.data)
    test = data.load_dataset(inputs.test) if w.test else ds
    state = mods["training"].load_checkpoint(inputs.checkpoint)[0] if not w.trains else None
    return ds, test, state


def test_shards(mods, test, n: int) -> list:
    """The test set cut into up to n datasets that share its arrays; each holds
    a contiguous slice of the unseen and of the seen test samples, so every
    shard can be scored under both CZSL and GZSL."""
    split = test.split
    n = max(1, min(n, len(split.test_unseen_idx), len(split.test_seen_idx)))

    def cut(idx):
        size, extra = divmod(len(idx), n)
        bounds = [i * size + min(i, extra) for i in range(n + 1)]
        return [list(idx[a:b]) for a, b in zip(bounds, bounds[1:])]

    return [replace(test, split=mods["data"].Split(split.seen_classes, split.unseen_classes,
                                                   [], seen, unseen))
            for unseen, seen in zip(cut(split.test_unseen_idx), cut(split.test_seen_idx))]


def merge_reports(evaluate, setting: str, parts: list, split):
    """One report over all shards, rebuilt from their confusion counts with the
    library's own per-class accuracy: the figures evaluate() gives for the
    whole test set."""
    counts = Counter()
    for part in parts:
        counts.update(part.confusion_counts)
    pairs = [key for key, n in sorted(counts.items()) for _ in range(n)]
    report = evaluate.EvalReport(setting=setting, confusion_counts=dict(counts))
    if setting == "czsl":
        report.per_class_acc = evaluate.per_class_accuracy(pairs)
        report.czsl_acc = mean(report.per_class_acc.values())
    else:
        unseen = set(split.unseen_classes)
        u = evaluate.per_class_accuracy([p for p in pairs if p[0] in unseen])
        s = evaluate.per_class_accuracy([p for p in pairs if p[0] not in unseen])
        report.gzsl_u, report.gzsl_s = mean(u.values()), mean(s.values())
        report.gzsl_h = evaluate.harmonic_mean(report.gzsl_s, report.gzsl_u)
        report.per_class_acc = {**s, **u}
    return report


def run_job(mods, w: Workload, inputs: Inputs, seed: int, out: Path) -> Job:
    training, evaluate = mods["training"], mods["evaluate"]
    job = Job()
    t0 = time.perf_counter()
    ds, test, state = load_inputs(mods, w, inputs)
    t1 = time.perf_counter()
    job.setup_s = t1 - t0
    job.files = DATASET_FILES * (2 if w.test else 1) + (0 if w.trains else CHECKPOINT_FILES)
    if w.trains:
        hp = hyperparams(mods, w, seed)
        n_train = len(ds.split.train_idx)
        job.steps = w.epochs * math.ceil(n_train / w.batch_size)
        job.train_sample_steps = w.epochs * n_train
        t = time.perf_counter()
        state, log = training.train(ds, hp)
        job.train_s = time.perf_counter() - t
        job.epoch_losses = [r.total for r in log.epoch_reports]
        job.epoch_s = list(log.epoch_seconds)
        training.save_checkpoint(state, hp, out / "checkpoint", epoch=hp.epochs,
                                 loss_history=log.epoch_reports)
    configs = [evaluate.FusionConfig(*FUSION, setting=s) for s in SETTINGS]
    parts = {s: [] for s in SETTINGS}
    for shard in test_shards(mods, test, w.eval_shards):
        t = time.perf_counter()
        for cfg in configs:
            parts[cfg.setting].append(evaluate.evaluate(shard, state, cfg))
        seconds = time.perf_counter() - t
        split = shard.split
        job.eval_parts.append((2 * len(split.test_unseen_idx) + len(split.test_seen_idx),
                               seconds))
    job.eval_s = sum(seconds for _, seconds in job.eval_parts)
    job.reports = {s: merge_reports(evaluate, s, parts[s], test.split) for s in SETTINGS}
    evaluate.write_report_json(job.reports, out / "eval_report.json")
    job.wall_s = time.perf_counter() - t0
    job.scored = sum(n for n, _ in job.eval_parts)
    job.state, job.test = state, test
    return job
