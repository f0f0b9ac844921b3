"""Deterministic mini-batch training.

The loop is single-driver: seeded shuffling; per block of samples, one
batched forward pass of both sub-nets (which also counts the train accuracy),
the loss terms on the block's rows and one reverse-mode pass of the combined
loss; fresh exogenous intervention attentions, drawn once per block in the
stream's per-sample order; and an RMSProp update with momentum and decoupled
weight decay. (seed, dataset, hyperparams) fully determine the final weights;
intervention draws come from their own child stream so they can be varied
independently of initialization and shuffling.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import attr_visual, autodiff as ad, evaluate, visual_attr
from .attr_visual import ATTR_SIDE, REGION_SIDE, block_samples
from .data import Dataset
from .errors import FormatError, NumericError
from .losses import (
    LossReport,
    LossWeights,
    acec_loss,
    ar_loss,
    causal_loss,
    distill_loss,
    seen_class_distribution,
    weighted_total,
)
from .numeric import check_settings, make_rng, softmax, spawn_rngs
from .tensor_io import read_index, read_tensor, write_directory

INTERVENTION_KINDS = ("random", "uniform", "reversed", "random_plus_reversed")
PARAM_NAMES = ATTR_SIDE + REGION_SIDE
LOSS_FIELDS = ("acec", "ar", "causal", "distill", "total")  # the LossReport figures

CHECKPOINT_META = "metadata.json"

# A training block also holds its graph and gradients, so it takes half the
# values: 2 samples at the CUB-like shape, a whole batch at the synthetic one.
TRAIN_BLOCK_VALUES = attr_visual.BLOCK_VALUES // 2


@dataclass(frozen=True)
class Hyperparams:
    learning_rate: float = 1e-4
    batch_size: int = 50
    epochs: int = 10
    momentum: float = 0.9
    weight_decay: float = 1e-4
    rms_decay: float = 0.99
    rms_epsilon: float = 1e-8
    loss_weights: LossWeights = field(default_factory=LossWeights)
    intervention: str = "random"
    seed: int = 0
    # None derives the intervention stream from `seed`; set to vary it alone
    intervention_seed: int | None = None

    def __post_init__(self):
        check_settings(
            self,
            (lambda: self.learning_rate >= 0, "learning_rate >= 0"),
            (lambda: self.batch_size >= 1, "batch_size >= 1"),
            (lambda: self.epochs >= 0, "epochs >= 0"),
            (lambda: 0 <= self.momentum < 1, "momentum in [0, 1)"),
            (lambda: self.weight_decay >= 0, "weight_decay >= 0"),
            (lambda: 0 < self.rms_decay < 1, "rms_decay in (0, 1)"),
            (lambda: self.rms_epsilon > 0, "rms_epsilon > 0"),
            (lambda: self.intervention in INTERVENTION_KINDS,
             f"intervention in {INTERVENTION_KINDS}"),
            (lambda: self.seed >= 0, "seed >= 0"),
            (lambda: (self.intervention_seed or 0) >= 0, "intervention_seed >= 0 (or None)"),
        )


@dataclass
class ModelState:
    """The five float64 weights in one dict keyed by PARAM_NAMES; RMSProp state from zero."""

    weights: dict[str, np.ndarray]
    sq_avg: dict[str, np.ndarray] = field(init=False)
    momentum_buf: dict[str, np.ndarray] = field(init=False)

    def __post_init__(self):
        self.sq_avg = {k: np.zeros_like(v) for k, v in self.weights.items()}
        self.momentum_buf = {k: np.zeros_like(v) for k, v in self.weights.items()}

    def params(self) -> dict[str, np.ndarray]:
        """`weights`, under the name perfbench/run.py reads them by."""
        return self.weights


@dataclass
class TrainLog:
    """Per epoch: mean losses; the running train accuracy, each sample judged by
    the weights before its own batch's update; wall-clock seconds (not deterministic)."""

    epoch_reports: list[LossReport] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)


def init_state(attr_dim: int, feature_dim: int, rng: np.random.Generator) -> ModelState:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) init, fan_in = first dimension,
    drawn in PARAM_NAMES order in the shapes of attr_visual.weight_shapes."""
    shapes = attr_visual.weight_shapes(attr_dim, feature_dim)
    return ModelState({name: rng.uniform(-1 / np.sqrt(rows), 1 / np.sqrt(rows), (rows, cols))
                       for name, (rows, cols) in shapes.items()})


def state_for_dataset(dataset: Dataset, rng: np.random.Generator) -> ModelState:
    return init_state(dataset.attributes.shape[1], dataset.feature_dim, rng)


def make_intervention_attention(
    kind: str,
    betas: np.ndarray,
    gammas: np.ndarray,
    rng: np.random.Generator | None,
    alternation_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Exogenous attentions for a block; always gradient-free. Takes the block's
    observed betas (b x K x R) and gammas (b x R x K), returns (beta_bars,
    gamma_bars) in the same shapes.

    random: Uniform(0,1) entries, softmax-normalized along the attention axis;
    one (b, 2KR) draw per block, row i holding sample i's beta then gamma, so
    the stream is that of per-sample (K, R) then (R, K) draws.
    uniform: every weight 1/(length of the attention axis).
    reversed: softmax(-log(observed + eps)) per row, inverting the observed ranking.
    random_plus_reversed: alternates random/reversed on even/odd alternation_index
    (the training loop passes its batch counter).
    """
    if kind == "random_plus_reversed":
        kind = "random" if alternation_index % 2 == 0 else "reversed"
    observed = [np.asarray(obs, dtype=np.float64) for obs in (betas, gammas)]
    if kind == "random":
        if rng is None:
            raise ValueError("random intervention requires an RNG stream")
        draws = rng.uniform(0.0, 1.0, (len(betas), sum(obs[0].size for obs in observed)))
        halves = np.split(draws, [observed[0][0].size], axis=1)
        return tuple(softmax(h.reshape(obs.shape), axis=-1) for h, obs in zip(halves, observed))
    if kind == "uniform":
        return tuple(np.full(obs.shape, 1.0 / obs.shape[-1]) for obs in observed)
    if kind == "reversed":
        for obs in observed:
            attr_visual.check_normalized_rows(obs)
        return tuple(softmax(-np.log(obs + 1e-12), axis=-1) for obs in observed)
    raise ValueError(f"unknown intervention kind {kind!r}; expected one of {INTERVENTION_KINDS}")


InterventionFn = Callable[[slice, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def batch_loss_and_grads(
    batch_indices,
    dataset: Dataset,
    params: dict[str, np.ndarray],
    weights: LossWeights,
    intervention_fn: InterventionFn,
) -> tuple[LossReport, dict[str, np.ndarray]]:
    """Batch-mean loss report and batch-mean gradients for the five matrices.

    A w1 and A w2 run once per batch. The batch runs in blocks of
    `block_samples(dataset, TRAIN_BLOCK_VALUES)` samples, each one tape graph:
    a batched forward of both sub-nets that reads A w1 and A w2 through a leaf
    each, the seven loss terms once on the block's (b, C) logits and (b, K)
    attribute scores, one loss per row, and one backward. A block's graph is
    freed before the next block's forward. The leaves' gradients sum over the
    blocks and go back through the two products once, after the last block.
    intervention_fn(positions, betas, gammas) gets the slice of the batch that
    a block covers and its observed attentions (b x K x R, b x R x K), and
    returns the gradient-free (beta_bars, gamma_bars) of the same shapes.
    The report's `correct` counts the rows whose fused class scores (default
    fusion) rank their label first among the seen classes.
    """
    idx = np.asarray(batch_indices, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("batch must be nonempty")
    leaves = {name: ad.Tensor(params[name], requires_grad=True) for name in PARAM_NAMES}
    products = attr_visual.query_products(dataset.attributes, leaves, ATTR_SIDE)
    product_leaves = [ad.Tensor(p.data, requires_grad=True) for p in products]
    Z, split = dataset.class_semantics, dataset.split
    n = idx.size
    block = block_samples(dataset, TRAIN_BLOCK_VALUES)

    def run_block(start: int) -> tuple[np.ndarray, int]:
        rows = idx[start:start + block]
        labels = dataset.labels[rows]
        f1, f2 = attr_visual.forward_both(dataset.features[rows], dataset, product_leaves,
                                          leaves)
        beta_bars, gamma_bars = intervention_fn(slice(start, start + rows.size),
                                                f1.attention.data, f2.attention.data)
        terms = (
            acec_loss(f1.logits, labels, split, weights.lambda_cal),
            ar_loss(f1.attr_scores, Z[labels]),
            causal_loss(f1.logits, attr_visual.intervened(f1, beta_bars).logits, labels, split),
            acec_loss(f2.logits, labels, split, weights.lambda_cal),
            ar_loss(f2.attr_scores, Z[labels]),
            causal_loss(f2.logits, visual_attr.intervened(f2, gamma_bars).logits, labels, split),
            distill_loss(seen_class_distribution(f1.logits, split),
                         seen_class_distribution(f2.logits, split)),
        )
        acec1, ar1, causal1, acec2, ar2, causal2, distill = terms
        row_totals = weighted_total(acec1 + acec2, ar1 + ar2, causal1 + causal2, distill,
                                    weights)
        bad = np.flatnonzero(~np.isfinite(row_totals.data))
        if bad.size:
            raise NumericError(f"non-finite loss at sample index {rows[bad[0]]}")
        ad.tsum(row_totals).backward(seed=1.0 / n)
        scores = evaluate.fused_score(f1.attr_scores.data, f2.attr_scores.data, Z, split,
                                      rows=rows)
        correct = int(np.sum(evaluate.top_classes(scores, split, "train") == labels))
        return np.array([t.data.sum() for t in terms]), correct

    sums, correct = map(sum, zip(*(run_block(start) for start in range(0, n, block))))
    for product, leaf in zip(products, product_leaves):
        product.backward(seed=leaf.grad)
    grads = {name: (leaves[name].grad if leaves[name].grad is not None
                    else np.zeros_like(params[name]))
             for name in PARAM_NAMES}
    means = (sums / n).tolist()
    # the two sub-nets' terms sum 1:1; the distillation term is shared
    acec, ar, causal = (a + b for a, b in zip(means[:3], means[3:6]))
    total = weighted_total(acec, ar, causal, means[6], weights)
    if not np.isfinite(total):
        raise NumericError("total loss is non-finite")
    return LossReport(acec, ar, causal, means[6], total, correct), grads


def rmsprop_update(state: ModelState, grads: dict[str, np.ndarray], hp: Hyperparams) -> None:
    """RMSProp with momentum; weight decay is decoupled (parameters shrink
    toward zero before the gradient step, so the gradient check stays clean)."""
    lr = hp.learning_rate
    for name, p in state.weights.items():
        g = grads[name]
        sq = state.sq_avg[name]
        buf = state.momentum_buf[name]
        sq *= hp.rms_decay
        sq += (1.0 - hp.rms_decay) * g * g
        buf *= hp.momentum
        buf += g / (np.sqrt(sq) + hp.rms_epsilon)
        if hp.weight_decay != 0.0:
            p -= lr * hp.weight_decay * p
        p -= lr * buf


def train_step(
    batch_indices,
    dataset: Dataset,
    state: ModelState,
    hp: Hyperparams,
    intervention_rng: np.random.Generator,
    batch_counter: int = 0,
) -> LossReport:
    """One optimizer step on a batch; returns the batch's pre-update report.

    Draws the fresh interventions once per training block, for both sub-nets
    of every sample in it, in batch order (see make_intervention_attention)."""
    def draw(positions, betas, gammas):
        return make_intervention_attention(hp.intervention, betas, gammas, intervention_rng,
                                           batch_counter)

    report, grads = batch_loss_and_grads(
        batch_indices, dataset, state.weights, hp.loss_weights, draw)
    rmsprop_update(state, grads, hp)
    return report


def train(dataset: Dataset, hp: Hyperparams) -> tuple[ModelState, TrainLog]:
    """Full training run: seeded init, per-epoch seeded shuffles, batches of
    hp.batch_size (short final batch kept)."""
    init_rng, shuffle_rng, derived_interv = spawn_rngs(hp.seed, 3)
    interv_rng = (derived_interv if hp.intervention_seed is None
                  else make_rng(hp.intervention_seed))
    state = state_for_dataset(dataset, init_rng)
    log = TrainLog()
    train_idx = np.asarray(dataset.split.train_idx, dtype=np.intp)
    if hp.epochs > 0 and train_idx.size == 0:
        raise ValueError("dataset has no training samples")
    batch_counter = 0
    for _ in range(hp.epochs):
        t0 = time.perf_counter()
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        batch_reports: list[tuple[int, LossReport]] = []
        for start in range(0, len(order), hp.batch_size):
            batch = order[start:start + hp.batch_size]
            rep = train_step(batch, dataset, state, hp, interv_rng, batch_counter)
            batch_counter += 1
            batch_reports.append((len(batch), rep))
        total_n = sum(nb for nb, _ in batch_reports)

        def wmean(name):
            return sum(nb * getattr(r, name) for nb, r in batch_reports) / total_n

        correct = sum(r.correct for _, r in batch_reports)
        log.epoch_reports.append(LossReport(**{k: wmean(k) for k in LOSS_FIELDS},
                                            correct=correct))
        log.train_accuracy.append(correct / total_n)
        log.epoch_seconds.append(time.perf_counter() - t0)
    return state, log


def report_dict(r: LossReport) -> dict:
    return {k: getattr(r, k) for k in LOSS_FIELDS}


def save_checkpoint(
    state: ModelState, hp: Hyperparams, directory: str | Path,
    epoch: int, loss_history: list[LossReport] | None = None,
) -> None:
    """Weights as MSDT tensors plus deterministic JSON metadata (no wall-clock,
    so identical runs produce byte-identical checkpoints), saved as one unit
    by tensor_io.write_directory."""
    write_directory(directory, state.weights, CHECKPOINT_META, {
        "epoch": epoch,
        "seed": hp.seed,
        "hyperparams": asdict(hp),
        "loss_history": [report_dict(r) for r in (loss_history or [])],
    })


def load_checkpoint(directory: str | Path) -> tuple[ModelState, dict]:
    directory = Path(directory)
    meta_path = directory / CHECKPOINT_META
    meta = read_index(meta_path)
    epoch = meta.get("epoch")
    if type(epoch) is not int or epoch < 0:
        raise FormatError(f"{meta_path}: 'epoch' must be a non-negative integer, got {epoch!r}")
    hp = meta.get("hyperparams")
    try:  # the settings check refuses a wrong type, a non-finite value or a broken rule
        Hyperparams(**{**hp, "loss_weights": LossWeights(**hp["loss_weights"])})
    except (TypeError, KeyError, ValueError) as e:
        raise FormatError(f"{meta_path}: 'hyperparams' do not build Hyperparams ({e!r})") from e
    arrays = {name: read_tensor(directory / f"{name}.msdt").astype(np.float64)
              for name in PARAM_NAMES}
    for name, arr in arrays.items():
        path = directory / f"{name}.msdt"
        if arr.ndim != 2:
            raise FormatError(f"{path}: {name} must be a matrix, got shape {arr.shape}")
        # w1 comes first, so its shape is a checked matrix here
        if arr.shape != (want := attr_visual.weight_shapes(*arrays["w1"].shape)[name]):
            raise FormatError(f"{path}: {name} has shape {arr.shape}, expected {want} "
                              f"({', '.join(ATTR_SIDE)} are Da x D; "
                              f"{', '.join(REGION_SIDE)} are D x Da)")
    return ModelState(arrays), meta
