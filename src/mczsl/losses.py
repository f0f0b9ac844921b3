"""Loss terms and their weighted combination.

Every term works along the last axis: it takes logits (..., C) or attribute
scores (..., K) with one label per row and returns one autodiff value per row,
so gradients flow through it. A 1-D input is one row and gives a scalar.
Batch averaging is the caller's job. `weighted_total` combines the terms, on
autodiff rows or on the plain floats of the batch report.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Split
from .errors import ShapeError
from .numeric import check_settings

# floor inside KL logarithms; avoids -inf on confident distributions
KL_FLOOR = 1e-12


@dataclass(frozen=True)
class LossWeights:
    lambda_cal: float = 0.05
    lambda_ar: float = 0.03
    lambda_causal: float = 0.3
    lambda_distill: float = 0.001

    def __post_init__(self):
        check_settings(
            self,
            (lambda: self.lambda_cal >= 0, "lambda_cal >= 0"),
            (lambda: self.lambda_ar >= 0, "lambda_ar >= 0"),
            (lambda: self.lambda_causal >= 0, "lambda_causal >= 0"),
            (lambda: self.lambda_distill >= 0, "lambda_distill >= 0"),
        )


@dataclass(frozen=True)
class LossReport:
    acec: float
    ar: float
    causal: float
    distill: float
    total: float
    correct: int = 0  # samples ranked right, counted by training.batch_loss_and_grads


def calibration_offsets(split: Split, num_classes: int) -> np.ndarray:
    """The self-calibration shift of each class's logit: +1 unseen, -1 seen."""
    offsets = np.full(num_classes, -1.0)
    offsets[split.unseen_classes] = 1.0
    return offsets


def _seen_one_hot(labels, split: Split) -> np.ndarray:
    """One-hot rows over the seen classes, one per label; refuses unseen labels."""
    labels = np.asarray(labels)
    hot = labels[..., None] == np.asarray(split.seen_classes)
    missing = ~hot.any(axis=-1)
    if missing.any():
        raise ValueError(f"label {labels[missing][0]} is not a seen class")
    return hot.astype(np.float64)


def _seen_cross_entropy(logits: ad.Tensor, hot: np.ndarray, split: Split) -> ad.Tensor:
    if hot.shape[:-1] != logits.data.shape[:-1]:
        raise ShapeError(f"{hot.shape[:-1]} labels for logits of shape {logits.data.shape}")
    seen_logits = ad.take(logits, split.seen_classes, axis=-1)
    return ad.logsumexp(seen_logits) - ad.tsum(ad.mul(seen_logits, ad.constant(hot)), axis=-1)


def acec_loss(logits, labels, split: Split, lambda_cal: float) -> ad.Tensor:
    """Cross-entropy over seen classes plus the self-calibration term, from a
    sub-net's class logits (one per class).

    The calibration term is the summed negative log-probability of each unseen
    class under a softmax over ALL classes whose logits are shifted by
    `calibration_offsets`; it pushes mass onto unseen classes during training.
    """
    logits = ad.as_tensor(logits)
    term1 = _seen_cross_entropy(logits, _seen_one_hot(labels, split), split)
    if lambda_cal == 0.0 or not split.unseen_classes:
        return term1
    shifted = ad.add(logits, ad.constant(calibration_offsets(split, logits.data.shape[-1])))
    lse_all = ad.logsumexp(shifted)
    unseen_sum = ad.tsum(ad.take(shifted, split.unseen_classes, axis=-1), axis=-1)
    n_unseen = float(len(split.unseen_classes))
    return ad.add(term1, ad.mul(ad.sub(ad.mul(lse_all, n_unseen), unseen_sum), lambda_cal))


def ar_loss(f, z_true) -> ad.Tensor:
    """Squared Euclidean distance between the embedding and its class prototype."""
    f = ad.as_tensor(f)
    z = np.asarray(z_true, dtype=np.float64)
    if f.data.shape != z.shape:
        raise ShapeError(f"embedding {f.data.shape} vs prototype {z.shape}")
    diff = ad.sub(f, ad.constant(z))
    return ad.tsum(ad.mul(diff, diff), axis=-1)


def causal_loss(logits, logits_bar, labels, split: Split) -> ad.Tensor:
    """Seen-class cross-entropy of both the observed and the intervened class
    logits; supervises how much the learned attention helps the prediction.
    Gradients flow through both branches (the intervention itself is constant)."""
    hot = _seen_one_hot(labels, split)
    return ad.add(
        _seen_cross_entropy(ad.as_tensor(logits), hot, split),
        _seen_cross_entropy(ad.as_tensor(logits_bar), hot, split),
    )


def seen_class_distribution(logits, split: Split) -> ad.Tensor:
    """Softmax over the seen-class entries of each row of logits."""
    return ad.softmax(ad.take(logits, split.seen_classes, axis=-1), axis=-1)


def _kl(p: ad.Tensor, q: ad.Tensor) -> ad.Tensor:
    log_ratio = ad.sub(ad.log(ad.floor_at(p, KL_FLOOR)), ad.log(ad.floor_at(q, KL_FLOOR)))
    return ad.tsum(ad.mul(p, log_ratio), axis=-1)


def distill_loss(p1, p2) -> ad.Tensor:
    """Symmetrized KL (Jensen-Shannon style) plus squared distance between two
    class posteriors. Zero iff the posteriors agree."""
    p1, p2 = ad.as_tensor(p1), ad.as_tensor(p2)
    for name, p in (("p1", p1), ("p2", p2)):
        d = p.data
        if d.ndim == 0 or np.any(d < 0) or np.any(np.abs(d.sum(axis=-1) - 1.0) > 1e-6):
            raise ValueError(f"{name} is not a probability distribution")
    if p1.data.shape != p2.data.shape:
        raise ShapeError(f"distributions differ in shape: {p1.data.shape} vs {p2.data.shape}")
    jsd = ad.mul(ad.add(_kl(p1, p2), _kl(p2, p1)), 0.5)
    diff = ad.sub(p1, p2)
    return ad.add(jsd, ad.tsum(ad.mul(diff, diff), axis=-1))


def weighted_total(acec, ar, causal, distill, weights: LossWeights):
    """The paper's objective acec + l_ar*ar + l_causal*causal + l_distill*distill,
    on floats or on autodiff rows alike."""
    return (acec + ar * weights.lambda_ar + causal * weights.lambda_causal
            + distill * weights.lambda_distill)

