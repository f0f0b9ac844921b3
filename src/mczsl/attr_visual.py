"""Attribute-to-visual attention sub-net.

For every attribute, a bilinear score against each region feature yields
attention weights over regions (softmax per attribute row). The attended
region mix is scored against the attribute vector to produce one confidence
per attribute, and class logits are dot products with class prototypes.

Inputs V (R x D), A (K x Da) and prototypes Z (C x K) are constants; only the
two weight matrices are trainable. All forward functions build autodiff
graphs, so the same code path serves training and inference.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ShapeError
from .tensor_io import write_tensor


@dataclass
class AttrVisualParams:
    """w1 scores attribute/region pairs; w2 scores attribute/attended-feature pairs.

    Both are Da x D, as numpy arrays or autodiff Tensors.
    """

    w1: object
    w2: object


@dataclass
class AttrVisualForward:
    attention: ad.Tensor  # K x R, rows sum to 1
    features: ad.Tensor  # K x D attended region mixes
    attr_scores: ad.Tensor  # K per-attribute confidences
    logits: ad.Tensor  # C class scores


def check_bilinear(left, w, right, w_name: str) -> None:
    """Shape check for the row-wise bilinear form left_i' w right_j: all three
    are matrices, and w is (left columns) x (right columns)."""
    l_shape, r_shape = left.shape, right.shape
    w_shape = w.data.shape if isinstance(w, ad.Tensor) else np.asarray(w).shape
    if len(l_shape) != 2 or len(r_shape) != 2 or len(w_shape) != 2:
        raise ShapeError(
            f"expected matrices, got {l_shape} x {w_name} {w_shape} x {r_shape}"
        )
    if l_shape[1] != w_shape[0] or w_shape[1] != r_shape[1]:
        raise ShapeError(
            f"bilinear shapes inconsistent: {l_shape} x {w_name} {w_shape} x {r_shape}"
        )


def attention(V, A, params: AttrVisualParams) -> ad.Tensor:
    """K x R weights: softmax over regions of the bilinear scores a_k' w1 v_r."""
    V = np.asarray(V, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    check_bilinear(A, params.w1, V, "w1")
    scores = ad.matmul(ad.matmul(ad.constant(A), ad.as_tensor(params.w1)), ad.constant(V.T))
    return ad.softmax(scores, axis=1)


def features(attn, V) -> ad.Tensor:
    """K x D attended features: row k is the attention-weighted mix of regions."""
    attn = ad.as_tensor(attn)
    V = np.asarray(V, dtype=np.float64)
    if attn.data.ndim != 2 or V.ndim != 2 or attn.data.shape[1] != V.shape[0]:
        raise ShapeError(f"attention {attn.data.shape} incompatible with regions {V.shape}")
    return ad.matmul(attn, ad.constant(V))


def embed(feats, A, params: AttrVisualParams) -> ad.Tensor:
    """Length-K scores: entry k is a_k' w2 f_k, the confidence for attribute k."""
    feats = ad.as_tensor(feats)
    A = np.asarray(A, dtype=np.float64)
    check_bilinear(A, params.w2, feats.data, "w2")
    projected = ad.matmul(ad.constant(A), ad.as_tensor(params.w2))  # K x D
    return ad.tsum(ad.mul(projected, feats), axis=1)


def predict(attr_scores, Z) -> ad.Tensor:
    """Length-C logits: dot product of the attribute scores with each prototype."""
    attr_scores = ad.as_tensor(attr_scores)
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or attr_scores.data.ndim != 1 or Z.shape[1] != attr_scores.data.shape[0]:
        raise ShapeError(f"prototypes {Z.shape} incompatible with scores {attr_scores.data.shape}")
    return ad.matmul(ad.constant(Z), attr_scores)


def forward(V, A, Z, params: AttrVisualParams) -> AttrVisualForward:
    attn = attention(V, A, params)
    feats = features(attn, V)
    scores = embed(feats, A, params)
    return AttrVisualForward(attn, feats, scores, predict(scores, Z))


def check_normalized_rows(weights: np.ndarray, tol: float = 1e-4) -> None:
    sums = weights.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > tol:
        raise ValueError(
            f"intervention attention rows must sum to 1 (max deviation {np.max(np.abs(sums - 1.0)):.3g})"
        )


def intervened(V, A, Z, params: AttrVisualParams, attn_bar) -> tuple[ad.Tensor, ad.Tensor]:
    """Re-run the pipeline with attention forced to `attn_bar`.

    attn_bar is treated as an exogenous constant: no gradient ever flows into
    it, while the downstream weights keep their gradients.
    """
    attn_bar = np.asarray(attn_bar.data if isinstance(attn_bar, ad.Tensor) else attn_bar,
                          dtype=np.float64)
    check_normalized_rows(attn_bar)
    feats_bar = features(ad.constant(attn_bar), V)
    scores_bar = embed(feats_bar, A, params)
    return scores_bar, predict(scores_bar, Z)


def causal_effect(logits, logits_bar) -> np.ndarray:
    """Observed-minus-intervened logits; the attention's effect on the prediction."""
    a = np.asarray(logits.data if isinstance(logits, ad.Tensor) else logits, dtype=np.float64)
    b = np.asarray(logits_bar.data if isinstance(logits_bar, ad.Tensor) else logits_bar,
                   dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"effect operands differ in shape: {a.shape} vs {b.shape}")
    return a - b


def export_attention(attn: np.ndarray, attribute_names: list[str], out_prefix: str | Path) -> None:
    """Write an attention map as MSDT plus a `index<TAB>name` sidecar."""
    out_prefix = Path(out_prefix)
    write_tensor(out_prefix.parent / (out_prefix.name + ".msdt"), np.asarray(attn))
    lines = [f"{i}\t{name}" for i, name in enumerate(attribute_names)]
    sidecar = out_prefix.parent / (out_prefix.name + ".attributes.txt")
    sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")
