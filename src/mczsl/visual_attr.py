"""Visual-to-attribute attention sub-net.

The mirror of attr_visual: every region attends over attributes (softmax per
region row), the attended attribute mix is scored per region, and a bilinear
region/attribute table lifts the R per-region scores to K attribute scores
so predictions share the prototype space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attr_visual import check_bilinear, check_normalized_rows, predict
from .attr_visual import causal_effect  # noqa: F401  (re-exported)
from .errors import ShapeError


@dataclass
class VisualAttrParams:
    """w3 scores region/attribute pairs, w4 scores region/attended-mix pairs,
    w_att parameterizes the region-to-attribute lifting table. All D x Da."""

    w3: object
    w4: object
    w_att: object


@dataclass
class VisualAttrForward:
    attention: ad.Tensor  # R x K, rows sum to 1
    features: ad.Tensor  # R x Da attended attribute mixes
    region_scores: ad.Tensor  # R per-region scores
    attr_scores: ad.Tensor  # K lifted attribute scores
    logits: ad.Tensor  # C class scores


def attention(V, A, params: VisualAttrParams) -> ad.Tensor:
    """R x K weights: softmax over attributes of the bilinear scores v_r' w3 a_k."""
    V = np.asarray(V, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    check_bilinear(V, params.w3, A, "w3")
    scores = ad.matmul(ad.matmul(ad.constant(V), ad.as_tensor(params.w3)), ad.constant(A.T))
    return ad.softmax(scores, axis=1)


def features(attn, A) -> ad.Tensor:
    """R x Da attended mixes: row r is the attention-weighted mix of attribute vectors."""
    attn = ad.as_tensor(attn)
    A = np.asarray(A, dtype=np.float64)
    if attn.data.ndim != 2 or A.ndim != 2 or attn.data.shape[1] != A.shape[0]:
        raise ShapeError(f"attention {attn.data.shape} incompatible with attributes {A.shape}")
    return ad.matmul(attn, ad.constant(A))


def embed(V, feats, params: VisualAttrParams) -> ad.Tensor:
    """Length-R scores: entry r is v_r' w4 s_r for the attended mix s_r."""
    feats = ad.as_tensor(feats)
    V = np.asarray(V, dtype=np.float64)
    check_bilinear(V, params.w4, feats.data, "w4")
    projected = ad.matmul(ad.constant(V), ad.as_tensor(params.w4))  # R x Da
    return ad.tsum(ad.mul(projected, feats), axis=1)


def project(region_scores, V, A, params: VisualAttrParams) -> ad.Tensor:
    """Lift R region scores to K attribute scores through the raw bilinear
    table att[r, k] = v_r' w_att a_k (no normalization)."""
    region_scores = ad.as_tensor(region_scores)
    V = np.asarray(V, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    check_bilinear(V, params.w_att, A, "w_att")
    if region_scores.data.ndim != 1 or region_scores.data.shape[0] != V.shape[0]:
        raise ShapeError(
            f"region scores {region_scores.data.shape} incompatible with regions {V.shape}"
        )
    table = ad.matmul(ad.matmul(ad.constant(V), ad.as_tensor(params.w_att)), ad.constant(A.T))
    return ad.matmul(region_scores, table)


def forward(V, A, Z, params: VisualAttrParams) -> VisualAttrForward:
    attn = attention(V, A, params)
    feats = features(attn, A)
    region_scores = embed(V, feats, params)
    attr_scores = project(region_scores, V, A, params)
    return VisualAttrForward(attn, feats, region_scores, attr_scores, predict(attr_scores, Z))


def intervened(V, A, Z, params: VisualAttrParams, attn_bar) -> tuple[ad.Tensor, ad.Tensor]:
    """Re-run the pipeline with the region-over-attribute attention forced to
    the exogenous constant `attn_bar` (no gradient into it)."""
    attn_bar = np.asarray(attn_bar.data if isinstance(attn_bar, ad.Tensor) else attn_bar,
                          dtype=np.float64)
    check_normalized_rows(attn_bar)
    feats_bar = features(ad.constant(attn_bar), A)
    region_scores_bar = embed(V, feats_bar, params)
    attr_scores_bar = project(region_scores_bar, V, A, params)
    return attr_scores_bar, predict(attr_scores_bar, Z)
