"""Row-wise bilinear cross-attention, the one reading of both sub-nets.

Both sub-nets read bilinear tables between the regions V (R x D) and the
attributes A (K x Da), each built from the regions through one weight:
T_w = (V w) A', R x K. The attribute-to-visual sub-net reads its tables through
w1' and w2' (T_w1' is (A w1 V')'): each attribute attends over the regions with
softmax(T_w1') along R (axis -2), and its readout, one confidence per
attribute, is the column sum of attention times T_w2'. The visual-to-attribute
sub-net reads its tables through w3 and w4: each region attends over the
attributes along K (axis -1), and its R region scores s lift to K attribute
scores through the raw table V w_att A' as their s-weighted row sum, computed
as ((s' V) w_att) A' without building that table. Class logits are dot
products of the attribute scores with the class prototypes Z (C x K).

The five trained matrices live in one dict, ATTR_SIDE for the first sub-net
and REGION_SIDE for the second, shaped by `weight_shapes`. `cross_attention`
builds and reads one sub-net's tables, and `forward_both` runs both; no product
is built from A alone, so a call or a batch has no set-up. The attention
leaves a pass as queries x keys: K x R (beta) or R x K (gamma).

V holds one sample's regions (R x D) or a block of samples (B x R x D). V, A
and Z are constants; only the weight matrices are trainable. Every pass builds
autodiff graphs, so the same code path serves training and inference, and
every tape value is float64 (autodiff.Tensor casts it).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import Dataset
from .errors import ShapeError
from .tensor_io import write_atomic, write_tensor

ATTR_SIDE = ("w1", "w2")  # the attribute-to-visual sub-net
REGION_SIDE = ("w3", "w4", "w_att")  # the visual-to-attribute sub-net
BLOCK_VALUES = 2 ** 21  # region-feature values per inference block: 5 samples at the CUB-like shape


def weight_shapes(attr_dim: int, feature_dim: int) -> dict[str, tuple[int, int]]:
    """Da x D for each name of ATTR_SIDE, then D x Da for each of REGION_SIDE."""
    return ({name: (attr_dim, feature_dim) for name in ATTR_SIDE}
            | {name: (feature_dim, attr_dim) for name in REGION_SIDE})


def block_samples(dataset: Dataset, values: int) -> int:
    """Samples in a block of at most `values` region-feature values (at least 1)."""
    return max(1, values // (dataset.num_regions * dataset.feature_dim))


@dataclass
class SubnetForward:
    """One sub-net pass. The last four fields do not depend on the attention;
    `intervened` reads the scores again from them under another attention."""

    attention: ad.Tensor  # queries x keys, rows sum to 1
    attr_scores: ad.Tensor  # K per-attribute confidences
    logits: ad.Tensor  # C class scores
    table: ad.Tensor  # R x K readout table (V w_e) A'
    axis: int  # the table axis the attention normalizes: -2 (over R) or -1 (over K)
    lift: tuple[ad.Tensor, ad.Tensor, ad.Tensor] | None  # operands (V', w_att, A'), no table
    prototypes: ad.Tensor  # Z', K x C


def _readout(weights, table, axis, lift, prototypes) -> SubnetForward:
    """The pass under attention `weights`, laid out as the R x K `table` and
    normalized along `axis`: readout, lift (if any) and class logits. The lift
    of the per-region readout s is ((s' V) w_att) A', with s' V taken as the
    column V' s and its unit axis summed away."""
    scores = ad.tsum(ad.mul(weights, table), axis=axis, keepdims=lift is not None)
    if lift is not None:
        regions_t, w_lift, keys_t = lift
        pooled = ad.tsum(ad.matmul(regions_t, scores), axis=-1)
        scores = ad.matmul(ad.matmul(pooled, w_lift), keys_t)
    attention = weights if axis == -1 else ad.transpose(weights)
    return SubnetForward(attention, scores, ad.matmul(scores, prototypes),
                         table, axis, lift, prototypes)


def cross_attention(V, A, Z, weights, side) -> SubnetForward:
    """One sub-net's pass on the regions V (R x D, or a block B x R x D), read
    from the weights `side` of the mapping `weights` (arrays or tape leaves).
    Each table (V w) A' runs as two stacked 2-D products. ATTR_SIDE reads its
    tables through w1' and w2' and attends over R; REGION_SIDE reads them
    through w3 and w4, attends over K and lifts through w_att without
    building V w_att."""
    V, keys_t = ad.constant(V), ad.constant(np.transpose(A))
    if side == REGION_SIDE:
        *ws, w_lift = (weights[name] for name in side)
        axis, lift = -1, (ad.constant(np.swapaxes(V.data, -1, -2)), ad.as_tensor(w_lift), keys_t)
    else:
        ws, axis, lift = [ad.transpose(weights[name]) for name in side], -2, None
    scores, readout = [ad.matmul(ad.matmul(V, w), keys_t) for w in ws]
    return _readout(ad.softmax(scores, axis=axis), readout, axis, lift,
                    ad.constant(np.transpose(Z)))


def forward_both(V, dataset: Dataset, weights) -> tuple[SubnetForward, SubnetForward]:
    """Both sub-nets on one sample's regions V (R x D), or on a block of
    samples (B x R x D), against the dataset's attributes and prototypes, from
    the mapping `weights` (arrays or tape leaves). Training, prediction and
    attention export all score samples here, and the (float32) features are
    widened to float64 here, one block at a time."""
    V = np.asarray(V, dtype=np.float64)
    return tuple(cross_attention(V, dataset.attributes, dataset.class_semantics, weights, side)
                 for side in (ATTR_SIDE, REGION_SIDE))


def score_blocks(indices, dataset: Dataset, weights):
    """(rows, f1, f2) per block of `block_samples(dataset, BLOCK_VALUES)` of the
    samples `indices`, in order, from `forward_both`; one block's copy of the
    features is alive at a time."""
    idx = np.asarray(indices, dtype=np.intp)
    block = block_samples(dataset, BLOCK_VALUES)
    for start in range(0, idx.size, block):
        rows = idx[start:start + block]
        yield (rows, *forward_both(dataset.features[rows], dataset, weights))


def check_normalized_rows(weights: np.ndarray, tol: float = 1e-4) -> None:
    deviation = np.max(np.abs(weights.sum(axis=-1) - 1.0))
    if deviation > tol:
        raise ValueError(
            f"intervention attention rows must sum to 1 (max deviation {deviation:.3g})")


def intervened(observed: SubnetForward, attn_bar) -> SubnetForward:
    """The observed pass with its attention forced to `attn_bar`.

    attn_bar is laid out as the observed attention (queries x keys). Only the
    readout, the lift and the logits run again, on the observed pass's table
    and lift operands. attn_bar is an exogenous constant: no gradient ever
    flows into it, while the downstream weights keep their gradients.
    """
    attn_bar = ad.constant(attn_bar.data if isinstance(attn_bar, ad.Tensor) else attn_bar)
    if attn_bar.shape != observed.attention.data.shape:
        raise ShapeError(f"intervention attention {attn_bar.shape} differs from the observed "
                         f"{observed.attention.data.shape}")
    check_normalized_rows(attn_bar.data)
    weights = attn_bar if observed.axis == -1 else ad.transpose(attn_bar)
    return _readout(weights, observed.table, observed.axis, observed.lift, observed.prototypes)


def causal_effect(logits, logits_bar) -> np.ndarray:
    """Observed-minus-intervened logits; the attention's effect on the prediction."""
    a, b = (ad.as_tensor(x).data for x in (logits, logits_bar))
    if a.shape != b.shape:
        raise ShapeError(f"effect operands differ in shape: {a.shape} vs {b.shape}")
    return a - b


def export_attention(attn: np.ndarray, attribute_names: list[str], out_prefix: str | Path) -> None:
    """Write an attention map as MSDT plus a `index<TAB>name` sidecar."""
    out_prefix = Path(out_prefix)
    write_tensor(out_prefix.parent / (out_prefix.name + ".msdt"), np.asarray(attn))
    lines = [f"{i}\t{name}" for i, name in enumerate(attribute_names)]
    sidecar = out_prefix.parent / (out_prefix.name + ".attributes.txt")
    write_atomic(sidecar, "\n".join(lines) + "\n")
