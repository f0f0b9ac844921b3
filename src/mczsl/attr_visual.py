"""Row-wise bilinear cross-attention, the one reading of both sub-nets.

Both sub-nets are one cross-attention read in opposite directions, built from
bilinear tables Q w K'. Every row q_i of the queries Q attends over the rows
of the keys K with weights softmax(Q w_s K') by rows. Its readout
q_i' w_e (attention K)_i is the row sum of attention times the table Q w_e K'.
The attribute-to-visual sub-net takes Q = A (K x Da), K = V (R x D), w_s = w1
and w_e = w2, so its readout is one confidence per attribute. The
visual-to-attribute sub-net takes Q = V, K = A, w_s = w3 and w_e = w4, and the
raw table V w_att A' lifts its R region scores to K attribute scores. Class
logits are dot products of the attribute scores with the class prototypes Z
(C x K).

The five trained matrices live in one dict, ATTR_SIDE for the first sub-net
and REGION_SIDE for the second, shaped by `weight_shapes`; `query_products`
builds the query side Q w of each table (Q w) K' from it, `cross_attention`
reads the tables against the keys, and `forward_both` runs both sub-nets.
A w1 and A w2 do not depend on the image, so training builds them once per
batch and `score_blocks` once per call; V w3, V w4, V w_att per block.

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
    """One sub-net pass. The last three fields do not depend on the attention;
    `intervened` reads the scores again from them under another attention."""

    attention: ad.Tensor  # queries x keys, rows sum to 1
    attr_scores: ad.Tensor  # K per-attribute confidences
    logits: ad.Tensor  # C class scores
    table: ad.Tensor  # queries x keys readout table Q w_e K'
    lift: ad.Tensor | None  # queries x K table from readout to attribute scores
    prototypes: ad.Tensor  # Z', K x C


def _readout(attention, table, lift, prototypes) -> SubnetForward:
    """The pass under `attention`: readout, lift (if any) and class logits."""
    scores = ad.tsum(ad.mul(attention, table), axis=-1, keepdims=lift is not None)
    if lift is not None:
        scores = ad.tsum(ad.mul(scores, lift), axis=-2)
    return SubnetForward(attention, scores, ad.matmul(scores, prototypes),
                         table, lift, prototypes)


def query_products(Q, weights, names) -> list[ad.Tensor]:
    """Q w for the weights `names` of the mapping `weights` (arrays or tape
    leaves): the query side of the tables (Q w) K'. Q may lead with a block axis."""
    Q = ad.constant(Q)
    ws = [ad.as_tensor(weights[name]) for name in names]
    for w, name in zip(ws, names):
        if Q.data.ndim not in (2, 3) or w.data.ndim != 2 or w.data.shape[0] != Q.shape[-1]:
            raise ShapeError(f"bilinear shapes inconsistent: {Q.shape} x {name} {w.data.shape}")
    return [ad.matmul(Q, w) for w in ws]


def cross_attention(products, K, Z) -> SubnetForward:
    """Rows of Q attend over rows of K (either may lead with a block axis), from
    the query-side products (Q w_s, Q w_e) or (Q w_s, Q w_e, Q w_lift). With a
    third product, the per-query readout is lifted to attribute scores through
    the raw table Q w_lift K' (no normalization)."""
    K = np.asarray(K)
    if K.ndim not in (2, 3) or any(p.data.shape[-1] != K.shape[-1] for p in products):
        raise ShapeError(f"bilinear shapes inconsistent: query products "
                         f"{[p.data.shape for p in products]} x keys {K.shape}")
    keys_t = ad.constant(np.swapaxes(K, -1, -2))
    scores, readout, *lift = [ad.matmul(p, keys_t) for p in products]
    return _readout(ad.softmax(scores, axis=-1), readout, lift[0] if lift else None,
                    ad.constant(np.transpose(Z)))


def forward_both(V, dataset: Dataset, products, weights) -> tuple[SubnetForward, SubnetForward]:
    """Both sub-nets on one sample's regions V (R x D), or on a block of
    samples (B x R x D), against the dataset's attributes and prototypes.
    `products` are (A w1, A w2), built once by the caller; V w3, V w4 and
    V w_att come from the mapping `weights` (arrays or tape leaves).
    Training, prediction and attention export all score samples here, and
    the (float32) features are widened to float64 here, one block at a time."""
    A, Z, V = dataset.attributes, dataset.class_semantics, np.asarray(V, dtype=np.float64)
    f1 = cross_attention(products, V, Z)
    return f1, cross_attention(query_products(V, weights, REGION_SIDE), A, Z)


def score_blocks(indices, dataset: Dataset, weights):
    """(rows, f1, f2) per block of `block_samples(dataset, BLOCK_VALUES)` of the
    samples `indices`, in order, from `forward_both`; A w1 and A w2 run once
    per call, and one block's copy of the features is alive at a time."""
    idx = np.asarray(indices, dtype=np.intp)
    block = block_samples(dataset, BLOCK_VALUES)
    products = query_products(dataset.attributes, weights, ATTR_SIDE)
    for start in range(0, idx.size, block):
        rows = idx[start:start + block]
        yield (rows, *forward_both(dataset.features[rows], dataset, products, weights))


def check_normalized_rows(weights: np.ndarray, tol: float = 1e-4) -> None:
    deviation = np.max(np.abs(weights.sum(axis=-1) - 1.0))
    if deviation > tol:
        raise ValueError(
            f"intervention attention rows must sum to 1 (max deviation {deviation:.3g})")


def intervened(observed: SubnetForward, attn_bar) -> SubnetForward:
    """The observed pass with its attention forced to `attn_bar`.

    Only the readout, the lift and the logits run again, on the observed
    pass's products. attn_bar is an exogenous constant: no gradient ever flows
    into it, while the downstream weights keep their gradients.
    """
    attn_bar = ad.constant(attn_bar.data if isinstance(attn_bar, ad.Tensor) else attn_bar)
    if attn_bar.shape != observed.attention.data.shape:
        raise ShapeError(f"intervention attention {attn_bar.shape} differs from the observed "
                         f"{observed.attention.data.shape}")
    check_normalized_rows(attn_bar.data)
    return _readout(attn_bar, observed.table, observed.lift, observed.prototypes)


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
