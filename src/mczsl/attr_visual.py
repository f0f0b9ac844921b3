"""Row-wise bilinear cross-attention and the attribute-to-visual sub-net.

Both sub-nets are one cross-attention read in opposite directions, built from
bilinear tables Q w K'. Every row q_i of the queries Q attends over the rows
of the keys K with weights softmax(Q w_s K') by rows. Its readout
q_i' w_e (attention K)_i is the row sum of attention times the table Q w_e K'.
The attribute-to-visual sub-net takes Q = A (K x Da), K = V (R x D), w_s = w1
and w_e = w2, so its readout is one confidence per attribute. Class logits
are dot products of the attribute scores with the class prototypes Z (C x K).

The five trained matrices live in one dict, ATTR_SIDE for this sub-net and
REGION_SIDE for the other; `query_products` builds the query side Q w of each
table (Q w) K' from it. A w1 and A w2 do not depend on the image, so training
builds them once per batch and `score_blocks` once per call; V w3, V w4, V w_att per block.

V holds one sample's regions (R x D) or a block of samples (B x R x D). V, A
and Z are constants; only the weight matrices are trainable. Every pass builds
autodiff graphs, so the same code path serves training and inference.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ShapeError
from .tensor_io import write_atomic, write_tensor

ATTR_SIDE = ("w1", "w2")  # Da x D, the attribute-to-visual sub-net
REGION_SIDE = ("w3", "w4", "w_att")  # D x Da, the visual-to-attribute sub-net


@dataclass
class AttrVisualParams:
    """w1 scores attribute/region pairs; w2 scores attribute/attended-feature pairs.

    Both are Da x D, as numpy arrays or autodiff Tensors.
    """

    w1: object
    w2: object


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
    Q = np.asarray(Q, dtype=np.float64)
    ws = [ad.as_tensor(weights[name]) for name in names]
    for w, name in zip(ws, names):
        if Q.ndim not in (2, 3) or w.data.ndim != 2 or w.data.shape[0] != Q.shape[-1]:
            raise ShapeError(f"bilinear shapes inconsistent: {Q.shape} x {name} {w.data.shape}")
    queries = ad.constant(Q)
    return [ad.matmul(queries, w) for w in ws]


def cross_attention(products, K, Z) -> SubnetForward:
    """Rows of Q attend over rows of K (either may lead with a block axis), from
    the query-side products (Q w_s, Q w_e) or (Q w_s, Q w_e, Q w_lift). With a
    third product, the per-query readout is lifted to attribute scores through
    the raw table Q w_lift K' (no normalization)."""
    K = np.asarray(K, dtype=np.float64)
    if K.ndim not in (2, 3) or any(p.data.shape[-1] != K.shape[-1] for p in products):
        raise ShapeError(f"bilinear shapes inconsistent: query products "
                         f"{[p.data.shape for p in products]} x keys {K.shape}")
    keys_t = ad.constant(np.swapaxes(K, -1, -2))
    scores, readout, *lift = [ad.matmul(p, keys_t) for p in products]
    return _readout(ad.softmax(scores, axis=-1), readout, lift[0] if lift else None,
                    ad.constant(np.asarray(Z, dtype=np.float64).T))


def forward(V, A, Z, params: AttrVisualParams) -> SubnetForward:
    """Attributes attend over regions: beta (K x R) = softmax(A w1 V') by rows,
    and attribute k scores a_k' w2 (beta V)_k."""
    return cross_attention(query_products(A, vars(params), ATTR_SIDE), V, Z)


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
    attn_bar = np.asarray(attn_bar.data if isinstance(attn_bar, ad.Tensor) else attn_bar,
                          dtype=np.float64)
    if attn_bar.shape != observed.attention.data.shape:
        raise ShapeError(f"intervention attention {attn_bar.shape} differs from the observed "
                         f"{observed.attention.data.shape}")
    check_normalized_rows(attn_bar)
    return _readout(ad.constant(attn_bar), observed.table, observed.lift, observed.prototypes)


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
    write_atomic(sidecar, "\n".join(lines) + "\n")
