"""Independent reference for the fused zero-shot prediction.

Plain batched numpy written from the model's formulas, sharing no code with
mczsl: it checks that the library's predictions are correct at every shape
the benchmark runs, including the CUB-like one where accuracy itself is not
informative.
"""
from __future__ import annotations

import numpy as np


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attribute_scores(V, A, w1, w2, w3, w4, w_att, alpha=(0.8, 0.2)) -> np.ndarray:
    """Fused attribute scores (n x K) for region features V (n x R x D)."""
    # attribute->visual: attention over regions per attribute, then a_k' w2 f_k
    beta = _softmax((A @ w1) @ V.transpose(0, 2, 1))             # n x K x R
    psi1 = np.sum((A @ w2) * (beta @ V), axis=-1)                  # n x K
    # visual->attribute: attention over attributes per region, then lift to K
    gamma = _softmax((V @ w3) @ A.T)                               # n x R x K
    region = np.sum((V @ w4) * (gamma @ A), axis=-1)               # n x R
    psi2 = np.einsum("nr,nrk->nk", region, (V @ w_att) @ A.T)      # n x K
    return alpha[0] * psi1 + alpha[1] * psi2


def predictions(dataset, weights: dict, indices, setting: str, chunk: int = 8):
    """(predicted classes, top-two score margins) for the samples `indices`.

    Candidates are the unseen classes (czsl) or all classes (gzsl); unseen
    candidates get +1 and seen ones -1; ties go to the lowest class index.
    """
    split = dataset.split
    unseen = set(split.unseen_classes)
    cands = sorted(unseen) if setting == "czsl" else sorted(
        split.seen_classes + split.unseen_classes)
    Zc = dataset.class_semantics[cands]
    offsets = np.array([1.0 if c in unseen else -1.0 for c in cands])
    preds, margins = [], []
    idx = np.asarray(indices, dtype=np.intp)
    for start in range(0, len(idx), chunk):
        V = dataset.features[idx[start:start + chunk]]
        psi = attribute_scores(V, dataset.attributes, weights["w1"], weights["w2"],
                               weights["w3"], weights["w4"], weights["w_att"])
        scores = psi @ Zc.T + offsets
        top = np.argmax(scores, axis=1)
        ordered = np.sort(scores, axis=1)
        preds.extend(cands[t] for t in top)
        margins.extend(ordered[:, -1] - ordered[:, -2] if len(cands) > 1
                       else np.full(len(V), np.inf))
    return preds, margins
