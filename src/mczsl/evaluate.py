"""Fused zero-shot prediction and the CZSL/GZSL evaluation protocol.

Predictions fuse the two sub-nets' attribute scores with fixed coefficients
and add a +1/-1 unseen/seen calibration offset to every candidate logit.
`predict` scores samples in blocks through `training.score_blocks`, one
batched forward of both sub-nets per block.
Accuracies are per-class means (each class weighs equally regardless of its
sample count); the GZSL summary is the harmonic mean H = 2SU/(S+U).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, Split
from .errors import ShapeError
from .numeric import check_finite_settings
from .tensor_io import write_atomic
from .training import ModelState, score_blocks

SETTINGS = ("czsl", "gzsl")


@dataclass(frozen=True)
class FusionConfig:
    alpha1: float = 0.8
    alpha2: float = 0.2
    setting: str = "gzsl"

    def __post_init__(self):
        check_finite_settings(self)
        if self.alpha1 < 0 or self.alpha2 < 0 or self.alpha1 + self.alpha2 <= 0:
            raise ValueError("fusion coefficients must be nonnegative with positive sum")
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {SETTINGS}")


@dataclass
class EvalReport:
    setting: str
    czsl_acc: float | None = None
    gzsl_u: float | None = None
    gzsl_s: float | None = None
    gzsl_h: float | None = None
    per_class_acc: dict[int, float] = field(default_factory=dict)
    confusion_counts: dict[tuple[int, int], int] = field(default_factory=dict)


def harmonic_mean(s: float, u: float) -> float:
    return 0.0 if s + u == 0 else 2.0 * s * u / (s + u)


def candidate_classes(split: Split, setting: str) -> list[int]:
    """Ascending candidate list: unseen classes under CZSL, all classes under GZSL."""
    if setting == "czsl":
        return sorted(split.unseen_classes)
    return sorted(split.seen_classes + split.unseen_classes)


def fused_score(psi, psi_attr, Z, split: Split, cfg: FusionConfig) -> np.ndarray:
    """Scores over candidate_classes(split, cfg.setting), one row per row of the
    attribute scores: (alpha1*psi + alpha2*psi_attr) . z_c + 1 for unseen c,
    - 1 for seen c."""
    psi = np.asarray(psi, dtype=np.float64)
    psi_attr = np.asarray(psi_attr, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    if psi.shape != psi_attr.shape or Z.ndim != 2 or Z.shape[1] != psi.shape[-1]:
        raise ShapeError(
            f"fusion shapes inconsistent: psi {psi.shape}, psi_attr {psi_attr.shape}, Z {Z.shape}"
        )
    fused = cfg.alpha1 * psi + cfg.alpha2 * psi_attr
    unseen = set(split.unseen_classes)
    cands = candidate_classes(split, cfg.setting)
    offsets = np.array([1.0 if c in unseen else -1.0 for c in cands])
    return fused @ Z[cands].T + offsets


def predict(indices, state: ModelState, dataset: Dataset, cfg: FusionConfig) -> list[int]:
    """Classes of the samples `indices`: highest fused score wins; exact ties go
    to the lowest class index. Scores come block by block from `score_blocks`."""
    cands = np.asarray(candidate_classes(dataset.split, cfg.setting))
    preds: list[int] = []
    for _, f1, f2 in score_blocks(indices, dataset, state.weights):
        scores = fused_score(f1.attr_scores.data, f2.attr_scores.data,
                             dataset.class_semantics, dataset.split, cfg)
        preds += cands[np.argmax(scores, axis=1)].tolist()
    return preds


def per_class_accuracy(pairs: list[tuple[int, int]]) -> dict[int, float]:
    """(true, predicted) pairs -> accuracy per class that has samples."""
    totals: dict[int, int] = {}
    correct: dict[int, int] = {}
    for true, pred in pairs:
        totals[true] = totals.get(true, 0) + 1
        correct[true] = correct.get(true, 0) + (1 if pred == true else 0)
    return {c: correct[c] / totals[c] for c in totals}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def evaluate(dataset: Dataset, state: ModelState, cfg: FusionConfig) -> EvalReport:
    """CZSL: per-class mean top-1 over unseen test samples, unseen candidates
    only. GZSL: U and S are per-class means over unseen/seen test samples with
    all classes as candidates, summarized by H."""
    split = dataset.split
    groups = {"unseen": split.test_unseen_idx}
    if cfg.setting == "gzsl":
        groups["seen"] = split.test_seen_idx
    if not all(groups.values()):
        raise ValueError(f"{cfg.setting.upper()} evaluation requires nonempty "
                         f"{' and '.join(groups)} test splits")
    report = EvalReport(setting=cfg.setting)
    acc: dict[str, dict[int, float]] = {}
    # one predict call over every group; zip stops at a group's last label, so
    # each group takes its own predictions from the shared iterator
    preds = iter(predict([i for ids in groups.values() for i in ids], state, dataset, cfg))
    for name, indices in groups.items():
        pairs = list(zip(dataset.labels[indices].astype(int).tolist(), preds))
        acc[name] = per_class_accuracy(pairs)
        report.per_class_acc.update(acc[name])
        for key in pairs:
            report.confusion_counts[key] = report.confusion_counts.get(key, 0) + 1
    if cfg.setting == "czsl":
        report.czsl_acc = _mean(acc["unseen"].values())
    else:
        report.gzsl_u = _mean(acc["unseen"].values())
        report.gzsl_s = _mean(acc["seen"].values())
        report.gzsl_h = harmonic_mean(report.gzsl_s, report.gzsl_u)
    return report


def report_to_dict(report: EvalReport) -> dict:
    return {
        "setting": report.setting,
        "czsl_acc": report.czsl_acc,
        "gzsl_u": report.gzsl_u,
        "gzsl_s": report.gzsl_s,
        "gzsl_h": report.gzsl_h,
        "per_class_acc": {str(c): a for c, a in sorted(report.per_class_acc.items())},
        "confusion_counts": {
            f"{t},{p}": n for (t, p), n in sorted(report.confusion_counts.items())
        },
    }


def write_report_json(reports: dict[str, EvalReport], path: str | Path) -> None:
    payload = {name: report_to_dict(r) for name, r in sorted(reports.items())}
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def per_class_csv(report: EvalReport, class_names: list[str] | None = None) -> str:
    lines = ["class,name,accuracy"]
    for c, a in sorted(report.per_class_acc.items()):
        name = class_names[c] if class_names and c < len(class_names) else f"class_{c}"
        lines.append(f"{c},{name},{a:.6f}")
    return "\n".join(lines) + "\n"
