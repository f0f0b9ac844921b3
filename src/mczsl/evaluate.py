"""Fused zero-shot prediction and the CZSL/GZSL evaluation protocol.

Predictions fuse the two sub-nets' attribute scores with fixed coefficients
into one score per class plus a +1/-1 unseen/seen calibration offset.
`class_scores` stacks them over `attr_visual.score_blocks`' blocks (reading a
model state only through its weight dict `.weights`) into an N x C matrix,
and each setting is an argmax over its columns (`candidate_classes`).
Accuracies are per-class means (each class weighs equally regardless of its
sample count); the GZSL summary is the harmonic mean H = 2SU/(S+U).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .attr_visual import score_blocks
from .data import Dataset, Split
from .errors import DataValidationError, NumericError, ShapeError
from .numeric import check_settings
from .tensor_io import write_json

SETTINGS = ("czsl", "gzsl")


@dataclass(frozen=True)
class FusionConfig:
    alpha1: float = 0.8
    alpha2: float = 0.2
    setting: str = "gzsl"

    def __post_init__(self):
        check_settings(
            self,
            (lambda: self.alpha1 >= 0, "alpha1 >= 0"),
            (lambda: self.alpha2 >= 0, "alpha2 >= 0"),
            (lambda: self.alpha1 + self.alpha2 > 0, "alpha1 + alpha2 > 0"),
            (lambda: self.setting in SETTINGS, f"setting in {SETTINGS}"),
        )


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
    """Ascending columns of the class-score matrix that compete: unseen classes
    under CZSL, all under GZSL, seen ones for the train accuracy ("train")."""
    if setting == "czsl":
        return sorted(split.unseen_classes)
    if setting == "train":
        return sorted(split.seen_classes)
    return sorted(split.seen_classes + split.unseen_classes)


def top_classes(scores: np.ndarray, split: Split, setting: str) -> np.ndarray:
    """Per row of an N x C score matrix, the best of candidate_classes(split,
    setting); exact ties go to the lowest class index."""
    cands = np.asarray(candidate_classes(split, setting))
    return cands[np.argmax(scores[:, cands], axis=1)]


def fused_score(psi, psi_attr, Z, split: Split, cfg: FusionConfig = FusionConfig(),
                rows=None) -> np.ndarray:
    """Scores over every class, one row per row of the float64 attribute scores:
    (alpha1*psi + alpha2*psi_attr) . z_c + 1 for unseen c, - 1 for seen c. A
    non-finite score raises NumericError naming its row's sample in `rows` (or its row)."""
    if psi.shape != psi_attr.shape or Z.ndim != 2 or Z.shape[1] != psi.shape[-1]:
        raise ShapeError(
            f"fusion shapes inconsistent: psi {psi.shape}, psi_attr {psi_attr.shape}, Z {Z.shape}"
        )
    offsets = np.full(Z.shape[0], -1.0)
    offsets[split.unseen_classes] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score is refused below
        scores = (cfg.alpha1 * psi + cfg.alpha2 * psi_attr) @ Z.T + offsets
    bad = np.flatnonzero(~np.isfinite(scores.reshape(-1, Z.shape[0])).all(axis=1))
    if bad.size:
        raise NumericError(f"non-finite fused class score at sample index "
                           f"{bad[0] if rows is None else rows[bad[0]]} "
                           f"(alpha1={cfg.alpha1}, alpha2={cfg.alpha2})")
    return scores


def class_scores(indices, state, dataset: Dataset, cfg: FusionConfig) -> np.ndarray:
    """len(indices) x C fused scores of the samples `indices`, stacked from the
    blocks of `score_blocks`."""
    blocks = [fused_score(f1.attr_scores.data, f2.attr_scores.data,
                          dataset.class_semantics, dataset.split, cfg, rows)
              for rows, f1, f2 in score_blocks(indices, dataset, state.weights)]
    return np.concatenate([np.empty((0, dataset.num_classes)), *blocks])


def check_test_splits(split: Split, settings, source: Path | None = None) -> None:
    """Refuse a setting with no test samples to score: every setting scores
    test_unseen_idx, GZSL also test_seen_idx. `source` names a loaded dataset's manifest."""
    for setting in settings:
        for key in ("test_unseen_idx", "test_seen_idx")[:2 if setting == "gzsl" else 1]:
            if not getattr(split, key):
                raise DataValidationError(f"{source or 'dataset'}: {setting.upper()} evaluation "
                                          f"requires a nonempty {key}")


def per_class_accuracy(pairs: list[tuple[int, int]]) -> dict[int, float]:
    """(true, predicted) pairs -> accuracy per class that has samples."""
    totals: dict[int, int] = {}
    correct: dict[int, int] = {}
    for true, pred in pairs:
        totals[true] = totals.get(true, 0) + 1
        correct[true] = correct.get(true, 0) + (1 if pred == true else 0)
    return {c: correct[c] / totals[c] for c in totals}


def evaluate_settings(dataset: Dataset, state, cfg: FusionConfig,
                      settings: list[str]) -> dict[str, EvalReport]:
    """One report per setting in `settings`, all read from one class-score
    matrix: the unseen test samples, plus the seen ones under GZSL, are scored
    once, with cfg's fusion coefficients (cfg.setting is not read). CZSL:
    per-class mean top-1 over unseen test samples, unseen candidates only.
    GZSL: U and S are per-class means over unseen/seen test samples with all
    classes as candidates, summarized by H."""
    split = dataset.split
    check_test_splits(split, settings)
    unseen, seen = list(split.test_unseen_idx), list(split.test_seen_idx)
    indices = unseen + (seen if "gzsl" in settings else [])
    scores = class_scores(indices, state, dataset, cfg)
    labels, u = dataset.labels[indices].astype(int).tolist(), len(unseen)
    reports: dict[str, EvalReport] = {}
    for setting in settings:
        n = len(indices) if setting == "gzsl" else u  # CZSL reads the unseen rows only
        pairs = list(zip(labels[:n], top_classes(scores[:n], split, setting).tolist()))
        acc_u, acc_s = per_class_accuracy(pairs[:u]), per_class_accuracy(pairs[u:])
        report = reports[setting] = EvalReport(setting, per_class_acc=acc_u | acc_s,
                                               confusion_counts=dict(Counter(pairs)))
        mean_u = sum(acc_u.values()) / len(acc_u)
        if setting == "czsl":
            report.czsl_acc = mean_u
        else:
            report.gzsl_u, report.gzsl_s = mean_u, sum(acc_s.values()) / len(acc_s)
            report.gzsl_h = harmonic_mean(report.gzsl_s, report.gzsl_u)
    return reports


def evaluate(dataset: Dataset, state, cfg: FusionConfig) -> EvalReport:
    """The report of the one setting cfg.setting (see evaluate_settings); what
    perfbench/workloads.py scores its shards with."""
    return evaluate_settings(dataset, state, cfg, [cfg.setting])[cfg.setting]


def report_to_dict(report: EvalReport) -> dict:
    return asdict(report) | {
        "per_class_acc": {str(c): a for c, a in sorted(report.per_class_acc.items())},
        "confusion_counts": {f"{t},{p}": n for (t, p), n in sorted(report.confusion_counts.items())},
    }


def write_report_json(reports: dict[str, EvalReport], path: str | Path) -> None:
    write_json(path, {name: report_to_dict(r) for name, r in reports.items()})


def per_class_csv(report: EvalReport, class_names: list[str] | None = None) -> str:
    lines = ["class,name,accuracy"]
    for c, a in sorted(report.per_class_acc.items()):
        name = class_names[c] if class_names and c < len(class_names) else f"class_{c}"
        lines.append(f"{c},{name},{a:.6f}")
    return "\n".join(lines) + "\n"
