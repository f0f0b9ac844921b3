#!/usr/bin/env python3
"""mczsl benchmark: runs one workload and prints its metrics as JSON.

Usage (from the repository root):
  python3 perfbench/run.py --workload synth-train --seed 1 --seconds 60 --trace 0

--trace 0 times whole jobs with nothing patched and reports the end-to-end
metrics; --trace 1 alternates plain and traced jobs and reports per-layer self
times and counts (see perfbench/README.md). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
line before it holds the provenance record and informational figures. The
exit code is 0 only when every output check passed.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median

import bootstrap  # first: it caps the BLAS threads before numpy loads

import numpy as np

import reference
import workloads
from tracer import Tracer

RESULTS = bootstrap.ROOT / ".perfbench" / "results"
TRACES = bootstrap.ROOT / ".perfbench" / "traces"
MIN_JOBS = 2  # a second job repeats the first, so its report must be identical
MAX_JOBS = 200
NEAR_TIE = 1e-9  # reference score margin below which a differing prediction is a tie
# the train call may spend at most this share (or EPOCH_SLACK_S) outside the epochs its log times
EPOCH_UNCOVERED = 0.1
EPOCH_SLACK_S = 0.05

# per-layer metric -> span name whose self time (or call count) it reports
SELF_TIME = {
    "autodiff.backward_s": "autodiff.backward",
    "attr_visual.attention_s": "attr_visual.attention",
    "attr_visual.features_s": "attr_visual.features",
    "attr_visual.embed_s": "attr_visual.embed",
    "attr_visual.intervened_s": "attr_visual.intervened",
    "visual_attr.attention_s": "visual_attr.attention",
    "visual_attr.features_s": "visual_attr.features",
    "visual_attr.embed_s": "visual_attr.embed",
    "visual_attr.project_s": "visual_attr.project",
    "visual_attr.intervened_s": "visual_attr.intervened",
    "losses.acec_s": "losses.acec",
    "losses.ar_s": "losses.ar",
    "losses.causal_s": "losses.causal",
    "losses.distill_s": "losses.distill",
    "training.train_s": "training.train",
    "training.step_s": "training.step",
    "training.intervention_s": "training.intervention",
    "training.rmsprop_s": "training.rmsprop",
    "training.accuracy_pass_s": "training.accuracy_pass",
    "training.checkpoint_save_s": "training.checkpoint_save",
    "evaluate.evaluate_s": "evaluate.evaluate",
    "evaluate.predict_s": "evaluate.predict",
    "evaluate.fused_score_s": "evaluate.fused_score",
    "tensor_io.read_s": "tensor_io.read",
    "tensor_io.write_s": "tensor_io.write",
    "data.load_s": "data.load",
    "data.validate_s": "data.validate",
}
CALLS = {
    "autodiff.backward_calls": "autodiff.backward",
    "training.steps": "training.step",
    "evaluate.predict_calls": "evaluate.predict",
}
# per-layer metric -> (tracer counter, scale, unit)
COUNTERS = {
    "autodiff.tensors_created": ("autodiff.tensors_created", 1.0, "count"),
    "autodiff.matmul_calls": ("autodiff.matmul_calls", 1.0, "count"),
    "autodiff.matmul_gflop": ("autodiff.matmul_flop", 1e-9, "GFLOP"),
    "tensor_io.read_mb": ("tensor_io.read_bytes", 1e-6, "MB"),
}


class Checks:
    """Output checks; each failure counts as failed operations."""

    def __init__(self):
        self.failures: list[dict] = []

    def require(self, ok: bool, what: str, count: int = 1) -> None:
        if not ok:
            self.failures.append({"check": what, "failed": max(1, count)})

    @property
    def failed(self) -> int:
        return sum(f["failed"] for f in self.failures)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="mczsl benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny shapes and no accuracy bars (smoke test)")
    return parser.parse_args(argv)


# -- provenance --------------------------------------------------------------

def _blas() -> tuple[str | None, int | None]:
    """BLAS name/version from numpy's build record and, for OpenBLAS, the
    thread count the loaded library reports."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        name = None
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return name, threads


def _git_commit() -> str | None:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=bootstrap.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != bootstrap.ROOT:
        return None
    return lines[1]


def provenance(workload, seed: int) -> dict:
    blas, threads = _blas()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in bootstrap.SRC.rglob("*.py"))
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads if threads is not None else bootstrap.BLAS_THREADS,
        "nproc": bootstrap.NPROC,
        "python": platform.python_version(),
        "workload": asdict(workload),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": workloads.source_fingerprint(),
        "src_lines": src_lines,
    }


# -- checks --------------------------------------------------------------------

def check_job(job, checks: Checks) -> None:
    split = job.test.split
    for e, loss in enumerate(job.epoch_losses):
        checks.require(math.isfinite(loss), f"epoch {e} loss {loss} is not finite")
    unseen = set(split.unseen_classes)
    everything = unseen | set(split.seen_classes)
    for setting, cands, n in (("czsl", unseen, len(split.test_unseen_idx)),
                              ("gzsl", everything,
                               len(split.test_unseen_idx) + len(split.test_seen_idx))):
        counts = job.reports[setting].confusion_counts
        outside = sum(c for (_, pred), c in counts.items() if pred not in cands)
        checks.require(outside == 0, f"{setting}: {outside} predictions outside the candidates",
                       outside)
        checks.require(sum(counts.values()) == n,
                       f"{setting}: {sum(counts.values())} predictions for {n} samples")


def check_epoch_times(job, checks: Checks) -> None:
    """train_samples_per_s rests on the train log's per-epoch seconds: they must
    account for the train call the benchmark timed itself."""
    if job.train_s > 0:
        outside = job.train_s - sum(job.epoch_s)
        checks.require(len(job.epoch_s) == len(job.epoch_losses) and
                       0.0 <= outside <= max(EPOCH_UNCOVERED * job.train_s, EPOCH_SLACK_S),
                       f"{len(job.epoch_s)} epoch times leave {outside:.4f} s of the "
                       f"{job.train_s:.4f}-s train call uncovered")


def sustained_rate(pieces, share: float) -> float:
    """The rate the run kept up for all but `share` of its measured time: the
    time-weighted `share` quantile of the rates of (rate, seconds) pieces.
    Weighting by time keeps a spell of fast machine speed from counting more
    often just because more pieces fit into it."""
    pieces = sorted(pieces)
    target, elapsed = share * sum(s for _, s in pieces), 0.0
    for rate, seconds in pieces:
        elapsed += seconds
        if elapsed >= target:
            return rate
    return pieces[-1][0]


def sustained_job_wall(jobs, train_rate: float | None, eval_rate: float) -> float:
    """One job's wall time at the run's sustained rates: the job's measured
    time outside its epochs and eval shards (set-up, model init, checkpoint
    save, report write; median over jobs) plus its epochs and shards at the
    sustained training and scoring rates. Every job of a run does the same
    work, so the first one gives the sample counts."""
    outside = median([j.wall_s - sum(j.epoch_s) - j.eval_s for j in jobs])
    train = jobs[0].train_sample_steps / train_rate if train_rate else 0.0
    return outside + train + jobs[0].scored / eval_rate


def reference_agreement(job, checks: Checks) -> float:
    """Share of scored samples on which the library and the numpy reference
    predict the same class (matched through the confusion counts)."""
    split, labels = job.test.split, job.test.labels
    weights = job.state.params()
    matched = total = near_ties = 0
    for setting in ("czsl", "gzsl"):
        idx = list(split.test_unseen_idx) + ([] if setting == "czsl" else list(split.test_seen_idx))
        preds, margins = reference.predictions(job.test, weights, idx, setting)
        ref = Counter((int(labels[i]), p) for i, p in zip(idx, preds))
        lib = job.reports[setting].confusion_counts
        matched += sum(min(n, lib.get(key, 0)) for key, n in ref.items())
        total += len(idx)
        near_ties += sum(1 for m in margins if m < NEAR_TIE)
    differing = total - matched
    checks.require(differing <= near_ties,
                   f"{differing} predictions differ from the numpy reference "
                   f"({near_ties} near ties)", differing - near_ties)
    return matched / total


def report_dicts(mods, job) -> dict:
    return {s: mods["evaluate"].report_to_dict(r) for s, r in job.reports.items()}


# -- the run -------------------------------------------------------------------

@dataclass
class Measured:
    """Everything the job loop collects in one run."""

    plain: list = field(default_factory=list)  # untraced jobs
    traced: list = field(default_factory=list)
    summaries: list = field(default_factory=list)  # per traced job: self times, calls
    counts: list = field(default_factory=list)  # per traced job: tracer counters
    peak_rss_mb: float = 0.0  # through the first plain job, as a one-job process sees it
    attempted: int = 0
    last: object = None  # the latest job; only it keeps its data and weights


def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):  # not glibc
        return None


MALLOC_TRIM = _malloc_trim()


def release_memory() -> None:
    """Free the previous job's memory and hand it back to the OS, so every job
    faults in fresh pages for its inputs as a new process does; otherwise
    later jobs load into pages an earlier job left behind and set-up time
    depends on the job's position in the run."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def run_jobs(args, mods, w, inputs, checks: Checks, tracer) -> Measured:
    """Jobs until --seconds are up (at least MIN_JOBS); with a tracer, plain and
    traced jobs alternate. Every job's outputs are checked as it ends."""
    errors = tuple(getattr(mods["errors"], n) for n in
                   ("NumericError", "FormatError", "DataValidationError", "ShapeError"))
    out = workloads.WORK / args.workload
    out.mkdir(parents=True, exist_ok=True)
    m = Measured()
    first_report = None
    deadline = time.perf_counter() + args.seconds
    while len(m.plain) + len(m.traced) < MAX_JOBS:
        use_trace = tracer is not None and len(m.traced) < len(m.plain)
        same_kind = m.traced if use_trace else m.plain
        if len(m.plain) + len(m.traced) >= MIN_JOBS and \
                time.perf_counter() + median([j.wall_s for j in same_kind]) > deadline:
            break
        if m.last is not None:  # free the previous job's data and tape first
            m.last.state = m.last.test = None
        release_memory()
        try:
            if use_trace:
                mark, before = tracer.mark(), dict(tracer.counts)
                with tracer:
                    job = workloads.run_job(mods, w, inputs, args.seed, out)
                m.summaries.append(tracer.summarize(mark, job.wall_s))
                m.counts.append({k: v - before.get(k, 0.0) for k, v in tracer.counts.items()})
                m.traced.append(job)
            else:
                job = workloads.run_job(mods, w, inputs, args.seed, out)
                m.plain.append(job)
                if len(m.plain) == 1:
                    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        except errors as e:
            m.attempted += 1
            checks.require(False, f"{type(e).__name__}: {e}")
            break
        m.last = job
        m.attempted += job.attempted
        check_job(job, checks)
        check_epoch_times(job, checks)
        report = report_dicts(mods, job)
        first_report = first_report or report
        checks.require(report == first_report, "a repeated evaluation gave a different report")
    return m


def per_layer_metrics(m: Measured) -> dict:
    metrics = {}
    for name, span in SELF_TIME.items():
        metrics[name] = (median([s["self_s"].get(span, 0.0) for s in m.summaries]), "s")
    for name, span in CALLS.items():
        metrics[name] = (median([s["calls"].get(span, 0) for s in m.summaries]), "count")
    for name, (key, scale, unit) in COUNTERS.items():
        metrics[name] = (median([c.get(key, 0.0) for c in m.counts]) * scale, unit)
    wall_plain = median([j.wall_s for j in m.plain])
    wall_traced = median([j.wall_s for j in m.traced])
    metrics["trace.overhead_pct"] = (100.0 * (wall_traced / wall_plain - 1.0), "%")
    metrics["trace.coverage_pct"] = (100.0 * median([s["coverage"] for s in m.summaries]), "%")
    return metrics


def run(args) -> tuple[dict, dict, Checks, int]:
    """One run of one workload: (metrics, informational figures, checks, attempted)."""
    w = workloads.get(args.workload, args.tiny)
    t = time.perf_counter()
    inputs, reused = workloads.ensure_prepared(w, args.seed, args.tiny)
    acceptance = workloads.acceptance_scores(args.tiny)
    info = {"cache_reused": reused, "prepare_s": time.perf_counter() - t,
            "acceptance": acceptance}
    mods = workloads.modules()
    checks = Checks()
    tracer = Tracer() if args.trace else None
    m = run_jobs(args, mods, w, inputs, checks, tracer)
    info.update(jobs=len(m.plain), traced_jobs=len(m.traced))
    if not m.plain or (tracer and not m.traced):
        return {}, info, checks, m.attempted

    last = m.last
    czsl, gzsl = last.reports["czsl"], last.reports["gzsl"]
    # this run's own seed: informational, since accuracy varies with the seed
    info["seed_scores"] = dict(czsl_acc=czsl.czsl_acc, gzsl_u=gzsl.gzsl_u, gzsl_s=gzsl.gzsl_s,
                               gzsl_h=gzsl.gzsl_h)
    if not args.tiny:  # the tiny acceptance run trains too briefly for the bars
        checks.require(acceptance["czsl_acc"] >= 0.90,
                       f"acceptance CZSL accuracy {acceptance['czsl_acc']:.4f} < 0.90")
        checks.require(acceptance["gzsl_h"] >= 0.70,
                       f"acceptance GZSL H {acceptance['gzsl_h']:.4f} < 0.70")
        m.attempted += 2
    agreement = reference_agreement(last, checks)
    last.state = last.test = None
    info["job_wall_s"] = [j.wall_s for j in m.plain]
    info["job_setup_s"] = [j.setup_s for j in m.plain]
    info["epoch_s"] = [j.epoch_s for j in m.plain]
    info["eval_parts"] = [j.eval_parts for j in m.plain]

    if tracer:
        info["traced_job_wall_s"] = [j.wall_s for j in m.traced]
        info["untraced_targets"] = tracer.missing
        TRACES.mkdir(parents=True, exist_ok=True)
        (TRACES / f"{args.workload}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, **tracer.dump()}))
        return per_layer_metrics(m), info, checks, m.attempted

    train_pieces = [(j.train_sample_steps / len(j.epoch_s) / t, t)
                    for j in m.plain for t in j.epoch_s]
    eval_pieces = [(n / t, t) for j in m.plain for n, t in j.eval_parts]
    train_rate = sustained_rate(train_pieces, w.slow_share) if w.trains else None
    eval_rate = sustained_rate(eval_pieces, w.slow_share)
    info["rate_pieces"] = {"eval": len(eval_pieces), "train": len(train_pieces)}
    info["medians"] = {"eval_samples_per_s": sustained_rate(eval_pieces, 0.5),
                       "train_samples_per_s": sustained_rate(train_pieces, 0.5)
                       if w.trains else None,
                       "wall_s": median([j.wall_s for j in m.plain])}
    metrics = {
        "setup_s": (median([j.setup_s for j in m.plain]), "s"),
        "wall_s": (sustained_job_wall(m.plain, train_rate, eval_rate), "s"),
        "eval_samples_per_s": (eval_rate, "1/s"),
        "peak_rss_mb": (m.peak_rss_mb, "MiB"),
        "pred_agreement": (agreement, "ratio"),
        # the acceptance run's figures: fixed by the sources, the same in every run
        "czsl_acc": (acceptance["czsl_acc"], "ratio"),
        "gzsl_h": (acceptance["gzsl_h"], "ratio"),
    }
    if w.trains:
        metrics["train_samples_per_s"] = (train_rate, "1/s")
    return metrics, info, checks, m.attempted


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.import_library()
    except bootstrap.MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    prov = provenance(workloads.get(args.workload, args.tiny), args.seed)
    metrics, info, checks, attempted = run(args)
    attempted = max(1, attempted)
    failed = min(checks.failed, attempted)
    if metrics and not args.trace:
        metrics["success_rate"] = ((attempted - failed) / attempted, "ratio")
    correct = not checks.failures and bool(metrics)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"provenance": prov, "info": info, "checks": checks.failures}
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, **result}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
