"""Command-line entry point.

Subcommands: gen-synth, train, eval, intervene-compare, export-attention.
Every run is reproducible from its flags and seed. Exit codes: 0 ok,
2 bad configuration, 3 I/O or file-format failure, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .attr_visual import export_attention, score_blocks, weight_shapes
from .data import MANIFEST_NAME, SynthConfig, generate_synthetic, load_dataset, save_dataset
from .errors import ConfigError, DataValidationError, FormatError, NumericError
from .evaluate import (SETTINGS, FusionConfig, check_test_splits, evaluate_settings,
                       per_class_csv, write_report_json)
from .losses import LossWeights
from .tensor_io import write_atomic, write_json
from .training import (
    INTERVENTION_KINDS,
    Hyperparams,
    ModelState,
    load_checkpoint,
    report_dict,
    save_checkpoint,
    train,
)

# what each preset changes from the settings defaults, whose loss weights and
# fusion coefficients are the paper's CUB ones; "synthetic" keeps those and sets
# a learning rate and epoch count sized for the small planted-structure datasets
PRESETS: dict[str, dict] = {
    "cub": {},
    "sun": {"lambda_cal": 0.0001, "lambda_ar": 0.01, "lambda_causal": 0.0005,
            "lambda_distill": 0.05, "alpha1": 0.7, "alpha2": 0.3},
    "awa2": {"lambda_cal": 0.4, "lambda_ar": 0.06, "lambda_causal": 0.1, "lambda_distill": 0.01},
    "synthetic": {"learning_rate": 0.003, "epochs": 30},
}


def _settings(cls, skip=()):
    """(name, type, default) for each field of a settings dataclass, nested
    dataclasses flattened and `T | None` read as T."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name in skip:
            continue
        typ = hints[f.name]
        if is_dataclass(typ):
            yield from _settings(typ)
        else:
            scalar = next((t for t in get_args(typ) if t is not type(None)), typ)
            yield f.name, scalar, f.default


# one global key set, so one config file can serve train, eval and the rest
_CONFIG_KEYS = {name: typ for cls in (Hyperparams, FusionConfig, SynthConfig)
                for name, typ, _ in _settings(cls)} | {"top_n": int}


def parse_config_file(path: str | Path) -> dict:
    """key=value lines; blank lines and # comments allowed; unknown or repeated keys rejected."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e})") from e
    values: dict = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in line_of:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {line_of[key]}")
        line_of[key] = lineno
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from e
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Preset < config file < explicit flags."""
    preset = getattr(args, "preset", None)
    merged = dict(PRESETS[preset]) if preset else {}
    if args.config:
        merged.update(parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _from_cfg(cls, cfg: dict, **fixed):
    """cls from `fixed` plus the keys of cfg that name its other fields; every
    field left unset keeps the default its dataclass declares."""
    names = {f.name for f in fields(cls)} - set(fixed)
    return cls(**{k: v for k, v in cfg.items() if k in names}, **fixed)


def _hyperparams(cfg: dict, trains: bool = True) -> Hyperparams:
    hp = _from_cfg(Hyperparams, cfg, loss_weights=_from_cfg(LossWeights, cfg))
    if trains and hp.learning_rate <= 0:
        raise ConfigError("learning_rate must be positive for training runs")
    return hp


def cmd_gen_synth(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    ds = generate_synthetic(_from_cfg(SynthConfig, cfg), seed=cfg.get("seed", 0))
    save_dataset(ds, args.out)
    print(
        f"wrote {ds.name}: {ds.num_samples} samples, {ds.num_classes} classes "
        f"({len(ds.split.seen_classes)} seen / {len(ds.split.unseen_classes)} unseen), "
        f"{ds.num_attributes} attributes, {ds.num_regions}x{ds.feature_dim} regions -> {args.out}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    hp = _hyperparams(_resolve(args))
    dataset = _load(args, epochs=hp.epochs)
    state, log = train(dataset, hp)
    out = Path(args.out)
    save_checkpoint(state, hp, out / "checkpoint", epoch=hp.epochs,
                    loss_history=log.epoch_reports)
    entries = [report_dict(r) | {"epoch": e, "train_accuracy": log.train_accuracy[e],
                                 "seconds": log.epoch_seconds[e]}
               for e, r in enumerate(log.epoch_reports)]
    write_json(out / "train_log.json", entries)
    if entries:
        last = entries[-1]
        print(f"trained {hp.epochs} epochs: total={last['total']:.4f} "
              f"train_acc={last['train_accuracy']:.3f} -> {out / 'checkpoint'}")
    else:
        print(f"trained 0 epochs (initialized weights only) -> {out / 'checkpoint'}")
    return 0


def _fitting_checkpoint(checkpoint, dataset, data) -> ModelState:
    """The checkpoint's weights, refused unless they fit the dataset's (Da, D)."""
    state, _ = load_checkpoint(checkpoint)
    want = weight_shapes(dataset.attributes.shape[1], dataset.feature_dim)["w1"]
    if (have := state.weights["w1"].shape) != want:
        raise FormatError(f"{checkpoint}: weights are for (Da, D) = {have}, "
                          f"but the dataset {data} has (Da, D) = {want}")
    return state


def _load(args: argparse.Namespace, settings=(), epochs: int = 0):
    """The dataset at args.data, refused (naming its manifest) if `settings` would
    score an empty test split or `epochs` > 0 would train on an empty train_idx."""
    dataset = load_dataset(args.data)
    manifest = Path(args.data) / MANIFEST_NAME
    check_test_splits(dataset.split, settings, manifest)
    if epochs > 0 and not dataset.split.train_idx:
        raise DataValidationError(f"{manifest}: training requires a nonempty train_idx")
    return dataset


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    setting = cfg.get("setting", "both")
    if setting not in ("czsl", "gzsl", "both"):
        raise ConfigError(f"setting must be czsl, gzsl, or both, got {setting!r}")
    wanted = ["czsl", "gzsl"] if setting == "both" else [setting]
    fusion = _from_cfg(FusionConfig, cfg, setting=wanted[0])
    dataset = _load(args, wanted)
    state = _fitting_checkpoint(args.checkpoint, dataset, args.data)
    reports = evaluate_settings(dataset, state, fusion, wanted)
    for s, rep in reports.items():
        if s == "czsl":
            print(f"CZSL: acc={rep.czsl_acc:.4f}")
        else:
            print(f"GZSL: U={rep.gzsl_u:.4f} S={rep.gzsl_s:.4f} H={rep.gzsl_h:.4f}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(reports, out / "eval_report.json")
    if args.csv:
        for s, rep in reports.items():
            write_atomic(out / f"per_class_{s}.csv", per_class_csv(rep, dataset.class_names))
    return 0


def cmd_intervene_compare(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    hp = _hyperparams(cfg, trains=not args.eval_only)
    fusion = _from_cfg(FusionConfig, cfg, setting="gzsl")
    dataset = _load(args, SETTINGS, 0 if args.eval_only else hp.epochs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for kind in INTERVENTION_KINDS:
        ckpt = out / f"intervene_{kind}" / "checkpoint"
        kind_hp = replace(hp, intervention=kind)
        if args.eval_only:
            state, log = _fitting_checkpoint(ckpt, dataset, args.data), None
        else:
            state, log = train(dataset, kind_hp)
        czsl, gzsl = evaluate_settings(dataset, state, fusion, SETTINGS).values()
        if log is not None:  # saved once scored: a refused score leaves no checkpoint
            save_checkpoint(state, kind_hp, ckpt, epoch=kind_hp.epochs,
                            loss_history=log.epoch_reports)
        rows.append((kind, czsl.czsl_acc, gzsl.gzsl_u, gzsl.gzsl_s, gzsl.gzsl_h))
    lines = ["kind,czsl_acc,gzsl_u,gzsl_s,gzsl_h"]
    lines += [f"{k},{a:.6f},{u:.6f},{s:.6f},{h:.6f}" for k, a, u, s, h in rows]
    write_atomic(out / "intervene_table.csv", "\n".join(lines) + "\n")
    print(f"{'kind':24s} {'acc':>8s} {'U':>8s} {'S':>8s} {'H':>8s}")
    for k, a, u, s, h in rows:
        print(f"{k:24s} {a:8.4f} {u:8.4f} {s:8.4f} {h:8.4f}")
    return 0


def cmd_export_attention(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    try:
        indices = [int(tok) for tok in args.samples.split(",") if tok]
    except ValueError as e:
        raise ConfigError(f"--samples must be comma-separated integers: {args.samples!r}") from e
    if not indices:
        raise ConfigError("--samples selected no sample indices")
    top_n = cfg.get("top_n", 10)
    if top_n < 1:
        raise ConfigError(f"top_n must be at least 1, got {top_n}")
    dataset = _load(args)
    state = _fitting_checkpoint(args.checkpoint, dataset, args.data)
    bad = [i for i in indices if not 0 <= i < dataset.num_samples]
    if bad:
        raise ConfigError(f"sample index {bad[0]} outside [0, {dataset.num_samples})")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = dataset.attribute_names or [f"attr_{k}" for k in range(dataset.num_attributes)]
    for rows, f1, f2 in score_blocks(indices, dataset, state.weights):
        for i, beta, gamma, scores in zip(rows, f1.attention.data, f2.attention.data,
                                          f1.attr_scores.data):
            export_attention(beta, names, out / f"sample_{i}_region_attention")
            export_attention(gamma, names, out / f"sample_{i}_attribute_attention")
            ranked = np.argsort(-scores, kind="stable")[: min(top_n, len(scores))]
            lines = [f"{k}\t{names[k]}\t{scores[k]:.6f}" for k in ranked]
            write_atomic(out / f"sample_{i}_top_attributes.txt", "\n".join(lines) + "\n")
    print(f"exported attention maps for {len(indices)} sample(s) -> {out}")
    return 0


def _add_settings(p: argparse.ArgumentParser, *classes, skip=()) -> None:
    """One --flag per settings field; an unset flag leaves the value to the
    preset, the config file or the dataclass default."""
    for cls in classes:
        for name, typ, default in _settings(cls, skip):
            p.add_argument(f"--{name.replace('_', '-')}", type=typ, help=f"default: {default}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mczsl",
        description="Mutual causal-attention zero-shot learner on region features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, *required):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key=value config file")
        for flag in required:
            p.add_argument(f"--{flag}", required=True)
        p.set_defaults(func=func)
        return p

    g = add("gen-synth", cmd_gen_synth, "write a synthetic dataset directory", "out")
    g.add_argument("--seed", type=int)
    _add_settings(g, SynthConfig)

    t = add("train", cmd_train, "train on a dataset directory", "data", "out")
    t.add_argument("--preset", choices=sorted(PRESETS))
    _add_settings(t, Hyperparams)

    e = add("eval", cmd_eval, "evaluate a checkpoint", "data", "checkpoint", "out")
    e.add_argument("--preset", choices=sorted(PRESETS))
    e.add_argument("--setting", choices=("czsl", "gzsl", "both"))
    _add_settings(e, FusionConfig, skip=("setting",))
    e.add_argument("--csv", action="store_true", help="also write per-class CSVs")

    ic = add("intervene-compare", cmd_intervene_compare,
             "train+evaluate under every intervention kind", "data", "out")
    ic.add_argument("--preset", choices=sorted(PRESETS))
    _add_settings(ic, Hyperparams, FusionConfig, skip=("intervention", "setting"))
    ic.add_argument("--eval-only", action="store_true",
                    help="reuse checkpoints from a previous compare run")

    x = add("export-attention", cmd_export_attention,
            "export attention maps for samples", "data", "checkpoint", "out")
    x.add_argument("--samples", required=True, help="comma-separated sample indices")
    x.add_argument("--top-n", type=int)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags already; normalize other codes
        return 2 if e.code not in (0,) else 0
    try:
        return args.func(args)
    except (FormatError, DataValidationError, OSError) as e:
        # the CLI validates only datasets that it loaded from files
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
