"""The benchmark's tracer (perfbench/tracer.py) patches library functions by
module and attribute name, so every module it names must stay importable and
every attribute must stay defined; otherwise each traced benchmark run fails
or silently reads 0 for that layer. The target lists are read from the source.
The tracer also hooks the autodiff tape (Tensor construction, backward,
matmul and gradient delivery); one small training step runs under it, loaded
by path, to check that those hooks still count and come off again. The
benchmark also calls library names outside its tracer (evaluate.evaluate,
ModelState.params, report_to_dict); one tiny benchmark job runs in-process
through them. Nothing is written under perfbench/ or .perfbench/."""
import ast
import importlib
import importlib.util
import os
import sys
from pathlib import Path

import pytest

from mczsl import autodiff as ad
from mczsl import training
from mczsl.numeric import make_rng

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
# run.py imports its siblings by these names; bootstrap sets the BLAS variables
PERFBENCH_MODULES = ("bootstrap", "reference", "tracer", "workloads", "run")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-stage functions that the one-cross-attention refactor deleted, the
# post-epoch train-accuracy pass (train accuracy now comes from the training
# blocks' own forward) and evaluate.predict (scoring goes through
# class_scores). Their per-layer metrics read 0 until the benchmark's span
# list is updated (a benchmark change); drop each entry when its target goes.
# `data` and `training` no longer bind write_tensor: datasets and checkpoints
# save through tensor_io.write_directory, so `tensor_io.write_s` reads 0 until
# that span points at write_directory.
KNOWN_STALE = {
    ("mczsl.attr_visual", "attention"), ("mczsl.attr_visual", "features"),
    ("mczsl.attr_visual", "embed"), ("mczsl.visual_attr", "attention"),
    ("mczsl.visual_attr", "features"), ("mczsl.visual_attr", "embed"),
    ("mczsl.visual_attr", "project"), ("mczsl.training", "_train_accuracy"),
    ("mczsl.evaluate", "predict"), ("mczsl.data", "write_tensor"),
    ("mczsl.training", "write_tensor"),
}


def traced_targets() -> list[tuple[str, str]]:
    targets = []
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) in ("SPAN_TARGETS", "READ_TARGETS") for t in node.targets):
            targets += [(module, attr) for module, attr, *_ in ast.literal_eval(node.value)]
    return sorted(set(targets))


def traced_modules() -> list[str]:
    return sorted({module for module, _ in traced_targets()})


def test_tracer_names_targets():
    # an unparsed list would parametrize no import cases and pass silently
    assert "mczsl.attr_visual" in traced_modules()


@pytest.mark.parametrize("module", traced_modules())
def test_traced_module_imports(module):
    importlib.import_module(module)


@pytest.mark.parametrize("module,attr", traced_targets())
def test_traced_attribute_exists(module, attr):
    present = hasattr(importlib.import_module(module), attr)
    stale = (module, attr) in KNOWN_STALE
    assert present != stale, (f"{module}.{attr} is listed as stale but exists" if stale
                              else f"perfbench traces {module}.{attr}, which does not exist")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_training_step(monkeypatch, small_dataset):
    tracer = load_tracer()
    hooks = (ad.matmul, ad._accumulate, ad.Tensor.backward, ad.Tensor.__init__)

    def traced_step():
        state = training.state_for_dataset(small_dataset, make_rng(1))
        with tracer.Tracer() as t:
            training.train_step(small_dataset.split.train_idx[:3], small_dataset, state,
                                training.Hyperparams(), make_rng(2))
        return t

    full = traced_step()
    assert (ad.matmul, ad._accumulate, ad.Tensor.backward, ad.Tensor.__init__) == hooks
    assert full.counts["autodiff.matmul_calls"] > 0
    assert full.counts["autodiff.tensors_created"] > 0
    assert "training.step" in {span[0] for span in full.spans}
    # the same step without a backward pass counts the forward products alone
    monkeypatch.setattr(ad.Tensor, "backward", lambda self, seed=1.0: None)
    forward = traced_step()
    assert forward.counts["autodiff.matmul_calls"] == full.counts["autodiff.matmul_calls"]
    assert full.counts["autodiff.matmul_flop"] > forward.counts["autodiff.matmul_flop"] > 0


def load_perfbench(monkeypatch) -> dict:
    """perfbench's modules, loaded by path and registered in sys.modules under
    the names run.py imports them by; monkeypatch takes the names, the BLAS
    variables and the bytecode setting back off."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for var in BLAS_VARS:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    modules = {}
    for name in PERFBENCH_MODULES:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules


def test_benchmark_job_runs_through_the_library(tmp_path):
    def left_behind():
        files = [*PERFBENCH.rglob("*"), *(PERFBENCH.parent / ".perfbench").rglob("*")]
        return ({f: f.stat().st_mtime_ns for f in files}, list(sys.path),
                {v: os.environ.get(v) for v in BLAS_VARS},
                {name: sys.modules.get(name) for name in PERFBENCH_MODULES})

    before = left_behind()
    with pytest.MonkeyPatch.context() as mp:
        bench = load_perfbench(mp)
        workloads, run = bench["workloads"], bench["run"]
        w = workloads.get("synth-train", tiny=True)
        workloads.prepare_into(w, 3, tmp_path / "inputs")
        mods = workloads.modules()
        job = workloads.run_job(mods, w, workloads._inputs(tmp_path / "inputs", w), 3,
                                tmp_path / "job")
        checks = run.Checks()
        run.check_job(job, checks)
        agreement = run.reference_agreement(job, checks)
        assert set(run.report_dicts(mods, job)) == {"czsl", "gzsl"}
    assert checks.failures == [] and agreement > 0
    assert left_behind() == before
