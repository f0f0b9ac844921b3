"""In-memory span tracer that wraps mczsl functions from outside the library.

Each wrapped function records one span (name, start, end, parent) per call.
Spans stay in memory and are written once, after the traced jobs finish.
A function is patched where its caller looks it up: `training` binds the loss
functions by name, so the tracer wraps `training.acec_loss`, not
`losses.acec_loss`; `data` and `training` bind `read_tensor`/`write_tensor`
the same way.

Besides spans the tracer keeps counts at the same boundaries: Tensor
constructions, matmul calls, and the matmul FLOPs computed from shapes
(2 * output size * inner dimension per product, which holds for any rank and
broadcast). A product counts once in forward and once per gradient the
matmul's backward delivers to an operand, whether or not that operand is a
constant.
"""
from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name): functions whose calls become spans
SPAN_TARGETS = [
    ("mczsl.attr_visual", "attention", "attr_visual.attention"),
    ("mczsl.attr_visual", "features", "attr_visual.features"),
    ("mczsl.attr_visual", "embed", "attr_visual.embed"),
    ("mczsl.attr_visual", "intervened", "attr_visual.intervened"),
    ("mczsl.visual_attr", "attention", "visual_attr.attention"),
    ("mczsl.visual_attr", "features", "visual_attr.features"),
    ("mczsl.visual_attr", "embed", "visual_attr.embed"),
    ("mczsl.visual_attr", "project", "visual_attr.project"),
    ("mczsl.visual_attr", "intervened", "visual_attr.intervened"),
    ("mczsl.training", "acec_loss", "losses.acec"),
    ("mczsl.training", "ar_loss", "losses.ar"),
    ("mczsl.training", "causal_loss", "losses.causal"),
    ("mczsl.training", "distill_loss", "losses.distill"),
    ("mczsl.training", "train", "training.train"),
    ("mczsl.training", "train_step", "training.step"),
    ("mczsl.training", "make_intervention_attention", "training.intervention"),
    ("mczsl.training", "rmsprop_update", "training.rmsprop"),
    ("mczsl.training", "_train_accuracy", "training.accuracy_pass"),
    ("mczsl.training", "save_checkpoint", "training.checkpoint_save"),
    ("mczsl.training", "load_checkpoint", "training.checkpoint_load"),
    ("mczsl.training", "write_tensor", "tensor_io.write"),
    ("mczsl.evaluate", "evaluate", "evaluate.evaluate"),
    ("mczsl.evaluate", "predict", "evaluate.predict"),
    ("mczsl.evaluate", "fused_score", "evaluate.fused_score"),
    ("mczsl.data", "load_dataset", "data.load"),
    ("mczsl.data", "validate_dataset", "data.validate"),
    ("mczsl.data", "write_tensor", "tensor_io.write"),
]
# read_tensor also counts the bytes of the file it reads
READ_TARGETS = [("mczsl.data", "read_tensor"), ("mczsl.training", "read_tensor")]


def _matmul_flop(out_size: int, a_shape) -> int:
    """FLOPs of one product: a multiply and an add per output element and
    inner-dimension step."""
    return 2 * out_size * a_shape[-1]


class Tracer:
    """Patches the target functions inside a `with` block and records their calls."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []
        self._backward_flop: list[int] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, name: str, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _target(self, module_name: str, attr: str):
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            self.missing.append(f"{module_name}.{attr}")
            return None
        return module

    def __enter__(self):
        for module_name, attr, name in SPAN_TARGETS:
            module = self._target(module_name, attr)
            if module is not None:
                self._patch(module, attr, self._wrap(getattr(module, attr), name))

        def count_read(args, kwargs):
            path = args[0] if args else kwargs["path"]
            try:
                self.counts["tensor_io.read_bytes"] += os.path.getsize(path)
            except OSError:
                pass  # the library reports the missing file itself

        for module_name, attr in READ_TARGETS:
            module = self._target(module_name, attr)
            if module is not None:
                self._patch(module, attr,
                            self._wrap(getattr(module, attr), "tensor_io.read", count_read))
        self._patch_autodiff(importlib.import_module("mczsl.autodiff"))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _patch_autodiff(self, ad) -> None:
        counts, flop_ctx = self.counts, self._backward_flop
        Tensor = ad.Tensor
        self._patch(Tensor, "backward", self._wrap(Tensor.backward, "autodiff.backward"))

        init = Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            counts["autodiff.tensors_created"] += 1
            init(tensor, *args, **kwargs)

        self._patch(Tensor, "__init__", counting_init)

        matmul = ad.matmul

        def counting_matmul(a, b):
            out = matmul(a, b)
            # the operand's shape without wrapping an array in a (counted) Tensor
            a_shape = a.data.shape if isinstance(a, Tensor) else np.shape(a)
            flop = _matmul_flop(out.data.size, a_shape)
            counts["autodiff.matmul_calls"] += 1
            counts["autodiff.matmul_flop"] += flop
            backward = out._backward
            if backward is not None:
                def counted_backward(g):
                    flop_ctx.append(flop)
                    try:
                        backward(g)
                    finally:
                        flop_ctx.pop()
                out._backward = counted_backward
            return out

        self._patch(ad, "matmul", counting_matmul)

        accumulate = ad._accumulate

        def counting_accumulate(t, g):
            if flop_ctx:  # a gradient product delivered inside a matmul backward
                counts["autodiff.matmul_flop"] += flop_ctx[-1]
            accumulate(t, g)

        self._patch(ad, "_accumulate", counting_accumulate)

    # -- summaries -------------------------------------------------------
    def mark(self) -> int:
        return len(self.spans)

    def summarize(self, first: int, wall: float) -> dict[str, float]:
        """Self time and call count per span name over spans[first:]."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(spans):
            self_s[name] += end - start - child_time[i]
            calls[name] += 1
        covered = sum(end - start for _, start, end, parent in spans if parent < first)
        return {"self_s": dict(self_s), "calls": dict(calls),
                "coverage": covered / wall if wall > 0 else 0.0}

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start", "end", "parent"],
            "spans": [[index[n], round(s, 7), round(e, 7), p] for n, s, e, p in self.spans],
        }
