"""The benchmark's tracer (perfbench/tracer.py) patches library functions by
module and attribute name, so every module it names must stay importable and
every attribute must stay defined; otherwise each traced benchmark run fails
or silently reads 0 for that layer. The target lists are read from the source,
so the test neither runs nor writes anything under perfbench/."""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Per-stage functions that the one-cross-attention refactor deleted. Their
# per-layer metrics read 0 until the benchmark's span list is updated (a
# benchmark change); drop each entry when its target goes.
KNOWN_STALE = {
    ("mczsl.attr_visual", "attention"), ("mczsl.attr_visual", "features"),
    ("mczsl.attr_visual", "embed"), ("mczsl.visual_attr", "attention"),
    ("mczsl.visual_attr", "features"), ("mczsl.visual_attr", "embed"),
    ("mczsl.visual_attr", "project"),
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
