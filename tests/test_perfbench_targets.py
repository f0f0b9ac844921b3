"""The benchmark's tracer (perfbench/tracer.py) patches library functions by
module name, so every module it names must stay importable; otherwise each
traced benchmark run fails. The target lists are read from the source, so
the test neither runs nor writes anything under perfbench/."""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_modules() -> list[str]:
    targets = []
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) in ("SPAN_TARGETS", "READ_TARGETS") for t in node.targets):
            targets += ast.literal_eval(node.value)
    return sorted({module for module, *_ in targets})


def test_tracer_names_targets():
    # an unparsed list would parametrize no import cases and pass silently
    assert "mczsl.attr_visual" in traced_modules()


@pytest.mark.parametrize("module", traced_modules())
def test_traced_module_imports(module):
    importlib.import_module(module)
