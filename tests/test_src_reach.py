"""`src/mczsl` holds what the program runs. Every top-level name a module
defines (function, class or assigned constant) must be read somewhere in
`src/mczsl` other than by its own definition, or by the benchmark's scripts
(`perfbench/*.py`). A name that only `tests/` reads is a test oracle, and test
oracles live under `tests/`. The scan matches names alone, not modules, and
reads the source with `ast`, so docstrings and comments do not count."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mczsl"

# Test oracles still in src/ (ROADMAP item 21 moves them under tests/). A new
# oracle goes under tests/ from the start; drop each entry when its name moves
# or the program starts to read it. None stands for every name of the module.
TEST_ORACLES = {
    "gradcheck": None,  # central-difference gradient checks
    "data": {"datasets_equal"},  # field-by-field dataset equality
    "attr_visual": {"causal_effect"},  # observed-minus-intervened logits
}


def defined_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def read_names(tree: ast.Module):
    """Every name the code reads: loaded names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreached() -> set[tuple[str, str]]:
    """(module, name) for each top-level name of src/mczsl that neither
    src/mczsl nor perfbench/*.py reads; dunder names are left out."""
    modules = {p.stem: parse(p) for p in sorted(SRC.glob("*.py"))}
    readers = [*modules.values(), *map(parse, sorted((ROOT / "perfbench").glob("*.py")))]
    reads = {name for tree in readers for name in read_names(tree)}
    return {(module, name) for module, tree in modules.items()
            for name in defined_names(tree)
            if name not in reads and not re.fullmatch(r"__\w+__", name)}


def is_oracle(module: str, name: str) -> bool:
    return module in TEST_ORACLES and (TEST_ORACLES[module] is None
                                       or name in TEST_ORACLES[module])


def test_every_name_serves_the_program_or_the_benchmark():
    stray = sorted(f"{m}.{n}" for m, n in unreached() if not is_oracle(m, n))
    assert not stray, (f"only tests read {stray}: move test oracles under tests/, "
                       f"delete dead code")


@pytest.mark.parametrize("module", sorted(TEST_ORACLES))
def test_every_listed_oracle_is_still_test_only(module):
    # a listed name the program reads again, or one that moved, leaves the list
    names = {n for m, n in unreached() if m == module}
    listed = TEST_ORACLES[module]
    assert names and (listed is None or listed == names), (module, listed, names)
