"""How the package's modules use each other."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qmasslab"
MODULES = sorted(SRC.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(tree, siblings):
    """Each ``module._name`` read, or ``from .module import _name``, of a sibling module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                aliases.update({a.asname or a.name: a.name for a in node.names
                                if a.name in siblings})
            else:
                yield from (f"{node.module}.{a.name}" for a in node.names if _private(a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            yield f"{aliases[node.value.id]}.{node.attr} (line {node.lineno})"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_name(path):
    siblings = {p.stem for p in MODULES}
    assert list(_private_reads(ast.parse(path.read_text()), siblings)) == []


def test_private_reads_are_found():
    # The check above must be able to fail: each form it looks for is caught.
    source = ("from . import doubleslit, wavecore as wc\n"
              "from .boxwell import _helper, public\n"
              "rows = doubleslit._MAP_BLOCK_CELLS + wc._uniform_step + doubleslit.__name__\n")
    assert list(_private_reads(ast.parse(source), {"doubleslit", "wavecore", "boxwell"})) == [
        "boxwell._helper", "doubleslit._MAP_BLOCK_CELLS (line 3)", "wavecore._uniform_step (line 3)"]
