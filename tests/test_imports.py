"""Every name a module of ``qer`` imports is used there, so what a deletion
leaves behind shows up without a linter."""

import ast
from pathlib import Path

import pytest

import qer

SRC = Path(qer.__file__).resolve().parent

# imported but unused on purpose: the benchmark's tracer times
# partition_at_threshold through this binding
EXEMPT = {("evalkit", "partition_at_threshold")}


def unused_imports(source: str, exported=()) -> list[str]:
    """Names bound by an import in ``source`` that it never reads and that
    ``exported`` does not list; ``from __future__`` imports excepted."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [n for n in imported if n not in used and n not in exported]


def test_the_guard_finds_an_unused_import():
    source = "import os, os.path\nfrom json import dumps, loads as ld\nld\n"
    assert unused_imports(source) == ["os", "os", "dumps"]
    assert unused_imports(source, exported={"os", "dumps"}) == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    exported = set(qer.__all__) if path.name == "__init__.py" else set()
    exported |= {name for module, name in EXEMPT if module == path.stem}
    assert unused_imports(path.read_text(), exported) == []
