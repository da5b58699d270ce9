"""The package depends on numpy and the standard library only."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dualpg").glob("*.py"))


def absolute_imports(path):
    """Top-level module names of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert {"__init__.py", "jacobi.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_stdlib(path):
    allowed = sys.stdlib_module_names | {"numpy"}
    outside = sorted(set(absolute_imports(path)) - allowed)
    assert outside == [], f"{path.name} imports {outside}"
