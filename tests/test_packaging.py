"""The package needs nothing outside the Python standard library."""

import ast
import re
import sys
from pathlib import Path

import qccheck

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(Path(qccheck.__file__).resolve().parent.glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_in_the_standard_library():
    assert len(MODULES) >= 10
    outside = sorted(
        f"{path.name}: {name}"
        for path in MODULES
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    )
    assert outside == []


def test_pyproject_lists_no_dependencies():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.MULTILINE)
