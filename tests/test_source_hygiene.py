"""Two of CI's lint gates, checked where the linters are not installed.

``ruff check`` (pyflakes F401) rejects an unused import and ``ruff format
--check`` a line longer than ``line-length`` (88, ``pyproject.toml``).
This reads the same source with :mod:`ast`: no top-level import that its
module never uses in ``src/``, ``tests/``, ``benchmarks/`` and
``examples/``, and no line over 88 characters in ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LINE_LENGTH = 88


def _python_files(*dirs: str) -> list[Path]:
    return sorted(path for d in dirs for path in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by ``source``'s top-level imports that nothing in
    it reads — as a name, the root of an attribute, or an ``__all__``
    entry."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and name != "*"
    ]


def test_the_checker_finds_an_unused_import():
    source = "import os\nfrom typing import Optional, List\n\nx: Optional[int]\n"
    assert unused_imports(source) == ["line 1: os", "line 2: List"]
    assert unused_imports("import os.path\nos.getcwd()\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize(
    "path",
    _python_files("src", "tests", "benchmarks", "examples"),
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_line_over_88_characters_in_src():
    long = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in _python_files("src")
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if len(line) > LINE_LENGTH
    ]
    assert long == []
