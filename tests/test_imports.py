"""Every imported name in src/, tests/ and demos/ is used in its file.

A stdlib ``ast`` scan: a name bound by ``import`` or ``from ... import``
counts as used when it is read anywhere in the file, as a bare name, as the
root of an attribute chain, in ``__all__`` or inside a string annotation.
The package's ``__init__.py`` files are exempt: their imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = a.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = a.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # __all__ entries and string annotations
            used.update(n.id for n in _names_in(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def _names_in(text: str):
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError:
        return ()
    return (n for n in ast.walk(tree) if isinstance(n, ast.Name))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.getcwd()\n", []),
    ("from a import b as c\nb\n", ["line 1: c"]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import B\nx: 'B | None' = None\n", []),
    ("from __future__ import annotations\n", []),
])
def test_scan_finds_unused_names(source, unused):
    assert unused_imports(source) == unused
