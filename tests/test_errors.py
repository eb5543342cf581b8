"""Every exception class in errors.py is raised somewhere in src/.

A stdlib ``ast`` scan: a class counts as raised when a ``raise`` statement
in src/ names it or one of its subclasses in errors.py, as a bare name,
the last attribute of a dotted name, or the callee of a call.  A class
that nothing raises is an error no caller can meet: delete it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ERRORS = ROOT / "src" / "renewalcluster" / "errors.py"
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unraised(errors_source: str, sources: list[str]) -> list[str]:
    """The classes of ``errors_source`` that no raise in ``sources`` names,
    itself or through a subclass."""
    bases = {n.name: [_name(b) for b in n.bases]
             for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)}
    todo = [_name(n.exc) for src in sources for n in ast.walk(ast.parse(src))
            if isinstance(n, ast.Raise) and n.exc is not None]
    covered = set()
    while todo:  # a raised class covers its bases
        name = todo.pop()
        if name not in covered:
            covered.add(name)
            todo.extend(bases.get(name, ()))
    return [c for c in bases if c not in covered]


def test_every_error_class_is_raised():
    sources = [p.read_text(encoding="utf-8") for p in SOURCES]
    assert unraised(ERRORS.read_text(encoding="utf-8"), sources) == []


@pytest.mark.parametrize("errors, sources, found", [
    ("class E(Exception): pass\n", ["raise E('x')\n"], []),
    ("class E(Exception): pass\n", ["raise errors.E('x') from exc\n"], []),
    ("class E(Exception): pass\n", ["err = E\n"], ["E"]),
    ("class E(Exception): pass\n", ["try:\n    f()\nexcept E:\n    raise\n"], ["E"]),
    ("class B(Exception): pass\nclass E(B): pass\n", ["raise E\n"], []),
    ("class B(Exception): pass\nclass E(B): pass\n", ["raise B()\n"], ["E"]),
], ids=["call", "dotted-from", "unraised", "caught-only", "base-via-subclass", "subclass-unraised"])
def test_scan_finds_unraised_classes(errors, sources, found):
    assert unraised(errors, sources) == found
