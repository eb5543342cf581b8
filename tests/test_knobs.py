"""Every defaulted parameter of a function in src/ is passed somewhere.

A stdlib ``ast`` scan: a parameter with a default counts as passed when a
call in src/, demos/ or perfbench/ to a function of that name (a bare name
or the last attribute, the class name for ``__init__``) gives it by
keyword or by position, or spreads ``*args`` / ``**kwargs`` that may hold
it.  Calls are matched by name alone, so a call to another function of
the same name counts: the scan can miss a knob, never flag a passed one.
A default nothing passes is a knob nobody turns: delete it, or name it in
ALLOWED with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEFINED = sorted((ROOT / "src").rglob("*.py"))
CALLERS = sorted(p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))

ALLOWED = {}


def defaulted_params(source, module):
    """(name, callee name, parameter, position or None) for every
    parameter with a default; the position is None for keyword-only ones."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls is not None and not static else 0
                if cls is not None and child.name == "__init__":
                    callee = cls.name
                else:
                    callee = child.name
                name = f"{module}.{cls.name + '.' if cls else ''}{child.name}"
                a = child.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i in range(first, len(positional)):
                    out.append((name, callee, positional[i].arg, i - skip))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((name, callee, arg.arg, None))
                visit(child, None)

    visit(ast.parse(source), None)
    return out


def calls(source):
    """(callee name, positional count, keyword names) of every call; a
    starred argument counts as every position, ``**`` as every keyword."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        callee = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if callee is None:
            continue
        n = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        kws = {k.arg for k in node.keywords}
        out.append((callee, n, kws))
    return out


def unpassed(defined, callers):
    """Names ``module.function(param)`` of the defaulted parameters no call
    passes; ``defined`` maps module names to source, ``callers`` is a list
    of sources."""
    seen = [c for src in callers for c in calls(src)]
    found = []
    for module, source in defined.items():
        for name, callee, param, pos in defaulted_params(source, module):
            if not any(c == callee and (param in kws or None in kws
                                        or (pos is not None and n > pos))
                       for c, n, kws in seen):
                found.append(f"{name}({param})")
    return found


def test_every_default_is_passed():
    defined = {p.stem: p.read_text(encoding="utf-8") for p in DEFINED}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    found = unpassed(defined, callers)
    assert sorted(set(found) - set(ALLOWED)) == []
    # an entry whose parameter is gone or now passed is stale
    assert sorted(set(ALLOWED) - set(found)) == []


@pytest.mark.parametrize("source, callers, found", [
    ("def f(a, b=1): pass\n", ["f(0)\n"], ["m.f(b)"]),
    ("def f(a, b=1): pass\n", ["f(0, 2)\n"], []),
    ("def f(a, b=1): pass\n", ["x.f(0, b=2)\n"], []),
    ("def f(a, b=1): pass\n", ["f(*xs)\n"], []),
    ("def f(a, b=1): pass\n", ["f(0, **kw)\n"], []),
    ("def f(a, *, b=1): pass\n", ["f(0, 2)\n"], ["m.f(b)"]),
    ("class C:\n def g(self, a=1): pass\n", ["c.g()\n"], ["m.C.g(a)"]),
    ("class C:\n def g(self, a=1): pass\n", ["c.g(2)\n"], []),
    ("class C:\n def __init__(self, a=1): pass\n", ["C(2)\n"], []),
    ("class C:\n @staticmethod\n def g(a, b=1): pass\n", ["C.g(1)\n"], ["m.C.g(b)"]),
    ("def f(a=1):\n def h(b=2): pass\n", ["f(1)\n"], ["m.h(b)"]),
], ids=["unpassed", "positional", "keyword", "starred", "double-star", "keyword-only",
        "method-unpassed", "method-positional", "init", "staticmethod", "nested"])
def test_scan_finds_unpassed_defaults(source, callers, found):
    assert unpassed({"m": source}, callers) == found
