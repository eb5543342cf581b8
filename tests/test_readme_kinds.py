"""README's experiment table names every kind of ``runner.KINDS`` and each
kind's parameters, in schema order.

A stdlib scan of the Markdown table that follows the "Experiment
selection" line: one row per kind, the kind in backticks in the first
cell, and in the second cell the parameter names in backticks, up to the
first ``;`` (what follows it is a note).
"""

import re
from pathlib import Path

import pytest

from renewalcluster.runner import KINDS

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_kinds(text: str) -> dict:
    """{kind: [parameter names]} from the table after "Experiment selection"."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Experiment selection"))
    rows = {}
    for line in lines[start + 1:]:
        if not line.strip():
            if rows:
                break
            continue
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        kind = re.fullmatch(r"`([^`]+)`", cells[0])
        if kind is not None:
            rows[kind[1]] = re.findall(r"`([^`]+)`", cells[1].split(";")[0])
    return rows


def test_readme_table_matches_kinds():
    got = readme_kinds(README.read_text(encoding="utf-8"))
    assert got == {name: list(kind.params) for name, kind in KINDS.items()}


@pytest.mark.parametrize("table, found", [
    ("| kind | parameters |\n| --- | --- |\n| `a` | `t`, `x` (1.0) |\n", {"a": ["t", "x"]}),
    ("| `a` | `n`; takes no `n_rep` |\n| `b` | none |\n", {"a": ["n"], "b": []}),
    ("\n| `a` | `t` |\n\n| `b` | `x` |\n", {"a": ["t"]}),
], ids=["header-and-defaults", "note-and-empty", "table-ends-at-blank-line"])
def test_scan_reads_the_table(table, found):
    assert readme_kinds("Experiment selection:\n" + table) == found
