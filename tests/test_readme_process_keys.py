"""README's "Process keys" block lists, on each ``<prefix>.kind = a | b``
line, exactly the kinds of the table of model kinds that ``config.SPEC``
reads under that prefix, in table order, special names included.

A stdlib scan of the fenced block that follows the "Process keys" line:
a line ``<prefix>.kind = a | b | c`` names its kinds before any ``#``
comment or ``(default ...)`` note.
"""

import re
from pathlib import Path

import pytest

from renewalcluster.config import SPEC

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_kind_lines(text: str) -> dict:
    """{prefix: [kinds]} from the fenced block after "Process keys"."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if "Process keys" in line)
    fence = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("```"))
    rows = {}
    for line in lines[fence + 1:]:
        if line.startswith("```"):
            break
        m = re.match(r"(\S+)\.kind = ([^#(]*)", line)
        if m is not None:
            rows[m[1]] = [k.strip() for k in m[2].split("|")]
    return rows


def table_kinds(schema: dict, prefix: str = "") -> dict:
    """{prefix: [kinds]} of every table of model kinds a schema reads,
    nested fields included."""
    out = {}
    for name, entry in schema.items():
        table = entry[0] if isinstance(entry, tuple) else entry
        if isinstance(table, dict):
            out[prefix + name] = list(table)
            for model in table.values():
                if isinstance(model, tuple):  # (class, field schema)
                    out.update(table_kinds(model[1], f"{prefix}{name}."))
    return out


def test_readme_kind_lines_match_tables():
    assert readme_kind_lines(README.read_text(encoding="utf-8")) == table_kinds(SPEC)


@pytest.mark.parametrize("block, found", [
    ("```\na.kind = x | y\na.rate / .lo\n```\n", {"a": ["x", "y"]}),
    ("```\na.b.kind = x | y   # b only\nc.kind = z  (default z)\n```\n",
     {"a.b": ["x", "y"], "c": ["z"]}),
    ("```\na.kind = x\n```\nb.kind = y\n", {"a": ["x"]}),
], ids=["plain", "comment-and-default", "block-ends-at-fence"])
def test_scan_reads_the_block(block, found):
    assert readme_kind_lines("Process keys:\n\n" + block) == found


def test_table_walk_reads_nested_fields():
    inner = {"p": (int, {"rate": float}), "q": (int, {})}
    schema = {"a": {"k": (int, {"size": inner, "v": (float, 1.0)})},
              "b": ({"none": None, "same": "a", **inner}, "none"), "n": (int, 3)}
    assert table_kinds(schema) == {"a": ["k"], "a.size": ["p", "q"], "b": ["none", "same", "p", "q"]}
