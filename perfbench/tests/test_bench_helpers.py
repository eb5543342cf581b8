"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import (  # noqa: E402
    CheckError, Ledger, Span, Tracer, expect, parse_float, read_csv, self_times, spread,
    tail, time_to_se,
)


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    assert tail(range(11)) == (0, 100.0 / 11, 11)


def test_tail_of_ten_or_fewer_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        tail([])


def _span(start, end, parent):
    return Span("layer", "layer.f", start, end, parent, None)


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        _span(0.0, 10.0, -1),  # root
        _span(1.0, 3.0, 0),    # first child
        _span(4.0, 8.0, 0),    # sibling
        _span(5.0, 6.0, 2),    # grandchild, inside the sibling only
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0.0, 10.0, -1), _span(1.0, 5.0, 0), _span(3.0, 7.0, 0), _span(9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_and_restores_functions():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    pkg.inner = inner  # re-exported name must be patched too
    sys.modules["fakepkg"], sys.modules["fakepkg.mod"] = pkg, mod
    try:
        tracer = Tracer("fakepkg")
        tracer.install([("a", mod, "outer", None), ("b", mod, "inner", lambda a, k, out: out)])
        tracer.task = "t1"
        assert mod.outer(1) == 4
        assert pkg.inner is mod.inner is not inner
        tracer.uninstall()
        assert mod.inner is inner and mod.outer is outer and pkg.inner is inner
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.mod"]
    assert [(s.name, s.parent, s.task, s.info) for s in tracer.spans] == [
        ("mod.outer", -1, "t1", None), ("mod.inner", 0, "t1", 2), ("mod.inner", 0, "t1", 2)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_time_to_se_single_task():
    assert time_to_se({"k": [(2.0, 0.1)]}, {"k": 0.05}) == pytest.approx(8.0)


def test_time_to_se_pools_tasks_and_sums_kinds():
    # two 1 s tasks at SE 0.1 reach SE 0.1/sqrt(2) in 2 s; normalised to 0.05
    pooled = time_to_se({"k": [(1.0, 0.1), (1.0, 0.1)]}, {"k": 0.05})
    assert pooled == pytest.approx(4.0)
    both = time_to_se({"k": [(1.0, 0.1), (1.0, 0.1)], "j": [(2.0, 0.1)]},
                      {"k": 0.05, "j": 0.1})
    assert both == pytest.approx(4.0 + 2.0)


def test_fail_frac_counts_an_injected_failing_task():
    ledger = Ledger()

    def boom():
        raise RuntimeError("sampler blew up")

    def wrong(result):
        expect(result == 1, "result is not 1")
        return 1, {}

    ok = ledger.run("t0", "k", lambda: 1, wrong)
    ledger.run("t1", "k", boom, wrong)
    ledger.run("t2", "k", lambda: 2, wrong)
    ledger.fail("t3", "k", "rerun differs")
    assert ok.ok and ok.reps == 1 and ok.seconds >= 0
    assert ledger.attempted == 4
    assert [r.task_id for r in ledger.failures] == ["t1", "t2", "t3"]
    assert ledger.fail_frac == pytest.approx(0.75)
    assert ledger.failures[0].reason == "RuntimeError: sampler blew up"
    assert ledger.failures[1].reason == "CheckError: result is not 1"


def test_parse_float_rejects_numpy_reprs_and_garbage():
    assert parse_float("0.25", "a.csv") == 0.25
    for field in ("np.float64(0.5)", "abc"):
        with pytest.raises(CheckError, match="a.csv"):
            parse_float(field, "a.csv")


def test_artifact_with_a_numpy_repr_fails_its_task(tmp_path):
    (tmp_path / "cdf.csv").write_text("x,cdf\n0.0,0.5\n1.0,np.float64(0.75)\n")
    ledger = Ledger()
    rec = ledger.run("t0", "recurrence_cdf", lambda: tmp_path / "cdf.csv",
                     lambda path: (len(read_csv(path, "x,cdf")), {}))
    assert not rec.ok and ledger.fail_frac == 1.0
    assert rec.reason == "CheckError: cdf.csv: field 'np.float64(0.75)' is not a number"


def test_spread_is_quartile_distance_over_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
