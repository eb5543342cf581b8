import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalcluster import (
    MarkedArrival,
    MarkedPattern,
    PointPattern,
    RngStream,
    count_in,
    flatten,
    gated_cluster_preset,
    guard_band,
    restrict,
    sample_delayed_marked_renewal,
    sample_stationary_marked_renewal,
    shift,
)
from renewalcluster.coupling import coupling_runs_to_csv
from renewalcluster.errors import WindowError
from renewalcluster.estimators import ExperimentReport
from renewalcluster.patterns import csv_text


def pat(points, window=(0.0, 10.0)):
    return PointPattern(np.array(points, dtype=np.float64), window)


class TestPointPattern:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            pat([3.0, 1.0])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            pat([1.0, np.nan])
        with pytest.raises(ValueError):
            pat([1.0, np.inf])

    def test_rejects_point_outside_window(self):
        with pytest.raises(ValueError):
            pat([0.0])  # lo excluded by the half-open convention
        with pytest.raises(ValueError):
            pat([11.0])

    def test_boundary_hi_included(self):
        assert len(pat([10.0])) == 1

    def test_csv_round_trip(self):
        p = pat([0.1, 2.5, 2.5, 9.999999999999])
        q = PointPattern.from_csv(p.to_csv(), p.window)
        assert np.array_equal(p.points, q.points)


class TestCsvText:
    def test_numpy_fields_as_python_values(self):
        want = "x,k,flag,none\n0.5,3,true,\n"
        numpy = csv_text("x,k,flag,none", [np.float64(0.5)], [np.int64(3)], [np.bool_(True)],
                         [None])
        python = csv_text("x,k,flag,none", [0.5], [3], [True], [None])
        assert numpy == python == want

    def test_numpy_columns_as_python_values(self):
        text = csv_text("x,k,flag", np.array([0.5, 0.1]), np.array([3, -4]),
                        np.array([True, False]))
        assert text == "x,k,flag\n0.5,3,true\n0.1,-4,false\n"

    def test_report_row_of_numpy_scalars(self):
        python = ExperimentReport(0.5, 0.25, -0.25, 1.25, 40, None, 7, 2)
        numpy = ExperimentReport(*map(np.float64, (0.5, 0.25, -0.25, 1.25)), np.int64(40),
                                 None, 7, np.int64(2))
        assert numpy.to_csv_row() == python.to_csv_row() == "0.5,0.25,-0.25,1.25,40,,7,2"

    def test_no_rows_writes_the_header_alone(self):
        assert csv_text("t", np.empty(0)) == "t\n"
        assert csv_text("epsilon,tau,coupling_time,capped") == coupling_runs_to_csv([])
        assert coupling_runs_to_csv([]) == "epsilon,tau,coupling_time,capped\n"
        assert pat([]).to_csv() == "t\n"

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            csv_text("a,b", [1.0, 2.0], [1.0])

    @pytest.mark.parametrize("cls", [PointPattern, MarkedPattern])
    def test_from_csv_checks_the_header(self, cls):
        with pytest.raises(ValueError, match="expected CSV header"):
            cls.from_csv("x\n1.0\n", (0.0, 10.0))


class TestShift:
    def test_identity(self):
        p = pat([1.0, 2.0])
        q = shift(p, 0.0)
        assert np.array_equal(q.points, p.points)
        assert q.window == p.window

    def test_arithmetic(self):
        p = pat([1.5, 3.0])
        q = shift(p, 1.0)
        assert np.allclose(q.points, [0.5, 2.0])
        assert q.window == (-1.0, 9.0)

    def test_semigroup(self):
        p = pat([1.5, 3.0, 7.25])
        a, b = 1.25, -2.5
        q1 = shift(shift(p, a), b)
        q2 = shift(p, a + b)
        assert np.allclose(q1.points, q2.points)
        assert np.allclose(q1.window, q2.window)

    def test_count_preserved(self):
        p = pat([1.0, 2.0, 3.0])
        assert len(shift(p, 123.0)) == 3


class TestCountIn:
    def test_empty_pattern(self):
        assert count_in(pat([]), 1.0, 5.0) == 0

    def test_boundaries_and_multiplicity(self):
        p = pat([1.0, 2.0, 2.0, 5.0])
        # a excluded, b included, duplicate counted twice
        assert count_in(p, 1.0, 2.0) == 2

    def test_shift_covariance(self):
        p = pat([1.0, 2.0, 2.0, 5.0])
        t = 0.75
        assert count_in(shift(p, t), 1.0 - t, 5.0 - t) == count_in(p, 1.0, 5.0)

    def test_window_violation(self):
        with pytest.raises(WindowError):
            count_in(pat([1.0]), -1.0, 2.0)
        with pytest.raises(WindowError):
            count_in(pat([1.0]), 5.0, 10.5)

    @given(
        st.lists(st.floats(0.01, 10.0), max_size=30),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_additivity(self, points, a, b, c):
        a, b, c = sorted((a, b, c))
        p = pat(sorted(points))
        assert count_in(p, a, b) + count_in(p, b, c) == count_in(p, a, c)


class TestRestrict:
    def test_drops_are_tallied(self):
        p = pat([1.0, 2.0, 3.0, 9.0])
        q = restrict(p, 1.5, 3.5)
        assert np.allclose(q.points, [2.0, 3.0])
        assert q.overflow == 2


def marked(arrivals, window=(-1.0, 10.0)):
    """MarkedPattern from (epoch, interarrival, offsets) triples."""
    epochs, gaps, offsets = ([a[i] for a in arrivals] for i in range(3))
    return MarkedPattern(epochs, gaps, [len(o) for o in offsets],
                         [v for o in offsets for v in o], window)


# a valid pattern: arrivals at 1 and 3, the first with two offsets
VALID = dict(epochs=[1.0, 3.0], gaps=[1.0, 2.0], sizes=[2, 0], offsets=[-0.5, 1.0],
             window=(-1.0, 10.0))

# one case per validation rule: (fields replaced in VALID, expected message)
INVALID = {
    "window-empty": (dict(window=(5.0, 5.0)), "invalid window"),
    "window-reversed": (dict(window=(10.0, -1.0)), "invalid window"),
    "window-nan": (dict(window=(-1.0, np.nan)), "invalid window"),
    "epoch-at-lo": (dict(epochs=[-1.0, 1.0]), "outside window"),
    "epoch-beyond-hi": (dict(epochs=[8.0, 10.5], gaps=[8.0, 2.5]), "outside window"),
    "epochs-decreasing": (dict(epochs=[3.0, 1.0]), "nondecreasing"),
    "gap-inconsistent": (dict(gaps=[1.0, 1.5]), "inconsistent"),
    "gap-beyond-rtol": (dict(gaps=[1.0, 2.0 + 1e-8]), "inconsistent"),
    "gap-negative": (dict(gaps=[-1.0, 2.0]), "nonnegative"),
    "gap-nan": (dict(gaps=[np.nan, 2.0]), "nonnegative"),
    "epoch-inf": (dict(epochs=[1.0, np.inf]), "finite"),
    "epoch-nan": (dict(epochs=[np.nan, 3.0]), "finite"),
    "offset-inf": (dict(offsets=[-0.5, np.inf]), "finite"),
    "size-negative": (dict(sizes=[3, -1]), "sum to len"),
    "sizes-sum-short": (dict(sizes=[1, 0]), "sum to len"),
    "sizes-sum-long": (dict(sizes=[2, 1]), "sum to len"),
    "gaps-length": (dict(gaps=[1.0]), "one entry per arrival"),
}


class TestMarkedPattern:
    def test_valid_base_pattern(self):
        m = MarkedPattern(**VALID)
        assert len(m) == 2
        assert m.sizes.dtype == np.int64 and m.offsets.dtype == np.float64

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_validation_rule_rejects(self, case):
        fields, message = INVALID[case]
        with pytest.raises(ValueError, match=message):
            MarkedPattern(**{**VALID, **fields})

    def test_gap_within_rtol_accepted(self):
        # 1e-9 below the 1e-9 * max(|e_i|, |e_{i-1}|, 1) = 3e-9 tolerance
        assert len(MarkedPattern(**{**VALID, "gaps": [1.0, 2.0 + 1e-9]})) == 2

    def test_epoch_gap_must_match_interarrival(self):
        with pytest.raises(ValueError):
            marked([(1.0, 1.0, []), (3.0, 1.5, [])])  # gap is 2.0

    def test_offsets_length_checked(self):
        with pytest.raises(ValueError):
            MarkedArrival(1.0, 2, np.array([0.5]), 1.0)

    def test_csv_round_trip(self):
        m = marked([(1.0, 1.0, [-0.5, 1.0]), (3.5, 2.5, [])])
        m2 = MarkedPattern.from_csv(m.to_csv(), m.window)
        assert len(m2) == 2
        for name in ("epochs", "gaps", "sizes", "offsets"):
            assert np.array_equal(getattr(m2, name), getattr(m, name))
        assert np.array_equal(m2.arrivals[0].offsets, [-0.5, 1.0])
        assert m2.arrivals[1].epoch == 3.5

    def test_csv_row_size_checked(self):
        text = "epoch,interarrival,cluster_size,offsets\n1.0,1.0,1,\n2.0,1.0,0,0.5\n"
        with pytest.raises(ValueError):
            MarkedPattern.from_csv(text, (0.0, 10.0))

    def test_arrivals_view(self):
        m = MarkedPattern(**VALID)
        a, b = m.arrivals
        assert (a.epoch, a.interarrival, a.cluster_size) == (1.0, 1.0, 2)
        assert np.array_equal(a.offsets, [-0.5, 1.0])
        assert (b.epoch, b.interarrival, b.cluster_size) == (3.0, 2.0, 0)
        assert m.arrivals is m.arrivals  # built once

    def test_sampling_builds_no_arrival_objects(self, monkeypatch):
        calls = []
        post_init = MarkedArrival.__post_init__

        def counted(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(MarkedArrival, "__post_init__", counted)
        spec = gated_cluster_preset()
        m = sample_delayed_marked_renewal(spec, 200.0, guard_band(spec), RngStream(5))
        s = sample_stationary_marked_renewal(spec, -10.0, 10.0, RngStream(6))
        for parents in (False, True):
            flatten(m, parents)
            flatten(s, parents)
        assert len(m) > 50 and len(s) > 5
        assert calls == []
        # the counter works: asking for the arrivals builds one per arrival
        assert len(m.arrivals) == len(calls)


class TestFlatten:
    def test_all_empty_clusters(self):
        p = flatten(marked([(1.0, 1.0, [])]), include_parents=False)
        assert len(p) == 0

    def test_parent_and_offsets(self):
        p = flatten(marked([(2.0, 2.0, [-0.5, 1.0])]), include_parents=True)
        assert np.allclose(p.points, [1.5, 2.0, 3.0])

    def test_parent_toggle_changes_count_by_arrivals(self):
        m = marked([(2.0, 2.0, [-0.5, 1.0]), (5.0, 3.0, [0.25])])
        assert len(flatten(m, True)) - len(flatten(m, False)) == 2

    def test_overflow_tally(self):
        # one offset lands beyond the window and must be tallied, not lost
        p = flatten(marked([(9.0, 9.0, [0.5, 2.0])]), include_parents=True)
        assert np.allclose(p.points, [9.0, 9.5])
        assert p.overflow == 1

    def test_count_identity(self):
        m = marked([(2.0, 2.0, [-0.5, 0.0, 1.0]), (4.0, 2.0, [0.1, 0.2])])
        for parents in (False, True):
            p = flatten(m, parents)
            total = 5 + (2 if parents else 0)
            assert len(p) == total - p.overflow
