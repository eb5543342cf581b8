import numpy as np
import pytest

from renewalcluster import (
    EmptyCluster,
    ExperimentReport,
    Exponential,
    FixedCount,
    FixedOffsetsCluster,
    Mixture,
    PoissonCount,
    ProcessSpec,
    RngStream,
    StepFunction,
    Uniform,
    bartlett_lewis_preset,
    bartlett_lewis_recurrence_cdf,
    bartlett_lewis_void_probability,
    estimate_elementary_ratio,
    estimate_forward_recurrence_cdf,
    estimate_key_renewal,
    estimate_renewal_function,
    estimate_void_probability,
    estimate_window_mean,
    gated_cluster_preset,
    key_renewal_limit,
    sample_delayed_marked_renewal,
    sample_renewal_cluster_process,
    sample_stationary_cluster_process,
    sample_stationary_marked_renewal,
    stream_for,
    theoretical_blackwell_limit,
)
from renewalcluster.errors import QuadratureError
from renewalcluster.estimators import _report, _window_rows
from renewalcluster.stationary import stationary_rows

NAN, INF = float("nan"), float("inf")
SPEC = gated_cluster_preset()
ONE = StepFunction([(0.0, 1.0, 1.0)])
# a call with one non-finite time, window end, grid value or horizon
NON_FINITE = {
    "window_mean-t-nan": lambda rng: estimate_window_mean(SPEC, NAN, 1.0, 10, rng),
    "window_mean-t-inf": lambda rng: estimate_window_mean(SPEC, INF, 1.0, 10, rng),
    "window_mean-x-inf": lambda rng: estimate_window_mean(SPEC, 1.0, INF, 10, rng),
    "ratio-t-inf": lambda rng: estimate_elementary_ratio(SPEC, INF, 10, rng),
    "void-t-nan": lambda rng: estimate_void_probability(SPEC, NAN, 1.0, 10, rng),
    "void-x-inf": lambda rng: estimate_void_probability(SPEC, 1.0, INF, 10, rng),
    "cdf-t-nan": lambda rng: estimate_forward_recurrence_cdf(SPEC, NAN, [1.0], 10, rng),
    "cdf-grid-nan": lambda rng: estimate_forward_recurrence_cdf(SPEC, 1.0, [0.5, NAN, 2.0],
                                                                10, rng),
    "cdf-grid-inf": lambda rng: estimate_forward_recurrence_cdf(SPEC, 1.0, [0.5, INF], 10, rng),
    "renewal_function-grid-nan": lambda rng: estimate_renewal_function(SPEC, [1.0, NAN, 3.0],
                                                                       10, rng),
    "renewal_function-grid-inf": lambda rng: estimate_renewal_function(SPEC, [1.0, INF], 10, rng),
    "key_renewal-t-nan": lambda rng: estimate_key_renewal(SPEC, NAN, ONE, 10, rng),
    "key_renewal-t-inf": lambda rng: estimate_key_renewal(SPEC, INF, ONE, 10, rng),
    "delayed-horizon-inf": lambda rng: sample_delayed_marked_renewal(SPEC, INF, 1.0, rng),
    "cluster_process-hi-inf": lambda rng: sample_renewal_cluster_process(SPEC, 0.0, INF, rng),
    "cluster_process-lo-nan": lambda rng: sample_renewal_cluster_process(SPEC, NAN, 1.0, rng),
    "stationary_marked-lo-inf": lambda rng: sample_stationary_marked_renewal(SPEC, -INF, 1.0,
                                                                             rng),
    "stationary_cluster-hi-inf": lambda rng: sample_stationary_cluster_process(SPEC, 0.0, INF,
                                                                               rng),
    "stationary_rows-lo-inf": lambda rng: stationary_rows(SPEC, -INF, 1.0),
}
# the Bartlett-Lewis targets, with the step law and with a survival callable
for _form, _step in {"law": Exponential(1.0), "callable": lambda y: float(np.exp(-y))}.items():
    for _name, _v in {"inf": INF, "nan": NAN}.items():
        NON_FINITE[f"bl_void-x-{_name}-{_form}"] = (
            lambda rng, s=_step, v=_v: bartlett_lewis_void_probability(1.0, 1.0, s, v))
        NON_FINITE[f"bl_cdf-grid-{_name}-{_form}"] = (
            lambda rng, s=_step, v=_v: bartlett_lewis_recurrence_cdf(1.0, 1.0, s, [0.5, v]))


class TestNonFiniteInputs:
    """A nan or infinite time, window end, grid value or horizon is a
    ValueError raised before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def generator(self):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(RngStream, "generator", generator)

    @pytest.mark.parametrize("call", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_rejected(self, call):
        with pytest.raises(ValueError, match="must be finite"):
            call(RngStream(120))


class TestTheoreticalLimits:
    def test_blackwell_limit_arithmetic(self):
        spec = bartlett_lewis_preset(2.0, PoissonCount(3.0), Exponential(1.0))
        # rate 2, E L = 3, parents included: 2 * (3 + 1) * x
        assert theoretical_blackwell_limit(spec, 1.0) == pytest.approx(8.0)

    def test_mean_measure_cases(self):
        # the stationary mean count of a window is the limit for its length
        gated = gated_cluster_preset()
        assert theoretical_blackwell_limit(gated, 2.0) == pytest.approx(1.12)
        bl = bartlett_lewis_preset(1.0, PoissonCount(1.0), Exponential(1.0))
        assert theoretical_blackwell_limit(bl, 3.0) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            theoretical_blackwell_limit(bl, 0.0)


class TestWindowMean:
    def test_parent_only_poisson(self):
        spec = bartlett_lewis_preset(2.0, FixedCount(0), Exponential(1.0))
        rep = estimate_window_mean(spec, 50.0, 3.0, 2000, RngStream(112))
        assert rep.target == pytest.approx(6.0)
        assert rep.within(4.0)

    def test_offset_doubling_cluster(self):
        # each parent carries one point at offset 0, so counts double
        spec = ProcessSpec(
            Exponential(1.0), FixedOffsetsCluster((0.0,)), include_parents=True
        )
        rep = estimate_window_mean(spec, 30.0, 2.0, 2000, RngStream(113))
        assert rep.target == pytest.approx(4.0)
        assert rep.within(4.0)

    def test_report_fields(self):
        spec = gated_cluster_preset()
        rep = estimate_window_mean(spec, 20.0, 1.0, 200, RngStream(114))
        assert rep.n_rep == 200
        assert rep.ci_low <= rep.estimate <= rep.ci_high
        assert rep.target == pytest.approx(0.56)

    def test_block_order_does_not_change_result(self, reverse_blocks):
        spec = gated_cluster_preset()
        rep = estimate_window_mean(spec, 500.0, 1.0, 300, RngStream(115))
        fn, block = _window_rows(spec, 500.0, 501.0)
        assert rep.block == block < 300
        out = reverse_blocks(fn, 300, RngStream(115), block)
        again = _report(out[:, 0], out[:, 1], rep.target, RngStream(115), block)
        assert again.to_csv_row() == rep.to_csv_row()
        assert again == rep


class TestElementaryRatio:
    def test_empty_process_rate_zero(self):
        spec = ProcessSpec(Exponential(1.0), EmptyCluster())
        rep = estimate_elementary_ratio(spec, 100.0, 50, RngStream(116))
        assert rep.estimate == 0.0
        assert rep.target == 0.0

    def test_gated_rate(self):
        spec = gated_cluster_preset()
        rep = estimate_elementary_ratio(spec, 500.0, 200, RngStream(117))
        assert rep.target == pytest.approx(0.56)
        assert rep.within(4.0)


class TestVoidProbability:
    def test_closed_form_values(self):
        surv = lambda y: np.exp(-y)
        # lambda=1, E L=1, Y~Exp(1), x=1: exp(-(1 + (1 - e^-1)))
        v = bartlett_lewis_void_probability(1.0, 1.0, surv, 1.0)
        assert v == pytest.approx(np.exp(-(2.0 - np.exp(-1.0))), rel=1e-9)
        assert v == pytest.approx(0.19552, abs=1e-5)
        # no clusters reduces to the Poisson void probability
        assert bartlett_lewis_void_probability(2.0, 0.0, surv, 1.5) == pytest.approx(
            np.exp(-3.0)
        )
        # tiny window: probability tends to 1
        assert bartlett_lewis_void_probability(1.0, 1.0, surv, 1e-9) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_monotone_in_window_length(self):
        surv = lambda y: np.exp(-y)
        xs = [0.5, 1.0, 2.0, 4.0]
        vals = [bartlett_lewis_void_probability(1.0, 1.0, surv, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_recurrence_cdf_complements_void(self):
        surv = lambda y: np.exp(-y)
        grid = np.array([0.0, 0.5, 1.0, 2.0])
        cdf = bartlett_lewis_recurrence_cdf(1.0, 1.0, surv, grid)
        assert cdf[0] == 0.0
        assert cdf[2] == pytest.approx(1.0 - 0.19552, abs=1e-5)
        assert np.all(np.diff(cdf) > 0)

    def test_monte_carlo_matches_target(self):
        spec = bartlett_lewis_preset(1.0, PoissonCount(1.0), Exponential(1.0))
        rep = estimate_void_probability(spec, 50.0, 1.0, 5000, RngStream(118))
        assert rep.target == pytest.approx(0.19552, abs=1e-5)
        assert rep.within(4.0)

    def test_markov_bound(self):
        # P(N(t, t+x] = 0) >= 1 - E N(t, t+x]
        spec = bartlett_lewis_preset(0.2, PoissonCount(0.5), Exponential(1.0))
        rep = estimate_void_probability(spec, 30.0, 1.0, 3000, RngStream(119))
        bound = 1.0 - theoretical_blackwell_limit(spec, 1.0)
        assert rep.estimate >= bound - 4 * rep.std_error


class TestBartlettLewisExact:
    """The targets read the step law's limited mean exactly; a survival
    callable goes through the adaptive Gauss-Legendre rule."""

    KINKED = Uniform(0.2, 3.0)

    @staticmethod
    def uniform_void(x, rate=1.0, mean_size=1.3, lo=0.2, hi=3.0):
        y = min(x, hi)
        return np.exp(-rate * (x + mean_size * (y - max(y - lo, 0.0) ** 2 / (2 * (hi - lo)))))

    def test_spec_target_exact_past_both_kinks(self):
        # scipy's quad, the former path, gave 0.001695122964392 here, off by
        # 4.6e-9 relative: its error estimate missed the survival's kinks
        spec = bartlett_lewis_preset(1.0, PoissonCount(1.3), self.KINKED)
        rep = estimate_void_probability(spec, 1.0, 4.3, 2, stream_for(0, "bl-exact"))
        assert rep.target == pytest.approx(self.uniform_void(4.3), rel=1e-12, abs=0)

    def test_callable_rule_on_kinked_survival(self):
        def survival(y):
            return 1.0 - float(self.KINKED.cdf(y))

        v = bartlett_lewis_void_probability(1.0, 1.3, survival, 4.3)
        assert v == pytest.approx(self.uniform_void(4.3), rel=1e-9, abs=0)

    @pytest.mark.parametrize("step", [
        Exponential(1.0),
        Uniform(0.2, 3.0),
        Mixture(((0.4, Uniform(0.0, 1.0)), (0.6, Exponential(2.0)))),
    ], ids=repr)
    def test_callable_form_matches_law_form(self, step):
        grid = np.array([-1.0, 0.0, 0.1, 0.2, 1.0, 2.5, 3.0, 4.3])

        def survival(y):
            return 1.0 - float(step.cdf(y))

        law, fn = (bartlett_lewis_recurrence_cdf(2.0, 1.5, s, grid) for s in (step, survival))
        assert np.all(law[:2] == 0.0) and np.all(fn[:2] == 0.0)
        assert fn == pytest.approx(law, rel=1e-12, abs=0)
        # the grid in one call is the void target point by point
        assert list(law[2:]) == [1.0 - bartlett_lewis_void_probability(2.0, 1.5, step, x)
                                 for x in grid[2:]]

    def test_callable_rule_bisects_onto_a_jump(self):
        # steps of exactly 1/3: the integral of P(step > y) over (0, 1] is 1/3
        v = bartlett_lewis_void_probability(1.0, 1.0, lambda y: float(y < 1.0 / 3.0), 1.0)
        assert v == np.exp(-(1.0 + 1.0 / 3.0))

    @pytest.mark.parametrize("survival", [
        lambda y: np.cos(1e4 * y) ** 2,
        lambda y: float("nan"),
    ], ids=["oscillating", "nan"])
    def test_callable_rule_gives_up(self, survival):
        with pytest.raises(QuadratureError):
            bartlett_lewis_void_probability(1.0, 1.0, survival, 1.0)


BL_SPEC = bartlett_lewis_preset(1.0, PoissonCount(1.0), Exponential(1.0))


class TestForwardRecurrenceCdf:
    def test_heavy_tailed_gaps_within_dkw_band(self):
        # One gap in 100 has mean 1000, so the gap covering t is mostly a
        # long one and most rows have no point in (t, t + 50]: their
        # windows are all empty.  The target is the renewal process's
        # stationary forward-recurrence law, (1/mu) sum w (1 - e^(-r x)) / r.
        comps = ((0.99, 10.0), (0.01, 0.001))
        law = Mixture(tuple((w, Exponential(r)) for w, r in comps))
        spec = ProcessSpec(law, EmptyCluster(), include_parents=True)
        grid = np.linspace(0.0, 50.0, 11)
        mu = sum(w / r for w, r in comps)
        target = sum(w * (1.0 - np.exp(-r * grid)) / r for w, r in comps) / mu
        n_rep = 2000
        rep = estimate_forward_recurrence_cdf(
            spec, 20_000.0, grid, n_rep, stream_for(2026, "heavy-recurrence")
        )
        # DKW-Massart simultaneous band at alpha = 1e-3
        assert np.max(np.abs(rep.values - target)) <= np.sqrt(np.log(2.0 / 1e-3) / (2 * n_rep))

    HEAVY = ProcessSpec(Mixture(((0.99, Exponential(10.0)), (0.01, Exponential(0.001)))),
                        EmptyCluster(), include_parents=True)

    # CDF counts (values * n_rep) and half-widths recorded when the CDF came
    # to read the rows of ``_delayed_rows`` on (0, t + x_grid[-1]], those of
    # the void estimator, in place of its own block on a padded horizon
    # from each block's substream 0; that is stream layout alone.  Each case
    # runs on stream_for(7, "recurrence-<name>").
    RECORDED = {
        "criterion-4-spec": (
            BL_SPEC, 200.0, np.linspace(0.0, 3.0, 20), 3000,
            [0, 825, 1329, 1731, 2002, 2230, 2364, 2499, 2591, 2670, 2728, 2784, 2832, 2859,
             2885, 2901, 2917, 2932, 2944, 2952],
            [0.0, 0.0244565942027912, 0.027207590852554364, 0.027059434583893285,
             0.02580694996830634, 0.023924185809900966, 0.02238678181427603,
             0.020428729769616124, 0.0187946712306086, 0.017137677789012137,
             0.015727004376761222, 0.014157965955602515, 0.012593331568731131,
             0.01159193685283008, 0.010516257255633614, 0.009784324197408836,
             0.00898352195225606, 0.00815221851195529, 0.00741314148432814,
             0.006872554110372653],
        ),
        "t-zero": (
            BL_SPEC, 0.0, np.linspace(0.0, 3.0, 7), 500,
            [0, 191, 323, 399, 444, 473, 480],
            [0.0, 0.06518717665308109, 0.06415849125408109, 0.05386583332688727,
             0.0423108496723949, 0.030323456267384842, 0.026290682760247985],
        ),
        "zero-and-repeats": (
            BL_SPEC, 50.0, [0.0, 0.0, 0.5, 0.5, 0.5, 1.25, 3.0, 3.0], 400,
            [0, 0, 236, 236, 236, 335, 392, 392],
            [0.0, 0.0, 0.07377499576414763, 0.07377499576414763, 0.07377499576414763,
             0.05533632961265139, 0.021000000000000008, 0.021000000000000008],
        ),
        "heavy-tailed": (
            HEAVY, 20_000.0, np.linspace(0.0, 50.0, 11), 300,
            [0, 4, 4, 4, 5, 5, 6, 6, 6, 6, 9],
            [0.0, 0.01986621923433512, 0.01986621923433512, 0.01986621923433512,
             0.022173557826083448, 0.022173557826083448, 0.02424871130596428,
             0.02424871130596428, 0.02424871130596428, 0.02424871130596428,
             0.029546573405388313],
        ),
        "no-points": (
            ProcessSpec(Exponential(1.0), EmptyCluster()), 20.0, [0.0, 1.0, 2.0], 50,
            [0, 0, 0], [0.0, 0.0, 0.0],
        ),
    }

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_values_match_the_recorded_table(self, name):
        spec, t, grid, n_rep, counts, half = self.RECORDED[name]
        rep = estimate_forward_recurrence_cdf(spec, t, grid, n_rep,
                                              stream_for(7, "recurrence-" + name))
        assert np.array_equal(rep.values, np.array(counts) / n_rep)
        assert np.array_equal(rep.half_widths, half)

    @pytest.mark.parametrize("spec, t, x, n_rep", [
        (BL_SPEC, 0.0, 1.0, 500),
        (BL_SPEC, 200.0, 2.5, 3000),
        (SPEC, 50.0, 1.0, 2000),
    ], ids=["bl-t0", "bl-t200", "gated"])
    def test_one_point_grid_reads_the_void_rows(self, spec, t, x, n_rep):
        # with grid [x], the CDF's rows with a point in (t, t + x] are the
        # void estimator's rows that are not empty, row for row
        rng = stream_for(7, "recurrence-void")
        with_point = estimate_forward_recurrence_cdf(spec, t, [x], n_rep, rng).values[0] * n_rep
        empty = estimate_void_probability(spec, t, x, n_rep, rng).estimate * n_rep
        assert 0 < round(empty) < n_rep
        assert round(with_point) == n_rep - round(empty)

    def test_bartlett_lewis_target_attached(self):
        grid = np.array([0.0, 1.0, 2.5])
        rng = stream_for(7, "recurrence-target")
        own = estimate_forward_recurrence_cdf(BL_SPEC, 20.0, grid, 50, rng)
        expected = bartlett_lewis_recurrence_cdf(1.0, 1.0, lambda y: np.exp(-y), grid)
        assert own.target == pytest.approx(expected, abs=1e-12)
        assert estimate_forward_recurrence_cdf(self.HEAVY, 20.0, grid, 50, rng).target is None


class TestRenewalFunction:
    def test_degenerate_poisson_parents(self):
        # parents only: E N(lo, t] = rate * t + 1 (the parent at epoch 0)
        spec = bartlett_lewis_preset(1.0, FixedCount(0), Exponential(1.0))
        grid = np.array([1.0, 2.0, 5.0, 10.0])
        tab = estimate_renewal_function(spec, grid, 3000, RngStream(120))
        target = grid + 1.0
        assert np.all(np.abs(tab.raw - target) < 4 * tab.std_errors + 1e-9)

    def test_empty_process_zero(self):
        spec = ProcessSpec(Exponential(1.0), EmptyCluster())
        tab = estimate_renewal_function(spec, [1.0, 2.0], 50, RngStream(121))
        assert np.all(tab.raw == 0.0)

    def test_raw_is_nondecreasing(self):
        # means of cumulative integer counts: monotone exactly, with no fit
        spec = gated_cluster_preset()
        grid = np.array([-3.0, 1.0, 1.0, 3.7, 8.0, 20.0])
        tab = estimate_renewal_function(spec, grid, 800, RngStream(122))
        assert np.all(np.diff(tab.raw) >= 0.0)
        assert tab.raw[1] == tab.raw[2]


class TestStepFunction:
    def test_integral(self):
        g = StepFunction(((0.0, 1.0, 1.0), (2.0, 4.0, 0.5)))
        assert g.integral() == pytest.approx(2.0)

    def test_overlapping_pieces_rejected(self):
        with pytest.raises(ValueError):
            StepFunction(((0.0, 2.0, 1.0), (1.0, 3.0, 1.0)))

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            StepFunction(((0.0, 1.0, -1.0),))


class TestKeyRenewal:
    def test_indicator_reduces_to_table_difference(self):
        # the same draws read two ways: window counts against grid counts
        spec = bartlett_lewis_preset(1.0, FixedCount(0), Exponential(1.0))
        g = StepFunction(((0.0, 5.0, 1.0),))
        rep = estimate_key_renewal(spec, 20.0, g, 500, RngStream(123))
        tab = estimate_renewal_function(spec, [15.0, 20.0], 500, RngStream(123))
        assert rep.estimate == pytest.approx(tab.raw[1] - tab.raw[0], rel=1e-12)

    def test_indicator_equals_window_mean(self):
        spec = gated_cluster_preset()
        g = StepFunction(((0.0, 1.5, 1.0),))
        rep = estimate_key_renewal(spec, 50.0, g, 300, RngStream(126))
        assert rep == estimate_window_mean(spec, 48.5, 1.5, 300, RngStream(126))
        assert rep.block == _window_rows(spec, 48.5, 50.0)[1]

    def test_limit_value(self):
        spec = bartlett_lewis_preset(1.0, FixedCount(0), Exponential(1.0))
        g = StepFunction(((0.0, 1.0, 1.0), (2.0, 4.0, 0.5)))
        assert key_renewal_limit(spec, g) == pytest.approx(2.0)

    def test_convolution_approaches_limit(self):
        spec = bartlett_lewis_preset(1.0, FixedCount(0), Exponential(1.0))
        g = StepFunction(((0.0, 1.0, 1.0), (2.0, 4.0, 0.5)))
        rep = estimate_key_renewal(spec, 40.0, g, 4000, RngStream(124))
        assert rep.target == pytest.approx(key_renewal_limit(spec, g))
        assert rep.within(4.0)


class TestReportSerialization:
    def test_csv_round_trip(self):
        rep = ExperimentReport(0.5, 0.01, 0.47, 0.53, 100, 0.56, 7, 2)
        row = rep.to_csv_row()
        back = ExperimentReport.from_csv_row(row)
        assert back == rep

    def test_estimator_report_round_trip(self):
        spec = bartlett_lewis_preset(1.0, PoissonCount(1.0), Exponential(1.0))
        rep = estimate_window_mean(spec, 20.0, 1.0, 50, RngStream(31, 2))
        assert rep.block is not None
        back = ExperimentReport.from_csv_row(rep.to_csv_row())
        assert back == rep

    def test_none_target_round_trip(self):
        rep = ExperimentReport(1.0, 0.1, 0.7, 1.3, 10, None, 0)
        back = ExperimentReport.from_csv_row(rep.to_csv_row())
        assert back.target is None
        assert back.within(4.0) is None
