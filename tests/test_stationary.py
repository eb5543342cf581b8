import numpy as np
import pytest
from scipy import special, stats

from renewalcluster import (
    EmptyCluster,
    Exponential,
    GammaLaw,
    Mixture,
    ProcessSpec,
    RngStream,
    Uniform,
    gated_cluster_preset,
    sample_size_biased_gaps,
    sample_stationary_cluster_process,
    sample_stationary_marked_renewal,
    two_sample_ks,
)
from renewalcluster import laws
from renewalcluster.config import LAWS
from renewalcluster.stationary import TwoSidedMarkedPattern, stationary_block

# E X = 0.75; composition draws U(0,1)'s X* with probability 1/3, not 1/2
MIX = Mixture(((0.5, Uniform(0.0, 1.0)), (0.5, Exponential(1.0))))
# (f, E f(X*) = E[X f(X)] / E X) for MIX
MIX_TARGETS = [
    (lambda x: x, (0.5 / 3.0 + 0.5 * 2.0) / 0.75),  # 14/9
    (lambda x: x**2, (0.5 / 4.0 + 0.5 * 6.0) / 0.75),  # 25/6
    # E[X 1{X > 1}] = 2/e for Exp(1), 0 for U(0,1)
    (lambda x: (x > 1.0).astype(float), 0.5 * 2.0 / np.e / 0.75),
    # E[X 1{X <= 1/2}] = 1/8 for U(0,1), 1 - 1.5 e^(-1/2) for Exp(1)
    (lambda x: (x <= 0.5).astype(float), (0.5 / 8.0 + 0.5 * (1.0 - 1.5 * np.exp(-0.5))) / 0.75),
]


EXACTNESS_LAWS = {
    "exp": Exponential(0.4),
    "uniform0-5": Uniform(0.0, 5.0),
    "uniform0.2-3": Uniform(0.2, 3.0),
    "gamma": GammaLaw(2.5, 0.7),
    "uniform-mixture": Mixture(((0.5, Uniform(0.0, 1.0)), (0.5, Uniform(0.5, 3.0)))),
    "mixed-mixture": MIX,
}


def partial_mean(law, x):
    """E[X; X <= x], in closed form for each gap law."""
    x = np.maximum(x, 0.0)
    if isinstance(law, Exponential):
        return -np.expm1(-law.rate * x) / law.rate - x * np.exp(-law.rate * x)
    if isinstance(law, Uniform):
        m = np.clip(x, law.lo, law.hi)
        return (m**2 - law.lo**2) / (2.0 * (law.hi - law.lo))
    if isinstance(law, GammaLaw):
        return law.mean() * special.gammainc(law.shape + 1.0, x / law.scale)
    return sum(w * partial_mean(comp, x) for w, comp in law.components)


def mix_equilibrium_cdf(x):
    """(1 / E X) int_0^x (1 - F(y)) dy for MIX: the law of U X*."""
    m = np.minimum(x, 1.0)
    return (0.5 * (m - m**2 / 2.0) + 0.5 * -np.expm1(-x)) / 0.75


def z_scores(xs, cases):
    """(mean of f(X*) - target) / SE for each (f, target)."""
    vals = [(f(xs), target) for f, target in cases]
    return np.array([(v.mean() - t) / (v.std() / np.sqrt(v.size)) for v, t in vals])


class TestSizeBiasedGaps:
    """The reweighted gap X* satisfies E f(X*) = E[X f(X)] / E X."""

    def test_uniform_moments(self):
        law = Uniform(0.0, 5.0)
        xs = sample_size_biased_gaps(law, 200_000, RngStream(61))
        se = xs.std() / np.sqrt(xs.size)
        # E X* = E X^2 / E X = (25/3) / 2.5 = 10/3
        assert abs(xs.mean() - 10.0 / 3.0) < 4 * se
        # P(X* > 1) = E[X 1{X>1}] / E X = 2.4 / 2.5 = 0.96
        p = (xs > 1.0).mean()
        assert abs(p - 0.96) < 4 * np.sqrt(0.96 * 0.04 / xs.size)

    def test_identity_for_several_test_functions(self):
        law = Uniform(1.0, 2.0)
        xs = sample_size_biased_gaps(law, 200_000, RngStream(62))
        mu = law.mean()
        for f, target in [
            (lambda x: x, law.second_moment() / mu),
            (lambda x: x**2, (15.0 / 4.0) / mu),  # E X^3 = 15/4 for U(1,2)
            # E[X 1{X <= 1.5}] = (1.5^2 - 1) / 2 = 0.625 for U(1,2)
            (lambda x: (x > 1.5).astype(float), (law.mean() - 0.625) / mu),
        ]:
            vals = f(xs)
            se = vals.std() / np.sqrt(vals.size)
            assert abs(vals.mean() - target) < 4 * se + 1e-12

    def test_mixture_by_composition(self):
        # the components' own size-biased laws, weighted w_i E X_i / E X
        xs = sample_size_biased_gaps(MIX, 100_000, RngStream(67))
        assert np.all(np.abs(z_scores(xs, MIX_TARGETS)) < 4)
        # negative control: the components' X* mixed with the plain weights
        u_star = sample_size_biased_gaps(Uniform(0.0, 1.0), 100_000, RngStream(64))
        e_star = sample_size_biased_gaps(Exponential(1.0), 100_000, RngStream(65))
        wrong = np.where(RngStream(69).generator().random(100_000) < 0.5, u_star, e_star)
        assert np.any(np.abs(z_scores(wrong, MIX_TARGETS)) >= 4)

    @pytest.mark.parametrize(
        "law, shape, scale",
        [(Exponential(1.0), 2.0, 1.0), (Exponential(4.0), 2.0, 0.25), (GammaLaw(2.5, 0.7), 3.5, 0.7)],
        ids=["exp1", "exp4", "gamma"],
    )
    def test_closed_form_draws_follow_gamma(self, law, shape, scale):
        # X* is Gamma(shape + 1) for a Gamma(shape) law
        xs = sample_size_biased_gaps(law, 20_000, RngStream(66))
        assert stats.kstest(xs, stats.gamma(shape, scale=scale).cdf).pvalue > 1e-3
        # negative control: draws of the plain law must be rejected
        plain = law.sample(RngStream(68).generator(), 20_000)
        assert stats.kstest(plain, stats.gamma(shape, scale=scale).cdf).pvalue < 1e-3

    @pytest.mark.parametrize("law", list(EXACTNESS_LAWS.values()), ids=list(EXACTNESS_LAWS))
    def test_draws_follow_the_exact_size_biased_law(self, law):
        # KS at alpha = 0.01 against F*(x) = E[X; X <= x] / E X, and the
        # mean against E X^2 / E X at 4 SE
        xs = sample_size_biased_gaps(law, 20_000, RngStream(74))
        assert stats.kstest(xs, lambda x: partial_mean(law, x) / law.mean()).pvalue > 0.01
        target = law.second_moment() / law.mean()
        assert abs(xs.mean() - target) < 4 * xs.std() / np.sqrt(xs.size)
        # negative control: plain X draws must be rejected at the same alpha
        plain = law.sample(RngStream(75).generator(), 20_000)
        assert stats.kstest(plain, lambda x: partial_mean(law, x) / law.mean()).pvalue < 0.01

    def test_every_gap_law_names_its_size_biased_law(self):
        # every gap law of laws.py (those with a cdf) and of config.LAWS is
        # in EXACTNESS_LAWS, whose size-biased laws the test above samples
        classes = [getattr(laws, n) for n in laws.__all__] + [cls for cls, _ in LAWS.values()]
        gap_laws = {cls for cls in classes if hasattr(cls, "cdf")}
        assert gap_laws == {type(law) for law in EXACTNESS_LAWS.values()}


class TestStationaryConstruction:
    def test_straddle_identity(self):
        # T0 - T_{-1} equals the size-biased gap recorded at the origin
        spec = gated_cluster_preset()
        m = sample_stationary_marked_renewal(spec, -20.0, 20.0, RngStream(71))
        assert isinstance(m, TwoSidedMarkedPattern)
        o = m.origin_index
        t0 = m.arrivals[o].epoch
        tm1 = m.arrivals[o - 1].epoch
        assert t0 >= 0 > tm1
        assert (t0 - tm1) == pytest.approx(m.origin.interarrival, rel=1e-9)

    def test_split_ratio_uniform(self):
        # U = T0 / X* must be Uniform(0,1) and independent of X*
        spec = gated_cluster_preset()
        us = []
        xstars = []
        for r in range(4000):
            m = sample_stationary_marked_renewal(spec, -1.0, 1.0, RngStream(72, r))
            x_star = m.origin.interarrival
            us.append(m.origin.epoch / x_star)
            xstars.append(x_star)
        us = np.array(us)
        xstars = np.array(xstars)
        g = RngStream(73).generator()
        assert not two_sample_ks(us, g.random(4000), alpha=0.01).reject
        corr = np.corrcoef(us, xstars)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(len(us))

    def test_origin_epoch_mean(self):
        # E T0 = E[U] E[X*] = 0.5 * 10/3 = 5/3 for Uniform(0,5) gaps
        spec = gated_cluster_preset()
        t0s = np.array(
            [
                sample_stationary_marked_renewal(spec, -1.0, 1.0, RngStream(74, r)).origin.epoch
                for r in range(6000)
            ]
        )
        se = t0s.std() / np.sqrt(t0s.size)
        assert abs(t0s.mean() - 5.0 / 3.0) < 4 * se

    def test_mixture_origin_epoch_is_equilibrium(self):
        # the origin arrival U X* of every row follows the equilibrium law
        rows = 20_000
        spec = ProcessSpec(MIX, EmptyCluster())
        blk, origin = stationary_block(spec, rows, -1.0, 1.0, RngStream(78).generator())
        t0 = blk.epochs[blk.starts[:-1] + origin]
        assert stats.kstest(t0, mix_equilibrium_cdf).pvalue > 1e-3
        # negative control: U X, a plain gap split at random, must be rejected
        g = RngStream(79).generator()
        plain = g.random(rows) * MIX.sample(g, rows)
        assert stats.kstest(plain, mix_equilibrium_cdf).pvalue < 1e-3

    def test_covers_requested_window(self):
        spec = gated_cluster_preset()
        m = sample_stationary_marked_renewal(spec, -30.0, 30.0, RngStream(75))
        epochs = np.array([a.epoch for a in m.arrivals])
        assert epochs[0] < -30.0
        assert epochs[-1] > 30.0
        gaps = np.array([a.interarrival for a in m.arrivals])
        assert np.allclose(np.diff(epochs), gaps[1:], rtol=1e-9)

    def test_poisson_special_case_t0_exponential(self):
        # for exponential gaps the stationary T0 is again exponential
        spec = ProcessSpec(Exponential(1.0), EmptyCluster())
        t0s = np.array(
            [
                sample_stationary_marked_renewal(spec, -1.0, 1.0, RngStream(76, r)).origin.epoch
                for r in range(3000)
            ]
        )
        ref = RngStream(77).generator().exponential(1.0, 3000)
        assert not two_sample_ks(t0s, ref, alpha=0.001).reject


class TestStationaryCounts:
    def test_mean_count_matches_rate(self):
        # stationary mean count on (a, b] is 0.56 * (b - a) for the preset
        spec = gated_cluster_preset()
        counts = np.array(
            [
                len(sample_stationary_cluster_process(spec, 3.0, 8.0, RngStream(81, r)))
                for r in range(3000)
            ],
            dtype=np.float64,
        )
        se = counts.std() / np.sqrt(counts.size)
        assert abs(counts.mean() - 0.56 * 5.0) < 4 * se

    def test_shift_invariance_of_counts(self):
        # counts on (s, s+x] have the same law for every shift s
        spec = gated_cluster_preset()

        def counts(lo, seed):
            return np.array(
                [
                    len(sample_stationary_cluster_process(spec, lo, lo + 2.0, RngStream(seed, r)))
                    for r in range(2500)
                ],
                dtype=np.float64,
            )

        base = counts(0.0, 82)
        for s, seed in ((13.7, 83), (-40.0, 84)):
            assert not two_sample_ks(base, counts(s, seed), alpha=0.001).reject

