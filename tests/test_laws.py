import numpy as np
import pytest
from scipy import integrate, stats

from renewalcluster import (
    Exponential,
    FixedCount,
    GammaLaw,
    Mixture,
    PoissonCount,
    RngStream,
    Uniform,
)
from renewalcluster.errors import LawError

ALL_LAWS = [
    Exponential(1.0),
    Exponential(0.25),
    Uniform(0.0, 5.0),
    Uniform(1.0, 2.0),
    GammaLaw(2.0, 0.5),
    GammaLaw(0.7, 3.0),
    Mixture(((0.3, Exponential(2.0)), (0.7, Uniform(0.0, 4.0)))),
]


def numeric_mean(law):
    # E X = integral of the survival function
    return integrate.quad(lambda y: 1.0 - law.cdf(y), 0, np.inf, limit=200)[0]


def numeric_second_moment(law):
    return integrate.quad(lambda y: 2.0 * y * (1.0 - law.cdf(y)), 0, np.inf, limit=200)[0]


@pytest.mark.parametrize("law", ALL_LAWS, ids=repr)
def test_mean_matches_numeric_oracle(law):
    assert law.mean() == pytest.approx(numeric_mean(law), rel=1e-6)


@pytest.mark.parametrize("law", ALL_LAWS, ids=repr)
def test_second_moment_matches_numeric_oracle(law):
    assert law.second_moment() == pytest.approx(numeric_second_moment(law), rel=1e-6)


@pytest.mark.parametrize(
    "law,expected",
    [
        (Uniform(0.0, 5.0), 2.5),
        (Exponential(1.0), 1.0),
        (GammaLaw(2.0, 0.5), 1.0),
    ],
)
def test_sample_mean(law, expected):
    g = RngStream(314).generator()
    xs = law.sample(g, 10**6)
    se = xs.std() / np.sqrt(xs.size)
    assert abs(xs.mean() - expected) < 3 * se + 1e-12


def test_mixture_sampling_moments():
    mix = Mixture(((0.5, Uniform(0.0, 1.0)), (0.5, Exponential(1.0))))
    g = RngStream(9).generator()
    xs = mix.sample(g, 200_000)
    se = xs.std() / np.sqrt(xs.size)
    assert abs(xs.mean() - mix.mean()) < 4 * se


GAMMA_CDF_EDGES = np.array([-np.inf, -1.0, -1e-300, -0.0, 0.0, 5e-324, 1e-300, 1.0, 30.0,
                            np.inf, np.nan])
GAMMA_CDF_POINTS = RngStream(4).generator().uniform(-1.0, 30.0, 100_000)


@pytest.mark.parametrize("shape", [0.3, 1.0, 2.5, 7.7])
@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_gamma_cdf_matches_scipy_stats_bitwise(shape, scale):
    # the incomplete-gamma form must give scipy.stats.gamma.cdf's bits,
    # edges included: below the support, signed zero, inf and nan
    law = GammaLaw(shape, scale)
    x = np.concatenate([GAMMA_CDF_EDGES, GAMMA_CDF_POINTS])
    for arg in (x, GAMMA_CDF_POINTS.reshape(250, 400)):
        got, want = law.cdf(arg), stats.gamma.cdf(arg, shape, scale=scale)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for v in GAMMA_CDF_EDGES:
        got, want = law.cdf(float(v)), stats.gamma.cdf(float(v), shape, scale=scale)
        assert type(got) is type(want) is np.float64
        assert got.view(np.uint64) == want.view(np.uint64)


def test_sup_bounds():
    assert Uniform(0.0, 5.0).sup_bound() == 5.0
    assert Exponential(1.0).sup_bound() is None
    assert Mixture(((0.5, Uniform(0, 1)), (0.5, Uniform(0, 3)))).sup_bound() == 3.0
    assert Mixture(((0.5, Uniform(0, 1)), (0.5, Exponential(1)))).sup_bound() is None


def test_invalid_parameters():
    with pytest.raises(LawError):
        Exponential(0.0)
    with pytest.raises(LawError):
        Uniform(2.0, 1.0)
    with pytest.raises(LawError):
        Uniform(-1.0, 1.0)
    with pytest.raises(LawError):
        GammaLaw(-1.0, 1.0)
    with pytest.raises(LawError):
        Mixture(((0.5, Exponential(1.0)),))


def test_count_laws():
    g = RngStream(77).generator()
    pois = PoissonCount(5.0)
    xs = pois.sample(g, 100_000)
    assert abs(xs.mean() - 5.0) < 4 * xs.std() / np.sqrt(xs.size)
    fixed = FixedCount(3)
    assert fixed.sample(g) == 3
    assert np.all(fixed.sample(g, 10) == 3)


def test_scalar_sampling():
    g = RngStream(5).generator()
    for law in ALL_LAWS:
        x = law.sample(g)
        assert np.isscalar(x) or np.ndim(x) == 0
        assert x >= 0
