import numpy as np
import pytest
from scipy import integrate

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
