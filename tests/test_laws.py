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
from renewalcluster.laws import SizeBiasedUniform

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


def test_size_biased_laws():
    assert Exponential(4.0).size_biased() == GammaLaw(2.0, 0.25)
    assert GammaLaw(2.5, 0.7).size_biased() == GammaLaw(3.5, 0.7)
    assert Uniform(0.2, 3.0).size_biased() == SizeBiasedUniform(0.2, 3.0)
    # component i with probability w_i E X_i / E X: 0.25 / 0.75 and 0.5 / 0.75
    mix = Mixture(((0.5, Uniform(0.0, 1.0)), (0.5, Exponential(1.0)))).size_biased()
    assert [law for _, law in mix.components] == [SizeBiasedUniform(0.0, 1.0), GammaLaw(2.0, 1.0)]
    assert [w for w, _ in mix.components] == pytest.approx([1.0 / 3.0, 2.0 / 3.0], rel=1e-15)


def test_size_biased_uniform_is_the_square_root_of_one_word():
    """A size-biased Uniform(lo, hi) draw is sqrt of the Uniform(lo^2, hi^2)
    draw of the same word, and reads one word per variate."""
    law = Uniform(0.2, 3.0).size_biased()
    x = law.sample(RngStream(3).generator(), 1000)
    g = RngStream(3).generator()
    assert np.array_equal(x, np.sqrt(g.uniform(0.2**2, 3.0**2, 1000)))
    h = RngStream(3).generator()
    h.bit_generator.random_raw(1000)
    assert g.bit_generator.random_raw() == h.bit_generator.random_raw()
    assert isinstance(law.sample(g), float)


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
