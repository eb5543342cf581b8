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


KINKED = Uniform(0.2, 3.0)
Y = 1.5 / 0.7
# E min(X, x) by hand: (law, x, value)
LIMITED_MEANS = [
    (Exponential(0.25), 2.0, (1.0 - np.exp(-0.5)) / 0.25),
    (KINKED, 0.1, 0.1),
    (KINKED, 0.2, 0.2),
    (KINKED, 1.5, 1.5 - 1.3**2 / 5.6),
    (KINKED, 3.0, 1.6),
    (KINKED, 4.3, 1.6),
    # shape 1 is Exponential(1 / scale)
    (GammaLaw(1.0, 2.0), 1.5, 2.0 * (1.0 - np.exp(-0.75))),
    # shape 2: k theta P(3, y) + x Q(2, y), y = x / theta, in elementary form
    (GammaLaw(2.0, 0.7), 1.5,
     1.4 * (1.0 - np.exp(-Y) * (1.0 + Y + Y**2 / 2)) + 1.5 * np.exp(-Y) * (1.0 + Y)),
    (Mixture(((0.3, Exponential(2.0)), (0.7, Uniform(0.0, 4.0)))), 1.0,
     0.3 * (1.0 - np.exp(-2.0)) / 2.0 + 0.7 * (1.0 - 1.0 / 8.0)),
]
LIMITED_LAWS = ALL_LAWS + [KINKED, GammaLaw(0.5, 2.0), GammaLaw(1.0, 2.0)]
LIMITED_XS = [0.05, 0.2, 0.5, 1.0, 2.9, 3.0, 4.3, 10.0]


@pytest.mark.parametrize("law,x,value", LIMITED_MEANS, ids=repr)
def test_limited_mean_closed_forms(law, x, value):
    assert law.limited_mean(x) == pytest.approx(value, rel=1e-14, abs=0)


@pytest.mark.parametrize("law", LIMITED_LAWS, ids=repr)
def test_limited_mean_matches_quad(law):
    for x in LIMITED_XS:
        ref = integrate.quad(lambda y: 1.0 - law.cdf(y), 0.0, x, limit=200,
                             epsabs=1e-13, epsrel=1e-13)[0]
        assert law.limited_mean(x) == pytest.approx(ref, rel=1e-8, abs=0), x


@pytest.mark.parametrize("law", LIMITED_LAWS, ids=repr)
def test_limited_mean_edges_and_arrays(law):
    # zero at and below the origin; elementwise over an array of any shape;
    # up to E X far out
    assert law.limited_mean(0.0) == 0.0 and law.limited_mean(-1.5) == 0.0
    xs = np.array([-1.0, 0.0] + LIMITED_XS).reshape(2, 5)
    got = law.limited_mean(xs)
    assert got.shape == xs.shape
    assert np.array_equal(got, [[law.limited_mean(float(x)) for x in row] for row in xs])
    assert np.all(np.diff(got.ravel()) >= 0)
    assert law.limited_mean(1e4) == pytest.approx(law.mean(), rel=1e-12)


@pytest.mark.parametrize("law", LIMITED_LAWS, ids=repr)
def test_limited_mean_monte_carlo(law):
    xs = law.sample(RngStream(31).generator(), 200_000)
    for x in (0.75 * law.mean(), 1.5 * law.mean()):
        clipped = np.minimum(xs, x)
        se = clipped.std(ddof=1) / np.sqrt(clipped.size)
        assert abs(clipped.mean() - law.limited_mean(x)) < 4 * se


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
