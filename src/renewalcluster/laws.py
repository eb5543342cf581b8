"""Parametric interarrival and count laws with closed-form moment accessors.

Every interarrival variant here is continuous, hence nonarithmetic by
construction, and has a finite strictly positive mean.  Each names its
exact size-biased law, density x f(x) / E X, as ``size_biased()``: the
law of the gap that straddles a fixed time in the stationary process.
Each gap law's ``limited_mean(x)`` is E min(X, x), the integral of
P(X > y) over (0, x), in closed form and elementwise over an array; it is 0
for x <= 0.  Laws are frozen dataclasses: immutable, hashable, safe to share.

The module needs numpy alone.  ``GammaLaw.cdf`` is the regularized lower
incomplete gamma function, ``scipy.special.gammainc``, imported on its
first call so that importing the package does not load scipy; it gives
``scipy.stats.gamma.cdf``'s values to the bit.  ``GammaLaw.limited_mean``
imports ``scipy.special`` the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LawError

__all__ = [
    "Exponential",
    "Uniform",
    "GammaLaw",
    "Mixture",
    "PoissonCount",
    "FixedCount",
]


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise LawError("Exponential rate must be positive")

    def mean(self):
        return 1.0 / self.rate

    def second_moment(self):
        return 2.0 / self.rate**2

    def cdf(self, x):
        return -np.expm1(-self.rate * np.maximum(x, 0.0))

    def limited_mean(self, x):
        return self.cdf(x) / self.rate

    def size_biased(self):
        """The gap law reweighted by x, in closed form: Gamma(2, 1/rate)."""
        return GammaLaw(2.0, 1.0 / self.rate)

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size)


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo >= 0 and self.hi > self.lo):
            raise LawError("Uniform requires 0 <= lo < hi")

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def second_moment(self):
        return (self.hi**3 - self.lo**3) / (3.0 * (self.hi - self.lo))

    def cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def limited_mean(self, x):
        """x up to lo, then x - (x - lo)^2 / (2 (hi - lo)), up to the mean
        at hi."""
        y = np.clip(x, 0.0, self.hi)
        return y - np.maximum(y - self.lo, 0.0) ** 2 / (2.0 * (self.hi - self.lo))

    def size_biased(self):
        return SizeBiasedUniform(self.lo, self.hi)

    def sample(self, rng, size=None):
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class SizeBiasedUniform:
    """Uniform(lo, hi) reweighted by x: density 2x / (hi^2 - lo^2) on
    [lo, hi], one word per draw."""

    lo: float
    hi: float

    def sample(self, rng, size=None):
        return np.sqrt(rng.uniform(self.lo**2, self.hi**2, size))


@dataclass(frozen=True)
class GammaLaw:
    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise LawError("Gamma shape and scale must be positive")

    def mean(self):
        return self.shape * self.scale

    def second_moment(self):
        return self.shape * (self.shape + 1.0) * self.scale**2

    def cdf(self, x):
        from scipy import special

        return special.gammainc(self.shape, np.maximum(x, 0.0) / self.scale)

    def limited_mean(self, x):
        """k theta P(k + 1, x / theta) + x Q(k, x / theta)."""
        from scipy import special

        y = np.maximum(x, 0.0) / self.scale
        k = self.shape
        return self.scale * (k * special.gammainc(k + 1.0, y) + y * special.gammaincc(k, y))

    def size_biased(self):
        """Gamma(k, theta) reweighted by x is Gamma(k + 1, theta)."""
        return GammaLaw(self.shape + 1.0, self.scale)

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, self.scale, size)


@dataclass(frozen=True)
class Mixture:
    """Finite mixture of the laws above; components are (weight, law) pairs."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise LawError("Mixture needs at least one component")
        w = np.array([c[0] for c in comps], dtype=np.float64)
        if np.any(w <= 0) or not np.isclose(w.sum(), 1.0):
            raise LawError("Mixture weights must be positive and sum to 1")

    def _weights(self):
        return np.array([c[0] for c in self.components])

    def mean(self):
        return sum(w * law.mean() for w, law in self.components)

    def second_moment(self):
        return sum(w * law.second_moment() for w, law in self.components)

    def cdf(self, x):
        return sum(w * law.cdf(x) for w, law in self.components)

    def limited_mean(self, x):
        return sum(w * law.limited_mean(x) for w, law in self.components)

    def size_biased(self):
        """Component i with probability w_i E X_i / E X, then its own
        size-biased law."""
        p = np.array([w * law.mean() for w, law in self.components])
        return Mixture(tuple(zip(p / p.sum(), (law.size_biased() for _, law in self.components))))

    def sample(self, rng, size=None):
        scalar = size is None
        shape = (1,) if scalar else size
        n = int(np.prod(shape))
        which = rng.choice(len(self.components), size=n, p=self._weights())
        out = np.empty(n)
        for i, (_, law) in enumerate(self.components):
            mask = which == i
            k = int(mask.sum())
            if k:
                out[mask] = law.sample(rng, k)
        return float(out[0]) if scalar else out.reshape(shape)


@dataclass(frozen=True)
class PoissonCount:
    """Poisson cluster-size law; the parameter is the mean."""

    rate: float

    def __post_init__(self):
        if not self.rate >= 0:
            raise LawError("Poisson rate must be nonnegative")

    def mean(self):
        return self.rate

    def sample(self, rng, size=None):
        return rng.poisson(self.rate, size)


@dataclass(frozen=True)
class FixedCount:
    value: int

    def __post_init__(self):
        if not (isinstance(self.value, int) and self.value >= 0):
            raise LawError("FixedCount value must be a nonnegative integer")

    def mean(self):
        return float(self.value)

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(int(size), self.value, dtype=np.int64)
