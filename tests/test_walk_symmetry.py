"""The coupling walk's own steps against Sparre Andersen's arcsine law.

When the steps Y_i = +-X_i are i.i.d. with a symmetric continuous law, the
number K_n of positive partial sums among S_1..S_n has the discrete
arcsine law P(K_n = k) = u_{2k} u_{2n-2k}, with u_{2m} = C(2m, m) 4^-m,
for every gap law and every n; so P(S_1 > 0, ..., S_n > 0) = u_{2n}
(Sparre Andersen, *Math. Scand.* 1954; Feller, vol. II, 1971, XII.7).  It
holds for any n consecutive steps, so it checks the pairing of each gap
with its sign: a sign read from the wrong word, or from the wrong bits of
the gap's own word, can keep every step fair and symmetric and still make
the steps dependent.

The steps are read through ``_SharedSteps``, the walk's one reader, at a
cap of 2^14 + 4: a first block of 2^14 steps and a second of 4.  Stream r
is ``RngStream(SEED, r)``.  Windows of n steps tile the first blocks of
streams 0..STEP0_STREAMS - 1 from step 0 on, and the window of steps
2^14 - 3 .. 2^14 + 4 crosses the seam in each of streams
0..SEAM_STREAMS - 1.  Each chi^2 of K_n is judged at ALPHA, and the
fraction of all-positive windows against u_{2n} at 4 SE.  Two controls
must reject: Uniform steps signed by their gap's own top bit (bit 63 of
the word, in place of bit 0), and lattice gaps, whose ties break the
continuity the law needs.
"""

import math

import numpy as np
import pytest
from scipy import stats

from renewalcluster import Exponential, GammaLaw, Mixture, RngStream, Uniform
from renewalcluster.coupling import _SharedSteps
from test_lattice_controls import LatticeGaps

SEED = 1954
ALPHA = 1e-3  # per chi^2 check, for a correct program
BLOCK = 1 << 14
CAP = BLOCK + 4
STEP0_STREAMS = 8
SEAM_STREAMS, SEAM_N = 500, 8
LAWS = {
    "exponential": Exponential(1.5),
    "uniform": Uniform(0.0, 5.0),
    "gamma": GammaLaw(2.5, 0.7),
    "mixture": Mixture(((0.3, Exponential(2.0)), (0.7, Uniform(0.0, 4.0)))),
}


def _u(m):
    """u_{2m} = P(S_{2m} = 0) of the simple walk, C(2m, m) 4^-m."""
    return math.comb(2 * m, m) / 4**m


def _verdict(windows):
    """(chi^2 of K_n against the arcsine law, its critical value at ALPHA,
    z of the all-positive fraction against u_{2n}) for the rows of
    ``windows``, each n consecutive steps."""
    w, n = windows.shape
    k = np.count_nonzero(windows.cumsum(axis=1) > 0.0, axis=1)
    expected = w * np.array([_u(j) * _u(n - j) for j in range(n + 1)])
    observed = np.bincount(k, minlength=n + 1)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    p = _u(n)
    z = (observed[n] / w - p) / math.sqrt(p * (1.0 - p) / w)
    return chi2, stats.chi2.isf(ALPHA, n), z


def _read(law, r, n):
    """The first n steps of stream r's walk layout at cap CAP."""
    steps = _SharedSteps(law, RngStream(SEED, r).generator(), CAP)
    parts = []
    while n:
        parts.append(steps.take(n).copy())
        n -= parts[-1].size
    return np.concatenate(parts)


def _first_blocks(law):
    return np.concatenate([_read(law, r, BLOCK) for r in range(STEP0_STREAMS)])


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("name", sorted(LAWS))
def test_arcsine_law_from_step_0(name, n):
    chi2, critical, z = _verdict(_first_blocks(LAWS[name]).reshape(-1, n))
    assert chi2 < critical
    assert abs(z) <= 4.0


@pytest.mark.parametrize("name", sorted(LAWS))
def test_arcsine_law_across_the_seam(name):
    windows = [_read(LAWS[name], r, CAP)[-SEAM_N:] for r in range(SEAM_STREAMS)]
    chi2, critical, z = _verdict(np.array(windows))
    assert chi2 < critical
    assert abs(z) <= 4.0


class _TopBitWords:
    """A stand-in generator whose raw words carry their bit 63 in bit 0
    too: a Uniform step then takes its sign from the gap's own top bit."""

    def __init__(self, r):
        self.words = RngStream(SEED, r).generator().bit_generator
        self.bit_generator = self

    def random_raw(self, size):
        w = self.words.random_raw(size)
        return w & ~np.uint64(1) | w >> 63


@pytest.mark.parametrize("n", [4, 16])
def test_sign_from_the_gaps_top_bit_rejects(n):
    law = LAWS["uniform"]
    steps = [_SharedSteps(law, _TopBitWords(r), CAP).take(BLOCK) for r in range(STEP0_STREAMS)]
    chi2, critical, _ = _verdict(np.concatenate(steps).reshape(-1, n))
    assert chi2 > critical


@pytest.mark.parametrize("n", [4, 16])
def test_lattice_gaps_reject(n):
    chi2, critical, _ = _verdict(_first_blocks(LatticeGaps()).reshape(-1, n))
    assert chi2 > critical
