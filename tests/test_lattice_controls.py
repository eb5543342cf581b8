"""Negative controls outside the theorems' hypotheses: lattice gaps.

Blackwell's theorem and the epsilon-coupling need nonlattice gaps.  With
gaps of 1 or 2 (each with probability 1/2) the parents sit on the
integers, and the lattice form of the renewal theorem (Feller, *An
Introduction to Probability Theory and Its Applications*, vol. II,
ch. XI) gives the window counts instead: P(renewal at n) -> 1 / E X =
2/3, not the nonlattice rate times the window length.  The estimators and
the coupling run unchanged; their checks must reject.
"""

import numpy as np
import pytest

from renewalcluster import (
    EmptyCluster,
    ProcessSpec,
    estimate_window_mean,
    run_coupling,
    stream_for,
)


class LatticeGaps:
    """Gaps 1 or 2, each with probability 1/2: span 1, mean 3/2."""

    def mean(self):
        return 1.5

    def second_moment(self):
        return 2.5

    def cdf(self, x):
        return np.where(x < 1.0, 0.0, np.where(x < 2.0, 0.5, 1.0))

    def size_biased(self):
        return SizeBiasedLattice()

    def sample(self, rng, size=None):
        return 1.0 + rng.integers(0, 2, size)


class SizeBiasedLattice:
    """LatticeGaps reweighted by x: P(X* = 1) = 1/3, P(X* = 2) = 2/3."""

    def sample(self, rng, size=None):
        return 1.0 + (rng.random(size) < 2.0 / 3.0)


LATTICE = LatticeGaps()


@pytest.mark.parametrize("lo, hi, lattice_limit", [
    (100.0, 100.5, 0.0),  # holds no integer
    (100.5, 101.0, 2.0 / 3.0),  # holds the integer 101
], ids=["off_lattice", "on_lattice"])
def test_blackwell_needs_nonlattice_gaps(lo, hi, lattice_limit):
    spec = ProcessSpec(LATTICE, EmptyCluster(), include_parents=True)
    rep = estimate_window_mean(spec, lo, hi - lo, 4000, stream_for(0, "lattice-blackwell"))
    assert rep.target == pytest.approx(0.5 / 1.5)
    assert rep.within(4.0) is False
    assert abs(rep.estimate - lattice_limit) <= 4.0 * rep.std_error


def test_coupling_needs_nonlattice_gaps():
    # the walk V = V_0 + (integer steps) can enter [0, epsilon) only when
    # frac(V_0) < epsilon, so most walks never couple
    spec = ProcessSpec(LATTICE, EmptyCluster(), delay=LATTICE, include_parents=True)
    rng = stream_for(0, "lattice-coupling")
    runs = [run_coupling(spec, 0.1, 10**5, rng.substream(r)) for r in range(200)]
    coupled = np.array([not r.capped for r in runs])
    v0 = np.array([r.start_stationary - r.start_delayed for r in runs])
    assert np.all(v0[coupled] - np.floor(v0[coupled]) < 0.1)
    # criterion 8's rule: at least 99% of the walks couple within the cap
    assert not coupled.mean() >= 0.99
