"""Controls inside the theorems' hypotheses: gaps with a finite mean and an
infinite variance.

The limit theorems ask only that the gap X have a finite mean.  A Pareto
law with shape alpha in (1, 2) has the finite mean alpha x_m / (alpha - 1)
and an infinite second moment, so here the long-run limits must still
hold, and every estimator must run.  Its size-biased law is exactly
Pareto(alpha - 1, x_m), whose mean is infinite; the stationary
construction allows that.  With alpha <= 1 the mean is infinite, no
stationary version exists, and a spec with such a gap law is an error.

The delayed window mean at a fixed t is not gated here: its excess over
the limit decays like t^(1 - alpha), the order of the integrated tail of
X, and a fixed-t 4-SE verdict would fail a correct program.
"""

import numpy as np
import pytest

from renewalcluster import (
    GatedNormalCluster,
    ProcessSpec,
    StepFunction,
    estimate_elementary_ratio,
    estimate_forward_recurrence_cdf,
    estimate_key_renewal,
    estimate_renewal_function,
    estimate_void_probability,
    estimate_window_mean,
    stream_for,
    theoretical_blackwell_limit,
)
from renewalcluster.errors import LawError
from renewalcluster.estimators import replicate
from renewalcluster.stationary import stationary_rows


class Pareto:
    """P(X > x) = (x_m / x)^alpha for x >= x_m."""

    def __init__(self, alpha, x_m):
        self.alpha, self.x_m = alpha, x_m

    def mean(self):
        a = self.alpha
        return a * self.x_m / (a - 1.0) if a > 1.0 else np.inf

    def second_moment(self):
        a = self.alpha
        return a * self.x_m**2 / (a - 2.0) if a > 2.0 else np.inf

    def cdf(self, x):
        return 1.0 - (self.x_m / np.maximum(x, self.x_m)) ** self.alpha

    def size_biased(self):
        return Pareto(self.alpha - 1.0, self.x_m)

    def sample(self, rng, size=None):
        return self.x_m * (1.0 - rng.random(size)) ** (-1.0 / self.alpha)


def pareto_spec(alpha=1.5):
    law = Pareto(alpha, 0.5)
    return ProcessSpec(law, GatedNormalCluster(), delay=law)


def stationary_counts(spec, n_rep, rng):
    """Counts in (0, 1] of the stationary process, one per replication."""
    fn, block = stationary_rows(spec, 0.0, 1.0)
    return replicate(fn, n_rep, rng, block)[:, 0]


def test_stationary_window_mean_needs_only_a_finite_mean():
    spec = pareto_spec()
    counts = stationary_counts(spec, 20_000, stream_for(0, "pareto-stationary"))
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    # (0.5 P(X > 1) + 5 P(X <= 1)) / E X = 2.2727...
    target = theoretical_blackwell_limit(spec, 1.0)
    assert abs(counts.mean() - target) <= 4.0 * se


@pytest.mark.parametrize("estimate", [
    lambda spec, rng: estimate_window_mean(spec, 20.0, 1.0, 200, rng).estimate,
    lambda spec, rng: estimate_elementary_ratio(spec, 20.0, 200, rng).estimate,
    lambda spec, rng: estimate_forward_recurrence_cdf(spec, 20.0, [0.0, 1.0, 2.0], 200, rng).values,
    lambda spec, rng: estimate_void_probability(spec, 20.0, 1.0, 200, rng).estimate,
    lambda spec, rng: estimate_renewal_function(spec, [1.0, 5.0, 20.0], 200, rng).raw,
    lambda spec, rng: estimate_key_renewal(spec, 20.0, StepFunction(((0.0, 1.0, 1.0),)),
                                           200, rng).estimate,
    lambda spec, rng: stationary_counts(spec, 200, rng),
], ids=["window_mean", "elementary", "recurrence_cdf", "void_prob", "renewal_function",
        "key_renewal", "stationary_rows"])
def test_every_estimator_runs_with_infinite_variance(estimate):
    assert np.all(np.isfinite(estimate(pareto_spec(), stream_for(1, "pareto-runs"))))


@pytest.mark.parametrize("alpha", [1.0, 0.8])
def test_infinite_mean_gap_law_is_a_spec_error(alpha):
    with pytest.raises(LawError, match="finite positive mean"):
        pareto_spec(alpha)
