"""Cluster models: the joint law of a cluster size and its offsets,
possibly depending on the interarrival that preceded the parent.

Every model gives its mean size E L in closed form; the long-run rate
(E L, plus one with parents) / E X behind every limit target needs no
other moment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import MarkedArrival

__all__ = [
    "EmptyCluster",
    "FixedOffsetsCluster",
    "CumulativeStepCluster",
    "GatedNormalCluster",
    "cluster_radius",
]


def cluster_radius(arrival: MarkedArrival) -> float:
    """Distance to the farthest cluster point: max |offset|, 0 if empty."""
    if arrival.cluster_size == 0:
        return 0.0
    return float(np.max(np.abs(arrival.offsets)))


class ClusterModel:
    """Interface shared by all cluster models.

    ``sample_batch(xs, rng)`` draws one cluster per interarrival value and
    returns (sizes, offsets) with offsets concatenated in parent order.
    ``mean_size(interarrival_law)``, the one required moment accessor,
    gives E L in closed form; it takes the interarrival law because
    x-dependent models need it to integrate out the gap.
    """

    def sample(self, x, rng):
        sizes, offsets = self.sample_batch(np.array([x], dtype=np.float64), rng)
        return offsets

    def sample_batch(self, xs, rng):
        raise NotImplementedError


@dataclass(frozen=True)
class EmptyCluster(ClusterModel):
    """Every cluster is empty (size 0)."""

    def sample_batch(self, xs, rng):
        return np.zeros(len(xs), dtype=np.int64), np.empty(0)

    def mean_size(self, interarrival_law):
        return 0.0


@dataclass(frozen=True)
class FixedOffsetsCluster(ClusterModel):
    """Deterministic cluster: the same offsets at every parent."""

    offsets: tuple

    def sample_batch(self, xs, rng):
        offs = np.asarray(self.offsets, dtype=np.float64)
        n = len(xs)
        sizes = np.full(n, offs.size, dtype=np.int64)
        return sizes, np.tile(offs, n)

    def mean_size(self, interarrival_law):
        return float(len(self.offsets))


@dataclass(frozen=True)
class CumulativeStepCluster(ClusterModel):
    """Offsets are cumulative sums of i.i.d. nonnegative steps.

    Size and steps are independent of the interarrival, so the k-th offset
    is the k-th partial sum of draws from ``step`` and offsets are
    nondecreasing within each cluster.
    """

    size: object
    step: object

    def sample_batch(self, xs, rng):
        n = len(xs)
        sizes = np.asarray(self.size.sample(rng, n), dtype=np.int64)
        total = int(sizes.sum())
        if total == 0:
            return sizes, np.empty(0)
        offs = np.asarray(self.step.sample(rng, total), dtype=np.float64)
        # partial sums within each cluster, added in order as np.cumsum
        # would, so their rounding does not grow with the batch
        starts = np.cumsum(sizes) - sizes
        live = np.flatnonzero(sizes > 1)
        for k in range(1, int(sizes.max())):
            live = live[sizes[live] > k]
            offs[starts[live] + k] += offs[starts[live] + k - 1]
        return sizes, offs

    def mean_size(self, interarrival_law):
        return self.size.mean()


@dataclass(frozen=True)
class GatedNormalCluster(ClusterModel):
    """Size and offsets both depend on the preceding interarrival x.

    The size is Poisson with mean ``rate_above`` when x > threshold and
    ``rate_below`` otherwise; each offset is x plus standard normal noise.
    """

    threshold: float = 1.0
    rate_above: float = 0.5
    rate_below: float = 5.0

    def sample_batch(self, xs, rng):
        lam = np.where(xs > self.threshold, self.rate_above, self.rate_below)
        sizes = rng.poisson(lam).astype(np.int64)
        total = int(sizes.sum())
        if total == 0:
            return sizes, np.empty(0)
        noise = rng.standard_normal(total)
        return sizes, np.repeat(xs, sizes) + noise

    def mean_size(self, interarrival_law):
        p_below = float(interarrival_law.cdf(self.threshold))
        return self.rate_above * (1.0 - p_below) + self.rate_below * p_below
