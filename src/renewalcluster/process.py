"""Process specifications, simulation of delayed marked renewal processes,
and the renewal cluster processes built on top of them.

Replications are simulated in blocks: ``delayed_block`` draws B rows of
gaps as a 2-D array from one generator, takes epochs by a running prefix
sum along each row (so the epoch-difference invariant of MarkedPattern
holds to rounding) and draws every cluster in one ``sample_batch`` call.
The public samplers are the B = 1 case and deterministic given an
RngStream: the same (spec, window, stream) gives a bit-identical result.
``sample_delayed_marked_renewal`` hands the block's arrays to
MarkedPattern as they are.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .clusters import ClusterModel, EmptyCluster
from .errors import LawError, RunawayGenerationError
from .laws import Exponential, Uniform
from .patterns import MarkedPattern, PointPattern, window_pattern
from .streams import RngStream

__all__ = [
    "ProcessSpec",
    "sample_interarrival",
    "sample_cluster",
    "sample_delayed_marked_renewal",
    "sample_renewal_cluster_process",
    "guard_band",
    "Block",
    "block_size",
    "delayed_block",
    "bartlett_lewis_preset",
    "gated_cluster_preset",
]

# Pilot draws for the guard band are taken from a fixed stream so the band
# is a deterministic function of the spec alone.
_PILOT_STREAM = RngStream(0x6A7D_BA5E)
_PILOT_DRAWS = 10_000
# The band is the (1 - GUARD_DELTA) quantile of the pilot's cluster radii.
GUARD_DELTA = 1e-4

# Replications per block: as many as fit this many expected arrivals, and
# no more than BLOCK_ROWS.
BLOCK_ARRIVALS = 2**15
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ProcessSpec:
    """Full description of a renewal cluster process.

    ``delay`` is the law of the first gap (None means zero delay) and
    ``delay_cluster`` the cluster model of the first arrival (None means
    empty).  Subsequent gaps are i.i.d. from ``interarrival``, whose mean
    must be finite and positive (else no stationary version exists), and
    each arrival's cluster is drawn conditionally on its own gap.
    """

    interarrival: object
    cluster: ClusterModel
    delay: object = None
    delay_cluster: ClusterModel | None = None
    include_parents: bool = False
    arrival_cap: int = 10**8

    def __post_init__(self):
        mu = self.interarrival.mean()
        if not 0.0 < mu < np.inf:
            raise LawError(f"the interarrival law needs a finite positive mean, got {mu}")

    def mean_cluster_size(self):
        return self.cluster.mean_size(self.interarrival)


def sample_interarrival(law, rng: RngStream | np.random.Generator) -> float:
    """One draw from an interarrival law."""
    g = rng.generator() if isinstance(rng, RngStream) else rng
    return float(law.sample(g))


def sample_cluster(model: ClusterModel, x: float, rng):
    """One cluster conditioned on the interarrival value x."""
    g = rng.generator() if isinstance(rng, RngStream) else rng
    offsets = model.sample(x, g)
    return len(offsets), offsets


def _csr(sizes) -> np.ndarray:
    """Segment offsets: segment i is [out[i], out[i + 1])."""
    return np.concatenate(([0], np.cumsum(sizes)))


def _segment_reduce(ufunc, values, starts, empty) -> np.ndarray:
    """ufunc.reduce over each segment; ``empty`` for empty segments, and
    ``empty`` must not change a nonempty segment's result."""
    out = ufunc.reduceat(np.append(values, empty), starts[:-1])
    out[starts[1:] == starts[:-1]] = empty
    return out


class Block:
    """The replications of one block as flat arrays, each row's entries
    contiguous (CSR).

    Row r's arrivals are ``epochs[starts[r]:starts[r + 1]]`` in ascending
    order, with their gaps and cluster sizes; ``offsets`` holds the
    clusters' offsets in arrival order, and row r's cluster points are
    ``points[point_starts[r]:point_starts[r + 1]]``.  When the spec
    includes parents, the epochs count as points too.  Estimators read
    ``window_counts`` and ``grid_counts``.
    """

    def __init__(self, starts, epochs, gaps, sizes, offsets, include_parents):
        self.rows = starts.size - 1
        self.starts, self.epochs, self.gaps = starts, epochs, gaps
        self.sizes, self.offsets = sizes, offsets
        self.points = np.repeat(epochs, sizes) + offsets
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        self.point_starts = _csr(sizes)[starts]
        # each (points, row offsets) pair holds some of every row's points
        self.sources = [(self.points, self.point_starts)]
        if include_parents:
            self.sources.append((epochs, starts))

    def all_points(self) -> np.ndarray:
        """Every point of every row, parents included, unsorted."""
        return np.concatenate([p for p, _ in self.sources])

    def window_counts(self, lo, hi):
        """Per row: the points in (lo, hi], and the points drawn outside it."""
        count = total = 0
        for p, starts in self.sources:
            count = count + _segment_reduce(np.add, (p > lo) & (p <= hi), starts, 0)
            total = total + np.diff(starts)
        return count, total - count

    def grid_counts(self, lo, grid) -> np.ndarray:
        """(rows, len(grid)) counts of the points in (lo, u] for each u of
        the sorted grid."""
        hist = 0
        for p, starts in self.sources:
            inside = (p > lo) & (p <= grid[-1])
            row = np.repeat(np.arange(self.rows), np.diff(starts))[inside]
            cell = row * grid.size + np.searchsorted(grid, p[inside])
            hist = hist + np.bincount(cell, minlength=self.rows * grid.size)
        return hist.reshape(self.rows, grid.size).cumsum(axis=1)


def _finite(**values):
    """ValueError unless every named value, a number or an array, is finite."""
    for name, v in values.items():
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite, got {v}")


def _window(lo, hi):
    """ValueError unless window_lo < window_hi, both finite."""
    _finite(window_lo=lo, window_hi=hi)
    if not lo < hi:
        raise ValueError("need window_lo < window_hi")


def block_size(spec: ProcessSpec, span: float) -> int:
    """Replications per block for paths covering a time span of this length.

    As many as fit BLOCK_ARRIVALS expected arrivals, at most BLOCK_ROWS: a
    function of the inputs alone, never of how the blocks are run.
    """
    per_rep = max(span / spec.interarrival.mean(), 1.0)
    return int(max(1, min(BLOCK_ROWS, BLOCK_ARRIVALS // per_rep)))


def _gaps_until(spec: ProcessSpec, need, g: np.random.Generator, drawn: int = 0):
    """Gaps as a (rows, n) array, drawn in column chunks until every row's
    sum exceeds its entry of ``need``.

    ``drawn`` arrivals per row are already drawn; drawing more than the
    spec's arrival_cap per row raises RunawayGenerationError.  A law with an
    infinite variance sizes its chunks as if its cv^2 were 1.
    """
    law = spec.interarrival
    mu = law.mean()
    cv2 = max(law.second_moment() / mu**2 - 1.0, 0.0)
    if not np.isfinite(cv2):
        cv2 = 1.0
    short = np.asarray(need, dtype=np.float64)
    chunks = [np.empty((short.size, 0))]
    while short.max() >= 0:
        m = short.max() / mu
        n = int(m + 4.0 * np.sqrt(max(m, 1.0) * cv2)) + 16
        drawn += n
        if drawn > spec.arrival_cap:
            raise RunawayGenerationError(
                f"more than {spec.arrival_cap} arrivals to cover the window"
            )
        chunks.append(np.asarray(law.sample(g, (short.size, n)), dtype=np.float64))
        short = short - chunks[-1].sum(axis=1)
    return np.hstack(chunks)


def _marked_block(spec, epochs, gaps, keep, g, first_model=None) -> Block:
    """Block of the kept entries of (rows, n) epoch and gap arrays, kept
    epochs ascending along each row, with every cluster drawn in one
    sample_batch call.

    ``first_model``, when given, draws the cluster of each row's column-0
    arrival instead of the spec's cluster model.
    """
    starts = _csr(keep.sum(axis=1))
    ep, gp = epochs[keep], gaps[keep]
    if first_model is None:
        sizes, offs = spec.cluster.sample_batch(gp, g)
    else:
        first = np.zeros(ep.size, dtype=bool)
        first[starts[:-1][keep[:, 0]]] = True
        sizes = np.zeros(ep.size, dtype=np.int64)
        sizes[~first], offs = spec.cluster.sample_batch(gp[~first], g)
        sizes[first], first_offs = first_model.sample_batch(gp[first], g)
        if first_offs.size:  # interleave the first clusters in arrival order
            owned = np.repeat(first, sizes)
            merged = np.empty(owned.size)
            merged[~owned], merged[owned] = offs, first_offs
            offs = merged
    return Block(starts, ep, gp, sizes, offs, spec.include_parents)


def delayed_block(spec: ProcessSpec, rows: int, t_max: float, g) -> Block:
    """``rows`` replications of the delayed process with arrivals on
    [0, t_max] and a cluster for every arrival.

    Each row's first gap is its delay draw (0 for zero delay), drawn even
    when it lands beyond t_max; the first arrival's cluster follows
    ``delay_cluster`` (empty when None).
    """
    delay = np.zeros(rows) if spec.delay is None else spec.delay.sample(g, rows)
    gaps = np.column_stack([delay, _gaps_until(spec, t_max - delay, g, drawn=1)])
    epochs = np.cumsum(gaps, axis=1)
    first = spec.delay_cluster if spec.delay_cluster is not None else EmptyCluster()
    return _marked_block(spec, epochs, gaps, epochs <= t_max, g, first)


@functools.lru_cache(maxsize=None)
def guard_band(spec: ProcessSpec) -> float:
    """Simulation margin bounding cluster reach beyond the window.

    The empirical (1 - GUARD_DELTA) quantile of the cluster radius,
    estimated from a fixed pilot sample, so that at most a GUARD_DELTA
    fraction of clusters can straddle the window edge from beyond the band.
    """
    def cluster_radii(model, xs):
        sizes, offs = model.sample_batch(np.asarray(xs, dtype=np.float64), g)
        return _segment_reduce(np.maximum, np.abs(offs), _csr(sizes), 0.0)

    g = _PILOT_STREAM.generator()
    radii = cluster_radii(spec.cluster, spec.interarrival.sample(g, _PILOT_DRAWS))
    if spec.delay_cluster is not None:
        xs0 = np.zeros(_PILOT_DRAWS) if spec.delay is None else spec.delay.sample(g, _PILOT_DRAWS)
        radii = np.concatenate([radii, cluster_radii(spec.delay_cluster, xs0)])
    if not radii.size or radii.max() == 0.0:
        return 0.0
    return float(np.quantile(radii, 1.0 - GUARD_DELTA)) + 1e-9


def sample_delayed_marked_renewal(
    spec: ProcessSpec, horizon: float, guard: float, rng: RngStream
) -> MarkedPattern:
    """Delayed marked renewal process with epochs up to horizon + guard."""
    _finite(horizon=horizon, guard=guard)
    if not horizon >= 0 or not guard >= 0:
        raise ValueError("horizon and guard must be nonnegative")
    t_max = horizon + guard
    blk = delayed_block(spec, 1, t_max, rng.generator())
    return MarkedPattern(blk.epochs, blk.gaps, blk.sizes, blk.offsets, (-max(guard, 1e-12), t_max))


def sample_renewal_cluster_process(
    spec: ProcessSpec, window_lo: float, window_hi: float, rng: RngStream
) -> PointPattern:
    """Realization of the renewal cluster process restricted to (lo, hi].

    The one-row block of the delayed process on (0, window_hi + guard];
    points outside the window are tallied in ``overflow`` so callers can
    bound edge effects.
    """
    _window(window_lo, window_hi)
    blk = delayed_block(spec, 1, window_hi + guard_band(spec), rng.generator())
    return window_pattern(blk.all_points(), window_lo, window_hi)


def bartlett_lewis_preset(rate: float, size_law, step_law) -> ProcessSpec:
    """Poisson parents with forward-running clusters of cumulative steps.

    Parents form a homogeneous Poisson process of the given rate starting
    at 0, each carrying a cluster whose offsets are partial sums of i.i.d.
    nonnegative steps; parent points are included in the pattern.
    """
    from .clusters import CumulativeStepCluster

    return ProcessSpec(
        interarrival=Exponential(rate),
        cluster=CumulativeStepCluster(size_law, step_law),
        delay=None,
        delay_cluster=None,
        include_parents=True,
    )


def gated_cluster_preset() -> ProcessSpec:
    """Uniform(0,5) renewal process with gap-dependent normal clusters.

    Cluster sizes are Poisson(0.5) after a gap above 1 and Poisson(5)
    otherwise; offsets sit at the gap value plus standard normal noise.
    The first arrival carries no cluster.  Mean cluster size is 1.4, so
    the long-run point rate is 1.4 / 2.5 = 0.56.
    """
    from .clusters import GatedNormalCluster

    law = Uniform(0.0, 5.0)
    return ProcessSpec(
        interarrival=law,
        cluster=GatedNormalCluster(threshold=1.0, rate_above=0.5, rate_below=5.0),
        delay=law,
        delay_cluster=None,
        include_parents=False,
    )
