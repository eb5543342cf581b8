"""Stationary constructions: size-biased gaps, the uniform split of the
straddling interval, and two-sided extension.

The interval straddling the origin is drawn from the size-biased gap law
and split by an independent Uniform(0,1): the origin-side arrival sits at
U * X_star with the size-biased mark, its predecessor at -(1 - U) * X_star
with an ordinary mark.  Extending both directions with i.i.d. ordinary
arrivals yields a shift-invariant marked renewal process.

X* is one draw from the law the gap law's ``size_biased()`` names, which
is exact for every gap law; ``_straddle`` draws (X*, U), for the stationary
rows and for the coupling walk's start alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import MarkedArrival, MarkedPattern, PointPattern, window_pattern
from .process import ProcessSpec, _gaps_until, _marked_block, _window, block_size, guard_band
from .streams import RngStream

__all__ = [
    "TwoSidedMarkedPattern",
    "sample_size_biased_gaps",
    "sample_stationary_marked_renewal",
    "sample_stationary_cluster_process",
    "stationary_block",
    "stationary_rows",
]


@dataclass(frozen=True, eq=False)
class TwoSidedMarkedPattern(MarkedPattern):
    """Marked pattern extending on both sides of the origin.

    ``origin_index`` points at the unique arrival with epoch >= 0 whose
    predecessor (when present) has a negative epoch; their distance is the
    size-biased gap recorded as the origin arrival's interarrival.
    """

    origin_index: int = 0

    def __post_init__(self):
        super().__post_init__()
        i = self.origin_index
        if not (0 <= i < len(self.epochs)):
            raise ValueError("origin_index out of range")
        if self.epochs[i] < 0:
            raise ValueError("origin arrival must have epoch >= 0")
        if i > 0 and not self.epochs[i - 1] < 0:
            raise ValueError("origin predecessor must have a negative epoch")

    @property
    def origin(self) -> MarkedArrival:
        return self.arrivals[self.origin_index]


def _size_biased_gaps(law, n, g):
    """n exact draws from the gap law reweighted proportionally to the gap,
    from the law's own ``size_biased()`` law."""
    return law.size_biased().sample(g, n)


def _straddle(law, rows, g):
    """(X*, U) for ``rows`` rows: the size-biased straddling gaps, then as
    many Uniform(0, 1) splits.  At rows = 1, ``g.random(1)`` reads the word
    ``g.random()`` would."""
    x_star = _size_biased_gaps(law, rows, g)
    return x_star, g.random(rows)


def sample_size_biased_gaps(law, n: int, rng: RngStream) -> np.ndarray:
    return _size_biased_gaps(law, n, rng.generator())


def stationary_block(spec, rows, window_lo, window_hi, g):
    """``rows`` replications of the stationary process covering the window
    plus guard bands, as a Block, and each row's origin index.

    Each row keeps the arrivals at -(1 - U) X* and U X*, the left arrivals
    down to window_lo - guard and the right ones up to window_hi + guard.
    """
    _window(window_lo, window_hi)
    guard = guard_band(spec)
    x_star, u = _straddle(spec.interarrival, rows, g)
    t0 = u * x_star
    tm1 = -(1.0 - u) * x_star
    right = _gaps_until(spec, np.maximum(window_hi + guard - t0, 0.0), g)
    left = _gaps_until(spec, np.maximum(tm1 - (window_lo - guard), 0.0), g)
    right_epochs = t0[:, None] + np.cumsum(right, axis=1)
    # the arrival owning left gap k sits k gaps before tm1; tm1 is always kept
    left_epochs = tm1[:, None] - (np.cumsum(left, axis=1) - left)
    left_keep = left_epochs >= window_lo - guard
    left_keep[:, 0] = True
    blk = _marked_block(
        spec,
        np.hstack([left_epochs[:, ::-1], t0[:, None], right_epochs]),
        np.hstack([left[:, ::-1], x_star[:, None], right]),
        np.hstack([left_keep[:, ::-1], np.ones((rows, 1), bool), right_epochs <= window_hi + guard]),
        g,
    )
    return blk, left_keep.sum(axis=1)


def stationary_rows(spec, window_lo, window_hi):
    """Block function giving each row's (count in the window, overflow) of
    the stationary process, and its block size."""
    _window(window_lo, window_hi)
    guard = guard_band(spec)

    def rows_of(stream, rows):
        blk, _ = stationary_block(spec, rows, window_lo, window_hi, stream.generator())
        return np.column_stack(blk.window_counts(window_lo, window_hi))

    span = max(window_hi + guard, 0.0) - min(window_lo - guard, 0.0)
    return rows_of, block_size(spec, span)


def sample_stationary_marked_renewal(
    spec: ProcessSpec,
    window_lo: float,
    window_hi: float,
    rng: RngStream,
) -> TwoSidedMarkedPattern:
    """Stationary marked renewal process covering (window_lo, window_hi]."""
    _window(window_lo, window_hi)
    blk, origin = stationary_block(spec, 1, window_lo, window_hi, rng.generator())
    lo = float(np.nextafter(blk.epochs[0], -np.inf))
    hi = float(max(blk.epochs[-1], window_hi + guard_band(spec)))
    return TwoSidedMarkedPattern(blk.epochs, blk.gaps, blk.sizes, blk.offsets, (lo, hi),
                                 origin_index=int(origin[0]))


def sample_stationary_cluster_process(
    spec: ProcessSpec,
    window_lo: float,
    window_hi: float,
    rng: RngStream,
) -> PointPattern:
    """Stationary renewal cluster process restricted to (window_lo, window_hi]."""
    _window(window_lo, window_hi)
    blk, _ = stationary_block(spec, 1, window_lo, window_hi, rng.generator())
    return window_pattern(blk.all_points(), window_lo, window_hi)
