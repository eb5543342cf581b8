"""Point-pattern containers and the measure-level operators built on them.

A pattern is a finite sorted multiset of times restricted to a half-open
window (lo, hi].  All interval conventions are half-open on the left, and
membership tests use exact floating comparison: with a fixed seed and a
fixed summation order counts are reproducible, whereas epsilon rules make
them order dependent.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import WindowError

__all__ = [
    "PointPattern",
    "MarkedArrival",
    "MarkedPattern",
    "shift",
    "count_in",
    "restrict",
    "flatten",
    "window_pattern",
]

# Relative tolerance for the epoch-difference consistency check.  Epochs are
# prefix sums of interarrivals, so consecutive differences reproduce the
# stored gap only up to rounding.
_EPOCH_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class PointPattern:
    """Finite sorted multiset of real time points on a window (lo, hi].

    ``overflow`` counts generated points that fell outside the window and
    were dropped; it is never silently zeroed by operations that can lose
    points.
    """

    points: np.ndarray
    window: tuple[float, float]
    overflow: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        lo, hi = self.window
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValueError(f"invalid window ({lo}, {hi}]")
        if pts.ndim != 1:
            raise ValueError("points must be one-dimensional")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if pts.size and np.any(np.diff(pts) < 0):
            raise ValueError("points must be sorted nondecreasing")
        if pts.size and not ((pts[0] > lo) and (pts[-1] <= hi)):
            raise ValueError("points must lie in the window (lo, hi]")

    def __len__(self):
        return int(self.points.size)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t\n")
        for t in self.points:
            buf.write(f"{float(t)!r}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, window: tuple[float, float]) -> "PointPattern":
        lines = text.strip().splitlines()
        if not lines or lines[0] != "t":
            raise ValueError("expected header 't'")
        pts = np.array([float(s) for s in lines[1:]], dtype=np.float64)
        return cls(pts, window)


@dataclass(frozen=True, eq=False)
class MarkedArrival:
    """One arrival: epoch plus its mark (cluster size, offsets, interarrival)."""

    epoch: float
    cluster_size: int
    offsets: np.ndarray
    interarrival: float

    def __post_init__(self):
        offs = np.asarray(self.offsets, dtype=np.float64)
        object.__setattr__(self, "offsets", offs)
        if offs.size != self.cluster_size:
            raise ValueError("offsets length must equal cluster_size")
        if self.cluster_size < 0:
            raise ValueError("cluster_size must be nonnegative")
        if not self.interarrival >= 0:
            raise ValueError("interarrival must be nonnegative")
        if not np.all(np.isfinite(offs)) or not np.isfinite(self.epoch):
            raise ValueError("epoch and offsets must be finite")


@dataclass(frozen=True, eq=False)
class MarkedPattern:
    """Arrivals sorted by epoch on a window (lo, hi].

    Consecutive epoch differences must equal the later arrival's
    interarrival up to rounding; for a one-sided delayed process the first
    epoch equals its own interarrival (the delay draw).
    """

    arrivals: tuple[MarkedArrival, ...]
    window: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "arrivals", tuple(self.arrivals))
        lo, hi = self.window
        if not lo < hi:
            raise ValueError(f"invalid window ({lo}, {hi}]")
        prev = None
        for a in self.arrivals:
            if not (lo < a.epoch <= hi):
                raise ValueError("arrival epoch outside window")
            if prev is not None:
                gap = a.epoch - prev.epoch
                if gap < 0:
                    raise ValueError("epochs must be nondecreasing")
                scale = max(abs(a.epoch), abs(prev.epoch), 1.0)
                if abs(gap - a.interarrival) > _EPOCH_RTOL * scale:
                    raise ValueError(
                        "epoch difference inconsistent with interarrival"
                    )
            prev = a

    def __len__(self):
        return len(self.arrivals)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("epoch,interarrival,cluster_size,offsets\n")
        for a in self.arrivals:
            offs = ";".join(f"{float(o)!r}" for o in a.offsets)
            buf.write(
                f"{float(a.epoch)!r},{float(a.interarrival)!r},"
                f"{int(a.cluster_size)},{offs}\n"
            )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, window: tuple[float, float]) -> "MarkedPattern":
        lines = text.strip().splitlines()
        if not lines or lines[0] != "epoch,interarrival,cluster_size,offsets":
            raise ValueError("bad MarkedPattern CSV header")
        arrivals = []
        for line in lines[1:]:
            epoch_s, inter_s, size_s, offs_s = line.split(",")
            offs = np.array(
                [float(s) for s in offs_s.split(";") if s], dtype=np.float64
            )
            arrivals.append(
                MarkedArrival(float(epoch_s), int(size_s), offs, float(inter_s))
            )
        return cls(tuple(arrivals), window)


def shift(p: PointPattern, t: float) -> PointPattern:
    """Shift every point by -t and translate the window accordingly."""
    lo, hi = p.window
    return PointPattern(p.points - t, (lo - t, hi - t), p.overflow)


def count_in(p: PointPattern, a: float, b: float) -> int:
    """Number of points in (a, b], with multiplicity.

    Raises WindowError when (a, b] is not contained in the pattern's
    window, since counting there would be silently biased by truncation.
    """
    if a > b:
        raise ValueError("need a <= b")
    lo, hi = p.window
    if a < lo or b > hi:
        raise WindowError(f"({a}, {b}] not contained in window ({lo}, {hi}]")
    left = np.searchsorted(p.points, a, side="right")
    right = np.searchsorted(p.points, b, side="right")
    return int(right - left)


def window_pattern(points, lo: float, hi: float, overflow: int = 0) -> PointPattern:
    """The points in (lo, hi], sorted; the others are added to the overflow
    tally, never silently lost."""
    kept = np.sort(points[(points > lo) & (points <= hi)])
    return PointPattern(kept, (lo, hi), overflow + points.size - kept.size)


def restrict(p: PointPattern, lo: float, hi: float) -> PointPattern:
    """Sub-pattern on (lo, hi]; dropped points are added to the overflow tally."""
    return window_pattern(p.points, lo, hi, p.overflow)


def flatten(m: MarkedPattern, include_parents: bool = False) -> PointPattern:
    """Superpose every arrival's cluster, translated to its epoch.

    Each offset contributes the point epoch + offset; when
    ``include_parents`` is set the epochs themselves are appended as well.
    Points outside m.window are dropped and tallied in the result's
    ``overflow`` field, never silently lost.
    """
    chunks = [a.epoch + a.offsets for a in m.arrivals]
    if include_parents:
        chunks.append(np.array([a.epoch for a in m.arrivals]))
    return window_pattern(np.concatenate([np.empty(0), *chunks]), *m.window)
