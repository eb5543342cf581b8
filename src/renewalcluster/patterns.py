"""Point-pattern containers and the measure-level operators built on them.

A pattern is a finite sorted multiset of times restricted to a half-open
window (lo, hi].  All interval conventions are half-open on the left, and
membership tests use exact floating comparison: with a fixed seed and a
fixed summation order counts are reproducible, whereas epsilon rules make
them order dependent.  A marked pattern holds the marks (xi_i, X_i) at
epochs T_i as the block engine's flat arrays, with no object per arrival.
"""

from __future__ import annotations

import functools
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
    "csv_text",
]

# Relative tolerance for the epoch-difference consistency check.  Epochs are
# prefix sums of interarrivals, so consecutive differences reproduce the
# stored gap only up to rounding.
_EPOCH_RTOL = 1e-9
# Rows csv_text formats at a time.  A whole column at once holds every field
# string until the join: 24 MB at peak for a 4 MB pattern.csv of 226,541
# points, against 8 MB in pieces.
_CSV_ROWS = 4096


def _field(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    return "" if v is None else repr(v)


def _fields(column):
    """The fields of one column; a numeric array is read by one ``tolist``,
    with no type test per value."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        return map(repr, column.tolist())
    return map(_field, column)


def csv_text(header: str, *columns) -> str:
    """CSV text of equal-length columns under a header line, LF line ends.
    Each field: a float by repr, an int by str, None empty, a bool as
    true/false, a str as is; numpy values as the Python values they hold."""
    parts = [header]
    for i in range(0, max(map(len, columns), default=0), _CSV_ROWS):
        rows = zip(*(_fields(c[i : i + _CSV_ROWS]) for c in columns), strict=True)
        parts.append("\n".join(map(",".join, rows)))
    return "\n".join([*parts, ""])


def _csv_body(text: str, header: str) -> list[str]:
    """The lines of a CSV text after its header, which must be ``header``."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected CSV header {header!r}")
    return lines[1:]


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
        return csv_text("t", self.points)

    @classmethod
    def from_csv(cls, text: str, window: tuple[float, float]) -> "PointPattern":
        pts = np.array([float(s) for s in _csv_body(text, "t")], dtype=np.float64)
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
    """Arrivals sorted by epoch on a window (lo, hi], held as flat arrays.

    Arrival i has epoch ``epochs[i]``, interarrival ``gaps[i]`` and a
    cluster of ``sizes[i]`` points; ``offsets`` holds every cluster's
    offsets concatenated in arrival order (CSR: arrival i owns the
    ``sizes[i]`` entries after those of arrivals 0..i-1).  Consecutive
    epoch differences must equal the later arrival's gap up to rounding;
    for a one-sided delayed process the first epoch equals its own gap
    (the delay draw).
    """

    epochs: np.ndarray
    gaps: np.ndarray
    sizes: np.ndarray
    offsets: np.ndarray
    window: tuple[float, float]

    CSV_HEADER = "epoch,interarrival,cluster_size,offsets"

    def __post_init__(self):
        for name, dtype in (("epochs", np.float64), ("gaps", np.float64),
                            ("sizes", np.int64), ("offsets", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        e, x, k, offs = self.epochs, self.gaps, self.sizes, self.offsets
        lo, hi = self.window
        if not lo < hi:
            raise ValueError(f"invalid window ({lo}, {hi}]")
        if not (e.ndim == offs.ndim == 1 and e.shape == x.shape == k.shape):
            raise ValueError("epochs, gaps and sizes need one entry per arrival")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(offs))):
            raise ValueError("epochs and offsets must be finite")
        if not np.all((e > lo) & (e <= hi)):
            raise ValueError("arrival epoch outside window")
        step = np.diff(e)
        if np.any(step < 0):
            raise ValueError("epochs must be nondecreasing")
        scale = np.maximum(np.maximum(np.abs(e[1:]), np.abs(e[:-1])), 1.0)
        if np.any(np.abs(step - x[1:]) > _EPOCH_RTOL * scale):
            raise ValueError("epoch difference inconsistent with interarrival")
        if not np.all(x >= 0):
            raise ValueError("interarrival must be nonnegative")
        if np.any(k < 0) or k.sum() != offs.size:
            raise ValueError("cluster sizes must be nonnegative and sum to len(offsets)")

    def __len__(self):
        return int(self.epochs.size)

    @functools.cached_property
    def arrivals(self) -> tuple[MarkedArrival, ...]:
        """Every arrival as a MarkedArrival, built on first access."""
        ends = np.cumsum(self.sizes).tolist()
        return tuple(MarkedArrival(e, k, self.offsets[end - k : end], x) for e, x, k, end
                     in zip(self.epochs.tolist(), self.gaps.tolist(), self.sizes.tolist(), ends))

    def to_csv(self) -> str:
        offs = list(_fields(self.offsets))
        ends = np.cumsum(self.sizes).tolist()
        joined = [";".join(offs[end - k : end]) for k, end in zip(self.sizes.tolist(), ends)]
        return csv_text(self.CSV_HEADER, self.epochs, self.gaps, self.sizes, joined)

    @classmethod
    def from_csv(cls, text: str, window: tuple[float, float]) -> "MarkedPattern":
        epochs, gaps, sizes, offsets = [], [], [], []
        for line in _csv_body(text, cls.CSV_HEADER):
            epoch_s, inter_s, size_s, offs_s = line.split(",")
            offs = [float(s) for s in offs_s.split(";") if s]
            if len(offs) != int(size_s):
                raise ValueError("offsets length must equal cluster_size")
            epochs.append(float(epoch_s))
            gaps.append(float(inter_s))
            sizes.append(len(offs))
            offsets += offs
        return cls(epochs, gaps, sizes, offsets, window)


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
    points = np.repeat(m.epochs, m.sizes) + m.offsets
    if include_parents:
        points = np.concatenate([points, m.epochs])
    return window_pattern(points, *m.window)
