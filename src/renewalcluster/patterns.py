"""Point-pattern containers and the measure-level operators built on them.

A pattern is a finite sorted multiset of times restricted to a half-open
window (lo, hi].  All interval conventions are half-open on the left, and
membership tests use exact floating comparison: with a fixed seed and a
fixed summation order counts are reproducible, whereas epsilon rules make
them order dependent.  A marked pattern holds the marks (xi_i, X_i) at
epochs T_i as the block engine's flat arrays, with no object per arrival.

``csv_text`` writes every artifact.  It formats a float array a column at a
time, Schubfach's shortest round-trip digits in uint64 numpy arithmetic laid
out as repr lays them out: repr(float(v)) for every float64, no str per value.
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
# Rows csv_text formats at a time; the float formatter's arrays for one
# chunk peak at about 1.3 MB.
_CSV_ROWS = 4096

# Shortest round-trip digits (Schubfach: R. Giulietti, "The Schubfach way to
# render doubles", 2020), the digits repr(float) prints, for a whole column
# in uint64 arithmetic.  _G holds, for k = -324..292, g = floor(10^-k
# 2^(125 - flog2pow10(-k))) + 1 as its 63-bit halves g1 2^63 + g0.
_K_MIN = -324
_M32, _M63 = (1 << 32) - 1, (1 << 63) - 1


def _flog2pow10(e):
    """floor(e log2 10) for |e| <= 1000, on ints or int64 arrays."""
    return (e * 913_124_641_741) >> 38


def _g(k: int) -> int:
    s = 125 - _flog2pow10(-k)
    num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
    return (num << max(s, 0)) // (den << max(-s, 0)) + 1


_G = np.array([(g >> 63, g & _M63) for g in map(_g, range(_K_MIN, 293))], np.uint64).T.copy()
_POW10 = 10 ** np.arange(17, dtype=np.uint64)
_SLOT = np.arange(18, dtype=np.uint8)[:, None]
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_NEWLINE = np.frombuffer(b"\0" * 29 + b"\n", np.uint8)[:, None]


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of a b, from the 32-bit halves of uint64 a and b."""
    t = a1 * b0 + (a0 * b0 >> 32)
    w = a0 * b1 + (t & _M32)
    return a1 * b1 + (t >> 32) + (w >> 32)


def _rop(g, cp):
    """g cp / 2^127 rounded to odd (Schubfach's r_o)."""
    g1, g0, g1h, g1l, g0h, g0l = g
    c1, c0 = cp >> 32, cp & _M32
    z = (g1 * cp >> 1) + _mulhi(g0h, g0l, c1, c0)
    return _mulhi(g1h, g1l, c1, c0) + (z >> 63) | ((z & _M63) + _M63) >> 63


def _shortest(bits):
    """(f, k) with f 10^k the shortest decimal that rounds to each double
    (the one nearest it, even f on a tie), for finite bit patterns."""
    t, bq = bits & ((1 << 52) - 1), bits >> 52 & 0x7FF
    q = np.maximum(bq, 1).astype(np.int64) - 1075
    c = np.where(bq > 0, t | (1 << 52), t)
    irregular = (t == 0) & (bq > 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = np.take(_G, k - _K_MIN, axis=1)
    g = (g1, g0, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32)
    odd, cb = c & 1, c << 2
    vb, vbl, vbr = _rop(g, np.stack([cb, cb - 2 + irregular, cb + 2]) << h)
    vbl, vbr = vbl + odd, vbr - odd
    s = vb >> 2
    sp = s // 10 * 10
    upin, wpin = vbl <= sp << 2, sp + 10 << 2 <= vbr
    uin, win = vbl <= s << 2, s + 1 << 2 <= vbr
    mid = 4 * s + 2
    pick_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & (s & 1 == 0)))
    f = np.where((s >= 10) & (upin != wpin), np.where(upin, sp, sp + 10), s + 1 - pick_s)
    return f, k


def _repr_slots(x: np.ndarray) -> np.ndarray:
    """repr(float(v)) of every v in a float64 array, v's text in column j of
    a (29, len(x)) uint8 array, NUL where a slot is unused: row 0 the sign,
    1-5 the "0.000" of a fixed form below 1, 6-23 the digits with the point
    inserted, 24-28 the exponent."""
    bits = x.view(np.uint64)
    f, k = _shortest(bits)
    zero = (bits & _M63) == 0
    ndig = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)
    left = np.where(zero, 0, f * _POW10[17 - ndig])  # 17 digits, left-aligned
    hi = left // 10**8
    v = np.stack([hi, left - hi * 10**8]).astype(np.uint32)
    digits = np.zeros((19, len(x)), np.uint8)  # a NUL row on either side
    for j in range(9, 0, -1):  # the low half's ninth digit is 0: row 9 keeps hi's
        r = v // 10
        digits[[j, j + 8]] += (v - r * 10).astype(np.uint8)
        v = r
    nsig = np.maximum(((digits[1:18] != 0) * (_SLOT[:17] + 1)).max(axis=0), 1)
    # repr's rule: fixed notation for 1e-4 <= |v| < 1e16, else exponent
    decpt = np.where(zero, 1, ndig + k)
    exp = (decpt < -3) | (decpt > 16)
    above1 = ~exp & (decpt > 0)
    point = np.where(exp, np.where(nsig > 1, 1, 99), np.where(above1, decpt, 99)).astype(np.uint8)
    end = (np.where(above1, np.maximum(nsig, decpt + 1), nsig) + (point < 99)).astype(np.uint8)
    out = np.zeros((29, len(x)), np.uint8)
    out[0] = (bits >> 63) * ord("-")
    out[1:6] = _PREFIX * (_SLOT[:5] < np.where(exp | above1, 0, 2 - decpt).astype(np.uint8))
    digits[1:18] += ord("0")
    body = np.where(_SLOT < point, digits[1:], digits[:18])
    np.copyto(body, ord("."), where=_SLOT == point)
    out[6:24] = body * (_SLOT < end)
    ex = np.flatnonzero(exp)
    a = np.abs(e := decpt[ex] - 1)
    out[24:29, ex] = [np.full(ex.size, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                      np.where(a >= 100, 48 + a // 100, 0), 48 + a // 10 % 10, 48 + a % 10]
    for i in np.flatnonzero(~np.isfinite(x)):  # inf, -inf and nan
        out[:, i] = np.frombuffer(repr(float(x[i])).encode().ljust(29, b"\0"), np.uint8)
    return out


def _field(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    return "" if v is None else repr(v)


def _cells(column) -> np.ndarray:
    """The fields of one column as the columns of a uint8 array, NUL
    padded: a float array by _repr_slots, anything else by _field."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return _repr_slots(column.astype(np.float64, copy=False))
    ints = isinstance(column, np.ndarray) and column.dtype.kind in "iu"
    fields = map(repr, column.tolist()) if ints else (_field(v).encode() for v in column)
    cells = np.array(list(fields), dtype=bytes)
    return cells.view(np.uint8).reshape(len(column), cells.itemsize).T


def _text(cells: np.ndarray) -> str:
    """The text of the columns of a uint8 array, one after another, NULs dropped."""
    return cells.T.tobytes().translate(None, b"\0").decode()


def _joined(values: np.ndarray, sizes: np.ndarray) -> list[str]:
    """Field i: the next sizes[i] floats of values, ';'-joined."""
    fields = []
    ends = np.cumsum(sizes)
    for i in range(0, len(sizes), _CSV_ROWS):
        k, end = sizes[i : i + _CSV_ROWS], ends[i : i + _CSV_ROWS]
        lo, hi = end[0] - k[0], end[-1]
        cells = np.concatenate([_repr_slots(values[lo:hi]),
                                np.full((1, hi - lo), ord(";"), np.uint8)])
        cells[-1, (end - lo - 1)[k > 0]] = 0
        # a "\n" after each field's last value, so one split gives the fields
        fields += _text(np.insert(cells, end - lo, _NEWLINE, axis=1)).split("\n")[:-1]
    return fields


def csv_text(header: str, *columns) -> str:
    """CSV text of equal-length columns under a header line, LF line ends.
    Each field: a float by repr, an int by str, None empty, a bool as
    true/false, a str as is; numpy values as the Python values they hold.
    A float array's fields come from the vectorized formatter _repr_slots,
    which gives repr's text for every float64."""
    if len(set(map(len, columns))) > 1:
        raise ValueError("columns differ in length")
    parts = [header + "\n"]
    for i in range(0, max(map(len, columns), default=0), _CSV_ROWS):
        cells = [_cells(c[i : i + _CSV_ROWS]) for c in columns]
        comma, newline = (np.full((1, cells[0].shape[1]), ord(s), np.uint8) for s in ",\n")
        seps = [comma] * (len(cells) - 1) + [newline]
        parts.append(_text(np.concatenate([a for pair in zip(cells, seps) for a in pair])))
    return "".join(parts)


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
        header, *rows = csv_text(self.CSV_HEADER, self.epochs, self.gaps, self.sizes).split("\n")
        offsets = _joined(self.offsets, self.sizes)
        return "\n".join([header, *map(",".join, zip(rows, offsets)), ""])

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
