"""Point-pattern containers and the measure-level operators built on them.

A pattern is a finite sorted multiset of times restricted to a half-open
window (lo, hi].  All interval conventions are half-open on the left, and
membership tests use exact floating comparison: with a fixed seed and a
fixed summation order counts are reproducible, whereas epsilon rules make
them order dependent.  A marked pattern holds the marks (xi_i, X_i) at
epochs T_i as the block engine's flat arrays, with no object per arrival.

``csv_text`` writes every table and ``MarkedPattern.to_csv`` a marked path,
4,096 rows at a time.  Each field is a row-major slot of little-endian
uint64 words, NUL where unused.  A float array's slots hold Schubfach's
shortest round-trip digits, from one 128-bit product per value shared by
the value and both ends of its rounding interval, in uint64 numpy
arithmetic; an int array's hold its digits.  Both take digits four at a
time from one table.  Fields and separators are placed by index and one
pass drops the NULs: repr(float(v)) for every float64, str(v) for every
int, with no Python str per value.
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
# chunk peak at about 1.1 MB.
_CSV_ROWS = 4096

# Shortest round-trip digits (Schubfach: R. Giulietti, "The Schubfach way to
# render doubles", 2020), the digits repr(float) prints, for a whole column
# in uint64 arithmetic.  _G holds, for k = -324..292, g = floor(10^-k
# 2^(125 - flog2pow10(-k))) + 1 as its 63-bit halves g1 2^63 + g0.
_K_MIN = -324
_M32, _M63 = (1 << 32) - 1, (1 << 63) - 1
# uint64 operands as numpy values: an operation with a Python int pays to
# convert it on every call
_C52M, _C7FF, _C52, _CM32, _C32, _C1, _C64, _C10, _C1E3, _C1E4, _C1E11 = (
    np.array(c, np.uint64) for c in ((1 << 52) - 1, 0x7FF, 52, _M32, 32, 1, 64, 10, 1000, 10**4,
                                     10**11))


def _flog2pow10(e):
    """floor(e log2 10) for |e| <= 1000, on ints or int64 arrays."""
    return (e * 913_124_641_741) >> 38


def _g(k: int) -> int:
    s = 125 - _flog2pow10(-k)
    num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
    return (num << max(s, 0)) // (den << max(-s, 0)) + 1


_G = np.array([(g >> 63, g & _M63) for g in map(_g, range(_K_MIN, 293))], np.uint64).T.copy()
# By biased exponent, and at 2048 + the biased exponent for a power of two
# (whose lower neighbour is nearer): k, h and g as 64-bit words g1 2^64 + g0.
_Q = np.tile(np.maximum(np.arange(2048), 1) - 1075, 2)
_KT = (_Q * 661_971_961_083 - (np.arange(4096) >= 2050) * 274_743_187_321) >> 41
_HT = (_Q + _flog2pow10(-_KT) + 2).astype(np.uint64)
_G1 = (_G[0] >> 1)[_KT - _K_MIN]
_G0 = (_G[1] | _G[0] << 63)[_KT - _K_MIN]


def _shortest(bits):
    """(f, k) with f 10^k the shortest decimal that rounds to each double
    (the one nearest it, even f on a tie), for finite bit patterns.

    Schubfach rounds three products, g cb for the double and g (cb -+ 2)
    for the ends of its rounding interval (cb = 4c), each cut down to a
    whole multiple of L = 2^(63 - h).  Here one product g u, u = 2c, split
    at K = 2^(128 - h) into s = floor(g u / K) and a remainder rho, gives
    all three: how far each end reaches from s, in whole K, is a quotient
    of g plus or minus rho, exact in two words.
    """
    t, bq = bits & _C52M, bits >> _C52
    bq &= _C7FF
    c = np.minimum(bq, _C1)
    c <<= _C52
    c |= t
    irregular = t == 0
    irregular &= bq > _C1
    i = (bq + irregular * np.uint64(2048)).view(np.intp)
    k, h, g1, g0 = np.take(_KT, i), np.take(_HT, i), np.take(_G1, i), np.take(_G0, i)
    g1h, g1l, g0h, g0l = g1 >> _C32, g1 & _CM32, g0 >> _C32, g0 & _CM32
    u = c << _C1
    uh, ul = u >> _C32, u & _CM32
    x = g0l * ul
    x >>= _C32
    x += g0h * ul
    hi0 = x & _CM32
    hi0 += g0l * uh
    hi0 >>= _C32
    x >>= _C32
    hi0 += x
    hi0 += g0h * uh  # g0 u = hi0 2^64 + r0
    r0 = g0 * u
    w1 = g1 * u
    w1 += hi0  # g u = w2 2^128 + w1 2^64 + r0
    x = g1l * ul
    x >>= _C32
    x += g1h * ul
    x += g1l * uh
    x >>= _C32
    x += g1h * uh
    x += w1 < hi0
    cut = _C64 - h
    s = x << h
    s |= w1 >> cut
    r1 = w1 << h
    r1 >>= h  # rho = r1 2^64 + r0
    # the upper end reaches s + above and the lower end s - below; an odd
    # c leaves out its ends, a power of two has a lower end half as far
    half = cut - _C1
    ell = np.left_shift(1, half, dtype=np.uint64)
    odd = c & _C1
    e = ell * odd
    t = g0 + r0
    above = g1 + r1
    above += t < r0
    above -= t < e
    above >>= cut  # floor((g - odd L + rho) / K)
    e = ell - e
    t = g0 + e
    below = g1 + (t < e)
    below -= r1
    below -= t <= r0
    below = below.view(np.int64)
    below >>= cut.view(np.int64)  # floor((g + (1 - odd) L - 1 - rho) / K)
    i = np.flatnonzero(irregular)
    if i.size:  # floor((g + 2L - 1 - 2 rho) / 2K)
        r0i = r0[i]
        e = ell[i] << 1
        t = g0[i] + e
        b = g1[i] + (t < e) - (r1[i] << 1 | r0i >> 63) - (t <= r0i << 1)
        below[i] = b.view(np.int64) >> (cut[i] + 1).view(np.int64)
    sp = s // _C10
    sp *= _C10
    j = s - sp
    uin, upin = below >= 0, below >= j.view(np.int64)
    win, wpin = above >= _C1, above >= _C10 - j
    e = ell & (s & _C1) - _C1  # vb > mid, or = and s odd: rho - (1 - s & 1) L >= K/2
    up = r1 - (r0 < e)
    up = up.view(np.int64) >> half.view(np.int64) >= 1
    f = s + np.where(uin != win, win, up)
    short = upin != wpin
    short &= s >= 10
    sp += wpin * np.uint64(10)
    return np.where(short, sp, f), k


def _table(fields, width: int = 24) -> np.ndarray:
    """Byte strings, NUL padded to ``width``, as rows of uint64 words."""
    text = b"".join(b.ljust(width, b"\0") for b in fields)
    return np.frombuffer(text, np.uint64).reshape(len(fields), width // 8)


# A number's text is four little-endian uint64 words, its 32-byte slot: word
# 0 the sign and a leading "0.", words 1-3 up to 19 digits, bytes 2-6 of
# word 3 an exponent and its byte 7 the separator.  Unused bytes are NUL,
# which the CSV text drops.  Digits come four at a time from _DIGITS4: the
# group's ASCII text in bytes 0-3 and, in bytes 4-7, 64 plus the count of its
# digits up to the last nonzero one (0 for none).  _KEEP[:, e] keeps e bytes.
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_I = np.arange(10000, dtype=np.uint64)
_DIGITS4 = (_I // 1000 | _I // 100 % 10 << 8 | _I // 10 % 10 << 16 | _I % 10 << 24 | 0x30303030
            | ((68 - (_I % 10 == 0) - (_I % 100 == 0) - (_I % 1000 == 0)) * (_I > 0)).astype(
                np.uint64) << 32)
_OFFSETS = np.array([[0], [8], [4], [12], [16]], np.uint64) << 32
_KEEP = _table([b"\xff" * e for e in range(20)]).T.copy()
# By decimal exponent d + 324 (the value is 0.digits x 10^d; row 0 is zero,
# as 0.0): the power of ten that cuts off the digits before the point (1
# for no point), the digits kept at least (plus 64), 2 at the point's byte,
# the lead and the exponent.  repr's rule: fixed notation for
# 1e-4 <= |v| < 1e16, else exponent notation.
_D = np.arange(-324, 312)
_D[0] = 1
_FIXED, _WHOLE = (_D > -4) & (_D < 17), (_D > 0) & (_D < 17)
_P = np.where(_WHOLE, _D, np.where(_FIXED, 18, 1))  # digits before the point
_DCUT = _POW10[18 - _P]
_DKEEP = np.where(_WHOLE, _D + 66, 64).astype(np.uint64)
_DPOINT = np.zeros((3, len(_D)), np.uint64)
_DPOINT[_P // 8 % 3, np.arange(len(_D))] = np.where(_P < 18, 2 << 8 * (_P % 8), 0)
_E = _DIGITS4[np.abs(_D - 1)]  # 0ddd, or 00dd below 100
_DLEAD = _table([b"", b"\0" + b"0.", b"\0" + b"0.0", b"\0" + b"0.00", b"\0" + b"0.000"], 8)[
    np.where(_FIXED & ~_WHOLE, 1 - _D, 0), 0]
_DEXP = (np.where(np.abs(_D - 1) < 100, _E >> 16 & 0xFFFF, _E >> 8 & 0xFFFFFF) << 32
         | np.where(_D > 0, ord("+"), ord("-")).astype(np.uint64) << 24 | ord("e") << 16) * ~_FIXED
_LAST_BYTE, _COMMA, _SEMICOLON, _NEWLINE = (np.uint64(ord(c) << 56) for c in "\xff,;\n")
_SEPARATORS = {",": _COMMA, "\n": _NEWLINE}
_END_ROW = np.array([[0, 0, 0, _NEWLINE]], np.uint64)


def _digits(v):
    """Slots (4, n) with the 19 digits of each v < 10^19 in words 1-3,
    first digit lowest, and 64 plus the number of digits to the last
    nonzero one (below 64 for v = 0)."""
    g = np.empty((5, len(v)), np.uint64)  # digits 1-4, 9-12, 5-8, 13-16, 17-19
    np.floor_divide(v, _C1E11, out=g[2])
    lo = v - g[2] * _C1E11
    np.floor_divide(lo, _C1E3, out=g[3])
    np.multiply(lo - g[3] * _C1E3, _C10, out=g[4])
    np.floor_divide(g[2:4], _C1E4, out=g[:2])
    g[2:4] -= g[:2] * _C1E4
    g = np.take(_DIGITS4, g.view(np.intp))
    slots = np.empty((4, len(v)), np.uint64)
    np.bitwise_and(g[:2], _CM32, out=slots[1:3])
    slots[1:3] |= g[2:4] << _C32
    np.bitwise_and(g[4], _CM32, out=slots[3])
    g += _OFFSETS
    return slots, g.max(axis=0) >> _C32


def _finish(slots, keep, sign, sep, lead=0, exp=0):
    """(n, 4) slots from _digits: ``keep`` digit bytes, then the exponent
    and the separator in word 3, the sign and the lead in word 0."""
    words = slots[1:]
    words &= np.take(_KEEP, keep.view(np.intp), axis=1)
    words[2] |= exp | sep
    np.bitwise_or(lead, sign * ord("-"), out=slots[0])
    return slots.T


def _int_slots(x, sep):
    """The (n, 4) slots of str(v) for each v of an int64 array."""
    v = x.astype(np.int64, copy=False).view(np.uint64)
    neg = v >> 63
    v = (v ^ (0 - neg)) + neg  # |v|, 2^63 included
    ndig = np.maximum(np.searchsorted(_POW10, v, side="right"), 1)
    return _finish(_digits(v * np.take(_POW10, 19 - ndig))[0], ndig, neg, sep)


def _float_slots(x, sep):
    """The (n, 4) slots of repr(float(v)) for each v of a float64 array."""
    bits = x.view(np.uint64)
    f, k = _shortest(bits)
    # f has 16 or 17 digits but for zero and subnormals
    ndig = (f >= 10**16) + 16
    small = np.flatnonzero(f < 10**15)
    ndig[small] = np.searchsorted(_POW10, f[small], side="right")
    d = ndig + k + 324
    # 18 digits with a '0' put in after those before the point
    v = f * np.take(_POW10, 18 - ndig)
    v = v * 10 - v % np.take(_DCUT, d, mode="clip") * 9
    slots, nsig = _digits(v)
    slots[1:] -= np.take(_DPOINT, d, axis=1, mode="clip")  # the '0' becomes '.'
    slots = _finish(slots, np.maximum(nsig, np.take(_DKEEP, d, mode="clip")) - 64, bits >> 63,
                    sep, np.take(_DLEAD, d, mode="clip"), np.take(_DEXP, d, mode="clip"))
    for i in np.flatnonzero(~np.isfinite(x)):  # inf, -inf and nan
        slots[i, :3] = 0
        slots[i, 0] = _table([repr(float(x[i])).encode()], 8)[0, 0]
        slots[i, 3] &= _LAST_BYTE
    return slots


def _field(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    return "" if v is None else repr(v)


def _slots(column, sep: str) -> np.ndarray:
    """The fields of one column, each followed by ``sep``, as rows of uint64
    words, NUL padded: a float or int array by _float_slots or _int_slots,
    less the sign and lead word when no row has one, anything else by
    _field."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        if column.dtype.kind == "f":
            slots = _float_slots(column.astype(np.float64, copy=False), _SEPARATORS[sep])
        elif np.can_cast(column.dtype, np.int64):
            slots = _int_slots(column, _SEPARATORS[sep])
        else:  # uint64, whose values need not fit int64
            return _slots(column.tolist(), sep)
        return slots if slots[:, 0].any() else slots[:, 1:]
    fields = [(_field(v) + sep).encode() for v in column]
    width = max(map(len, fields), default=0) + 7 & ~7
    return np.array(fields, dtype=f"S{width}").view(np.uint64).reshape(len(fields), width // 8)


def _text(slots: np.ndarray) -> str:
    """The text of an array of slots, row after row, NULs dropped."""
    return slots.tobytes().translate(None, b"\0").decode()


def csv_text(header: str, *columns) -> str:
    """CSV text of equal-length columns under a header line, LF line ends.
    Each field: a float by repr, an int by str, None empty, a bool as
    true/false, a str as is; numpy values as the Python values they hold.
    A float array's fields come from the vectorized formatter _float_slots,
    which gives repr's text for every float64."""
    if len(set(map(len, columns))) > 1:
        raise ValueError("columns differ in length")
    parts = [header + "\n"]
    seps = [","] * (len(columns) - 1) + ["\n"]
    for i in range(0, max(map(len, columns), default=0), _CSV_ROWS):
        rows = slice(i, i + _CSV_ROWS)
        slots = [_slots(c[rows], s) for c, s in zip(columns, seps)]
        parts.append(_text(slots[0] if len(slots) == 1 else np.concatenate(slots, axis=1)))
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
        parts = [self.CSV_HEADER + "\n"]
        ends = np.cumsum(self.sizes)
        for i in range(0, len(self), _CSV_ROWS):
            rows = slice(i, i + _CSV_ROWS)
            k, end = self.sizes[rows], ends[rows]
            n, lo, hi = len(k), end[0] - k[0], end[-1]
            sep = np.full(hi - lo, _SEMICOLON)
            sep[end[k > 0] - lo - 1] = _NEWLINE
            slots = np.concatenate([
                _float_slots(self.epochs[rows], _COMMA), _float_slots(self.gaps[rows], _COMMA),
                _int_slots(k, _COMMA), _float_slots(self.offsets[lo:hi], sep), _END_ROW])
            # a row's slots, by index: epoch, gap, size, then its offsets or
            # the empty field that ends a row
            width = np.maximum(k, 1) + 3
            first = np.cumsum(width) - width
            order = np.full(first[-1] + width[-1], len(slots) - 1)
            order[first[:, None] + [0, 1, 2]] = np.arange(n)[:, None] + [0, n, 2 * n]
            order[np.repeat(first + 3 - (end - k - lo), k) + np.arange(hi - lo)] = np.arange(
                3 * n, 3 * n + hi - lo)
            parts.append(_text(np.take(slots, order, axis=0)))
        return "".join(parts)

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
