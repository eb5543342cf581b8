"""csv_text writes a float array's values as repr writes them, byte for byte.

The float path of ``patterns.csv_text`` formats a whole column at once
(Schubfach shortest digits in uint64 arithmetic, then repr's layout); every
check here compares its text with ``repr(float(v))``, and an int array's
text with ``str(v)``.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalcluster.patterns import (
    _DIGITS4,
    _G,
    _G0,
    _G1,
    _HT,
    _K_MIN,
    _KT,
    MarkedPattern,
    csv_text,
)


def assert_repr(x):
    x = np.asarray(x, dtype=np.float64)
    assert csv_text("x", x) == "x\n" + "".join(repr(v) + "\n" for v in x.tolist())


def floats(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def test_explicit_values():
    assert_repr([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-323,
                 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                 1e15, 9.999999999999999e15, 1e16, 1e-4, 1e-5,
                 float(2**53), float(2**53 + 2), 0.1, 0.3, 2 / 3, 123.0, 1e22, 1e23])


def test_powers_of_two_and_ten_and_their_predecessors():
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{e}") for e in range(-323, 309)]])
    below = np.nextafter(powers, 0.0)
    assert_repr(np.concatenate([powers, below, -powers, -below]))


def test_random_bit_patterns_in_both_signs():
    bits = np.random.default_rng(20260101).integers(0, 2**63, 100_000, dtype=np.uint64)
    assert_repr(np.concatenate([floats(bits), floats(bits | np.uint64(2**63))]))


@settings(deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_any_bit_pattern(bits):
    assert_repr(floats([bits]))


def test_chunk_seams():
    rng = np.random.default_rng(7)
    for n in (4095, 4096, 4097, 8193):
        x = rng.uniform(-1e6, 1e6, n) * 10.0 ** rng.integers(-8, 20, n)
        assert_repr(x)
        k = rng.integers(0, 4, n)
        assert csv_text("x,k,s", x, k, ["a"] * n) == "x,k,s\n" + "".join(
            f"{v!r},{i},a\n" for v, i in zip(x.tolist(), k.tolist()))


def test_marked_offsets_across_chunks():
    # empty clusters at a chunk's first and last arrival, one long cluster
    rng = np.random.default_rng(8)
    sizes = rng.integers(0, 4, 8193)
    sizes[[0, 4095, 4096, 8192]] = 0
    sizes[5000] = 3000
    gaps = rng.uniform(0.0, 2.0, sizes.size)
    offsets = rng.normal(0.0, 3.0, int(sizes.sum()))
    m = MarkedPattern(np.cumsum(gaps), gaps, sizes, offsets, (0.0, float(gaps.sum()) + 1.0))
    ends = np.cumsum(sizes).tolist()
    want = [MarkedPattern.CSV_HEADER] + [
        f"{e!r},{x!r},{k},{';'.join(map(repr, offsets[end - k : end].tolist()))}"
        for e, x, k, end in zip(m.epochs.tolist(), m.gaps.tolist(), sizes.tolist(), ends)]
    assert m.to_csv() == "\n".join(want) + "\n"


def test_powers_of_ten_table_matches_its_definition():
    # g = floor(10^-k 2^(125 - r)) + 1 with r = floor(log2 10^-k), as g1 2^63 + g0
    for k in range(_K_MIN, 293):
        p = Fraction(10) ** -k
        r = p.numerator.bit_length() - p.denominator.bit_length()
        r -= Fraction(2) ** r > p
        g = math.floor(p * Fraction(2) ** (125 - r)) + 1
        assert 2**125 < g < 2**126
        assert (int(_G[0, k - _K_MIN]) << 63) + int(_G[1, k - _K_MIN]) == g, k


def floor_log(x: Fraction, base: int) -> int:
    """The largest e with base^e <= x, for x > 0."""
    e = math.floor(math.log(x.numerator, base) - math.log(x.denominator, base))
    while Fraction(base) ** e > x:
        e -= 1
    while Fraction(base) ** (e + 1) <= x:
        e += 1
    return e


def test_tables_by_exponent_match_their_definition():
    # row b (b + 2048 for a power of two, whose lower neighbour is nearer)
    # of a double with biased exponent b: k = floor(log10 of 2^q, or of
    # 3/4 2^q), h = q + floor(log2 10^-k) + 2 and g for k, as g1 2^64 + g0
    for row in range(4096):
        b, power = row % 2048, row >= 2048 + 2
        q = max(b, 1) - 1075
        k = floor_log(Fraction(3, 4) ** power * Fraction(2) ** q, 10)
        r = floor_log(Fraction(10) ** -k, 2)
        g = (int(_G[0, k - _K_MIN]) << 63) + int(_G[1, k - _K_MIN])
        assert (int(_KT[row]), int(_HT[row])) == (k, q + r + 2), row
        assert (int(_G1[row]) << 64) + int(_G0[row]) == g, row


def test_digit_groups_table():
    # bytes 0-3 the group's digits, bytes 4-7 64 plus its digits up to the
    # last nonzero one, 0 for 0000
    for i in range(10000):
        text = f"{i:04d}"
        assert int(_DIGITS4[i]) == int.from_bytes(text.encode(), "little") + (
            (64 + len(text.rstrip("0"))) * (i > 0) << 32), i


def test_int64_columns_as_str():
    edges = [0, -1, 1, 2**31, -(2**31), 2**63 - 1, -(2**63), 10**18, 10**18 - 1, -(10**18)]
    k = np.concatenate([edges, np.random.default_rng(5).integers(-(2**63), 2**63 - 1, 10_000,
                                                                 endpoint=True)])
    assert csv_text("k", k.astype(np.int64)) == "k\n" + "".join(f"{v}\n" for v in k.tolist())
    small = np.array([-128, 0, 127], dtype=np.int8)
    assert csv_text("k", small) == "k\n-128\n0\n127\n"


@settings(deadline=None)
@given(st.lists(st.integers(0, 5), max_size=30), st.data())
def test_marked_csv_any_sizes_and_offsets(sizes, data):
    # offsets from any finite bit pattern, empty clusters included
    n, total = len(sizes), sum(sizes)
    any_bits = st.integers(0, 2**64 - 1)
    offsets = floats(data.draw(st.lists(any_bits, min_size=total, max_size=total)))
    offsets[~np.isfinite(offsets)] = 0.0
    gaps = np.abs(floats(data.draw(st.lists(any_bits, min_size=n, max_size=n))))
    gaps[~(gaps < 1e300)] = 1.0
    epochs = np.cumsum(gaps)
    m = MarkedPattern(epochs, gaps, sizes, offsets, (-1.0, float(epochs[-1]) if n else 0.0))
    ends = np.cumsum(sizes, dtype=int).tolist()
    want = [MarkedPattern.CSV_HEADER] + [
        f"{e!r},{x!r},{k},{';'.join(map(repr, offsets[end - k : end].tolist()))}"
        for e, x, k, end in zip(epochs.tolist(), gaps.tolist(), sizes, ends)]
    assert m.to_csv() == "\n".join(want) + "\n"
