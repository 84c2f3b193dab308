"""The CSV writer's vectorized %.17g against '%.17g' % itself, byte for byte.

experiments._format_g17 renders float64 arrays without Python's per-float
conversion; every CSV the program writes depends on it matching '%' on every
double, including those it hands back to '%' (zero, subnormals, inf, nan,
|x| outside [1e-260, 1e290] and 17-digit half-way cases).
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from fracdiff.experiments import _format_g17


def _mismatches(x):
    """(value, expected, got) of every cell that differs from '%.17g' %."""
    x = np.asarray(x, dtype=np.float64)
    got = _format_g17(x)
    want = np.array([("%.17g" % v).encode() for v in x.tolist()], dtype=f"S{got.shape[1]}")
    bad = np.flatnonzero((want.view(np.uint8).reshape(got.shape) != got).any(axis=1))
    return [(x[i], want[i], got[i].tobytes().rstrip(b"\0")) for i in bad[:5]]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
@example([0.0, -0.0, 5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308,
          1.7976931348623157e308, -math.inf, math.inf, math.nan, -math.nan])
def test_matches_percent_on_any_floats(values):
    assert _mismatches(values) == []


def test_matches_percent_at_every_power_of_ten_and_its_neighbours():
    powers = np.array([float(f"1e{q}") for q in range(-325, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert _mismatches(np.concatenate([near, -near])) == []


def test_matches_percent_on_random_bit_patterns():
    rng = np.random.default_rng(1990)
    for _ in range(4):  # 10^6 doubles, in pieces to keep memory small
        bits = rng.integers(0, 2 ** 64, 250_000, dtype=np.uint64, endpoint=False)
        assert _mismatches(bits.view(np.float64)) == []


def test_matches_percent_on_half_way_cases():
    # x = m 2^-j, m odd, has j decimals and the digits of m 5^j, the last a 5:
    # when m 5^j has 18 digits, x lies half-way between two 17-digit decimals
    # and '%' rounds it to even
    rng = np.random.default_rng(1971)
    ties = []
    for j in range(2, 40):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        if lo < hi:
            m = [int(v) | 1 for v in rng.integers(lo, hi, 400)]
            ties += [math.ldexp(v, -j) for v in m if len(str(v * 5 ** j)) == 18]
    ties = np.array(ties)
    assert len(ties) > 4000
    near = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    assert _mismatches(np.concatenate([near, -near])) == []


def test_no_double_but_a_power_of_ten_lies_within_1e_25_of_one():
    # The formatter picks k = floor(log10 |x|) by comparing |x| with hi + lo of
    # 10^(k0 + 1) exactly: when |x| == hi, the sign of lo decides.  That needs
    # lo to keep the sign of 10^q - hi, and the scaled value of x to sit
    # clear of 1e16 and 1e17 by more than its 5e-15 error, so a value at a
    # decade boundary has one set of 17 digits.  Both hold when every double
    # other than 10^q itself is at least 1e-25 relative away from 10^q, which
    # is checked here in integers for the double nearest 10^q and its two
    # neighbours.
    for q in range(-325, 309):
        exact_num, exact_den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        nearest = exact_num / exact_den
        for d in (np.nextafter(nearest, 0.0), nearest, np.nextafter(nearest, np.inf)):
            if not 0.0 < d < math.inf:
                continue
            a, b = float(d).as_integer_ratio()
            gap = abs(a * exact_den - b * exact_num)  # |d - 10^q| b exact_den
            assert gap == 0 or gap * 10 ** 25 >= b * exact_num, (q, d)
