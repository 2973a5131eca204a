import math
import operator
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tancert.errors import DomainError
from tancert.interval import (
    Interval,
    _mul_down,
    _mul_up,
    certainly_positive,
    half_pi_enclosure,
    horner,
    int_pow,
    pi_enclosure,
    rational_enclosure,
    split,
)

from conftest import contains, exact_div, exact_sub, interval_horner

# + and * of the float kernel; - and / as exact differences and quotients of
# the ends, each rounded outward once by rational_enclosure
_OPS = {"add": operator.add, "sub": exact_sub, "mul": operator.mul, "div": exact_div}


def test_mul_exact_integer_endpoints():
    assert Interval(1, 2) * Interval(-3, 4) == Interval(-6, 8)


def test_mul_tiny_products_correctly_rounded():
    # exact products below the Dekker range stay exact; underflow rounds to a signed zero
    exact = Interval.point(2.0**-600) * Interval.point(2.0**-400)
    assert exact == Interval.point(2.0**-1000)
    tiny = Interval.point(1e-200)
    assert (tiny * tiny).lo == 0.0 and (tiny * tiny).hi == 5e-324
    assert (tiny * -tiny).lo == -5e-324 and (tiny * -tiny).hi == 0.0


def test_mul_huge_operand_correctly_rounded():
    # operands above the Dekker range: exact products stay exact, inexact ones are one ulp wide
    exact = Interval.point(2.0**1000) * Interval.point(2.0**-10)
    assert exact == Interval.point(2.0**990)
    for a, b in [(1e300, 0.1), (-3e295, 7.0), (1e295, -1e-10)]:
        q = Interval.point(a) * Interval.point(b)
        assert Fraction(q.lo) < Fraction(a) * Fraction(b) < Fraction(q.hi)
        assert math.nextafter(q.lo, math.inf) == q.hi


def test_zero_times_unbounded_is_zero():
    # inf * 0 is NaN in floats; every real of an unbounded end times 0 is 0
    zero, inf = Interval(0.0, 0.0), math.inf
    assert zero * Interval(1.0, inf) == zero
    assert Interval(-inf, -1.0) * zero == zero
    assert zero * Interval(-inf, inf) == zero
    assert Interval(0.0, 2.0) * Interval(1.0, inf) == Interval(0.0, inf)


def test_nan_operand_of_a_directed_product_raises():
    # only inf * 0 is 0; a NaN operand has no value to bound
    nan, inf = math.nan, math.inf
    for mul in (_mul_down, _mul_up):
        for a, b in [(nan, 0.5), (0.5, nan), (nan, 0.0), (-inf, nan), (nan, nan)]:
            with pytest.raises(DomainError):
                mul(a, b)
        assert mul(inf, 0.0) == mul(0.0, -inf) == 0.0


def test_add_zero_is_identity():
    x = Interval(0.1237918231, 7.25)
    assert Interval(0, 0) + x == x
    assert x + Interval(0, 0) == x


def test_div_one_third_tight():
    q = rational_enclosure(1, 3)
    assert contains(q, Fraction(1, 3))
    assert q.width <= 2 * math.ulp(1.0 / 3.0)


_MAX = sys.float_info.max

# four divisors' worth of endpoints: both signs, zero, tiny, huge, subnormal
# and near overflow
_DIV_ENDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, -3e-320, 1e300, -1e300,
                     _MAX, -_MAX]),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e-300, 1e-300, allow_nan=False),
    st.floats(-2.0**-1022, 2.0**-1022, allow_nan=False),
    st.floats(1e306, _MAX),
    st.floats(-_MAX, -1e306),
)
_DIVISOR_MAGNITUDES = st.one_of(
    st.floats(1e-300, 1e300), st.floats(5e-324, 2.0**-1022), st.floats(1e306, _MAX)
)
_DIVISORS = st.one_of(
    st.tuples(_DIVISOR_MAGNITUDES, _DIVISOR_MAGNITUDES),
    st.tuples(_DIVISOR_MAGNITUDES, _DIVISOR_MAGNITUDES).map(lambda t: (-t[0], -t[1])),
).map(lambda t: Interval(min(t), max(t)))


_WIDE_INTERVALS = st.tuples(_DIV_ENDS, _DIV_ENDS).map(lambda t: Interval(min(t), max(t)))


def _horner_outcome(horner_fn, coeffs, u):
    try:
        return horner_fn(coeffs, u).to_hex()
    except DomainError:
        return "DomainError"


@settings(max_examples=400, derandomize=True)
@given(st.lists(_WIDE_INTERVALS, max_size=8), _WIDE_INTERVALS)
@example([Interval(-math.inf, -math.inf), Interval(-math.inf, math.inf)], Interval(1.0, 1.0))
@example([Interval(-0.0, 0.0), Interval(-0.0, -0.0)], Interval(-1.0, -0.0))
def test_horner_matches_interval_steps(coeffs, u):
    # the float-endpoint Horner rounds, and fails, exactly as one Interval per step
    assert _horner_outcome(horner, coeffs, u) == _horner_outcome(interval_horner, coeffs, u)


def _fraction_div(x, y, down):
    """Reference directed quotient of finite floats by exact rationals."""
    q = x / y
    if math.isinf(q):
        return q if (q > 0.0) != down else math.nextafter(q, 0.0)
    exact = Fraction(x) / Fraction(y)
    if Fraction(q) != exact and (Fraction(q) > exact) == down:
        return math.nextafter(q, -math.inf if down else math.inf)
    return q


def _four_candidate_div(a, b):
    """Reference quotient: the min and max over all four endpoint quotients."""
    if b.lo <= 0.0 <= b.hi:
        raise DomainError("division by an interval containing 0")
    pairs = [(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(min(_fraction_div(x, y, True) for x, y in pairs),
                    max(_fraction_div(x, y, False) for x, y in pairs))


@settings(max_examples=600, derandomize=True)
@given(st.tuples(_DIV_ENDS, _DIV_ENDS).map(lambda t: Interval(min(t), max(t))), _DIVISORS)
@example(Interval(0.0, 0.0), Interval(2.0, 3.0))
@example(Interval(0.0, 0.0), Interval(-3.0, -2.0))
@example(Interval(0.0, 1.0), Interval(-3.0, -2.0))
@example(Interval(-1.0, 0.0), Interval(2.0, 3.0))
@example(Interval(-1.0, 0.0), Interval(-3.0, -2.0))
@example(Interval(-1.0, 2.0), Interval(-3.0, -2.0))
@example(Interval(-1.0, 2.0), Interval(2.0, 3.0))
@example(Interval(1.0, 2.0), Interval(3.0, 3.0))
@example(Interval(5e-324, 1e-310), Interval(3.0, 7.0))
@example(Interval(-_MAX, _MAX), Interval(0.5, 0.75))
@example(Interval(1e-310, _MAX), Interval(-5e-324, -5e-324))
def test_div_matches_four_candidate_reference(a, b):
    # every sign case of the dividend against a positive and a negative
    # divisor: the exact quotients rounded once by rational_enclosure, past
    # the largest float to infinity, are each float quotient stepped outward
    # where a rational comparison says it must be
    assert exact_div(a, b) == _four_candidate_div(a, b)


def test_int_pow_examples():
    assert int_pow(Interval(-2, 1), 2) == Interval(0, 4)
    assert int_pow(Interval(2, 3), 0) == Interval(1, 1)
    nine = int_pow(Interval(1.5, 1.6), 9)
    assert contains(nine, Fraction(3, 2) ** 9)
    lo_exact = Fraction(1.5) ** 9
    hi_exact = Fraction(1.6) ** 9
    assert Fraction(nine.lo) <= lo_exact and hi_exact <= Fraction(nine.hi)
    # tight: one rounding chain only
    assert nine.width <= float(hi_exact - lo_exact) * (1 + 1e-12) + 8 * math.ulp(nine.hi)


def test_int_pow_odd_negative_base():
    cube = int_pow(Interval(-2, -1), 3)
    assert contains(cube, -8) and contains(cube, -1)
    assert cube.lo <= -8 and cube.hi >= -1


def test_pi_enclosures_against_independent_constant():
    with mp.workdps(50):
        pi = mp.pi
        assert contains(pi_enclosure(), pi)
        assert contains(half_pi_enclosure(), pi / 2)
        # strict straddle
        assert mp.mpf(half_pi_enclosure().lo) < pi / 2 < mp.mpf(half_pi_enclosure().hi)
    assert pi_enclosure().width <= 4 * math.ulp(3.14)
    assert half_pi_enclosure().width <= 4 * math.ulp(1.57)
    assert 1.5707963 <= half_pi_enclosure().lo and half_pi_enclosure().hi <= 1.5707964


def test_certainly_positive_boundary():
    assert not certainly_positive(Interval(0.0, 1.0))
    assert certainly_positive(Interval(1e-30, 2.0))


def test_split_midpoint():
    a, b = split(Interval(0, 2))
    assert a == Interval(0, 1) and b == Interval(1, 2)


@given(
    st.floats(-1e15, 1e15, allow_nan=False),
    st.floats(0, 1e15, allow_nan=False),
)
def test_split_halves(lo, w):
    x = Interval(lo, lo + w)
    a, b = split(x)
    assert a.lo == x.lo and b.hi == x.hi and a.hi == b.lo
    half = x.width / 2
    tol = math.ulp(max(abs(x.lo), abs(x.hi), half))
    assert a.width <= half + tol
    assert b.width <= half + tol


def test_rational_enclosure_tightest():
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**9))
        iv = rational_enclosure(q)
        assert contains(iv, q)
        if Fraction(iv.lo) != q:
            # one outward step only
            assert math.nextafter(iv.lo, math.inf) == iv.hi


def _fraction_enclosure(q: Fraction):
    """Reference: round to nearest, then one outward step decided by Fractions."""
    f = float(q)
    if Fraction(f) == q:
        return f, f
    if Fraction(f) < q:
        return f, math.nextafter(f, math.inf)
    return math.nextafter(f, -math.inf), f


_BIG = st.integers(-(10**400), 10**400)
_RATIONALS = st.one_of(
    # huge numerators and denominators whose ratio is in range
    st.tuples(_BIG, st.integers(1, 10**400)).map(lambda t: Fraction(*t)),
    st.tuples(st.integers(-(10**30), 10**30), st.integers(1, 10**30)).map(lambda t: Fraction(*t)),
    # exactly representable values, negatives and zero included
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
    # the subnormal range and the bottom of the normal range
    st.tuples(st.integers(-(2**60), 2**60), st.integers(1000, 1140)).map(
        lambda t: Fraction(t[0], 2 ** t[1])
    ),
    st.tuples(st.integers(-(10**20), 10**20), st.integers(300, 345)).map(
        lambda t: Fraction(t[0], 3 * 10 ** t[1])
    ),
)


@settings(max_examples=500, derandomize=True)
# below 2^1024 - 2^970, the midpoint past the largest float, q rounds to a finite float
@given(_RATIONALS.filter(lambda q: abs(q) < 2**1024 - 2**970))
@example(Fraction(1, 10**400))
@example(Fraction(-1, 10**400))
@example(Fraction(1, 2**1075))
@example(Fraction(3, 2**1076))
@example(Fraction(2**1024 - 2**970 - 1))
@example(Fraction(-(2**1024 - 2**971) - 1))
@example(Fraction(0))
def test_rational_enclosure_matches_fraction_reference(q):
    iv = rational_enclosure(q)
    assert (iv.lo.hex(), iv.hi.hex()) == tuple(x.hex() for x in _fraction_enclosure(q))


@pytest.mark.parametrize("q", [Fraction(2**1024 - 2**970), Fraction(10**400, 3), Fraction(2**1100 + 1, 3)])
def test_rational_enclosure_beyond_the_largest_float_reaches_infinity(q):
    # past the midpoint above the largest float q rounds to infinity, so its
    # tightest enclosure runs from the largest float to it
    assert rational_enclosure(q) == Interval(_MAX, math.inf)
    assert rational_enclosure(-q) == Interval(-math.inf, -_MAX)
    assert rational_enclosure(q.numerator, q.denominator) == Interval(_MAX, math.inf)


def test_serialization_bit_exact():
    x = Interval(-1.2345678912345678e-7, 9.87654321e300)
    assert Interval.from_hex(*x.to_hex()) == x


def test_invalid_intervals_rejected():
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(float("nan"), 1.0)


def _random_interval(rng, allow_zero=True):
    a = rng.uniform(-10, 10)
    b = rng.uniform(-10, 10)
    lo, hi = min(a, b), max(a, b)
    if not allow_zero and lo <= 0.0 <= hi:
        shift = 0.5 + abs(lo)
        lo, hi = lo + shift, hi + shift
    return Interval(lo, hi)


def _exact_op(op, a, b):
    fa, fb = Fraction(a), Fraction(b)
    if op == "add":
        return fa + fb
    if op == "sub":
        return fa - fb
    if op == "mul":
        return fa * fb
    return fa / fb


def test_randomized_containment_quick():
    # the full 10^6-sample run lives in the acceptance suite
    rng = random.Random(1234)
    for _ in range(2000):
        op = rng.choice(list(_OPS))
        a = _random_interval(rng)
        b = _random_interval(rng, allow_zero=(op != "div"))
        result = _OPS[op](a, b)
        for _ in range(5):
            pa = min(max(rng.uniform(a.lo, a.hi), a.lo), a.hi)
            pb = min(max(rng.uniform(b.lo, b.hi), b.lo), b.hi)
            assert contains(result, _exact_op(op, pa, pb))


_iv = st.tuples(
    st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e6, 1e6, allow_nan=False)
).map(lambda t: Interval(min(t), max(t)))


@settings(max_examples=200)
@given(_iv, _iv, st.floats(0, 1), st.floats(0, 1), st.sampled_from(["add", "sub", "mul"]))
# products that underflow: a negative one (rounded up) and a positive one (rounded down)
@example(Interval(0.0, 1.936e-278), Interval(-1.0, -9.099e-215), 1.0, 0.0, "mul")
@example(Interval(0.0, 1e-200), Interval(0.0, 1e-200), 1.0, 1.0, "mul")
def test_monotone_inclusion(a, b, sa, sb, op):
    # shrink a and b; results must shrink too
    a_small = Interval(a.lo + sa * (a.mid - a.lo), a.hi - sa * (a.hi - a.mid))
    b_small = Interval(b.lo + sb * (b.mid - b.lo), b.hi - sb * (b.hi - b.mid))
    small, big = _OPS[op](a_small, b_small), _OPS[op](a, b)
    assert big.lo <= small.lo and small.hi <= big.hi


@settings(max_examples=200)
@given(_iv, st.integers(0, 9))
def test_int_pow_containment(a, k):
    result = int_pow(a, k)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = a.lo + t * (a.hi - a.lo)
        x = min(max(x, a.lo), a.hi)
        assert contains(result, Fraction(x) ** k)
