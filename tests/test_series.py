import math
import random
import sys
from fractions import Fraction
from math import lcm

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancert import series
from tancert.errors import DomainError, OrderMismatch
from tancert.certifier import CATALOG, MAX_EPSILON, form_series, series_of
from tancert.interval import (
    _HALF_PI_HI,
    Interval,
    _mul_up,
    _pow_up,
    horner,
    rational_enclosure,
)
from tancert.series import PiPoly, ps_poly

from conftest import contains, count_calls, exact_eval, mp_p, mp_sinc, pi_bracket


def test_pipoly_arithmetic_exact():
    a = PiPoly({2: 1, 0: -8})  # pi^2 - 8
    b = PiPoly({2: -1, 0: 8})
    assert not (a + b).terms
    prod = PiPoly({1: 1}) * PiPoly({-1: Fraction(1, 2)})
    assert prod == PiPoly.rational(Fraction(1, 2))
    assert PiPoly.rational(Fraction(2, 5)).terms == {0: Fraction(2, 5)}
    assert set(a.terms) == {0, 2}


def test_pipoly_enclosures(oracle):
    assert contains(PiPoly({2: 1, 0: -8}).enclosure(), mp.pi**2 - 8)
    assert contains(PiPoly({-4: 16}).enclosure(), 16 / mp.pi**4)
    assert PiPoly().enclosure() == Interval.point(0.0)


@pytest.mark.parametrize(
    "leaf,fn", [("cos", mp.cos), ("sin", mp.sin), ("sinc", mp_sinc), ("p", mp_p)],
    ids=["cos", "sin", "sinc", "p"],
)
def test_primitive_series_contain_oracle(leaf, fn, oracle):
    ps = series_of(leaf, "zero", 24, 1.5707963267948968)
    rng = random.Random(11)
    for _ in range(60):
        x = rng.uniform(0.0, 1.5707963)
        assert contains(ps.eval(Interval.point(x)), fn(mp.mpf(x)))
    # low degrees at radii below 1, where the tail coefficient exceeds the
    # tail's value at the radius
    for degree in (4, 8):
        for r in (0.5, 0.125):
            ps = series_of(leaf, "zero", degree, r)
            for x in (-r, r):
                assert contains(ps.eval(Interval.point(x)), fn(mp.mpf(x))), (degree, x)


def test_series_products_contain_oracle(oracle):
    r = 1.2
    prod = series_of("sinc*cos", "zero", 24, r)
    for x in (0.0, 0.3, 0.9, 1.2):
        assert contains(prod.eval(Interval.point(x)), mp_sinc(mp.mpf(x)) * mp.cos(mp.mpf(x)))


def test_monomial_shift_and_poly(oracle):
    r = 1.0
    # x * sinc = sin
    shifted = series_of("x*sinc", "zero", 20, r)
    for x in (0.1, 0.7, 1.0):
        assert contains(shifted.eval(Interval.point(x)), mp.sin(mp.mpf(x)))
    poly = ps_poly({0: PiPoly({2: 1}), 2: -4}, 20, r)  # pi^2 - 4x^2
    assert contains(poly.eval(Interval.point(0.5)), mp.pi**2 - 1)
    # a power past the degree, or below 0 (which would index the list from
    # its end), has no coefficient
    for k in (21, -1):
        with pytest.raises(DomainError):
            ps_poly({k: 1}, 20, r)


def test_divide_power_shifts_exactly(oracle):
    r = 1.0
    sin = series_of("sin", "zero", 20, r)
    sinc_again = sin.divide_power(1)
    for x in (0.2, 0.9):
        assert contains(sinc_again.eval(Interval.point(x)), mp_sinc(mp.mpf(x)))
    with pytest.raises(OrderMismatch):
        series_of("cos", "zero", 20, r).divide_power(1)
    # a division past the degree would change the degree
    with pytest.raises(DomainError):
        sin.divide_power(22)


def test_tail_respects_radius():
    ps = series_of("cos", "zero", 16, 0.5)
    with pytest.raises(DomainError):
        ps.eval(Interval.point(0.75))


def test_exp_tail_bound_dominates_true_tail(oracle):
    # the closed-form remainder of one term c u^j trig(k u) past u^(D+E) is
    # |c| r^E sum_{i>=m} k^i r^(i-m)/i!; the bound covers that sum, within
    # 10%, so no factor r^m rides along above r = 1
    for r in (0.25, 1.25, _HALF_PI_HI):
        x = mp.mpf(r)
        for k, m in [(1, 10), (1, 17), (1, 97), (2, 25), (6, 25), (6, 41), (6, 120)]:
            total = mp.nsum(lambda i: mp.mpf(k) ** (m + i) * x**i / mp.factorial(m + i), [0, mp.inf])
            bound = series._exp_tail(k, m, r)
            assert total <= mp.mpf(bound.numerator) / bound.denominator <= total * 1.1, (r, k, m)
    # cos(0 u) = 1 has no terms past u^0
    assert series._exp_tail(0, 0, 1.5) == 1.0 and series._exp_tail(0, 9, 1.5) == 0.0


def test_nan_tail_or_radius_is_refused():
    # a NaN tail would drop out of every bound: sup * NaN and NaN * r^(D+1)
    for tail, radius in [(math.nan, 1.0), (0.0, math.nan), (-1.0, 1.0), (0.0, 0.0), (0.0, -math.inf)]:
        with pytest.raises(DomainError):
            ps_poly({0: 1}, 0, radius, tail)
    assert ps_poly({0: 1}, 0, 1.0, math.inf).eval(Interval(0.0, 0.5)) == Interval(-math.inf, math.inf)


def test_eval_beyond_the_largest_float_reaches_infinity():
    # an exact end past the binary64 range rounds outward to +-inf, on a
    # box Horner signs and on one it leaves open, at and below 0
    top = sys.float_info.max
    big = Fraction(10**400, 3)
    assert ps_poly({0: big}, 0, 1.0).eval(Interval(0.0, 0.5)) == Interval(top, math.inf)
    assert ps_poly({0: -big}, 0, 1.0).eval(Interval(-0.5, 0.25)) == Interval(-math.inf, -top)
    assert ps_poly({0: 1, 1: big}, 1, 1.0).eval(Interval(-0.5, 0.5)) == Interval(-math.inf, math.inf)
    assert ps_poly({0: 1, 2: -big}, 2, 1.0).eval(Interval(0.0, 0.5)) == Interval(-math.inf, 1.0)


def test_shapes_a_series_cannot_serve_are_refused():
    # a negative degree has no coefficients and an infinite radius makes
    # every bound that multiplies by it infinite or NaN; neither is a series
    for degree, radius in [(-1, 1.0), (3, math.inf)]:
        with pytest.raises(DomainError):
            ps_poly({}, degree, radius)
    # the remainder's geometric bound needs k r < m + 1
    for k, m, radius in [(1, 5, math.inf), (1, 5, math.nan), (6, 2, 0.5)]:
        with pytest.raises(DomainError):
            series._exp_tail(k, m, radius)
    for leaf in ("cos", "sin", "sinc", "p"):
        with pytest.raises(DomainError):
            series_of(leaf, "zero", 16, math.inf)
        with pytest.raises(DomainError):
            series_of(leaf, "zero", -2, 1.0)


def _cauchy_power(s, k):
    """Reference: the coefficients of s^k through u^degree, k-fold Cauchy
    products of the PiPoly coefficients of s from the unit series."""
    d = s.degree
    result = [PiPoly.rational(1)] + [PiPoly()] * d
    for _ in range(k):
        result = [sum((result[i] * s.coeffs[n - i] for i in range(n + 1)), PiPoly()) for n in range(d + 1)]
    return tuple(result)


def test_int_pow_matches_repeated_mul(oracle):
    # a power in a form string is its product written out, bit for bit
    r = 1.0
    cubed = series_of("sinc^3", "zero", 18, r)
    ref = series_of("sinc*sinc*sinc", "zero", 18, r)
    assert cubed.coeffs == ref.coeffs and cubed.tail.hex() == ref.tail.hex()
    for x in (0.25, 0.8):
        assert contains(cubed.eval(Interval.point(x)), mp_sinc(mp.mpf(x)) ** 3)


@pytest.mark.parametrize(
    "base,center,degree,radius",
    [
        ("sinc", "zero", 24, _HALF_PI_HI),
        # cos u + pi/2 - u in u = pi/2 - x
        ("(sin + x)", "half_pi", 16, 0.25),
        ("(3/pi - pi^2/7 + 5*x)", "zero", 1, 1.5),
    ],
    ids=["sinc-at-zero", "pi-coefficients", "degree-1"],
)
def test_int_pow_bitwise_equals_unit_reference(base, center, degree, radius):
    # the closed form of base^k has exactly the coefficients of the k-fold
    # Cauchy product of the series of base
    s = series_of(base, center, degree, radius)
    for k in range(8):
        got = series_of(f"{base}^{k}", center, degree, radius)
        assert got.coeffs == _cauchy_power(s, k), k
        assert got.radius == radius


def test_scale_by_pipoly(oracle):
    r = 0.5
    scaled = series_of("pi^2*cos", "zero", 16, r)
    assert contains(scaled.eval(Interval.point(0.3)), mp.pi**2 * mp.cos(mp.mpf("0.3")))


# sparse coefficients in Q[pi, 1/pi]: negative pi powers, unrelated
# denominators, rows (pi powers) that are zero in every coefficient
PIPOLYS = st.dictionaries(
    st.integers(-3, 3),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    max_size=3,
).map(PiPoly)
TAILS = st.one_of(st.just(0.0), st.floats(0.0, 10.0))


@st.composite
def series_pairs(draw, tails=TAILS):
    degree = draw(st.integers(0, 7))
    radius = draw(st.floats(0.125, 2.0))
    coeffs = st.lists(PIPOLYS, min_size=degree + 1, max_size=degree + 1)
    return tuple(ps_poly(dict(enumerate(draw(coeffs))), degree, radius, draw(tails)) for _ in range(2))


def _mp_value(c):
    return mp.fsum(mp.mpf(q.numerator) / q.denominator * mp.pi**k for k, q in c.terms.items())


def _brackets_of(s):
    """The exact brackets that s.eval takes its coefficients from, as Fractions."""
    lower, upper, d = series._brackets(s._rows, s._den, range(s.degree + 1))
    return [(Fraction(lo, d), Fraction(hi, d)) for lo, hi in zip(lower, upper)]


def _assert_bracket_enclosures(coeffs):
    # one series holds all the coefficients, so their rows share one scale;
    # its integer brackets are the Fraction ones, and PiPoly.enclosure rounds
    # each end of them once
    s = ps_poly(dict(enumerate(coeffs)), len(coeffs) - 1, 1.0)
    for c, bracket in zip(coeffs, _brackets_of(s)):
        lo, hi = pi_bracket(c)
        assert bracket == (lo, hi), c
        want = Interval(rational_enclosure(lo).lo, rational_enclosure(hi).hi)
        assert c.enclosure().to_hex() == want.to_hex(), c
        assert contains(want, _mp_value(c)), c


_CATALOG_PI_COEFFS = [
    c
    for spec in CATALOG.values()
    for c in (spec.leading_coeff_zero, spec.leading_coeff_half_pi)
    if c is not None and set(c.terms) - {0}
]


def test_catalog_pi_coefficients_take_the_exact_bracket(oracle):
    assert len(_CATALOG_PI_COEFFS) == 5
    _assert_bracket_enclosures(_CATALOG_PI_COEFFS)
    for c in _CATALOG_PI_COEFFS:
        _assert_bracket_enclosures([c])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coeffs=st.lists(PIPOLYS, min_size=1, max_size=4))
def test_coefficient_enclosures_round_the_exact_pi_bracket_once(coeffs, oracle):
    _assert_bracket_enclosures(coeffs)


# form strings for products: sums of at most three products of at most two
# factors, a factor a leaf, pi or a rational constant, or a leaf squared;
# at degrees 4 to 10 on radii up to 1/2 every closed-form remainder exists
FACTORS = st.sampled_from(
    ["x", "cos", "sin", "sinc", "p", "pi", "3", "(2/pi)^2", "1/7", "x^2", "cos^2", "sin^2", "p^2"]
)
PRODUCTS = st.lists(FACTORS, min_size=1, max_size=2).map("*".join)


@st.composite
def product_forms(draw):
    """Two form strings, a degree and a radius: the product's series is
    compared with its factors' series."""
    sign = st.sampled_from(["+", "-"])
    terms = st.lists(st.tuples(sign, PRODUCTS), min_size=1, max_size=3)
    a, b = ("0 " + " ".join(f"{op} {t}" for op, t in draw(terms)) for _ in range(2))
    return a, b, draw(st.integers(4, 10)), draw(st.floats(0.125, 0.5))


def _overflow(text, center, degree, radius, extra=60):
    """A lower bound, exact in Q, on sum_{n=D+1}^{D+extra} |f_n| r^(n-D-1),
    the f_n read from the builder's own rows at degree D + extra: |f_n|
    exactly for a rational coefficient, the float lower end of its
    magnitude otherwise."""
    big, r = series_of(text, center, degree + extra, radius), Fraction(radius)
    total = Fraction(0)
    for n in range(degree + 1, degree + extra + 1):
        c = big.coefficient(n)
        mag = abs(c.terms.get(0, 0)) if set(c.terms) <= {0} else Fraction(c.enclosure().mig())
        total += mag * r ** (n - degree - 1)
    return total


@settings(max_examples=100, deadline=None, derandomize=True)
@given(product_forms())
def test_integer_product_equals_fraction_convolution(forms):
    # the closed form of a product has exactly the coefficients of the
    # Cauchy product of its factors' series, in PiPoly (Fraction) arithmetic
    a, b, d, r = forms
    fa, fb = (series_of(t, "zero", d, r).coeffs for t in (a, b))
    conv = [sum((fa[i] * fb[n - i] for i in range(n + 1)), PiPoly()) for n in range(d + 1)]
    assert series_of(f"({a})*({b})", "zero", d, r).coeffs == tuple(conv)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(product_forms())
def test_product_tail_covers_the_exact_overflow(forms):
    # the tail of a product never undercuts its exact overflow
    a, b, d, r = forms
    text = f"({a})*({b})"
    assert Fraction(series_of(text, "zero", d, r).tail) >= _overflow(text, "zero", d, r, 30)


@pytest.mark.parametrize("text", ["sinc^2", "p^5*cos"])
def test_product_tail_covers_the_exact_overflow_at_degree_96(text):
    s = series_of(text, "zero", 96, _HALF_PI_HI)
    fold = _overflow(text, "zero", 96, _HALF_PI_HI)
    assert 0 < fold <= Fraction(s.tail)
    # the tail holds the first eight overflow coefficients exactly, so only
    # rounding and the closed-form remainder past them are lost
    assert Fraction(s.tail) <= fold * (1 + Fraction(1, 10**6))
    # and the tail moves no margin: its term at pi/2 is far below a float ulp of 1
    assert _mul_up(s.tail, _pow_up(_HALF_PI_HI, 97)) < 1e-60


@pytest.mark.parametrize("degree", [16, 96])
def test_tail_covers_the_exact_overflow(degree):
    # every catalog quotient Q = F/u^k of the certifier, at both centers: the
    # tail of F, which Q carries, is at least sum_{n=D+1}^{D+60} |f_n| r^(n-D-1)
    for cid, spec in CATALOG.items():
        for center, radius in [("zero", _HALF_PI_HI), ("half_pi", MAX_EPSILON)]:
            if center == "half_pi" and not spec.vanish_order_half_pi:
                continue
            tail = form_series(cid, center, degree, radius).tail
            assert Fraction(tail) >= _overflow(spec.entire_form, center, degree, radius), (cid, center)


@st.composite
def operands(draw):
    """A series of rows from exact values, sometimes all zero, with leading
    zeros where a form vanishing at its center has them."""
    degree = draw(st.integers(0, 7))
    zero = [PiPoly()] * (degree + 1)
    coeffs = draw(st.one_of(st.just(zero), st.lists(PIPOLYS, min_size=degree + 1, max_size=degree + 1)))
    zeros = draw(st.integers(0, degree + 1))
    coeffs = zero[:zeros] + coeffs[zeros:]
    return ps_poly(dict(enumerate(coeffs)), degree, draw(st.floats(0.125, 2.0)), draw(TAILS)), coeffs


def _assert_exact(got, coeffs, tail):
    assert got.coeffs == tuple(coeffs)
    assert got.tail.hex() == tail.hex()
    assert _brackets_of(got) == [pi_bracket(c) for c in coeffs]
    # the rows are reduced: their denominator is the lcm of the coefficients'
    assert got._den == lcm(*(v.denominator for c in coeffs for v in c.terms.values()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(operands(), st.data())
def test_row_operations_equal_fraction_reference(operand, data):
    # the integer rows of ps_poly and of divide_power against one Fraction
    # (PiPoly) per coefficient
    s, coeffs = operand
    d = s.degree
    _assert_exact(s, coeffs, s.tail)
    # division by u^k up to the count of exactly vanishing leading
    # coefficients, and at most the degree, so that a coefficient remains
    zeros = next((n for n, x in enumerate(coeffs) if x.terms), d + 1)
    k = data.draw(st.integers(0, min(zeros, d)))
    _assert_exact(s.divide_power(k), coeffs[k:], s.tail)
    if zeros < d:
        with pytest.raises(OrderMismatch):
            s.divide_power(zeros + 1)
    with pytest.raises(DomainError):
        s.divide_power(d + 1)


# Leaf series and products at degree 16 on the disc of Q0's radius, each with
# its mpmath reference; 3p - sinc vanishes to second order at 0.
_R = _HALF_PI_HI
_NARROWED = {
    "cos": (series_of("cos", "zero", 16, _R), mp.cos),
    "sin": (series_of("sin", "zero", 16, _R), mp.sin),
    "sinc": (series_of("sinc", "zero", 16, _R), mp_sinc),
    "p": (series_of("p", "zero", 16, _R), mp_p),
    "sinc*cos": (series_of("sinc*cos", "zero", 16, _R), lambda x: mp_sinc(x) * mp.cos(x)),
    "sin*cos^2": (series_of("sin*cos^2", "zero", 16, _R), lambda x: mp.sin(x) * mp.cos(x) ** 2),
    "3p - sinc": (series_of("3*p - sinc", "zero", 16, _R), lambda x: 3 * mp_p(x) - mp_sinc(x)),
}


@st.composite
def sub_boxes(draw):
    """A box inside [-r, r], of any width or a narrow one, centred anywhere
    or on a zero of the series above (0 and -+pi/2), where Horner leaves the
    sign open."""
    centre = draw(st.one_of(st.floats(-_R, _R), st.sampled_from([-_R, 0.0, _R])))
    width = draw(st.one_of(st.floats(0.0, 2 * _R), st.sampled_from([2.0**-k for k in range(4, 40, 3)])))
    return Interval(max(centre - width / 2, -_R), min(centre + width / 2, _R))


def _float_horner_plus_tail(s, u):
    """Interval Horner plus the tail on the float kernel, from the rounded
    coefficient brackets: a bound that the exact one must lie inside."""
    t = _mul_up(s.tail, _pow_up(u.mag(), s.degree + 1))
    return horner([c.enclosure() for c in s.coeffs], u) + Interval(-t, t)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_NARROWED)), u=sub_boxes())
def test_eval_contains_the_function_and_narrows_horner(name, u, oracle):
    s, fn = _NARROWED[name]
    value, horner_value = s.eval(u), _float_horner_plus_tail(s, u)
    for x in (u.lo, u.mid, u.hi):
        # 3p - sinc cancels about 2 log10(1/|x|) digits near 0
        extra = int(-2 * mp.log10(abs(x))) + 10 if 0 < abs(x) < 1 else 0
        with mp.workdps(mp.mp.dps + extra):
            assert contains(value, fn(mp.mpf(x))), (name, u, x)
    # the exact bound rounded once, bit for bit, which the float kernel's
    # Horner contains
    assert value.to_hex() == exact_eval(s, u)[0].to_hex(), (name, u)
    assert horner_value.lo <= value.lo and value.hi <= horner_value.hi


def test_eval_narrows_only_where_horner_leaves_the_sign_open(monkeypatch):
    s = series_of("sin*cos^2", "zero", 16, _R)
    calls = count_calls(monkeypatch, series, "_bernstein")
    # signed by Horner: returned as it is, with no Bernstein bound
    signed = Interval(0.5, 0.75)
    value, horner_value = exact_eval(s, signed)
    assert s.eval(signed) == value == horner_value and not calls
    # near the zero at pi/2 Horner's dependency loss leaves about [-0.27, 0.26]
    # and the Bernstein bounds of the lower and upper bracket polynomials,
    # one call each, about [-0.0003, 0.0051]
    near = Interval(1.5, 1.5625)
    value, horner_value = exact_eval(s, near)
    assert s.eval(near) == value and len(calls) == 2
    assert value.width < horner_value.width / 80


@pytest.mark.parametrize("degree", [0, 1])
def test_eval_of_degree_below_two_is_the_range_at_the_box_ends(degree):
    # a polynomial of degree <= 1 takes its range on each part of the box,
    # at and above 0 or below it, at the part's ends, where its Horner and
    # Bernstein bounds agree with the range; so eval is the hull over the
    # parts of those values plus the part's tail, rounded once; 1/3 - 7u/5
    # at degree 1
    coeffs = [Fraction(1, 3), Fraction(-7, 5)][: degree + 1]
    s = ps_poly(dict(enumerate(coeffs)), degree, 2.0, 0.25)
    for u in (Interval(-1.5, 1.25), Interval(0.125, 0.5), Interval(0.5, 1.0)):
        lows, highs = [], []
        for a, b in ((max(u.lo, 0.0), u.hi), (u.lo, min(u.hi, 0.0))):
            if a <= b:
                t = Fraction(s.tail) * Fraction(max(-a, b)) ** (degree + 1)
                ends = [sum(c * Fraction(x) ** k for k, c in enumerate(coeffs)) for x in (a, b)]
                lows.append(min(ends) - t)
                highs.append(max(ends) + t)
        assert s.eval(u) == Interval(rational_enclosure(min(lows)).lo, rational_enclosure(max(highs)).hi), u


# Series of degree 96, where only the first _BERNSTEIN_DEGREE + 1 terms enter
# the Bernstein form and the rest are bounded by |c_j| |u|^j, with their
# mpmath references, and boxes that Horner leaves open on them.
_DEGREE_96 = {
    "sin*cos^2": (series_of("sin*cos^2", "zero", 96, _R), lambda x: mp.sin(x) * mp.cos(x) ** 2),
    "3p - sinc": (series_of("3*p - sinc", "zero", 96, _R), lambda x: 3 * mp_p(x) - mp_sinc(x)),
    "cos - 1/2": (series_of("cos - 1/2", "zero", 96, _R), lambda x: mp.cos(x) - 0.5),
    # all of its variation lies past the first 25 terms
    "u^40 - 1/2": (ps_poly({0: Fraction(-1, 2), 40: 1}, 96, _R), lambda x: x**40 - 0.5),
}


@pytest.mark.parametrize("name", sorted(_DEGREE_96))
def test_eval_at_degree_96_folds_the_terms_past_the_bernstein_form(name, monkeypatch, oracle):
    s, fn = _DEGREE_96[name]
    calls = count_calls(monkeypatch, series, "_bernstein")
    rng, boxes = random.Random(96), [Interval(-_R, _R), Interval(0.5, _R), Interval(-1.0, 1.25)]
    boxes += [Interval(*sorted(rng.uniform(-_R, _R) for _ in range(2))) for _ in range(40)]
    for u in boxes:
        value = s.eval(u)
        assert value.to_hex() == exact_eval(s, u)[0].to_hex(), (name, u)
        for x in (u.lo, u.lo + (u.hi - u.lo) / 3, u.mid, u.hi):
            extra = int(-2 * mp.log10(abs(x))) + 10 if 0 < abs(x) < 1 else 0
            with mp.workdps(mp.mp.dps + extra):
                assert contains(value, fn(mp.mpf(x))), (name, u, x)
    # the wide boxes reach the Bernstein stage, two bounds (lower and upper
    # bracket polynomial) per part, on the first 25 of 97 terms
    assert len(calls) >= 6
    assert all(len(coeffs) == series._BERNSTEIN_DEGREE + 1 < s.degree + 1 for coeffs, *_ in calls)
