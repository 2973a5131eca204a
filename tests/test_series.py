import math
import random
from fractions import Fraction
from math import lcm

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancert import series
from tancert.errors import DomainError, OrderMismatch
from tancert.certifier import CATALOG
from tancert.interval import (
    _HALF_PI_HI,
    _PI_HI,
    _PI_LO,
    Interval,
    _add_up,
    _mul_up,
    _pow_up,
    horner,
    rational_enclosure,
)
from tancert.series import (
    PiPoly,
    exp_tail_bound,
    ps_cos,
    ps_p,
    ps_poly,
    ps_sin,
    ps_sinc,
)

from conftest import contains, count_calls, interval_horner, mp_p, mp_sinc


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
    "builder,fn",
    [(ps_cos, mp.cos), (ps_sin, mp.sin), (ps_sinc, mp_sinc), (ps_p, mp_p)],
)
def test_primitive_series_contain_oracle(builder, fn, oracle):
    ps = builder(24, 1.5707963267948968)
    rng = random.Random(11)
    for _ in range(60):
        x = rng.uniform(0.0, 1.5707963)
        assert contains(ps.eval(Interval.point(x)), fn(mp.mpf(x)))
    # low degrees at radii below 1, where the tail coefficient exceeds the
    # tail's value at the radius
    for degree in (4, 8):
        for r in (0.5, 0.125):
            ps = builder(degree, r)
            for x in (-r, r):
                assert contains(ps.eval(Interval.point(x)), fn(mp.mpf(x))), (degree, x)


def test_series_products_contain_oracle(oracle):
    r = 1.2
    prod = ps_sinc(24, r) * ps_cos(24, r)
    for x in (0.0, 0.3, 0.9, 1.2):
        assert contains(prod.eval(Interval.point(x)), mp_sinc(mp.mpf(x)) * mp.cos(mp.mpf(x)))


def test_monomial_shift_and_poly(oracle):
    r = 1.0
    # x * sinc = sin
    shifted = ps_sinc(20, r).mul_term(1, 1)
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
    sin = ps_sin(20, r)
    sinc_again = sin.divide_power(1)
    for x in (0.2, 0.9):
        assert contains(sinc_again.eval(Interval.point(x)), mp_sinc(mp.mpf(x)))
    with pytest.raises(OrderMismatch):
        ps_cos(20, r).divide_power(1)
    # a shift or division past the degree would change the degree
    for op in (lambda k: sin.mul_term(1, k), sin.divide_power):
        with pytest.raises(DomainError):
            op(22)


def test_tail_respects_radius():
    ps = ps_cos(16, 0.5)
    with pytest.raises(DomainError):
        ps.eval(Interval.point(0.75))


def test_exp_tail_bound_dominates_true_tail(oracle):
    # the tail coefficient of u^K for |c_k| <= 1/k! on |u| <= r is
    # sum_{k>=K} r^(k-K)/k!; the bound covers it, and within 1%, so no
    # factor r^K rides along above r = 1
    for r in (1.25, _HALF_PI_HI):
        x = mp.mpf(r)
        for k in (10, 17, 97):
            coefficient = mp.nsum(lambda j: x**j / mp.factorial(k + j), [0, mp.inf])
            bound = exp_tail_bound(k, r)
            assert coefficient <= bound <= coefficient * 1.01, (r, k)


def test_nan_tail_or_radius_is_refused():
    # a NaN tail would drop out of every bound: sup * NaN and NaN * r^(D+1)
    for tail, radius in [(math.nan, 1.0), (0.0, math.nan), (-1.0, 1.0), (0.0, 0.0), (0.0, -math.inf)]:
        with pytest.raises(DomainError):
            ps_poly({0: 1}, 0, radius, tail)
    assert ps_poly({0: 1}, 0, 1.0, math.inf).eval(Interval(0.0, 0.5)) == Interval(-math.inf, math.inf)


def test_shapes_a_series_cannot_serve_are_refused():
    # a negative degree has no coefficients and an infinite radius makes
    # every bound that multiplies by it infinite or NaN; neither is a series
    for degree, radius in [(-1, 1.0), (3, math.inf)]:
        with pytest.raises(DomainError):
            ps_poly({}, degree, radius)
    for first_index, radius in [(5, math.inf), (5, math.nan), (-1, 0.5)]:
        with pytest.raises(DomainError):
            exp_tail_bound(first_index, radius)
    for builder in (ps_cos, ps_sin, ps_sinc, ps_p):
        with pytest.raises(DomainError):
            builder(16, math.inf)
        with pytest.raises(DomainError):
            builder(-2, 1.0)


def test_compatibility_checks():
    with pytest.raises(DomainError):
        ps_cos(10, 0.5) + ps_cos(12, 0.5)
    with pytest.raises(DomainError):
        ps_cos(10, 0.5) * ps_cos(10, 0.25)


def test_int_pow_matches_repeated_mul(oracle):
    r = 1.0
    s = ps_sinc(18, r)
    cubed = s.int_pow(3)
    ref = s * s * s
    for x in (0.25, 0.8):
        a = cubed.eval(Interval.point(x))
        b = ref.eval(Interval.point(x))
        assert a.lo <= b.hi and b.lo <= a.hi
        assert contains(a, mp_sinc(mp.mpf(x)) ** 3)


def _unit_square_and_multiply(s, k):
    """Reference power: square-and-multiply from the unit series."""
    result = ps_poly({0: 1}, s.degree, s.radius)
    base = s
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


@pytest.mark.parametrize(
    "series",
    [
        ps_sinc(24, _HALF_PI_HI),
        ps_cos(16, 0.25) + ps_poly({0: PiPoly({1: Fraction(1, 2)}), 1: -1}, 16, 0.25),
        ps_poly({0: PiPoly({-1: 3, 2: Fraction(-1, 7)}), 1: 5}, 1, 1.5, 0.75),
    ],
    ids=["sinc-at-zero", "pi-coefficients", "degree-1"],
)
def test_int_pow_bitwise_equals_unit_reference(series):
    for k in range(8):
        got, ref = series.int_pow(k), _unit_square_and_multiply(series, k)
        assert got.coeffs == ref.coeffs
        assert got.tail.hex() == ref.tail.hex()
        assert got.radius == ref.radius


def test_scale_by_pipoly(oracle):
    r = 0.5
    scaled = ps_cos(16, r).mul_term(PiPoly({2: 1}), 0)
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


def _pi_bracket(c):
    """[L, U] around the PiPoly c over pi's float bracket, in Fraction: each
    term q pi^k at the end of [_PI_LO, _PI_HI] that lowers (raises) it."""
    ends = (Fraction(_PI_LO), Fraction(_PI_HI))
    terms = [[q * p**k for p in ends] for k, q in c.terms.items()]
    return sum(map(min, terms), Fraction(0)), sum(map(max, terms), Fraction(0))


def _mp_value(c):
    return mp.fsum(mp.mpf(q.numerator) / q.denominator * mp.pi**k for k, q in c.terms.items())


def _assert_bracket_enclosures(coeffs):
    # one series holds all the coefficients, so their rows share one scale
    encs = ps_poly(dict(enumerate(coeffs)), len(coeffs) - 1, 1.0).coefficient_enclosures()
    for c, enc in zip(coeffs, encs):
        lo, hi = _pi_bracket(c)
        want = Interval(rational_enclosure(lo).lo, rational_enclosure(hi).hi)
        assert c.enclosure().to_hex() == enc.to_hex() == want.to_hex(), c
        assert contains(enc, _mp_value(c)), c


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


def _suffix_bounds(s):
    """H[k] >= sum_{j>=k} |c_j| r^(j-k) by an upward Horner pass over the
    magnitudes of the PiPoly enclosures of the coefficients."""
    h, acc = [], 0.0
    for c in reversed(s.coeffs):
        acc = _add_up(_mul_up(acc, s.radius), c.enclosure().mag())
        h.append(acc)
    return h[::-1]


def _fraction_product(a, b):
    """Reference: the PiPoly (Fraction) convolution through u^d; the dropped
    products a_i b_j u^(i+j), i + j > d, folded into the tail as
    sum_i |a_i| H_b[d+1-i] with H_b the suffix bounds of b, plus the
    operands' tails."""
    d, r = a.degree, a.radius
    conv = [PiPoly()] * (d + 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs[: d + 1 - i]):
            conv[i + j] = conv[i + j] + ca * cb
    h_b = _suffix_bounds(b)
    tail = 0.0
    for i in range(1, d + 1):
        tail = _add_up(tail, _mul_up(a.coeffs[i].enclosure().mag(), h_b[d + 1 - i]))
    sup_a = horner(a.coefficient_enclosures(), Interval(-r, r)).mag()
    sup_b = horner(b.coefficient_enclosures(), Interval(-r, r)).mag()
    tail = _add_up(tail, _mul_up(sup_a, b.tail))
    tail = _add_up(tail, _mul_up(sup_b, a.tail))
    tail = _add_up(tail, _mul_up(_mul_up(a.tail, b.tail), _pow_up(r, d + 1)))
    return conv, tail


def _exact_overflow_fold(a, b):
    """A lower bound, exact in Q, on sum_{k>d} |c_k| r^(k-d-1), c_k the
    coefficients of the full product of the polynomial parts: the tail that
    folding the exact overflow coefficients would give.  For rational
    coefficients it is that sum exactly."""
    d, r = a.degree, Fraction(a.radius)
    conv = [PiPoly()] * (2 * d + 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            conv[i + j] = conv[i + j] + ca * cb
    total = Fraction(0)
    for k in range(d + 1, 2 * d + 1):
        c = conv[k].terms
        mag = abs(c[0]) if set(c) == {0} else Fraction(conv[k].enclosure().mig())
        total += mag * r ** (k - d - 1)
    return total


@settings(max_examples=100, deadline=None, derandomize=True)
@given(series_pairs())
def test_integer_product_equals_fraction_convolution(pair):
    a, b = pair
    coeffs, tail = _fraction_product(a, b)
    prod = a * b
    assert prod.coeffs == tuple(coeffs)
    assert prod.tail == tail


@settings(max_examples=150, deadline=None, derandomize=True)
@given(series_pairs(tails=st.just(0.0)))
def test_product_tail_covers_the_exact_overflow(pair):
    # with untailed operands the product's tail is its overflow bound alone,
    # and the suffix sums never undercut folding the exact coefficients
    a, b = pair
    assert Fraction((a * b).tail) >= _exact_overflow_fold(a, b)


def _untailed(s):
    return ps_poly(dict(enumerate(s.coeffs)), s.degree, s.radius)


@pytest.mark.parametrize(
    "factors",
    [
        lambda: (ps_sinc(96, _HALF_PI_HI), ps_sinc(96, _HALF_PI_HI)),
        lambda: (ps_p(96, _HALF_PI_HI).int_pow(5), ps_cos(96, _HALF_PI_HI)),
    ],
    ids=["sinc^2", "p^5*cos"],
)
def test_product_tail_covers_the_exact_overflow_at_degree_96(factors):
    a, b = (_untailed(s) for s in factors())
    prod = a * b
    assert prod.coeffs == tuple(_fraction_product(a, b)[0])
    fold = _exact_overflow_fold(a, b)
    assert 0 < fold <= Fraction(prod.tail)
    # the products a_i b_j of one power share its sign, so the suffix sums
    # cancel nothing that the exact coefficients would: only rounding is lost
    assert Fraction(prod.tail) <= fold * (1 + Fraction(1, 10**12))
    # and the tail moves no margin: its term at pi/2 is far below a float ulp of 1
    assert _mul_up(prod.tail, _pow_up(_HALF_PI_HI, 97)) < 1e-60


@settings(max_examples=200, deadline=None, derandomize=True)
@given(series_pairs())
def test_sup_equals_interval_horner_on_the_disc(pair):
    for s in pair:
        r = s.radius
        assert s.sup().hex() == interval_horner(s.coefficient_enclosures(), Interval(-r, r)).mag().hex()


@st.composite
def operand_pairs(draw):
    """Two series of one degree and radius, each sometimes all zero."""
    degree = draw(st.integers(0, 7))
    radius = draw(st.floats(0.125, 2.0))
    zero = [PiPoly()] * (degree + 1)
    coeffs = st.one_of(st.just(zero), st.lists(PIPOLYS, min_size=degree + 1, max_size=degree + 1))
    return tuple(ps_poly(dict(enumerate(draw(coeffs))), degree, radius, draw(TAILS)) for _ in range(2))


def _fraction_shift(a, j):
    """Reference u^j * a: the coefficients shifted, those past the degree
    folded into the tail as sum_k |c_k| r^(k-d-1) by an upward Horner pass
    from the last, plus the tail times r^j."""
    d, r = a.degree, a.radius
    tail = 0.0
    for c in reversed(a.coeffs[d + 1 - j:]):
        tail = _add_up(_mul_up(tail, r), c.enclosure().mag())
    return [PiPoly()] * j + list(a.coeffs[: d + 1 - j]), _add_up(tail, _mul_up(a.tail, _pow_up(r, j)))


def _fraction_term(a, c, j):
    """Reference c u^j * a: the shift by u^j, then every coefficient and the
    tail scaled by c."""
    c = c if isinstance(c, PiPoly) else PiPoly.rational(c)
    coeffs, tail = _fraction_shift(a, j)
    return [c * x for x in coeffs], _mul_up(tail, c.enclosure().mag())


# a constant of the forms: 2/15 and (2/pi)^4 together
_PI_CONST = PiPoly({-4: 16, 0: Fraction(-2, 15)})


def _assert_exact(got, coeffs, tail):
    assert got.coeffs == tuple(coeffs)
    assert got.tail.hex() == tail.hex()
    assert [e.to_hex() for e in got.coefficient_enclosures()] == [c.enclosure().to_hex() for c in coeffs]
    # the rows are reduced: their denominator is the lcm of the coefficients'
    assert got._den == lcm(*(v.denominator for c in coeffs for v in c.terms.values()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(operand_pairs(), st.one_of(PIPOLYS, st.integers(-6, 6)), st.data())
def test_row_operations_equal_fraction_reference(pair, c, data):
    # the integer-row operations against one Fraction (PiPoly) per coefficient
    a, b = pair
    d = a.degree
    _assert_exact(a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)], _add_up(a.tail, b.tail))
    _assert_exact(a - b, [x - y for x, y in zip(a.coeffs, b.coeffs)], _add_up(a.tail, b.tail))
    _assert_exact(a * b, *_fraction_product(a, b))
    j = data.draw(st.integers(0, d + 1))
    for cj in ((c, 0), (1, j), (c, j), (_PI_CONST, d + 1)):
        _assert_exact(a.mul_term(*cj), *_fraction_term(a, *cj))
    shifted = a.mul_term(1, j)
    # division by u^k up to the count of exactly vanishing leading
    # coefficients, and at most the degree, so that a coefficient remains
    coeffs = shifted.coeffs
    zeros = next((n for n, x in enumerate(coeffs) if x.terms), d + 1)
    k = data.draw(st.integers(0, min(zeros, d)))
    _assert_exact(shifted.divide_power(k), coeffs[k:], shifted.tail)
    if zeros < d:
        with pytest.raises(OrderMismatch):
            shifted.divide_power(zeros + 1)
    with pytest.raises(DomainError):
        shifted.divide_power(d + 1)


# Leaf series and products at degree 16 on the disc of Q0's radius, each with
# its mpmath reference; 3p - sinc vanishes to second order at 0.
_R = _HALF_PI_HI
_NARROWED = {
    "cos": (ps_cos(16, _R), mp.cos),
    "sin": (ps_sin(16, _R), mp.sin),
    "sinc": (ps_sinc(16, _R), mp_sinc),
    "p": (ps_p(16, _R), mp_p),
    "sinc*cos": (ps_sinc(16, _R) * ps_cos(16, _R), lambda x: mp_sinc(x) * mp.cos(x)),
    "sin*cos^2": (ps_sin(16, _R) * ps_cos(16, _R).int_pow(2), lambda x: mp.sin(x) * mp.cos(x) ** 2),
    "3p - sinc": (ps_p(16, _R).mul_term(3, 0) - ps_sinc(16, _R), lambda x: 3 * mp_p(x) - mp_sinc(x)),
}


@st.composite
def sub_boxes(draw):
    """A box inside [-r, r], of any width or a narrow one, centred anywhere
    or on a zero of the series above (0 and -+pi/2), where Horner leaves the
    sign open."""
    centre = draw(st.one_of(st.floats(-_R, _R), st.sampled_from([-_R, 0.0, _R])))
    width = draw(st.one_of(st.floats(0.0, 2 * _R), st.sampled_from([2.0**-k for k in range(4, 40, 3)])))
    return Interval(max(centre - width / 2, -_R), min(centre + width / 2, _R))


def _horner_plus_tail(s, u):
    t = _mul_up(s.tail, _pow_up(u.mag(), s.degree + 1))
    return horner(s.coefficient_enclosures(), u) + Interval(-t, t)


def _exact_bernstein(s, u):
    """Least and greatest Bernstein coefficient of the polynomial part of s
    on u, in Fractions from the exact rational coefficients: the Taylor
    coefficients at u.lo, each times w^j / C(n, j), w = u.hi - u.lo, summed
    as sum_{j<=i} C(i, j) d_j for i = 0..n."""
    assert s.degree <= series._BERNSTEIN_DEGREE
    assert all(set(c.terms) <= {0} for c in s.coeffs)
    coeffs = [c.terms.get(0, Fraction(0)) for c in s.coeffs]
    n, a, w = s.degree, Fraction(u.lo), Fraction(u.hi) - Fraction(u.lo)
    shifted = [sum(math.comb(k, j) * coeffs[k] * a ** (k - j) for k in range(j, n + 1))
               for j in range(n + 1)]
    d = [shifted[j] * w**j / math.comb(n, j) for j in range(n + 1)]
    b = [sum(math.comb(i, j) * d[j] for j in range(i + 1)) for i in range(n + 1)]
    return min(b), max(b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_NARROWED)), u=sub_boxes())
def test_eval_contains_the_function_and_narrows_horner(name, u, oracle):
    s, fn = _NARROWED[name]
    value, horner_value = s.eval(u), _horner_plus_tail(s, u)
    for x in (u.lo, u.mid, u.hi):
        # 3p - sinc cancels about 2 log10(1/|x|) digits near 0
        extra = int(-2 * mp.log10(abs(x))) + 10 if 0 < abs(x) < 1 else 0
        with mp.workdps(mp.mp.dps + extra):
            assert contains(value, fn(mp.mpf(x))), (name, u, x)
    assert horner_value.lo <= value.lo and value.hi <= horner_value.hi
    if horner_value.lo <= 0.0 <= horner_value.hi:
        # inside the exact Bernstein bound, up to the tail and the rounding
        # of the kernel's coefficient enclosures and multiply-adds: relative
        # 2^-53 each, fewer than 2^13 of them, on sums below b
        lo, hi = _exact_bernstein(s, u)
        t = _mul_up(s.tail, _pow_up(u.mag(), s.degree + 1))
        b = sum(abs(c.enclosure().mag()) * (1 + 3 * _R) ** k for k, c in enumerate(s.coeffs))
        slack = t + b * 2.0**-40
        assert lo - Fraction(slack) <= Fraction(value.lo), (name, u)
        assert Fraction(value.hi) <= hi + Fraction(slack), (name, u)


def test_eval_narrows_only_where_horner_leaves_the_sign_open(monkeypatch):
    s = ps_sin(16, _R) * ps_cos(16, _R).int_pow(2)
    calls = count_calls(monkeypatch, series, "horner")
    # signed by Horner: returned as it is, after one Horner evaluation
    signed = Interval(0.5, 0.75)
    assert s.eval(signed) == _horner_plus_tail(s, signed) and len(calls) == 1
    # near the zero at pi/2 Horner's dependency loss leaves about [-0.27, 0.26]
    # and the Bernstein bound, which calls no Horner, about [-0.0003, 0.0051]
    calls.clear()
    near = Interval(1.5, 1.5625)
    value, horner_value = s.eval(near), _horner_plus_tail(s, near)
    assert value.width < horner_value.width / 80 and len(calls) == 1


@pytest.mark.parametrize("degree", [0, 1])
def test_eval_of_degree_below_two_is_the_range_at_the_box_ends(degree):
    # the Bernstein coefficients of a polynomial of degree <= 1 are its values
    # at the box ends, so where Horner leaves the sign open eval is their
    # hull, up to a few roundings, plus the tail; 1/3 - 7u/5 at degree 1
    coeffs = [Fraction(1, 3), Fraction(-7, 5)][: degree + 1]
    s = ps_poly(dict(enumerate(coeffs)), degree, 2.0, 0.25)
    narrowed = 0
    for u in (Interval(-1.5, 1.25), Interval(0.125, 0.5), Interval(0.5, 1.0)):
        value, horner_value = s.eval(u), _horner_plus_tail(s, u)
        if horner_value.lo <= 0.0 <= horner_value.hi:
            t = Fraction(_mul_up(s.tail, _pow_up(u.mag(), degree + 1)))
            ends = [sum(c * Fraction(x) ** k for k, c in enumerate(coeffs)) for x in (u.lo, u.hi)]
            assert min(ends) - t - Fraction(2.0**-50) <= Fraction(value.lo) <= min(ends) - t, u
            assert max(ends) + t <= Fraction(value.hi) <= max(ends) + t + Fraction(2.0**-50), u
            narrowed += 1
        else:
            assert value == horner_value, u
    assert narrowed


# Series of degree 96, where only the first _BERNSTEIN_DEGREE + 1 terms enter
# the Bernstein form and the rest are bounded by |c_j| |u|^j, with their
# mpmath references, and boxes that Horner leaves open on them.
_DEGREE_96 = {
    "sin*cos^2": (ps_sin(96, _R) * ps_cos(96, _R).int_pow(2), lambda x: mp.sin(x) * mp.cos(x) ** 2),
    "3p - sinc": (ps_p(96, _R).mul_term(3, 0) - ps_sinc(96, _R), lambda x: 3 * mp_p(x) - mp_sinc(x)),
    "cos - 1/2": (ps_cos(96, _R) - ps_poly({0: Fraction(1, 2)}, 96, _R), lambda x: mp.cos(x) - 0.5),
    # all of its variation lies past the first 25 terms
    "u^40 - 1/2": (ps_poly({0: Fraction(-1, 2), 40: 1}, 96, _R), lambda x: x**40 - 0.5),
}


@pytest.mark.parametrize("name", sorted(_DEGREE_96))
def test_eval_at_degree_96_folds_the_terms_past_the_bernstein_form(name, monkeypatch, oracle):
    s, fn = _DEGREE_96[name]
    calls = count_calls(monkeypatch, series, "_bernstein_range")
    rng, boxes = random.Random(96), [Interval(-_R, _R), Interval(0.5, _R), Interval(-1.0, 1.25)]
    boxes += [Interval(*sorted(rng.uniform(-_R, _R) for _ in range(2))) for _ in range(40)]
    for u in boxes:
        value = s.eval(u)
        for x in (u.lo, u.lo + (u.hi - u.lo) / 3, u.mid, u.hi):
            extra = int(-2 * mp.log10(abs(x))) + 10 if 0 < abs(x) < 1 else 0
            with mp.workdps(mp.mp.dps + extra):
                assert contains(value, fn(mp.mpf(x))), (name, u, x)
    # the wide boxes reach the Bernstein stage, on the first 25 of 97 terms
    assert len(calls) >= 3
    assert all(len(encs) == series._BERNSTEIN_DEGREE + 1 < s.degree + 1 for encs, _, _ in calls)
