"""Shared oracle helpers: arbitrary-precision reference values via mpmath,
and one wrong variant of each proof identity.

Containment checks compare mpf values against interval endpoints
directly; mpmath converts binary64 endpoints exactly, so `contains`
is itself exact.
"""

from fractions import Fraction
from math import comb, lcm

import mpmath as mp
import pytest

from tancert import sequences
from tancert.interval import _PI_HI, _PI_LO, Interval, rational_enclosure
from tancert.series import _BERNSTEIN_DEGREE, PowerSeries
from tancert.sequences import _C, _COT, _H, _PHI, _S, _TAN, _X

# One perturbation of each identity of sequences._IDENTITIES, which
# replay_identity must refuse: 24 -> 25 in phi, 1 + 3 cot^2 -> 1 + 4 cot^2
# and 4 tan^4 -> 5 tan^4.
PERTURBED_IDENTITIES = {
    "eq22_factorization": lambda: ((3 - _X**2 - 3 * _X * _COT).d(), (1 + 4 * _COT**2) * _H),
    "eq24_quotient": lambda: (
        6 * (_TAN / _X).dlog() - 5 * (3 * (_TAN - _X) / _X**3).dlog(),
        (_PHI - _X**2 * _C) / (4 * _X * _C**2 * _S * (_TAN - _X)),
    ),
    "thm_a_h_prime": lambda: (_H.d(), 5 * _TAN**4 / (3 + _TAN**2) ** 2),
}

# Three mutations of the lemma's series identity in Q[n, E], each applied
# through a monkeypatch, that replay_identity must refuse.
LEMMA_MUTATIONS = {
    "one coefficient of T": lambda patch: patch.setitem(sequences._T, (1, 1), Fraction(7, 9)),
    "no -4x sin 3x term": lambda patch: patch.setattr(
        sequences, "_PHI_TERMS", tuple(t for t in sequences._PHI_TERMS if t != (-4, 1, 3))
    ),
    "falling factorial one factor short": lambda patch: patch.setattr(
        sequences, "_falling", lambda a, full=sequences._falling: full(max(a - 1, 0))
    ),
}

ORACLE_DPS = 60


def interval_horner(coeffs, u):
    """Reference Horner's rule in Interval operations, one Interval per step:
    the kernel's float-endpoint Horner and disc bound must match it bit for bit."""
    acc = Interval.point(0.0)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def coefficients(s):
    """The exact coefficients of u^0 .. u^degree of s, each a map
    {power of pi: nonzero Fraction}."""
    return [s.coefficient(n) for n in range(s.degree + 1)]


def rows_series(coeffs, radius, tail=0.0):
    """The PowerSeries sum_n coeffs[n] u^n + [-tail, tail] u^(D+1) on
    |u| <= radius, D = len(coeffs) - 1, each coefficient a map {power of
    pi: Fraction or int}: integer rows over the lcm of their denominators,
    which leaves them reduced."""
    coeffs = [{k: Fraction(v) for k, v in c.items() if v} for c in coeffs]
    den = lcm(*(v.denominator for c in coeffs for v in c.values()))
    rows = {}
    for n, c in enumerate(coeffs):
        for k, v in c.items():
            rows.setdefault(k, [0] * len(coeffs))[n] = v.numerator * (den // v.denominator)
    return PowerSeries(tuple(sorted(rows.items())), den, len(coeffs) - 1, tail, radius)


def pi_bracket(c):
    """[L, U] around the coefficient c, a map {power of pi: Fraction}, over
    pi's float bracket, in Fraction: each term q pi^k at the end of
    [_PI_LO, _PI_HI] that lowers (raises) it."""
    ends = (Fraction(_PI_LO), Fraction(_PI_HI))
    terms = [[q * p**k for p in ends] for k, q in c.items()]
    return sum(map(min, terms), Fraction(0)), sum(map(max, terms), Fraction(0))


def pi_enclosure(c):
    """The tightest Interval around pi_bracket(c): each end rounded once."""
    lo, hi = pi_bracket(c)
    return Interval(rational_enclosure(lo).lo, rational_enclosure(hi).hi)


def _fraction_bernstein(coeffs, a, b):
    """Bernstein coefficients on [a, b] of sum_k coeffs[k] u^k, by their
    definition: the Taylor coefficients at a, each times w^j / C(n, j),
    w = b - a, summed as sum_{j<=i} C(i, j) d_j for i = 0..n."""
    n, w = len(coeffs) - 1, b - a
    shifted = [sum(comb(k, j) * coeffs[k] * a ** (k - j) for k in range(j, n + 1)) for j in range(n + 1)]
    d = [shifted[j] * w**j / comb(n, j) for j in range(n + 1)]
    return [sum(comb(i, j) * d[j] for j in range(i + 1)) for i in range(n + 1)]


def _fraction_range(brackets, tail, a, b):
    """(value, horner) on [a, b], 0 <= a <= b, as PowerSeries.eval rules it,
    in Fraction: horner is interval Horner plus the tail, each product the
    hull of its four end products; where that leaves the sign open, value
    meets it with the least (greatest) Bernstein coefficient of the lower
    (upper) bracket polynomial of the first _BERNSTEIN_DEGREE + 1 terms,
    minus (plus) sum_j max|bracket| b^j of the rest and the tail."""
    a, b, N = Fraction(a), Fraction(b), len(brackets) - 1
    lo = hi = Fraction(0)
    for c_lo, c_hi in reversed(brackets):
        ends = [lo * a, lo * b, hi * a, hi * b]
        lo, hi = min(ends) + c_lo, max(ends) + c_hi
    t = Fraction(tail) * b ** (N + 1)
    horner = Interval(rational_enclosure(lo - t).lo, rational_enclosure(hi + t).hi)
    if horner.lo > 0.0 or horner.hi < 0.0:
        return horner, horner
    n = min(N, _BERNSTEIN_DEGREE)
    rest = t + sum(max(abs(x), abs(y)) * b**j for j, (x, y) in enumerate(brackets) if j > n)
    low = min(_fraction_bernstein([x for x, _ in brackets[: n + 1]], a, b)) - rest
    high = max(_fraction_bernstein([y for _, y in brackets[: n + 1]], a, b)) + rest
    value = Interval(max(horner.lo, rational_enclosure(low).lo), min(horner.hi, rational_enclosure(high).hi))
    return value, horner


def exact_eval(s, u):
    """Reference for s.eval(u), in Fraction from the exact brackets of the
    coefficients of s (see `pi_bracket`): (value, horner), hulls over the
    parts of u at and above 0 and below 0, the latter as the series in -u
    (odd coefficients negated) over -u; horner is interval Horner plus the
    tail, rounded outward once, and value is what eval returns."""
    brackets = [pi_bracket(c) for c in coefficients(s)]
    parts = []
    if u.hi >= 0.0:
        parts.append(_fraction_range(brackets, s.tail, max(u.lo, 0.0), u.hi))
    if u.lo < 0.0:
        flipped = [(-y, -x) if n % 2 else (x, y) for n, (x, y) in enumerate(brackets)]
        parts.append(_fraction_range(flipped, s.tail, max(-u.hi, 0.0), -u.lo))
    return tuple(Interval(min(p[i].lo for p in parts), max(p[i].hi for p in parts)) for i in (0, 1))


def exact_sub(a, b):
    """a - b as certify takes a difference (the cover end): each end the
    exact difference of floats, rounded outward once."""
    return Interval(rational_enclosure(Fraction(a.lo) - Fraction(b.hi)).lo,
                    rational_enclosure(Fraction(a.hi) - Fraction(b.lo)).hi)


def exact_div(a, b):
    """a / b for b clear of 0, by the same rule: the least and greatest of
    the four exact end quotients, rounded outward once."""
    quotients = [Fraction(x) / Fraction(y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(rational_enclosure(min(quotients)).lo, rational_enclosure(max(quotients)).hi)


def count_calls(monkeypatch, owner, name) -> list:
    """Patch owner.name with a wrapper that records the arguments of each
    call in the returned list."""
    calls, fn = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def contains(iv, value) -> bool:
    """Exact membership of an mpf/int/Fraction in an Interval."""
    if isinstance(value, (int, Fraction)):
        return Fraction(iv.lo) <= value <= Fraction(iv.hi)
    return mp.mpf(iv.lo) <= value <= mp.mpf(iv.hi)


@pytest.fixture(scope="session")
def oracle():
    with mp.workdps(ORACLE_DPS):
        yield mp


def mp_p(x):
    """(sin x - x cos x)/x^3, 1/3 at 0.  The quotient cancels about
    2 log10(1/|x|) digits, so below |x| = 1/2 the value is summed from the
    series sum_m (-1)^m 2(m+1) x^(2m)/(2m+3)!, which cancels none: its terms
    alternate and shrink by 40 times or more, so the prec/4 terms taken
    leave an error below the working precision."""
    x = mp.mpf(x)
    if abs(x) < 0.5:
        return mp.fsum(
            (-1) ** m * 2 * (m + 1) * x ** (2 * m) / mp.factorial(2 * m + 3)
            for m in range(mp.mp.prec // 4)
        )
    return (mp.sin(x) - x * mp.cos(x)) / x**3


def mp_sinc(x):
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(1)
    return mp.sin(x) / x


def mp_phi(x):
    x = mp.mpf(x)
    return (9 - 24 * x**2) * mp.cos(x) - 9 * mp.cos(3 * x) - 4 * x * mp.sin(3 * x)


def mp_upper_gap(x):
    """D(x) = x^9 tan^6 x / 243 - (x^3/3 + (2/pi)^4 x^4 tan x)^5: negative
    where x + x^(9/5) tan^(6/5) x / 3 is the sharper upper bound of tan."""
    x = mp.mpf(x)
    t = mp.tan(x)
    return x**9 * t**6 / 243 - (x**3 / 3 + (2 / mp.pi) ** 4 * x**4 * t) ** 5


def mp_lower_gap(x):
    """G(x) = tan x (5 - 2x^2) - 5x: positive where x + x^2 tan x / 3 is the
    sharper lower bound of tan."""
    x = mp.mpf(x)
    return mp.tan(x) * (5 - 2 * x**2) - 5 * x


def mp_form(inequality_id, x):
    """The entire-form numerator F at a point, straight from its definition."""
    x = mp.mpf(x)
    c = mp.cos(x)
    s = mp_sinc(x)
    p = mp_p(x)
    if inequality_id == "prop1_lower":
        return 3 * p - c
    if inequality_id == "prop1_upper":
        return x * (x**2 * s**3 - 3 * s * c**2 + 3 * c**3)
    if inequality_id == "main_lower":
        return 3 * p - s
    if inequality_id == "main_upper":
        return s**6 - 243 * p**5 * c
    if inequality_id == "bs_lower":
        return x * s * (mp.pi**2 - 4 * x**2) - 8 * x * c
    if inequality_id == "bs_upper":
        return mp.pi**2 * x * c - x * s * (mp.pi**2 - 4 * x**2)
    if inequality_id == "qi_lower":
        return x * s - (x + x**3 / 3) * c - mp.mpf(2) / 15 * x**4 * (x * s)
    if inequality_id == "qi_upper":
        return (x + x**3 / 3) * c + (2 / mp.pi) ** 4 * x**4 * (x * s) - x * s
    if inequality_id == "lemma_phi":
        return mp_phi(x)
    raise ValueError(inequality_id)
