"""Direct enclosures of the entire building blocks cos, sinc and p.

The direct enclosures cos_enc, sinc_enc and p_enc evaluate the truncated
Taylor series, whose coefficients `cos_coeff`, `sinc_coeff` and `p_coeff`
write once, in interval arithmetic with a certified remainder; the test
suite re-derives p's from an exact rational subtraction of the sin and
x*cos series.  No certificate and no other module uses them: they serve
the benchmark harness alone, and neither certify nor check loads this
module.

cos and sinc use the Lagrange-style tail bound |x|^K / K!; p is an
alternating series with provably decreasing terms on the call domain, so
its truncation error is bounded by (and signed like) the first omitted
term.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial

from .errors import DomainError
from .interval import (
    Interval,
    _HALF_PI_HI,
    horner,
    int_pow,
    rational_enclosure,
)


def cos_coeff(m: int) -> Fraction:
    """Coefficient (-1)^m/(2m)! of x^(2m) in cos x."""
    return Fraction((-1) ** m, factorial(2 * m))


def sinc_coeff(m: int) -> Fraction:
    """Coefficient (-1)^m/(2m+1)! of x^(2m) in sinc x (and of x^(2m+1) in sin x)."""
    return Fraction((-1) ** m, factorial(2 * m + 1))


def p_coeff(m: int) -> Fraction:
    """Coefficient (-1)^m 2(m+1)/(2m+3)! of x^(2m) in p x = (sin x - x cos x)/x^3."""
    return Fraction((-1) ** m * 2 * (m + 1), factorial(2 * m + 3))


N_TERMS = 20  # series terms per direct enclosure; tails < 1e-36 on |x| <= 2


_COS_COEFFS, _SINC_COEFFS, _P_COEFFS = (
    tuple(rational_enclosure(coeff(m)) for m in range(N_TERMS))
    for coeff in (cos_coeff, sinc_coeff, p_coeff)
)

# 1/(2N)! as an interval, for the cos/sinc tail bound mag^(2N)/(2N)!
_INV_FACT_2N = rational_enclosure(abs(cos_coeff(N_TERMS)))
# coefficient of the first omitted p term p_coeff(N) x^(2N)
_P_OMITTED = rational_enclosure(p_coeff(N_TERMS))


@functools.cache
def _p_terms_decrease() -> bool:
    # t_m = |p_coeff(m)| x^(2m); on the call domain [0, pi/2 + ulp], where
    # x^2 < 5/2, consecutive ratios must stay < 1 so the first-omitted-term
    # bound is valid from every truncation point
    return all(
        Fraction(m + 2, m + 1) * Fraction(5, 2) / ((2 * m + 4) * (2 * m + 5)) < 1 for m in range(256)
    )


def _even_enc(coeffs, x: Interval, name: str) -> Interval:
    """The even series sum_m coeffs[m] x^(2m) plus the Lagrange tail
    mag(x)^(2N)/(2N)!, valid for cos and for sinc (whose tail is even
    smaller term by term), on |x| <= 2."""
    if x.mag() > 2.0:
        raise DomainError(f"{name} guard |x|<=2 violated: {x}")
    t = (int_pow(Interval.point(x.mag()), 2 * N_TERMS) * _INV_FACT_2N).hi
    return horner(coeffs, int_pow(x, 2)) + Interval(-t, t)


def cos_enc(x: Interval) -> Interval:
    """Enclosure of cos over x; requires |x| <= 2."""
    return _even_enc(_COS_COEFFS, x, "cos_enc")


def sinc_enc(x: Interval) -> Interval:
    """Enclosure of sin(x)/x (value 1 at 0); requires |x| <= 2."""
    return _even_enc(_SINC_COEFFS, x, "sinc_enc")


def p_enc(x: Interval) -> Interval:
    """Enclosure of (sin x - x cos x)/x^3 (value 1/3 at 0) on [0, pi/2 + ulp]."""
    if x.lo < 0.0 or x.hi > _HALF_PI_HI:
        raise DomainError(f"p_enc domain [0, pi/2 + ulp] violated: {x}")
    if not _p_terms_decrease():
        raise AssertionError("p-series terms not decreasing")  # pragma: no cover
    # the terms alternate and decrease, so the remainder lies between 0 and
    # the first omitted term
    t = int_pow(Interval.point(x.mag()), 2 * N_TERMS) * _P_OMITTED
    return horner(_P_COEFFS, int_pow(x, 2)) + Interval(min(t.lo, 0.0), max(t.hi, 0.0))
