"""Exact truncated power series with rigorous tail-coefficient bounds.

This is the engine behind the near-endpoint proofs.  A `PowerSeries`
represents, on |u| <= radius,

    f(u)  in  sum_{k<=D} c_k u^k  +  [-tail, tail] * u^(D+1),

where the polynomial coefficients c_k are EXACT elements of Q[pi, 1/pi]
(type `PiPoly`) and only the scalar `tail` is a rounded-up float.  The
tail is a coefficient of u^(D+1), valid on |u| <= radius: every
operation keeps that invariant, so a remainder's value at the radius is
never stored where a coefficient is meant.  The
crucial property over an additive-remainder model: dividing by u^k is a
plain coefficient shift, because the error term carries its own power of
u.  That is what makes "divide out the vanishing order, then bound the
quotient below" sound on a half-open interval (0, b].

Exact coefficients also mean that structurally zero coefficients cancel
exactly, even when pi enters the expansion (the endpoint pi/2 is not a
float, so expansions there live in Q[pi, 1/pi] rather than Q).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .enclosures import cos_coeff, p_coeff, sinc_coeff
from .errors import DomainError, OrderMismatch
from .interval import (
    Interval,
    horner,
    int_pow,
    pi_enclosure,
    rational_enclosure,
    _add_down,
    _add_up,
    _mul_up,
    _pow_up,
)


# ---------------------------------------------------------------------------
# Laurent polynomials in pi over Q
# ---------------------------------------------------------------------------

class PiPoly:
    """Exact element of Q[pi, 1/pi]: a map {power of pi -> Fraction}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, v in terms.items():
                if type(v) is not Fraction:
                    v = Fraction(v)
                if v:
                    clean[int(k)] = v
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PiPoly is immutable")

    @classmethod
    def rational(cls, q) -> "PiPoly":
        return cls({0: Fraction(q)})

    @classmethod
    def pi_power(cls, k: int, coeff=1) -> "PiPoly":
        return cls({k: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PiPoly") -> "PiPoly":
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t[k] + v if k in t else v
        return PiPoly(t)

    def __sub__(self, other: "PiPoly") -> "PiPoly":
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t[k] - v if k in t else -v
        return PiPoly(t)

    def __neg__(self) -> "PiPoly":
        return PiPoly({k: -v for k, v in self.terms.items()})

    def __mul__(self, other) -> "PiPoly":
        if not isinstance(other, PiPoly):
            other = PiPoly.rational(other)
        t = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = ka + kb
                t[k] = t[k] + va * vb if k in t else va * vb
        return PiPoly(t)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, PiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def enclosure(self) -> Interval:
        """Tight interval containing the exact value."""
        return _pi_sum([(k, rational_enclosure(v)) for k, v in sorted(self.terms.items())])

    def __repr__(self) -> str:
        if not self.terms:
            return "PiPoly(0)"
        bits = []
        for k in sorted(self.terms):
            v = self.terms[k]
            if k == 0:
                bits.append(f"{v}")
            else:
                bits.append(f"{v}*pi^{k}")
        return "PiPoly(" + " + ".join(bits) + ")"


@lru_cache(maxsize=256)
def _pi_power(k: int) -> Interval:
    """Enclosure of pi^k, k > 0, computed once per power."""
    return int_pow(pi_enclosure(), k)


def _pi_sum(terms) -> Interval:
    """Enclosure of sum_k q_k pi^k from its (k, enclosure of q_k) pairs in
    increasing k, summed on float endpoints from 0."""
    lo = hi = 0.0
    for k, t in terms:
        if k:
            t = t * _pi_power(k) if k > 0 else t / _pi_power(-k)
        lo, hi = _add_down(lo, t.lo), _add_up(hi, t.hi)
    return Interval(lo, hi)


_ZERO = PiPoly()
_ONE = PiPoly.rational(1)


# ---------------------------------------------------------------------------
# tail-bound helpers
# ---------------------------------------------------------------------------

def exp_tail_bound(first_index: int, radius: float) -> float:
    """Tail coefficient of u^K, K = first_index, on |u| <= r = radius, for a
    series with |c_k| <= 1/k!.

    sum_{k>=K} |c_k| |u|^(k-K) <= sum_{k>=K} r^(k-K)/k!, and the ratio of
    consecutive terms is at most r/(K+1), so the sum is at most
    1/K! / (1 - r/(K+1)); returned rounded up.
    """
    r = Fraction(radius)
    k = first_index
    if r >= k + 1:
        raise DomainError("exp tail bound needs radius < first_index + 1")
    return rational_enclosure(Fraction(1, factorial(k)) / (1 - r / (k + 1))).hi


def _numerator_rows(coeffs):
    """Coefficients as integers over one common denominator: returns
    ({pi power: [(index, numerator), ...]}, denominator), zeros left out."""
    den = lcm(*(v.denominator for c in coeffs for v in c.terms.values()))
    rows = {}
    for i, c in enumerate(coeffs):
        for k, v in c.terms.items():
            rows.setdefault(k, []).append((i, v.numerator * (den // v.denominator)))
    return rows, den


def _fold(mags, r: float) -> float:
    """Tail coefficient of u^(D+1) covering sum_i c_i u^(D+1+i) on |u| <= r,
    from the magnitudes mags[i] >= |c_i|: the sum of mags[i] r^i, rounded up."""
    acc = 0.0
    for i, m in enumerate(mags):
        if m:
            acc = _add_up(acc, _mul_up(m, _radius_power(r, i)))
    return acc


_radius_power = lru_cache(maxsize=1024)(_pow_up)  # r^i rounded up, once per (r, i)


# ---------------------------------------------------------------------------
# the PowerSeries type
# ---------------------------------------------------------------------------

class PowerSeries:
    __slots__ = ("coeffs", "tail", "radius", "_encs", "_sup", "_square")

    def __init__(self, coeffs, tail: float, radius: float):
        if not radius > 0.0:  # NaN included
            raise DomainError("PowerSeries radius must be positive")
        if not tail >= 0.0:
            raise DomainError("PowerSeries tail must be non-negative")
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "tail", float(tail))
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "_encs", None)
        object.__setattr__(self, "_sup", None)
        object.__setattr__(self, "_square", None)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient_enclosures(self):
        if self._encs is None:
            object.__setattr__(
                self, "_encs", tuple(c.enclosure() for c in self.coeffs)
            )
        return self._encs

    def sup(self) -> float:
        """Bound on |sum_k c_k u^k| over the disc |u| <= r = radius, the tail
        left out: the magnitude of the interval Horner value on [-r, r], whose
        every product [lo, hi] * [-r, r] is [-m, m] with m = max(-lo, hi) * r."""
        if self._sup is None:
            r, lo, hi = self.radius, 0.0, 0.0
            for c in reversed(self.coefficient_enclosures()):
                m = _mul_up(max(-lo, hi), r)
                lo, hi = _add_down(-m, c.lo), _add_up(m, c.hi)
            object.__setattr__(self, "_sup", max(abs(lo), abs(hi)))
        return self._sup

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "PowerSeries") -> None:
        if self.degree != other.degree or self.radius != other.radius:
            raise DomainError("PowerSeries degree/radius mismatch")

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_compatible(other)
        coeffs = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        return PowerSeries(coeffs, _add_up(self.tail, other.tail), self.radius)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_compatible(other)
        coeffs = [a - b for a, b in zip(self.coeffs, other.coeffs)]
        return PowerSeries(coeffs, _add_up(self.tail, other.tail), self.radius)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coeffs], self.tail, self.radius)

    def scale(self, c) -> "PowerSeries":
        if not isinstance(c, PiPoly):
            c = PiPoly.rational(c)
        mag = c.enclosure().mag()
        return PowerSeries(
            [c * a for a in self.coeffs], _mul_up(self.tail, mag), self.radius
        )

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_compatible(other)
        d = self.degree
        r = self.radius
        # integer convolution, one row per pair of pi powers, over the
        # product of the two common denominators; each output coefficient
        # is reduced once, so the exact values are those of a Fraction loop
        rows_a, den_a = _numerator_rows(self.coeffs)
        rows_b, den_b = _numerator_rows(other.coeffs)
        sums = {}
        for ka, row_a in rows_a.items():
            for kb, row_b in rows_b.items():
                acc = sums.setdefault(ka + kb, [0] * (2 * d + 1))
                for i, x in row_a:
                    for j, y in row_b:
                        acc[i + j] += x * y
        den = den_a * den_b
        conv = [
            PiPoly({k: Fraction(acc[n], den) for k, acc in sums.items() if acc[n]})
            for n in range(d + 1)
        ]
        # overflow terms (power > d) fold into the tail coefficient; they are
        # enclosed straight from the integer sums, which have the same values
        rows = sorted(sums.items())
        over = [_pi_sum([(k, rational_enclosure(acc[n], den)) for k, acc in rows if acc[n]]).mag()
                for n in range(d + 1, 2 * d + 1)]
        # a zero tail contributes sup * 0 = 0, so its partner's sup is not needed
        tail = _add_up(_fold(over, r), _mul_up(self.sup(), other.tail) if other.tail else 0.0)
        tail = _add_up(tail, _mul_up(other.sup(), self.tail) if self.tail else 0.0)
        tail = _add_up(tail, _mul_up(_mul_up(self.tail, other.tail), _pow_up(r, d + 1)))
        return PowerSeries(conv, tail, r)

    def int_pow(self, k: int) -> "PowerSeries":
        if k < 0:
            raise DomainError("PowerSeries.int_pow exponent must be non-negative")
        if k == 0:
            return ps_const(_ONE, self.degree, self.radius)
        # square-and-multiply from the first factor: the unit series times
        # base is base itself, coefficients and tail alike; each square is
        # cached on its base, so powers of one base share their lower powers
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            if base._square is None:
                object.__setattr__(base, "_square", base * base)
            base = base._square

    def mul_monomial(self, j: int) -> "PowerSeries":
        """Multiply by u^j, keeping the degree fixed."""
        if j == 0:
            return self
        d = self.degree
        r = self.radius
        coeffs = [_ZERO] * j + list(self.coeffs[: d + 1 - j])
        over = [0.0 if c.is_zero() else c.enclosure().mag() for c in self.coeffs[d + 1 - j :]]
        tail = _add_up(_fold(over, r), _mul_up(self.tail, _pow_up(r, j)))
        return PowerSeries(coeffs, tail, r)

    # -- endpoint-proof operations ------------------------------------------

    def divide_power(self, k: int) -> "PowerSeries":
        """Exact division by u^k; the first k coefficients must vanish exactly."""
        for i in range(k):
            if not self.coeffs[i].is_zero():
                raise OrderMismatch(
                    f"coefficient of u^{i} is {self.coeffs[i]!r}, expected exact 0"
                )
        return PowerSeries(self.coeffs[k:], self.tail, self.radius)

    def eval(self, u: Interval) -> Interval:
        if u.mag() > self.radius:
            raise DomainError("PowerSeries evaluated outside its radius")
        t = _mul_up(self.tail, _pow_up(u.mag(), self.degree + 1))
        return horner(self.coefficient_enclosures(), u) + Interval(-t, t)

    def __repr__(self) -> str:
        return (
            f"PowerSeries(degree={self.degree}, tail={self.tail:.3e}, "
            f"radius={self.radius})"
        )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def ps_const(c: PiPoly, degree: int, radius: float) -> PowerSeries:
    coeffs = [c] + [_ZERO] * degree
    return PowerSeries(coeffs, 0.0, radius)


def ps_poly(terms: dict, degree: int, radius: float) -> PowerSeries:
    """Exact polynomial; `terms` maps power -> PiPoly/Fraction/int."""
    coeffs = [_ZERO] * (degree + 1)
    for k, v in terms.items():
        if k > degree:
            raise DomainError("ps_poly term beyond requested degree")
        coeffs[k] = v if isinstance(v, PiPoly) else PiPoly.rational(v)
    return PowerSeries(coeffs, 0.0, radius)


def _entire_series(coeff, odd: bool, degree: int, radius: float) -> PowerSeries:
    """coeff(m) at the power 2m (2m + 1 if odd), zeros elsewhere.  The tail
    coefficient needs every coefficient of u^k to be at most 1/k! in magnitude."""
    coeffs = [_ZERO] * (degree + 1)
    for k in range(int(odd), degree + 1, 2):
        coeffs[k] = PiPoly.rational(coeff(k // 2))
    return PowerSeries(coeffs, exp_tail_bound(degree + 1, radius), radius)


def ps_cos(degree: int, radius: float) -> PowerSeries:
    return _entire_series(cos_coeff, False, degree, radius)


def ps_sin(degree: int, radius: float) -> PowerSeries:
    return _entire_series(sinc_coeff, True, degree, radius)


def ps_sinc(degree: int, radius: float) -> PowerSeries:
    return _entire_series(sinc_coeff, False, degree, radius)


def ps_p(degree: int, radius: float) -> PowerSeries:
    return _entire_series(p_coeff, False, degree, radius)
