"""Exact truncated power series with rigorous tail-coefficient bounds.

This is the engine behind the near-endpoint proofs and the box margins,
which `eval` encloses by Horner, narrowed by the Bernstein bound where
Horner leaves the sign open.  A `PowerSeries` represents, on |u| <= radius,

    f(u)  in  sum_{k<=D} c_k u^k  +  [-tail, tail] * u^(D+1),

where the polynomial coefficients c_k are EXACT elements of Q[pi, 1/pi]
and only the scalar `tail` is a rounded-up float.  The tail is a
coefficient of u^(D+1), valid on |u| <= radius, so a remainder's value
at the radius is never stored where a coefficient is meant.  The crucial
property over an additive-remainder model: dividing by u^k is a plain
coefficient shift, because the error term carries its own power of u.
That is what makes "divide out the vanishing order, then bound the
quotient below" sound on a half-open interval (0, b].

The coefficients are kept as integer numerator rows, one row per power
of pi, over one positive common denominator, reduced by the gcd (so it
is the lcm of the coefficients' denominators); each coefficient
enclosure is the tightest one over pi's float bracket (see
`_enclosures`).  Exact coefficients mean that structurally zero
coefficients cancel exactly, even when pi enters the expansion (the
endpoint pi/2 is not a float, so expansions there live in Q[pi, 1/pi]).

Every series of a form is written in closed form by `ps_trig`.  A form
cleared of its denominators is a finite sum of terms c u^j cos(k u) and
c u^j sin(k u) (the certifier linearizes it), and the Taylor series

    cos(k u) = sum_{m even} (-1)^(m/2) k^m u^m / m!,
    sin(k u) = sum_{m odd} (-1)^((m-1)/2) k^m u^m / m!

give each term's coefficient of u^(j+m) directly: no series is
multiplied by another.  The tail holds the exact coefficients of
u^(D+1) .. u^(D+E), E = _EXACT_TAIL, and bounds each term past u^(D+E)
by its closed-form exponential remainder (`_exp_tail`).  `ps_poly`
builds a series from exact values, and `coefficient(n)` and `coeffs`
read the rows back as `PiPoly`.

`cos_coeff`, `sinc_coeff` and `p_coeff` write the Taylor coefficients of
cos, sinc x = sin x / x and p x = (sin x - x cos x) / x^3 once for the
direct enclosures of `enclosures`; the test suite re-derives p's from an
exact rational subtraction of the sin and x*cos series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, inf, lcm, nextafter

from .errors import DomainError, OrderMismatch
from .interval import (
    Interval,
    certainly_negative,
    certainly_positive,
    horner,
    rational_enclosure,
    _PI_HI,
    _PI_LO,
    _add_down,
    _add_up,
    _div_down,
    _div_up,
    _mul_bounds,
    _mul_up,
    _pow_down,
    _pow_up,
    _sub_down,
)


def cos_coeff(m: int) -> Fraction:
    """Coefficient (-1)^m/(2m)! of x^(2m) in cos x."""
    return Fraction((-1) ** m, factorial(2 * m))


def sinc_coeff(m: int) -> Fraction:
    """Coefficient (-1)^m/(2m+1)! of x^(2m) in sinc x (and of x^(2m+1) in sin x)."""
    return Fraction((-1) ** m, factorial(2 * m + 1))


def p_coeff(m: int) -> Fraction:
    """Coefficient (-1)^m 2(m+1)/(2m+3)! of x^(2m) in p x."""
    return Fraction((-1) ** m * 2 * (m + 1), factorial(2 * m + 3))


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
        """The tightest interval around the exact bracket of the value over
        pi's float bracket (see `_enclosures`)."""
        return _enclosures(*_rows_of([self.terms]), (0,))[0]

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


_ZERO_ENC = Interval(0.0, 0.0)


# ---------------------------------------------------------------------------
# coefficients as integer rows
# ---------------------------------------------------------------------------
# The exact coefficients of a series of degree D are (rows, den): rows is a
# tuple of (power of pi, list of D + 1 integer numerators) in increasing
# power with no all-zero row, and den > 0 is the common denominator, so the
# coefficient of u^n is sum_k rows[k][n] pi^k / den.

def _rows_of(terms) -> tuple:
    """(rows, den) of coefficients given as {pi power: nonzero Fraction} maps,
    over the lcm of their denominators."""
    den = lcm(*(v.denominator for t in terms for v in t.values()))
    acc = {}
    for n, t in enumerate(terms):
        for k, v in t.items():
            acc.setdefault(k, [0] * len(terms))[n] = v.numerator * (den // v.denominator)
    return tuple(sorted(acc.items())), den


def _reduced(acc: dict, den: int) -> tuple:
    """(rows, den) from rows {pi power: numerators} over den: zero rows
    dropped and the gcd of den and every numerator divided out."""
    rows = [(k, row) for k, row in sorted(acc.items()) if any(row)]
    g = gcd(den, *(x for _, row in rows for x in row))
    if g != 1:
        rows = [(k, [x // g for x in row]) for k, row in rows]
    return tuple(rows), den // g


@lru_cache(maxsize=256)
def _pi_scale(powers: tuple) -> tuple:
    """(scale, ends): ends[i] holds the integers scale * p^k, k = powers[i],
    at the two ends p of [_PI_LO, _PI_HI], the lesser first, and scale is
    the lcm of the denominators of those p^k (1 for no powers)."""
    ends = [sorted(Fraction(p) ** k for p in (_PI_LO, _PI_HI)) for k in powers]
    scale = lcm(*(e.denominator for pair in ends for e in pair))
    return scale, [[e.numerator * (scale // e.denominator) for e in pair] for pair in ends]


def _enclosures(rows, den: int, indices) -> list:
    """Enclosures of the coefficients at `indices`: each sum_k n_k pi^k / den
    is bounded below and above exactly, as integers over den * scale, each
    pi^k taken at the end of [_PI_LO, _PI_HI] that lowers (raises) its term,
    and only those two bounds are rounded, outward, so a rational
    coefficient takes the tightest enclosure of its value; 0 is [0, 0]."""
    scale, ends = _pi_scale(tuple(k for k, _ in rows))
    terms = [(row, pair) for (_, row), pair in zip(rows, ends)]
    d, encs = den * scale, []
    for n in indices:
        lo = hi = 0
        for row, (small, large) in terms:
            x = row[n]
            lo, hi = (lo + x * small, hi + x * large) if x > 0 else (lo + x * large, hi + x * small)
        if lo == hi:
            encs.append(rational_enclosure(lo, d) if lo else _ZERO_ENC)
        else:
            encs.append(Interval(rational_enclosure(lo, d).lo, rational_enclosure(hi, d).hi))
    return encs


# ---------------------------------------------------------------------------
# tail-bound helpers
# ---------------------------------------------------------------------------

def _horner_sum(mags, r: float) -> float:
    """An upper bound on sum_i mags[i] r^i, mags[i] >= 0: one upward Horner
    pass from the last magnitude."""
    h = 0.0
    for m in reversed(mags):
        h = _add_up(_mul_up(h, r), m)
    return h


@lru_cache(maxsize=1024)
def _exp_tail(k: int, m: int, r: float) -> float:
    """Upper bound on sum_{i>=m} k^i r^(i-m) / i!, k >= 0, rounded up: the
    ratio of consecutive terms is at most k r / (m + 1), so the sum is at
    most k^m/m! / (1 - k r/(m + 1)), which needs k r < m + 1."""
    gap = _sub_down(m + 1.0, _mul_up(float(k), r))
    if not gap > 0.0:  # NaN included
        raise DomainError(f"cos/sin({k} u) has no closed-form tail on |u| <= {r}; raise the degree")
    return _div_up(_mul_up(rational_enclosure(k**m, factorial(m)).hi, m + 1.0), gap)


@lru_cache(maxsize=64)
def _pi_power_up(q: int) -> float:
    """pi^q rounded up, from the end of pi's float bracket that raises it."""
    return _pow_up(_PI_HI, q) if q >= 0 else _div_up(1.0, _pow_down(_PI_LO, -q))


_BERNSTEIN_DEGREE = 24  # N: the Bernstein form of eval takes N + 1 coefficients


def _bernstein_range(encs, lo: float, hi: float) -> tuple:
    """Least and greatest Bernstein coefficient on [lo, hi], lo < hi, of the
    polynomial of coefficient enclosures encs, which bound its range there
    (Garloff 1985): a Taylor shift to lo, a scaling by w^j / C(n, j) with
    w = hi - lo, and n rounds of forward sums, on float endpoint pairs."""
    n = len(encs) - 1  # at most 24, so each C(n, j) is an exact float
    c = [(e.lo, e.hi) for e in encs]
    for i in range(n if lo else 0):  # the shift, skipped when lo is 0
        for j in range(n - 1, i - 1, -1):
            a, b = _mul_bounds(c[j + 1][0], c[j + 1][1], lo, lo)
            c[j] = _add_down(c[j][0], a), _add_up(c[j][1], b)
    w_lo, w_hi = _add_down(hi, -lo), _add_up(hi, -lo)
    p_lo = p_hi = 1.0
    for j in range(n + 1):
        a, b = _mul_bounds(c[j][0], c[j][1], p_lo, p_hi)
        c[j] = _div_down(a, float(comb(n, j))), _div_up(b, float(comb(n, j)))
        p_lo, p_hi = _mul_bounds(p_lo, p_hi, w_lo, w_hi)
    for r in range(1, n + 1):
        for j in range(n, r - 1, -1):
            c[j] = _add_down(c[j][0], c[j - 1][0]), _add_up(c[j][1], c[j - 1][1])
    return min(a for a, _ in c), max(b for _, b in c)


# ---------------------------------------------------------------------------
# the PowerSeries type
# ---------------------------------------------------------------------------

class PowerSeries:
    """The series sum_n c_n u^n + [-tail, tail] u^(degree+1) on |u| <= radius,
    its coefficients c_n given as reduced integer rows over den (see
    "coefficients as integer rows" above).
    Build one from exact values with `ps_poly`."""

    __slots__ = ("degree", "tail", "radius", "_rows", "_den", "_encs")

    def __init__(self, rows: tuple, den: int, degree: int, tail: float, radius: float):
        if degree < 0 or not 0.0 < radius < inf:  # NaN included
            raise DomainError("PowerSeries needs degree >= 0 and a positive finite radius")
        if not tail >= 0.0:
            raise DomainError("PowerSeries tail must be non-negative")
        for name, value in (
            ("degree", degree), ("tail", float(tail)), ("radius", float(radius)),
            ("_rows", rows), ("_den", den), ("_encs", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    def coefficient(self, n: int) -> PiPoly:
        """The exact coefficient of u^n."""
        return PiPoly({k: Fraction(row[n], self._den) for k, row in self._rows if row[n]})

    @property
    def coeffs(self) -> tuple:
        """The exact coefficients of u^0 .. u^degree as PiPoly."""
        return tuple(self.coefficient(n) for n in range(self.degree + 1))

    def coefficient_enclosures(self):
        if self._encs is None:
            object.__setattr__(
                self, "_encs", tuple(_enclosures(self._rows, self._den, range(self.degree + 1)))
            )
        return self._encs

    def divide_power(self, k: int) -> "PowerSeries":
        """Exact division by u^k, k <= degree; the first k coefficients must vanish exactly."""
        if not 0 <= k <= self.degree:
            raise DomainError(f"divide_power needs 0 <= k <= {self.degree}, got {k}")
        for i in range(k):
            if any(row[i] for _, row in self._rows):
                raise OrderMismatch(
                    f"coefficient of u^{i} is {self.coefficient(i)!r}, expected exact 0"
                )
        # the dropped numerators are zeros, so the rows stay reduced
        rows = tuple((kk, row[k:]) for kk, row in self._rows)
        return PowerSeries(rows, self._den, self.degree - k, self.tail, self.radius)

    def eval(self, u: Interval) -> Interval:
        """Enclosure of the series over u: interval Horner on the polynomial
        part P plus the tail [-t, t], t = tail * |u|^(degree+1), P narrowed where
        that leaves the sign open by the Bernstein bound on u of its first N + 1
        terms, N = _BERNSTEIN_DEGREE, plus [-s, s], s >= sum |c_j| |u|^j of the rest."""
        m = u.mag()
        if m > self.radius:
            raise DomainError("PowerSeries evaluated outside its radius")
        t = _mul_up(self.tail, _pow_up(m, self.degree + 1))
        encs = self.coefficient_enclosures()
        poly = horner(encs, u)
        value = poly + Interval(-t, t)
        if certainly_positive(value) or certainly_negative(value) or u.lo == u.hi:
            return value
        s = _mul_up(_horner_sum([e.mag() for e in encs[_BERNSTEIN_DEGREE + 1:]], m),
                    _pow_up(m, _BERNSTEIN_DEGREE + 1))
        lo, hi = _bernstein_range(encs[: _BERNSTEIN_DEGREE + 1], u.lo, u.hi)
        # both contain the range of P over u, so they meet; an empty meet
        # is a kernel fault, and Interval refuses it
        bound = Interval(max(poly.lo, _add_down(lo, -s)), min(poly.hi, _add_up(hi, s)))
        return bound + Interval(-t, t)

    def __repr__(self) -> str:
        return (
            f"PowerSeries(degree={self.degree}, tail={self.tail:.3e}, "
            f"radius={self.radius})"
        )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def ps_poly(terms: dict, degree: int, radius: float, tail: float = 0.0) -> PowerSeries:
    """sum_k terms[k] u^k + [-tail, tail] u^(degree+1) on |u| <= radius;
    `terms` maps a power in [0, degree] to a PiPoly, Fraction or int."""
    coeffs = [{}] * (degree + 1)
    for k, v in terms.items():
        if not 0 <= k <= degree:
            raise DomainError(f"ps_poly power {k} is outside [0, {degree}]")
        coeffs[k] = (v if isinstance(v, PiPoly) else PiPoly.rational(v)).terms
    return PowerSeries(*_rows_of(coeffs), degree, tail, radius)


# E: a series of degree D takes the exact coefficients of u^(D+1) .. u^(D+E)
# into its tail and bounds every power past them in closed form
_EXACT_TAIL = 8


def ps_trig(terms, den: int, degree: int, radius: float) -> PowerSeries:
    """The series on |u| <= radius of sum_t c_t u^j cos(k u) or sin(k u)
    over the terms t = (j, k, s, ((q, n), ...)): s is 0 for cos and 1 for
    sin, k >= 0, and c_t = sum n pi^q / den.  A term adds c_t (-1)^(m//2)
    k^m / m! to the coefficient of u^(j+m), m of its parity, all summed as
    integers over den * M!, M the largest m taken, and then reduced.  A
    negative j is allowed where the terms cancel below u^0.  The tail is
    the exact coefficients of u^(D+1) .. u^(D+E) by `_horner_sum`, plus
    r^E sum_t |c_t| `_exp_tail`(k, D+E+1-j, r) for the powers past them."""
    d, r, top = degree, radius, degree + _EXACT_TAIL
    low = min([0, *(t[0] for t in terms)])
    m_top = top - low
    # fact[m] = m_top!/m!, and each k's weights (-1)^(m//2) k^m m_top!/m!
    fact = [1] * (m_top + 1)
    for m in range(m_top, 0, -1):
        fact[m - 1] = fact[m] * m
    weights, acc, rest = {}, {}, 0.0
    for j, k, s, coeffs in terms:
        w = weights.get(k)
        if w is None:
            w = weights[k] = [k**m * f if m % 4 < 2 else -(k**m) * f for m, f in enumerate(fact)]
        stop = top - j if k else min(top - j, 0)  # cos(0 u) = 1 has u^0 alone
        lo, hi = j + s - low, j + stop - low + 1
        for q, n in coeffs:
            row = acc.get(q) or acc.setdefault(q, [0] * (m_top + 1))
            row[lo:hi:2] = [x + n * y for x, y in zip(row[lo:hi:2], w[s : stop + 1 : 2])]
        if k or j > top:  # the powers past u^top, from u^(j+m)
            m = max(top + 1, j) - j
            # |c_t| <= sum |n| pi^q / den, each quotient rounded to nearest and
            # then stepped up
            bound = 0.0
            for q, n in coeffs:
                bound = _add_up(bound, _mul_up(nextafter(abs(n) / den, inf), _pi_power_up(q)))
            bound = _mul_up(bound, _exp_tail(k, m, r))
            if j > top + 1:  # r^(j+m-D-1) = r^E r^(j-top-1) when m = 0
                bound = _mul_up(bound, _pow_up(r, j - top - 1))
            rest = _add_up(rest, bound)
    if any(row[n] for row in acc.values() for n in range(-low)):
        raise DomainError("the terms leave a negative power of u")
    den *= fact[0]
    rows = tuple(sorted(acc.items()))
    over = [e.mag() for e in _enclosures(rows, den, range(d + 1 - low, top + 1 - low))]
    tail = _add_up(_horner_sum(over, r), _mul_up(rest, _pow_up(r, _EXACT_TAIL)))
    return PowerSeries(*_reduced({q: row[-low : d + 1 - low] for q, row in rows}, den), d, tail, r)
