"""Exact truncated power series with rigorous tail-coefficient bounds.

This is the engine behind the near-endpoint proofs and the box margins,
which `eval` encloses by Horner, narrowed by the Bernstein bound where
Horner leaves the sign open.  A `PowerSeries` represents, on |u| <= radius,

    f(u)  in  sum_{k<=D} c_k u^k  +  [-tail, tail] * u^(D+1),

where the polynomial coefficients c_k are EXACT elements of Q[pi, 1/pi]
and only the scalar `tail` is a rounded-up float.  The tail is a
coefficient of u^(D+1), valid on |u| <= radius: every operation keeps
that invariant, so a remainder's value at the radius is never stored
where a coefficient is meant.  The crucial property over an
additive-remainder model: dividing by u^k is a plain coefficient shift,
because the error term carries its own power of u.  That is what makes
"divide out the vanishing order, then bound the quotient below" sound on
a half-open interval (0, b].

The coefficients are kept as integer numerator rows, one row per power
of pi, over one positive common denominator that is reduced after every
operation (so it is the lcm of the coefficients' denominators).  Sums,
products and `mul_term`, the one product by an exact monomial c u^j (a
shift, then a scaling), work on those integers directly, and each
coefficient enclosure is the tightest one over pi's float bracket (see
`_enclosures`).  A product computes its coefficients
only through u^D; the terms a_i b_j u^(i+j), i + j > D, that it drops
fold into the tail as sum_i |a_i| H_b[D+1-i], where H_b[k] >= sum_{j>=k}
|b_j| r^(j-k) are the suffix bounds of the second factor, one upward
Horner pass over its coefficient magnitudes, and H_b[0] is its disc bound
`sup`.  The rows are the only way into a
series: `ps_poly` builds them from exact values (`PiPoly`, `Fraction` or
int), and `coefficient(n)` and `coeffs` read them back as `PiPoly`.
Exact coefficients mean that structurally zero coefficients cancel
exactly, even when pi enters the expansion (the endpoint pi/2 is not a
float, so expansions there live in Q[pi, 1/pi] rather than Q).

The Taylor coefficients of the three entire building blocks (sin is
x sinc) are written once, here:

    cos x
    sinc x = sin x / x               (= 1 at x = 0)
    p x    = (sin x - x cos x) / x^3 (= 1/3 at x = 0, "sine defect ratio")

The series for p, sum_{m>=0} (-1)^m 2(m+1) x^(2m) / (2m+3)!, is not taken
on faith: the test suite re-derives it from an exact rational subtraction
of the sin and x*cos series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, inf, isfinite, lcm

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
    _pow_up,
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

def exp_tail_bound(first_index: int, radius: float) -> float:
    """Tail coefficient of u^K, K = first_index, on |u| <= r = radius, for a
    series with |c_k| <= 1/k!.

    sum_{k>=K} |c_k| |u|^(k-K) <= sum_{k>=K} r^(k-K)/k!, and the ratio of
    consecutive terms is at most r/(K+1), so the sum is at most
    1/K! / (1 - r/(K+1)); returned rounded up.
    """
    k = first_index
    if k < 0 or not isfinite(radius):
        raise DomainError("exp tail bound needs first_index >= 0 and a finite radius")
    r = Fraction(radius)
    if r >= k + 1:
        raise DomainError("exp tail bound needs radius < first_index + 1")
    return rational_enclosure(Fraction(1, factorial(k)) / (1 - r / (k + 1))).hi


def _suffix_sums(mags, r: float) -> list:
    """H[k] >= sum_{i>=k} mags[i] r^(i-k) for k = 0 .. len(mags), mags[i] >= 0
    and H[len(mags)] = 0: one upward Horner pass from the last magnitude."""
    h = [0.0]
    for m in reversed(mags):
        h.append(_add_up(_mul_up(h[-1], r), m))
    h.reverse()
    return h


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

    __slots__ = ("degree", "tail", "radius", "_rows", "_den", "_encs", "_sup", "_square")

    def __init__(self, rows: tuple, den: int, degree: int, tail: float, radius: float):
        if degree < 0 or not 0.0 < radius < inf:  # NaN included
            raise DomainError("PowerSeries needs degree >= 0 and a positive finite radius")
        if not tail >= 0.0:
            raise DomainError("PowerSeries tail must be non-negative")
        for name, value in (
            ("degree", degree), ("tail", float(tail)), ("radius", float(radius)),
            ("_rows", rows), ("_den", den), ("_encs", None), ("_sup", None), ("_square", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    def _of_rows(self, acc: dict, den: int, degree: int, tail: float) -> "PowerSeries":
        """A series of this radius from unreduced rows {pi power: numerators}."""
        return PowerSeries(*_reduced(acc, den), degree, tail, self.radius)

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

    def _suffix_bounds(self) -> tuple:
        """H[k] >= sum_{j>=k} |c_j| r^(j-k), r = radius, for k = 0 .. degree + 1
        (H[degree + 1] = 0): `_suffix_sums` of the coefficient magnitudes, cached."""
        if self._sup is None:
            mags = [c.mag() for c in self.coefficient_enclosures()]
            object.__setattr__(self, "_sup", tuple(_suffix_sums(mags, self.radius)))
        return self._sup

    def sup(self) -> float:
        """Bound on |sum_k c_k u^k| over |u| <= r = radius, the tail left out:
        H[0], bit for bit the magnitude of the interval Horner value on [-r, r],
        whose every product [lo, hi] * [-r, r] is r * max(-lo, hi) * [-1, 1]."""
        return self._suffix_bounds()[0]

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "PowerSeries") -> None:
        if self.degree != other.degree or self.radius != other.radius:
            raise DomainError("PowerSeries degree/radius mismatch")

    def _plus(self, other: "PowerSeries", sign: int) -> "PowerSeries":
        self._check_compatible(other)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        acc = {k: [fa * x for x in row] for k, row in self._rows}
        for k, row in other._rows:
            mine = acc.get(k)
            acc[k] = [fb * y for y in row] if mine is None else [x + fb * y for x, y in zip(mine, row)]
        return self._of_rows(acc, den, self.degree, _add_up(self.tail, other.tail))

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self._plus(other, -1)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_compatible(other)
        d, r = self.degree, self.radius
        # integer convolution through u^d, one row per pair of pi powers,
        # over the product of the two common denominators, zero numerators
        # skipped; the sorted terms of b stop at the first power past d
        sparse_b = [(kb, [(j, y) for j, y in enumerate(row) if y]) for kb, row in other._rows]
        sums = {}
        for ka, row_a in self._rows:
            terms_a = [(i, x) for i, x in enumerate(row_a) if x]
            for kb, terms_b in sparse_b:
                acc = sums.setdefault(ka + kb, [0] * (d + 1))
                for i, x in terms_a:
                    for j, y in terms_b:
                        if i + j > d:
                            break
                        acc[i + j] += x * y
        # the dropped terms a_i b_j u^(i+j), i + j > d: sum_i |a_i| H_b[d+1-i]
        h_b = other._suffix_bounds()
        tail = 0.0
        for i, e in enumerate(self.coefficient_enclosures()[1:], 1):
            if e.hi or e.lo:  # a zero coefficient adds 0 * H exactly
                tail = _add_up(tail, _mul_up(e.mag(), h_b[d + 1 - i]))
        # a zero tail contributes sup * 0 = 0, so its partner's sup is not needed
        tail = _add_up(tail, _mul_up(self.sup(), other.tail) if other.tail else 0.0)
        tail = _add_up(tail, _mul_up(h_b[0], self.tail) if self.tail else 0.0)
        tail = _add_up(tail, _mul_up(_mul_up(self.tail, other.tail), _pow_up(r, d + 1)))
        return self._of_rows(sums, self._den * other._den, d, tail)

    def int_pow(self, k: int) -> "PowerSeries":
        if k < 0:
            raise DomainError("PowerSeries.int_pow exponent must be non-negative")
        if k == 0:
            return ps_poly({0: 1}, self.degree, self.radius)
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

    def mul_term(self, c, j: int) -> "PowerSeries":
        """Multiply by the exact monomial c u^j, 0 <= j <= degree + 1, c a
        PiPoly, Fraction or int, keeping the degree fixed: the shift first,
        its overflow folded into the tail, then the scaling by c."""
        d, r = self.degree, self.radius
        if not 0 <= j <= d + 1:
            raise DomainError(f"mul_term needs 0 <= j <= {d + 1}, got {j}")
        over = [e.mag() for e in _enclosures(self._rows, self._den, range(d + 1 - j, d + 1))]
        tail = _add_up(_suffix_sums(over, r)[0], _mul_up(self.tail, _pow_up(r, j)))
        shifted = [(k, [0] * j + row[: d + 1 - j]) for k, row in self._rows]
        if c == 1:  # the shift alone, with no PiPoly or enclosure of the unit
            return self._of_rows(dict(shifted), self._den, d, tail)
        c = c if isinstance(c, PiPoly) else PiPoly.rational(c)
        c_rows, c_den = _rows_of([c.terms])
        acc = {}
        for kc, (m,) in c_rows:
            for k, row in shifted:
                term = [m * x for x in row]
                mine = acc.get(k + kc)
                acc[k + kc] = term if mine is None else [x + y for x, y in zip(mine, term)]
        return self._of_rows(acc, self._den * c_den, d, _mul_up(tail, c.enclosure().mag()))

    # -- endpoint-proof operations ------------------------------------------

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
        s = _mul_up(_suffix_sums([e.mag() for e in encs[_BERNSTEIN_DEGREE + 1:]], m)[0],
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


def _entire_series(coeff, odd: bool, degree: int, radius: float) -> PowerSeries:
    """coeff(m) at the power 2m (2m + 1 if odd), zeros elsewhere.  The tail
    coefficient needs every coefficient of u^k to be at most 1/k! in magnitude."""
    terms = [{}] * (degree + 1)
    for k in range(int(odd), degree + 1, 2):
        terms[k] = {0: coeff(k // 2)}
    return PowerSeries(*_rows_of(terms), degree, exp_tail_bound(degree + 1, radius), radius)


def ps_cos(degree: int, radius: float) -> PowerSeries:
    return _entire_series(cos_coeff, False, degree, radius)


def ps_sin(degree: int, radius: float) -> PowerSeries:
    return _entire_series(sinc_coeff, True, degree, radius)


def ps_sinc(degree: int, radius: float) -> PowerSeries:
    return _entire_series(sinc_coeff, False, degree, radius)


def ps_p(degree: int, radius: float) -> PowerSeries:
    return _entire_series(p_coeff, False, degree, radius)
