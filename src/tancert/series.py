"""Exact truncated power series with rigorous tail-coefficient bounds.

This is the engine behind the near-endpoint proofs and the box margins,
which `eval` encloses by Horner, narrowed by the Bernstein bound where
Horner leaves the sign open.  A `PowerSeries` represents, on |u| <= radius,

    f(u)  in  sum_{k<=D} c_k u^k  +  [-tail, tail] * u^(D+1),

where the polynomial coefficients c_k are EXACT elements of Q[pi, 1/pi]
and only the scalar `tail` is a float, its exact value rounded up.  The
tail is a coefficient of u^(D+1), valid on |u| <= radius, so a remainder's
value at the radius is never stored where a coefficient is meant.  The
crucial property over an additive-remainder model: dividing by u^k is a
plain coefficient shift, because the error term carries its own power of
u.  That is what makes "divide out the vanishing order, then bound the
quotient below" sound on a half-open interval (0, b].

The coefficients are kept as integer numerator rows, one row per power
of pi, over one positive common denominator, reduced by the gcd (so it
is the lcm of the coefficients' denominators), so structurally zero
coefficients cancel exactly, even when pi enters the expansion (the
endpoint pi/2 is not a float, so expansions there live in Q[pi, 1/pi]).
`eval` bounds a series in integers from the coefficients' exact brackets
over pi's float bracket (`_brackets`), and rounds only its two ends.

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
from math import factorial, gcd, inf, lcm

from .errors import DomainError, OrderMismatch
from .interval import Interval, rational_enclosure, _PI_HI, _PI_LO


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

    def __add__(self, other: "PiPoly") -> "PiPoly":
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t[k] + v if k in t else v
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
        pi's float bracket (see `_brackets`)."""
        (lo,), (hi,), d = _brackets(*_rows_of([self.terms]), (0,))
        return Interval(rational_enclosure(lo, d).lo, rational_enclosure(hi, d).hi)

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


def _brackets(rows, den: int, indices) -> tuple:
    """(lower, upper, d): integers lower[i] <= d * c_n <= upper[i] for each
    coefficient c_n = sum_k n_k pi^k / den, n = indices[i], each pi^k taken
    at the end of [_PI_LO, _PI_HI] that lowers (raises) its term; d is
    den * scale (see `_pi_scale`), and a rational c_n has lower = upper."""
    scale, ends = _pi_scale(tuple(k for k, _ in rows))
    terms = [(row, pair) for (_, row), pair in zip(rows, ends)]
    lower, upper = [], []
    for n in indices:
        lo = hi = 0
        for row, (small, large) in terms:
            x = row[n]
            lo, hi = (lo + x * small, hi + x * large) if x > 0 else (lo + x * large, hi + x * small)
        lower.append(lo)
        upper.append(hi)
    return lower, upper, den * scale


# ---------------------------------------------------------------------------
# exact range bounds
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _exp_tail(k: int, m: int, r: float) -> Fraction:
    """Exact upper bound on sum_{i>=m} k^i r^(i-m) / i!, k >= 0: the ratio of
    consecutive terms is at most k r / (m + 1), so the sum is at most
    k^m/m! / (1 - k r/(m + 1)), which needs k r < m + 1."""
    # rounding is monotone and m + 1 is a float, so the float test is exact
    if not k * r < m + 1:  # NaN included
        raise DomainError(f"cos/sin({k} u) has no closed-form tail on |u| <= {r}; raise the degree")
    n, d = r.as_integer_ratio()
    return Fraction(k**m * (m + 1) * d, factorial(m) * ((m + 1) * d - k * n))


_BERNSTEIN_DEGREE = 24  # N: the Bernstein form of eval takes N + 1 coefficients


def _bernstein(coeffs, a: int, w: int, e: int) -> list:
    """n! d 2^(e n) times the Bernstein coefficients on [a, a + w] / 2^e,
    a >= 0, of the polynomial sum_j coeffs[j] u^j / d, n = len(coeffs) - 1,
    which bound its range there (Garloff 1985): a Taylor shift by a, a
    scaling by w^j j! (n - j)!, and n rounds of forward sums, in integers."""
    n = len(coeffs) - 1
    c = [x << e * (n - j) for j, x in enumerate(coeffs)]
    for i in range(n if a else 0):  # the shift, skipped when a is 0
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    p = 1
    for j in range(n + 1):
        c[j] *= p * factorial(j) * factorial(n - j)
        p *= w
    for r in range(1, n + 1):
        for j in range(n, r - 1, -1):
            c[j] += c[j - 1]
    return c


def _horner_end(coeffs, pos: tuple, neg: tuple) -> tuple:
    """One end (x, s), x / 2^s, of interval Horner over u >= 0 on one end of
    each coefficient: the accumulator is multiplied by pos = (m, g), the end
    m / 2^g of u that keeps it outermost when it is positive, and by neg
    when it is negative, so each end carries only its own powers of 2."""
    x = s = 0
    for c in reversed(coeffs):
        if x:
            m, g = pos if x > 0 else neg
            x, s = x * m, s + g
        x += c << s
    return x, s


def _rounded(terms, d: int) -> Interval:
    """The tightest Interval around sum x / (d 2^s) over the (x, s) in terms:
    the exact sum, rounded outward once."""
    top = max(s for _, s in terms)
    return rational_enclosure(sum(x << top - s for x, s in terms), d << top)


def _range(lower, upper, d: int, tail: float, a: float, b: float) -> Interval:
    """Enclosure over [a, b], 0 <= a <= b, of sum_n c_n u^n + [-tail, tail]
    u^(N+1), c_n in [lower[n], upper[n]] / d: interval Horner plus the tail,
    where that leaves the sign open met with the Bernstein bound of the first
    _BERNSTEIN_DEGREE + 1 terms plus a bound on the rest and the tail, all
    exact as integers x over d 2^s, and each end rounded outward once."""
    if tail == inf and b:
        return Interval(-inf, inf)
    (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
    ga, gb = da.bit_length() - 1, db.bit_length() - 1
    N = len(lower) - 1
    lo, hi = _horner_end(lower, (na, ga), (nb, gb)), _horner_end(upper, (nb, gb), (na, ga))
    # t = tail b^(N+1), tail = T / 2^f
    T, F = tail.as_integer_ratio() if b else (0, 1)
    f = F.bit_length() - 1
    t = T * nb ** (N + 1) * d, f + gb * (N + 1)
    value = Interval(_rounded([lo, (-t[0], t[1])], d).lo, _rounded([hi, t], d).hi)
    if value.lo > 0.0 or value.hi < 0.0:
        return value
    n = min(N, _BERNSTEIN_DEGREE)
    # x / (d 2^(g+f)) >= sum_{j>n} |c_j| b^j + t, tail taken as coefficient N + 1
    mags = [max(-y, z) << f for y, z in zip(lower[n + 1 :], upper[n + 1 :])]
    x, g = _horner_end([0] * (n + 1) + mags + [T * d], (nb, gb), None)
    # the Bernstein coefficients are over n! d 2^(e n), so the rest takes n!
    e, k = max(ga, gb), factorial(n)
    A, B = na << e - ga, nb << e - gb
    low, high = (_bernstein(c[: n + 1], A, B - A, e) for c in (lower, upper))
    low = _rounded([(min(low), e * n), (-k * x, g + f)], k * d).lo
    high = _rounded([(max(high), e * n), (k * x, g + f)], k * d).hi
    # both contain the range, so they meet; an empty meet is a fault, and
    # Interval refuses it
    return Interval(max(value.lo, low), min(value.hi, high))


# ---------------------------------------------------------------------------
# the PowerSeries type
# ---------------------------------------------------------------------------

class PowerSeries:
    """The series sum_n c_n u^n + [-tail, tail] u^(degree+1) on |u| <= radius,
    its coefficients c_n given as reduced integer rows over den (see
    "coefficients as integer rows" above).
    Build one from exact values with `ps_poly`."""

    __slots__ = ("degree", "tail", "radius", "_rows", "_den", "_bounds")

    def __init__(self, rows: tuple, den: int, degree: int, tail: float, radius: float):
        if degree < 0 or not 0.0 < radius < inf:  # NaN included
            raise DomainError("PowerSeries needs degree >= 0 and a positive finite radius")
        if not tail >= 0.0:
            raise DomainError("PowerSeries tail must be non-negative")
        for name, value in (
            ("degree", degree), ("tail", float(tail)), ("radius", float(radius)),
            ("_rows", rows), ("_den", den), ("_bounds", None),
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
        """Enclosure of the series over u, computed exactly from the
        coefficient brackets and rounded outward once (see `_range`).  A box
        reaching below 0 is split there, and its negative part is the series
        in -u, whose odd coefficients change sign, over -u."""
        if u.mag() > self.radius:
            raise DomainError("PowerSeries evaluated outside its radius")
        if self._bounds is None:  # the brackets of every coefficient, computed once
            object.__setattr__(self, "_bounds", _brackets(self._rows, self._den, range(self.degree + 1)))
        lower, upper, d = self._bounds
        parts = []
        if u.hi >= 0.0:
            parts.append(_range(lower, upper, d, self.tail, max(u.lo, 0.0), u.hi))
        if u.lo < 0.0:
            flipped = [(-hi, -lo) if n % 2 else (lo, hi) for n, (lo, hi) in enumerate(zip(lower, upper))]
            parts.append(_range(*zip(*flipped), d, self.tail, max(-u.hi, 0.0), -u.lo))
        return Interval(min(p.lo for p in parts), max(p.hi for p in parts))

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
    the sum of |c_n| r^(n-D-1) over the exact coefficients of u^(D+1) ..
    u^(D+E), plus r^E sum_t |c_t| `_exp_tail`(k, D+E+1-j, r) for the powers
    past them, all exact over pi's float bracket and rounded up once."""
    if not 0.0 < radius < inf:  # NaN included; the tail takes r exactly
        raise DomainError("PowerSeries needs degree >= 0 and a positive finite radius")
    d, top = degree, degree + _EXACT_TAIL
    low = min([0, *(t[0] for t in terms)])
    m_top = top - low
    # fact[m] = m_top!/m!, and each k's weights (-1)^(m//2) k^m m_top!/m!
    fact = [1] * (m_top + 1)
    for m in range(m_top, 0, -1):
        fact[m - 1] = fact[m] * m
    # |c_t| <= sum |n| pi^q / den, each pi^q at the end of pi's bracket that
    # raises it, as integers over den * scale
    powers = sorted({q for *_, coeffs in terms for q, _ in coeffs})
    scale, ends = _pi_scale(tuple(powers))
    large = {q: pair[1] for q, pair in zip(powers, ends)}
    R, G = radius.as_integer_ratio()  # r = R / G
    weights, acc, parts = {}, {}, []
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
            # |c_t| e(k, m) r^p as a fraction: r^(j+m-D-1) = r^E r^p
            e, p = _exp_tail(k, max(top + 1, j) - j, radius), max(j - top - 1, 0)
            mag = sum(abs(n) * large[q] for q, n in coeffs)
            parts.append((mag * e.numerator * R**p, e.denominator * G**p))
    if any(row[n] for row in acc.values() for n in range(-low)):
        raise DomainError("the terms leave a negative power of u")
    # r^E times their sum, over the lcm of their denominators
    common = lcm(*(b for _, b in parts))
    total = sum(a * (common // b) for a, b in parts) * R**_EXACT_TAIL
    rest = Fraction(total, common * G**_EXACT_TAIL * den * scale)
    den *= fact[0]
    rows = tuple(sorted(acc.items()))
    # sum |c_n| r^(n-D-1) over u^(D+1) .. u^(D+E) by Horner, as x / (scaled 2^s)
    lower, upper, scaled = _brackets(rows, den, range(d + 1 - low, top + 1 - low))
    x, s = _horner_end([max(-lo, hi) for lo, hi in zip(lower, upper)], (R, G.bit_length() - 1), None)
    tail = rational_enclosure(Fraction(x, scaled << s) + rest).hi
    return PowerSeries(*_reduced({q: row[-low : d + 1 - low] for q, row in rows}, den), d, tail, radius)
