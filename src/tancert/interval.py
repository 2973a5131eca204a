"""Intervals of binary64 floats, and the one rounding from exact to float.

An `Interval` is a closed pair of floats.  `rational_enclosure` rounds an
exact rational outward once, to the tightest Interval around it; the
margins and the cover end that certify and check compute are exact until
then.  The outward-rounded kernel on float endpoints (`+`, `*`,
`int_pow`, `horner`) serves only `enclosures` and the benchmark harness.
It keeps the enclosure contract (if a is in A and b in B then op(a, b)
lies in op_interval(A, B)) by next-representable adjustment, made tight
through error-free transformations: TwoSum for addition and Dekker's
two-product for multiplication.  Each endpoint is therefore the correctly
rounded-down (or rounded-up) value of the exact endpoint, so exact
operations (adding zero, products of small integers) stay exact.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import partial

from .errors import DomainError

_INF = math.inf
_MAX = sys.float_info.max
_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
_DEKKER_BIG = 1e290      # |operand| above this risks overflow inside the splitter
_DEKKER_TINY = 1e-290    # |product| below this risks an inexact error term


# ---------------------------------------------------------------------------
# directed-rounding scalar kernel
# ---------------------------------------------------------------------------

def _add_down(a: float, b: float) -> float:
    s = a + b
    if math.isinf(s):
        return _MAX if s > 0.0 else s
    if abs(s) > 1e300:
        return math.nextafter(s, -_INF)
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    if err < 0.0:
        return math.nextafter(s, -_INF)
    return s


def _add_up(a: float, b: float) -> float:
    s = a + b
    if math.isinf(s):
        return -_MAX if s < 0.0 else s
    if abs(s) > 1e300:
        return math.nextafter(s, _INF)
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    if err > 0.0:
        return math.nextafter(s, _INF)
    return s


def _sub_up(a: float, b: float) -> float:
    return _add_up(a, -b)


def _product_error(a: float, b: float, p: float):
    """Exact a*b - p, where p is the rounded-to-nearest product a*b.

    Dekker's two-product is exact away from overflow and underflow; near
    either the error is taken by an exact rational product instead.
    """
    if abs(a) > _DEKKER_BIG or abs(b) > _DEKKER_BIG or abs(p) < _DEKKER_TINY:
        if a == 0.0 or b == 0.0:
            return 0.0  # exact (inf * 0 never gets here)
        return Fraction(a) * Fraction(b) - Fraction(p)
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _mul_down(a: float, b: float) -> float:
    p = a * b
    if not math.isfinite(p):
        if p != p:
            if a != a or b != b:
                raise DomainError("NaN operand in a directed product")
            return 0.0  # inf * 0: every real of an unbounded end times 0 is 0
        return _MAX if p > 0.0 else p
    if _product_error(a, b, p) < 0.0:
        return math.nextafter(p, -_INF)
    return p


def _mul_up(a: float, b: float) -> float:
    p = a * b
    if not math.isfinite(p):
        if p != p:
            if a != a or b != b:
                raise DomainError("NaN operand in a directed product")
            return 0.0  # inf * 0, as in _mul_down
        return -_MAX if p < 0.0 else p
    if _product_error(a, b, p) > 0.0:
        return math.nextafter(p, _INF)
    return p


def _pow(mul, x: float, k: int) -> float:
    # square-and-multiply with one directed product; x >= 0, so the
    # directed bounds compose monotonically
    r = 1.0
    base = x
    while k:
        if k & 1:
            r = mul(r, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return r


_pow_down = partial(_pow, _mul_down)
_pow_up = partial(_pow, _mul_up)


# ---------------------------------------------------------------------------
# the Interval type
# ---------------------------------------------------------------------------

class Interval:
    """Closed interval [lo, hi] of binary64 floats; immutable by convention.

    NaN endpoints are rejected; lo <= hi always.  An infinite end is
    representable; the float kernel manufactures none from finite input,
    and `rational_enclosure` only for a rational past the largest float.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if type(lo) is not float:
            lo = float(lo)
        if type(hi) is not float:
            hi = float(hi)
        if not lo <= hi:  # also false when either endpoint is NaN
            if lo != lo or hi != hi:
                raise DomainError("NaN interval endpoint")
            raise DomainError(f"inverted interval [{lo!r}, {hi!r}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, x: float) -> "Interval":
        return cls(x, x)

    @classmethod
    def from_hex(cls, lo_hex: str, hi_hex: str) -> "Interval":
        return cls(float.fromhex(lo_hex), float.fromhex(hi_hex))

    # -- serialization -----------------------------------------------------

    def to_hex(self) -> tuple[str, str]:
        """Hex-float string pair; round trips bit-exactly."""
        return (self.lo.hex(), self.hi.hex())

    # -- predicates and measures -------------------------------------------

    @property
    def width(self) -> float:
        return _sub_up(self.hi, self.lo)

    @property
    def mid(self) -> float:
        m = self.lo + 0.5 * (self.hi - self.lo)
        if not (self.lo <= m <= self.hi):
            m = 0.5 * self.lo + 0.5 * self.hi
        return min(max(m, self.lo), self.hi)

    def mag(self) -> float:
        """sup |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def mig(self) -> float:
        """inf |x| over the interval."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_add_down(self.lo, other.lo), _add_up(self.hi, other.hi))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        return Interval(*_mul_bounds(self.lo, self.hi, other.lo, other.hi))

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __str__(self) -> str:
        return f"[{self.lo:.17g}, {self.hi:.17g}]"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def _mul_bounds(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """The endpoints of [a, b] * [c, d], by the signs of the endpoints."""
    if a >= 0.0:
        if c >= 0.0:
            return _mul_down(a, c), _mul_up(b, d)
        if d <= 0.0:
            return _mul_down(b, c), _mul_up(a, d)
        return _mul_down(b, c), _mul_up(b, d)
    if b <= 0.0:
        if c >= 0.0:
            return _mul_down(a, d), _mul_up(b, c)
        if d <= 0.0:
            return _mul_down(b, d), _mul_up(a, c)
        return _mul_down(a, d), _mul_up(a, c)
    if c >= 0.0:
        return _mul_down(a, d), _mul_up(b, d)
    if d <= 0.0:
        return _mul_down(b, c), _mul_up(a, c)
    return min(_mul_down(a, d), _mul_down(b, c)), max(_mul_up(a, c), _mul_up(b, d))


def int_pow(a: Interval, k: int) -> Interval:
    """Enclosure of {x**k : x in a} for a non-negative integer k."""
    if k < 0:
        raise DomainError("int_pow exponent must be non-negative")
    if k == 0:
        return Interval(1.0, 1.0)
    if k == 1:
        return a
    if k % 2 == 0:
        return Interval(_pow_down(a.mig(), k), _pow_up(a.mag(), k))
    lo = _pow_down(a.lo, k) if a.lo >= 0.0 else -_pow_up(-a.lo, k)
    hi = _pow_up(a.hi, k) if a.hi >= 0.0 else -_pow_down(-a.hi, k)
    return Interval(lo, hi)


def horner(coeffs, u: Interval) -> Interval:
    """Enclosure of sum_k coeffs[k] * u^k (interval coefficients) by Horner's
    rule from [0, 0]: each step is acc * u + coeffs[k], on float endpoints."""
    c, d = u.lo, u.hi
    lo = hi = 0.0
    for e in reversed(coeffs):
        lo, hi = _mul_bounds(lo, hi, c, d)
        lo, hi = _add_down(lo, e.lo), _add_up(hi, e.hi)
        if not lo <= hi:  # also true when either endpoint is NaN
            raise DomainError(f"Horner step gave [{lo!r}, {hi!r}]")
    return Interval(lo, hi)


def certainly_positive(a: Interval) -> bool:
    return a.lo > 0.0


def certainly_negative(a: Interval) -> bool:
    return a.hi < 0.0


def split(a: Interval) -> tuple[Interval, Interval]:
    """Halve at the midpoint; the halves share one endpoint and union to a."""
    m = a.mid
    return Interval(a.lo, m), Interval(m, a.hi)


# Stored enclosures of pi and pi/2.  The hex floats are the binary64
# neighbours of the true constants (pi and pi/2 are not representable, so
# each pair is 1 ulp wide); the test suite revalidates both against a
# 50-digit independent computation.
_PI_LO = float.fromhex("0x1.921fb54442d18p+1")
_PI_HI = float.fromhex("0x1.921fb54442d19p+1")
_HALF_PI_LO = float.fromhex("0x1.921fb54442d18p+0")
_HALF_PI_HI = float.fromhex("0x1.921fb54442d19p+0")


def pi_enclosure() -> Interval:
    """Validated enclosure of pi, width 1 ulp."""
    return Interval(_PI_LO, _PI_HI)


def half_pi_enclosure() -> Interval:
    """Validated enclosure of pi/2; .lo < pi/2 < .hi strictly."""
    return Interval(_HALF_PI_LO, _HALF_PI_HI)


def rational_enclosure(q, den: int = 1) -> Interval:
    """Tightest Interval containing the exact rational q / den, for q an int,
    float or Fraction and den a positive int (not necessarily coprime to q):
    round to nearest, then one outward step if that moved.  A value beyond
    the largest float reaches to infinity on its side."""
    n, d = q.as_integer_ratio()
    d *= den
    try:
        f = n / d  # correctly rounded to nearest
    except OverflowError:
        return Interval(_MAX, _INF) if n > 0 else Interval(-_INF, -_MAX)
    # f - n/d, f = fn/fd, has the sign of fn * d - n * fd, as d > 0
    fn, fd = f.as_integer_ratio()
    side = fn * d - n * fd
    if side == 0:
        return Interval(f, f)
    if side < 0:
        return Interval(f, math.nextafter(f, _INF))
    return Interval(math.nextafter(f, -_INF), f)
