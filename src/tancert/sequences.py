"""Exact verification of the alternating-series lemma behind the main bound,
and exact proofs of the three identities of the paper's proof.

The trigonometric combination

    phi(x) = (9 - 24 x^2) cos x - 9 cos 3x - 4x sin 3x

expands as 3 * sum_{n>=4} (-1)^n T_n x^(2n) / (2n)! with

    T_n = 2(4n-1)^2 + 1 + (8n-27) * 9^(n-1),

an integer sequence whose first four entries vanish.  Positivity of
phi on (0, pi/2] reduces to the exact combinatorial facts checked here:
T_n > 0 for n >= 4, and the decrease of the terms T_n x^(2n)/(2n)! on
(0, sqrt 3], which is equivalent to positivity of

    U_n = (2n+2)(2n+1) T_n - 3 T_{n+1} = B_n + A_n * 9^(n-1),

    A_n = 32n^3 - 60n^2 - 362n + 459,
    B_n = 128n^4 + 128n^3 - 116n^2 - 158n - 51.

Everything in this module is exact integer/rational arithmetic except
the tail of phi_power_series, which bounds the alternating series by its
first omitted term.  That series, with the exact coefficients
phi_coeff(n), is the lemma's closed-form reference: the certifier builds
lemma_phi's series from its catalog string like every other form, and the
tests check that the two have the same coefficients and overlapping
enclosures.

replay_identity proves the three identities of the paper's proof
(tancert.REPLAY_IDENTITIES) in the field of rational functions of x,
cos x and sin x, where derivatives stay: no samples and no tolerance.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from math import factorial

from .enclosures import _cos_enc_any, _sinc_enc_any
from .errors import DomainError, IdentityViolation
from .interval import Interval, int_pow, rational_enclosure
from .series import PowerSeries, ps_poly

_A_COEFFS = (459, -362, -60, 32)
_B_COEFFS = (-51, -158, -116, 128, 128)
# expanded forms of B(n+1) and A(n+4); the grouped display "437n + 69(n-1)"
# is the same linear part 506n - 69
_B_SHIFT1_EXPECTED = (-69, 506, 1036, 640, 128)
_A_SHIFT4_EXPECTED = (99, 694, 324, 32)


@functools.lru_cache(maxsize=None)
def t_seq(n: int) -> Fraction:
    """Exact T_n; integer-valued even at n=0 where 9^(n-1) is 1/9."""
    if n < 0:
        raise DomainError("t_seq requires n >= 0")
    value = 2 * Fraction(4 * n - 1) ** 2 + 1 + (8 * n - 27) * Fraction(9) ** (n - 1)
    if value.denominator != 1:
        raise AssertionError(f"T_{n} is not an integer: {value}")
    return value


def _poly_eval(coeffs, n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


# Exact values of all four sequences at one index.  T is kept rational because
# its 9^(n-1) factor is 1/9 at n = 0 before the whole expression collapses to
# an integer; integrality is asserted, not assumed.  The records of this
# module are namedtuples, like those of `certifier`.
SeqTerm = namedtuple("SeqTerm", "n T U A B")


def seq_term(n: int) -> SeqTerm:
    via_rec, closed = u_seq(n)
    assert via_rec == closed
    return SeqTerm(n=n, T=t_seq(n), U=via_rec, A=a_seq(n), B=b_seq(n))


def a_seq(n: int) -> int:
    """Exact A_n = 32n^3 - 60n^2 - 362n + 459."""
    return _poly_eval(_A_COEFFS, n)


def b_seq(n: int) -> int:
    """Exact B_n = 128n^4 + 128n^3 - 116n^2 - 158n - 51."""
    return _poly_eval(_B_COEFFS, n)


def u_seq(n: int) -> tuple[int, int]:
    """U_n by both routes: the T recombination and the closed form.

    Returns (via_recurrence, via_closed_form); the two are equal for
    every n as an exact identity.
    """
    via_rec = (2 * n + 2) * (2 * n + 1) * t_seq(n) - 3 * t_seq(n + 1)
    closed = _poly_eval(_B_COEFFS, n) + _poly_eval(_A_COEFFS, n) * Fraction(9) ** (
        n - 1
    )
    if via_rec.denominator != 1 or closed.denominator != 1:
        raise AssertionError(f"U_{n} not integral")
    return int(via_rec), int(closed)


def _compose_shift(coeffs, shift: int) -> tuple[int, ...]:
    """Exact coefficients of p(n + shift) from those of p(n)."""
    out = [0] * len(coeffs)
    for k, c in enumerate(coeffs):
        # c * (n + shift)^k via binomial expansion
        binom = 1
        power = 1
        for j in range(k, -1, -1):
            out[j] += c * binom * power
            if j:
                binom = binom * j // (k - j + 1)
                power *= shift
    return tuple(out)


class ShiftIdentityReport(namedtuple("ShiftIdentityReport", (
    "n_max b_shift_coeffs a_shift_coeffs shifted_coeffs_imply_positivity scan_all_positive"
))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.shifted_coeffs_imply_positivity and self.scan_all_positive


def verify_shift_identities(n_max: int) -> ShiftIdentityReport:
    """Check the shifted closed forms of A and B by exact expansion, and the
    two routes to U_n for n <= n_max.

    Raises IdentityViolation if a coefficient or a U_n disagrees.  Agreement
    through n = 8 proves the U identity for every n: the recurrence route
    minus the closed form is P(n) + Q(n) 9^(n-1) with deg P <= 4 and
    deg Q <= 3, and a nonzero function of that form has at most 8 real
    zeros.  Beyond the identities, the report's `ok` rests on two records
    that A_n, B_n > 0, hence U_n = B_n + A_n 9^(n-1) > 0:
    shifted_coeffs_imply_positivity for all n >= 4 (the coefficients of
    A(n+4) are all positive, and B(n+1) has positive leading coefficients
    with linear part 506n - 69 > 0 for n >= 1), and scan_all_positive for
    4 <= n <= n_max, evaluated directly.
    """
    if n_max < 8:
        raise DomainError("verify_shift_identities requires n_max >= 8")
    b1, a4 = _compose_shift(_B_COEFFS, 1), _compose_shift(_A_COEFFS, 4)
    for name, got, stated in (("B(n+1)", b1, _B_SHIFT1_EXPECTED), ("A(n+4)", a4, _A_SHIFT4_EXPECTED)):
        if got != stated:
            bad = next(i for i, (x, y) in enumerate(zip(got, stated)) if x != y)
            raise IdentityViolation(
                f"{name} coefficient of n^{bad}: computed {got[bad]}, stated {stated[bad]}")
    # all-n>=4 positivity from the shifted coefficient signs
    a_positive = all(c > 0 for c in a4)
    # B(n+1): nonneg high coefficients and 506n - 69 > 0 for n >= 1 gives
    # B(m) > 0 for m >= 2 (in particular m >= 4)
    b_positive = all(c > 0 for c in b1[1:]) and b1[1] + b1[0] > 0
    scan = all(
        _poly_eval(_A_COEFFS, n) > 0 and _poly_eval(_B_COEFFS, n) > 0
        for n in range(4, n_max + 1)
    )
    for n in range(n_max + 1):
        via_rec, closed = u_seq(n)
        if via_rec != closed:
            raise IdentityViolation(f"U_{n} routes disagree: {via_rec} != {closed}")
    return ShiftIdentityReport(
        n_max=n_max,
        b_shift_coeffs=b1,
        a_shift_coeffs=a4,
        shifted_coeffs_imply_positivity=a_positive and b_positive,
        scan_all_positive=scan,
    )


# ---------------------------------------------------------------------------
# phi's exact series at 0, and its trig form
# ---------------------------------------------------------------------------

@functools.cache
def phi_coeff(n: int) -> Fraction:
    """Exact coefficient (-1)^n 3 T_n/(2n)! of x^(2n) in phi."""
    return Fraction((-1) ** n * 3 * t_seq(n), factorial(2 * n))


def phi_power_series(degree: int, radius: float) -> PowerSeries:
    """Exact series of phi at 0 through x^degree, on |x| <= radius <= sqrt 3."""
    if degree < 8:
        raise DomainError("phi series needs degree >= 8")
    if Fraction(radius) ** 2 > 3:
        raise DomainError("phi series radius must stay within sqrt(3)")
    # decrease of T_n x^(2n)/(2n)! on (0, sqrt 3] from index 4 on is exactly
    # U_n > 0, which the shifted coefficients prove for every n
    if not verify_shift_identities(8).shifted_coeffs_imply_positivity:
        raise AssertionError("alternating term decrease not proved")
    n0 = degree // 2 + 1
    # alternating with exactly-verified decrease: first omitted term bounds
    # the tail; as a tail coefficient it is scaled down to power degree+1
    t = (
        int_pow(Interval.point(radius), 2 * n0 - degree - 1)
        * rational_enclosure(abs(phi_coeff(n0)))
    ).hi
    return ps_poly({2 * n: phi_coeff(n) for n in range(4, n0)}, degree, radius, t)


def phi_trig_enc(x: Interval) -> Interval:
    """phi by direct interval evaluation of its trig form.

    cos 3x and sin 3x are evaluated at the tripled argument enclosure
    (no triple-angle polynomial identities); 4x sin 3x is written
    12 x^2 sinc(3x) to stay division-free.  Cross-check for the series
    route, not used by certificates.
    """
    x3 = x * Interval.point(3)
    poly = Interval.point(9) - int_pow(x, 2) * Interval.point(24)
    return (
        poly * _cos_enc_any(x)
        - _cos_enc_any(x3) * Interval.point(9)
        - int_pow(x, 2) * Interval.point(12) * _sinc_enc_any(x3)
    )


# ---------------------------------------------------------------------------
# exact proofs of the identities, in Q(x, cos x, sin x)
# ---------------------------------------------------------------------------

# A polynomial in x, c = cos x and s = sin x over Q is a dict from the
# exponents (i, j, k) of x^i c^j s^k to nonzero Fractions, kept in the normal
# form A(x, c) + s B(x, c) by rewriting s^2 -> 1 - c^2.  x, cos x and sin x
# satisfy no other polynomial relation, so a polynomial in normal form is the
# zero function exactly when it is the empty dict.

def _poly(terms) -> dict:
    """Normal form of a sum of ((i, j, k), coefficient) terms with k <= 2."""
    out = {}
    for (i, j, k), a in terms:
        for key, b in [((i, j, 0), a), ((i, j + 2, 0), -a)] if k == 2 else [((i, j, k), a)]:
            out[key] = out.get(key, 0) + b
    return {key: a for key, a in out.items() if a}


def _pmul(p: dict, q: dict) -> dict:
    return _poly(((i + u, j + v, k + w), a * b) for (i, j, k), a in p.items() for (u, v, w), b in q.items())


def _pdiff(p: dict) -> dict:
    # (x^i c^j s^k)' = i x^(i-1) c^j s^k - j x^i c^(j-1) s^(k+1) + k x^i c^(j+1) s^(k-1)
    return _poly(term for (i, j, k), a in p.items() for term in (
        ((i - 1, j, k), i * a), ((i, j - 1, k + 1), -j * a), ((i, j + 1, k - 1), k * a)) if term[1])


class TrigRational:
    """An exact rational function num/den of x, cos x and sin x over Q."""

    def __init__(self, num: dict, den: dict | None = None):
        if den is not None and not den:
            raise DomainError("a denominator reduces to 0 modulo cos^2 + sin^2 - 1")
        self.num, self.den = num, den or {(0, 0, 0): 1}

    def __add__(self, other):
        o = _lift(other)
        num = _poly([*_pmul(self.num, o.den).items(), *_pmul(o.num, self.den).items()])
        return TrigRational(num, _pmul(self.den, o.den))

    def __sub__(self, other):
        return self + -1 * other

    def __rsub__(self, other):
        return other + -1 * self

    def __mul__(self, other):
        o = _lift(other)
        return TrigRational(_pmul(self.num, o.num), _pmul(self.den, o.den))

    def __truediv__(self, other):
        o = _lift(other)
        return TrigRational(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __pow__(self, n: int):
        return functools.reduce(TrigRational.__mul__, [self] * n, _lift(1))  # n >= 0

    __radd__, __rmul__ = __add__, __mul__

    def d(self):
        """d/dx, by the quotient rule."""
        num, den = TrigRational(self.num), TrigRational(self.den)
        return (TrigRational(_pdiff(self.num)) * den - num * TrigRational(_pdiff(self.den))) / (den * den)

    def dlog(self):
        """(log f)' = f'/f."""
        return self.d() / self


def _lift(v) -> TrigRational:
    return v if isinstance(v, TrigRational) else TrigRational({(0, 0, 0): Fraction(v)} if v else {})


_X, _C, _S = (TrigRational({key: 1}) for key in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
_TAN, _COT = _S / _C, _C / _S
_H = _X - 3 * _TAN / (3 + _TAN**2)  # h(x) of Theorem A
# phi, with cos 3x = 4c^3 - 3c and sin 3x = 3s - 4s^3
_PHI = (9 - 24 * _X**2) * _C - 9 * (4 * _C**3 - 3 * _C) - 4 * _X * (3 * _S - 4 * _S**3)

# (lhs, rhs) of each identity, named as in tancert.REPLAY_IDENTITIES
_IDENTITIES = {
    "eq22_factorization": lambda: ((3 - _X**2 - 3 * _X * _COT).d(), (1 + 3 * _COT**2) * _H),
    "eq24_quotient": lambda: (
        6 * (_TAN / _X).dlog() - 5 * (3 * (_TAN - _X) / _X**3).dlog(),
        _PHI / (4 * _X * _C**2 * _S * (_TAN - _X)),
    ),
    "thm_a_h_prime": lambda: (_H.d(), 4 * _TAN**4 / (3 + _TAN**2) ** 2),
}


def replay_identity(which: str) -> None:
    """Prove one identity exactly, wherever both sides are defined: the
    numerator of lhs - rhs reduces to 0 modulo cos^2 + sin^2 - 1.  Raises
    IdentityViolation otherwise."""
    if which not in _IDENTITIES:
        raise DomainError(f"unknown identity {which!r}")
    lhs, rhs = _IDENTITIES[which]()
    rest = (lhs - rhs).num
    if rest:
        raise IdentityViolation(f"{which}: lhs - rhs keeps {len(rest)} terms modulo cos^2 + sin^2 - 1")
