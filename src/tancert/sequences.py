"""Exact proofs of the alternating-series lemma behind the main bound and
of the identities of the paper's proof.

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

Everything in this module is exact.  replay_identity proves the identities
of tancert.REPLAY_IDENTITIES: the three of the paper's proof in the field
of rational functions of x, cos x and sin x, where derivatives stay, and
the expansion of phi above for every n, in the polynomial ring Q[n, 9^n].
No samples and no tolerance.  The certifier builds lemma_phi's series from
its catalog string like every other form; the tests check that its
coefficients are those of the expansion.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, IdentityViolation

# T_n as an element of Q[n, E], E = 9^n: a dict from the exponents (i, j)
# of n^i E^j to its coefficients, here 32n^2 - 16n + 3 + (8n/9 - 3) E
_T = {(2, 0): 32, (1, 0): -16, (0, 0): 3, (1, 1): Fraction(8, 9), (0, 1): -3}
_A_COEFFS = (459, -362, -60, 32)
_B_COEFFS = (-51, -158, -116, 128, 128)
# expanded forms of B(n+1) and A(n+4); the grouped display "437n + 69(n-1)"
# is the same linear part 506n - 69
_B_SHIFT1_EXPECTED = (-69, 506, 1036, 640, 128)
_A_SHIFT4_EXPECTED = (99, 694, 324, 32)


@functools.lru_cache(maxsize=None)
def t_seq(n: int) -> Fraction:
    """Exact T_n, the value of _T at n: an integer, though _T has the
    coefficient 8/9 (9^n/9 is an integer for n >= 1, and n 9^n/9 is 0 at 0)."""
    if n < 0:
        raise DomainError("t_seq requires n >= 0")
    value = sum(Fraction(c) * n**i * 9 ** (j * n) for (i, j), c in _T.items())
    if value.denominator != 1:
        raise AssertionError(f"T_{n} is not an integer: {value}")
    return value


def _poly_eval(coeffs, n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


# Exact values of all four sequences at one index.  T is kept rational
# because _T has a coefficient 8/9; integrality is asserted, not assumed.
# The records of this module are namedtuples, like those of `certifier`.
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
    closed = b_seq(n) + a_seq(n) * Fraction(9) ** (n - 1)
    if via_rec.denominator != 1 or closed.denominator != 1:
        raise AssertionError(f"U_{n} not integral")
    return int(via_rec), int(closed)


def _compose_shift(coeffs, shift: int) -> tuple[int, ...]:
    """Exact coefficients of p(n + shift) from those of p(n), by Horner's
    rule: acc <- acc * (n + shift) + c from the leading coefficient down."""
    acc = ()
    for c in reversed(coeffs):
        acc = tuple(a + shift * b for a, b in zip((c, *acc), (*acc, 0)))
    return acc


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
    scan = all(a_seq(n) > 0 and b_seq(n) > 0 for n in range(4, n_max + 1))
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
# phi's expansion, for every n, in Q[n, E] with E = 9^n
# ---------------------------------------------------------------------------

# An element of Q[n, E] is a dict like _T.  A polynomial in n and 9^n that
# vanishes at every n >= 0 is 0 (as n grows, its highest power of 9^n with a
# nonzero coefficient dominates), so such an element is the empty dict.

# phi's terms c x^a cos(bx), a even, and c x^a sin(bx), a odd, as (c, a, b)
_PHI_TERMS = ((9, 0, 1), (-24, 2, 1), (-9, 0, 3), (-4, 1, 3))


def _nsum(terms) -> dict:
    """The element of Q[n, E] summing ((i, j), coefficient) terms."""
    out = {}
    for key, a in terms:
        out[key] = out.get(key, 0) + a
    return {key: a for key, a in out.items() if a}


def _falling(a: int) -> dict:
    """(2n)(2n-1)...(2n-a+1), a factors, in Q[n, E]."""
    p = {(0, 0): 1}
    for m in range(a):  # times 2n - m
        p = _nsum(t for (i, j), c in p.items() for t in (((i + 1, j), 2 * c), ((i, j), -m * c)))
    return p


def _phi_series_coeffs() -> dict:
    """(-1)^n (2n)! [x^(2n)] phi in Q[n, E].  By the Taylor series of cos and
    sin, a term gives c (-1)^ceil(a/2) b^(-a) (2n)(2n-1)...(2n-a+1) b^(2n),
    b^(2n) = E^[b=3], for every n >= 0: the falling factorial is 0 when 2n < a."""
    return _nsum(
        ((i, j + (b == 3)), Fraction(c * (-1) ** ((a + 1) // 2), b**a) * f)
        for c, a, b in _PHI_TERMS
        for (i, j), f in _falling(a).items()
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
    # in Q[n, E]: phi = 3 sum_n (-1)^n T_n x^(2n)/(2n)!
    "lemma_phi_series": lambda: (_phi_series_coeffs(), {key: 3 * c for key, c in _T.items()}),
}


def replay_identity(which: str) -> None:
    """Prove one identity exactly, wherever both sides are defined: lhs - rhs
    reduces to 0 in Q[n, E], or its numerator does modulo
    cos^2 + sin^2 - 1.  Raises IdentityViolation otherwise."""
    if which not in _IDENTITIES:
        raise DomainError(f"unknown identity {which!r}")
    lhs, rhs = _IDENTITIES[which]()
    if isinstance(lhs, dict):
        rest = _nsum([*lhs.items(), *((key, -c) for key, c in rhs.items())])
    else:
        rest = (lhs - rhs).num
    if rest:
        raise IdentityViolation(f"{which}: lhs - rhs keeps {len(rest)} terms in its normal form")
