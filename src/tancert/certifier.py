"""Branch-and-bound certification of the cataloged tangent inequalities.

Each inequality is recast as strict positivity of an ENTIRE form F on
(0, pi/2) — built only from cos, sin, sinc, p, x, pi and rational
constants, with no logs, fractional powers, or divisions by non-constants.
The recasting steps all preserve positivity (multiplying by cos^k > 0 or
x^k > 0, or raising two positive sides to the 5th power); each catalog
entry records its own derivation.

The catalog string `entire_form` is the only definition of F.  It is
compiled once, straight into a finite sum of terms c x^j cos(k x) and
c x^j sin(k x), c in Q[pi, 1/pi] (sinc = sin/x, p = sin/x^3 - cos/x^2),
each product rewritten by the product-to-sum formulas as it is met.  At
pi/2 the same terms are rewritten in u = pi/2 - x by the binomial theorem
and the angle-difference formulas.  `series.ps_trig` writes the exact
power series at either center from those terms in closed form.  F
vanishes to order k0 at 0, and one object carries the whole proof on
[0, pi/2 - epsilon_max]: the exact series of F at 0 divided by x^k0,

    Q = F / x^k0,  through x^(degree - k0), with a rigorous tail on
                   |x| <= pi/2 + ulp.

A proof of F > 0 has three parts:

  * near 0:        Q is bounded below by a positive constant on [0, delta];
  * near pi/2:     the same for Q1 = F/eps^k1, eps = pi/2 - x, its tail
                   valid on |eps| <= MAX_EPSILON, where F vanishes (k1 > 0);
  * the middle:    adaptive bisection into boxes X in (0, end] whose
                   margins Q(X) are certainly positive.  Q(X) is interval
                   Horner plus the tail, narrowed by the Bernstein bound
                   where Horner leaves the sign open, exact until its two
                   ends are rounded outward (`PowerSeries.eval`).

A certificate (schema tancert-cert-v6) holds the config and the boxes of
the middle cover with their depths, nothing else.  The checker derives
the endpoint proofs afresh from the catalog and the config, evaluates
every box once on Q rebuilt at config.degree to test its margin's sign,
and ties the config to the boxes by requiring them to chain across
exactly the cover [delta, end] that the config fixes.  Since no margin is
stored, a tighter evaluation leaves earlier files valid: the finer covers
that the mean-value and slope forms wrote still check.  Files of the
earlier schemas are refused as an unknown schema (README, "Certificate
schema").

The resulting record is self-contained and re-checkable from disk.
"""

from __future__ import annotations

import _ast
import json
import time
from collections import namedtuple
from fractions import Fraction
from functools import cache, reduce
from math import comb, lcm

from .errors import DomainError, Falsified, NotPositive, OrderMismatch
from .interval import (
    Interval,
    _HALF_PI_HI,
    certainly_negative,
    certainly_positive,
    rational_enclosure,
    split,
)
from .series import PiPoly, PowerSeries, ps_trig

SCHEMA = "tancert-cert-v6"  # the one schema certify writes and check reads

# Largest series degree a config or a certificate may name: the exact series
# build grows like degree^1.4 (that of main_upper takes 0.002 s at degree 128
# and 0.013 s at 512 in a fresh process on one CPU of a 2-core x86_64 VM), the
# coefficient enclosures and Horner evaluations of its quotient faster, and
# the widest shipped configuration uses 96.
MAX_DEGREE = 128

# Widest endpoint regions a config or a proof may name: (0, delta] near 0
# and [pi/2 - epsilon_max, pi/2) near pi/2.
MAX_DELTA = 0.5
MAX_EPSILON = 0.25

# Deepest bisection a config may name: 60 halvings of [0, pi/2] already give
# boxes narrower than the float spacing near 1/128, so deeper levels cannot
# split a box of the middle cover.
MAX_DEPTH = 60

# Most boxes a certificate may hold, written or read: a cover of the shipped
# configurations takes at most a few dozen, and checking one box costs tens
# of microseconds.
MAX_BOXES = 2**16


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

# The records below are namedtuples rather than dataclasses: `dataclasses`
# imports `inspect` and generates code per class, which every certify and
# check process would pay at start-up.  `_replace` makes a changed copy.

# One catalog entry: entire_form is the normative division-free F, in the
# form language, and the leading coefficients are PiPoly.
InequalitySpec = namedtuple(
    "InequalitySpec",
    "id statement entire_form derivation vanish_order_zero leading_coeff_zero "
    "vanish_order_half_pi leading_coeff_half_pi",
    defaults=(0, None),
)


CATALOG: dict[str, InequalitySpec] = {
    s.id: s
    for s in [
        InequalitySpec(
            id="prop1_lower",
            entire_form="3*p - cos",
            statement="x + x^3/3 < tan x",
            derivation=(
                "tan x - x - x^3/3 > 0; multiply by cos x > 0, divide by x^3 > 0 "
                "and scale by 3, with p = (sin x - x cos x)/x^3."
            ),
            vanish_order_zero=2,
            leading_coeff_zero=PiPoly.rational(Fraction(2, 5)),
        ),
        InequalitySpec(
            id="prop1_upper",
            entire_form="x*(x^2*sinc^3 - 3*(sinc*cos^2) + 3*cos^3)",
            statement="tan x < x + tan^3(x)/3",
            derivation=(
                "tan^3(x)/3 + x - tan x > 0; multiply by 3 cos^3 x > 0 and write "
                "sin = x sinc."
            ),
            vanish_order_zero=5,
            leading_coeff_zero=PiPoly.rational(Fraction(3, 5)),
        ),
        InequalitySpec(
            id="main_lower",
            entire_form="3*p - sinc",
            statement="x^2 tan x < 3 (tan x - x)",
            derivation=(
                "3(tan x - x) - x^2 tan x > 0; multiply by cos x > 0, divide by "
                "x^3 > 0."
            ),
            vanish_order_zero=2,
            leading_coeff_zero=PiPoly.rational(Fraction(1, 15)),
        ),
        InequalitySpec(
            id="main_upper",
            entire_form="sinc^6 - 243*(p^5*cos)",
            statement="3 (tan x - x) < x^(9/5) tan^(6/5) x",
            derivation=(
                "both sides positive, so equivalent to the 5th powers "
                "243 (tan x - x)^5 < x^9 tan^6 x; multiply by cos^6 x > 0 and "
                "divide by x^15 > 0."
            ),
            vanish_order_zero=4,
            leading_coeff_zero=PiPoly.rational(Fraction(2, 35)),
        ),
        InequalitySpec(
            id="bs_lower",
            entire_form="sin*(pi^2 - 4*x^2) - 8*(x*cos)",
            statement="8x / (pi^2 - 4x^2) < tan x",
            derivation="multiply by (pi^2 - 4x^2) cos x > 0.",
            vanish_order_zero=1,
            leading_coeff_zero=PiPoly({2: 1, 0: -8}),
            vanish_order_half_pi=2,
            leading_coeff_half_pi=PiPoly.rational(4),
        ),
        InequalitySpec(
            id="bs_upper",
            entire_form="pi^2*x*cos - sin*(pi^2 - 4*x^2)",
            statement="tan x < pi^2 x / (pi^2 - 4x^2)",
            derivation="multiply by (pi^2 - 4x^2) cos x > 0.",
            vanish_order_zero=3,
            leading_coeff_zero=PiPoly({0: 4, 2: Fraction(-1, 3)}),
            vanish_order_half_pi=1,
            leading_coeff_half_pi=PiPoly({3: Fraction(1, 2), 1: -4}),
        ),
        InequalitySpec(
            id="qi_lower",
            entire_form="x*(sinc - (1 + x^2/3)*cos - (2/15)*x^4*sinc)",
            statement="x + x^3/3 + (2/15) x^4 tan x < tan x",
            derivation="multiply by cos x > 0 and write sin = x sinc.",
            vanish_order_zero=7,
            leading_coeff_zero=PiPoly.rational(Fraction(1, 105)),
        ),
        InequalitySpec(
            id="qi_upper",
            entire_form="(x + x^3/3)*cos + (2/pi)^4*x^4*sin - sin",
            statement="tan x < x + x^3/3 + (2/pi)^4 x^4 tan x",
            derivation="multiply by cos x > 0.",
            vanish_order_zero=5,
            leading_coeff_zero=PiPoly({-4: 16, 0: Fraction(-2, 15)}),
            vanish_order_half_pi=1,
            leading_coeff_half_pi=PiPoly({1: Fraction(1, 2), 3: Fraction(1, 24), -1: -8}),
        ),
        InequalitySpec(
            id="lemma_phi",
            entire_form="(9 - 24*x^2)*cos - 9*(4*cos^3 - 3*cos) - 4*x*sin*(4*cos^2 - 1)",
            statement="(9 - 24x^2) cos x - 9 cos 3x - 4x sin 3x > 0 on (0, pi/2]",
            derivation=(
                "already entire; written with cos 3x = 4 cos^3 - 3 cos and "
                "sin 3x = sin (4 cos^2 - 1).  Its exact series at 0 has the "
                "lemma's coefficients 3 (-1)^n T_n/(2n)! of x^(2n), n >= 4."
            ),
            vanish_order_zero=8,
            leading_coeff_zero=PiPoly.rational(Fraction(32, 105)),
        ),
    ]
}


# ---------------------------------------------------------------------------
# the form language, compiled to terms
# ---------------------------------------------------------------------------
# With ^ read as **, a form uses the leaves x, pi, integer literals, cos,
# sin, sinc and p; +, - and *; powers by non-negative integer literals; and
# division by a part whose value is one nonzero c*pi^k.  It compiles
# straight into terms ({(j, k, s, q): n}, den): the sum of n/den pi^q x^j
# cos(k x) (s = 0) or sin(k x) (s = 1), k >= 0, over an integer den > 0,
# with no zero n and no sin(0 x).  These functions are linearly independent
# over Q (pi is transcendental), so a form has exactly one set of terms.

# sinc = x^-1 sin and p = x^-3 sin - x^-2 cos
_LEAVES = {
    "x": ({(1, 0, 0, 0): 1}, 1),
    "pi": ({(0, 0, 0, 1): 1}, 1),
    "cos": ({(0, 1, 0, 0): 1}, 1),
    "sin": ({(0, 1, 1, 0): 1}, 1),
    "sinc": ({(-1, 1, 1, 0): 1}, 1),
    "p": ({(-3, 1, 1, 0): 1, (-2, 1, 0, 0): -1}, 1),
}


def _unparse(e: _ast.AST) -> str:
    # `ast` (about 1 ms to import) only words the refusal of a form
    import ast

    return ast.unparse(e)


def _add(out: dict, key: tuple, n: int) -> None:
    out[key] = out.get(key, 0) + n


def _times(f: tuple, g: tuple) -> tuple:
    """The product of two term sets by the product-to-sum formulas, each
    over 2: cos a cos b = cos(a - b) + cos(a + b), sin a sin b = cos(a - b)
    - cos(a + b) and sin a cos b = sin(a + b) + sin(a - b)."""
    (tf, df), (tg, dg) = f, g
    out = {}
    for (j, k, s, q), n in tf.items():
        for (j2, k2, s2, q2), n2 in tg.items():
            jj, qq, c, d = j + j2, q + q2, n * n2, k - k2
            _add(out, (jj, k + k2, s ^ s2, qq), -c if s & s2 else c)
            if s == s2:
                _add(out, (jj, abs(d), 0, qq), c)
            elif d:
                # sin(a - b) with a the angle of the sin factor, sin(-y) = -sin(y)
                _add(out, (jj, abs(d), 1, qq), c if (d > 0) == (s > s2) else -c)
    return {key: n for key, n in out.items() if n}, 2 * df * dg


def _terms(e: _ast.expr) -> tuple:
    """The terms of a parsed form, built bottom-up."""
    if isinstance(e, _ast.Name) and e.id in _LEAVES:
        return _LEAVES[e.id]
    if isinstance(e, _ast.Constant) and type(e.value) is int:
        return ({(0, 0, 0, 0): e.value} if e.value else {}), 1
    if isinstance(e, _ast.BinOp) and isinstance(e.op, _ast.Pow):
        f, k = _terms(e.left), e.right
        if not (isinstance(k, _ast.Constant) and type(k.value) is int and k.value >= 0):
            raise DomainError(f"exponent {_unparse(k)!r} is not a non-negative integer")
        return reduce(_times, [f] * k.value, ({(0, 0, 0, 0): 1}, 1))
    if isinstance(e, _ast.BinOp) and isinstance(e.op, (_ast.Add, _ast.Sub, _ast.Mult, _ast.Div)):
        f, g = _terms(e.left), _terms(e.right)
        if isinstance(e.op, _ast.Mult):
            return _times(f, g)
        (tf, df), (tg, dg) = f, g
        if isinstance(e.op, _ast.Div):
            if len(tg) != 1 or next(iter(tg))[:3] != (0, 0, 0):
                raise DomainError(f"divisor {_unparse(e.right)!r} is not a nonzero c*pi^k")
            (((*_, p), c),) = tg.items()
            # f / (c/dg pi^p) = (f dg/c) pi^-p, the sign of c moved onto f
            m = dg if c > 0 else -dg
            return {(j, k, s, q - p): m * n for (j, k, s, q), n in tf.items()}, df * abs(c)
        den = lcm(df, dg)
        out = {key: n * (den // df) for key, n in tf.items()}
        m = den // dg if isinstance(e.op, _ast.Add) else -(den // dg)
        for key, n in tg.items():
            _add(out, key, m * n)
        return {key: n for key, n in out.items() if n}, den
    raise DomainError(f"{_unparse(e)!r} is outside the form language")


def compile_form(text: str) -> tuple:
    """The terms (terms, den) of an entire_form string (see _LEAVES); raises
    DomainError outside the language."""
    try:
        # the builtin compile, so that parsing needs `_ast` but not `ast`
        expr = compile(text.replace("^", "**"), "<form>", "eval", _ast.PyCF_ONLY_AST).body
    except SyntaxError as exc:
        raise DomainError(f"form {text!r}: {exc.msg}") from None
    return _terms(expr)


# ---------------------------------------------------------------------------
# exact series backend, at both endpoints
# ---------------------------------------------------------------------------

def _grouped(acc: dict) -> tuple:
    """Terms (j, k, s, ((q, n), ...)) for series.ps_trig from {(j, k, s, q): n}."""
    terms = {}
    for (j, k, s, q), n in sorted(acc.items()):
        if n:
            terms.setdefault((j, k, s), []).append((q, n))
    return tuple((*key, tuple(coeffs)) for key, coeffs in terms.items())


@cache
def _linearized(text: str) -> tuple:
    """(terms, den) of a form string at 0, compiled once and grouped for
    series.ps_trig."""
    terms, den = compile_form(text)
    return _grouped(terms), den


# trig(k pi/2 - k u) for trig = cos (s = 0) and sin (s = 1), by k mod 4, as
# (s, sign) of +-cos(k u) or +-sin(k u)
_QUARTER_TURNS = (((0, 1), (1, 1), (0, -1), (1, -1)), ((1, -1), (0, 1), (1, 1), (0, -1)))


def _at_half_pi(text: str) -> tuple:
    """(terms, den) of a form string in u = pi/2 - x: (pi/2 - u)^j by the
    binomial theorem and trig(k x) by the angle-difference formulas.  A term
    x^j with j < 0 (from sinc or p) would need a division, and is refused."""
    terms, den = _linearized(text)
    if any(j < 0 for j, *_ in terms):
        names = "".join(c if c.isalpha() else " " for c in text).split()
        leaf = next(name for name in names if name in ("sinc", "p"))
        raise DomainError(f"no series of {leaf!r} at half_pi")
    top = max((j for j, *_ in terms), default=0)
    acc = {}
    for j, k, s, coeffs in terms:
        s2, sign = _QUARTER_TURNS[s][k % 4]
        for i in range(j + 1):
            # C(j, i) (pi/2)^(j-i) (-u)^i, over 2^top
            f = (-sign if i % 2 else sign) * comb(j, i) << top - j + i
            for q, n in coeffs:
                _add(acc, (i, k, s2, q + j - i), n * f)
    return _grouped(acc), den << top


def form_series(inequality_id: str, center: str, degree: int, radius: float) -> PowerSeries:
    """Exact PowerSeries of a catalog entry's entire form (see series_of)."""
    if inequality_id not in CATALOG:
        raise DomainError(f"unknown inequality id {inequality_id!r}")
    spec = CATALOG[inequality_id]
    if center == "half_pi" and spec.vanish_order_half_pi == 0:
        raise DomainError(f"{inequality_id} needs no expansion at pi/2")
    return series_of(spec.entire_form, center, degree, radius)


def series_of(text: str, center: str, degree: int, radius: float) -> PowerSeries:
    """Exact PowerSeries of a form string in the local variable.

    center "zero": variable u = x.  center "half_pi": variable u = pi/2 - x,
    pi entering exactly through Q[pi, 1/pi] coefficients.
    """
    if center == "zero":
        return ps_trig(*_linearized(text), degree, radius)
    if center == "half_pi":
        return ps_trig(*_at_half_pi(text), degree, radius)
    raise DomainError(f"unknown center {center!r}")


# ---------------------------------------------------------------------------
# endpoint proofs
# ---------------------------------------------------------------------------

# F > 0 on the config's endpoint region, from the series at config.degree
EndpointProof = namedtuple("EndpointProof", "order normalized_lower_bound")


@cache
def _quotient(spec: InequalitySpec, center: str, degree: int) -> PowerSeries:
    """F/u^k at one endpoint, built once per (form, center, degree): Q0 at 0,
    valid on |x| <= pi/2 + ulp and shared by the near-zero proof and every
    box margin, and Q1 at pi/2, valid on |eps| <= MAX_EPSILON for every
    epsilon_max.  Checks k + 8 <= degree <= MAX_DEGREE, the exact vanishing
    below u^k (divide_power raises OrderMismatch) and the catalog's u^k
    coefficient."""
    if center == "zero":
        k, expected, radius = spec.vanish_order_zero, spec.leading_coeff_zero, _HALF_PI_HI
    else:
        k, expected, radius = spec.vanish_order_half_pi, spec.leading_coeff_half_pi, MAX_EPSILON
    if not k + 8 <= degree <= MAX_DEGREE:
        raise DomainError(f"a series of order {k} needs {k + 8} <= degree <= {MAX_DEGREE}")
    quotient = form_series(spec.id, center, degree, radius).divide_power(k)
    lead = quotient.coefficient(0)
    if lead != expected:
        raise OrderMismatch(f"{spec.id}: u^{k} coefficient {lead!r} != catalog {expected!r}")
    return quotient


def _endpoint_proof(inequality_id: str, kind: str, bound: float, degree: int) -> EndpointProof:
    """Certify F > 0 within `bound` of one endpoint: the cached quotient
    F/u^k of that endpoint has a positive interval lower bound on [0, bound]."""
    spec = CATALOG[inequality_id]
    k = spec.vanish_order_zero if kind == "zero" else spec.vanish_order_half_pi
    max_bound = MAX_DELTA if kind == "zero" else MAX_EPSILON
    if not 0.0 < bound <= max_bound:
        raise DomainError(f"{kind} endpoint proof needs 0 < bound <= {max_bound}")
    quotient = _quotient(spec, kind, degree)
    value = quotient.eval(Interval(0.0, bound))
    if certainly_negative(value):
        # F = u^k * quotient with u^k > 0 on the region
        region = f"(0, {bound}]" if kind == "zero" else f"[pi/2 - {bound}, pi/2)"
        raise Falsified(
            f"{inequality_id}: F < 0 on {region}: the quotient F/u^{k} is at most "
            f"{value.hi} there"
        )
    lb = value.lo
    if lb <= 0.0:
        raise NotPositive(
            f"{inequality_id}: quotient bound {lb} on (0, {bound}] at {kind}; "
            "shrink the bound or raise the degree"
        )
    return EndpointProof(k, lb)


def near_zero_proof(inequality_id: str, delta: float, degree: int) -> EndpointProof:
    """Certify F > 0 on (0, delta] via the exact series at 0."""
    return _endpoint_proof(inequality_id, "zero", delta, degree)


def near_half_pi_proof(inequality_id: str, epsilon_max: float, degree: int) -> EndpointProof:
    """Certify F > 0 on [pi/2 - epsilon_max, pi/2) via the eps-expansion."""
    return _endpoint_proof(inequality_id, "half_pi", epsilon_max, degree)


# ---------------------------------------------------------------------------
# branch-and-bound engine
# ---------------------------------------------------------------------------

# margin is the enclosure certify computed for the box; a box read from a
# file has margin None, since the checker recomputes it
BoxRecord = namedtuple("BoxRecord", "interval margin depth")


def _of_type(v, types) -> bool:
    # bool subclasses int, but True is no degree, depth or width
    return isinstance(v, types) and not isinstance(v, bool)


class CertifyConfig(namedtuple(
    "CertifyConfig", "delta epsilon_max degree max_depth", defaults=(0.25, 0.125, 16, 48),
)):
    """Certify settings; a field of the wrong type or range raises DomainError."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, top in (("delta", MAX_DELTA), ("epsilon_max", MAX_EPSILON)):
            v = getattr(self, name)
            if not _of_type(v, (int, float)) or not 0.0 < v <= top:
                raise DomainError(f"{name} must be a number in (0, {top}], got {v!r}")
        for name, top in (("degree", MAX_DEGREE), ("max_depth", MAX_DEPTH)):
            v = getattr(self, name)
            if not _of_type(v, int) or not 0 <= v <= top:
                raise DomainError(f"{name} must be an int in [0, {top}], got {v!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; route it through the checks above
        return cls(*iterable)


def eval_form(inequality_id: str, x: Interval, *,
              degree: int = CertifyConfig._field_defaults["degree"]) -> Interval:
    """Box margin over x at this degree, which certify and check compute
    alike and no certificate stores: Q(x), Q = F/x^k0 the divided exact
    series, by `PowerSeries.eval`.  It has the sign of F, as x^k0 > 0 on
    x; a box touching 0, where F vanishes, is refused."""
    if inequality_id not in CATALOG:
        raise DomainError(f"unknown inequality id {inequality_id!r}")
    if not 0.0 < x.lo or x.hi > _HALF_PI_HI:
        raise DomainError(f"eval_form domain (0, pi/2 + ulp] violated: {x}")
    return _quotient(CATALOG[inequality_id], "zero", degree).eval(x)


# worst_box: the unresolved BoxRecord of lowest margin, or None
CertStats = namedtuple("CertStats", "box_count max_depth_reached wall_time worst_box",
                       defaults=(None,))


STATUSES = ("certified", "undecided", "falsified")


# status is one of STATUSES and boxes a list of BoxRecord; the endpoint
# proofs are not stored, since the config alone fixes them
Certificate = namedtuple("Certificate", "inequality_id status boxes stats config")


# Bisection gives up after this many boxes that reach max_depth without a
# sign: the answer is then "undecided" whatever the rest yields, and
# near a zero of the margin the failing leaves would otherwise number ~10^5.
MAX_FAILED_LEAVES = 64


def _bisect_cover(f, lo: float, hi: float, cfg: CertifyConfig):
    """Cover [lo, hi] with certainly-positive boxes by adaptive bisection.

    Stops at the first certainly-negative box or after MAX_FAILED_LEAVES
    unresolved leaves.  Once MAX_BOXES boxes are accepted, every box still
    to come counts as unresolved.  Returns (accepted, failed,
    falsified_record, worst).
    """
    accepted: list[BoxRecord] = []
    failed: list[BoxRecord] = []
    falsified: list[BoxRecord] = []
    frontier = [(Interval(lo, hi), 0)]
    while frontier and not falsified and len(failed) < MAX_FAILED_LEAVES:
        box, depth = frontier.pop()
        rec = BoxRecord(box, f(box), depth)
        full = len(accepted) >= MAX_BOXES
        if certainly_positive(rec.margin) and not full:
            accepted.append(rec)
        elif certainly_negative(rec.margin):
            falsified.append(rec)
        elif full or depth >= cfg.max_depth:
            failed.append(rec)
        else:
            a, b = split(box)
            frontier.append((a, depth + 1))
            frontier.append((b, depth + 1))
    accepted.sort(key=lambda r: (r.interval.lo, r.interval.hi))
    failed.sort(key=lambda r: (r.interval.lo, r.interval.hi))
    worst = min(failed, key=lambda r: r.margin.lo, default=None)
    return accepted, failed, (falsified[0] if falsified else None), worst


def _prove_ends(spec: InequalitySpec, cfg: CertifyConfig) -> tuple[float, float]:
    """Prove F > 0 on the endpoint regions that cfg fixes and return the
    cover [delta, end] that the boxes must fill: end is pi/2 - epsilon_max
    for a form vanishing at pi/2, the only kind with a near-pi/2 proof, and
    pi/2 + ulp for the others.  A failing proof raises as near_zero_proof
    and near_half_pi_proof do."""
    near_zero_proof(spec.id, cfg.delta, cfg.degree)
    if spec.vanish_order_half_pi == 0:
        return cfg.delta, _HALF_PI_HI
    near_half_pi_proof(spec.id, cfg.epsilon_max, cfg.degree)
    # the exact difference, rounded up once
    return cfg.delta, rational_enclosure(Fraction(_HALF_PI_HI) - Fraction(cfg.epsilon_max)).hi


def certify(inequality_id: str, cfg: CertifyConfig = CertifyConfig()) -> Certificate:
    """Produce a Certificate for one catalog inequality.

    The near-zero proof is mandatory: margins vanish at 0, so bisection
    alone ends undecided there (never falsified).
    """
    t0 = time.perf_counter()
    accepted, failed, falsified, worst = _bisect_cover(
        lambda x: eval_form(inequality_id, x, degree=cfg.degree),
        *_prove_ends(CATALOG[inequality_id], cfg), cfg
    )
    wall = time.perf_counter() - t0
    status, boxes = ("undecided" if failed else "certified"), accepted
    if falsified is not None:
        status, boxes, worst = "falsified", [falsified], falsified
    return Certificate(
        inequality_id=inequality_id,
        status=status,
        boxes=boxes,
        stats=CertStats(
            box_count=len(boxes),
            max_depth_reached=max((b.depth for b in boxes), default=0),
            wall_time=wall,
            worst_box=worst,
        ),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# serialization (schema tancert-cert-v6; all floats as hex strings)
# ---------------------------------------------------------------------------

def _hex(x: float) -> str:
    return float(x).hex()


def _int(v) -> int:
    # bool, float and str are refused rather than truncated or parsed
    if type(v) is not int:
        raise DomainError(f"{v!r} where the schema has an integer")
    return v


def certificate_to_dict(cert: Certificate) -> dict:
    """JSON-ready dict.  wall_time is an execution detail and deliberately
    absent so identical configs yield identical bytes."""
    return {
        "schema": SCHEMA,
        "inequality_id": cert.inequality_id,
        "status": cert.status,
        "config": {
            "delta": _hex(cert.config.delta),
            "epsilon_max": _hex(cert.config.epsilon_max),
            "degree": cert.config.degree,
            "max_depth": cert.config.max_depth,
        },
        "boxes": [[*b.interval.to_hex(), b.depth] for b in cert.boxes],
        "stats": {
            "box_count": cert.stats.box_count,
            "max_depth_reached": cert.stats.max_depth_reached,
        },
    }


def certificate_from_dict(d: dict) -> Certificate:
    schema = d.get("schema") if isinstance(d, dict) else None
    if schema != SCHEMA:
        raise DomainError(f"unknown certificate schema {schema!r}")
    if not isinstance(d["inequality_id"], str):
        raise DomainError("inequality_id must be a string")
    if d["status"] not in STATUSES:
        raise DomainError(f"unknown status {d['status']!r}")
    if len(d["boxes"]) > MAX_BOXES:
        raise DomainError(f"{len(d['boxes'])} boxes; a certificate holds at most {MAX_BOXES}")
    cfg = CertifyConfig(
        delta=float.fromhex(d["config"]["delta"]),
        epsilon_max=float.fromhex(d["config"]["epsilon_max"]),
        degree=d["config"]["degree"],
        max_depth=d["config"]["max_depth"],
    )
    boxes = [
        BoxRecord(Interval.from_hex(row[0], row[1]), None, _int(row[2])) for row in d["boxes"]
    ]
    cert = Certificate(
        inequality_id=d["inequality_id"],
        status=d["status"],
        boxes=boxes,
        stats=CertStats(
            box_count=_int(d["stats"]["box_count"]),
            max_depth_reached=_int(d["stats"]["max_depth_reached"]),
            wall_time=0.0,
        ),
        config=cfg,
    )
    # one file per certificate: what certify would write for this content,
    # so no unread key, extra row entry or non-canonical number goes unseen
    canonical = certificate_to_dict(cert)
    if canonical != d:
        keys = sorted(str(k) for k in canonical.keys() | d.keys() if canonical.get(k) != d.get(k))
        raise DomainError(f"{', '.join(keys)} not as certify writes them")
    return cert


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True) + "\n"


def save_certificate(cert: Certificate, path) -> None:
    with open(path, "w") as fh:
        fh.write(certificate_to_json(cert))


def _largest_file_bytes() -> int:
    """Size of the largest file certify writes: every field at its widest,
    each float as long as float.hex writes one, and MAX_BOXES rows."""
    tiny, wide = 2.0**-1022, Interval.point(-(2.0**-1022))  # -0x1.0000000000000p-1022
    cert = Certificate(
        max(CATALOG, key=len), max(STATUSES, key=len), [BoxRecord(wide, None, MAX_DEPTH)],
        CertStats(MAX_BOXES, MAX_DEPTH, 0.0), CertifyConfig(tiny, tiny, MAX_DEGREE, MAX_DEPTH),
    )
    one, two = (len(certificate_to_json(cert._replace(boxes=cert.boxes * n))) for n in (1, 2))
    return one + (MAX_BOXES - 1) * (two - one)


# Longest file check reads (about 5.9 MB); a longer one is refused unparsed.
MAX_FILE_BYTES = _largest_file_bytes()


def load_certificate(path) -> Certificate:
    """Read a certificate file; content that is not a certificate exactly as
    certify writes it raises DomainError."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_FILE_BYTES + 1)
    try:
        if len(data) > MAX_FILE_BYTES:
            raise DomainError(f"longer than the {MAX_FILE_BYTES} bytes of the largest certificate")
        return certificate_from_dict(json.loads(data))
    except (DomainError, ValueError, KeyError, TypeError, IndexError, OverflowError,
            RecursionError) as exc:
        raise DomainError(f"malformed certificate: {type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# independent re-verification
# ---------------------------------------------------------------------------

class CheckResult(namedtuple("CheckResult", "ok diagnoses")):
    """Whether a certificate checked out, and a list of what is wrong."""
    __slots__ = ()

    def __bool__(self) -> bool:  # a non-empty tuple would always be true
        return self.ok


def check_certificate(cert: Certificate) -> CheckResult:
    """Re-verify a certificate from scratch, one diagnosis per failed part.

    A falsified claim is one box.  A certified claim is the endpoint proofs
    its config fixes and boxes that chain across exactly the cover [start,
    end] between them; a broken cover is reported at its first break and no
    box of it is evaluated.  Then the stats and the box depths are checked,
    and each box is evaluated once at the config degree: its margin must be
    certainly negative for a falsified claim and certainly positive for a
    certified one.  No stored margin is read; a file holds none.
    """
    spec = CATALOG.get(cert.inequality_id)
    if spec is None:
        return CheckResult(False, [f"unknown inequality id {cert.inequality_id!r}"])
    boxes, diagnoses = cert.boxes, []
    if cert.status == "falsified":
        if len(boxes) != 1:
            return CheckResult(False, [f"a falsified certificate holds 1 box, not {len(boxes)}"])
        has_sign, sign = certainly_negative, "negative"
    elif cert.status == "certified":
        try:
            # at an unusable degree no box margin could be recomputed either
            start, end = _prove_ends(spec, cert.config)
        except (NotPositive, OrderMismatch, DomainError) as exc:
            return CheckResult(False, [f"endpoint proof failed: {exc}"])
        ends = [start, *(b.interval.hi for b in boxes)]
        starts = [*(b.interval.lo for b in boxes), end]
        if ends != starts:
            k = next(k for k, (a, b) in enumerate(zip(ends, starts)) if a != b)
            where = f"before box {k}" if k < len(boxes) else "at the cover end"
            return CheckResult(False, [f"cover gap {where}: from {ends[k]} to {starts[k]}"])
        has_sign, sign = certainly_positive, "positive"
    else:
        # nothing to re-establish; the record makes no positivity claim
        return CheckResult(True, [f"status is {cert.status}; no claim to check"])
    # a claim holds a box here: a falsified one exactly one, a certified cover one or more
    stored = (cert.stats.box_count, cert.stats.max_depth_reached)
    actual = (len(boxes), max(b.depth for b in boxes))
    if stored != actual:
        diagnoses.append(f"stats (box_count, max_depth_reached) {stored}, boxes {actual}")
    deep = next((i for i, b in enumerate(boxes) if not 0 <= b.depth <= cert.config.max_depth), None)
    if deep is not None:
        diagnoses.append(f"box {deep}: depth {boxes[deep].depth} outside [0, max_depth]")
    for i, box in enumerate(boxes):
        try:
            margin = eval_form(cert.inequality_id, box.interval, degree=cert.config.degree)
        except DomainError as exc:
            diagnoses.append(f"box {i}: margin not verifiable: {exc}")
            continue
        if not has_sign(margin):
            diagnoses.append(f"box {i}: margin not {sign}")
    if cert.status == "falsified" and not diagnoses:
        return CheckResult(True, [f"falsified: F < 0 on {boxes[0].interval}"])
    return CheckResult(not diagnoses, diagnoses)


def check_file(path) -> CheckResult:
    """Load and re-verify a certificate file.  A file that does not hold a
    well-formed certificate fails the check with one diagnosis; only a
    file that cannot be opened raises (OSError)."""
    try:
        cert = load_certificate(path)
    except DomainError as exc:
        return CheckResult(False, [str(exc)])
    return check_certificate(cert)
