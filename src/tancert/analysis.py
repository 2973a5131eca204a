"""Sharpness numerics: the exponent ratio, optimal-exponent scan and
crossover points between the upper/lower tangent bounds.  The identities
of the paper's proof are proved exactly in `sequences`.

The exponent ratio

    ExponentRatio(x) = log(3 (tan x - x) / x^3) / log(tan x / x)

interpolates between its boundary limits 6/5 (at 0) and 1 (at pi/2);
its range staying strictly inside (1, 6/5) is the pointwise face of the
optimality of those exponents.  It needs logarithms, so it is computed
with arbitrary-precision arithmetic and is deliberately NOT
certificate-grade; the rigorous claims of this module are confined to
the sign certifications at the crossover bracket ends.  There each gap
between two bounds is an entire form in the catalog's form language,
evaluated at points through its exact series at 0 by `PowerSeries.eval`,
the route every certificate margin takes.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

import mpmath as mp

from .certifier import series_of
from .errors import DomainError, NoSignChange
from .interval import Interval, _HALF_PI_HI, _HALF_PI_LO, certainly_negative, certainly_positive
from .series import PowerSeries

# Bits of every exponent-ratio evaluation: they resolve the ratio far below
# the float spacing (tests/test_analysis.py compares each value with one
# computed at 4096 bits), and a point takes about 0.2 ms.
PRECISION_BITS = 200


# The records are namedtuples, like those of `certifier`.
RatioSample = namedtuple("RatioSample", "x phi")
# samples: sorted by x; all_inside_open_interval: every sample strictly in (1, 6/5)
ScanReport = namedtuple("ScanReport", "samples inf_phi sup_phi all_inside_open_interval")
# id: "upper_x0" | "lower_x1"
CrossoverResult = namedtuple("CrossoverResult", "id bracket iterations")


def exponent_ratio(x: float) -> RatioSample:
    """The exponent ratio at x, evaluated with PRECISION_BITS bits.

    Exploratory (not certificate-grade): trusts mpmath's transcendental
    rounding.  Precondition 1e-6 < x < pi/2 - 1e-9 keeps both logs away
    from their zeros/poles.
    """
    if not 1e-6 < x < _HALF_PI_LO - 1e-9:
        raise DomainError("exponent_ratio domain is (1e-6, pi/2 - 1e-9)")
    with mp.workprec(PRECISION_BITS):
        mx = mp.mpf(x)
        t = mp.tan(mx)
        num = mp.log(3 * (t - mx) / mx**3)
        den = mp.log(t / mx)
        value = num / den
    return RatioSample(x=x, phi=float(value))


def optimality_scan(grid) -> ScanReport:
    """Sample the exponent ratio over a grid in (0, pi/2).

    Reports inf/sup and whether every sample sits strictly inside
    (1, 6/5) — the pointwise restatement of the optimal exponent pair.
    """
    samples = tuple(sorted(
        (exponent_ratio(float(x)) for x in grid),
        key=lambda s: s.x,
    ))
    if not samples:
        raise DomainError("optimality_scan needs a nonempty grid")
    phis = [s.phi for s in samples]
    inside = all(1.0 < p < 1.2 for p in phis)
    return ScanReport(
        samples=samples,
        inf_phi=min(phis),
        sup_phi=max(phis),
        all_inside_open_interval=inside,
    )


# ---------------------------------------------------------------------------
# crossover brackets (rigorous sign certification, log-free reductions)
# ---------------------------------------------------------------------------

# Each gap is an entire form of the catalog's form language: the gap times a
# factor that is positive on (0, pi/2), so it keeps the gap's sign there.
# Its margins come from the form's exact series at 0, as certificates' do.
GAP_FORMS = {
    # D(x) = x^9 tan^6 x / 243 - (x^3/3 + (2/pi)^4 x^4 tan x)^5 times
    # cos^6 x / x^15: the fifth-power comparison of the two upper-bound
    # excesses over x.  D < 0 where the exponent-form upper bound is sharper.
    "upper_x0": "sinc^6/243 - (cos/3 + (2/pi)^4*x^2*sinc)^5*cos",
    # G(x) = tan x (5 - 2x^2) - 5x times cos x / x: the difference of the two
    # lower-bound excesses, rescaled by 15/x^2.  G > 0 where the
    # exponent-form lower bound is sharper.
    "lower_x1": "sinc*(5 - 2*x^2) - 5*cos",
}

# Series degree of the gap forms: the upper gap needs 32 to resolve the sign
# at every midpoint of its bisection down to tolerance 1e-6 (24 does not).
GAP_DEGREE = 32


@cache
def gap_series(which: str) -> PowerSeries:
    """Exact series at 0 of a gap form, valid on [0, pi/2 + ulp]."""
    return series_of(GAP_FORMS[which], "zero", GAP_DEGREE, _HALF_PI_HI)


def _certified_sign(f, x: float) -> int:
    v = f(Interval.point(x))
    if certainly_positive(v):
        return 1
    if certainly_negative(v):
        return -1
    return 0


def _certified_bisection(f, lo: float, hi: float, tol: float, which: str) -> CrossoverResult:
    if not tol >= 1e-6:  # NaN included
        raise DomainError("crossover tolerance must be >= 1e-6")
    s_lo = _certified_sign(f, lo)
    s_hi = _certified_sign(f, hi)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise NoSignChange(
            f"{which}: could not certify opposite signs on [{lo}, {hi}]"
        )
    iterations = 0
    while hi - lo > tol:
        width = hi - lo
        mid = lo + 0.5 * width
        s_mid = 0
        # a midpoint can land unresolvably close to the root; nudge it
        for shift in (0.0, width / 64, -width / 64, width / 16, -width / 16):
            candidate = mid + shift
            if not lo < candidate < hi:
                continue
            s_mid = _certified_sign(f, candidate)
            if s_mid != 0:
                mid = candidate
                break
        if s_mid == 0:
            raise NoSignChange(f"{which}: sign unresolvable near {mid}")
        iterations += 1
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return CrossoverResult(id=which, bracket=Interval(lo, hi), iterations=iterations)


def crossover_upper(tol: float = 1e-3) -> CrossoverResult:
    """Certified bracket of the upper-bound crossover near 1.233."""
    return _certified_bisection(gap_series("upper_x0").eval, 1.0, 1.4, tol, "upper_x0")


def crossover_lower(tol: float = 1e-3) -> CrossoverResult:
    """Certified bracket of the lower-bound crossover near 1.525."""
    return _certified_bisection(gap_series("lower_x1").eval, 1.4, 1.56, tol, "lower_x1")
