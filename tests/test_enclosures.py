import math
import random
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest

from tancert.enclosures import cos_enc, p_enc, sinc_enc
from tancert.errors import DomainError
from tancert.interval import Interval, half_pi_enclosure
from tancert.series import p_coeff

from conftest import contains, mp_p, mp_sinc


def test_cos_at_zero_exact():
    c = cos_enc(Interval.point(0.0))
    assert contains(c, 1)
    assert c.width <= 2 * math.ulp(1.0)


def test_sinc_at_zero_contains_one():
    assert contains(sinc_enc(Interval.point(0.0)), 1)


def test_cos_known_value(oracle):
    assert contains(cos_enc(Interval.point(1.0)), mp.cos(1))


def test_p_at_zero_contains_one_third():
    assert contains(p_enc(Interval.point(0.0)), Fraction(1, 3))


def test_p_known_values(oracle):
    assert contains(p_enc(Interval.point(1.0)), mp.sin(1) - mp.cos(1))
    hp = half_pi_enclosure()
    # p(pi/2) = (2/pi)^3
    assert contains(p_enc(hp), (2 / mp.pi) ** 3)


def test_domain_guards():
    with pytest.raises(DomainError):
        cos_enc(Interval(0, 2.5))
    with pytest.raises(DomainError):
        p_enc(Interval(-0.5, 0.5))
    with pytest.raises(DomainError):
        p_enc(Interval(0.0, 1.5707965))  # beyond pi/2


def test_p_series_matches_exact_subtraction_of_sin_and_xcos():
    # independent derivation through degree 30: coefficients of
    # (sin x - x cos x)/x^3 from the raw sin and cos factorial series
    sin_c = {2 * m + 1: Fraction((-1) ** m, factorial(2 * m + 1)) for m in range(16)}
    xcos_c = {2 * m + 1: Fraction((-1) ** m, factorial(2 * m)) for m in range(16)}
    diff = {k: sin_c[k] - xcos_c[k] for k in sin_c}
    for k, c in diff.items():
        if k - 3 < 0:
            assert c == 0
            continue
        if k - 3 > 30:
            continue
        m = (k - 3) // 2
        formula = Fraction((-1) ** m * 2 * (m + 1), factorial(2 * m + 3))
        assert c == formula == p_coeff(m), f"p coefficient mismatch at degree {k - 3}"


def test_pointwise_containment_randomized(oracle):
    rng = random.Random(99)
    for _ in range(400):
        x = rng.uniform(0.0, 1.5707963)
        xi = Interval.point(x)
        mx = mp.mpf(x)
        assert contains(cos_enc(xi), mp.cos(mx))
        assert contains(sinc_enc(xi), mp_sinc(mx))
        assert contains(p_enc(xi), mp_p(mx))


def test_width_convergence_on_dyadic_boxes():
    for fn in (cos_enc, sinc_enc, p_enc):
        for lo in (0.1, 0.45, 0.9, 1.3):
            wide = fn(Interval(lo, lo + 0.1))
            narrow = fn(Interval(lo, lo + 0.05))
            assert narrow.width <= 0.6 * wide.width + 1e-14


def test_wide_boxes_still_contain(oracle):
    rng = random.Random(5)
    for _ in range(100):
        a = rng.uniform(0, 1.4)
        b = min(a + rng.uniform(0, 0.6), 1.5707)
        box = Interval(a, b)
        for t in (0.0, 0.5, 1.0):
            x = mp.mpf(a) + t * (mp.mpf(b) - mp.mpf(a))
            assert contains(cos_enc(box), mp.cos(x))
            assert contains(p_enc(box), mp_p(x))
