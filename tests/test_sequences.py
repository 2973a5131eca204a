import random
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest

import tancert
from tancert import sequences
from tancert.certifier import CertifyConfig, certify, form_series, near_zero_proof
from tancert.errors import DomainError, IdentityViolation
from tancert.interval import Interval, half_pi_enclosure
from tancert.sequences import (
    a_seq,
    b_seq,
    t_seq,
    u_seq,
    verify_shift_identities,
    _compose_shift,
)

from conftest import LEMMA_MUTATIONS, contains, mp_phi


def test_t_first_four_vanish():
    assert [t_seq(n) for n in range(4)] == [0, 0, 0, 0]


def test_t_small_values():
    assert t_seq(4) == 4096  # 2*15^2 + 1 + 5*9^3
    assert t_seq(5) == 86016  # 2*19^2 + 1 + 13*9^4


def test_t_integer_and_positive():
    for n in range(210):
        v = t_seq(n)
        assert v.denominator == 1
        if n >= 4:
            assert v > 0


def test_u_both_routes():
    assert u_seq(4) == (110592, 110592)
    assert u_seq(0) == (0, 0)
    for n in range(80):
        rec, closed = u_seq(n)
        assert rec == closed


def test_u4_cross_check_by_hand():
    # 90*T4 - 3*T5 and B4 + A4*9^3
    assert 90 * 4096 - 3 * 86016 == 110592
    assert b_seq(4) + a_seq(4) * 9**3 == 110592
    assert a_seq(4) == 99
    assert b_seq(4) == 38421


def test_shift_identities():
    report = verify_shift_identities(200)
    assert report.ok
    assert report.a_shift_coeffs == (99, 694, 324, 32)
    assert report.b_shift_coeffs == (-69, 506, 1036, 640, 128)
    # shifted form at n=0 agrees with the direct polynomial
    assert b_seq(1) == -69
    assert report.shifted_coeffs_imply_positivity


def test_shift_identities_requires_n_max():
    with pytest.raises(DomainError):
        verify_shift_identities(4)


def test_compose_shift_detects_tampering():
    assert _compose_shift((1, 2, 1), 1) == (4, 4, 1)  # (n+1)^2 + 2(n+1) + 1


def test_editing_one_side_of_a_shift_identity_is_refused(monkeypatch):
    monkeypatch.setattr(sequences, "_B_SHIFT1_EXPECTED", (-69, 507, 1036, 640, 128))
    with pytest.raises(IdentityViolation, match=r"B\(n\+1\) coefficient of n\^1"):
        verify_shift_identities(8)


def test_phi_series_refuses_without_the_all_n_decrease(monkeypatch):
    # B + n(n-1)...(n-8) agrees with B at n = 0..8, so both routes to U_n
    # still agree there, but its B(n+1) has linear part 506 - 7! < 0
    extra = [1]
    for i in range(9):  # times (n - i)
        extra = [a - i * b for a, b in zip([0, *extra], [*extra, 0])]
    b = tuple(c + e for c, e in zip([*sequences._B_COEFFS, 0, 0, 0, 0, 0], extra))
    monkeypatch.setattr(sequences, "_B_COEFFS", b)
    monkeypatch.setattr(sequences, "_B_SHIFT1_EXPECTED", _compose_shift(b, 1))
    assert _compose_shift(b, 1)[1] == 506 - factorial(7)
    assert not verify_shift_identities(8).shifted_coeffs_imply_positivity


def test_term_decrease_at_sqrt3_exact():
    # T_n 3^n/(2n)! > T_{n+1} 3^(n+1)/(2n+2)! as exact rationals
    for n in range(4, 101):
        lhs = Fraction(t_seq(n) * 3**n, factorial(2 * n))
        rhs = Fraction(t_seq(n + 1) * 3 ** (n + 1), factorial(2 * n + 2))
        assert lhs > rhs


# lemma_phi's series from its catalog string, at degree 48, where it pins
# phi(pi/2) = 2 pi within 3e-14
PHI = form_series("lemma_phi", "zero", 48, half_pi_enclosure().hi)


@pytest.mark.parametrize("degree", [16, 40, 96])
def test_lemma_phi_form_series_has_the_lemma_coefficients(degree):
    # the certificate's series, built from the catalog string, is exactly
    # 3 sum_{n>=4} (-1)^n T_n x^(2n)/(2n)!
    coeffs = form_series("lemma_phi", "zero", degree, half_pi_enclosure().hi).coeffs
    expected = [
        Fraction((-1) ** (k // 2) * 3 * t_seq(k // 2), factorial(k)) if k % 2 == 0 else 0
        for k in range(degree + 1)
    ]
    assert [c.terms.get(0, 0) for c in coeffs] == expected
    assert all(set(c.terms) <= {0} for c in coeffs)


def test_lemma_phi_form_series_overlaps_the_closed_form(oracle):
    # at degree 16 the tail bound carries much of the width near pi/2; the
    # series must still enclose phi's closed trig form, at points and on boxes
    hp = half_pi_enclosure()
    built = form_series("lemma_phi", "zero", 16, hp.hi)
    for j in range(32):
        lo, hi = hp.lo * j / 32, hp.lo * (j + 1) / 32
        assert contains(built.eval(Interval.point(hi)), mp_phi(hi))
        box = built.eval(Interval(lo, hi))
        assert all(contains(box, mp_phi(t)) for t in (lo, (lo + hi) / 2, hi)), (lo, hi)


def test_phi_enc_values(oracle):
    assert contains(PHI.eval(Interval.point(0.0)), 0)
    assert contains(PHI.eval(Interval.point(1.0)), mp_phi(1))
    hp = half_pi_enclosure()
    v = PHI.eval(hp)
    assert contains(v, 2 * mp.pi)
    assert v.width <= 1e-10


def test_phi_enc_domain():
    with pytest.raises(DomainError):
        PHI.eval(Interval(0.0, 1.6))  # beyond the radius
    with pytest.raises(DomainError):
        form_series("lemma_phi", "half_pi", 48, 0.25)  # phi needs no expansion at pi/2


def test_phi_series_vs_trig_agreement(oracle):
    rng = random.Random(42)
    for _ in range(100):
        x = rng.uniform(0.0, 1.57)
        assert contains(PHI.eval(Interval.point(x)), mp_phi(x)), x


def test_phi_series_wide_box(oracle):
    box = PHI.eval(Interval(0.3, 1.2))
    for t in (0.3, 0.7, 1.2):
        assert contains(box, mp_phi(t))


def test_certify_phi_positive():
    cert = certify("lemma_phi", CertifyConfig(delta=0.25, max_depth=30))
    assert cert.status == "certified"
    proof = near_zero_proof("lemma_phi", cert.config.delta, cert.config.degree)
    assert proof.order == 8
    # the factored leading bracket: the x^8 coefficient is 3*T4/8! = 32/105,
    # and the (0, 1/4] lower bound keeps most of it
    assert proof.normalized_lower_bound > 3 * 0.10
    assert Fraction(4096, factorial(8)) - Fraction(86016, factorial(10)) * Fraction(1, 16) > Fraction(1, 10)


def test_certify_phi_positive_rejects_bad_delta():
    with pytest.raises(DomainError):
        certify("lemma_phi", CertifyConfig(delta=1.5))


def test_trig_rational_normal_form_and_derivatives():
    from tancert.sequences import _C, _S, _TAN, _X

    assert (_C**2 + _S**2 - 1).num == {}
    assert (_S.d() - _C).num == {} and (_C.d() + _S).num == {}
    assert (_TAN.d() - (1 + _TAN**2)).num == {}
    assert ((_X**3).d() - 3 * _X**2).num == {}
    assert (_S.dlog() - _C / _S).num == {}
    # x, cos x and sin x obey no other relation
    assert (_C - _S).num and (_X * _C - _S).num


def test_replay_refuses_a_zero_denominator(monkeypatch):
    from tancert.sequences import _C, _S, _X

    # c^2 + s^2 - 1 is 0 as a function, so neither side may divide by it:
    # 0/0 must not pass as a proof
    with pytest.raises(DomainError, match="denominator"):
        _X / (_C**2 + _S**2 - 1)
    monkeypatch.setitem(sequences._IDENTITIES, "eq24_quotient", lambda: (_X, _X + (_C - _C) / (_S - _S)))
    with pytest.raises(DomainError):
        sequences.replay_identity("eq24_quotient")
    with pytest.raises(DomainError, match="unknown identity"):
        sequences.replay_identity("eq99")


@pytest.mark.parametrize("ident", tancert.REPLAY_IDENTITIES)
def test_sympy_confirms_each_identity(ident):
    # an independent oracle: sympy's own trig functions, derivative and
    # simplifier, through exponentials
    import sympy as sp

    x = sp.symbols("x", positive=True)
    tan, cot = sp.tan(x), sp.cot(x)
    h = x - 3 * tan / (3 + tan**2)
    phi = (9 - 24 * x**2) * sp.cos(x) - 9 * sp.cos(3 * x) - 4 * x * sp.sin(3 * x)
    if ident == "lemma_phi_series":
        # through x^41 only, but independent of the Q[n, E] rule: sympy's own
        # Taylor series against T_n as the paper displays it
        T = lambda n: 2 * (4 * n - 1) ** 2 + 1 + (8 * n - 27) * sp.Rational(9) ** (n - 1)
        taylor = sum(3 * (-1) ** n * T(n) * x ** (2 * n) / sp.factorial(2 * n) for n in range(21))
        assert sp.expand(sp.series(phi, x, 0, 42).removeO() - taylor) == 0
        return
    lhs, rhs = {
        "eq22_factorization": (sp.diff(3 - x**2 - 3 * x * cot, x), (1 + 3 * cot**2) * h),
        "eq24_quotient": (
            sp.diff(6 * sp.log(tan / x) - 5 * sp.log(3 * (tan - x) / x**3), x),
            phi / (4 * x * sp.cos(x) ** 2 * sp.sin(x) * (tan - x)),
        ),
        "thm_a_h_prime": (sp.diff(h, x), 4 * tan**4 / (3 + tan**2) ** 2),
    }[ident]
    assert sp.simplify(sp.expand_trig(lhs - rhs).rewrite(sp.exp)) == 0


def test_lemma_phi_series_is_proved_for_every_n():
    # phi's four terms give 9, 96n^2 - 48n, -9E and (8/3) n E, E = 9^n
    assert sequences._phi_series_coeffs() == {
        (0, 0): 9, (2, 0): 96, (1, 0): -48, (0, 1): -9, (1, 1): Fraction(8, 3)
    }
    assert sequences.replay_identity("lemma_phi_series") is None


@pytest.mark.parametrize("mutation", LEMMA_MUTATIONS)
def test_lemma_phi_series_refuses_each_mutation(mutation, monkeypatch):
    LEMMA_MUTATIONS[mutation](monkeypatch)
    with pytest.raises(IdentityViolation, match="lemma_phi_series: lhs - rhs keeps"):
        sequences.replay_identity("lemma_phi_series")
