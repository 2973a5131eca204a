import mpmath as mp
import pytest

from tancert import REPLAY_IDENTITIES, replay_identity
from tancert.analysis import (
    _certified_bisection,
    crossover_lower,
    crossover_upper,
    exponent_ratio,
    gap_series,
    optimality_scan,
)
from tancert.errors import DomainError, IdentityViolation, NoSignChange
from tancert.interval import Interval, certainly_negative, certainly_positive

from conftest import PERTURBED_IDENTITIES, contains, mp_lower_gap, mp_upper_gap


def test_exponent_ratio_near_zero_limit():
    assert abs(exponent_ratio(0.1).phi - 1.19966) < 1e-4
    assert abs(exponent_ratio(0.01).phi - 1.2) < 1e-4


def test_exponent_ratio_near_half_pi():
    phi = exponent_ratio(1.57).phi
    assert 1.02 < phi < 1.04  # slow descent toward 1


def test_exponent_ratio_strictly_inside_at_one():
    assert 1.0 < exponent_ratio(1.0).phi < 1.2


def test_exponent_ratio_domain():
    with pytest.raises(DomainError):
        exponent_ratio(1e-7)
    with pytest.raises(DomainError):
        exponent_ratio(1.5707963267948966)


def _ratio_at_4096_bits(x: float) -> float:
    with mp.workprec(4096):
        mx = mp.mpf(x)
        t = mp.tan(mx)
        return float(mp.log(3 * (t - mx) / mx**3) / mp.log(t / mx))


def test_precision_robustness():
    # the fixed working precision already gives the float nearest the ratio:
    # every ninth point of the default sweep and points near both ends
    sweep = [0.01 + i * (1.56 - 0.01) / 199 for i in range(0, 200, 9)]
    for x in [1.1e-6, 1e-5, 1e-3, *sweep, 1.56, 1.5707963]:
        assert exponent_ratio(x).phi == _ratio_at_4096_bits(x), x


def test_optimality_scan_dense_grid():
    grid = [0.01 + i * (1.56 - 0.01) / 199 for i in range(200)]
    report = optimality_scan(grid)
    assert report.all_inside_open_interval
    assert 1.0 < report.inf_phi and report.sup_phi < 1.2


def test_optimality_scan_near_zero_limit():
    grid = [1e-4 * 10**(i / 4) for i in range(9)]  # 1e-4 .. 1e-2
    report = optimality_scan(grid)
    assert all(abs(s.phi - 1.2) < 1e-4 for s in report.samples)


def test_optimality_scan_descends_toward_one():
    report = optimality_scan([1.45, 1.50, 1.55, 1.57])
    phis = [s.phi for s in report.samples]
    assert phis == sorted(phis, reverse=True)
    assert phis[-1] > 1.0


def test_crossover_upper_bracket(oracle):
    res = crossover_upper(1e-3)
    assert res.bracket.width <= 1e-3
    assert res.bracket.lo <= 1.2332 <= res.bracket.hi
    assert mp_upper_gap(res.bracket.lo) < 0 < mp_upper_gap(res.bracket.hi)


def test_crossover_lower_bracket(oracle):
    res = crossover_lower(1e-3)
    assert res.bracket.width <= 1e-3
    assert res.bracket.lo <= 1.5255 <= res.bracket.hi
    assert mp_lower_gap(res.bracket.lo) < 0 < mp_lower_gap(res.bracket.hi)


def test_gap_forms_enclose_the_scaled_gaps(oracle):
    # the forms are D cos^6 x / x^15 and G cos x / x, by the oracle's D and G
    for k in range(1, 32):
        x = k / 20
        mx = mp.mpf(x)
        upper = gap_series("upper_x0").eval(Interval.point(x))
        lower = gap_series("lower_x1").eval(Interval.point(x))
        assert contains(upper, mp_upper_gap(mx) * mp.cos(mx) ** 6 / mx**15), x
        assert contains(lower, mp_lower_gap(mx) * mp.cos(mx) / mx), x


def test_gap_signs_at_reference_points(oracle):
    upper, lower = gap_series("upper_x0").eval, gap_series("lower_x1").eval
    assert certainly_negative(upper(Interval.point(1.2)))
    assert certainly_positive(upper(Interval.point(1.3)))
    assert certainly_negative(lower(Interval.point(1.5)))
    assert certainly_positive(lower(Interval.point(1.53)))
    # the un-powered bound differences have the same signs
    for x, sign in ((mp.mpf("1.2"), -1), (mp.mpf("1.3"), 1)):
        th = x + x ** mp.mpf("1.8") * mp.tan(x) ** mp.mpf("1.2") / 3
        qi = x + x**3 / 3 + (2 / mp.pi) ** 4 * x**4 * mp.tan(x)
        assert (th - qi) * sign > 0
    for x, sign in ((mp.mpf("1.5"), -1), (mp.mpf("1.53"), 1)):
        th = x + x**2 * mp.tan(x) / 3
        qi = x + x**3 / 3 + mp.mpf(2) / 15 * x**4 * mp.tan(x)
        assert (th - qi) * sign > 0


def test_crossover_tolerance_guard():
    with pytest.raises(DomainError):
        crossover_upper(1e-9)


def test_no_sign_change():
    with pytest.raises(NoSignChange):
        _certified_bisection(gap_series("upper_x0").eval, 1.25, 1.3, 1e-3, "test")


def test_replay_identities_pass():
    # exact proofs: each returns without a remainder
    for ident in REPLAY_IDENTITIES:
        assert replay_identity(ident) is None


def test_replay_violation_raised(monkeypatch):
    from tancert import sequences

    for ident, perturbed in PERTURBED_IDENTITIES.items():
        monkeypatch.setitem(sequences._IDENTITIES, ident, perturbed)
        with pytest.raises(IdentityViolation, match=ident):
            replay_identity(ident)


def test_h_prime_simplification_is_exact():
    # the closed form asserted by the replay: (3+t^2)^2 - 3(3-t^2)(1+t^2) = 4 t^4
    import sympy as sp

    t = sp.symbols("t")
    assert sp.expand((3 + t**2) ** 2 - 3 * (3 - t**2) * (1 + t**2) - 4 * t**4) == 0
