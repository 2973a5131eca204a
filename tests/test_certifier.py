import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tancert import certifier, cli, series
from tancert.analysis import GAP_DEGREE, GAP_FORMS
from tancert.certifier import (
    CATALOG,
    MAX_DEGREE,
    MAX_EPSILON,
    MAX_FAILED_LEAVES,
    BoxRecord,
    CertifyConfig,
    InequalitySpec,
    certificate_from_dict,
    certificate_to_dict,
    certificate_to_json,
    certify,
    check_certificate,
    check_file,
    compile_form,
    eval_form,
    form_series,
    load_certificate,
    near_half_pi_proof,
    near_zero_proof,
    save_certificate,
    series_of,
    _bisect_cover,
)
from tancert.errors import DomainError, Falsified, NotPositive, OrderMismatch
from tancert.interval import (
    Interval,
    _HALF_PI_HI,
    _sub_up,
    certainly_positive,
    split,
)

from conftest import contains, count_calls, exact_eval, mp_form, pi_enclosure

_X = sp.symbols("x")
_SINC = sp.sin(_X) / _X
_P = (sp.sin(_X) - _X * sp.cos(_X)) / _X**3

SYMPY_FORMS = {
    "prop1_lower": 3 * _P - sp.cos(_X),
    "prop1_upper": _X
    * (_X**2 * _SINC**3 - 3 * _SINC * sp.cos(_X) ** 2 + 3 * sp.cos(_X) ** 3),
    "main_lower": 3 * _P - _SINC,
    "main_upper": _SINC**6 - 243 * _P**5 * sp.cos(_X),
    "bs_lower": _X * _SINC * (sp.pi**2 - 4 * _X**2) - 8 * _X * sp.cos(_X),
    "bs_upper": sp.pi**2 * _X * sp.cos(_X) - _X * _SINC * (sp.pi**2 - 4 * _X**2),
    "qi_lower": _X * _SINC
    - (_X + _X**3 / 3) * sp.cos(_X)
    - sp.Rational(2, 15) * _X**4 * _X * _SINC,
    "qi_upper": (_X + _X**3 / 3) * sp.cos(_X)
    + (2 / sp.pi) ** 4 * _X**4 * _X * _SINC
    - _X * _SINC,
    "lemma_phi": (9 - 24 * _X**2) * sp.cos(_X)
    - 9 * sp.cos(3 * _X)
    - 4 * _X * sp.sin(3 * _X),
}


def _coefficient_to_sympy(c: dict):
    """A coefficient {power of pi: Fraction} as a sympy number."""
    return sum(sp.Rational(v) * sp.pi**k for k, v in c.items())


@pytest.fixture(scope="module")
def sympy_leads():
    """Independent series oracle: leading coefficient of each form at 0."""
    leads = {}
    for cid, expr in SYMPY_FORMS.items():
        k0 = CATALOG[cid].vanish_order_zero
        poly = sp.series(expr, _X, 0, k0 + 2).removeO()
        poly = sp.expand(poly)
        for k in range(k0):
            assert sp.simplify(poly.coeff(_X, k)) == 0, (cid, k)
        leads[cid] = sp.simplify(poly.coeff(_X, k0))
    return leads


def test_catalog_leads_match_sympy_oracle(sympy_leads):
    for cid, spec in CATALOG.items():
        diff = sp.simplify(sympy_leads[cid] - _sympify_form(spec.leading_coeff_zero))
        assert diff == 0, cid


def test_catalog_leads_are_constant_strings():
    # each leading coefficient is written in the form language; an entry
    # that does not vanish at pi/2 states none there
    for cid, spec in CATALOG.items():
        assert type(spec.leading_coeff_zero) is str, cid
        if spec.vanish_order_half_pi:
            assert type(spec.leading_coeff_half_pi) is str, cid
        else:
            assert spec.leading_coeff_half_pi is None, cid


def test_rational_leads_are_the_expected_constants(sympy_leads):
    expected = {
        "prop1_lower": sp.Rational(2, 5),
        "main_lower": sp.Rational(1, 15),
        "main_upper": sp.Rational(2, 35),
        "qi_lower": sp.Rational(1, 105),
        "prop1_upper": sp.Rational(3, 5),
        "lemma_phi": sp.Rational(32, 105),
    }
    for cid, val in expected.items():
        assert sympy_leads[cid] == val


def test_half_pi_leads_match_sympy_oracle():
    eps = sp.symbols("eps", positive=True)
    for cid in ("bs_lower", "bs_upper", "qi_upper"):
        spec = CATALOG[cid]
        k1 = spec.vanish_order_half_pi
        expr = SYMPY_FORMS[cid].subs(_X, sp.pi / 2 - eps)
        poly = sp.expand(sp.series(expr, eps, 0, k1 + 1).removeO())
        for k in range(k1):
            assert sp.simplify(poly.coeff(eps, k)) == 0, (cid, k)
        lead = sp.simplify(poly.coeff(eps, k1))
        assert sp.simplify(lead - _sympify_form(spec.leading_coeff_half_pi)) == 0, cid


def _lead(cid, center, order):
    """The exact u^order coefficient of a form's series at degree 16."""
    return form_series(cid, center, 16, _RADIUS[center]).divide_power(order).coefficient(0)


def test_near_zero_proofs_all_ids():
    for cid, spec in CATALOG.items():
        proof = near_zero_proof(cid, 0.25, 16)
        assert proof.order == spec.vanish_order_zero
        assert proof.normalized_lower_bound > 0
        lead = _lead(cid, "zero", proof.order)
        assert sp.expand(_coefficient_to_sympy(lead) - _sympify_form(spec.leading_coeff_zero)) == 0
        assert pi_enclosure(lead).width < 1e-12


def test_near_half_pi_proofs(oracle):
    p = near_half_pi_proof("bs_lower", 0.125, 16)
    assert p.order == 2 and _lead("bs_lower", "half_pi", 2) == {0: 4}
    p = near_half_pi_proof("bs_upper", 0.125, 16)
    assert p.order == 1
    assert contains(pi_enclosure(_lead("bs_upper", "half_pi", 1)), mp.pi * (mp.pi**2 / 2 - 4))
    p = near_half_pi_proof("qi_upper", 0.125, 16)
    assert p.order == 1
    lead = pi_enclosure(_lead("qi_upper", "half_pi", 1))
    assert contains(lead, mp.pi / 2 + mp.pi**3 / 24 - 8 / mp.pi)


def test_near_half_pi_rejected_where_margin_positive():
    with pytest.raises(DomainError):
        near_half_pi_proof("main_lower", 0.125, 16)


HALF_PI_IDS = sorted(cid for cid, spec in CATALOG.items() if spec.vanish_order_half_pi)


def test_one_half_pi_quotient_per_form_and_degree(monkeypatch):
    # Q1 is built once, at radius MAX_EPSILON, so epsilon_max only bounds the
    # region: three widths take one series per form, not one per width
    calls, build = [], certifier.form_series

    def recording(cid, center, degree, radius):
        calls.append((cid, center, degree, radius))
        return build(cid, center, degree, radius)

    monkeypatch.setattr(certifier, "form_series", recording)
    certifier._quotient.cache_clear()
    for eps in (1 / 16, 1 / 8, 1 / 4):
        for cid in HALF_PI_IDS:
            near_half_pi_proof(cid, eps, 16)
    assert sorted(calls) == [(cid, "half_pi", 16, certifier.MAX_EPSILON) for cid in HALF_PI_IDS]


@pytest.mark.parametrize("cid", HALF_PI_IDS)
def test_near_half_pi_proof_holds_for_every_epsilon(cid):
    k1 = CATALOG[cid].vanish_order_half_pi
    for degree in (k1 + 8, 16, 96):
        for eps in [2.0**-30, *(i / 64 for i in range(1, 17))]:
            proof = near_half_pi_proof(cid, eps, degree)
            assert proof.order == k1 and proof.normalized_lower_bound > 0, (degree, eps)


def test_near_zero_preconditions():
    with pytest.raises(DomainError):
        near_zero_proof("main_lower", 0.75, 16)
    with pytest.raises(DomainError):
        near_zero_proof("lemma_phi", 0.25, 12)  # needs k0 + 8


def test_order_mismatch_on_tampered_catalog(monkeypatch):
    spec = CATALOG["main_lower"]
    bad = certifier.InequalitySpec(
        id=spec.id,
        statement=spec.statement,
        entire_form=spec.entire_form,
        derivation=spec.derivation,
        vanish_order_zero=spec.vanish_order_zero,
        leading_coeff_zero="1/14",
    )
    monkeypatch.setitem(CATALOG, "main_lower", bad)
    with pytest.raises(OrderMismatch):
        near_zero_proof("main_lower", 0.25, 16)


@pytest.mark.parametrize("lead", ["x/3", "cos/15"])
def test_non_constant_catalog_coefficient_is_refused(monkeypatch, lead):
    # a leading coefficient is a constant of the form language, a sum of
    # terms c*pi^q; x/3 and cos/15 are forms, but not constants
    bad = CATALOG["main_lower"]._replace(leading_coeff_zero=lead)
    monkeypatch.setitem(CATALOG, "main_lower", bad)
    with pytest.raises(DomainError, match=r"not a sum of c\*pi\^q"):
        near_zero_proof("main_lower", 0.25, 16)


def test_not_positive_when_series_goes_negative(monkeypatch, tmp_path):
    spec = _negative_spec(
        "x^2/15 - 100*x^3", vanish_order_zero=2, leading_coeff_zero="1/15"
    )
    monkeypatch.setitem(CATALOG, spec.id, spec)
    # the quotient runs from 1/15 down to 1/15 - 25: positive at 0, unproven
    with pytest.raises(NotPositive, match="shrink the bound or raise the degree") as exc:
        near_zero_proof(spec.id, 0.25, 16)
    assert not isinstance(exc.value, Falsified)
    assert cli.main(["--out", str(tmp_path), "certify", spec.id]) == 1
    assert not list(tmp_path.iterdir())


def _negative_spec(form: str, **orders) -> InequalitySpec:
    return InequalitySpec(
        id="negative", statement="F > 0", entire_form=form, derivation="negative near an endpoint",
        **orders,
    )


def test_endpoint_proof_falsified_near_zero(monkeypatch, tmp_path, capsys):
    # x^4 - x^2 = x^2 (x^2 - 1): the quotient is below -15/16 on (0, 1/4]
    spec = _negative_spec("x^4 - x^2", vanish_order_zero=2, leading_coeff_zero="0 - 1")
    monkeypatch.setitem(CATALOG, spec.id, spec)
    with pytest.raises(Falsified, match=r"negative: F < 0 on \(0, 0.25\]"):
        near_zero_proof(spec.id, 0.25, 16)
    assert cli.main(["--out", str(tmp_path), "certify", spec.id]) == 2
    err = capsys.readouterr().err
    assert "F < 0 on (0, 0.25]" in err and "shrink the bound" not in err
    assert not list(tmp_path.iterdir())


def test_endpoint_proof_falsified_near_half_pi(monkeypatch):
    # -cos = -u sinc u in u = pi/2 - x: the quotient is -sinc u < 0
    spec = _negative_spec(
        "0 - cos", vanish_order_zero=0, leading_coeff_zero="0 - 1",
        vanish_order_half_pi=1, leading_coeff_half_pi="0 - 1",
    )
    monkeypatch.setitem(CATALOG, spec.id, spec)
    with pytest.raises(Falsified, match=r"F < 0 on \[pi/2 - 0.125, pi/2\)"):
        near_half_pi_proof(spec.id, 0.125, 16)


def test_divide_power_rejects_nonzero_low_coeff():
    ps = series_of("1", "zero", 1, 0.5)
    with pytest.raises(OrderMismatch):
        ps.divide_power(1)


def test_eval_form_examples(oracle):
    # a margin encloses Q = F/x^k0, which is F itself at x = 1; at the
    # default degree 16 the series tail alone is 5e-11 wide here
    v = eval_form("main_lower", Interval.point(1.0), degree=32)
    assert contains(v, mp_form("main_lower", 1))
    assert v.width < 1e-14
    v = eval_form("main_upper", Interval.point(1.0))
    expected = mp_form("main_upper", 1)
    assert contains(v, expected)
    # consistency route: cos^6 (s^6 - 243 r^5) is the same number
    c, t = mp.cos(1), mp.tan(1)
    alt = c**6 * (t**6 - 243 * (t - 1) ** 5)
    assert abs(expected - alt) < mp.mpf(10) ** -50
    k0 = CATALOG["main_upper"].vanish_order_zero
    v = eval_form("main_upper", Interval.point(0.5))
    assert contains(v, mp_form("main_upper", mp.mpf(0.5)) / mp.mpf(0.5) ** k0)
    # near 0, Q is its leading coefficient to far below an ulp; F/x^k0 is
    # undefined at 0, so a box touching 0 is refused
    lead = Fraction(CATALOG["main_upper"].leading_coeff_zero)
    assert contains(eval_form("main_upper", Interval.point(1e-90)), mp.mpf(lead.numerator) / lead.denominator)
    with pytest.raises(DomainError):
        eval_form("main_upper", Interval.point(0.0))


def test_eval_form_containment_random(oracle):
    rng = random.Random(17)
    for cid in CATALOG:
        for _ in range(60):
            a = rng.uniform(0.0, 1.5707)
            b = min(a + rng.uniform(0, 0.2), 1.5707963267948966)
            box = Interval(a, b)
            v = eval_form(cid, box)
            k0 = CATALOG[cid].vanish_order_zero
            for t in (a, b):
                assert contains(v, mp_form(cid, t) / mp.mpf(t) ** k0), cid


def test_certify_all_catalog_ids():
    for cid in CATALOG:
        cert = certify(cid)
        assert cert.status == "certified", cid
        assert bool(check_certificate(cert)), cid


@pytest.mark.parametrize(
    "flags",
    [{"delta": 0.125, "epsilon_max": 0.0625}, {"delta": 0.5, "epsilon_max": 0.25, "degree": 96}],
    ids=["deep_cover", "wide_endpoints"],
)
def test_benchmark_workload_configs_certify(flags):
    cfg = CertifyConfig(**flags)
    for cid in CATALOG:
        cert = certify(cid, cfg)
        assert cert.status == "certified", cid
        assert check_certificate(cert).ok, cid


def test_certify_main_lower_box_budget():
    cert = certify("main_lower")
    assert cert.status == "certified"
    assert cert.stats.box_count < 5000


def _original_inequality_holds(cid, x):
    """The cataloged inequality itself (pre-normalization) at a point."""
    t = mp.tan(x)
    if cid == "prop1_lower":
        return x + x**3 / 3 < t
    if cid == "prop1_upper":
        return t < x + t**3 / 3
    if cid == "main_lower":
        return x**2 * t < 3 * (t - x)
    if cid == "main_upper":
        return 3 * (t - x) < x ** mp.mpf("1.8") * t ** mp.mpf("1.2")
    if cid == "bs_lower":
        return 8 * x / (mp.pi**2 - 4 * x**2) < t
    if cid == "bs_upper":
        return t < mp.pi**2 * x / (mp.pi**2 - 4 * x**2)
    if cid == "qi_lower":
        return x + x**3 / 3 + mp.mpf(2) / 15 * x**4 * t < t
    if cid == "qi_upper":
        return t < x + x**3 / 3 + (2 / mp.pi) ** 4 * x**4 * t
    if cid == "lemma_phi":
        return (9 - 24 * x**2) * mp.cos(x) - 9 * mp.cos(3 * x) - 4 * x * mp.sin(3 * x) > 0
    raise ValueError(cid)


def test_certified_boxes_are_sound(oracle):
    # every box of one certificate, three points each; random boxes elsewhere
    # (the topmost box ends one ulp past pi/2 so the cover closes the open
    # interval; original-inequality checks stay strictly inside it)
    inside = mp.mpf("1.5707963267948966")
    rng = random.Random(31)
    cert = certify("main_upper")
    for box in cert.boxes:
        for t in (0.0, 0.5, 1.0):
            x = mp.mpf(box.interval.lo) + t * (
                mp.mpf(box.interval.hi) - mp.mpf(box.interval.lo)
            )
            assert mp_form("main_upper", x) > 0
            assert _original_inequality_holds("main_upper", min(x, inside))
    for cid in ("bs_lower", "qi_lower", "prop1_upper"):
        boxes = certify(cid).boxes
        for _ in range(100):
            box = boxes[rng.randrange(len(boxes))]
            x = rng.uniform(box.interval.lo, box.interval.hi)
            x = min(max(x, box.interval.lo), box.interval.hi)
            if x == 0.0:
                continue
            assert mp_form(cid, x) > 0
            assert _original_inequality_holds(cid, min(mp.mpf(x), inside))


def test_certificate_has_no_gaps_and_positive_margins(monkeypatch):
    # every shipped cover is one box, so a synthetic margin makes certify
    # write a cover of eight boxes or more, which must chain from delta to
    # the cover end, pi/2 - epsilon_max for bs_lower
    monkeypatch.setattr(certifier, "eval_form", _signed_below(0.2))
    cert = certify("bs_lower")
    boxes = [b.interval for b in cert.boxes]
    assert cert.status == "certified" and len(boxes) >= 8
    assert boxes[0].lo == cert.config.delta
    assert boxes[-1].hi == _sub_up(_HALF_PI_HI, cert.config.epsilon_max)
    for prev, cur in zip(boxes, boxes[1:]):
        assert prev.hi == cur.lo
    assert all(certainly_positive(b.margin) for b in cert.boxes)


def test_monotone_refinement():
    base = certify("bs_upper", CertifyConfig(degree=16, max_depth=48))
    finer = certify("bs_upper", CertifyConfig(degree=20, max_depth=60))
    assert base.status == "certified" and finer.status == "certified"


def test_determinism_same_config():
    a = certificate_to_json(certify("main_lower"))
    b = certificate_to_json(certify("main_lower"))
    assert a == b


def test_determinism_across_thread_counts(tmp_path):
    for threads in ("1", "4"):
        argv = ["--out", str(tmp_path / threads), "certify", "bs_lower", "--threads", threads]
        assert cli.main(argv) == 0
    a, b = ((tmp_path / t / "cert-bs_lower.json").read_bytes() for t in ("1", "4"))
    assert a == b
    assert cli.main(["--out", str(tmp_path / "0"), "certify", "bs_lower", "--threads", "0"]) == 1


def test_bisection_insufficiency_guard():
    # F vanishes at 0, so no box touching 0 is signed: bisection alone from 0
    # is refused at its first box, neither certified nor falsified
    with pytest.raises(DomainError, match="eval_form domain"):
        _bisect_cover(lambda x: eval_form("main_lower", x), 0.0, _HALF_PI_HI, CertifyConfig())
    for box in (Interval(0.0, 0.25), Interval.point(0.0), Interval(-0.0, 2.0**-1074)):
        with pytest.raises(DomainError, match="eval_form domain"):
            eval_form("main_lower", box)


def _signed_below(width):
    """A synthetic margin, positive on boxes narrower than width and open on the rest."""
    return lambda cid, x, degree: Interval(1.0, 2.0) if x.width < width else Interval(-1.0, 2.0)


def test_bisection_stops_at_the_box_cap(monkeypatch):
    # the synthetic margin needs eight boxes or more across bs_lower's cover
    monkeypatch.setattr(certifier, "eval_form", _signed_below(0.2))
    assert len(certify("bs_lower").boxes) >= 8
    monkeypatch.setattr(certifier, "MAX_BOXES", 2)
    cert = certify("bs_lower")
    assert cert.status == "undecided"
    assert len(cert.boxes) == 2


def test_bisection_stops_after_failed_leaf_budget():
    # a margin that never resolves: 256 leaves at depth 8 without the budget
    accepted, failed, falsified, worst = _bisect_cover(
        lambda box: Interval(-1.0, 1.0), 0.1, 0.2, CertifyConfig(max_depth=8)
    )
    assert len(failed) == MAX_FAILED_LEAVES
    assert falsified is None and not accepted
    assert worst in failed


# x^2 (1 - x^2) passes its near-zero proof and turns negative past x = 1
NEGATIVE = certifier.InequalitySpec(
    id="negative",
    statement="x^4 < x^2",
    entire_form="x^2 - x^4",
    derivation="none; false on (1, pi/2)",
    vanish_order_zero=2,
    leading_coeff_zero="1",
)


def test_falsified_on_negative_form(monkeypatch):
    monkeypatch.setitem(CATALOG, NEGATIVE.id, NEGATIVE)
    cert = certify(NEGATIVE.id)
    assert cert.status == "falsified"
    assert check_certificate(cert).ok


def test_hand_built_falsified_certificate_checks_valid(monkeypatch, tmp_path):
    # the claim is one box past x = 1, where the recomputed margin is negative
    spec = NEGATIVE
    monkeypatch.setitem(CATALOG, spec.id, spec)
    box = Interval(1.25, 1.5)
    cert = certifier.Certificate(
        inequality_id=spec.id,
        status="falsified",
        boxes=[BoxRecord(box, eval_form(spec.id, box), 0)],
        stats=certifier.CertStats(box_count=1, max_depth_reached=0, wall_time=0.0),
        config=CertifyConfig(),
    )
    path = tmp_path / "cert-negative.json"
    save_certificate(cert, path)
    assert check_file(path).ok, check_file(path).diagnoses
    assert cli.main(["check", str(path)]) == 0
    positive = Interval(0.5, 0.75)
    for bad in (
        cert._replace(boxes=[]),
        cert._replace(boxes=cert.boxes * 2),
        cert._replace(boxes=[BoxRecord(positive, None, 0)]),
        # the stats of a falsified claim are checked as a certified one's are
        cert._replace(stats=cert.stats._replace(box_count=7, max_depth_reached=999)),
    ):
        result = check_certificate(bad)
        assert not result.ok and len(result.diagnoses) == 1, result.diagnoses


def test_engine_reports_falsified_box():
    accepted, failed, falsified, worst = _bisect_cover(
        lambda box: Interval(-3.0, -2.0), 0.1, 0.2, CertifyConfig()
    )
    assert falsified is not None
    assert not accepted


def test_serialization_round_trip(tmp_path):
    cert = certify("prop1_lower")
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    loaded = load_certificate(path)
    assert certificate_to_dict(loaded) == certificate_to_dict(cert)
    assert bool(check_certificate(loaded))


def test_schema_field(tmp_path):
    cert = certify("prop1_lower")
    doc = certificate_to_dict(cert)
    assert doc["schema"] == "tancert-cert-v6"
    doc["schema"] = "v0"
    with pytest.raises(DomainError):
        certificate_from_dict(doc)


def test_check_detects_tampered_margin(monkeypatch):
    # a certified claim for x^2 - x^4, whose cover reaches past x = 1: the
    # endpoint proof holds, and the recomputed margin of the last box is not
    # positive, whatever margin the boxes carry
    monkeypatch.setitem(CATALOG, NEGATIVE.id, NEGATIVE)
    boxes = [
        BoxRecord(Interval(0.25, 0.75), Interval(1.0, 2.0), 1),
        BoxRecord(Interval(0.75, _HALF_PI_HI), Interval(1.0, 2.0), 1),
    ]
    cert = certifier.Certificate(
        inequality_id=NEGATIVE.id,
        status="certified",
        boxes=boxes,
        stats=certifier.CertStats(box_count=2, max_depth_reached=1, wall_time=0.0),
        config=CertifyConfig(),
    )
    result = check_certificate(cert)
    assert not result.ok
    assert result.diagnoses == ["box 1: margin not positive"]


def test_check_reports_a_margin_that_cannot_be_evaluated(tmp_path):
    # main_lower vanishes to order 2, so its margin series needs degree >= 10;
    # the unusable degree is reported once, not once more per box
    doc = certificate_to_dict(certify("main_lower"))
    doc["config"]["degree"] = 9
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    result = check_file(path)
    assert not result.ok
    assert result.diagnoses == [
        "endpoint proof failed: a series of order 2 needs 10 <= degree <= 128"
    ]


def test_box_count_read_from_disk_is_capped(tmp_path):
    doc = certificate_to_dict(certify("main_lower"))
    doc["boxes"] = doc["boxes"][:1] * (certifier.MAX_BOXES + 1)
    doc["stats"]["box_count"] = len(doc["boxes"])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    result = check_file(path)
    assert time.perf_counter() - start < 1.0
    assert not result.ok and len(result.diagnoses) == 1, result.diagnoses[:3]


def test_check_reads_up_to_the_largest_certificate(tmp_path):
    # the bound allows MAX_BOXES rows of floats as long as float.hex writes any
    for x in (-(2.0**-1022), -(2.0**-1074), -1.7976931348623157e308, float("nan")):
        assert len(x.hex()) <= len((-(2.0**-1022)).hex()) == 24
    text = certificate_to_json(certify("bs_lower"))
    path = tmp_path / "cert.json"
    path.write_text(text + " " * (certifier.MAX_FILE_BYTES - len(text)))
    assert check_file(path).ok
    assert 5.8e6 < certifier.MAX_FILE_BYTES < 90 * certifier.MAX_BOXES + 1000


def test_boxes_that_horner_signs_keep_their_margins(monkeypatch):
    # a box whose sign the exact interval Horner plus tail decides keeps that
    # margin, rounded once, bit for bit; the Bernstein bound narrows only the
    # others; every margin is its Fraction reference
    certifier._quotient.cache_clear()
    narrowed = 0
    for cid, spec in CATALOG.items():
        q = certifier._quotient(spec, "zero", 16)
        for box in certify(cid).boxes:
            value, horner_value = exact_eval(q, box.interval)
            assert box.margin.to_hex() == value.to_hex(), (cid, box)
            if certainly_positive(horner_value):
                assert box.margin == horner_value, (cid, box)
            else:
                narrowed += 1
    assert narrowed
    # prop1_lower's proofs and box are all signed by Horner, so no series
    # evaluation of its certify takes a Bernstein bound
    evals = count_calls(monkeypatch, series.PowerSeries, "eval")
    bernstein = count_calls(monkeypatch, series, "_bernstein")
    certify("prop1_lower")
    assert len(evals) > 0 and not bernstein


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(0.0, MAX_EPSILON, exclude_min=True))
@example(0.125)  # catalog_default
@example(0.0625)  # deep_cover
@example(0.25)  # wide_endpoints
@example(5e-324)
def test_cover_end_is_the_directed_difference(eps):
    # the cover end pi/2 - epsilon_max, exact and rounded up once, is the
    # kernel's correctly rounded-up difference bit for bit, so every written
    # cover ends where it did
    with pytest.MonkeyPatch.context() as patch:
        for proof in ("near_zero_proof", "near_half_pi_proof"):
            patch.setattr(certifier, proof, lambda *args: None)
        _, end = certifier._prove_ends(CATALOG["bs_lower"], CertifyConfig(epsilon_max=eps))
    assert end.hex() == _sub_up(_HALF_PI_HI, eps).hex()


def _split_cover(cert):
    """The certificate with every box split in two, one level deeper, as read from a file."""
    boxes = [BoxRecord(half, None, b.depth + 1) for b in cert.boxes for half in split(b.interval)]
    stats = cert.stats._replace(box_count=len(boxes), max_depth_reached=cert.stats.max_depth_reached + 1)
    return certificate_from_dict(certificate_to_dict(cert._replace(boxes=boxes, stats=stats)))


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_a_finer_cover_still_checks(cid):
    result = check_certificate(_split_cover(certify(cid)))
    assert result.ok, result.diagnoses


def test_check_detects_gap():
    # bs_lower's default cover split twice, one box inside it taken out
    cert = _split_cover(_split_cover(certify("bs_lower")))
    assert len(cert.boxes) >= 3 and check_certificate(cert).ok
    del cert.boxes[1]
    result = check_certificate(cert)
    assert not result.ok
    assert any("gap" in d for d in result.diagnoses)


def test_check_detects_missing_tail_coverage():
    # bs_lower's default cover split in two, its last box taken out
    cert = _split_cover(certify("bs_lower"))
    cert.boxes[:] = cert.boxes[:-1]
    assert cert.boxes
    result = check_certificate(cert)
    assert not result.ok
    assert any("gap" in d for d in result.diagnoses)


@pytest.mark.parametrize(
    "field,value",
    [("delta", 0.0), ("delta", 0.5000001), ("delta", float("nan")),
     ("epsilon_max", -1.0), ("epsilon_max", 0.3), ("epsilon_max", float("inf"))],
)
def test_config_bounds_endpoint_regions(field, value):
    with pytest.raises(DomainError):
        CertifyConfig(**{field: value})
    CertifyConfig(delta=certifier.MAX_DELTA, epsilon_max=certifier.MAX_EPSILON)


@pytest.mark.parametrize(
    "field,value",
    [("degree", 16.5), ("degree", True), ("max_depth", True), ("delta", "0.25"),
     ("epsilon_max", None)],
)
def test_config_refuses_wrong_types(field, value):
    # degree=16.5 used to pass and fail later inside the series build
    with pytest.raises(DomainError):
        CertifyConfig(**{field: value})
    with pytest.raises(DomainError):
        CertifyConfig()._replace(**{field: value})


def test_records_refuse_attribute_assignment():
    cert = certify("bs_upper")
    for record, name in [
        (CATALOG["main_upper"], "id"),
        (near_zero_proof("bs_upper", 0.25, 16), "order"),
        (cert.boxes[0], "depth"),
        (cert.config, "degree"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_tampered_certificate_result_is_false():
    cert = certify("bs_upper")
    tampered = cert._replace(boxes=cert.boxes[1:])
    assert check_certificate(cert) and not check_certificate(tampered)


def test_eval_form_defaults_to_the_config_degree():
    box = Interval(0.5, 0.75)
    assert CertifyConfig().degree == 16
    assert eval_form("main_upper", box) == eval_form("main_upper", box, degree=16)
    assert eval_form("main_upper", box) != eval_form("main_upper", box, degree=24)


def test_series_degree_is_capped(tmp_path):
    for degree in (-5, MAX_DEGREE + 1):
        with pytest.raises(DomainError):
            CertifyConfig(degree=degree)
    with pytest.raises(DomainError):
        near_zero_proof("main_upper", 0.25, MAX_DEGREE + 1)
    doc = certificate_to_dict(certify("main_upper"))
    doc["config"]["degree"] = 512
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    result = check_file(path)
    assert time.perf_counter() - start < 1.0
    assert not result.ok and len(result.diagnoses) == 1, result.diagnoses


# Parity of each form's exact series at 0: the even forms stay positive on
# (-pi/2, 0), the odd ones are negative there.
SERIES_PARITY = {
    "prop1_lower": "even", "main_lower": "even", "main_upper": "even", "lemma_phi": "even",
    "prop1_upper": "odd", "bs_lower": "odd", "bs_upper": "odd", "qi_lower": "odd", "qi_upper": "odd",
}


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_form_series_has_one_parity(cid):
    s = form_series(cid, "zero", 24, _HALF_PI_HI)
    parities = {("even", "odd")[k % 2] for k in range(s.degree + 1) if s.coefficient(k)}
    assert parities == {SERIES_PARITY[cid]}


def test_form_series_requires_known_id():
    with pytest.raises(DomainError):
        form_series("nope", "zero", 16, 0.25)
    with pytest.raises(DomainError):
        eval_form("nope", Interval.point(0.5))


def _sympify_form(text):
    """A catalog string as a sympy expression, parsed without compile_form."""
    leaves = {"x": _X, "pi": sp.pi, "cos": sp.cos(_X), "sin": sp.sin(_X), "sinc": _SINC, "p": _P}
    return sp.sympify(text.replace("^", "**"), locals=leaves)


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_catalog_string_is_the_sympy_form(cid):
    text = CATALOG[cid].entire_form
    diff = sp.expand(sp.expand_trig(_sympify_form(text) - SYMPY_FORMS[cid]))
    assert sp.simplify(diff) == 0, cid
    compile_form(text)  # and the string lies in the form language


@pytest.mark.parametrize(
    "text",
    ["3*tan - cos", "x^(1/2)", "x^-1", "sinc/cos", "x/(2 - 2)", "cos(3*x)", "3*p -", "x < 1",
     "x/(1 + pi)", "x/(pi - pi)"],
)
def test_compile_form_rejects_text_outside_the_language(text):
    with pytest.raises(DomainError):
        compile_form(text)


def test_leaf_without_a_series_at_the_center_is_refused():
    # sinc and p have no series at pi/2 (they would need a division there)
    with pytest.raises(DomainError, match="no series of 'p' at half_pi"):
        series_of("3*p - sinc", "half_pi", 16, 0.25)


_RADIUS = {"zero": _HALF_PI_HI, "half_pi": MAX_EPSILON}


def _centers(spec):
    """The centers where a catalog form has a series."""
    return ("zero", "half_pi") if spec.vanish_order_half_pi else ("zero",)


# every form whose series certification or a crossover builds, at each
# center where it has one
_FORMS_AT_CENTERS = [
    *((spec.entire_form, center) for spec in CATALOG.values() for center in _centers(spec)),
    *((text, "zero") for text in GAP_FORMS.values()),
]


@pytest.fixture(scope="module")
def sympy_leaf_series():
    """Each leaf as a sympy Poly in u through u^24, at each center, from
    sympy's own Taylor series: at pi/2, x = pi/2 - u."""
    u, n = sp.symbols("u"), 24

    def poly(expr):
        return sp.Poly(sp.series(expr, u, 0, n + 1).removeO(), u)

    x = {"zero": u, "half_pi": sp.pi / 2 - u}
    return {
        center: {
            "x": sp.Poly(x[center], u), "pi": sp.pi,
            "cos": poly(sp.cos(x[center])), "sin": poly(sp.sin(x[center])),
            **({"sinc": poly(sp.sin(u) / u), "p": poly((sp.sin(u) - u * sp.cos(u)) / u**3)}
               if center == "zero" else {}),
        }
        for center in x
    }


@pytest.mark.parametrize("text,center", _FORMS_AT_CENTERS)
def test_series_coefficients_equal_sympy_taylor_coefficients(text, center, sympy_leaf_series):
    # the truncated products of sympy's leaf series give the exact Taylor
    # coefficients through u^24, pi kept symbolic
    leaves = sympy_leaf_series[center]
    reference = sp.sympify(text.replace("^", "**"), locals=leaves)
    built = series_of(text, center, 24, _RADIUS[center])
    u = reference.gens[0]
    for n in range(25):
        diff = reference.coeff_monomial(u**n) - _coefficient_to_sympy(built.coefficient(n))
        assert sp.expand(diff) == 0, (text, center, n)


# sha256 of repr((rows, den)) of each series on a grid of degrees, as the
# products of leaf series built them before the closed form replaced them
# (tests/data/series_rows.json): the exact coefficients are one set of
# values, so their reduced rows must not move.
SERIES_ROWS = json.loads((Path(__file__).parent / "data" / "series_rows.json").read_text())


def test_series_rows_equal_the_pinned_rows():
    built = {f"{name} zero {GAP_DEGREE}": series_of(text, "zero", GAP_DEGREE, _HALF_PI_HI)
             for name, text in GAP_FORMS.items()}
    for cid, spec in CATALOG.items():
        for center in _centers(spec):
            for d in (16, 24, 48, 96, 128):
                built[f"{cid} {center} {d}"] = form_series(cid, center, d, _RADIUS[center])
    got = {key: hashlib.sha256(repr((s._rows, s._den)).encode()).hexdigest() for key, s in built.items()}
    assert got == SERIES_ROWS


@pytest.mark.parametrize(
    "a,b,centers",
    [
        ("sin*(4*cos^2 - 1)", "3*sin - 4*sin^3", ("zero", "half_pi")),  # sin 3x
        ("sinc*cos^2", "cos*cos*sinc", ("zero",)),
        ("x*(sinc*cos)", "(x*sinc)*cos", ("zero",)),
        ("cos^2 + sin^2", "1", ("zero", "half_pi")),
        ("(2/pi)^4*x^4*sin", "16*(x^4*sin)/pi^4", ("zero", "half_pi")),
        ("x^3*p", "sin - x*cos", ("zero", "half_pi")),
    ],
)
def test_strings_of_one_function_build_one_series(a, b, centers):
    # a form is linearized into cos(kx) and sin(kx) terms, so the order and
    # grouping of its products move neither its rows nor its tail
    for center in centers:
        for degree in (16, 96):
            sa, sb = (series_of(t, center, degree, _RADIUS[center]) for t in (a, b))
            assert (sa._rows, sa._den, sa.tail.hex()) == (sb._rows, sb._den, sb.tail.hex())


def test_new_catalog_entry_needs_no_evaluator_code(monkeypatch):
    spec = CATALOG["main_lower"]._replace(id="main_lower_copy")
    monkeypatch.setitem(CATALOG, spec.id, spec)
    cert = certify(spec.id)
    assert cert.status == "certified" and check_certificate(cert).ok
    doc = certificate_to_dict(cert)
    doc["inequality_id"] = "main_lower"
    assert doc == certificate_to_dict(certify("main_lower"))
