"""Pinned certificates: the nine default-config certificates, byte for byte.

`tests/data/golden/cert-<id>.json` holds what `tancert certify all` wrote
under the default configuration (schema tancert-cert-v3).  A change to
the series backends, bisection or serialization that alters any margin,
proof bound or box shows up here as a byte difference.  Regenerate the
files only when such a change is intended, and record why in CHANGES.md.

The same files are checked against an oracle that shares no code with the
certifier: mpmath evaluates each form straight from its definition
(`conftest.mp_form`), without the form parser or the exact series.

`tests/data/golden/wide_endpoints/cert-<id>.json` pins the same nine
certificates at `--delta 0.5 --epsilon-max 0.25 --degree 96`, where the
exact series products and the pi-power coefficients at pi/2 do the most
work.

`tests/data/schema-v2/cert-main_upper.json` is the default `main_upper`
certificate as schema tancert-cert-v2 wrote it; the checker refuses it.
"""

from pathlib import Path

import mpmath as mp
import pytest

from tancert import cli
from tancert.certifier import (
    CATALOG,
    CertifyConfig,
    certificate_to_json,
    certify,
    check_certificate,
    check_file,
    load_certificate,
)

from conftest import contains, mp_form

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
WIDE_ENDPOINTS = CertifyConfig(delta=0.5, epsilon_max=0.25, degree=96)


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_golden_certificate_reproduced_and_checked(cid):
    path = GOLDEN / f"cert-{cid}.json"
    assert certificate_to_json(certify(cid)) == path.read_text()
    result = check_certificate(load_certificate(path))
    assert result.ok, result.diagnoses


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_degree_96_golden_certificate_reproduced(cid):
    path = GOLDEN / "wide_endpoints" / f"cert-{cid}.json"
    assert certificate_to_json(certify(cid, WIDE_ENDPOINTS)) == path.read_text()


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_golden_box_margins_contain_the_form(cid, oracle):
    cert = load_certificate(GOLDEN / f"cert-{cid}.json")
    for box in cert.boxes:
        lo, hi = mp.mpf(box.interval.lo), mp.mpf(box.interval.hi)
        for x in (lo, (lo + hi) / 2, hi):
            assert contains(box.margin, mp_form(cid, x)), (box, x)


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_golden_near_zero_bound_lies_below_the_quotient(cid, oracle):
    proof = load_certificate(GOLDEN / f"cert-{cid}.json").near_zero_proof
    delta, k0 = mp.mpf(proof.bound), proof.order
    for j in range(1, 33):
        x = delta * j / 32
        assert proof.normalized_lower_bound <= mp_form(cid, x) / x**k0, x


def test_v2_certificate_is_refused():
    path = DATA / "schema-v2" / "cert-main_upper.json"
    assert cli.main(["check", str(path)]) == 3
    result = check_file(path)
    assert not result.ok
    assert len(result.diagnoses) == 1, result.diagnoses
    assert "unknown certificate schema 'tancert-cert-v2'" in result.diagnoses[0]
