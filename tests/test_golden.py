"""Pinned certificates: the nine default-config certificates, byte for byte.

`tests/data/golden/cert-<id>.json` holds what `tancert certify all` wrote
under the default configuration.  A change to form evaluation, the series
backends, bisection or serialization that alters any margin, proof bound
or box shows up here as a byte difference.  Regenerate the files only
when such a change is intended, and record why in CHANGES.md.

`tests/data/golden/v1/` keeps the same nine certificates as schema
tancert-cert-v1 wrote them (naive box margins).  They must keep checking,
and they pin the checker's dispatch on the schema string.
"""

import json
from pathlib import Path

import pytest

from tancert.certifier import (
    CATALOG,
    SCHEMA,
    SCHEMA_V1,
    certificate_from_dict,
    certificate_to_json,
    certify,
    check_certificate,
    eval_form,
    load_certificate,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_golden_certificate_reproduced_and_checked(cid):
    path = GOLDEN / f"cert-{cid}.json"
    assert certificate_to_json(certify(cid)) == path.read_text()
    result = check_certificate(load_certificate(path))
    assert result.ok, result.diagnoses


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_v1_golden_certificate_still_checks(cid):
    v1 = json.loads((GOLDEN / "v1" / f"cert-{cid}.json").read_text())
    v2 = json.loads((GOLDEN / f"cert-{cid}.json").read_text())
    assert v1["schema"] == SCHEMA_V1
    result = check_certificate(certificate_from_dict(v1))
    assert result.ok, result.diagnoses
    # the centered margins change only the box cover, never the proofs
    for doc in (v1, v2):
        del doc["schema"], doc["boxes"], doc["stats"]
    assert v1 == v2


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_v2_margin_lies_inside_naive_margin(cid):
    cert = load_certificate(GOLDEN / f"cert-{cid}.json")
    assert cert.schema == SCHEMA
    for box in cert.boxes:
        naive = eval_form(cid, box.interval, schema=SCHEMA_V1)
        assert naive.lo <= box.margin.lo and box.margin.hi <= naive.hi, box


def test_v1_body_relabelled_v2_fails_margin_check():
    doc = json.loads((GOLDEN / "v1" / "cert-main_upper.json").read_text())
    doc["schema"] = SCHEMA
    result = check_certificate(certificate_from_dict(doc))
    assert not result.ok
    assert any("margin mismatch" in d for d in result.diagnoses), result.diagnoses
