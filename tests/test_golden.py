"""Pinned certificates: the nine default-config certificates, byte for byte.

`tests/data/golden/cert-<id>.json` holds what `tancert certify all` wrote
under the default configuration.  A change to form evaluation, the series
backends, bisection or serialization that alters any margin, proof bound
or box shows up here as a byte difference.  Regenerate the files only
when such a change is intended, and record why in CHANGES.md.
"""

from pathlib import Path

import pytest

from tancert.certifier import CATALOG, certificate_to_json, certify, check_certificate, load_certificate

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_golden_certificate_reproduced_and_checked(cid):
    path = GOLDEN / f"cert-{cid}.json"
    assert certificate_to_json(certify(cid)) == path.read_text()
    result = check_certificate(load_certificate(path))
    assert result.ok, result.diagnoses
