"""The exact-series engine shares work between forms without changing bytes.

Leaf series are cached per (center, name, degree, radius) and every
`PowerSeries` caches its coefficient enclosures and its sup bound, so
the nine forms of one process share work.  These tests run fresh
interpreters, so no cache of this suite's process is warm:

  * the certificates do not depend on the order in which the forms are
    certified, nor on whether other forms were certified first;
  * the work of certifying all nine forms at the `wide_endpoints` flags
    stays within fixed counts of series products, interval Horner calls
    and `PiPoly` enclosures, which do not depend on the machine.
"""

import json
import subprocess
import sys
from pathlib import Path

import tancert
from tancert.certifier import CATALOG

GOLDEN = Path(__file__).resolve().parent / "data" / "golden" / "wide_endpoints"
PACKAGE_ROOT = Path(tancert.__file__).resolve().parents[1]
WIDE = "CertifyConfig(delta=0.5, epsilon_max=0.25, degree=96)"

CERTIFY = f"""
import json, sys
from tancert.certifier import CertifyConfig, certificate_to_json, certify
cfg = {WIDE}
print(json.dumps([[cid, certificate_to_json(certify(cid, cfg))] for cid in sys.argv[1:]]))
"""

COUNT = f"""
import json
from tancert import series
from tancert.certifier import CATALOG, CertifyConfig, certify
counts = {{"products": 0, "horner": 0, "enclosures": 0}}

def counted(key, fn):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper

series.PowerSeries.__mul__ = counted("products", series.PowerSeries.__mul__)
series.PiPoly.enclosure = counted("enclosures", series.PiPoly.enclosure)
series.horner = counted("horner", series.horner)
cfg = {WIDE}
for cid in CATALOG:
    certify(cid, cfg)
print(json.dumps(counts))
"""

# at the wide_endpoints flags; products count PowerSeries.__mul__, horner the
# interval Horner evaluations of series, enclosures the PiPoly.enclosure calls;
# five of the products build lemma_phi's series from its catalog string
MAX_WORK = {"products": 34, "horner": 67, "enclosures": 4718}


def _fresh(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(PACKAGE_ROOT)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _certify_fresh(ids) -> dict:
    return dict(json.loads(_fresh(CERTIFY, *ids)))


def test_certificates_do_not_depend_on_call_order():
    ids = list(CATALOG)
    forward = _certify_fresh(ids)
    backward = _certify_fresh(reversed(ids))
    for cid in ids:
        alone = _certify_fresh([cid])[cid]
        pinned = (GOLDEN / f"cert-{cid}.json").read_text()
        assert forward[cid] == backward[cid] == alone == pinned, cid


def test_wide_endpoints_work_counts():
    counts = json.loads(_fresh(COUNT))
    over = {k: (counts[k], top) for k, top in MAX_WORK.items() if counts[k] > top}
    assert not over, f"work above its ceiling (count, ceiling): {over}"
