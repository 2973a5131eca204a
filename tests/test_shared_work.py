"""The exact-series engine shares work between forms without changing bytes.

Each form string is linearized once per process (`certifier._linearized`,
cached), each series is written once per (form, center, degree) from that
linearization, and every `PowerSeries` caches its coefficient enclosures.
The first two tests run fresh interpreters, so no cache of this suite's
process is warm:

  * the certificates do not depend on the order in which the forms are
    certified, nor on whether other forms were certified first;
  * the work of certifying all nine forms at the `wide_endpoints` flags
    is exactly one linearization per form and one series build per
    (form, center), and stays within fixed counts of interval Horner
    calls, rational enclosures, `PiPoly` constructions and series
    constructions, which do not depend on the machine.

The last clears the caches in process: a form's series built beside the
other forms is bit for bit the one built alone.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tancert
from tancert import certifier
from tancert.certifier import CATALOG, MAX_EPSILON, form_series
from tancert.interval import _HALF_PI_HI

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
from tancert import certifier, series
from tancert.certifier import CATALOG, CertifyConfig, certify
counts = {{"builds": 0, "horner": 0, "enclosures": 0, "pipolys": 0, "series": 0}}

def counted(key, fn):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper

certifier.ps_trig = counted("builds", certifier.ps_trig)
series.rational_enclosure = counted("enclosures", series.rational_enclosure)
series.PiPoly.__init__ = counted("pipolys", series.PiPoly.__init__)
series.PowerSeries.__init__ = counted("series", series.PowerSeries.__init__)
series.horner = counted("horner", series.horner)
cfg = {WIDE}
for cid in CATALOG:
    certify(cid, cfg)
counts["linearizations"] = certifier._linearized.cache_info().misses
print(json.dumps(counts))
"""

# at the wide_endpoints flags: one linearization per form and one closed-form
# build per (form, center), 9 at 0 and 3 at pi/2, are exact counts; the rest
# are ceilings.  horner counts the interval Horner evaluations of series (a
# box or proof whose sign Horner leaves open takes none more: its Bernstein
# bound is no Horner call), so one per box and endpoint proof, 9 + 9 + 3;
# enclosures the rational enclosures that series take: the eight exact
# coefficients past the degree that each build folds into its tail, the
# coefficient enclosures of the twelve quotients, and one per cached
# closed-form remainder factor; pipolys the PiPoly built after import
# (series keep integer rows and build PiPoly only when their coefficients
# are read); series the PowerSeries built, a build and its quotient each.
# When each series was the product of leaf series, they were 25 products,
# 1895 enclosures, 61 PiPoly and 103 series.
EXACT_WORK = {"linearizations": 9, "builds": 12}
MAX_WORK = {"horner": 21, "enclosures": 1214, "pipolys": 58, "series": 24}


def _fresh(code: str, *args: str) -> str:
    # -B: the child writes no bytecode into the source tree
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code, *args],
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
    assert {k: counts[k] for k in EXACT_WORK} == EXACT_WORK
    over = {k: (counts[k], top) for k, top in MAX_WORK.items() if counts[k] > top}
    assert not over, f"work above its ceiling (count, ceiling): {over}"


def _clear_series_caches():
    certifier._quotient.cache_clear()
    certifier._linearized.cache_clear()


@pytest.mark.parametrize("degree", [16, 40, 96])
@pytest.mark.parametrize("center,radius", [("zero", _HALF_PI_HI), ("half_pi", MAX_EPSILON)])
def test_shared_subtree_build_equals_fresh_build(center, radius, degree):
    ids = [cid for cid, spec in CATALOG.items() if center == "zero" or spec.vanish_order_half_pi]
    _clear_series_caches()
    shared = {cid: form_series(cid, center, degree, radius) for cid in ids}
    for cid in ids:
        _clear_series_caches()
        fresh = form_series(cid, center, degree, radius)
        assert fresh.coeffs == shared[cid].coeffs, cid
        assert fresh.tail.hex() == shared[cid].tail.hex(), cid
