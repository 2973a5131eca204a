"""The exact-series engine shares work between forms without changing bytes.

The series of every subtree is cached per (node, center, degree, radius),
and every `PowerSeries` caches its coefficient enclosures, its suffix
bounds (the first is its sup bound) and its square, so the nine forms of
one process share work.  The first
two tests run fresh interpreters, so no cache of this suite's process is
warm:

  * the certificates do not depend on the order in which the forms are
    certified, nor on whether other forms were certified first;
  * the work of certifying all nine forms at the `wide_endpoints` flags
    stays within fixed counts of series products, interval Horner calls,
    rational enclosures, `PiPoly` constructions and series constructions,
    which do not depend on the machine.

The others clear the caches in process: a form's series built beside the
other forms is bit for bit the one built alone, and the disc bound of every
series that certification builds is the interval Horner value.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tancert
from tancert import certifier
from tancert.certifier import CATALOG, MAX_EPSILON, CertifyConfig, certify, form_series
from tancert.interval import _HALF_PI_HI, Interval
from tancert.series import PowerSeries

from conftest import interval_horner

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
counts = {{"products": 0, "horner": 0, "enclosures": 0, "pipolys": 0, "series": 0}}

def counted(key, fn):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper

series.PowerSeries.__mul__ = counted("products", series.PowerSeries.__mul__)
series.rational_enclosure = counted("enclosures", series.rational_enclosure)
series.PiPoly.__init__ = counted("pipolys", series.PiPoly.__init__)
series.PowerSeries.__init__ = counted("series", series.PowerSeries.__init__)
series.horner = counted("horner", series.horner)
cfg = {WIDE}
for cid in CATALOG:
    certify(cid, cfg)
print(json.dumps(counts))
"""

# at the wide_endpoints flags; products count PowerSeries.__mul__, horner the
# interval Horner evaluations of series (sup bounds do not call it, and a box
# or proof whose sign Horner leaves open takes none more: its Bernstein bound
# is no Horner call), so one per box and endpoint proof, 9 + 9 + 3;
# enclosures the rational enclosures that series take (the Bernstein bound
# builds none), pipolys the PiPoly built after import (series keep integer
# rows and build PiPoly only when their coefficients are read) and series the
# PowerSeries built.  A product's constants and powers of x at 0 apply as one
# monomial, which builds one series, and a product of monomials alone is built
# by ps_poly, so series fell from 116 to 103; a product with no constant
# shifts without building the unit c = 1, so enclosures fell from 2469 to
# 2465 and pipolys from 65 to 61.  A product no longer encloses its
# coefficients past the degree: it computes none of them, and bounds the
# terms it drops by the factors' cached coefficient enclosures, so
# enclosures fell from 2465 to 2023.  A coefficient in Q[pi, 1/pi] takes
# two, one per end of its exact integer bracket, where it took one per
# power of pi that it holds, so enclosures fell from 2023 to 1895; a
# rational coefficient still takes one
MAX_WORK = {"products": 25, "horner": 21, "enclosures": 1895, "pipolys": 61, "series": 103}


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
    over = {k: (counts[k], top) for k, top in MAX_WORK.items() if counts[k] > top}
    assert not over, f"work above its ceiling (count, ceiling): {over}"


def _clear_series_caches():
    certifier._quotient.cache_clear()
    certifier._node_series.cache_clear()


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


@pytest.mark.parametrize(
    "cfg", [CertifyConfig(), CertifyConfig(delta=0.5, epsilon_max=0.25, degree=96)],
    ids=["degree-16", "degree-96"],
)
def test_disc_bound_of_every_certify_series(cfg, monkeypatch):
    built, init = [], PowerSeries.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(PowerSeries, "__init__", recording_init)
    _clear_series_caches()
    for cid in CATALOG:
        certify(cid, cfg)
    assert len(built) > 100
    for s in built:
        disc = Interval(-s.radius, s.radius)
        assert s.sup().hex() == interval_horner(s.coefficient_enclosures(), disc).mag().hex()
