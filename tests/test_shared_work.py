"""The exact-series engine shares work between forms without changing bytes.

Each form string is linearized once per process (`certifier._linearized`,
cached), each series is written once per (form, center, degree) from that
linearization, and every `PowerSeries` caches its coefficient brackets.
The first three tests run fresh interpreters, so no cache of this suite's
process is warm:

  * the certificates do not depend on the order in which the forms are
    certified, nor on whether other forms were certified first;
  * the work of certifying all nine forms at the `wide_endpoints` flags
    is exactly one linearization per form, one series build per (form,
    center) and one exact evaluation per box and endpoint proof, and stays
    within fixed counts of rational enclosures, `PiPoly` constructions and
    series constructions, which do not depend on the machine;
  * `tancert certify all` and `tancert check` on the nine files, at each
    benchmark workload's flags, write the goldens and call none of the
    directed-rounding primitives of `interval`: their margins are exact.

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

from test_bench_calls import WORKLOADS

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
counts = {{"builds": 0, "evaluations": 0, "enclosures": 0, "pipolys": 0, "series": 0}}

def counted(key, fn):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper

certifier.ps_trig = counted("builds", certifier.ps_trig)
series.rational_enclosure = counted("enclosures", series.rational_enclosure)
series.PiPoly.__init__ = counted("pipolys", series.PiPoly.__init__)
series.PowerSeries.__init__ = counted("series", series.PowerSeries.__init__)
series._range = counted("evaluations", series._range)
cfg = {WIDE}
for cid in CATALOG:
    certify(cid, cfg)
counts["linearizations"] = certifier._linearized.cache_info().misses
print(json.dumps(counts))
"""

# at the wide_endpoints flags: one linearization per form, one closed-form
# build per (form, center), 9 at 0 and 3 at pi/2, and one exact evaluation
# of a quotient (series._range) per box and endpoint proof, 9 + 9 + 3, are
# exact counts; the rest are ceilings at their counts.  enclosures counts
# the rational enclosures that series take, the only roundings from exact
# to float: one per build for its tail, two per evaluation (its two ends)
# and two more for each of the three whose sign Horner leaves open (the
# Bernstein bound's ends), 12 + 42 + 6; pipolys the PiPoly built after
# import, one per quotient for the u^k coefficient that `_quotient` compares
# with the catalog (the form compiler builds none, and series keep integer
# rows); series the PowerSeries built, a build and its quotient each.  When
# each series was the product of leaf series, they were 25 products, 1895
# enclosures, 61 PiPoly and 103 series; when eval ran interval Horner on
# float coefficient enclosures, 1214 enclosures and 58 PiPoly; while the
# compiler folded constants into PiPoly and each endpoint proof enclosed its
# leading coefficient, 84 enclosures and 70 PiPoly.
EXACT_WORK = {"linearizations": 9, "builds": 12, "evaluations": 21}
MAX_WORK = {"enclosures": 60, "pipolys": 12, "series": 24}


# The directed-rounding primitives of the float kernel, each wrapped wherever
# a tancert module holds it; certify and check must call none of them.
GUARD = """
import contextlib, io, json, os, sys
import tancert
from tancert import cli, enclosures, interval

PRIMITIVES = ("_add_down", "_add_up", "_sub_up", "_mul_down", "_mul_up", "_product_error",
              "_pow_down", "_pow_up", "_mul_bounds", "horner")
calls = dict.fromkeys(PRIMITIVES, 0)
originals = {name: getattr(interval, name) for name in PRIMITIVES}

def counted(name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper

for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "tancert"]:
    for name, fn in originals.items():
        if getattr(module, name, None) is fn:
            setattr(module, name, counted(name, fn))

out, flags = sys.argv[1], sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["--out", out, "certify", "all", *flags])]
    files = sorted(os.path.join(out, f) for f in os.listdir(out))
    codes.append(cli.main(["check", *files]))
used = dict(calls)
# the wrappers do count where the kernel runs: one direct enclosure
enclosures.cos_enc(interval.Interval(0.25, 0.5))
print(json.dumps({"codes": codes, "files": files, "calls": used, "control": calls}))
"""

GOLDEN_DIRS = {"catalog_default": GOLDEN.parent, "deep_cover": GOLDEN.parent / "deep_cover",
               "wide_endpoints": GOLDEN}


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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_certify_and_check_call_no_directed_rounding(name, tmp_path):
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in WORKLOADS[name].items()]
    result = json.loads(_fresh(GUARD, str(tmp_path), *flags))
    assert result["codes"] == [0, 0]
    assert [Path(f).name for f in result["files"]] == sorted(f"cert-{cid}.json" for cid in CATALOG)
    for f in result["files"]:
        assert Path(f).read_bytes() == (GOLDEN_DIRS[name] / Path(f).name).read_bytes(), f
    assert not any(result["calls"].values()), result["calls"]
    control = result["control"]
    assert control["horner"] and control["_add_up"] and control["_mul_up"] and control["_pow_up"]


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
