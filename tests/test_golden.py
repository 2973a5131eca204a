"""Pinned certificates: the nine certificates of three configurations, byte for byte.

`tests/data/golden/cert-<id>.json` holds what `tancert certify all` wrote
under the default configuration (schema tancert-cert-v6).  A change to
the series backends, bisection or serialization that alters any box or
depth shows up here as a byte difference.
`tests/data/golden/wide_endpoints/cert-<id>.json` pins the same nine
certificates at `--delta 0.5 --epsilon-max 0.25 --degree 96`, where the
exact series builds and the pi-power coefficients at pi/2 do the most
work, and `tests/data/golden/deep_cover/cert-<id>.json` pins them at
`--delta 0.125 --epsilon-max 0.0625`, where the middle cover is widest and
the near-pi/2 series are built at the smallest radius.

A certificate stores no margin, so `tests/data/golden/margins.json` pins
the margin of every golden box, bit for bit: each is the hex endpoint
pair of `eval_form` at the config degree, the enclosure of Q = F/x^k0
over the box, by configuration directory ("." for the default) and id.  A change to a tail bound or to the
rounding that moves any margin shows up there.

The same files are checked against an oracle that shares no code with the
certifier: mpmath evaluates each form straight from its definition
(`conftest.mp_form`), without the form parser or the exact series.  It
checks every recomputed box margin and the lower bounds of both endpoint
proofs that the files' config fixes.

`tests/data/golden/enclosures.json` pins the three public direct
enclosures, bit for bit, on a fixed grid of points and boxes in
[0, pi/2 + ulp]: each entry is the hex endpoint pair, or the name of the
exception raised.

`PYTHONPATH=src python tests/test_golden.py` regenerates all of these:
the 27 certificates, `margins.json` and the enclosure grid.  Regenerate
only when a change to them is intended, and record why in CHANGES.md.

`tests/data/schema-v<n>/cert-main_upper.json`, for n = 2 to 5, is the
default `main_upper` certificate as schema tancert-cert-v<n> wrote it; the
checker refuses each.  `tests/data/v6-finer-covers/` holds, in the same
layout as the goldens, the v6 certificates that the mean-value form wrote
before the slope form coarsened their covers, and its `slope-form/` the
ones that the slope form wrote before the Bernstein bound took every cover
to one box; the checker accepts each, and each has more boxes than the
golden of its id and configuration.

The README's count of the boxes of the three golden configurations is
tested against the goldens, so it cannot go stale.
"""

import json
import random
import re
from pathlib import Path

import mpmath as mp
import pytest

from tancert import cli, enclosures
from tancert.certifier import (
    CATALOG,
    CertifyConfig,
    certificate_to_json,
    certify,
    check_certificate,
    check_file,
    eval_form,
    load_certificate,
    near_half_pi_proof,
    near_zero_proof,
    save_certificate,
)
from tancert.errors import TancertError
from tancert.interval import _HALF_PI_HI, _HALF_PI_LO, Interval

from conftest import contains, mp_form

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
WIDE_ENDPOINTS = CertifyConfig(delta=0.5, epsilon_max=0.25, degree=96)
DEEP_COVER = CertifyConfig(delta=0.125, epsilon_max=0.0625)
# each golden directory under GOLDEN and the configuration of its certificates
GOLDEN_CONFIGS = {".": CertifyConfig(), "deep_cover": DEEP_COVER, "wide_endpoints": WIDE_ENDPOINTS}
FINER_V6 = DATA / "v6-finer-covers"
README = DATA.parents[1] / "README.md"
MARGINS = GOLDEN / "margins.json"
ENCLOSURES = GOLDEN / "enclosures.json"
ENCLOSURE_FNS = {fn.__name__: fn for fn in (enclosures.cos_enc, enclosures.sinc_enc, enclosures.p_enc)}


def _enclosure_args() -> list[Interval]:
    points = [0.0, 2.0**-30, 1e-3, 0.1, 0.25, 0.5, 0.7853981633974483, 1.0, 1.2,
              1.4, 1.5, 1.55, 1.57, _HALF_PI_LO, _HALF_PI_HI]
    boxes = [(0.0, 0.125), (0.0, 0.5), (0.0, 1.0), (0.0, _HALF_PI_LO), (0.0, _HALF_PI_HI),
             (0.1, 0.2), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0), (1.0, 1.25), (1.25, 1.5),
             (1.5, 1.5625), (1.5625, _HALF_PI_LO), (1.57, _HALF_PI_LO), (1.0, _HALF_PI_HI)]
    rng = random.Random(10)
    boxes += [tuple(sorted(rng.uniform(0.0, _HALF_PI_LO) for _ in range(2))) for _ in range(10)]
    return [Interval.point(x) for x in points] + [Interval(lo, hi) for lo, hi in boxes]


def _enclosure_record(fn, x: Interval):
    try:
        return list(fn(x).to_hex())
    except TancertError as exc:
        return type(exc).__name__


def margin_record(directory: str) -> dict:
    """The margin of every box of one golden directory, as hex pairs."""
    degree = GOLDEN_CONFIGS[directory].degree
    return {
        cid: [
            list(eval_form(cid, box.interval, degree=degree).to_hex())
            for box in load_certificate(GOLDEN / directory / f"cert-{cid}.json").boxes
        ]
        for cid in sorted(CATALOG)
    }


def enclosure_grid() -> dict:
    args = _enclosure_args()
    return {
        "args": [list(x.to_hex()) for x in args],
        "values": {
            name: [_enclosure_record(fn, x) for x in args] for name, fn in ENCLOSURE_FNS.items()
        },
    }


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
def test_deep_cover_golden_certificate_reproduced(cid):
    path = GOLDEN / "deep_cover" / f"cert-{cid}.json"
    assert certificate_to_json(certify(cid, DEEP_COVER)) == path.read_text()


@pytest.mark.parametrize("directory", sorted(GOLDEN_CONFIGS))
def test_golden_box_margins_reproduced(directory):
    assert margin_record(directory) == json.loads(MARGINS.read_text())[directory]


@pytest.mark.parametrize("name", sorted(ENCLOSURE_FNS))
def test_pinned_enclosures_reproduced(name):
    pinned = json.loads(ENCLOSURES.read_text())
    args = [Interval.from_hex(*x) for x in pinned["args"]]
    assert [_enclosure_record(ENCLOSURE_FNS[name], x) for x in args] == pinned["values"][name]


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_golden_box_margins_contain_the_form(cid, oracle):
    # a margin encloses Q = F/x^k0 over its box
    cert, k0 = load_certificate(GOLDEN / f"cert-{cid}.json"), CATALOG[cid].vanish_order_zero
    for box in cert.boxes:
        margin = eval_form(cid, box.interval, degree=cert.config.degree)
        lo, hi = mp.mpf(box.interval.lo), mp.mpf(box.interval.hi)
        for x in (lo, (lo + hi) / 2, hi):
            assert contains(margin, mp_form(cid, x) / x**k0), (box, margin, x)


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_golden_near_zero_bound_lies_below_the_quotient(cid, oracle):
    cfg = load_certificate(GOLDEN / f"cert-{cid}.json").config
    proof = near_zero_proof(cid, cfg.delta, cfg.degree)
    delta, k0 = mp.mpf(cfg.delta), proof.order
    for j in range(1, 33):
        x = delta * j / 32
        assert proof.normalized_lower_bound <= mp_form(cid, x) / x**k0, x


@pytest.mark.parametrize("cid", sorted(c for c, s in CATALOG.items() if s.vanish_order_half_pi))
def test_golden_near_half_pi_bound_lies_below_the_quotient(cid, oracle):
    cfg = load_certificate(GOLDEN / f"cert-{cid}.json").config
    proof = near_half_pi_proof(cid, cfg.epsilon_max, cfg.degree)
    epsilon, k1 = mp.mpf(cfg.epsilon_max), proof.order
    for j in range(1, 33):
        eps = epsilon * j / 32
        assert proof.normalized_lower_bound <= mp_form(cid, mp.pi / 2 - eps) / eps**k1, eps


def _assert_refused(version):
    path = DATA / f"schema-{version}" / "cert-main_upper.json"
    assert cli.main(["check", str(path)]) == 3
    result = check_file(path)
    assert not result.ok
    assert len(result.diagnoses) == 1, result.diagnoses
    assert f"unknown certificate schema 'tancert-cert-{version}'" in result.diagnoses[0]


def test_v2_certificate_is_refused():
    _assert_refused("v2")


def test_v3_certificate_is_refused():
    _assert_refused("v3")


def test_v4_certificate_is_refused():
    _assert_refused("v4")


def test_v5_certificate_is_refused():
    _assert_refused("v5")


@pytest.mark.parametrize(
    "path", sorted(FINER_V6.glob("**/cert-*.json")), ids=lambda p: str(p.relative_to(FINER_V6))
)
def test_v6_file_with_a_finer_cover_still_checks(path):
    result = check_file(path)
    assert result.ok, result.diagnoses
    finer = load_certificate(path)
    directory = next(d for d, cfg in GOLDEN_CONFIGS.items() if cfg == finer.config)
    golden = load_certificate(GOLDEN / directory / path.name)
    assert finer.stats.box_count > golden.stats.box_count


def test_readme_box_counts_are_the_goldens():
    text = " ".join(README.read_text().split())
    found = re.search(
        r"the cover takes (\d+) boxes at the defaults, (\d+) at `([^`]*)` and (\d+) at `([^`]*)`", text
    )
    assert found, "README sentence 'the cover takes N boxes at the defaults, ...' not found"
    counts = {}
    for count, flags in [(found[1], ""), (found[2], found[3]), (found[4], found[5])]:
        words = flags.split()
        fields = {w[2:].replace("-", "_"): v for w, v in zip(words[::2], words[1::2])}
        defaults = CertifyConfig._field_defaults
        cfg = CertifyConfig(**{k: type(defaults[k])(v) for k, v in fields.items()})
        counts[next(d for d, c in GOLDEN_CONFIGS.items() if c == cfg)] = int(count)
    assert counts == {
        directory: sum(load_certificate(p).stats.box_count for p in (GOLDEN / directory).glob("cert-*.json"))
        for directory in GOLDEN_CONFIGS
    }


if __name__ == "__main__":
    for directory, cfg in GOLDEN_CONFIGS.items():
        for cid in CATALOG:
            save_certificate(certify(cid, cfg), GOLDEN / directory / f"cert-{cid}.json")
    margins = {directory: margin_record(directory) for directory in GOLDEN_CONFIGS}
    MARGINS.write_text(json.dumps(margins, indent=1, sort_keys=True) + "\n")
    ENCLOSURES.write_text(json.dumps(enclosure_grid(), indent=1, sort_keys=True) + "\n")
