"""The library calls the benchmark harness makes still work.

`bench/layers.py` calls into the layers in process with each workload's
options, and `bench/tracer.py` wraps `certifier.form_series` where the
certifier looks it up.  The harness runs only in a benchmark run, so this
test replays those calls on the options of `bench/run.py`'s `WORKLOADS`
(read from its source, not imported) and fails here, in the fast suite,
when a refactor drops a name or a signature the harness relies on.
"""

import ast
import json
from pathlib import Path

import pytest

from tancert import certifier, enclosures, interval
from tancert.interval import Interval

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _workload_options() -> dict:
    """The `options` dict of each Workload(...) in WORKLOADS of bench/run.py."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WORKLOADS":
            return {
                ast.literal_eval(key): ast.literal_eval(call.args[0])
                for key, call in zip(node.value.keys, node.value.values)
            }
    raise AssertionError("bench/run.py defines no WORKLOADS")


WORKLOADS = _workload_options()


def test_workloads_are_the_benchmarked_ones():
    assert sorted(WORKLOADS) == ["catalog_default", "deep_cover", "wide_endpoints"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_probe_calls(name):
    cfg = certifier.CertifyConfig(**WORKLOADS[name])
    boxes = []
    for cid, spec in certifier.CATALOG.items():
        cert = certifier.certify(cid, cfg)
        text = certifier.certificate_to_json(cert)
        loaded = certifier.certificate_from_dict(json.loads(text))
        assert certifier.check_certificate(loaded).ok, cid
        boxes += [(cid, b.interval) for b in loaded.boxes]

        certifier.near_zero_proof(cid, cfg.delta, cfg.degree)
        ends = [("zero", cfg.delta, spec.vanish_order_zero)]
        if spec.vanish_order_half_pi > 0:
            certifier.near_half_pi_proof(cid, cfg.epsilon_max, cfg.degree)
            ends.append(("half_pi", cfg.epsilon_max, spec.vanish_order_half_pi))
        for center, radius, order in ends:
            ps = certifier.form_series(cid, center, cfg.degree, radius)
            assert ps.divide_power(order).eval(Interval(0.0, radius)).lo > 0, (cid, center)

    for cid, box in boxes[:16]:
        certifier.eval_form(cid, box)
        for enc in (enclosures.cos_enc, enclosures.sinc_enc, enclosures.p_enc):
            enc(box)
    hi_end = interval.half_pi_enclosure().lo - cfg.epsilon_max - 2.0**-10
    assert hi_end > cfg.delta
    assert interval.int_pow(Interval(0.3, 0.7), 5).hi > 0


def test_tracer_sees_series_builds_at_both_centers(monkeypatch):
    # bench/tracer.py replaces certifier.form_series with a wrapper; the
    # endpoint quotients must be built through that module global
    centers, build = [], certifier.form_series

    def wrapped(cid, center, degree, radius):
        centers.append(center)
        return build(cid, center, degree, radius)

    monkeypatch.setattr(certifier, "form_series", wrapped)
    certifier._quotient.cache_clear()
    certifier.certify("bs_lower")
    assert sorted(set(centers)) == ["half_pi", "zero"]
