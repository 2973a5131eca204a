"""The traced run (`run.py --trace 1`): what each layer under the CLI costs.

Two kinds of measurement, both made from the benchmark's own files:

* Span traces.  `tracer.py` runs `tancert certify all --threads 1` and each
  `tancert check` in a fresh interpreter with a span around every call into
  a layer, and each layer's self time (span duration minus the time its
  child spans cover) is summed per command.  The same commands run
  untraced give the tracing overhead.
* Direct calls into each layer's public functions with the workload's
  configuration, on the certificates the CLI wrote: interval operations
  on fixed operands, enclosures on a seeded sample of cover boxes,
  `eval_form` on every cover box, the endpoint proofs and their exact
  series, serialization and the in-process checker.

`taylor` has no caller in certification, and `sequences` and `analysis` are
each under 1% of every workload, so none of them gets a metric.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import timeit
from collections import defaultdict
from pathlib import Path

from common import (
    BENCH,
    IMPORT_CLI,
    OUT,
    SRC,
    Gate,
    certify_outputs,
    cli,
    repeat,
    run_proc,
    seeded,
    summary,
)

LAYERS = ("cli", "certifier", "enclosures", "series")

PER_LAYER_UNITS = {
    "interval.construct_ns": "ns",
    "interval.add_ns": "ns",
    "interval.mul_ns": "ns",
    "interval.int_pow_ns": "ns",
    "interval.ops_per_box": "count",
    "enclosures.cos_us": "us",
    "enclosures.sinc_us": "us",
    "enclosures.p_us": "us",
    "certifier.eval_form_us": "us",
    "certifier.eval_form_tail_us": "us",
    "certifier.margin_width.main_upper": "ratio",
    "certifier.margin_width.bs_upper": "ratio",
    "certifier.margin_width.prop1_upper": "ratio",
    "certifier.boxes_evaluated": "count",
    "certifier.accept_ratio": "ratio",
    "certifier.max_depth": "count",
    "certifier.bisect_s": "s",
    "certifier.near_zero_s": "s",
    "certifier.near_half_pi_s": "s",
    "series.form_series_s": "s",
    "series.quotient_eval_us": "us",
    "certifier.to_json_s": "s",
    "certifier.from_json_s": "s",
    "certifier.check_certificate_s": "s",
    "cli.import_s": "s",
    "cli.import_mpmath_s": "s",
    "cli.import_tancert_self_s": "s",
    **{f"trace.{cmd}.{layer}_self_s": "s" for cmd in ("certify", "check") for layer in LAYERS},
    "trace.certify_s": "s",
    "trace.certify_traced_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_ratio": "ratio",
}

MARGIN_IDS = ("main_upper", "bs_upper", "prop1_upper")
MARGIN_BOX_WIDTH = 2.0**-10
MARGIN_SAMPLE = 64
ENCLOSURE_SAMPLE = 256


def self_times(rows: list[list]) -> dict[str, float]:
    """Seconds of self time per layer: each span's duration minus the
    durations of its direct children."""
    child = [0] * len(rows)
    for _, start, end, parent in rows:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), covered in zip(rows, child):
        out[name.split(".")[0]] += (end - start - covered) / 1e9
    return out


def import_split(work: Path) -> tuple[float, float]:
    """(mpmath cumulative, sum of tancert modules' self) import seconds,
    from `-X importtime` of a fresh `import tancert.cli`."""
    run = run_proc([sys.executable, "-X", "importtime", "-c", "import tancert.cli"], work)
    mpmath_us = tancert_us = 0
    for line in run.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        own, cumulative, module = int(parts[0]), int(parts[1]), parts[2].strip()
        if module == "mpmath":
            mpmath_us = cumulative
        if module == "tancert" or module.startswith("tancert."):
            tancert_us += own
    return mpmath_us / 1e6, tancert_us / 1e6


class Probes:
    """In-process calls into the layers; each method appends to `samples`."""

    def __init__(self, workload, reference: dict[str, bytes], seed: int,
                 samples: dict[str, list], gate: Gate):
        sys.path.insert(0, str(SRC))
        from tancert import certifier, enclosures, interval

        self.certifier, self.enclosures, self.interval = certifier, enclosures, interval
        self.cfg = certifier.CertifyConfig(**workload.options)
        self.reference = reference
        self.certs = {
            name: certifier.certificate_from_dict(json.loads(data))
            for name, data in reference.items()
        }
        self.leaves = [(c.inequality_id, b.interval) for c in self.certs.values() for b in c.boxes]
        seeded(seed, "eval-order").shuffle(self.leaves)
        rng = seeded(seed, "enclosure-sample")
        self.sample = [box for _, box in rng.sample(self.leaves, min(ENCLOSURE_SAMPLE, len(self.leaves)))]
        self.seed, self.samples, self.gate = seed, samples, gate

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def once(self) -> None:
        """Exact or seed-fixed figures: box counts, ops per box, margin widths."""
        certifier, Interval = self.certifier, self.interval.Interval
        accepted = sum(len(c.boxes) for c in self.certs.values())
        evaluated = sum(2 * len(c.boxes) - 1 for c in self.certs.values())
        self.add("certifier.boxes_evaluated", evaluated)
        self.add("certifier.accept_ratio", accepted / evaluated)
        self.add("certifier.max_depth", max(c.stats.max_depth_reached for c in self.certs.values()))

        init_code = Interval.__init__.__code__
        calls = 0

        def count_constructions(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is init_code:
                calls += 1

        boxes = [box for cid, box in self.leaves if cid == "main_upper"][:64]
        sys.setprofile(count_constructions)
        try:
            for box in boxes:
                certifier.eval_form("main_upper", box)
        finally:
            sys.setprofile(None)
        self.add("interval.ops_per_box", calls / max(len(boxes), 1))

        lo_end = self.cfg.delta
        hi_end = self.interval.half_pi_enclosure().lo - self.cfg.epsilon_max - MARGIN_BOX_WIDTH
        for cid in MARGIN_IDS:
            rng = seeded(self.seed, f"margin-{cid}")
            ratios = []
            for _ in range(MARGIN_SAMPLE):
                lo = rng.uniform(lo_end, hi_end)
                box = Interval(lo, lo + MARGIN_BOX_WIDTH)
                ratios.append(certifier.eval_form(cid, box).width / box.width)
            self.add(f"certifier.margin_width.{cid}", summary(ratios)["median"])

    def interval_ops(self) -> None:
        Interval, int_pow = self.interval.Interval, self.interval.int_pow
        env = {"Interval": Interval, "int_pow": int_pow,
               "a": Interval(0.3, 0.7), "b": Interval(1.1, 1.3)}
        for name, stmt, number in [
            ("interval.construct_ns", "Interval(0.3, 0.7)", 40000),
            ("interval.add_ns", "a + b", 20000),
            ("interval.mul_ns", "a * b", 20000),
            ("interval.int_pow_ns", "int_pow(a, 5)", 10000),
        ]:
            self.add(name, timeit.Timer(stmt, globals=env).timeit(number) / number * 1e9)

    def enclosure_calls(self) -> None:
        clock = time.perf_counter_ns
        for name, fn in [("enclosures.cos_us", self.enclosures.cos_enc),
                         ("enclosures.sinc_us", self.enclosures.sinc_enc),
                         ("enclosures.p_us", self.enclosures.p_enc)]:
            start = clock()
            for box in self.sample:
                fn(box)
            self.add(name, (clock() - start) / len(self.sample) / 1e3)

    def eval_form_calls(self) -> None:
        clock, eval_form = time.perf_counter_ns, self.certifier.eval_form
        for cid, box in self.leaves:
            start = clock()
            eval_form(cid, box)
            self.add("eval_form_call_us", (clock() - start) / 1e3)

    def certify_and_check(self) -> None:
        certifier, cfg, clock = self.certifier, self.cfg, time.perf_counter
        certify_total = near_zero = near_half_pi = form_series = to_json = 0.0
        quotient_us = []
        for cid, spec in certifier.CATALOG.items():
            start = clock()
            cert = certifier.certify(cid, cfg)
            certify_total += clock() - start
            start = clock()
            text = certifier.certificate_to_json(cert)
            to_json += clock() - start
            name = f"cert-{cid}.json"
            self.gate.op(text.encode() == self.reference.get(name),
                         f"in-process certify {cid} differs from the CLI's {name}")

            start = clock()
            certifier.near_zero_proof(cid, cfg.delta, cfg.degree)
            near_zero += clock() - start
            ends = [("zero", cfg.delta, spec.vanish_order_zero)]
            if spec.vanish_order_half_pi > 0:
                start = clock()
                certifier.near_half_pi_proof(cid, cfg.epsilon_max, cfg.degree)
                near_half_pi += clock() - start
                ends.append(("half_pi", cfg.epsilon_max, spec.vanish_order_half_pi))
            for center, radius, order in ends:
                start = clock()
                ps = certifier.form_series(cid, center, cfg.degree, radius)
                form_series += clock() - start
                start = clock()
                ps.divide_power(order).eval(self.interval.Interval(0.0, radius))
                quotient_us.append((clock() - start) * 1e6)
        self.add("certifier.bisect_s", certify_total - near_zero - near_half_pi)
        self.add("certifier.near_zero_s", near_zero)
        self.add("certifier.near_half_pi_s", near_half_pi)
        self.add("series.form_series_s", form_series)
        self.add("series.quotient_eval_us", sum(quotient_us) / len(quotient_us))
        self.add("certifier.to_json_s", to_json)

        from_json = check = 0.0
        for name, data in self.reference.items():
            start = clock()
            cert = certifier.certificate_from_dict(json.loads(data))
            from_json += clock() - start
            start = clock()
            result = certifier.check_certificate(cert)
            check += clock() - start
            self.gate.op(result.ok, f"in-process check_certificate {name}: {result.diagnoses[:3]}")
        self.add("certifier.from_json_s", from_json)
        self.add("certifier.check_certificate_s", check)


def traced_run(workload, name: str, seed: int, seconds: float, work: Path, gate: Gate):
    flags = workload.flags()
    samples: dict[str, list] = defaultdict(list)
    ref_dir = work / "reference"
    run = run_proc(cli("--out", str(ref_dir), "certify", "all", *flags, "--threads", "1"), work)
    reference = certify_outputs(run, ref_dir, {}, gate, "reference certify")
    if not reference:
        return {}, PER_LAYER_UNITS, {}, {}
    probes = Probes(workload, reference, seed, samples, gate)
    probes.once()
    order_rng = seeded(seed, "check-order")
    tracer = [sys.executable, str(BENCH / "tracer.py")]
    last_spans: dict = {}

    def traced_cli(label: str, args: list[str]):
        """Run the CLI under tracer.py; return the process and its spans."""
        spans_path = work / f"spans-{label}.json"
        run = run_proc([*tracer, str(spans_path), "--", *args], work)
        rows = []
        if spans_path.is_file():
            last_spans[label] = json.loads(spans_path.read_text())
            rows = last_spans[label]["spans"]
        return run, rows

    def plain_certify(out: Path) -> None:
        run = run_proc(cli("--out", str(out / "plain"), "certify", "all", *flags,
                           "--threads", "1"), out)
        samples["trace.certify_s"].append(run.wall_s)
        certify_outputs(run, out / "plain", reference, gate, f"{out.name} untraced certify")

    def traced_certify(out: Path) -> None:
        run, rows = traced_cli("certify", ["--out", str(out / "traced"), "certify", "all",
                                           *flags, "--threads", "1"])
        samples["trace.certify_traced_s"].append(run.wall_s)
        certify_outputs(run, out / "traced", reference, gate, f"{out.name} traced certify")
        layer_self = self_times(rows)
        for layer in LAYERS:
            samples[f"trace.certify.{layer}_self_s"].append(layer_self.get(layer, 0.0))
        samples["trace.accounted_ratio"].append(sum(layer_self.values()) / run.wall_s)

    def one_round(k: int) -> None:
        out = work / f"round{k}"
        # alternate which of the pair runs first, so drift does not bias the overhead
        for step in (plain_certify, traced_certify) if k % 2 == 0 else (traced_certify, plain_certify):
            step(out)

        names = sorted(reference)
        order_rng.shuffle(names)
        check_self: dict[str, float] = defaultdict(float)
        for cert_name in names:
            run, rows = traced_cli(f"check-{cert_name}", ["check", str(ref_dir / cert_name)])
            gate.op(run.code == 0 and bool(rows),
                    f"{out.name} traced check {cert_name}: exit {run.code}: {run.stderr[-300:]}")
            for layer, value in self_times(rows).items():
                check_self[layer] += value
        for layer in LAYERS:
            samples[f"trace.check.{layer}_self_s"].append(check_self.get(layer, 0.0))

        run = run_proc(IMPORT_CLI, out)
        samples["cli.import_s"].append(run.wall_s)
        mpmath_s, tancert_s = import_split(out)
        samples["cli.import_mpmath_s"].append(mpmath_s)
        samples["cli.import_tancert_self_s"].append(tancert_s)

        probes.interval_ops()
        probes.enclosure_calls()
        probes.eval_form_calls()
        probes.certify_and_check()
        shutil.rmtree(out)

    rounds = repeat(one_round, 0.0, time.perf_counter() + seconds)

    stats = {key: summary(values) for key, values in samples.items()}
    metrics = {key: stats[key]["median"] for key in PER_LAYER_UNITS if key in stats}
    eval_stats = stats.pop("eval_form_call_us")
    metrics["certifier.eval_form_us"] = eval_stats["median"]
    tail = eval_stats["tail"]
    metrics["certifier.eval_form_tail_us"] = tail["value"] if tail else max(samples["eval_form_call_us"])
    stats["certifier.eval_form_us"] = eval_stats
    metrics["trace.overhead_s"] = metrics["trace.certify_traced_s"] - metrics["trace.certify_s"]
    metrics = {key: metrics[key] for key in PER_LAYER_UNITS}

    spans_file = OUT / f"spans-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps(last_spans))
    extra = {"rounds": rounds, "fail_ratio": gate.failed / max(gate.attempted, 1),
             "spans_file": str(spans_file.relative_to(OUT.parent)),
             "unwrapped": sorted({m for doc in last_spans.values() for m in doc["missing"]})}
    return metrics, PER_LAYER_UNITS, stats, extra
