#!/usr/bin/env python3
"""The tancert benchmark: what a user of the CLI waits for, and why.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it runs the program from `src/` and needs
no install.  With `--trace 0` it is a closed loop with one client: each
iteration runs `tancert certify all` once with `--threads 1` and once with
`--threads <nproc>`, then `tancert check` once per certificate file, each
command in its own process and each starting after the previous one exits.
It repeats iterations for S seconds, fills time that no longer fits an
iteration with more certify pairs and then set-up samples, and reports
medians of the times rescaled to a reference host's speed (`HostSpeed` in
`common.py`).  With `--trace 1` it measures the layers under those
commands instead (see `layers.py`).

The seed sets the order of the `check` invocations and the box samples of
the traced run; the program itself only ever sees the CLI arguments.
Every certificate must be `certified`, every `check` must exit 0, and the
certificate bytes must be the same for both thread counts and for every
iteration; each violation counts as one failed operation.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it are a
readable report and a JSON record of the environment and of each metric's
sample quartiles.  Scratch files go to `.bench_out/` and are removed at
exit, except the traced run's span log.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from common import (
    CPUS,
    IMPORT_CLI,
    NPROC,
    OUT,
    SRC,
    Gate,
    HostSpeed,
    certify_outputs,
    cli,
    pin_to_one_cpu,
    repeat,
    run_proc,
    seeded,
    source_record,
    summary,
)
from layers import traced_run


@dataclass(frozen=True)
class Workload:
    options: dict  # CertifyConfig fields given as CLI flags; {} keeps the defaults
    why: str

    def flags(self) -> list[str]:
        return [a for k, v in self.options.items() for a in (f"--{k.replace('_', '-')}", str(v))]


WORKLOADS = {
    "catalog_default": Workload(
        {},
        "the shipped defaults: start-up, endpoint proofs and bisection each take a visible share",
    ),
    "deep_cover": Workload(
        {"delta": 0.125, "epsilon_max": 0.0625},
        "narrow endpoint regions, 4x the middle cover: box evaluation dominates",
    ),
    "wide_endpoints": Workload(
        {"delta": 0.5, "epsilon_max": 0.25, "degree": 96},
        "wide endpoint regions at degree 96: exact series and quotient bounds dominate",
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "certify_s": "s",
    "certify_par_s": "s",
    "check_s": "s",
    "boxes_total": "count",
    "cert_bytes": "B",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def end_to_end(workload: Workload, seed: int, seconds: float, work: Path, gate: Gate,
               pinned: frozenset[int]):
    flags = workload.flags()
    order_rng = seeded(seed, "check-order")
    deadline = time.perf_counter() + seconds
    speed = HostSpeed(pinned)
    # each timing keeps its wall seconds under "<name>_wall" and the same
    # rescaled to the reference host's speed under its own name
    times: dict[str, list[float]] = defaultdict(list)
    rss: list[float] = []
    reference: dict[str, bytes] = {}

    def timed(block: list[tuple[str, float]], cpus: frozenset[int] = pinned) -> None:
        """Record one block of (timing name, wall seconds) run on `cpus`."""
        factor = speed.factor(cpus)
        for name, wall_s in block:
            times[f"{name}_wall"].append(wall_s)
            times[name].append(wall_s * factor)

    def sample_setup(k: int) -> None:
        block = []
        for _ in range(k):
            run = run_proc(IMPORT_CLI, work)
            if run.code != 0:
                gate.op(False, f"import tancert.cli failed: {run.stderr[-300:]}")
            block.append(("setup_s", run.wall_s))
        timed(block)

    def certify_pair(it: Path) -> Path:
        """`certify all` with one thread, then with nproc; gate both."""
        nonlocal reference
        t1_dir, tn_dir = it / "t1", it / "tn"
        run = run_proc(cli("--out", str(t1_dir), "certify", "all", *flags, "--threads", "1"), it)
        timed([("certify_s", run.wall_s)])
        rss.append(run.maxrss_kb / 1024)
        files = certify_outputs(run, t1_dir, reference, gate, f"{it.name} --threads 1")
        reference = reference or files
        speed.start(CPUS)
        run = run_proc(cli("--out", str(tn_dir), "certify", "all", *flags,
                           "--threads", str(NPROC)), it, all_cpus=True)
        timed([("certify_par_s", run.wall_s)], CPUS)
        certify_outputs(run, tn_dir, reference, gate, f"{it.name} --threads {NPROC}")
        return t1_dir

    def iteration(k: int) -> None:
        it = work / f"it{k}"
        t1_dir = certify_pair(it)
        names = sorted(reference)
        order_rng.shuffle(names)
        block = []
        for name in names:
            run = run_proc(cli("check", str(t1_dir / name)), it)
            block.append((f"check:{name}", run.wall_s))
            gate.op(run.code == 0, f"it{k} check {name}: exit {run.code}")
        timed([*block, ("check_round_s", sum(wall_s for _, wall_s in block))])
        sample_setup(1)
        shutil.rmtree(it)

    def extra_pair(k: int) -> None:
        it = work / f"extra{k}"
        certify_pair(it)
        shutil.rmtree(it)

    sample_setup(3)
    # whole iterations first, at least one however short the run; time that
    # no longer fits one goes to more certify pairs, then to set-up samples
    start = time.perf_counter()
    iteration(0)
    iterations = 1 + repeat(lambda k: iteration(k + 1), time.perf_counter() - start, deadline)
    pairs = repeat(extra_pair, times["certify_s_wall"][-1] + times["certify_par_s_wall"][-1],
                   deadline)
    repeat(lambda k: sample_setup(1), times["setup_s_wall"][-1], deadline)

    checks = {name: values for name, values in times.items() if name.startswith("check:")}
    stats = {name: summary(values) for name, values in times.items() if name not in checks}
    stats["peak_rss_mb"] = summary(rss)
    stats["host_speed"] = summary(speed.factors)
    metrics = {name: stats[name]["median"] for name in END_TO_END_UNITS if name in stats}
    # one check of every file: the sum of each file's median, which a slow
    # spell during one iteration moves less than a per-iteration total would
    metrics["check_s"] = sum(statistics.median(values) for name, values in checks.items()
                             if name.endswith(".json"))
    metrics["boxes_total"] = sum(json.loads(data)["stats"]["box_count"]
                                 for data in reference.values())
    metrics["cert_bytes"] = sum(len(data) for data in reference.values())
    metrics["pass_ratio"] = (gate.attempted - gate.failed) / max(gate.attempted, 1)
    extra = {
        "iterations": iterations,
        "extra_certify_pairs": pairs,
        "fail_ratio": gate.failed / max(gate.attempted, 1),
        "per_certificate": {
            name: [json.loads(d)["stats"]["box_count"], json.loads(d)["stats"]["max_depth_reached"]]
            for name, d in reference.items()
        },
    }
    return metrics, END_TO_END_UNITS, stats, extra


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]

    if not (SRC / "tancert" / "cli.py").is_file():
        print(f"error: no tancert sources under {SRC}", file=sys.stderr)
        return 2
    pinned = pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        # the first import compiles src/ to bytecode; users run with it warm
        warm = run_proc(IMPORT_CLI, work)
        if warm.code != 0:
            print(f"error: cannot import tancert.cli:\n{warm.stderr}", file=sys.stderr)
            return 2
        gate = Gate()
        if args.trace:
            metrics, units, stats, extra = traced_run(workload, args.workload, args.seed,
                                                       args.seconds, work, gate)
        else:
            metrics, units, stats, extra = end_to_end(workload, args.seed, args.seconds,
                                                      work, gate, pinned)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): "
          f"{workload.why}; flags {workload.flags() or 'CLI defaults'}")
    for name, st in stats.items():
        tail = f"p{st['tail']['pct']}={st['tail']['value']:.6g}" if st["tail"] else "tail n/a"
        print(f"  {name:34s} median={st['median']:.6g} q1={st['q1']:.6g} "
              f"q3={st['q3']:.6g} n={st['n']} {tail}")
    for name, value in metrics.items():
        if name not in stats:
            print(f"  {name:34s} {value:.6g} {units[name]}")
    print(f"  fail_ratio {gate.failed}/{gate.attempted}")
    for note in gate.notes:
        print(f"  FAILED: {note}")
    print(json.dumps({"record": {"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "env": source_record(),
                                 "samples": stats, **extra}}))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
