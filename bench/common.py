"""Helpers shared by the benchmark's end-to-end and traced runs."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CPUS = frozenset(os.sched_getaffinity(0))
NPROC = len(CPUS)


def summary(samples: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples beyond it (None below eleven samples)."""
    s = sorted(samples)
    n = len(s)
    q1, med, q3 = statistics.quantiles(s, n=4) if n >= 2 else (s[0], s[0], s[0])
    tail = None
    if n >= 11:
        k = n - 11
        tail = {"pct": math.floor(100 * (k + 1) / n), "value": s[k]}
    return {"median": med, "q1": q1, "q3": q3, "n": n, "tail": tail}


def repeat(step, estimate: float, deadline: float) -> int:
    """Call step(k) for k = 0, 1, ... while its expected duration (the last
    call's, at first `estimate`) still fits before `deadline` on the
    perf_counter clock; return the number of calls."""
    k = 0
    while time.perf_counter() + estimate <= deadline:
        start = time.perf_counter()
        step(k)
        estimate = time.perf_counter() - start
        k += 1
    return k


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi

    def __add__(self, other: "_Pair") -> "_Pair":
        return _Pair(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "_Pair") -> "_Pair":
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Pair(min(p), max(p))


def _reference_work() -> None:
    """Fixed pure-Python work of the kinds the program does: small objects
    with float arithmetic, dict traffic and exact rationals.  It imports
    nothing of tancert, so no change to the program moves its time."""
    pairs = [_Pair(k / 4096, k / 4096 + 1 / 1024) for k in range(4096)]
    acc, table = _Pair(0.0, 0.0), {}
    for _ in range(12):
        for k, pair in enumerate(pairs):
            w = pair * pairs[k - 1] + acc
            acc = _Pair(w.lo % 3.0, w.hi % 3.0)
            table[k & 1023] = w
    q = Fraction(0)
    for k in range(1, 800):
        q += Fraction(k * k, 3 * k + 1)


# Seconds _reference_work takes on the reference host: about its time on a
# shared 2-core x86_64 VM with Python 3.11.7 while its neighbours are quiet.
REFERENCE_WORK_S = 0.100


class HostSpeed:
    """How fast the host runs right now, relative to the reference host.

    A shared host's speed drifts by up to 2x over minutes, each CPU on its
    own (see README.md), and that drift, not the program, set most of the
    spread between runs.  The benchmark times the fixed `_reference_work`
    around each block of timed processes, on each CPU the block ran on.  A
    block's wall times are multiplied by `factor()`: REFERENCE_WORK_S over
    the mean reference time on those CPUs just before and just after it."""

    def __init__(self, cpus: frozenset[int]):
        self.last: dict[int, float] = {}
        self.factors: list[float] = []
        self.start(cpus)

    @staticmethod
    def _probe(cpus: frozenset[int]) -> dict[int, float]:
        own = os.sched_getaffinity(0)
        seconds = {}
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                _reference_work()
                seconds[cpu] = time.perf_counter() - start
        finally:
            os.sched_setaffinity(0, own)
        return seconds

    def start(self, cpus: frozenset[int]) -> None:
        """Open a block that will run on `cpus`: time the reference work on
        each of them now.  A block on the CPUs of the previous one needs no
        call, since that block's closing times serve."""
        self.last.update(self._probe(cpus))

    def factor(self, cpus: frozenset[int]) -> float:
        """Close the block that ran on `cpus` and return its factor."""
        now = self._probe(cpus)
        before = statistics.mean(self.last[cpu] for cpu in cpus)
        self.last.update(now)
        factor = REFERENCE_WORK_S / ((before + statistics.mean(now.values())) / 2)
        self.factors.append(factor)
        return factor


def seeded(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


@dataclass
class Proc:
    code: int
    wall_s: float
    maxrss_kb: int
    stderr: str


def pin_to_one_cpu() -> frozenset[int]:
    """Keep this process and the children it starts on one CPU; return it.

    On a shared VM each CPU's speed drifts on its own, so a child that may
    land on either CPU runs at a speed that `HostSpeed` did not measure;
    pinned, series of `certify all` spread a third as much (see README.md).
    Only a run that asks for threads is given every CPU."""
    cpu = frozenset({min(CPUS)})
    os.sched_setaffinity(0, cpu)
    return cpu


def run_proc(argv: list[str], scratch: Path, all_cpus: bool = False) -> Proc:
    """Run argv to completion in the repository root; time it and read its
    peak resident memory from the kernel's accounting of that process.
    With `all_cpus` the child may run on every CPU, else on this process's.
    Standard output is discarded; standard error is kept for diagnoses."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scratch.mkdir(parents=True, exist_ok=True)
    err_path = scratch / "stderr.txt"
    widen = (lambda: os.sched_setaffinity(0, CPUS)) if all_cpus else None
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=widen)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss, err_path.read_text())


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "tancert.cli", *args]


IMPORT_CLI = [sys.executable, "-c", "import tancert.cli"]


@dataclass
class Gate:
    """Counts operations (one inequality certified, one file checked) and
    failures; a failure is always counted, never skipped."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def certify_outputs(run: Proc, outdir: Path, reference: dict[str, bytes], gate: Gate,
                    label: str) -> dict[str, bytes]:
    """Gate one `certify all` invocation; return its certificate bytes.

    An empty reference makes this run the reference: its files are only
    checked for status.  Otherwise every reference file must be present
    with identical bytes."""
    files = {p.name: p.read_bytes() for p in sorted(outdir.glob("cert-*.json"))}
    if not files and not reference:
        gate.op(False, f"{label}: no certificates written (exit {run.code}): {run.stderr[-300:]}")
    bad = 0
    for name in reference or files:
        data = files.get(name)
        ok = data is not None and json.loads(data).get("status") == "certified"
        if ok and reference:
            ok = data == reference[name]
        bad += not ok
        gate.op(ok, f"{label}: {name} missing, not certified or not byte-identical")
    if run.code != 0 and not bad:
        gate.op(False, f"{label}: exit {run.code}: {run.stderr[-300:]}")
    return files


def source_record() -> dict:
    """Commit (when the tree is a git checkout), a digest of src/, versions."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        mpmath_version = version("mpmath")
    except PackageNotFoundError:
        mpmath_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "nproc": NPROC,
        "machine": platform.machine(),
    }
