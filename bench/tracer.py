"""Run one tancert CLI command with a span around each call into a layer.

    python bench/tracer.py SPANS_OUT -- CLI_ARG...

The benchmark starts this script in a fresh interpreter, so the traced
command pays the same imports and cold module caches as `tancert` itself.
It times `import tancert.cli`, wraps the public functions that the CLI and
the certifier reach through module attributes, runs `tancert.cli.main` on
the CLI arguments and, when the command ends, writes every span as JSON to
SPANS_OUT.  Each span is `[name, start_ns, end_ns, parent_index]`, with
parent -1 for a root; a name's first dotted part is its layer.  The exit
code is the CLI's.

Spans keep one stack for the whole process, so trace single-threaded
commands only (`certify --threads 1`, `check`).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, owner attribute or None, function name, span name).  Each function
# is replaced where its caller looks it up: the CLI calls `certifier.<fn>`,
# and the certifier's forms and proofs call module globals of `certifier`.
WRAPPED = [
    ("certifier", None, "certify", "certifier.certify"),
    ("certifier", None, "near_zero_proof", "certifier.near_zero_proof"),
    ("certifier", None, "near_half_pi_proof", "certifier.near_half_pi_proof"),
    ("certifier", None, "save_certificate", "certifier.save_certificate"),
    ("certifier", None, "load_certificate", "certifier.load_certificate"),
    ("certifier", None, "check_certificate", "certifier.check_certificate"),
    ("certifier", None, "eval_form", "certifier.eval_form"),
    ("certifier", None, "form_series", "series.form_series"),
    ("series", "PowerSeries", "divide_power", "series.divide_power"),
    ("series", "PowerSeries", "eval", "series.eval"),
    ("certifier", None, "cos_enc", "enclosures.cos_enc"),
    ("certifier", None, "sinc_enc", "enclosures.sinc_enc"),
    ("certifier", None, "p_enc", "enclosures.p_enc"),
]


class Spans:
    """In-memory span log with one call stack."""

    def __init__(self):
        self.rows: list[list] = []
        self._stack: list[int] = []

    def add(self, name: str, start: int, end: int) -> None:
        self.rows.append([name, start, end, self._stack[-1] if self._stack else -1])

    def wrap(self, name: str, fn):
        rows, stack, clock = self.rows, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(rows)
            rows.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rows[index][2] = clock()

        traced.__wrapped__ = fn
        return traced


def install(spans: Spans, modules: dict) -> list[str]:
    """Wrap every target in WRAPPED that exists; return the span names missing."""
    missing = []
    for module, owner, attr, name in WRAPPED:
        target = modules[module]
        if owner is not None:
            target = getattr(target, owner, None)
        fn = getattr(target, attr, None)
        if fn is None:
            missing.append(name)
            continue
        setattr(target, attr, spans.wrap(name, fn))
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_OUT -- CLI_ARG...", file=sys.stderr)
        return 1
    out, cli_args = Path(argv[1]), argv[3:]
    sys.path.insert(0, str(SRC))
    spans = Spans()
    start = time.perf_counter_ns()
    import tancert.cli as cli
    from tancert import certifier, series

    spans.add("cli.import", start, time.perf_counter_ns())
    missing = install(spans, {"certifier": certifier, "series": series})
    code = spans.wrap("cli.main", cli.main)(cli_args)
    out.write_text(json.dumps({"exit": code, "missing": missing, "spans": spans.rows}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
