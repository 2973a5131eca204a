"""Command-line front end.

    tancert certify <id|all>      emit certificate files
    tancert check <cert-file>...  re-verify certificates from disk
    tancert sequences --n-max N   exact T/U/A/B table as CSV
    tancert phi --grid a:b:n      exponent-ratio sweep to CSV
    tancert crossover upper|lower certified crossover bracket
    tancert replay <identity>     exact proof of one of the paper's identities

Exit codes: 0 success/certified/proved, 1 usage error, 2 not certified
(undecided, a form certainly negative near an endpoint, or a bracket that
could not be sign-certified), 3 certificate check failed or an identity
left a nonzero remainder.  `check` of several files exits with the worst of
their codes: 3 over 1 (a file that cannot be read) over 0.

Outputs are deterministic: floats are serialized as hex strings and
files carry no timestamps, so reruns with the same configuration are
byte-identical.  Human-readable decimals appear only on stdout.
An argument @FILE is replaced by the whitespace-separated words of FILE,
so a settings file holds flags written as on the command line (say
`--delta 0.2 --max-depth 30`, after `certify`) and they are typed,
range-checked and refused when misspelled exactly as flags are; a later
flag overrides an earlier one, and a path starting with @ is written
./@name.  The certify defaults are those of `certifier.CertifyConfig`; the
other commands' defaults are on their own options.  The output directory
is --out, else $TANCERT_OUT, else ./out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import REPLAY_IDENTITIES, certifier
from .errors import Falsified, IdentityViolation, NoSignChange, TancertError

# Largest n of the sequences table: its CSV grows quadratically, to about
# 1 MB at n = 1000 and 3.9 MB at n = 2000.
MAX_SEQUENCE_N = 1000

# Most points of a phi sweep: a point takes about 0.2 ms at
# analysis.PRECISION_BITS (one CPU of a 2-core x86_64 VM).
MAX_GRID_POINTS = 4096


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tancert",
        description="certificates and numerics for sharp tangent inequalities",
        fromfile_prefix_chars="@",
    )
    # a settings file holds flags as typed on a command line, several a line
    parser.convert_arg_line_to_args = str.split
    parser.add_argument("--out", help="output directory (default: $TANCERT_OUT or ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    # one flag per CertifyConfig field, typed like its default; left unset,
    # each takes that default
    p_cert = sub.add_parser("certify", help="certify one inequality or all")
    p_cert.add_argument("inequality_id", metavar="id", choices=[*certifier.CATALOG, "all"],
                        help="catalog id or 'all'")
    for name, default in certifier.CertifyConfig._field_defaults.items():
        p_cert.add_argument("--" + name.replace("_", "-"), type=type(default))
    p_cert.add_argument(
        "--threads", type=int,
        help="accepted for compatibility (at least 1) and ignored: bisection is serial",
    )

    p_check = sub.add_parser("check", help="re-verify certificate files")
    p_check.add_argument("cert_files", metavar="cert_file", nargs="+")

    p_seq = sub.add_parser("sequences", help="exact sequence table as CSV")
    p_seq.add_argument("--n-max", type=int, default=20)

    p_phi = sub.add_parser("phi", help="exponent-ratio sweep")
    p_phi.add_argument("--grid", required=True, metavar="a:b:n")

    p_cross = sub.add_parser("crossover", help="certified crossover bracket")
    p_cross.add_argument("which", choices=["upper", "lower"])
    p_cross.add_argument("--tol", type=float, default=1e-3)

    p_replay = sub.add_parser("replay", help="prove one of the paper's identities exactly")
    p_replay.add_argument("identity", choices=REPLAY_IDENTITIES)
    return parser


def _outdir(args: argparse.Namespace) -> str:
    path = args.out or os.environ.get("TANCERT_OUT") or "./out"
    os.makedirs(path, exist_ok=True)
    return path


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.threads is not None and args.threads < 1:
        raise TancertError(f"--threads must be at least 1, got {args.threads}")
    ids = list(certifier.CATALOG) if args.inequality_id == "all" else [args.inequality_id]
    ccfg = certifier.CertifyConfig(**{
        name: getattr(args, name)
        for name in certifier.CertifyConfig._fields
        if getattr(args, name) is not None
    })
    # compute every certificate before saving any: a bad config writes nothing
    certs = [certifier.certify(cid, ccfg) for cid in ids]
    outdir = _outdir(args)
    worst = 0
    for cid, cert in zip(ids, certs):
        path = os.path.join(outdir, f"cert-{cid}.json")
        certifier.save_certificate(cert, path)
        line = (
            f"{cert.status:10s} {cid:12s} boxes={cert.stats.box_count:5d} "
            f"depth={cert.stats.max_depth_reached:2d} "
            f"time={cert.stats.wall_time:.2f}s -> {path}"
        )
        box = cert.stats.worst_box
        if box is not None:
            line += f" worst={box.interval} margin={box.margin}"
        print(line)
        if cert.status != "certified":
            worst = 2
    return worst


def _cmd_check(args: argparse.Namespace) -> int:
    worst = 0
    for path in args.cert_files:
        try:
            result = certifier.check_file(path)
        except OSError as exc:
            # reported as main reports it, and the other files still checked
            print(f"error: {exc}", file=sys.stderr)
            worst = max(worst, 1)
            continue
        print(f"{'valid' if result.ok else 'INVALID'}: {path}")
        for d in result.diagnoses:
            print(f"  - {d}")
        if not result.ok:
            worst = 3
    return worst


def _cmd_sequences(args: argparse.Namespace) -> int:
    if not 0 <= args.n_max <= MAX_SEQUENCE_N:
        raise TancertError(f"--n-max must be in [0, {MAX_SEQUENCE_N}], got {args.n_max}")
    from . import sequences  # certify and check never need it

    rows = ["n,T_n,U_n,A_n,B_n"]
    for n in range(args.n_max + 1):
        term = sequences.seq_term(n)
        rows.append(f"{term.n},{int(term.T)},{term.U},{term.A},{term.B}")
    text = "\n".join(rows) + "\n"
    sys.stdout.write(text)
    with open(os.path.join(_outdir(args), "sequences.csv"), "w") as fh:
        fh.write(text)
    return 0


def _parse_grid(spec: str) -> list[float]:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise TancertError(f"grid must be a:b:n, got {spec!r}") from None
    if not 1 <= n <= MAX_GRID_POINTS or b < a:
        raise TancertError(f"grid needs 1 <= n <= {MAX_GRID_POINTS} and b >= a")
    if n == 1:
        return [a]
    return [a + i * (b - a) / (n - 1) for i in range(n)]


# `analysis` loads mpmath, so only the commands that need it import it.

def _cmd_phi(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    from . import analysis

    report = analysis.optimality_scan(grid)
    rows = ["x,phi"]
    for s in report.samples:
        rows.append(f"{s.x.hex()},{s.phi.hex()}")
    text = "\n".join(rows) + "\n"
    with open(os.path.join(_outdir(args), "phi.csv"), "w") as fh:
        fh.write(text)
    print(
        f"{len(report.samples)} samples: inf={report.inf_phi:.9f} "
        f"sup={report.sup_phi:.9f} inside (1, 6/5): {report.all_inside_open_interval}"
    )
    return 0


def _cmd_crossover(args: argparse.Namespace) -> int:
    from . import analysis

    fn = analysis.crossover_upper if args.which == "upper" else analysis.crossover_lower
    result = fn(args.tol)
    doc = {
        "schema": "tancert-crossover-v1",
        "id": result.id,
        "bracket": list(result.bracket.to_hex()),
        "iterations": result.iterations,
        "tol": float(args.tol).hex(),
    }
    path = os.path.join(_outdir(args), f"crossover-{result.id}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(
        f"{result.id}: bracket [{result.bracket.lo:.10f}, {result.bracket.hi:.10f}] "
        f"({result.iterations} iterations) -> {path}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from . import sequences

    sequences.replay_identity(args.identity)
    print(f"{args.identity}: proved exactly, lhs - rhs reduces to 0")
    return 0


_COMMANDS = {
    "certify": _cmd_certify,
    "check": _cmd_check,
    "sequences": _cmd_sequences,
    "phi": _cmd_phi,
    "crossover": _cmd_crossover,
    "replay": _cmd_replay,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    except NoSignChange as exc:
        print(f"could not certify: {exc}", file=sys.stderr)
        return 2
    except Falsified as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 2
    except IdentityViolation as exc:
        print(f"identity check failed: {exc}", file=sys.stderr)
        return 3
    # also an unreadable file; for an @file one that is not text or names itself
    except (TancertError, OSError, UnicodeDecodeError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
