"""Command-line front end.

    tancert certify <id|all>      emit certificate files
    tancert check <cert-file>     re-verify a certificate from disk
    tancert sequences --n-max N   exact T/U/A/B table as CSV
    tancert phi --grid a:b:n      exponent-ratio sweep to CSV
    tancert crossover upper|lower certified crossover bracket
    tancert replay <identity>     high-precision identity replay

Exit codes: 0 success/certified, 1 usage error, 2 undecided (or a
bracket that could not be sign-certified), 3 identity/certificate check
failed.

Outputs are deterministic: floats are serialized as hex strings and
files carry no timestamps, so reruns with the same configuration are
byte-identical.  Human-readable decimals appear only on stdout.
Configuration precedence: flags > --config JSON file > built-in
defaults.  The output directory is --out, else $TANCERT_OUT, else
./out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import certifier, sequences
from .errors import IdentityViolation, NoSignChange, TancertError

DEFAULTS = {
    "delta": 0.25,
    "epsilon_max": 0.125,
    "degree": 16,
    "max_depth": 48,
    "min_width": 2.0**-40,
    "threads": 1,
    "samples": 50,
    "tol": 1e-3,
    "precision_bits": 200,
    "n_max": 20,
    "format": "json",
}


@dataclass
class RunConfig:
    command: str
    inequality_id: str | None = None
    delta: float = DEFAULTS["delta"]
    epsilon_max: float = DEFAULTS["epsilon_max"]
    degree: int = DEFAULTS["degree"]
    max_depth: int = DEFAULTS["max_depth"]
    min_width: float = DEFAULTS["min_width"]
    threads: int = DEFAULTS["threads"]
    samples: int = DEFAULTS["samples"]
    tol: float = DEFAULTS["tol"]
    precision_bits: int = DEFAULTS["precision_bits"]
    n_max: int = DEFAULTS["n_max"]
    out_path: str = ""
    format: str = DEFAULTS["format"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tancert",
        description="certificates and numerics for sharp tangent inequalities",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    parser.add_argument("--out", help="output directory (default $TANCERT_OUT or ./out)")
    parser.add_argument("--format", choices=["json", "csv"], help="stdout echo format")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="certify one inequality or all")
    p_cert.add_argument("inequality_id", metavar="id", help="catalog id or 'all'")
    for flag, typ in [
        ("--delta", float),
        ("--epsilon-max", float),
        ("--degree", int),
        ("--max-depth", int),
        ("--min-width", float),
    ]:
        p_cert.add_argument(flag, type=typ)
    p_cert.add_argument(
        "--threads", type=int,
        help="accepted for compatibility (at least 1); it changes neither the output nor the scheduling",
    )

    p_check = sub.add_parser("check", help="re-verify a certificate file")
    p_check.add_argument("cert_file")

    p_seq = sub.add_parser("sequences", help="exact sequence table as CSV")
    p_seq.add_argument("--n-max", type=int)

    p_phi = sub.add_parser("phi", help="exponent-ratio sweep")
    p_phi.add_argument("--grid", required=True, metavar="a:b:n")
    p_phi.add_argument("--precision-bits", type=int)

    p_cross = sub.add_parser("crossover", help="certified crossover bracket")
    p_cross.add_argument("which", choices=["upper", "lower"])
    p_cross.add_argument("--tol", type=float)

    p_replay = sub.add_parser("replay", help="replay a proof identity numerically")
    p_replay.add_argument("identity", choices=list(sequences.REPLAY_IDENTITIES))
    p_replay.add_argument("--samples", type=int)
    p_replay.add_argument("--tol", type=float)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = {}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise TancertError("--config must hold a JSON object")

    def pick(name, flag_value):
        if flag_value is not None:
            return flag_value
        if name in file_values:
            return file_values[name]
        return DEFAULTS[name]

    cfg = RunConfig(command=args.command)
    cfg.inequality_id = getattr(args, "inequality_id", None) or getattr(
        args, "which", None
    ) or getattr(args, "identity", None)
    for name in (
        "delta",
        "epsilon_max",
        "degree",
        "max_depth",
        "min_width",
        "threads",
        "samples",
        "tol",
        "precision_bits",
        "n_max",
        "format",
    ):
        setattr(cfg, name, pick(name, getattr(args, name, None)))
    if args.command == "replay" and getattr(args, "tol", None) is None and "tol" not in file_values:
        cfg.tol = 1e-25  # replay compares 80-digit evaluations, not brackets
    out = args.out or file_values.get("out") or os.environ.get("TANCERT_OUT") or "./out"
    cfg.out_path = str(out)
    return cfg


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.out_path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_certify(cfg: RunConfig) -> int:
    ids = list(certifier.CATALOG) if cfg.inequality_id == "all" else [cfg.inequality_id]
    for cid in ids:
        if cid not in certifier.CATALOG:
            print(f"unknown inequality id {cid!r}; catalog:", file=sys.stderr)
            for known in certifier.CATALOG:
                print(f"  {known}", file=sys.stderr)
            return 1
    ccfg = certifier.CertifyConfig(
        delta=cfg.delta,
        epsilon_max=cfg.epsilon_max,
        degree=cfg.degree,
        max_depth=cfg.max_depth,
        min_width=cfg.min_width,
        threads=cfg.threads,
    )
    outdir = _outdir(cfg)
    worst = 0
    for cid in ids:
        cert = certifier.certify(cid, ccfg)
        path = outdir / f"cert-{cid}.json"
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


def _cmd_check(cfg: RunConfig, cert_file: str) -> int:
    result = certifier.check_file(cert_file)
    print(f"{'valid' if result.ok else 'INVALID'}: {cert_file}")
    for d in result.diagnoses:
        print(f"  - {d}")
    return 0 if result.ok else 3


def _cmd_sequences(cfg: RunConfig) -> int:
    rows = ["n,T_n,U_n,A_n,B_n"]
    for n in range(cfg.n_max + 1):
        term = sequences.seq_term(n)
        rows.append(f"{term.n},{int(term.T)},{term.U},{term.A},{term.B}")
    text = "\n".join(rows) + "\n"
    sys.stdout.write(text)
    (_outdir(cfg) / "sequences.csv").write_text(text)
    return 0


def _parse_grid(spec: str) -> list[float]:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise TancertError(f"grid must be a:b:n, got {spec!r}") from None
    if n < 1 or b < a:
        raise TancertError("grid needs n >= 1 and b >= a")
    if n == 1:
        return [a]
    return [a + i * (b - a) / (n - 1) for i in range(n)]


# `analysis` loads mpmath, so only the commands that need it import it.

def _cmd_phi(cfg: RunConfig, grid_spec: str) -> int:
    from . import analysis

    grid = _parse_grid(grid_spec)
    report = analysis.optimality_scan(grid, cfg.precision_bits)
    rows = ["x,phi"]
    for s in report.samples:
        rows.append(f"{s.x.hex()},{s.phi.hex()}")
    text = "\n".join(rows) + "\n"
    (_outdir(cfg) / "phi.csv").write_text(text)
    print(
        f"{len(report.samples)} samples: inf={report.inf_phi:.9f} "
        f"sup={report.sup_phi:.9f} inside (1, 6/5): {report.all_inside_open_interval}"
    )
    return 0


def _cmd_crossover(cfg: RunConfig, which: str) -> int:
    from . import analysis

    fn = analysis.crossover_upper if which == "upper" else analysis.crossover_lower
    result = fn(cfg.tol)
    doc = {
        "schema": "tancert-crossover-v1",
        "id": result.id,
        "bracket": list(result.bracket.to_hex()),
        "iterations": result.iterations,
        "tol": float(cfg.tol).hex(),
    }
    path = _outdir(cfg) / f"crossover-{result.id}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(
        f"{result.id}: bracket [{result.bracket.lo:.10f}, {result.bracket.hi:.10f}] "
        f"({result.iterations} iterations) -> {path}"
    )
    return 0


def _cmd_replay(cfg: RunConfig, identity: str) -> int:
    from . import analysis

    report = analysis.replay_identity(identity, samples=cfg.samples, tol=cfg.tol)
    print(
        f"{identity}: {report.samples} samples, worst residual "
        f"{report.worst_residual:.3e} at x={report.worst_x:.6f} (tol {report.tol:.1e})"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = _resolve_config(args)
        if args.command == "certify":
            return _cmd_certify(cfg)
        if args.command == "check":
            return _cmd_check(cfg, args.cert_file)
        if args.command == "sequences":
            return _cmd_sequences(cfg)
        if args.command == "phi":
            return _cmd_phi(cfg, args.grid)
        if args.command == "crossover":
            return _cmd_crossover(cfg, args.which)
        if args.command == "replay":
            return _cmd_replay(cfg, args.identity)
        raise TancertError(f"unhandled command {args.command!r}")
    except NoSignChange as exc:
        print(f"could not certify: {exc}", file=sys.stderr)
        return 2
    except IdentityViolation as exc:
        print(f"identity check failed: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TancertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
