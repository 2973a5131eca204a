import json
import subprocess
import sys
from pathlib import Path

import pytest

import tancert
from tancert import analysis, certifier, cli, sequences
from tancert.certifier import CATALOG, load_certificate
from tancert.interval import Interval

from conftest import LEMMA_MUTATIONS, PERTURBED_IDENTITIES

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
# a default bs_lower certificate of four boxes, as the slope form wrote it;
# it still checks, and its cover has neighbours to overlap or duplicate
FOUR_BOXES = DATA / "v6-finer-covers" / "slope-form" / "cert-bs_lower.json"


def run_cli(args, tmp_path, monkeypatch, capsys=None):
    monkeypatch.setenv("TANCERT_OUT", str(tmp_path))
    return cli.main(args)


def test_certify_single_and_check(tmp_path, monkeypatch, capsys):
    code = run_cli(["certify", "main_lower"], tmp_path, monkeypatch)
    assert code == 0
    path = tmp_path / "cert-main_lower.json"
    assert path.exists()
    assert run_cli(["check", str(path)], tmp_path, monkeypatch) == 0
    out = capsys.readouterr().out
    assert "certified" in out and "valid" in out


def test_certify_all_writes_nine_files(tmp_path, monkeypatch):
    assert run_cli(["certify", "all"], tmp_path, monkeypatch) == 0
    files = sorted(p.name for p in tmp_path.glob("cert-*.json"))
    assert files == sorted(f"cert-{cid}.json" for cid in CATALOG)
    for cid in CATALOG:
        cert = load_certificate(tmp_path / f"cert-{cid}.json")
        assert cert.status == "certified"
    # `check` accepts what `certify` emits
    for cid in ("lemma_phi", "bs_upper"):
        assert run_cli(["check", str(tmp_path / f"cert-{cid}.json")], tmp_path, monkeypatch) == 0


def test_unknown_id_lists_catalog(tmp_path, monkeypatch, capsys):
    assert run_cli(["certify", "bogus"], tmp_path, monkeypatch) == 1
    err = capsys.readouterr().err
    assert "main_lower" in err and "lemma_phi" in err


def test_usage_error_exit_code(tmp_path, monkeypatch):
    assert run_cli([], tmp_path, monkeypatch) == 1
    assert run_cli(["certify"], tmp_path, monkeypatch) == 1


def test_help_exits_zero(tmp_path, monkeypatch):
    assert run_cli(["--help"], tmp_path, monkeypatch) == 0


def test_undecided_exit_code(tmp_path, monkeypatch, capsys):
    # with room for no box, the one box of bs_lower's cover is left open
    monkeypatch.setattr(certifier, "MAX_BOXES", 0)
    code = run_cli(["certify", "bs_lower"], tmp_path, monkeypatch)
    assert code == 2
    # the one unresolved box is named on the status line
    assert "worst=[0.25, 1.4457963267948968] margin=[" in capsys.readouterr().out
    cert = load_certificate(tmp_path / "cert-bs_lower.json")
    assert cert.status == "undecided"
    # an undecided record makes no claim, so it checks valid
    assert run_cli(["check", str(tmp_path / "cert-bs_lower.json")], tmp_path, monkeypatch) == 0


def test_sequences_table(tmp_path, monkeypatch, capsys):
    assert run_cli(["sequences", "--n-max", "4"], tmp_path, monkeypatch) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,T_n,U_n,A_n,B_n"
    assert lines[-1].startswith("4,4096,")
    assert (tmp_path / "sequences.csv").read_text().strip() == out.strip()


def test_phi_csv_hex_floats(tmp_path, monkeypatch):
    assert run_cli(["phi", "--grid", "0.1:1.5:8"], tmp_path, monkeypatch) == 0
    lines = (tmp_path / "phi.csv").read_text().strip().splitlines()
    assert lines[0] == "x,phi"
    assert len(lines) == 9
    x, phi = lines[1].split(",")
    assert float.fromhex(x) == 0.1
    assert 1.0 < float.fromhex(phi) < 1.2


def test_crossover_files(tmp_path, monkeypatch):
    assert run_cli(["crossover", "upper", "--tol", "1e-3"], tmp_path, monkeypatch) == 0
    doc = json.loads((tmp_path / "crossover-upper_x0.json").read_text())
    assert doc["schema"] == "tancert-crossover-v1"
    lo, hi = (float.fromhex(h) for h in doc["bracket"])
    assert lo <= 1.2332 <= hi and hi - lo <= 1e-3
    assert run_cli(["crossover", "lower"], tmp_path, monkeypatch) == 0
    doc = json.loads((tmp_path / "crossover-lower_x1.json").read_text())
    lo, hi = (float.fromhex(h) for h in doc["bracket"])
    assert lo <= 1.5255 <= hi


# Brackets and iteration counts of `tancert crossover`, pinned bit for bit:
# a change in how the gaps are evaluated must not move them.
PINNED_CROSSOVERS = [
    ("upper", "1e-3", "upper_x0", "0x1.3b9999999999ap+0", "0x1.3bccccccccccdp+0", 9),
    ("upper", "1e-4", "upper_x0", "0x1.3bacccccccccep+0", "0x1.3bb3333333334p+0", 12),
    ("upper", "1e-6", "upper_x0", "0x1.3bb2e66666668p+0", "0x1.3bb2f33333334p+0", 19),
    ("lower", "1e-3", "lower_x1", "0x1.8666666666666p+0", "0x1.868f5c28f5c28p+0", 8),
    ("lower", "1e-4", "lower_x1", "0x1.86851eb851eb8p+0", "0x1.868a3d70a3d70p+0", 11),
    ("lower", "1e-6", "lower_x1", "0x1.8688e147ae147p+0", "0x1.8688eb851eb84p+0", 18),
]


@pytest.mark.parametrize(
    "which,tol,cid,lo,hi,iterations",
    PINNED_CROSSOVERS,
    ids=[f"{which}-{tol}" for which, tol, *_ in PINNED_CROSSOVERS],
)
def test_crossover_brackets_pinned(which, tol, cid, lo, hi, iterations, tmp_path, monkeypatch):
    assert run_cli(["crossover", which, "--tol", tol], tmp_path, monkeypatch) == 0
    doc = json.loads((tmp_path / f"crossover-{cid}.json").read_text())
    assert doc["bracket"] == [lo, hi]
    assert doc["iterations"] == iterations


def test_crossover_nan_tolerance_is_refused(tmp_path, monkeypatch, capsys):
    # NaN compares false with every bound, so a lower bound alone lets it through
    for which in ("upper", "lower"):
        assert run_cli(["crossover", which, "--tol", "nan"], tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not any(tmp_path.iterdir())


def test_replay_command(tmp_path, monkeypatch, capsys):
    for ident in tancert.REPLAY_IDENTITIES:
        assert run_cli(["replay", ident], tmp_path, monkeypatch) == 0
        assert f"{ident}: proved exactly" in capsys.readouterr().out
    # the exact proof has no sampling or tolerance knobs
    for flags in (["--samples", "12"], ["--tol", "1e-60"]):
        assert run_cli(["replay", "eq24_quotient", *flags], tmp_path, monkeypatch) == 1


def test_replay_failure_exit_code(tmp_path, monkeypatch, capsys):
    for ident, perturbed in PERTURBED_IDENTITIES.items():
        monkeypatch.setitem(sequences._IDENTITIES, ident, perturbed)
        assert run_cli(["replay", ident], tmp_path, monkeypatch) == 3
        assert f"identity check failed: {ident}:" in capsys.readouterr().err


@pytest.mark.parametrize("mutation", LEMMA_MUTATIONS)
def test_replay_refuses_a_mutated_lemma_series(mutation, tmp_path, monkeypatch, capsys):
    LEMMA_MUTATIONS[mutation](monkeypatch)
    assert run_cli(["replay", "lemma_phi_series"], tmp_path, monkeypatch) == 3
    assert "identity check failed: lemma_phi_series:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n_max,code", [(0, 0), (cli.MAX_SEQUENCE_N, 0), (-1, 1), (cli.MAX_SEQUENCE_N + 1, 1)]
)
def test_sequences_n_max_bounded(n_max, code, tmp_path, monkeypatch, capsys):
    if code:
        # a refused value builds no row
        monkeypatch.setattr(sequences, "seq_term", None)
    assert run_cli(["sequences", "--n-max", str(n_max)], tmp_path, monkeypatch) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("error: --n-max") and err.count("\n") == 1
    else:
        assert len(out.splitlines()) == n_max + 2


@pytest.mark.parametrize("points,code", [(cli.MAX_GRID_POINTS, 0), (cli.MAX_GRID_POINTS + 1, 1)])
def test_phi_grid_bounded(points, code, tmp_path, monkeypatch, capsys):
    if code:
        # a refused value starts no arbitrary-precision work
        monkeypatch.setattr(analysis, "mp", None)
    argv = ["phi", "--grid", f"1:1.5:{points}"]
    assert run_cli(argv, tmp_path, monkeypatch) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "phi.csv").exists()
    else:
        assert out.startswith(f"{points} samples")


@pytest.mark.parametrize("command", [[], ["certify"], ["check"], ["sequences"], ["phi"],
                                     ["crossover"], ["replay"]])
def test_help_lists_neither_config_nor_precision(command, capsys):
    assert cli.main([*command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--config" not in out and "--precision-bits" not in out


def test_check_tampered_file_exit_code(tmp_path, monkeypatch):
    run_cli(["certify", "prop1_lower"], tmp_path, monkeypatch)
    path = tmp_path / "cert-prop1_lower.json"
    doc = json.loads(path.read_text())
    doc["boxes"] = doc["boxes"][:-1]
    path.write_text(json.dumps(doc))
    assert run_cli(["check", str(path)], tmp_path, monkeypatch) == 3


def _set_box_entry(column, value):
    def tamper(doc):
        doc["boxes"][0][column] = value
    return tamper


def _invert_first_box(doc):
    row = doc["boxes"][0]
    row[0], row[1] = row[1], row[0]


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def tamper(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return tamper


def _deepen_first_box(doc):
    doc["boxes"][0][2] = doc["stats"]["max_depth_reached"] = 77


def _add_v5_margins(doc):
    # the first row as schema v5 wrote it: [lo, hi, margin_lo, margin_hi, depth]
    row = doc["boxes"][0]
    margin = certifier.eval_form(doc["inequality_id"], Interval.from_hex(row[0], row[1]))
    row[2:2] = margin.to_hex()


def _add_v4_leftovers(doc):
    # main_upper's v4 near-zero proof, a v4 config key and an unread stats key
    v4 = json.loads((DATA / "schema-v4" / "cert-main_upper.json").read_text())
    doc["near_zero_proof"] = v4["near_zero_proof"]
    doc["config"]["min_width"] = "banana"
    doc["stats"]["wall_time"] = 0.5


def _overlap_second_box(doc):
    # box 1 starts where box 0 starts
    doc["boxes"][1][0] = doc["boxes"][0][0]


def _empty_cover(doc):
    doc["boxes"] = []
    doc["stats"] = {"box_count": 0, "max_depth_reached": 0}


def _pad_past_the_size_bound(doc):
    # still a valid certificate once parsed, but longer than any certify writes
    return json.dumps(doc) + " " * certifier.MAX_FILE_BYTES


TAMPERINGS = {
    "missing boxes key": lambda doc: doc.pop("boxes"),
    "bad hex": _set_box_entry(0, "0x1.zzp+0"),
    "non-JSON file": "{ not json",
    "deeply nested JSON": "[" * 200000,
    "box below 0": _set_box_entry(0, (-0.5).hex()),
    "inverted box": _invert_first_box,
    "v5 row with its margins": _add_v5_margins,
    # one more than the boxes the file holds
    "stats box_count": lambda doc: doc["stats"].__setitem__("box_count", len(doc["boxes"]) + 1),
    "stats max_depth_reached": _set("stats", "max_depth_reached", 99),
    "box depth above max_depth": _deepen_first_box,
    "config delta 0.5": _set("config", "delta", (0.5).hex()),
    "config delta 0.125": _set("config", "delta", (0.125).hex()),
    "config epsilon_max 0.0625": _set("config", "epsilon_max", (0.0625).hex()),
    "config max_depth -3": _set("config", "max_depth", -3),
    "status banana": _set("status", "banana"),
    "config degree 16.9": _set("config", "degree", 16.9),
    "config degree -5": _set("config", "degree", -5),
    "config degree 3": _set("config", "degree", 3),
    "box depth true": _set_box_entry(2, True),
    "status falsified": _set("status", "falsified"),
    "v4 leftovers": _add_v4_leftovers,
    "box row with a 4th entry": lambda doc: doc["boxes"][0].append(0),
    "config delta as decimal text": _set("config", "delta", "0.4"),
    "file above the size bound": _pad_past_the_size_bound,
    # a broken cover is the one diagnosis: no stats test or margin follows it
    "box overlapping its neighbour": _overlap_second_box,
    "last box past the cover end": lambda doc: doc["boxes"][-1].__setitem__(1, (1.5).hex()),
    "no boxes, stats to match": _empty_cover,
    "duplicated box row": lambda doc: doc["boxes"].insert(1, doc["boxes"][1]),
}


@pytest.mark.parametrize("case", sorted(TAMPERINGS))
def test_check_tampered_certificate_exits_3_with_one_diagnosis(case, tmp_path, monkeypatch, capsys):
    path = tmp_path / "cert-bs_lower.json"
    path.write_text(FOUR_BOXES.read_text())
    assert certifier.check_file(path).ok
    if isinstance(TAMPERINGS[case], str):
        path.write_text(TAMPERINGS[case])
    else:
        # a tampering edits the document in place or returns the file's text
        doc = json.loads(path.read_text())
        text = TAMPERINGS[case](doc)
        path.write_text(text if isinstance(text, str) else json.dumps(doc))
    result = certifier.check_file(path)
    assert not result.ok and len(result.diagnoses) == 1, result.diagnoses
    capsys.readouterr()
    assert run_cli(["check", str(path)], tmp_path, monkeypatch) == 3
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"INVALID: {path}", f"  - {result.diagnoses[0]}"]
    assert err == ""


def test_idempotent_reruns_byte_identical(tmp_path, monkeypatch):
    run_cli(["certify", "bs_lower"], tmp_path, monkeypatch)
    first = (tmp_path / "cert-bs_lower.json").read_bytes()
    run_cli(["certify", "bs_lower"], tmp_path, monkeypatch)
    assert (tmp_path / "cert-bs_lower.json").read_bytes() == first
    run_cli(["phi", "--grid", "0.2:1.2:5"], tmp_path, monkeypatch)
    first = (tmp_path / "phi.csv").read_bytes()
    run_cli(["phi", "--grid", "0.2:1.2:5"], tmp_path, monkeypatch)
    assert (tmp_path / "phi.csv").read_bytes() == first


def test_out_flag_overrides_env(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("TANCERT_OUT", str(tmp_path / "env"))
    assert cli.main(["--out", str(override), "certify", "prop1_lower"]) == 0
    assert (override / "cert-prop1_lower.json").exists()
    assert not (tmp_path / "env").exists()


def test_config_file_precedence(tmp_path, monkeypatch):
    # a settings file holds flags; those given after it win
    settings = tmp_path / "settings.args"
    settings.write_text("--delta 0.2\n--max-depth 30\n")
    out = tmp_path / "from_file"
    assert cli.main(["--out", str(out), "certify", "main_lower", f"@{settings}"]) == 0
    cert = load_certificate(out / "cert-main_lower.json")
    assert (cert.config.delta, cert.config.max_depth) == (0.2, 30)
    out = tmp_path / "flagged"
    argv = ["--out", str(out), "certify", "main_lower", f"@{settings}", "--delta", "0.25"]
    assert cli.main(argv) == 0
    cert = load_certificate(out / "cert-main_lower.json")
    assert (cert.config.delta, cert.config.max_depth) == (0.25, 30)
    # a file may hold a whole command line, --out included
    whole = tmp_path / "whole.args"
    whole.write_text(f"--out {tmp_path / 'whole'} certify main_lower --delta 0.2")
    assert cli.main([f"@{whole}"]) == 0
    assert load_certificate(tmp_path / "whole" / "cert-main_lower.json").config.delta == 0.2


@pytest.mark.parametrize(
    "text",
    ["--dleta 0.4", "--delta abc", "--degree 16.5", "--max-depth 2.5",
     # a JSON file of the former --config format is refused, not half read
     '{"delta": "abc"}', '{"degree": 16.5}', '{"max_depth": 2.5}', "{ not json",
     pytest.param("[" * 200000, id="deeply nested JSON")],
)
def test_bad_config_file_exits_1(text, tmp_path, capsys):
    # a settings file is read as flags, so a misspelled, mistyped or stray
    # word is refused as on the command line, before any work
    settings = tmp_path / "settings.args"
    settings.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "certify", "bs_lower", f"@{settings}"]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name,content",
    [("missing.args", None), ("self.args", b"@self.args"), ("binary.args", b"\xff\x00\xfe")],
)
def test_unreadable_settings_file_exits_1(name, content, tmp_path, monkeypatch, capsys):
    # a missing file, a file that names itself and one that is not text
    monkeypatch.chdir(tmp_path)
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "certify", "bs_lower", f"@{path}"]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", ["--epsilon-max 0.3", "--epsilon-max -1", "--degree 12"])
def test_bad_certify_config_writes_nothing(flags, tmp_path, capsys):
    # each config fails on a form after the first, yet no certificate is written
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "certify", "all", *flags.split()]) == 1
    assert not out.exists() or not any(out.iterdir())
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name", ["", "missing.json"])
def test_check_of_an_unopenable_path_exits_1(name, tmp_path, capsys):
    # a directory or a missing file: one error line, no traceback
    assert cli.main(["check", str(tmp_path / name)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def _tampered(tmp_path) -> Path:
    doc = json.loads((GOLDEN / "cert-bs_lower.json").read_text())
    doc["boxes"] = doc["boxes"][:-1]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("files,code", [
    (["cert-main_upper.json", "cert-bs_lower.json"], 0),
    (["cert-main_upper.json", "missing"], 1),
    (["cert-main_upper.json", "tampered", "missing"], 3),
])
def test_check_of_many_files_exits_with_the_worst_code(files, code, tmp_path, capsys):
    paths = [str(_tampered(tmp_path)) if f == "tampered" else
             str(tmp_path / "missing.json") if f == "missing" else str(GOLDEN / f) for f in files]
    assert cli.main(["check", *paths]) == code
    captured = capsys.readouterr()
    # one verdict per readable file, in order, and one error line per unreadable one
    verdicts = [line for line in captured.out.splitlines() if not line.startswith("  - ")]
    expected = [f"{'INVALID' if f == 'tampered' else 'valid'}: {p}"
                for f, p in zip(files, paths) if f != "missing"]
    assert verdicts == expected
    missing = files.count("missing")
    assert captured.err.count("error: ") == missing and captured.err.count("\n") == missing
    assert "Traceback" not in captured.err


def test_console_entry_point(tmp_path):
    # a minimal env, but the child imports the same tancert as this suite;
    # -B: it writes no bytecode into the source tree
    package_root = Path(tancert.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "tancert.cli", "sequences", "--n-max", "5"],
        capture_output=True,
        text=True,
        env={
            "TANCERT_OUT": str(tmp_path),
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(package_root),
        },
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("5,86016,")


# Modules a certify or check process must not load: dataclasses pulls in
# inspect, pathlib pulls in urllib.parse where os.path serves, ast only words
# the refusal of a form (the builtin compile parses it), enclosures holds no
# certificate code, and sequences and analysis (with mpmath) serve other
# commands.
FORBIDDEN_AT_STARTUP = (
    "dataclasses", "inspect", "typing", "pathlib", "ast", "tancert.enclosures",
    "tancert.sequences", "tancert.analysis", "mpmath",
)
WIDE_GOLDEN = Path(__file__).resolve().parent / "data" / "golden" / "wide_endpoints"


def run_fresh(code, *flags, cwd=None):
    """Run code in a fresh interpreter that imports the same tancert as this
    suite; returns its stripped stdout."""
    package_root = Path(tancert.__file__).resolve().parents[1]
    # -B: the child writes no bytecode into the source tree
    proc = subprocess.run(
        [sys.executable, "-B", *flags, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)},
        cwd=cwd,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "code",
    [
        pytest.param("import tancert", id="tancert"),
        pytest.param("import tancert.cli", id="tancert.cli"),
        pytest.param(
            "from tancert import cli; "
            f"assert cli.main(['check', {str(WIDE_GOLDEN / 'cert-bs_upper.json')!r}]) == 0",
            id="check",
        ),
        pytest.param(
            "from tancert import cli; "
            "assert cli.main(['--out', 'out', 'certify', 'main_upper']) == 0",
            id="certify",
        ),
    ],
)
def test_import_leaves_mpmath_unloaded(code, tmp_path):
    # nor any other module of FORBIDDEN_AT_STARTUP; -S keeps the modules that
    # site imports out of sys.modules
    loaded = run_fresh(f"{code}\nimport sys; print(*sorted(sys.modules))", "-S", cwd=tmp_path)
    assert set(loaded.split()).isdisjoint(FORBIDDEN_AT_STARTUP), loaded


def test_replay_loads_neither_analysis_nor_mpmath(tmp_path):
    loaded = run_fresh(
        "from tancert import cli; assert cli.main(['replay', 'eq24_quotient']) == 0\n"
        "import sys; print(*sorted(sys.modules))",
        "-S",
        cwd=tmp_path,
    ).split()
    assert "tancert.sequences" in loaded
    assert "tancert.analysis" not in loaded and "mpmath" not in loaded


def test_star_import_binds_every_public_name():
    names = run_fresh(
        "from tancert import *\nimport tancert\n"
        "print(*[n for n in tancert.__all__ if n not in globals()])"
    )
    assert names == ""


def test_lazy_package_surface():
    assert set(tancert.__all__) <= set(dir(tancert))
    with pytest.raises(AttributeError):
        tancert.nope
    # the submodule imports of bench/layers.py
    from tancert import certifier, enclosures, interval

    assert interval.Interval is tancert.Interval and enclosures.cos_enc is tancert.cos_enc
    assert certifier.certify is tancert.certify


def test_replay_help_lists_the_identities(capsys):
    assert cli.main(["replay", "--help"]) == 0
    out = capsys.readouterr().out
    for ident in tancert.REPLAY_IDENTITIES:
        assert ident in out


def test_every_public_name_resolves():
    # the analysis names load lazily through the package __getattr__
    for name in tancert.__all__:
        assert getattr(tancert, name) is not None, name
