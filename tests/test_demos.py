import subprocess
import sys
from pathlib import Path

import pytest

import tancert

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # the child imports the same tancert as this suite; -B: it writes no
    # bytecode into the source tree
    package_root = Path(tancert.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-B", str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
