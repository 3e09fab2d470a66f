"""Every script under demos/ runs to completion against the package in src/ and prints,
byte for byte, the output pinned for it under tests/golden/demos/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = ROOT / "tests" / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:].decode(errors="replace")
    assert proc.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()
