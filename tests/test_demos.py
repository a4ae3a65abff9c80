"""Smoke test: every script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    # demos 03 and 04 leave their artifact directories in TMPDIR on purpose
    env = dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + path if path else ""),
        TMPDIR=str(tmp_path),
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
