"""Demos 01-04 run cleanly, each in its own interpreter.

Demo 03 is the only caller of `update_cost` and `correct_plan` outside the
tests, so its worked example is checked too. Demo 05 is left out: it takes
about 10 s, and the online-tuning loop it drives is already covered end to
end by acceptance criterion 8.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def run_demo(path, cwd):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demos_01_to_04_are_present():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    done = run_demo(path, tmp_path)
    assert done.returncode == 0, done.stderr
    if path.name.startswith("03_"):
        # rows(outer) x delta(inner) = 50000 x 1.35 on top of 113587
        assert "181087.0" in done.stdout
