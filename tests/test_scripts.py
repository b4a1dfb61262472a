import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_flow_accuracy_prints_one_row_per_magnitude():
    out = subprocess.run(
        [sys.executable, "scripts/flow_accuracy.py", "--size", "32", "--cases", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert out[0].split() == ["|d|", "px", "iters=10", "iters=25", "iters=50", "iters=100"]
    rows = [line.split() for line in out[1:]]
    assert [row[0] for row in rows] == ["0.5", "1.0", "1.5", "2.0", "3.0"]
    for row in rows:
        epes = [float(v) for v in row[1:]]
        assert len(epes) == 4 and all(math.isfinite(e) and e >= 0 for e in epes)


def test_flow_accuracy_sweep_is_paired():
    out = subprocess.run(
        [sys.executable, "scripts/flow_accuracy.py", "--size", "32", "--cases", "1",
         "--iterations", "50,50"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert out[0].split() == ["|d|", "px", "iters=50", "iters=50"]
    rows = [line.split() for line in out[1:]]
    assert len(rows) == 5
    for row in rows:
        assert len(row) == 3 and row[1] == row[2]


@pytest.mark.parametrize("script", ["flow_accuracy.py"])
def test_script_help_runs_from_another_directory(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), "--help"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
                         check=True).stdout
    assert out.startswith("usage: ")
