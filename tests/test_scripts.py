import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fusion_ablation_prints_four_rows_and_removes_its_dataset(tmp_path):
    out = subprocess.run(
        [sys.executable, "scripts/fusion_ablation.py", "--clips-per-class", "2",
         "--groups", "2", "--epochs", "1", "--resolution", "32", "--target-size", "16",
         "--duration", "1.0"],
        cwd=ROOT, env={**os.environ, "TMPDIR": str(tmp_path)},
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    header = out.index(f"{'streams':<16}{'clip_acc':>9}{'frame_acc':>10}{'params':>9}{'secs':>6}")
    rows = [line.split() for line in out[header + 1 : header + 5]]
    assert [row[0] for row in rows] == ["rgb,flow,hog", "rgb", "flow", "hog"]
    for row in rows:
        assert len(row) == 5 and 0 <= float(row[1]) <= 1 and 0 <= float(row[2]) <= 1
        assert int(row[3]) > 0
    assert out[header + 5] == ""
    assert os.listdir(tmp_path) == []


def test_fusion_ablation_with_an_empty_section_exits_2(tmp_path):
    proc = subprocess.run(
        [sys.executable, "scripts/fusion_ablation.py", "--clips-per-class", "1",
         "--groups", "2", "--resolution", "32", "--target-size", "16", "--duration", "1.0"],
        cwd=ROOT, env={**os.environ, "TMPDIR": str(tmp_path)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: clips_per_class=1 and groups=2 give 4 train and 0 test")
    assert len(proc.stderr.splitlines()) == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("script", ["fusion_ablation.py", "flow_accuracy.py"])
def test_script_help_runs_from_another_directory(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), "--help"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
                         check=True).stdout
    assert out.startswith("usage: ")
