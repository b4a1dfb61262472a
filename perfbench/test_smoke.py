"""Self-test of the benchmark in smoke mode (tiny inputs).

    python3 -m pytest perfbench/test_smoke.py

Checks, for every workload, that the untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, that the traced run prints every
per-layer metric, that every output check of the workload ran and passed,
and that the benchmark refuses to run where there is no rtar source tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)

CHECKS = {
    "clip_run_112": {"log_parses", "poll_count", "pairs_per_pass", "log_repeats"},
    "train_32": {"losses_finite", "loss_decreases", "eval_complete", "history_repeats"},
    "cache_112": {"cold_index_resolves", "cold_writes_all", "warm_index_resolves",
                  "warm_writes_none", "cache_matches_preprocess", "reload_reads_cache"},
    "live_32": {"frames_distinct", "frames_accounted", "log_parses", "predictions_matched"},
}
NAMED = {
    "clip_run_112": {"pairs_per_s", "pair_ms_p50"},
    "train_32": {"samples_per_s", "eval_pairs_per_s"},
    "cache_112": {"cold_pairs_per_s", "warm_pairs_per_s", "reload_pairs_per_s"},
    "live_32": {"latency_ms_p50", "latency_ms_p95", "drop_share", "inferred_per_s"},
}
COMMON = {"setup_s", "peak_rss_mb", "ops_failed_share"}


def run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180)


def comment(lines: list[str], tag: str) -> str:
    return next(l for l in lines if l.startswith(f"# {tag} "))


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(CHECKS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(CHECKS))
def test_smoke_run(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

    checks = json.loads(comment(lines, "checks")[len("# checks "):])
    assert set(checks) == CHECKS[workload]
    assert all(c["passed"] >= 1 and c["failed"] == 0 for c in checks.values())
    assert sum(c["passed"] for c in checks.values()) == result["attempted"]

    named = json.loads(comment(lines, "named").split(") ", 1)[1])
    assert set(named) == NAMED[workload] | COMMON
    assert all(v["unit"] for v in named.values())
    json.loads(comment(lines, "stamp")[len("# stamp "):])
    assert float(comment(lines, "host").split()[3].rstrip(":")) > 0

    if trace and workload == "cache_112":
        nn_calls = {k: v["value"] for k, v in result["metrics"].items()
                    if k.startswith("nn.") and k.endswith("_calls")}
        assert nn_calls and not any(nn_calls.values())


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "_work", "out"))
    proc = run(str(tmp_path), "train_32", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
