"""rtar benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; rtar is imported from ``src/``.
Inputs are generated by ``rtar.synth`` from ``--seed``. With ``--trace 0``
the result carries the end-to-end metrics named in ``BENCHMARK.json``;
with ``--trace 1`` it carries the per-layer metrics, measured from spans
recorded in a traced half of the run, and the untraced half gives the
tracing overhead. Speed figures are in reference seconds, which take the
host's drifting CPU speed out (``hostclock.py``). ``--smoke`` shrinks every
input for a quick self-test.

Lines starting with ``#`` before the result give the environment stamp,
every output check run, and the workload's own end-to-end figures under
workload-specific names, with their units.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "RTAR_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

NAMED_UNITS = {
    "pairs_per_s": "1/s", "pair_ms_p50": "ms",
    "samples_per_s": "1/s", "eval_pairs_per_s": "1/s",
    "cold_pairs_per_s": "1/s", "warm_pairs_per_s": "1/s", "reload_pairs_per_s": "1/s",
    "latency_ms_p50": "ms", "latency_ms_p95": "ms", "drop_share": "share",
    "inferred_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "ops_failed_share": "share",
}


def _git_commit() -> str | None:
    """HEAD of the checkout; None where it carries no git metadata."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp() -> dict:
    """Environment of the result. Thread settings are recorded as found and
    never set, so a change that pins BLAS threads inside rtar shows."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_id,
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_phase(wl, seconds: float, setup_budget: float, work: str, tracer=None):
    """Set up at least three times and until ``setup_budget`` seconds are
    spent (at most nine), then measure the last set-up's state. The host
    clock ticks before every set-up and all through the measured loop;
    set-up times come back in reference seconds. Set-up time is their
    median, which a single slow set-up cannot move."""
    from hostclock import HostClock
    from workloads import Checks

    checks = Checks()
    clock = HostClock()
    setups: list[tuple[float, float]] = []
    state = None
    while len(setups) < 3 or (sum(b - a for a, b in setups) < setup_budget and len(setups) < 9):
        k = len(setups)
        if k:
            shutil.rmtree(os.path.join(work, f"setup{k - 1}"))
        d = os.path.join(work, f"setup{k}")
        os.makedirs(d)
        clock.tick()
        t0 = perf_counter()
        state = wl.setup(d)
        setups.append((t0, perf_counter()))
    clock.tick()
    if tracer:
        tracer.measured_from = len(tracer.spans)
    result = wl.measure(state, seconds, checks, clock, tracer)
    return result, [clock.ref(*s) for s in setups], checks, clock


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(result, setup_s: list[float], checks) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "ops_ok_share": (checks.attempted - checks.failed) / checks.attempted,
        "pairs_per_s": result.pairs_per_s,
        "pair_ms": result.pair_ms,
    }


def per_layer(tracer, result, n_setups: int, clock) -> dict[str, float]:
    from tracer import layer_metrics

    since = tracer.measured_from
    out = layer_metrics(tracer, result.units, since, clock.factor())
    live = tracer.total_time("runtime.run_live", since=since)
    busy = (tracer.total_time("preprocess.pair", roots_only=True, since=since)
            + tracer.total_time("network.predict", roots_only=True, since=since))
    precompute = tracer.total_time("dataset.precompute", since=since)
    out.update({
        "runtime.infer_busy_share": busy / live if live else 0.0,
        "runtime.dropped": 0.0,
        "runtime.gen_late_ms_p95": 0.0,
        "dataset.written_share": 0.0,
        "dataset.warm_recompute_share": 0.0,
        "dataset.parallelism": (tracer.total_cpu("dataset.cache_clip", since=since) / precompute
                                if precompute else 0.0),
        "synth.generate_s": tracer.total_time("synth.generate") / n_setups / clock.factor(),
    })
    out.update(result.layer)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "rtar", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"perfbench: {ROOT} is not an rtar checkout (needs src/rtar and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from hostclock import NOMINAL_S
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)

    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    setup_budget = 0.0 if args.smoke else 2.0
    work = os.path.join(ROOT, "perfbench", "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            half = args.seconds / 2
            plain, plain_setup, plain_checks, _ = run_phase(wl, half, setup_budget,
                                                            os.path.join(work, "plain"))
            tracer = Tracer()
            with tracer.installed():
                result, setup_s, checks, clock = run_phase(wl, half, setup_budget,
                                                           os.path.join(work, "traced"), tracer)
            untraced = end_to_end(plain, plain_setup, plain_checks)
            traced = end_to_end(result, setup_s, checks)
            for name, count in plain_checks.counts.items():
                tally = checks.counts.setdefault(name, [0, 0])
                tally[0] += count[0]
                tally[1] += count[1]
            values = per_layer(tracer, result, len(setup_s), clock)
            for name in ("setup_s", "pairs_per_s", "pair_ms"):
                values[f"overhead.{name}"] = traced[name] - untraced[name]
            spec_metrics = spec["per_layer"]
        else:
            result, setup_s, checks, clock = run_phase(wl, args.seconds, setup_budget,
                                                       os.path.join(work, "plain"))
            values = end_to_end(result, setup_s, checks)
            spec_metrics = spec["end_to_end"]
        named = dict(result.named, setup_s=statistics.median(setup_s), peak_rss_mb=peak_rss_mb(),
                     ops_failed_share=checks.failed / checks.attempted)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it

    env = stamp()
    print("# stamp " + json.dumps(env))
    print(f"# host factor {clock.factor():.4f} over {len(clock.ticks)} reference-kernel ticks"
          f" (median tick ÷ {NOMINAL_S} s); each measured span is divided by the factor of the"
          f" ticks within {clock.reach} s of it")
    print("# checks " + json.dumps({k: {"passed": p, "failed": f} for k, (p, f) in sorted(checks.counts.items())}))
    print(f"# named ({wl.unit}s: {result.units}; ops_failed_share base: {checks.attempted} checks) "
          + json.dumps({k: {"value": v, "unit": NAMED_UNITS[k]} for k, v in named.items()}))
    if args.trace:
        out_dir = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "units": result.units,
                            "unit": wl.unit, "stamp": env})
        print(f"# spans {os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans)")
        print("# untraced " + json.dumps(untraced) + " traced " + json.dumps(traced))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
