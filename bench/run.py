"""Benchmark for bergeturan: one workload per call, answers checked
against bench/golden.json, metrics printed as the last line of stdout.

    python3 bench/run.py --workload search-detect --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --selftest

Run it from anywhere; it benchmarks the library in ``src/`` next to
``bench/``.  The workload runs in a fresh interpreter (bench/worker.py),
so ``setup_s`` and ``peak_rss_mb`` belong to that workload alone.

--trace 0 prints the end-to-end metrics: ``wall_s`` (the time of one
pass over the case list, summed from each case's mean run time),
``setup_s`` (median time for a fresh interpreter to import the library
and build the inputs, sampled before and after the measurement) and
``peak_rss_mb``.  ``wall_s`` is scaled by the host-speed reference
(bench/reference.py); the measured times are in the run record.  --trace 1 runs the case list untraced and traced and
prints the per-layer metrics.  A line starting with ``record`` before
the result holds the run record: machine facts, load average, commit,
seed, run times and ``error_ratio`` (failed over attempted case runs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Set-up samples taken before and, as many again, after the measurement.
SETUP_RUNS = 5
# A worker gets this long beyond its measuring time before it is killed.
WORKER_GRACE_S = 120

PER_LAYER_UNITS = {
    "berge.calls": "count",
    "berge.busy_s": "s",
    "berge.us_per_call": "us",
    "berge.found_ratio": "ratio",
    "hypergraph.canon_calls": "count",
    "hypergraph.canon_busy_s": "s",
    "hypergraph.canon_us_per_call": "us",
    "hypergraph.connect_calls": "count",
    "hypergraph.connect_busy_s": "s",
    "hypergraph.edit_busy_s": "s",
    "search.nodes_explored": "count",
    "search.classes": "count",
    "search.dedup_ratio": "ratio",
    "search.self_s": "s",
    "search.sparse_busy_s": "s",
    "constructions.members": "count",
    "constructions.build_busy_s": "s",
    "constructions.verify_self_s": "s",
    "constructions.refuted": "count",
    "formulas.calls": "count",
    "formulas.busy_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker(args: list[str], timeout: float) -> tuple[int, str, str]:
    """Run bench/worker.py on the checkout's own source tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {args} did not finish within {timeout} s") from e
    return proc.returncode, proc.stdout, proc.stderr


def worker_report(args: list[str], timeout: float) -> dict:
    code, out, err = worker(args, timeout)
    if code != 0:
        raise BenchError(f"worker {args} exited with {code}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def setup_times(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import the library and build
    the workload's inputs, then exit."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        code, _, err = worker(["--workload", workload, "--seed", str(seed),
                               "--setup-only"], 60)
        times.append(perf_counter() - t0)
        if code != 0:
            raise BenchError(f"set-up failed with {code}:\n{err}")
    return times
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "cpu": cpu_model(), "commit": git_commit(),
        "loadavg_before": os.getloadavg(),
    }
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        report = worker_report(args + ["--trace"], seconds + WORKER_GRACE_S)
        traced = report["traced"]
        metrics = {name: metric(value, PER_LAYER_UNITS[name])
                   for name, value in traced["metrics"].items()}
        record.update(traced_wall_s=traced["wall_s"],
                      untraced_wall_s=traced["untraced_wall_s"],
                      traced_scaled_wall_s=traced["scaled_wall_s"],
                      untraced_scaled_wall_s=traced["untraced_scaled_wall_s"],
                      spans=traced["spans"], trace_file=traced["trace_file"])
    else:
        setup = setup_times(workload, seed)
        report = worker_report(args, seconds + WORKER_GRACE_S)
        setup += setup_times(workload, seed)
        scaled = report["scaled_case_times"]
        metrics = {
            "wall_s": metric(sum(statistics.fmean(t) for t in scaled.values()), "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        }
        record.update(setup_runs_s=setup,
                      case_times_s=report["case_times"], scaled_case_times_s=scaled,
                      reference_s=report["reference_s"],
                      measured_wall_s=sum(statistics.fmean(t) for t in
                                          report["case_times"].values()))
    record["loadavg_after"] = os.getloadavg()
    record["error_ratio"] = report["failed"] / report["attempted"]
    record["errors"] = report["errors"]
    print("record " + json.dumps(record))
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def selftest() -> bool:
    """Quick cases must pass, a perturbed golden value must be caught,
    and both modes must print exactly the metrics BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True

    def expect(name: str, cond: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and cond
        print(f"selftest {name}: {'PASS' if cond else 'FAIL'} {detail}".rstrip())

    base = ["--workload", "quick", "--seed", "1", "--seconds", "2"]
    plain = worker_report(base, 60)
    expect("quick cases match golden", plain["failed"] == 0 and plain["attempted"] > 0,
           f"({plain['failed']}/{plain['attempted']} failed) {plain['errors'][:1]}")
    bad = worker_report(base + ["--perturb-golden"], 60)
    expect("perturbed golden value is caught", bad["failed"] > 0,
           f"(error_ratio {bad['failed'] / bad['attempted']:.3f})")
    traced = worker_report(base + ["--trace"], 60)
    expect("traced quick cases match golden and the trace", traced["failed"] == 0,
           f"{traced['errors'][:1]}")
    layer_names = {m["name"] for m in spec["per_layer"]}
    expect("per-layer metrics match BENCHMARK.json",
           set(traced["traced"]["metrics"]) == layer_names == set(PER_LAYER_UNITS))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect("per-layer units match BENCHMARK.json", units == PER_LAYER_UNITS)
    expect("end-to-end metrics match BENCHMARK.json",
           {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"})
    expect("BENCHMARK.json workloads are known",
           {w["name"] for w in spec["workloads"]} <= set(WORKLOADS))
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="permutes the case order; the cases do not depend on it")
    p.add_argument("--seconds", type=float, default=40,
                   help="measuring time: no case starts that would end past it, "
                        "but one full pass over the cases always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bergeturan", "__init__.py")):
        print(f"no bergeturan source tree at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return 0 if selftest() else 1
        if args.workload is None:
            p.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
