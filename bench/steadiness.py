"""Run every workload with several seeds, twice over, and record how
steady the end-to-end metrics are and whether the two sets agree, plus
one traced run per workload.

    python3 bench/steadiness.py --runs 10

Each set runs seeds 1 to ``--runs``, all workloads of BENCHMARK.json for
one seed before the next, so a slow spell of the machine is shared
between workloads instead of landing on one.  For each metric and set the
file records every value, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles over the median.  For each metric it also records
how far the second set's median is from the first's, as a share of the
first, next to the metric's bound.  The traced runs check the workload
split the benchmark was built on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Sets of runs compared with each other, as a regression check compares
# the parent's runs with a change's.
SETS = 2


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run of bench/run.py; returns (run record, result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=seconds + 300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2].removeprefix("record ")), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def split_checks(traced: dict) -> dict:
    """The workload split the benchmark relies on, from the traced runs."""
    checks = {}

    def share(workload, metric):
        run = traced.get(workload)
        if run is None:
            return None
        return run["metrics"][metric]["value"] / run["traced_wall_s"]

    detect = share("search-detect", "berge.busy_s")
    if detect is not None:
        checks["search-detect berge.busy_s share of traced wall > 0.5"] = [detect, detect > 0.5]
    canon = share("search-canon", "hypergraph.canon_busy_s")
    if canon is not None:
        checks["search-canon canon_busy_s share of traced wall > 0.75"] = [canon, canon > 0.75]
    if "families" in traced:
        m = traced["families"]["metrics"]
        zero = m["hypergraph.canon_calls"]["value"] + m["search.nodes_explored"]["value"]
        checks["families canon_calls + nodes_explored == 0"] = [zero, zero == 0]
    return checks


def run_set(workloads: list[str], runs: int, seconds: int, incorrect: list) -> dict:
    """One untraced run per workload and seed; returns the summaries."""
    started = time.time()
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in range(1, runs + 1):
        for workload in workloads:
            record, result = bench_run(workload, seed, seconds, 0)
            if not result["correct"]:
                incorrect.append([workload, seed, record["errors"][:3]])
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            # The unscaled time, to show what the host-speed scaling removes.
            values[workload].setdefault("measured_wall_s", []).append(
                record["measured_wall_s"])
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()}, flush=True)
    return {"elapsed_s": time.time() - started,
            "end_to_end": {w: {name: summary(v) for name, v in metrics.items()}
                           for w, metrics in values.items()}}


def agreement(first: dict, second: dict, bounds: dict) -> dict:
    """How far each median of the second set is from the first's.  Every
    end-to-end metric is better lower, so only an increase counts
    against the bound."""
    out = {}
    for workload, metrics in first.items():
        out[workload] = {}
        for name in bounds:
            m1, m2 = metrics[name]["median"], second[workload][name]["median"]
            change = (m2 - m1) / m1
            out[workload][name] = {"median_1": m1, "median_2": m2, "change": change,
                                   "bound": bounds[name], "within": change <= bounds[name]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10, help="seeds per set")
    p.add_argument("--out", default=os.path.join(BENCH_DIR, "steadiness.json"))
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    incorrect: list = []
    sets = [run_set(workloads, args.runs, seconds, incorrect) for _ in range(SETS)]
    traced = {}
    for workload in workloads:
        rec, result = bench_run(workload, 1, seconds, 1)
        if not result["correct"]:
            incorrect.append([workload, "traced", rec["errors"][:3]])
        traced[workload] = {"traced_wall_s": rec["traced_wall_s"],
                            "untraced_wall_s": rec["untraced_wall_s"],
                            "metrics": result["metrics"]}

    report = {
        "machine": {k: rec[k] for k in ("nproc", "python", "cpu", "commit")},
        "run_seconds": seconds,
        "seeds": [1, args.runs],
        "incorrect_runs": incorrect,
        "sets": sets,
        "agreement": agreement(sets[0]["end_to_end"], sets[1]["end_to_end"], bounds),
        "traced": traced,
        "split_checks": split_checks(traced),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for i, one in enumerate(sets, 1):
        for workload, metrics in one["end_to_end"].items():
            for name, s in metrics.items():
                print(f"set {i} {workload:14} {name:15} median {s['median']:.4f} "
                      f"spread {s['spread']:.3f} (bound {bounds.get(name, '-')})")
    for workload, metrics in report["agreement"].items():
        for name, a in metrics.items():
            print(f"second set vs first {workload:14} {name:12} change {a['change']:+.3f} "
                  f"{'ok' if a['within'] else 'ABOVE BOUND'}")
    for check, (value, ok) in report["split_checks"].items():
        print(f"{check}: {value:.3f} {'ok' if ok else 'NOT MET'}")
    print("incorrect runs:", incorrect or "none")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
