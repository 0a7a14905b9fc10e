"""One workload in one fresh interpreter.

Started by bench/run.py with PYTHONPATH pointing at the checkout's
``src``.  Builds the workload's cases and runs them round-robin in a
closed loop (each case starts when the previous one has returned) until
the time budget is spent, always completing at least one pass over the
case list.  Every answer is checked against bench/golden.json.  Prints
one JSON report line with every case's run times, measured and scaled
by the host-speed reference (bench/reference.py).

With --trace the worker runs the case list untraced, traced (span
recorder installed) and, if the budget allows, untraced again, and
reports per-layer metrics from the traced pass.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import reference
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")


def load_golden(workload: str, perturb: bool) -> dict:
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    if perturb:
        # Self-test: change one pinned integer so that every run of the
        # workload's first case must be reported as a mismatch.
        first = min(golden["workloads"][workload])
        answer = golden["answers"][first]
        for key in sorted(answer):
            if isinstance(answer[key], int) and not isinstance(answer[key], bool):
                answer[key] += 1
                break
    return golden


class Checker:
    """Counts attempted and failed case runs; keeps the first messages."""

    def __init__(self, golden: dict):
        self.answers = golden["answers"]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, case: workloads.Case, raw, exc: BaseException | None) -> None:
        self.attempted += 1
        if exc is not None:
            self.fail(f"{case.id}: raised {exc!r}")
            return
        got = json.loads(json.dumps(workloads.answer(case, raw)))
        problems = workloads.fact_errors(case, raw)
        if got != self.answers.get(case.id):
            problems.append(f"answer {got} differs from golden "
                            f"{self.answers.get(case.id)}")
        if problems:
            self.fail(f"{case.id}: " + "; ".join(problems))


def timed_case(case, checker: Checker):
    """Run one case; returns (seconds, raw result).  Only the library
    calls are timed, not the answer check."""
    raw = exc = None
    t0 = reference.clock()
    try:
        raw = workloads.run_case(case)
    except Exception as e:  # counted as a failed case, never skipped
        exc = e
    seconds = reference.clock() - t0
    checker.check(case, raw, exc)
    return seconds, raw


def run_pass(cases, checker: Checker, tracer: spans.Tracer | None = None):
    """Run every case once; returns (wall seconds, scaled wall seconds,
    {case id: raw result})."""
    wall = 0.0
    results = {}
    pacer = reference.Pacer()
    for case in cases:
        if tracer is not None:
            tracer.case = case.id
        seconds, results[case.id] = timed_case(case, checker)
        wall += seconds
        pacer.add(case.id, seconds)
    pacer.flush()
    return wall, sum(map(sum, pacer.scaled.values())), results


def round_robin(cases, checker: Checker, budget: float):
    """Cycle through the cases until the next one would end past the
    budget (one full pass at least); returns every run time per case and
    the pacer holding the scaled times."""
    times: dict[str, list[float]] = {case.id: [] for case in cases}
    pacer = reference.Pacer()
    start = perf_counter()
    for i in itertools.count():
        case = cases[i % len(cases)]
        last = times[case.id]
        if i >= len(cases) and perf_counter() - start + last[-1] > budget:
            break
        seconds = timed_case(case, checker)[0]
        last.append(seconds)
        pacer.add(case.id, seconds)
    pacer.flush()
    return times, pacer


def traced_run(cases, checker: Checker, budget: float, trace_out: str) -> dict:
    """Untraced pass, traced pass, and a second untraced pass if it fits
    the budget; the overhead compares the traced pass's scaled time with
    the mean scaled time of the untraced passes around it."""
    start = perf_counter()
    untraced = [run_pass(cases, checker)[:2]]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wall, scaled, results = run_pass(cases, checker, tracer)
    finally:
        tracer.uninstall()
    if perf_counter() - start + untraced[0][0] <= budget:
        untraced.append(run_pass(cases, checker)[:2])
    stats = spans.SpanStats(tracer.spans)
    for case in cases:
        raw = results[case.id]
        if case.kind == "exact" and raw is not None:
            seen = stats.calls_by_case["hypergraph.with_edge", case.id]
            if seen != raw.nodes_explored:
                checker.fail(f"{case.id}: trace saw {seen} tested children, "
                             f"search reports {raw.nodes_explored}")
    refuted = sum(1 for case in cases if case.kind == "family"
                  and results[case.id] is not None and results[case.id][0].failures)
    metrics = spans.layer_metrics(stats, refuted)
    metrics["trace.overhead_ratio"] = scaled / statistics.mean(s for _, s in untraced) - 1
    tracer.write(trace_out)
    return {"wall_s": wall, "untraced_wall_s": [w for w, _ in untraced],
            "scaled_wall_s": scaled, "untraced_scaled_wall_s": [s for _, s in untraced],
            "spans": len(tracer.spans),
            "metrics": metrics, "trace_file": os.path.relpath(trace_out, ROOT)}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("quick",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true",
                   help="import the library, build the inputs and exit")
    p.add_argument("--perturb-golden", action="store_true")
    args = p.parse_args(argv)

    import bergeturan

    expected_src = os.path.join(ROOT, "src", "bergeturan")
    if os.path.dirname(os.path.abspath(bergeturan.__file__)) != expected_src:
        print(f"bergeturan imported from {bergeturan.__file__}, "
              f"not from {expected_src}", file=sys.stderr)
        return 2
    cases = workloads.build_cases(args.workload, args.seed)
    if args.setup_only:
        return 0

    golden = load_golden(args.workload, args.perturb_golden)
    checker = Checker(golden)
    expected = set(golden["workloads"][args.workload])
    for missing in sorted(expected - {c.id for c in cases}):
        checker.attempted += 1
        checker.fail(f"{missing}: pinned case was not built")

    report = {"case_times": {}, "traced": None}
    reference.start()
    if args.trace:
        trace_out = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}.csv")
        report["traced"] = traced_run(cases, checker, args.seconds, trace_out)
    else:
        report["case_times"], pacer = round_robin(cases, checker, args.seconds)
        report["scaled_case_times"] = pacer.scaled
    reference.stop()
    report["reference_s"] = reference.samples
    report.update(peak_rss_mb=peak_rss_mb(), attempted=checker.attempted,
                  failed=checker.failed, errors=checker.errors)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
