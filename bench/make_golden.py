"""Regenerate bench/golden.json from the library as it is now.

    PYTHONPATH=src python3 bench/make_golden.py

The golden file pins the answers of the commit that defined the
benchmark.  Answers must stay byte-identical, so regenerate it only in a
change that alters answers on purpose and says so.  Generation refuses
to pin an answer that fails a fact check (OEIS A001349 counts, refuted
recipes), so a wrong answer cannot become the reference.
"""

from __future__ import annotations

import json
import os
import sys

import workloads

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def main() -> int:
    ids = {w: sorted(c.id for c in workloads.build_cases(w, 0))
           for w in workloads.WORKLOADS + ("quick",)}
    quick_families = {i for i in ids["quick"] if i.startswith("family/")}
    if not quick_families <= set(ids["families"]):
        print("quick family members must be members of the families grid",
              file=sys.stderr)
        return 1
    answers = {}
    for workload in ids:
        for case in workloads.build_cases(workload, 0):
            if case.id in answers:
                continue
            raw = workloads.run_case(case)
            errors = workloads.fact_errors(case, raw)
            if errors:
                print(f"{case.id}: {'; '.join(errors)}", file=sys.stderr)
                return 1
            answers[case.id] = workloads.answer(case, raw)
            print(case.id, file=sys.stderr)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"workloads": ids, "answers": answers}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
