"""The benchmark's self-test, run inside the suite.

The traced benchmark wraps the names that ``bergeturan.search`` and
``bergeturan.constructions`` import from the lower layers (the Berge
queries, ``canonical_form``, ``is_connected``, ``relabel``) and
``Hypergraph.with_edge``, and its quick cases are checked against
``bench/golden.json``.  A dropped name or a changed answer fails here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--selftest"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
