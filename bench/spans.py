"""In-memory span recorder for the traced benchmark run.

The library is not instrumented.  Instead the benchmark wraps, in the
traced run only, the names that ``bergeturan.search`` and
``bergeturan.constructions`` import from the lower layers, plus the
public entry points the benchmark itself calls through the ``bergeturan``
package.  Every wrapped call becomes one span: (id, name, start, end,
parent id, case id, found), where ``found`` is 1 for a Berge decision
call that found its path or cycle and 0 otherwise.  Spans are kept in
memory and written out once, after the timed work.  Span times come
from ``reference.clock``, so the host-speed samples taken inside a span
are left out of it.

Span names are ``<layer>.<operation>``; the layer is a package module.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import os
from collections import defaultdict

from reference import clock

# Wrapped module-level names: (module, attribute, span name).  The first
# are the entry points as the benchmark calls them; the rest are the
# lower-layer functions as seen by the modules that call them, so the
# wrappers see exactly the calls the search and the verifier make.
MODULE_HOOKS = (
    ("bergeturan", "exact_ex_conn", "search.exact"),
    ("bergeturan", "enumerate_connected_free", "search.population"),
    ("bergeturan", "make_family", "constructions.build"),
    ("bergeturan", "verify_family_output", "constructions.verify"),
    ("bergeturan", "sparse_set_constructive", "search.sparse"),
    ("bergeturan", "conn_bp_value", "formulas.value"),
    ("bergeturan.search", "contains_berge_path", "berge.path"),
    ("bergeturan.search", "contains_berge_cycle", "berge.cycle"),
    ("bergeturan.search", "longest_berge_path", "berge.longest"),
    ("bergeturan.search", "canonical_form", "hypergraph.canon"),
    ("bergeturan.search", "is_connected", "hypergraph.connect"),
    ("bergeturan.search", "relabel", "hypergraph.relabel"),
    ("bergeturan.constructions", "contains_berge_path", "berge.path"),
    ("bergeturan.constructions", "is_connected", "hypergraph.connect"),
)


class Tracer:
    """Records spans; parents come from the stack of open spans."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, str, int]] = []
        self.case = ""
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, *, decision: bool = False):
        """A function that calls ``fn`` inside a span called ``name``.

        ``decision`` marks calls whose boolean result says whether a path
        or cycle exists.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                found = int(decision and bool(result))
                spans.append((sid, name, t0, t1, parent, self.case, found))
            return result

        return traced

    def install(self) -> None:
        """Wrap the entry points and the lower-layer names the search and
        the verifier call."""
        from bergeturan.hypergraph import Hypergraph

        for module_name, attr, span in MODULE_HOOKS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, span)
        self._patch(Hypergraph, "with_edge", "hypergraph.with_edge")

    def _patch(self, owner, attr: str, span: str) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        decision = span in ("berge.path", "berge.cycle")
        setattr(owner, attr, self.wrap(span, original, decision=decision))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "case", "found"))
            out.writerows(self.spans)


class SpanStats:
    """Per-name counts, busy time and self time over a list of spans.

    Busy time sums each span's duration.  Self time is a span's duration
    minus the durations of its child spans.
    """

    def __init__(self, spans):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.found: dict[str, int] = defaultdict(int)
        self.calls_by_case: dict[tuple[str, str], int] = defaultdict(int)
        child_time: dict[int, float] = defaultdict(float)
        for _, name, t0, t1, parent, case, found in spans:
            self.calls[name] += 1
            self.found[name] += found
            self.busy[name] += t1 - t0
            self.calls_by_case[name, case] += 1
            child_time[parent] += t1 - t0
        for sid, name, t0, t1, *_ in spans:
            self.self_time[name] += (t1 - t0) - child_time[sid]

    def layer_calls(self, layer: str) -> int:
        return sum(c for name, c in self.calls.items() if name.startswith(layer + "."))

    def layer_busy(self, layer: str) -> float:
        return sum((b for name, b in self.busy.items() if name.startswith(layer + ".")),
                   0.0)

    def layer_self(self, layer: str) -> float:
        return sum((s for name, s in self.self_time.items()
                    if name.startswith(layer + ".")), 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: SpanStats, refuted: int) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass.

    Only the search calls ``with_edge`` (once per tested child) and
    ``relabel`` (once per new class), so their counts are the search's
    node and class counts.
    """
    berge_calls = stats.layer_calls("berge")
    berge_busy = stats.layer_busy("berge")
    decisions = stats.calls["berge.path"] + stats.calls["berge.cycle"]
    canon_calls = stats.calls["hypergraph.canon"]
    canon_busy = stats.busy["hypergraph.canon"]
    classes = stats.calls["hypergraph.relabel"]
    return {
        "berge.calls": berge_calls,
        "berge.busy_s": berge_busy,
        "berge.us_per_call": _ratio(berge_busy * 1e6, berge_calls),
        "berge.found_ratio": _ratio(
            stats.found["berge.path"] + stats.found["berge.cycle"], decisions),
        "hypergraph.canon_calls": canon_calls,
        "hypergraph.canon_busy_s": canon_busy,
        "hypergraph.canon_us_per_call": _ratio(canon_busy * 1e6, canon_calls),
        "hypergraph.connect_calls": stats.calls["hypergraph.connect"],
        "hypergraph.connect_busy_s": stats.busy["hypergraph.connect"],
        "hypergraph.edit_busy_s": (stats.busy["hypergraph.with_edge"]
                                   + stats.busy["hypergraph.relabel"]),
        "search.nodes_explored": stats.calls["hypergraph.with_edge"],
        "search.classes": classes,
        "search.dedup_ratio": _ratio(classes, canon_calls),
        "search.self_s": stats.layer_self("search"),
        "search.sparse_busy_s": stats.busy["search.sparse"],
        "constructions.members": stats.calls["constructions.build"],
        "constructions.build_busy_s": stats.busy["constructions.build"],
        "constructions.verify_self_s": stats.self_time["constructions.verify"],
        "constructions.refuted": refuted,
        "formulas.calls": stats.layer_calls("formulas"),
        "formulas.busy_s": stats.layer_busy("formulas"),
    }
