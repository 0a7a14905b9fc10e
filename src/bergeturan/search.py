"""Exhaustive, isomorphism-reduced search for connected Turan numbers.

The enumerator grows forbidden-family-free edge multisets level by level
(level = instance count).  Each level holds exactly one canonically
labeled representative per isomorphism class; children are generated by
adding every still-admissible instance to every representative and
deduplicating on canonical form.  Freeness of the forbidden family is
hereditary downward, so a violating child prunes its whole subtree.
Every parent expanded is therefore family-free, so a child violates
exactly when a forbidden configuration runs through its new instance;
``FamilySpec.child_violates`` tests only those, over one pair index per
parent, instead of running the full detector on every child.

Connectivity is NOT hereditary and is therefore only evaluated, never
used to prune directly; instead a reachability-potential prune discards
representatives whose union with all their admissible additions cannot
connect and span the vertex set (no superset of such a representative
can ever qualify, and every qualifying class keeps at least one live
generation chain, so nothing is lost).

Worker counts only split level expansion into chunks; results are merged
by canonical key, so value, witnesses and node counts are independent of
scheduling.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import comb
from typing import Callable

from .berge import (
    contains_berge_cycle,
    contains_berge_path,
    longest_berge_path,
    new_edge_detector,
)
from .hypergraph import (
    Hypergraph,
    all_vertex_subsets,
    canonical_form,
    from_canonical_string,
    hyperedge_neighborhood,
    is_connected,
    relabel,
)

FORBIDDEN_KINDS = ("bp", "bc_exact", "bc_at_least")


class SearchLimitError(ValueError):
    """Raised when a search exceeds its configured size limits."""


@dataclass(frozen=True)
class FamilySpec:
    """The forbidden family plus the multiplicity cap of the ground set."""

    kind: str  # "bp" | "bc_exact" | "bc_at_least"
    k: int
    multiplicity_cap: int = 1

    def __post_init__(self):
        if self.kind not in FORBIDDEN_KINDS:
            raise ValueError(f"unknown forbidden family kind {self.kind!r}")
        if self.kind == "bp" and self.k < 1:
            raise ValueError("Berge path length must be >= 1")
        if self.kind != "bp" and self.k < 2:
            raise ValueError("Berge cycle length must be >= 2")
        if self.multiplicity_cap < 1:
            raise ValueError("multiplicity cap must be >= 1")

    def violates(self, h: Hypergraph) -> bool:
        if self.kind == "bp":
            return contains_berge_path(h, self.k)
        if self.kind == "bc_exact":
            return contains_berge_cycle(h, self.k, "exact")
        return contains_berge_cycle(h, self.k, "at_least")

    def child_violates(self, parent: Hypergraph) -> Callable[[tuple[int, ...]], bool]:
        """A test ``e -> violates(parent.with_edge(e))`` for a ``parent``
        that does not violate.

        Exact only under that precondition, which every parent the level
        search expands meets: a witness in the child must then use the
        added instance, so the test walks only through it, over one pair
        index of ``parent`` shared by all its candidates.
        """
        mode = {"bp": None, "bc_exact": "exact", "bc_at_least": "at_least"}[self.kind]
        return new_edge_detector(parent, self.k, mode)

    def label(self) -> str:
        tag = {"bp": "BP", "bc_exact": "BC", "bc_at_least": "BC>="}[self.kind]
        return f"{tag}{self.k},m<={self.multiplicity_cap}"


def default_n_limit(r: int, multiplicity_cap: int = 1) -> int:
    """Desk-scale defaults; larger parameters require force=True."""
    base = {2: 12, 3: 9, 4: 8}.get(r)
    if base is None:
        base = max(n for n in range(r, 13) if comb(n, r) <= 130)
    while multiplicity_cap * comb(base, r) > 260 and base > r:
        base -= 1
    return base


# ----------------------------------------------------------------------
# Level-by-level isomorphism-reduced enumeration
# ----------------------------------------------------------------------

@dataclass
class _LevelResult:
    reps: list[Hypergraph]          # canonical representatives, sorted by key
    keys: list[bytes]
    connected: list[bool]
    tested: int


def _expand_chunk(
    parents: list[Hypergraph],
    n: int,
    r: int,
    spec: FamilySpec,
    candidates: list[tuple[int, ...]],
    level: int,
    deadline: float | None,
    node_budget: int | None,
    spent: int,
) -> tuple[int, dict[bytes, Hypergraph]]:
    """Expand ``parents``, all free of the forbidden family, by one
    instance each.  ``spent`` children were tested before this level;
    both budgets are checked before each parent, so a chunk stops at
    most one parent's candidates past the node budget."""
    tested = 0
    out: dict[bytes, Hypergraph] = {}
    for parent in parents:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchLimitError(
                f"time budget exceeded while expanding level {level}"
            )
        if node_budget is not None and spent + tested > node_budget:
            raise SearchLimitError(
                f"node budget {node_budget} exceeded while expanding level {level}"
            )
        counts: dict[tuple[int, ...], int] = {}
        for e in parent.edges:
            counts[e] = counts.get(e, 0) + 1
        violates_with = spec.child_violates(parent)
        feasible: list[Hypergraph] = []
        feasible_edges: list[tuple[int, ...]] = []
        for e in candidates:
            if counts.get(e, 0) >= spec.multiplicity_cap:
                continue
            # Built for every tested child, not only the feasible ones:
            # the traced benchmark counts tested children by these calls.
            child = parent.with_edge(e)
            tested += 1
            if violates_with(e):
                continue
            feasible.append(child)
            feasible_edges.append(e)
        if not feasible:
            continue
        closure = Hypergraph(n, r, parent.edges + tuple(sorted(set(feasible_edges))))
        if not is_connected(closure):
            # No superset of this representative can connect and span.
            continue
        for child in feasible:
            key, pi = canonical_form(child)
            if key not in out:
                out[key] = relabel(child, pi)
    return tested, out


def _run_levels(
    n: int,
    r: int,
    spec: FamilySpec,
    *,
    workers: int = 1,
    node_budget: int | None = None,
    time_budget: float | None = None,
    on_level=None,
    start: tuple[int, list[Hypergraph], int] | None = None,
) -> tuple[int, int]:
    """Drive the level BFS; calls on_level(level, _LevelResult).

    ``start`` = (level, representatives, tested_so_far) resumes a run
    whose earlier levels were already reported.  Both budgets are
    checked before each parent is expanded, so they hold inside a level;
    the node budget is checked again after each level, because a chunk
    run in a thread sees only its own count.
    Returns (total_tested, deepest_level_reached).
    """
    if n < 1:
        raise SearchLimitError("need n >= 1")
    candidates = list(itertools.combinations(range(n), r))
    deadline = None if time_budget is None else time.monotonic() + time_budget
    if start is None:
        root = Hypergraph(n, r, ())
        current = [root]
        level = 0
        total_tested = 0
        if on_level is not None:
            on_level(level, _LevelResult([root], [canonical_form(root)[0]],
                                         [is_connected(root)], 0))
    else:
        level, current, total_tested = start
    while current:
        if workers > 1 and len(current) > 1:
            size = (len(current) + workers - 1) // workers
            chunks = [current[i:i + size] for i in range(0, len(current), size)]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(
                        lambda ch: _expand_chunk(
                            ch, n, r, spec, candidates, level, deadline,
                            node_budget, total_tested),
                        chunks,
                    )
                )
        else:
            results = [
                _expand_chunk(current, n, r, spec, candidates, level, deadline,
                              node_budget, total_tested)
            ]
        merged: dict[bytes, Hypergraph] = {}
        for tested, out in results:
            total_tested += tested
            merged.update(out)
        if node_budget is not None and total_tested > node_budget:
            raise SearchLimitError(
                f"node budget {node_budget} exceeded while expanding level {level}"
            )
        if not merged:
            break
        level += 1
        keys = sorted(merged)
        reps = [merged[k] for k in keys]
        conn = [is_connected(h) for h in reps]
        if on_level is not None:
            on_level(level, _LevelResult(reps, keys, conn, total_tested))
        current = reps
    return total_tested, level


# ----------------------------------------------------------------------
# Exact connected Turan numbers
# ----------------------------------------------------------------------

@dataclass
class SearchOutcome:
    status: str                     # "value" | "infeasible"
    value: int | None
    witnesses: list[str]            # canonical byte strings (ascii)
    nodes_explored: int
    elapsed_ms: float
    extremal_class_count: int = 0
    n: int = 0
    r: int = 0
    family: str = ""

    def to_json_obj(self, stable: bool = False) -> dict:
        obj = {
            "status": self.status,
            "value": self.value,
            "witnesses": list(self.witnesses),
            "nodes_explored": self.nodes_explored,
            "extremal_class_count": self.extremal_class_count,
            "n": self.n,
            "r": self.r,
            "family": self.family,
        }
        if not stable:
            obj["elapsed_ms"] = round(self.elapsed_ms, 3)
        return obj

    def stable_json(self) -> str:
        """Byte-stable report: excludes wall-clock timing."""
        return json.dumps(self.to_json_obj(stable=True), sort_keys=True)


def _check_limits(n: int, r: int, spec: FamilySpec, force: bool) -> None:
    if n < r:
        raise SearchLimitError(f"need n >= r, got n={n}, r={r}")
    if not force and n > default_n_limit(r, spec.multiplicity_cap):
        raise SearchLimitError(
            f"n={n} exceeds the default search limit "
            f"{default_n_limit(r, spec.multiplicity_cap)} for r={r}, "
            f"m={spec.multiplicity_cap}; pass force=True to override"
        )
    if n > 12:
        raise SearchLimitError("exact canonicalization is limited to n <= 12")


CHECKPOINT_VERSION = 1


def _checkpoint_header(n: int, r: int, spec: FamilySpec) -> dict:
    return {"version": CHECKPOINT_VERSION, "n": n, "r": r,
            "family": spec.label()}


def _load_checkpoint(path: str, n: int, r: int, spec: FamilySpec) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        data = json.load(fh)
    header = {k: data.get(k) for k in ("version", "n", "r", "family")}
    if header != _checkpoint_header(n, r, spec):
        raise SearchLimitError(
            f"checkpoint {path} belongs to a different run: {header}"
        )
    return data


def exact_ex_conn(
    n: int,
    r: int,
    spec: FamilySpec,
    *,
    workers: int = 1,
    witness_cap: int = 10,
    node_budget: int | None = None,
    time_budget: float | None = None,
    force: bool = False,
    checkpoint_path: str | None = None,
) -> SearchOutcome:
    """Exact maximum instance count over connected, spanning, F-free
    candidates, with extremal witnesses (canonical forms), or an
    infeasibility certificate when no such hypergraph exists.

    With ``checkpoint_path`` the state after every completed level is
    written out (versioned header, current representatives, running
    best); an aborted run resumes from the file and yields the same
    outcome as an uninterrupted one.
    """
    _check_limits(n, r, spec, force)
    t0 = time.perf_counter()
    best: dict = {"level": None, "keys": []}
    start = None
    ck = None if checkpoint_path is None else _load_checkpoint(
        checkpoint_path, n, r, spec)
    if ck is not None:
        best["level"] = ck["best_level"]
        best["keys"] = [k.encode("ascii") for k in ck["best_keys"]]
        reps = [] if ck["complete"] else [
            from_canonical_string(s) for s in ck["reps"]]
        start = (ck["level"], reps, ck["tested"])

    def on_level(level: int, res: _LevelResult) -> None:
        conn_keys = [k for k, c in zip(res.keys, res.connected) if c]
        if conn_keys:
            best["level"] = level
            best["keys"] = conn_keys
        if checkpoint_path is not None:
            _save_checkpoint(checkpoint_path, n, r, spec, level, res, best,
                             complete=False)

    tested, last_level = _run_levels(
        n, r, spec, workers=workers, node_budget=node_budget,
        time_budget=time_budget, on_level=on_level, start=start,
    )
    if checkpoint_path is not None:
        _save_checkpoint(
            checkpoint_path, n, r, spec, last_level,
            _LevelResult([], [], [], tested), best, complete=True,
        )
    elapsed = (time.perf_counter() - t0) * 1000
    if best["level"] is None:
        return SearchOutcome("infeasible", None, [], tested, elapsed, 0,
                             n, r, spec.label())
    keys = best["keys"]
    witnesses = [k.decode("ascii") for k in keys[:witness_cap]]
    return SearchOutcome("value", best["level"], witnesses, tested, elapsed,
                         len(keys), n, r, spec.label())


def _save_checkpoint(path, n, r, spec, level, res: _LevelResult, best, complete):
    data = _checkpoint_header(n, r, spec)
    data.update(
        level=level,
        reps=[k.decode("ascii") for k in res.keys],
        tested=res.tested,
        best_level=best["level"],
        best_keys=[k.decode("ascii") for k in best["keys"]],
        complete=complete,
    )
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)


def enumerate_connected_free(
    n: int,
    r: int,
    spec: FamilySpec,
    *,
    workers: int = 1,
    force: bool = False,
) -> list[Hypergraph]:
    """All connected spanning F-free hypergraphs on exactly n vertices,
    one canonical representative per isomorphism class, every edge count."""
    _check_limits(n, r, spec, force)
    found: list[Hypergraph] = []

    def on_level(level: int, res: _LevelResult) -> None:
        found.extend(h for h, c in zip(res.reps, res.connected) if c)

    _run_levels(n, r, spec, workers=workers, on_level=on_level)
    return found


# ----------------------------------------------------------------------
# Sparse hyperedge-neighborhood sets (the structural lemma's conclusion)
# ----------------------------------------------------------------------

CASE_SMALL = "size_2r_minus_2"
CASE_LARGE = "size_ge_2r_minus_1"


@dataclass
class SparseSetReport:
    verdict: str                    # witness_found | precondition_violated | counterexample
    subset: tuple[int, ...] | None = None
    case: str | None = None
    neighborhood_size: int | None = None
    t: int = 0
    reason: str = ""
    exact_size_match: bool = False  # |S| == 2r-2 under the small case

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "subset": list(self.subset) if self.subset is not None else None,
            "case": self.case,
            "neighborhood_size": self.neighborhood_size,
            "t": self.t,
            "reason": self.reason,
        }


def _sparse_preconditions(h: Hypergraph, m: int) -> tuple[str, int]:
    """Empty string if the structural lemma's hypotheses hold; else reason.

    Hypotheses: connected, n > r, multiplicity <= m, longest Berge path
    length t at most r-1 (so a forbidden length k with t < k <= r
    exists), and no Berge cycle of length exactly t.
    """
    if not is_connected(h):
        return "hypergraph is not connected/spanning", 0
    if h.n <= h.r:
        return f"degenerate size n={h.n} <= r={h.r}", 0
    if h.max_multiplicity() > m:
        return f"multiplicity {h.max_multiplicity()} exceeds cap m={m}", 0
    t, _ = longest_berge_path(h)
    if t > h.r - 1:
        return f"longest Berge path length t={t} exceeds r-1={h.r - 1}", t
    if t >= 2 and contains_berge_cycle(h, t, "exact"):
        return f"contains a Berge cycle of length t={t}", t
    return "", t


def _satisfies(h: Hypergraph, m: int, t: int, subset: tuple[int, ...]) -> str | None:
    """Which case the subset satisfies, or None."""
    size = len(subset)
    ns = len(hyperedge_neighborhood(h, subset))
    if size >= 2 * h.r - 2 and ns <= m + 1:
        return CASE_SMALL
    if size >= 2 * h.r - 1 and ns <= t:
        return CASE_LARGE
    return None


SPARSE_SCAN_N_LIMIT = 16


def sparse_set_check(h: Hypergraph, m: int = 1) -> SparseSetReport:
    """Exhaustive search for a vertex set S with a small hyperedge
    neighborhood: |S| >= 2r-2 with |N(S)| <= m+1, or |S| >= 2r-1 with
    |N(S)| <= t (t = longest Berge path length).

    Preconditions are verified, never assumed; instances violating them
    get verdict precondition_violated.  A precondition-satisfying
    instance without any such S is a counterexample to the lemma.
    """
    if h.n > SPARSE_SCAN_N_LIMIT:
        raise SearchLimitError(
            f"exhaustive subset scan limited to n <= {SPARSE_SCAN_N_LIMIT}; "
            "use the constructive variant for larger inputs"
        )
    reason, t = _sparse_preconditions(h, m)
    if reason:
        return SparseSetReport("precondition_violated", t=t, reason=reason)
    best_small = None
    best_large = None
    for subset in all_vertex_subsets(h.n, min_size=2 * h.r - 2):
        ns = len(hyperedge_neighborhood(h, subset))
        if ns <= m + 1 and best_small is None:
            best_small = (subset, ns)
        if len(subset) >= 2 * h.r - 1 and ns <= t and best_large is None:
            best_large = (subset, ns)
        if best_small is not None:
            break
    if best_small is not None:
        subset, ns = best_small
        return SparseSetReport(
            "witness_found", subset, CASE_SMALL, ns, t,
            exact_size_match=(len(subset) == 2 * h.r - 2),
        )
    if best_large is not None:
        subset, ns = best_large
        return SparseSetReport("witness_found", subset, CASE_LARGE, ns, t)
    return SparseSetReport("counterexample", t=t,
                           reason="no qualifying subset exists")


def sparse_set_constructive(h: Hypergraph, m: int = 1) -> SparseSetReport:
    """Construct the sparse set by following the structural argument:
    fix a longest Berge path, locate the runs of repeated edge sets at
    both ends, and either take the two end edges minus their anchor
    vertices, or grow the union recursively through the defining
    vertices that the end edges revisit.

    The returned set is re-verified against the same predicate as
    sparse_set_check; a construction that fails it yields verdict
    counterexample (it would falsify the argument, not the checker).
    """
    reason, t = _sparse_preconditions(h, m)
    if reason:
        return SparseSetReport("precondition_violated", t=t, reason=reason)
    _, witness = longest_berge_path(h)
    assert witness is not None and t >= 2
    w = witness.vertices                      # w_0 .. w_t
    g = witness.edge_instances                # g_1 .. g_t (0-indexed)
    esets = [set(h.edges[i]) for i in g]
    interior = list(w[1:t])                   # v_1 .. v_{t-1}
    u_set = set(interior)

    d1 = 1
    while d1 < t and esets[d1] == esets[0]:
        d1 += 1
    d2 = 1
    while d2 < t and esets[t - 1 - d2] == esets[t - 1]:
        d2 += 1

    def v(idx: int) -> int:
        # 1-based defining vertex v_idx = w[idx]
        return w[idx]

    e1_u = esets[0] & u_set
    et_u = esets[t - 1] & u_set
    lead_block = {v(i) for i in range(1, d1 + 1) if i <= t - 1}
    tail_block = {v(i) for i in range(t - d2, t) if i >= 1}

    if e1_u == lead_block and et_u == tail_block:
        subset = _end_edges_set(h, w, g, esets, t, d1, d2)
    else:
        subset = _recursive_set(h, w, g, esets, t)

    case = _satisfies(h, m, t, subset)
    ns = len(hyperedge_neighborhood(h, subset))
    if case is None:
        return SparseSetReport(
            "counterexample", subset, None, ns, t,
            reason="constructive set violates the neighborhood bound",
        )
    return SparseSetReport(
        "witness_found", subset, case, ns, t,
        exact_size_match=(case == CASE_SMALL and len(subset) == 2 * h.r - 2),
    )


def _end_edges_set(h, w, g, esets, t, d1, d2) -> tuple[int, ...]:
    """Both end edges minus their anchor defining vertices; if an end
    vertex reaches into the middle of the path, the defining vertex just
    before (after) the touched edge joins the set."""
    anchor1 = w[d1]
    anchor2 = w[t - d2]
    w1_side = esets[0] - {anchor1}
    w2_side = esets[t - 1] - {anchor2}
    middle = range(d1 + 1, t - d2 + 1)        # 1-based edge indices
    extra: set[int] = set()
    for j in middle:
        if esets[j - 1] & w1_side:
            extra.add(w[j - 1])
            break
    for j in middle:
        if esets[j - 1] & w2_side:
            extra.add(w[j])
            break
    return tuple(sorted(w1_side | w2_side | extra))


def _recursive_set(h, w, g, esets, t) -> tuple[int, ...]:
    """Grow A from (e_1 union e_t) minus the defining vertices, walking
    the defining vertices met by e_1 and then by e_t; whenever the next
    edge's outside part was already absorbed, the defining vertex before
    it joins the set instead."""
    u_set = set(w[1:t])
    a = (esets[0] | esets[t - 1]) - u_set
    i_list = [i for i in range(2, t) if w[i] in esets[0]]        # skip i_0 = 1
    j_list = [q + 1 for q in range(1, t) if w[q] in esets[t - 1]]
    for i in i_list:
        outside = esets[i - 1] - u_set
        if outside & a:
            a = a | outside | {w[i - 1]}
        else:
            a = a | outside
    for j in j_list:
        outside = esets[j - 1] - u_set
        if outside & a:
            a = a | outside | {w[j - 1]}
        else:
            a = a | outside
    return tuple(sorted(a))


# ----------------------------------------------------------------------
# Conjecture comparator
# ----------------------------------------------------------------------

@dataclass
class ConjectureReport:
    n: int
    r: int
    k: int
    conjectured: int
    construction_count: int
    outcome: SearchOutcome
    status: str = field(init=False)

    def __post_init__(self):
        if self.outcome.status != "value":
            self.status = "infeasible"
        elif self.outcome.value == self.conjectured:
            self.status = "match"
        elif self.outcome.value > self.conjectured:
            self.status = "exact_exceeds"
        else:
            self.status = "exact_below"

    def to_json_obj(self, stable: bool = False) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "conjectured": self.conjectured,
            "construction_count": self.construction_count,
            "status": self.status,
            "search": self.outcome.to_json_obj(stable=stable),
        }


def conjecture_check(
    n: int, r: int, k: int, *, workers: int = 1, force: bool = False
) -> ConjectureReport:
    """Compare the exact search value against the conjectured closed form
    n - (k-2) + C(k-2, r) for r+1 <= k <= 2r-1, and against the witnessing
    construction's edge count."""
    if not (r + 1 <= k <= 2 * r - 1):
        raise ValueError(f"conjectured range is r+1 <= k <= 2r-1, got k={k}, r={r}")
    from .constructions import clique_pendant_family

    conjectured = n - (k - 2) + comb(k - 2, r)
    fam = clique_pendant_family(n, r, k)
    outcome = exact_ex_conn(n, r, FamilySpec("bp", k), workers=workers, force=force)
    return ConjectureReport(n, r, k, conjectured, fam.num_edges(), outcome)
