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
parent, instead of running the full detector on every child.  Such a
configuration starts at a vertex pair of the new edge and continues in
the parent alone, so the answer for a pair is the same for every
candidate edge containing it: each parent needs at most one walk per
vertex pair, C(n, 2) in all, and a candidate's test ORs its pairs.

Symmetry has one source: the generators that ``canonical_form`` finds,
together with the swaps of twins (vertices with equal incidence lists),
which generate the whole automorphism group.  Automorphisms pass between
levels in both directions (McKay, "Isomorph-free exhaustive generation",
1998).  Each representative carries the generators known from its own
canonicalization, conjugated into its canonical labeling.  As a parent,
its candidate edges with the same sorted tuple of twin ids form one
orbit of the twin swaps, and its generators merge those into the orbits
of its automorphism group, whose children are isomorphic.  Only the
first child of each orbit is tested and canonicalized; the others share
its verdict and its key.  That child's canonical search starts from the
parent's generators that map the new edge onto itself, which prune its
search tree from the root, and the child carries them on with the ones
it finds.  Representatives resumed from a checkpoint get their
generators from one canonicalization each, so a resumed level has the
same orbits as in a fresh run.  Every candidate is still built and
counted as tested, and every feasible one joins the reachability closure
below.

Before that child is canonicalized it must pass McKay's cheap deletion
test: no edge of the child may have a strictly larger invariant than the
new edge, an edge's invariant being its vertices' degrees in descending
order, then its multiplicity.  A child that fails is skipped.  Its class
is still found if the level holds every free class and expands all of
them: deleting an edge m of largest invariant leaves a free graph
isomorphic to a representative of the level, whose first child on the
orbit of m's image is isomorphic to the skipped child and passes.  The
next level then holds every free class too.  So a level first expands
every parent and applies the prune below, then canonicalizes the kept
parents' first children, testing them only while no parent has been
pruned since the root of a fresh run; a run resumed from a checkpoint
never tests.  Levels, keys and counts are those of the search without
the test.

Connectivity is NOT hereditary and is therefore only evaluated, never
used to prune directly; instead a reachability-potential prune discards
representatives whose union with all their admissible additions cannot
connect and span the vertex set (no superset of such a representative
can ever qualify, and every qualifying class keeps at least one live
generation chain, so nothing is lost).

Levels are expanded one parent at a time in the calling thread, in the
order of their canonical keys, so value, witnesses and node counts are
deterministic.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from math import comb
from typing import Callable, Iterator

from .berge import (
    BergeWitness,
    contains_berge_cycle,
    contains_berge_path,
    longest_berge_path,
    new_edge_detector,
)
from .constructions import clique_pendant_family
from .formulas import _clique_pendant_count
from .hypergraph import (
    CANONICAL_N_LIMIT,
    Hypergraph,
    all_vertex_subsets,
    canonical_form,
    from_canonical_string,
    hyperedge_neighborhood,
    is_connected,
    relabel,
    twin_classes,
)

# Each forbidden family kind and the detector's cycle mode (None: a path).
_CYCLE_MODES = {"bp": None, "bc_exact": "exact", "bc_at_least": "at_least"}
FORBIDDEN_KINDS = tuple(_CYCLE_MODES)


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
        mode = _CYCLE_MODES[self.kind]
        if mode is None:
            return contains_berge_path(h, self.k)
        return contains_berge_cycle(h, self.k, mode)

    def child_violates(self, parent: Hypergraph) -> Callable[[tuple[int, ...]], bool]:
        """A test ``e -> violates(parent.with_edge(e))`` for a ``parent``
        that does not violate.

        Exact only under that precondition, which every parent the level
        search expands meets: a witness in the child must then use the
        added instance, so the test walks only through it, over one pair
        index of ``parent`` shared by all its candidates, and at most once
        per vertex pair of the new edge.
        """
        return new_edge_detector(parent, self.k, _CYCLE_MODES[self.kind])

    def label(self) -> str:
        tag = {"bp": "BP", "bc_exact": "BC", "bc_at_least": "BC>="}[self.kind]
        return f"{tag}{self.k},m<={self.multiplicity_cap}"


def default_n_limit(r: int, multiplicity_cap: int = 1) -> int:
    """Desk-scale defaults; larger parameters require force=True."""
    if r < 2:
        raise SearchLimitError(f"r must be >= 2, got r={r}")
    if r > CANONICAL_N_LIMIT:
        raise SearchLimitError(
            f"r={r} needs n >= r, but exact canonicalization is limited to "
            f"n <= {CANONICAL_N_LIMIT}")
    base = {3: 9, 4: 8}.get(r)
    if base is None:
        base = max(n for n in range(r, 13) if comb(n, r) <= 130)
    while multiplicity_cap * comb(base, r) > 260 and base > r:
        base -= 1
    return base


# ----------------------------------------------------------------------
# Level-by-level isomorphism-reduced enumeration
# ----------------------------------------------------------------------

def _levels(
    n: int,
    r: int,
    spec: FamilySpec,
    *,
    node_budget: int | None = None,
    time_budget: float | None = None,
    start: tuple[int, list[Hypergraph], int] | None = None,
) -> Iterator[tuple[int, list[Hypergraph], list[bytes], int]]:
    """The level BFS: yields (level, reps, keys, tested) for each level,
    with the canonical representatives sorted by key and the children
    tested so far.  A finished run ends with (last level, [], [], tested).

    ``start`` = (level, representatives, tested_so_far) resumes a run
    whose earlier levels were already yielded; each representative gets
    its generators from one ``canonical_form`` call.  Every parent
    expanded is free of the forbidden family.  Of each orbit of candidate
    edges under the swaps of the parent's twins and its carried
    generators, only the first child in candidate order is tested and
    canonicalized, seeded with the generators that fix its new edge;
    every candidate is still counted in ``tested``.  Each level takes two
    passes: the expand pass tests every parent's candidates and applies
    the reachability prune, and the admit pass canonicalizes the first
    children of the kept parents.  A first child that fails
    ``_passes_deletion_test`` is skipped while no parent has been pruned
    in a fresh run, this level's expand pass included: another parent's
    child in its class passes.  The time budget is checked before each
    parent of either pass, and the node budget after each parent of the
    expand pass, so both hold inside a level and the search stops at
    most one parent's candidates past the node budget.
    """
    candidates = list(itertools.combinations(range(n), r))
    deadline = None if time_budget is None else time.monotonic() + time_budget

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchLimitError(
                f"time budget exceeded while expanding level {level}"
            )

    # ``carried``: the known automorphisms of each representative, as
    # vertex maps.
    if start is None:
        root = Hypergraph(n, r, ())
        level, current, tested = 0, [root], 0
        yield level, current, [canonical_form(root)[0]], tested
        # The root's only automorphisms swap twins.
        carried: list[list[list[int]]] = [[]]
    else:
        level, current, tested = start
        # Resumed representatives are canonically labeled already, so the
        # automorphisms their canonicalization finds are theirs as given.
        carried = [[] for _ in current]
        for h, autos in zip(current, carried):
            canonical_form(h, autos)
    # Whether the current level holds every free class, which the
    # deletion test needs: true from a fresh root until a parent is pruned.
    complete = start is None
    while current:
        # Per parent not pruned: (parent, its generators, its edge counts,
        # the new edge of each feasible orbit's first child).
        kept: list[tuple[Hypergraph, list, dict, list[tuple[int, ...]]]] = []
        for parent, gens in zip(current, carried):
            check_deadline()
            counts: dict[tuple[int, ...], int] = {}
            for e in parent.edges:
                counts[e] = counts.get(e, 0) + 1
            violates_with = spec.child_violates(parent)
            twin = twin_classes(parent.vertex_instances())
            allowed = [e for e in candidates
                       if counts.get(e, 0) < spec.multiplicity_cap]
            # Orbit -> the new edge of its first child in candidate order,
            # or None if that child violates.
            firsts: dict[int, tuple[int, ...] | None] = {}
            feasible_edges: list[tuple[int, ...]] = []
            for e, orbit in zip(allowed, _candidate_orbits(allowed, twin, r, gens)):
                # Unused, but built for every tested child: the traced
                # benchmark counts tested children by these calls.
                parent.with_edge(e)
                tested += 1
                if orbit not in firsts:
                    firsts[orbit] = None if violates_with(e) else e
                if firsts[orbit] is not None:
                    feasible_edges.append(e)
            if node_budget is not None and tested > node_budget:
                raise SearchLimitError(
                    f"node budget {node_budget} exceeded while expanding level {level}"
                )
            if not feasible_edges:
                continue
            closure = Hypergraph(n, r, parent.edges + tuple(feasible_edges))
            if not is_connected(closure):
                # No superset of this representative can connect and span.
                complete = False
                continue
            kept.append((parent, gens, counts,
                         [e for e in firsts.values() if e is not None]))
        # Key -> (representative, its known automorphisms).
        found: dict[bytes, tuple[Hypergraph, list[list[int]]]] = {}
        for parent, gens, counts, first_edges in kept:
            check_deadline()
            degree = [0] * n
            for e in parent.edges:
                for v in e:
                    degree[v] += 1
            for e in first_edges:
                if not complete or _passes_deletion_test(counts, degree, e):
                    _admit(found, parent, e, gens)
        if not found:
            break
        level += 1
        keys = sorted(found)
        current = [found[k][0] for k in keys]
        carried = [found[k][1] for k in keys]
        yield level, current, keys, tested
    yield level, [], [], tested


def _passes_deletion_test(
    counts: dict[tuple[int, ...], int], degree: list[int], e: tuple[int, ...]
) -> bool:
    """Whether no edge of parent + e has a larger invariant than e.

    ``counts`` and ``degree`` are the parent's edge multiplicities and
    vertex degrees.  An edge's invariant in the child is its vertices'
    child degrees in descending order, then its child multiplicity; it
    is preserved by isomorphisms, and ties are allowed.
    """
    degree = degree.copy()
    for v in e:
        degree[v] += 1
    own = sorted([degree[v] for v in e], reverse=True)
    own.append(counts.get(e, 0) + 1)
    for f, c in counts.items():
        if f != e:
            inv = sorted([degree[v] for v in f], reverse=True)
            inv.append(c)
            if inv > own:
                return False
    return True


def _admit(
    found: dict[bytes, tuple[Hypergraph, list[list[int]]]],
    parent: Hypergraph,
    e: tuple[int, ...],
    gens: list[list[int]],
) -> None:
    """Canonicalize the child parent + e and keep it if its class is new.

    The parent's generators ``gens`` that map e onto itself are
    automorphisms of the child.  They seed the canonical search, which
    adds the ones it finds, and a new class carries all of them into its
    canonical labeling.  The child is built directly, not by
    ``with_edge``: the traced benchmark counts tested children by those
    calls.
    """
    child = Hypergraph(parent.n, parent.r, tuple(sorted(parent.edges + (e,))))
    seeds = [g for g in gens if sorted([g[v] for v in e]) == list(e)]
    key, pi = canonical_form(child, seeds)
    if key not in found:
        found[key] = (relabel(child, pi), [_conjugate(g, pi) for g in seeds])


def _candidate_orbits(
    allowed: list[tuple[int, ...]], twin: list[int], r: int, gens: list[list[int]]
) -> list[int]:
    """For each allowed edge, an id of its orbit under the swaps of twins
    (vertices with equal ids in ``twin``) and under ``gens``.

    An edge's twin orbit is the multiset of its twin ids, coded in base
    r + 1.  Each generator permutes the twin classes, so it maps a whole
    twin orbit onto one twin orbit, and one edge per orbit shows where.
    """
    pw = [(r + 1) ** c for c in twin]
    codes = [sum(map(pw.__getitem__, e)) for e in allowed]
    # A generator acts on the codes only through the twin class of each
    # vertex's image, so only distinct maps that move a class can merge.
    moves = {tuple([pw[u] for u in g]) for g in gens} - {tuple(pw)}
    if not moves:
        return codes
    edge_of = dict(zip(codes, allowed))
    # Code -> the first code of its orbit, by a search from each new one.
    orbit: dict[int, int] = {}
    for first in edge_of:
        if first in orbit:
            continue
        orbit[first] = first
        stack = [first]
        while stack:
            e = edge_of[stack.pop()]
            for move in moves:
                c = sum(map(move.__getitem__, e))
                if c not in orbit:
                    orbit[c] = first
                    stack.append(c)
    return [orbit[c] for c in codes]


def _conjugate(g: list[int], pi: tuple[int, ...]) -> list[int]:
    """g moved into the labeling pi (old -> new): pi[v] -> pi[g[v]]."""
    out = [0] * len(g)
    for v, w in enumerate(g):
        out[pi[v]] = pi[w]
    return out


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
        obj = asdict(self)
        elapsed_ms = obj.pop("elapsed_ms")
        if not stable:
            obj["elapsed_ms"] = round(elapsed_ms, 3)
        return obj

    def stable_json(self) -> str:
        """Byte-stable report: excludes wall-clock timing."""
        return json.dumps(self.to_json_obj(stable=True), sort_keys=True)


def _check_limits(n: int, r: int, spec: FamilySpec, force: bool) -> None:
    if r < 2:
        raise SearchLimitError(f"r must be >= 2, got r={r}")
    if n < r:
        raise SearchLimitError(f"need n >= r, got n={n}, r={r}")
    if n > CANONICAL_N_LIMIT:
        raise SearchLimitError(
            f"exact canonicalization is limited to n <= {CANONICAL_N_LIMIT}")
    if not force and n > default_n_limit(r, spec.multiplicity_cap):
        raise SearchLimitError(
            f"n={n} exceeds the default search limit "
            f"{default_n_limit(r, spec.multiplicity_cap)} for r={r}, "
            f"m={spec.multiplicity_cap}; pass force=True to override"
        )


CHECKPOINT_VERSION = 1


def _checkpoint_header(n: int, r: int, spec: FamilySpec) -> dict:
    return {"version": CHECKPOINT_VERSION, "n": n, "r": r,
            "family": spec.label()}


def _load_checkpoint(
    path: str, n: int, r: int, spec: FamilySpec
) -> tuple[tuple[int, list[Hypergraph], int], int | None, list[bytes]] | None:
    """(start for ``_levels``, best level, best keys) saved at ``path``, or
    None if there is no such file.  Raises SearchLimitError naming the
    file if it belongs to a different run or is malformed."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise SearchLimitError(f"checkpoint {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SearchLimitError(f"checkpoint {path} is not a JSON object")
    header = {k: data.get(k) for k in ("version", "n", "r", "family")}
    if header != _checkpoint_header(n, r, spec):
        raise SearchLimitError(
            f"checkpoint {path} belongs to a different run: {header}"
        )
    # Exact types, since a bool is an int to isinstance; counts are >= 0.
    kinds = {"level": {int}, "reps": {list}, "tested": {int},
             "best_level": {int, type(None)}, "best_keys": {list},
             "complete": {bool}}
    bad = [k for k, kind in kinds.items()
           if k not in data or type(data[k]) not in kind
           or type(data[k]) is int and data[k] < 0]
    if not bad and (data["best_level"] or 0) > data["level"]:
        bad = ["best_level"]
    if bad:
        raise SearchLimitError(
            f"checkpoint {path} has no valid {', '.join(bad)}")
    try:
        reps = [] if data["complete"] else [
            from_canonical_string(s) for s in data["reps"]]
        best_keys = [k.encode("ascii") for k in data["best_keys"]]
    except (ValueError, AttributeError) as exc:
        raise SearchLimitError(f"checkpoint {path} is malformed: {exc}") from None
    for h in reps:
        if (h.n, h.r, h.num_edges()) != (n, r, data["level"]):
            raise SearchLimitError(
                f"checkpoint {path} holds a representative with n={h.n}, "
                f"r={h.r}, {h.num_edges()} instances, not n={n}, r={r}, "
                f"{data['level']} instances")
    return (data["level"], reps, data["tested"]), data["best_level"], best_keys


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

    ``workers`` does not change the search: every level is expanded in
    the calling thread.  It is kept for a process pool over subtrees,
    which would give it a meaning again.
    """
    _check_limits(n, r, spec, force)
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be >= 0, got {witness_cap}")
    t0 = time.perf_counter()
    ck = None if checkpoint_path is None else _load_checkpoint(
        checkpoint_path, n, r, spec)
    start, best_level, best_keys = (None, None, []) if ck is None else ck

    for level, reps, keys, tested in _levels(
        n, r, spec, node_budget=node_budget, time_budget=time_budget,
        start=start,
    ):
        conn_keys = [k for k, h in zip(keys, reps) if is_connected(h)]
        if conn_keys:
            best_level, best_keys = level, conn_keys
        if checkpoint_path is not None:
            _save_checkpoint(checkpoint_path, n, r, spec, level, keys, tested,
                             best_level, best_keys, complete=not reps)
    elapsed = (time.perf_counter() - t0) * 1000
    if best_level is None:
        return SearchOutcome("infeasible", None, [], tested, elapsed, 0,
                             n, r, spec.label())
    witnesses = [k.decode("ascii") for k in best_keys[:witness_cap]]
    return SearchOutcome("value", best_level, witnesses, tested, elapsed,
                         len(best_keys), n, r, spec.label())


def _save_checkpoint(path, n, r, spec, level, keys, tested, best_level,
                     best_keys, complete):
    data = _checkpoint_header(n, r, spec)
    data.update(
        level=level,
        reps=[k.decode("ascii") for k in keys],
        tested=tested,
        best_level=best_level,
        best_keys=[k.decode("ascii") for k in best_keys],
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
    one canonical representative per isomorphism class, every edge count.
    ``workers`` does not change the search, as in ``exact_ex_conn``."""
    _check_limits(n, r, spec, force)
    return [h for _, reps, _, _ in _levels(n, r, spec)
            for h in reps if is_connected(h)]


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
        obj = asdict(self)
        del obj["exact_size_match"]
        return obj


def _sparse_preconditions(
    h: Hypergraph, m: int
) -> tuple[str, int, BergeWitness | None]:
    """(reason, t, witness): the reason is empty if the structural lemma's
    hypotheses hold; t and witness are the longest Berge path, once found.

    Hypotheses: connected, n > r, multiplicity <= m, longest Berge path
    length t at most r-1 (so a forbidden length k with t < k <= r
    exists), and no Berge cycle of length exactly t.
    """
    if not is_connected(h):
        return "hypergraph is not connected/spanning", 0, None
    if h.n <= h.r:
        return f"degenerate size n={h.n} <= r={h.r}", 0, None
    if h.max_multiplicity() > m:
        return f"multiplicity {h.max_multiplicity()} exceeds cap m={m}", 0, None
    t, witness = longest_berge_path(h)
    if t > h.r - 1:
        return f"longest Berge path length t={t} exceeds r-1={h.r - 1}", t, witness
    if t >= 2 and contains_berge_cycle(h, t, "exact"):
        return f"contains a Berge cycle of length t={t}", t, witness
    return "", t, witness


def _satisfies(h: Hypergraph, m: int, t: int, subset: tuple[int, ...]) -> str | None:
    """Which case the subset satisfies, or None."""
    size = len(subset)
    ns = len(hyperedge_neighborhood(h, subset))
    if size >= 2 * h.r - 2 and ns <= m + 1:
        return CASE_SMALL
    if size >= 2 * h.r - 1 and ns <= t:
        return CASE_LARGE
    return None


def _witness_report(h: Hypergraph, t: int, subset: tuple[int, ...],
                    case: str) -> SparseSetReport:
    return SparseSetReport(
        "witness_found", subset, case, len(hyperedge_neighborhood(h, subset)), t,
        exact_size_match=(case == CASE_SMALL and len(subset) == 2 * h.r - 2),
    )


SPARSE_SCAN_N_LIMIT = 16


def sparse_set_check(h: Hypergraph, m: int = 1) -> SparseSetReport:
    """Exhaustive search for a vertex set S with a small hyperedge
    neighborhood: |S| >= 2r-2 with |N(S)| <= m+1, or |S| >= 2r-1 with
    |N(S)| <= t (t = longest Berge path length).

    Preconditions are verified, never assumed; instances violating them
    get verdict precondition_violated.  A precondition-satisfying
    instance without any such S is a counterexample to the lemma.  The
    witness is the first small-case subset in bitmask order, else the
    first large-case one.
    """
    if h.n > SPARSE_SCAN_N_LIMIT:
        raise SearchLimitError(
            f"exhaustive subset scan limited to n <= {SPARSE_SCAN_N_LIMIT}; "
            "use the constructive variant for larger inputs"
        )
    reason, t, _ = _sparse_preconditions(h, m)
    if reason:
        return SparseSetReport("precondition_violated", t=t, reason=reason)
    large = None
    for subset in all_vertex_subsets(h.n, min_size=2 * h.r - 2):
        case = _satisfies(h, m, t, subset)
        if case == CASE_SMALL:
            return _witness_report(h, t, subset, case)
        if case == CASE_LARGE and large is None:
            large = subset
    if large is not None:
        return _witness_report(h, t, large, CASE_LARGE)
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
    reason, t, witness = _sparse_preconditions(h, m)
    if reason:
        return SparseSetReport("precondition_violated", t=t, reason=reason)
    assert witness is not None and t >= 2
    w = witness.vertices                      # w_0 .. w_t; v_i = w[i]
    esets = [set(h.edges[i]) for i in witness.edge_instances]  # e_1 .. e_t
    u_set = set(w[1:t])                       # v_1 .. v_{t-1}

    d1 = 1
    while d1 < t and esets[d1] == esets[0]:
        d1 += 1
    d2 = 1
    while d2 < t and esets[t - 1 - d2] == esets[t - 1]:
        d2 += 1

    lead_block = {w[i] for i in range(1, min(d1, t - 1) + 1)}
    tail_block = {w[i] for i in range(max(t - d2, 1), t)}
    if esets[0] & u_set == lead_block and esets[t - 1] & u_set == tail_block:
        subset = _end_edges_set(w, esets, t, d1, d2)
    else:
        subset = _recursive_set(w, esets, t)

    case = _satisfies(h, m, t, subset)
    if case is None:
        return SparseSetReport(
            "counterexample", subset, None, len(hyperedge_neighborhood(h, subset)), t,
            reason="constructive set violates the neighborhood bound",
        )
    return _witness_report(h, t, subset, case)


def _end_edges_set(w, esets, t, d1, d2) -> tuple[int, ...]:
    """Both end edges minus their anchor defining vertices; if an end
    vertex reaches into the middle of the path, the defining vertex just
    before (after) the touched edge joins the set."""
    w1_side = esets[0] - {w[d1]}
    w2_side = esets[t - 1] - {w[t - d2]}
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


def _recursive_set(w, esets, t) -> tuple[int, ...]:
    """Grow A from (e_1 union e_t) minus the defining vertices, walking
    the defining vertices met by e_1 and then by e_t; each next edge's
    outside part joins A, and when it already meets A the defining vertex
    before that edge joins too."""
    u_set = set(w[1:t])
    a = (esets[0] | esets[t - 1]) - u_set
    i_list = [i for i in range(2, t) if w[i] in esets[0]]        # skip i_0 = 1
    j_list = [q + 1 for q in range(1, t) if w[q] in esets[t - 1]]
    for i in i_list + j_list:
        outside = esets[i - 1] - u_set
        if outside & a:
            a.add(w[i - 1])
        a |= outside
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
        obj = asdict(self)
        del obj["outcome"]
        obj["search"] = self.outcome.to_json_obj(stable=stable)
        return obj


def conjecture_check(
    n: int, r: int, k: int, *, workers: int = 1, force: bool = False
) -> ConjectureReport:
    """Compare the exact search value against the conjectured closed form
    n - (k-2) + C(k-2, r) for r+1 <= k <= 2r-1, and against the witnessing
    construction's edge count.  ``workers`` does not change the search,
    as in ``exact_ex_conn``."""
    if not (r + 1 <= k <= 2 * r - 1):
        raise ValueError(f"conjectured range is r+1 <= k <= 2r-1, got k={k}, r={r}")
    conjectured = _clique_pendant_count(n, r, k)
    fam = clique_pendant_family(n, r, k)
    outcome = exact_ex_conn(n, r, FamilySpec("bp", k), workers=workers, force=force)
    return ConjectureReport(n, r, k, conjectured, fam.num_edges(), outcome)
