"""Exhaustive, isomorphism-reduced search for connected Turan numbers.

The enumerator grows forbidden-family-free edge multisets level by level
(level = instance count).  Each level holds exactly one canonically
labeled representative per isomorphism class; children are generated by
adding every still-admissible instance to every representative and
deduplicating on canonical form.  Freeness of the forbidden family is
hereditary downward, so a violating child prunes its whole subtree.
Every parent expanded is therefore family-free, the precondition under
which ``berge.new_edge_detector``, built once per parent, tests exactly
whether a child holds a forbidden configuration through its new
instance.  Where no forbidden configuration fits in the parent plus one
instance, the detector is None and every candidate is feasible with no
test.

Symmetry has one source: the generators that ``canonical_form`` finds,
together with the swaps of twins (vertices with equal incidence lists),
which generate the whole automorphism group.  Automorphisms pass between
levels in both directions (McKay, "Isomorph-free exhaustive generation",
1998).  Each representative carries the generators known from its own
canonicalization, conjugated into its canonical labeling, and they seed
its children's canonical searches (``_admit``).  As a parent, its
candidate edges with the same sorted tuple of twin ids (the same
twin-orbit code) form one orbit of the twin swaps, whose children are
isomorphic, so only the first child of each code in candidate order is
tested; the others share its verdict.  The detector gets the orbits of
vertex pairs under the twin swaps and the generators, and walks at most
one pair of each.  It builds them only if it walks, and over every
pair, those at the multiplicity cap too, since a witness it finds can
prove any pair.  Then the generators merge the codes of the free
candidates, which form a union of orbits, into the orbits of the
parent's automorphism group, and only the first child of each such
orbit is canonicalized; the others share its key.  Both orbit searches
of a parent fill one memo of twin-orbit codes, so no code is searched
twice (``_candidate_orbits`` says why that is exact).  Every candidate
is still built and counted as tested, and every feasible one joins the
reachability closure below.

Before that child is canonicalized it must pass McKay's cheap deletion
test: no edge of the child may have a strictly larger invariant than the
new edge (``_passes_deletion_test`` defines the invariant).  Any
invariant of the pair (child, edge) serves, and the finer it is, the
fewer children of one class pass.  A child that fails is skipped.  Its
class is still found if the level holds every free class and expands all
of them: deleting an edge m of largest invariant leaves a free graph
isomorphic to a representative of the level, whose first child on the
orbit of m's image is isomorphic to the skipped child and passes.  The
next level then holds every free class too.  So a level first expands
every parent and applies the prune below, then canonicalizes the kept
parents' first children, testing them only while no parent has been
pruned since the root of a fresh run, this level's expand pass
included; a run resumed from a checkpoint never tests.  Levels, keys
and counts are those of the search without the test.

Connectivity is NOT hereditary and is therefore only evaluated, never
used to prune directly; instead a reachability-potential prune discards
representatives whose union with all their admissible additions cannot
connect and span the vertex set (no superset of such a representative
can ever qualify, and every qualifying class keeps at least one live
generation chain, so nothing is lost).  The closure is built and checked
only for a parent that rejects some candidate: otherwise it is the
complete r-graph, since every r-set that is not a candidate is a parent
edge at the multiplicity cap, and that is connected and spans n >= r
vertices.

Levels are expanded one parent at a time in the calling thread, in the
order of their canonical keys, so value, witnesses and node counts are
deterministic.

``exact_ex_conn`` searches nothing where the family cannot fit: a Berge
path of length k needs k + 1 vertices and a Berge cycle of length k
needs k, so on fewer every multiset is free and the complete multiset is
the answer.  ``enumerate_connected_free`` still searches such points,
since it lists every class.
"""

from __future__ import annotations

import itertools
import json
import os
import time
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field
from math import comb
from typing import Iterator

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
    start: tuple[list[Hypergraph], int] | None = None,
) -> Iterator[tuple[int, list[Hypergraph], list[bytes], int]]:
    """The level BFS: yields (level, reps, keys, tested) for each level
    before expanding it, with the canonical representatives sorted by key
    and the children tested so far.  A finished run ends with (last
    level, [], [], tested).

    The first level is the empty root, or ``start`` = (representatives,
    tested_so_far) to resume a run at their instance count (0 if there
    are none, which yields only the final tuple).  Each of its
    representatives is canonicalized once, which gives its key and its
    generators, so a resumed level has the same orbits as in a fresh
    run; it is yielded with those keys like every other level, so a
    caller can check that a resumed level lists canonical forms in
    ascending key order before anything is expanded.  The time budget
    is checked before each parent of either pass, and the node budget
    after each parent of the expand pass, so both hold inside a level
    and the search stops at most one parent's candidates past the node
    budget.  The module docstring gives the rules that each level
    applies.
    """
    candidates = list(itertools.combinations(range(n), r))
    position = {e: i for i, e in enumerate(candidates)}
    pairs = list(itertools.combinations(range(n), 2))
    deadline = None if time_budget is None else time.monotonic() + time_budget

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchLimitError(
                f"time budget exceeded while expanding level {level}"
            )

    current, tested = start or ([Hypergraph(n, r, ())], 0)
    level = current[0].num_edges() if current else 0
    # ``carried``: the known automorphisms of each representative, as
    # vertex maps.  Start representatives are canonically labeled (a
    # resume checks the keys), so the automorphisms found are theirs.
    carried: list[list[list[int]]] = [[] for _ in current]
    keys = [canonical_form(h, autos)[0] for h, autos in zip(current, carried)]
    # Whether the current level holds every free class, which the
    # deletion test needs: true from a fresh root until a parent is pruned.
    complete = start is None
    mode = _CYCLE_MODES[spec.kind]
    while current:
        yield level, current, keys, tested
        # Per parent not pruned: (parent, its generators, its edge counts,
        # its vertex weights, the new edge of each feasible orbit's first
        # child).
        kept: list[tuple[Hypergraph, list, Counter, list[int],
                         list[tuple[int, ...]]]] = []
        for parent, gens in zip(current, carried):
            check_deadline()
            counts = Counter(parent.edges)
            inc = parent.vertex_instances()
            # Twin class c weighs (r + 1) ** c, so an edge's twin-orbit
            # code is the sum of its vertices' weights; the combinations
            # of the weights give the codes in candidate order.
            pw = [(r + 1) ** c for c in twin_classes(inc)]
            # Twin-orbit code -> its orbit id under the twin swaps and
            # ``gens``, for the pairs and the free candidates alike.
            orbit: dict[int, int] = {}
            # Exact because the parent is free: see the module docstring.
            # The detector builds its pair orbits only if it walks.
            violates_with = new_edge_detector(parent, spec.k, mode, lambda: dict(
                zip(pairs, _candidate_orbits(
                    pairs, list(map(sum, itertools.combinations(pw, 2))), pw,
                    gens, orbit))))
            allowed = candidates.copy()
            codes = list(map(sum, itertools.combinations(pw, r)))
            # Drop the edges at the cap from the back, so that the
            # positions still to drop stay valid.
            for i in sorted((position[e] for e, c in counts.items()
                             if c >= spec.multiplicity_cap), reverse=True):
                del allowed[i], codes[i]
            with_edge = parent.with_edge
            # A child is built for every tested candidate, though unused:
            # the traced benchmark counts tested children by these calls.
            if violates_with is None:  # no configuration fits: all free
                for e in allowed:
                    with_edge(e)
                feasible_edges, feasible_codes = allowed, codes
            else:
                # Twin-orbit code -> whether its first child in candidate
                # order is free; twin swaps are automorphisms, so the
                # verdict holds for every child of the code.
                free: dict[int, bool] = {}
                feasible_edges, feasible_codes = [], []
                for e, code in zip(allowed, codes):
                    with_edge(e)
                    ok = free.get(code)
                    if ok is None:
                        ok = free[code] = not violates_with(e)
                    if ok:
                        feasible_edges.append(e)
                        feasible_codes.append(code)
            tested += len(allowed)
            if node_budget is not None and tested > node_budget:
                raise SearchLimitError(
                    f"node budget {node_budget} exceeded while expanding level {level}"
                )
            if not feasible_edges:
                continue
            # With none rejected the closure is the complete r-graph, which
            # connects and spans: see the module docstring.
            if len(feasible_edges) < len(allowed) and not is_connected(
                    Hypergraph(n, r, parent.edges + tuple(feasible_edges))):
                # No superset of this representative can connect and span.
                complete = False
                continue
            # The feasible edges are a union of orbits under the twin swaps
            # and ``gens``; keep the first edge of each.
            firsts: dict[int, tuple[int, ...]] = {}
            for e, orbit_id in zip(feasible_edges, _candidate_orbits(
                    feasible_edges, feasible_codes, pw, gens, orbit)):
                firsts.setdefault(orbit_id, e)
            # Vertex v weighs (r + 1) ** (its degree in the parent).
            kept.append((parent, gens, counts, [(r + 1) ** len(i) for i in inc],
                         list(firsts.values())))
        # Key -> (representative, its known automorphisms).
        found: dict[bytes, tuple[Hypergraph, list[list[int]]]] = {}
        for parent, gens, counts, weight, first_edges in kept:
            check_deadline()
            for e in first_edges:
                if not complete or _passes_deletion_test(counts, weight, e):
                    _admit(found, parent, e, gens)
        if not found:
            break
        level += 1
        keys = sorted(found)
        current = [found[k][0] for k in keys]
        carried = [found[k][1] for k in keys]
    yield level, [], [], tested


def _passes_deletion_test(
    counts: dict[tuple[int, ...], int], weight: list[int], e: tuple[int, ...]
) -> bool:
    """Whether no edge of parent + e has a larger invariant than e.

    ``counts`` holds the parent's edge multiplicities and ``weight`` its
    vertex weights, (r + 1) ** degree.  In the child, the sum of an
    edge's weights, its code, is the multiset of its vertices' degrees in
    base r + 1, and it orders those multisets as their descending lists
    do.  An edge's invariant in the child is its code, then its
    multiplicity, then the multisets of its vertices' values after one
    and after two rounds of refinement, each compared as a list in
    descending order.  A round's new value of a vertex is the sum, over
    the child's instances that contain it, of those instances' sums of
    values, starting from the weights.  The invariant is preserved by
    isomorphisms, ties are allowed, and a round is computed only while
    another edge ties with e.
    """
    weight = weight.copy()
    for v in e:
        weight[v] *= len(e) + 1
    code = sum(map(weight.__getitem__, e))
    own = counts.get(e, 0) + 1
    # e itself has the code of e but one instance fewer, so it never ties.
    tied = []
    for f, c in counts.items():
        fc = sum(map(weight.__getitem__, f))
        if fc > code or fc == code and c > own:
            return False
        if fc == code and c == own:
            tied.append(f)
    instances = {**counts, e: own}
    values = weight
    for _ in range(2):
        if not tied:
            break
        refined = [0] * len(values)
        for f, c in instances.items():
            s = c * sum(map(values.__getitem__, f))
            for v in f:
                refined[v] += s
        values = refined
        mine = sorted(map(values.__getitem__, e), reverse=True)
        theirs = [sorted(map(values.__getitem__, f), reverse=True) for f in tied]
        if max(theirs) > mine:
            return False
        tied = [f for f, t in zip(tied, theirs) if t == mine]
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
    they prune from its root, and which adds the ones it finds; a new
    class carries all of them into its canonical labeling.  The child is
    built directly, not by ``with_edge``: the traced benchmark counts
    tested children by those calls.
    """
    child = Hypergraph(parent.n, parent.r, tuple(sorted(parent.edges + (e,))))
    seeds = [g for g in gens if sorted([g[v] for v in e]) == list(e)]
    key, pi = canonical_form(child, seeds)
    if key not in found:
        found[key] = (relabel(child, pi), [_conjugate(g, pi) for g in seeds])


def _candidate_orbits(
    allowed: list[tuple[int, ...]], codes: list[int], pw: list[int],
    gens: list[list[int]], orbit: dict[int, int],
) -> list[int]:
    """For each allowed edge, an id of its orbit under the swaps of twins
    and under ``gens``.  The allowed edges (all candidates, the free ones
    or all pairs) must be a union of such orbits.

    ``pw[v]`` is (r + 1) ** (the twin class of v), and ``codes`` holds
    each allowed edge's twin-orbit code, the sum of ``pw`` over its
    vertices: the multiset of its twin classes in base r + 1, so twins
    are the vertices of equal ``pw``.  Each generator permutes the twin
    classes, so it maps a whole twin orbit onto one twin orbit, and one
    edge per orbit shows where.  Without a generator that moves a class
    the ids are ``codes`` itself, and ``orbit`` is left as it is.

    ``orbit`` is the parent's memo, code -> orbit id, shared by its two
    calls, over its pairs and over its free candidates: only codes not
    in it are searched, and each search adds its whole orbit.  That is
    exact.  At r = 2 the free candidates are pairs, whose codes the pair
    call, if made, has placed.  At r >= 3 no pair code equals an r-set
    code: a code's base r + 1 digits (none above r) count the edge's
    vertices per twin class, so a pair's digits sum to 2 and an r-set's
    to r.
    """
    # A generator acts on the codes only through the twin class of each
    # vertex's image, so only distinct maps that move a class can merge.
    moves = {tuple([pw[u] for u in g]) for g in gens} - {tuple(pw)}
    if not moves:
        return codes
    edge_of = dict(zip(codes, allowed))
    # Each new code's orbit, found by a search from it, gets its first code.
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
    if not force and n > (limit := default_n_limit(r, spec.multiplicity_cap)):
        raise SearchLimitError(
            f"n={n} exceeds the default search limit {limit} for r={r}, "
            f"m={spec.multiplicity_cap}; pass force=True to override"
        )


CHECKPOINT_VERSION = 2


def _checkpoint_header(n: int, r: int, spec: FamilySpec) -> dict:
    return {"version": CHECKPOINT_VERSION, "n": n, "r": r,
            "family": spec.label()}


def _check_value(data: dict) -> int:
    """The CRC-32 of the compact JSON of [reps, tested, best_keys]."""
    body = [data["reps"], data["tested"], data["best_keys"]]
    return zlib.crc32(json.dumps(body, separators=(",", ":")).encode())


def _load_checkpoint(
    path: str | None, n: int, r: int, spec: FamilySpec
) -> tuple[tuple[list[Hypergraph], int], list[bytes], int | None,
           list[bytes]] | None:
    """(start for ``_levels``, the representatives' keys as listed, best
    level, best keys) saved at ``path``, or None if there is no path or
    no such file.  Raises SearchLimitError naming the file unless it has
    this version and run, its check value and well-formed key lists:
    every key decodes to a graph of this run within the multiplicity
    cap, and the keys of a list share one instance count, the level or
    the best level.  Best keys must also be connected canonical forms,
    strictly ascending, with no more instances than the representatives.
    Freeness is not re-checked: it costs about four canonicalizations."""
    if path is None or not os.path.exists(path):
        return None
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise SearchLimitError(f"checkpoint {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SearchLimitError(f"checkpoint {path} is not a JSON object")
    want = _checkpoint_header(n, r, spec)
    header = {k: data.get(k) for k in want}
    if header != want:
        run = "version {version} for n={n}, r={r}, {family}".format
        raise SearchLimitError(
            f"checkpoint {path} is {run(**header)}; this run reads {run(**want)}")
    # Exact types, since a bool is an int to isinstance; counts are >= 0.
    kinds = {"reps": list, "tested": int, "best_keys": list, "crc32": int}
    bad = [k for k, kind in kinds.items()
           if type(data.get(k)) is not kind or kind is int and data[k] < 0]
    if bad:
        raise SearchLimitError(
            f"checkpoint {path} has no valid {', '.join(bad)}")
    if data["crc32"] != _check_value(data):
        raise SearchLimitError(
            f"checkpoint {path} does not match its check value crc32")
    cap, lists = spec.multiplicity_cap, []
    for what, strings in (("representative", data["reps"]),
                          ("best key", data["best_keys"])):
        try:
            graphs = [from_canonical_string(s) for s in strings]
            keys = [s.encode("ascii") for s in strings]
        except ValueError as exc:
            raise SearchLimitError(
                f"checkpoint {path} is malformed: {exc}") from None
        counts = {h.num_edges() for h in graphs}
        if len(counts) > 1 or any((h.n, h.r) != (n, r) or h.max_multiplicity() > cap
                                  for h in graphs):
            raise SearchLimitError(
                f"checkpoint {path} holds {what}s that do not all have n={n}, "
                f"r={r}, m<={cap} and one instance count")
        lists.append((keys, graphs, counts.pop() if counts else None))
    (rep_keys, reps, level), (best_keys, best, best_level) = lists
    if reps and best and best_level > level:
        raise SearchLimitError(
            f"checkpoint {path} holds best keys with {best_level} instances, "
            f"more than the representatives' {level}")
    for k, h in zip(best_keys, best):
        if not is_connected(h) or canonical_form(h)[0] != k:
            raise SearchLimitError(
                f"checkpoint {path} holds a best key {k.decode()!r} that is "
                "not a connected canonical form")
    if best_keys != sorted(set(best_keys)):
        raise SearchLimitError(
            f"checkpoint {path} lists its best keys out of order or twice")
    return (reps, data["tested"]), rep_keys, best_level, best_keys


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
    written out (versioned header, current representatives, children
    tested, running best keys and a check value over those three; a
    level is its keys' instance count); an aborted run resumes from the
    file and yields the same outcome as an uninterrupted one.  A resume
    starts the level search at the saved level, whose representatives
    are canonicalized before any is expanded; it stops with a
    SearchLimitError naming the file unless their keys are the
    representatives as listed, in strictly ascending order, so a
    duplicated, reordered or relabeled representative is refused.  The
    saved level is then written out again, unchanged.

    A Berge path of length k needs k + 1 vertices and a Berge cycle of
    length k, or at least k, needs k.  So for a path with n <= k, or a
    cycle with n < k, every multiset is free, and the answer is the
    complete multiset, every vertex set at the multiplicity cap: m *
    C(n, r) instances, one class, found with no search
    (``nodes_explored`` 0).  The limits, the arguments and a checkpoint
    are checked first, as for any run, and the checkpoint then gets the
    finished state: no representatives, none tested, that one key.

    ``workers`` does not change the search: every level is expanded in
    the calling thread.  It is kept for a process pool over each level's
    expand pass, which would give it a meaning with byte-identical
    output.
    """
    _check_limits(n, r, spec, force)
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be >= 0, got {witness_cap}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node_budget must be >= 0, got {node_budget}")
    # Written so that NaN, which compares false, is refused too.
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"time_budget must be >= 0, got {time_budget}")
    t0 = time.perf_counter()
    start, listed, best_level, best_keys = (
        _load_checkpoint(checkpoint_path, n, r, spec) or (None, None, None, []))

    if n < spec.k + (spec.kind == "bp"):
        # Every multiset is free, so the run is finished with no search:
        # only its final state is passed on, and no level is resumed.
        complete = Hypergraph(n, r, tuple(
            e for e in itertools.combinations(range(n), r)
            for _ in range(spec.multiplicity_cap)))
        best_level, best_keys = complete.num_edges(), [canonical_form(complete)[0]]
        listed, levels = None, [(best_level, [], [], 0)]
    else:
        levels = _levels(n, r, spec, node_budget=node_budget,
                         time_budget=time_budget, start=start)
    for level, reps, keys, tested in levels:
        if listed is not None:
            # The resumed level, canonicalized afresh and not yet expanded.
            if keys != listed or keys != sorted(set(keys)):
                raise SearchLimitError(
                    f"checkpoint {checkpoint_path} lists representatives "
                    "that are not distinct canonical forms in ascending order")
            listed = None
        conn_keys = [k for k, h in zip(keys, reps) if is_connected(h)]
        if conn_keys:
            best_level, best_keys = level, conn_keys
        if checkpoint_path is not None:
            _save_checkpoint(checkpoint_path, n, r, spec, keys, tested,
                             best_keys)
    elapsed = (time.perf_counter() - t0) * 1000
    # Without a best level there are no best keys either.
    witnesses = [k.decode("ascii") for k in best_keys[:witness_cap]]
    return SearchOutcome("infeasible" if best_level is None else "value",
                         best_level, witnesses, tested, elapsed,
                         len(best_keys), n, r, spec.label())


def _save_checkpoint(path, n, r, spec, keys, tested, best_keys):
    """Write the header, the representatives' ``keys`` (none once the run
    has finished), ``tested``, ``best_keys`` and their check value."""
    data = _checkpoint_header(n, r, spec)
    data.update(reps=[k.decode("ascii") for k in keys], tested=tested,
                best_keys=[k.decode("ascii") for k in best_keys])
    data["crc32"] = _check_value(data)
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
    ``workers`` does not change the search yet; see ``exact_ex_conn``."""
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
    exists), and no Berge cycle of length exactly t.  A cap m below 1 is
    refused with a ValueError: no hypergraph with an edge meets it.
    """
    if m < 1:
        raise ValueError(f"multiplicity cap must be >= 1, got m={m}")
    if not is_connected(h):
        return "hypergraph is not connected/spanning", 0, None
    if h.n <= h.r:
        return f"degenerate size n={h.n} <= r={h.r}", 0, None
    if (mult := h.max_multiplicity()) > m:
        return f"multiplicity {mult} exceeds cap m={m}", 0, None
    t, witness = longest_berge_path(h)
    if t > h.r - 1:
        return f"longest Berge path length t={t} exceeds r-1={h.r - 1}", t, witness
    if t >= 2 and contains_berge_cycle(h, t, "exact"):
        return f"contains a Berge cycle of length t={t}", t, witness
    return "", t, witness


def _satisfies(
    h: Hypergraph, m: int, t: int, subset: tuple[int, ...]
) -> tuple[str | None, int]:
    """Which case the subset satisfies, or None, and its neighborhood size."""
    size = len(subset)
    ns = len(hyperedge_neighborhood(h, subset))
    if size >= 2 * h.r - 2 and ns <= m + 1:
        return CASE_SMALL, ns
    if size >= 2 * h.r - 1 and ns <= t:
        return CASE_LARGE, ns
    return None, ns


def _witness_report(h: Hypergraph, t: int, case: str, subset: tuple[int, ...],
                    ns: int) -> SparseSetReport:
    return SparseSetReport(
        "witness_found", subset, case, ns, t,
        exact_size_match=(case == CASE_SMALL and len(subset) == 2 * h.r - 2),
    )


SPARSE_SCAN_N_LIMIT = 16


def sparse_set_check(h: Hypergraph, m: int = 1) -> SparseSetReport:
    """Exhaustive search for a vertex set S with a small hyperedge
    neighborhood: |S| >= 2r-2 with |N(S)| <= m+1, or |S| >= 2r-1 with
    |N(S)| <= t (t = longest Berge path length).

    Preconditions are verified, never assumed; instances violating them
    get verdict precondition_violated, and a cap m below 1 raises
    ValueError.  A precondition-satisfying
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
        case, ns = _satisfies(h, m, t, subset)
        if case == CASE_SMALL:
            return _witness_report(h, t, case, subset, ns)
        if case == CASE_LARGE and large is None:
            large = subset, ns
    if large is not None:
        return _witness_report(h, t, CASE_LARGE, *large)
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

    case, ns = _satisfies(h, m, t, subset)
    if case is None:
        return SparseSetReport(
            "counterexample", subset, None, ns, t,
            reason="constructive set violates the neighborhood bound",
        )
    return _witness_report(h, t, case, subset, ns)


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
    construction's edge count.  ``workers`` does not change the search
    yet; see ``exact_ex_conn``."""
    if not (r + 1 <= k <= 2 * r - 1):
        raise ValueError(f"conjectured range is r+1 <= k <= 2r-1, got k={k}, r={r}")
    conjectured = _clique_pendant_count(n, r, k)
    fam = clique_pendant_family(n, r, k)
    outcome = exact_ex_conn(n, r, FamilySpec("bp", k), workers=workers, force=force)
    return ConjectureReport(n, r, k, conjectured, fam.num_edges(), outcome)
