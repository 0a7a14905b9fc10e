"""Exhaustive search: exact values, soundness, dominance, determinism.

Frozen expected values in this module were computed by the search itself
and independently corroborated: the k=3 pattern follows the star/pair
characterization (hand-checkable), the r=2 values match the connected
graph path formula, and the small k=4 values were replayed by a plain
labeled brute force over all edge subsets with no isomorphism machinery.
"""

import gc

import pytest

from bergeturan.berge import contains_berge_path
from bergeturan.constructions import sunflower_family
from bergeturan.formulas import classical_bound, bc_value
from bergeturan.hypergraph import from_canonical_string, is_connected
from bergeturan.search import (
    ConjectureReport,
    FamilySpec,
    SearchLimitError,
    SearchOutcome,
    conjecture_check,
    default_n_limit,
    enumerate_connected_free,
    exact_ex_conn,
)


# -- family specs -------------------------------------------------------

def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("bp", 0)
    with pytest.raises(ValueError):
        FamilySpec("bc_exact", 1)
    with pytest.raises(ValueError):
        FamilySpec("bp", 3, multiplicity_cap=0)
    with pytest.raises(ValueError):
        FamilySpec("walks", 3)


def test_family_spec_violates_dispatch():
    from bergeturan.hypergraph import build

    h = build(4, 3, [[0, 1, 2], [0, 1, 3]])
    assert not FamilySpec("bp", 3).violates(h)
    assert FamilySpec("bp", 2).violates(h)
    assert FamilySpec("bc_exact", 2).violates(h)
    assert FamilySpec("bc_at_least", 2).violates(h)
    assert not FamilySpec("bc_at_least", 3).violates(h)


def _random_free_parent(rng, n, r, spec):
    """Up to a random number of instances, taken in random order from
    every vertex set times the cap, each kept when the result stays free
    of the family; the largest are maximal family-free."""
    import itertools

    from bergeturan.hypergraph import Hypergraph

    pool = list(itertools.combinations(range(n), r)) * spec.multiplicity_cap
    rng.shuffle(pool)
    want = rng.randint(0, len(pool))
    edges = []
    for e in pool:
        if len(edges) == want:
            break
        grown = tuple(sorted(edges + [e]))
        if not spec.violates(Hypergraph(n, r, grown)):
            edges = list(grown)
    return Hypergraph(n, r, tuple(edges))


def test_child_violates_matches_full_detector():
    """The anchored test the level search calls for each parent,
    ``new_edge_detector`` in the spec's cycle mode, agrees with the full
    detector on every candidate edge of random family-free parents,
    including edges the parent already holds.  It is None exactly when k
    exceeds the cap for the parent plus one instance, and then the full
    detector finds every candidate free."""
    import itertools
    import random

    import bergeturan.search as search
    from bergeturan.berge import _bounds, new_edge_detector

    rng = random.Random(23)
    seen = {True: 0, False: 0}
    repeated = none = 0
    for _ in range(300):
        n = rng.randint(3, 8)
        r = rng.randint(2, min(4, n))
        spec = FamilySpec(rng.choice(("bp", "bc_exact", "bc_at_least")),
                          rng.randint(2, 6), rng.choice((1, 2)))
        parent = _random_free_parent(rng, n, r, spec)
        mode = search._CYCLE_MODES[spec.kind]
        # The trivial group's pair orbits: each pair is its own.
        test = new_edge_detector(
            parent, spec.k, mode,
            lambda: {p: p for p in itertools.combinations(range(n), 2)})
        cap = _bounds(spec.k, mode, len(parent.edges) + 1, n)[2]
        assert (test is None) == (spec.k > cap), (spec, parent.edges)
        none += test is None
        for e in itertools.combinations(range(n), r):
            expect = spec.violates(parent.with_edge(e))
            assert (False if test is None else test(e)) == expect, (
                spec, parent.edges, e)
            seen[expect] += 1
            repeated += e in parent.edges
    assert min(seen.values()) > 500 and repeated > 500 and none > 20, (
        seen, repeated, none)


def _automorphisms(h):
    """Every vertex map (old -> new) that maps h onto itself, by brute
    force over all n! permutations."""
    import itertools

    degree = [0] * h.n
    for e in h.edges:
        for v in e:
            degree[v] += 1
    return [p for p in itertools.permutations(range(h.n))
            if all(degree[p[v]] == d for v, d in enumerate(degree))
            and sorted([tuple(sorted([p[v] for v in e])) for e in h.edges])
            == list(h.edges)]


def test_orbit_codes_are_the_per_edge_sums(monkeypatch):
    """The codes of all candidates, summed from the combinations of the
    twin weights, equal each candidate's own ``sum(pw[v] for v in e)``
    for random twin lists with r = 2..5, and two candidates share a code
    iff their multisets of twin classes are equal.  In the search, the
    free edges of each kept parent and their codes, which reach the orbit
    search, stay aligned, and none of those edges is at the multiplicity
    cap."""
    import itertools
    import random

    import bergeturan.search as search

    rng = random.Random(83)
    for r in (2, 3, 4, 5):
        for _ in range(30):
            n = rng.randrange(r, 10)
            twin = []
            for _ in range(n):
                twin.append(rng.randrange(max(twin, default=-1) + 2))
            pw = [(r + 1) ** c for c in twin]
            edges = list(itertools.combinations(range(n), r))
            codes = list(map(sum, itertools.combinations(pw, r)))
            assert codes == [sum(pw[v] for v in e) for e in edges], (twin, r)
            assert search._candidate_orbits(edges, codes, pw, [], {}) == codes
            classes = [sorted(twin[v] for v in e) for e in edges]
            for (a, ca), (b, cb) in itertools.combinations(zip(codes, classes), 2):
                assert (a == b) == (ca == cb), (twin, r)

    orbits_of = search._candidate_orbits
    detector = search.new_edge_detector
    parents = []
    capped = []

    def record_parent(h, k, mode, pair_orbits):
        parents.append(h)
        return detector(h, k, mode, pair_orbits)

    def check_codes(allowed, codes, pw, gens, orbit):
        assert codes == [sum(pw[v] for v in e) for e in allowed]
        if len(allowed[0]) == 3:  # the parent's free candidates
            assert all(parents[-1].multiplicity(e) < 2 for e in allowed)
            capped.append(parents[-1].max_multiplicity() == 2)
        return orbits_of(allowed, codes, pw, gens, orbit)

    monkeypatch.setattr(search, "new_edge_detector", record_parent)
    monkeypatch.setattr(search, "_candidate_orbits", check_codes)
    for _ in search._levels(6, 3, FamilySpec("bp", 5, 2)):
        pass
    # The orbit search runs over the free candidates of the 57 parents
    # kept; 38 of them have edges at the cap of 2, dropped with their
    # codes.
    assert len(capped) > 50 and sum(capped) > 30, (len(capped), sum(capped))


@pytest.mark.parametrize("n, r, spec, budget", [
    (6, 2, FamilySpec("bp", 6), None),
    (6, 2, FamilySpec("bp", 5), 300),
    (5, 2, FamilySpec("bp", 5, 2), None),
    (6, 3, FamilySpec("bp", 5), None),
    (6, 3, FamilySpec("bc_at_least", 3), None),
    (6, 4, FamilySpec("bp", 5, 2), None),
])
def test_every_child_of_an_orbit_has_its_first_childs_key(
        n, r, spec, budget, tmp_path, monkeypatch):
    """The search tests only the first child of each twin-orbit code,
    whose verdict every child of the code shares, and canonicalizes only
    the first free child of each orbit of candidate edges under the twin
    swaps and the carried generators, so on every parent it expands, at
    m = 1 and m = 2, every later free child's key is the first child's.
    Those orbits, restricted to the free candidates, are exactly the
    orbits of the parent's automorphism group, found by brute force over
    all n! vertex maps, and so are the pair orbits the detector walks by,
    in a fresh run and in one resumed from a checkpoint (``budget``).
    Every kept parent's free orbits are searched; a parent that skips
    that search has no free candidate or is pruned, and for r = 2 the
    free pairs of such a parent are checked against its pair orbits.
    A parent with no detector (no configuration fits in it plus one
    instance) tests no candidate, and every candidate is free.
    ``skipped`` counts the detector tests and canonicalizations that an
    earlier child stands in for, and ``merges`` the twin-orbit codes the
    generators merge, of pairs and of free candidates.  Every carried
    generator is an automorphism of its parent, every seed an
    automorphism of the child it seeds, and a seeded call returns the
    unseeded result."""
    import itertools
    import json

    import bergeturan.search as search
    from bergeturan.hypergraph import (
        Hypergraph, canonical_form, canonical_key, relabel, twin_classes)

    start = None
    if budget is not None:
        path = tmp_path / "ck.json"
        with pytest.raises(SearchLimitError, match="node budget"):
            exact_ex_conn(n, r, spec, node_budget=budget, checkpoint_path=str(path))
        ck = json.loads(path.read_text())
        start = ([from_canonical_string(k) for k in ck["reps"]], ck["tested"])
    # Per parent: the edges its detector tested, its pair orbit ids if
    # built, the call over its free candidates (edges, orbit ids, merges)
    # if made, and its generators if the orbit search saw them.
    expanded = []
    orbits_of = search._candidate_orbits
    detector = search.new_edge_detector
    canon = search.canonical_form
    seeded = []
    building = []  # non-empty while the detector builds the pair orbits

    def record_detector(h, k, mode, pair_orbits):
        entry = {"tested": [], "pairs": None, "free": None, "none": False}
        expanded.append(entry)

        def record_pairs():
            building.append(True)
            ids = pair_orbits()
            building.pop()
            entry["pairs"] = dict(ids)
            return ids

        violates_with = detector(h, k, mode, record_pairs)
        if violates_with is None:
            entry["none"] = True
            return None

        def record_test(e):
            entry["tested"].append(e)
            return violates_with(e)

        return record_test

    def record_orbits(allowed, codes, pw, gens, orbit):
        orbits = orbits_of(allowed, codes, pw, gens, orbit)
        entry = expanded[-1]
        entry["gens"] = [list(g) for g in gens]
        if not building:
            assert entry["free"] is None
            merges = len(set(codes)) - len(set(orbits))
            entry["free"] = (allowed, orbits, merges)
        return orbits

    def record_canon(h, automorphisms=None):
        seeds = None if automorphisms is None else list(automorphisms)
        out = canon(h, automorphisms)
        seeded.append((h, seeds, out))
        return out

    monkeypatch.setattr(search, "new_edge_detector", record_detector)
    monkeypatch.setattr(search, "_candidate_orbits", record_orbits)
    monkeypatch.setattr(search, "canonical_form", record_canon)
    # The representatives in the order they are expanded; a resumed
    # level is yielded too.
    parents = []
    for _, reps, _, _ in search._levels(n, r, spec, start=start):
        parents += reps
    assert len(parents) == len(expanded)
    skipped = merges = searched = 0
    for parent, entry in zip(parents, expanded):
        for g in entry.get("gens", []):
            assert relabel(parent, tuple(g)) == parent, (parent, g)
        aut = _automorphisms(parent)

        def aut_orbits(edges):
            return {frozenset(tuple(sorted([p[v] for v in e])) for p in aut)
                    for e in edges}

        pw = [(r + 1) ** c for c in twin_classes(parent.vertex_instances())]
        if entry["pairs"] is not None:
            members = {}
            for pair, orbit in entry["pairs"].items():
                members.setdefault(orbit, set()).add(pair)
            pairs = list(itertools.combinations(range(n), 2))
            assert {frozenset(m) for m in members.values()} == aut_orbits(pairs)
            merges += len({pw[u] + pw[v] for u, v in pairs}) - len(members)
        allowed = [e for e in itertools.combinations(range(n), r)
                   if parent.multiplicity(e) < spec.multiplicity_cap]
        free = [e for e in allowed if not spec.violates(parent.with_edge(e))]
        if entry["none"]:
            # No configuration fits: every candidate is free, and none
            # meets a detector.
            assert free == allowed and not entry["tested"], parent
        else:
            # Every child shares the verdict of the first child of its
            # twin-orbit code, which alone meets the detector.
            verdict = {}
            tested = []
            for e in allowed:
                code = sum(pw[v] for v in e)
                if code in verdict:
                    skipped += 1
                else:
                    tested.append(e)
                assert verdict.setdefault(code, e in free) == (e in free), (
                    parent, e)
            assert entry["tested"] == tested, parent
        # Every kept parent's free orbits are searched: one that skips the
        # search has no free candidate or is pruned.
        closure = Hypergraph(n, r, parent.edges + tuple(free))
        kept = bool(free) and is_connected(closure)
        assert (entry["free"] is not None) == kept, parent
        if entry["free"] is not None:
            edges, orbits, merged = entry["free"]
            assert edges == free, parent
        elif r == 2 and entry["pairs"] is not None:
            # A pruned parent whose pair orbits were built: they still
            # give the orbits of its free pairs, which are checked too.
            edges, orbits = free, [entry["pairs"][e] for e in free]
            merged = (len({sum(pw[v] for v in e) for e in free})
                      - len(set(orbits)))
        else:
            continue
        searched += 1
        merges += merged
        # Every free child shares the key of the first child of its orbit,
        # which alone is canonicalized.
        first = {}
        members = {}
        for e, orbit in zip(edges, orbits):
            key = canonical_key(parent.with_edge(e))
            skipped += orbit in first
            assert first.setdefault(orbit, key) == key, (parent, e)
            members.setdefault(orbit, set()).add(e)
        assert {frozenset(m) for m in members.values()} == aut_orbits(free), parent
    assert skipped > 100 and merges > 20, (skipped, merges)
    assert searched > len(parents) // 3, (searched, len(parents))
    for h, seeds, out in seeded:
        assert out == canonical_form(h), h
        for g in seeds or []:
            assert relabel(h, tuple(g)) == h, (h, g)


def test_pair_orbits_are_built_only_where_the_detector_walks(monkeypatch):
    """The level search hands every detector a pair-orbit builder, and a
    detector that cannot walk never calls it: at (6,2,BP6) a Berge path
    of length 6 needs 7 vertices, so no parent builds its pair orbits.
    At (6,2,BP5) parents do."""
    import bergeturan.search as search

    detector = search.new_edge_detector
    calls = {"detectors": 0, "built": 0}

    def counting_detector(h, k, mode, pair_orbits):
        calls["detectors"] += 1

        def counting_pairs():
            calls["built"] += 1
            return pair_orbits()

        return detector(h, k, mode, counting_pairs)

    monkeypatch.setattr(search, "new_edge_detector", counting_detector)
    enumerate_connected_free(6, 2, FamilySpec("bp", 6))
    assert calls["detectors"] > 100 and calls["built"] == 0, calls
    enumerate_connected_free(6, 2, FamilySpec("bp", 5))
    assert calls["built"] > 20, calls


def test_a_parent_with_every_candidate_free_reaches_a_connected_closure():
    """The level search skips the reachability check of a parent that
    rejects no candidate: its closure, the parent plus every candidate
    below the multiplicity cap, is the complete r-graph, since each other
    r-set is a parent edge at the cap.  On random free parents, for paths
    and both cycle modes, m = 1 and 2 and r = 2..4, whenever the full
    detector finds every such candidate free, that closure is connected
    and spanning."""
    import itertools
    import random

    from bergeturan.hypergraph import Hypergraph

    rng = random.Random(31)
    all_free = {kind: 0 for kind in ("bp", "bc_exact", "bc_at_least")}
    for _ in range(400):
        n = rng.randint(4, 7)
        r = rng.randint(2, min(4, n))
        spec = FamilySpec(rng.choice(tuple(all_free)), rng.randint(2, 6),
                          rng.choice((1, 2)))
        parent = _random_free_parent(rng, n, r, spec)
        allowed = tuple(e for e in itertools.combinations(range(n), r)
                        if parent.multiplicity(e) < spec.multiplicity_cap)
        if any(spec.violates(parent.with_edge(e)) for e in allowed):
            continue
        all_free[spec.kind] += 1
        assert is_connected(Hypergraph(n, r, parent.edges + allowed)), (
            spec, parent.edges)
    assert min(all_free.values()) > 20, all_free


@pytest.mark.parametrize("n, r, k, checks, prunes, no_detector, parents", [
    (7, 2, 7, 0, 0, 1044, 1044),
    (10, 3, 4, 51, 23, 5, 71),
    (10, 5, 5, 0, 0, 35, 359),
    (11, 4, 4, 29, 20, 6, 50),
    (8, 2, 6, 496, 97, 20, 654),
])
def test_reachability_checks_run_only_where_a_candidate_is_rejected(
        monkeypatch, n, r, k, checks, prunes, no_detector, parents):
    """A parent where no Berge path of length k fits in it plus one
    instance gets no detector (None) and tests no candidate, and only a
    parent that rejects some candidate builds its closure and checks that
    it connects.  The prunes are those of the search that checked every
    parent with a free candidate; that search made 1,043, 57, 35, 35 and
    644 checks at these points: the 7-vertex graph population and
    (10,3,BP4), (10,5,BP5), (11,4,BP4) and (8,2,BP6)."""
    import bergeturan.search as search

    detector, connected = search.new_edge_detector, search.is_connected
    calls = {"detectors": 0, "none": 0, "checks": 0, "prunes": 0}

    def counting_detector(*args):
        test = detector(*args)
        calls["detectors"] += 1
        calls["none"] += test is None
        return test

    def counting_connected(h):
        calls["checks"] += 1
        ok = connected(h)
        calls["prunes"] += not ok
        return ok

    monkeypatch.setattr(search, "new_edge_detector", counting_detector)
    # In the level search, is_connected only tests a parent's closure.
    monkeypatch.setattr(search, "is_connected", counting_connected)
    for _ in search._levels(n, r, FamilySpec("bp", k)):
        pass
    assert calls == {"detectors": parents, "none": no_detector,
                     "checks": checks, "prunes": prunes}, calls


def test_one_orbit_memo_serves_pairs_and_free_candidates(monkeypatch):
    """A parent's pair orbits and free-candidate orbits share one memo of
    twin-orbit codes.  For r = 3..5 and random twin lists no pair code
    equals an r-set code, so neither kind reads the other's entries.  At
    r = 2 the free candidates are pairs: in (6,2,BP5), every parent whose
    detector built its pair orbits, through a memo of its own, adds no
    entry in its call over its free candidates, and that call gives them
    their pairs' orbit ids."""
    import itertools
    import random

    import bergeturan.search as search

    rng = random.Random(61)
    for r in (3, 4, 5):
        for _ in range(40):
            n = rng.randrange(r, 11)
            twin = []
            for _ in range(n):
                twin.append(rng.randrange(max(twin, default=-1) + 2))
            pw = [(r + 1) ** c for c in twin]
            pair_codes = set(map(sum, itertools.combinations(pw, 2)))
            set_codes = set(map(sum, itertools.combinations(pw, r)))
            assert not pair_codes & set_codes, (twin, r)

    orbits_of = search._candidate_orbits
    detector = search.new_edge_detector
    parents = []  # per parent: its calls as (memo, allowed, ids, entries added)
    building = []  # non-empty while the detector builds the pair orbits

    def record_detector(h, k, mode, pair_orbits):
        parents.append({})

        def record_pairs():
            building.append(True)
            ids = pair_orbits()
            building.pop()
            return ids

        return detector(h, k, mode, record_pairs)

    def record_orbits(allowed, codes, pw, gens, orbit):
        size = len(orbit)
        ids = orbits_of(allowed, codes, pw, gens, orbit)
        kind = "pairs" if building else "free"
        assert kind not in parents[-1]
        parents[-1][kind] = (orbit, allowed, ids, len(orbit) - size)
        return ids

    monkeypatch.setattr(search, "new_edge_detector", record_detector)
    monkeypatch.setattr(search, "_candidate_orbits", record_orbits)
    enumerate_connected_free(6, 2, FamilySpec("bp", 5))
    both = filled = 0
    memos = set()
    for calls in parents:
        if "pairs" not in calls:
            continue
        memo, pairs, pair_ids, added = calls["pairs"]
        assert id(memo) not in memos
        memos.add(id(memo))
        filled += added > 0
        if "free" not in calls:
            continue
        both += 1
        free_memo, free, ids, free_added = calls["free"]
        assert free_memo is memo and free_added == 0
        orbit_of = dict(zip(pairs, pair_ids))
        assert ids == [orbit_of[e] for e in free]
    assert both > 20 and filled > 20, (both, filled)


def test_anchored_walks_are_pinned(monkeypatch):
    """At most one anchored walk per pair orbit of each parent, only for
    the first candidate of each twin-orbit code, and none for a pair a
    witness has already proved: (8,3,BP4) takes 114 walks (162 when each
    walk answered only its own pair, 192 when every pair of a tested
    candidate was walked)."""
    from bergeturan import berge

    walk = berge._walk
    walks = []

    def counting_walk(*args, **kwargs):
        walks.append(args[3])
        return walk(*args, **kwargs)

    monkeypatch.setattr(berge, "_walk", counting_walk)
    out = exact_ex_conn(8, 3, FamilySpec("bp", 4))
    assert (out.value, out.nodes_explored) == (6, 1528)
    assert len(walks) == 114 and all(a is not None for a in walks)


def _levels_with_and_without_deletion_test(n, r, spec, **kw):
    """Per-level (level, keys, tested) and the canonical_form call count
    of the search, then of the same search with the deletion test forced
    to accept every child."""
    import bergeturan.search as search

    canon = search.canonical_form
    out = []
    for accept_all in (False, True):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "canonical_form",
                       lambda h, automorphisms=None:
                       calls.append(1) or canon(h, automorphisms))
            if accept_all:
                mp.setattr(search, "_passes_deletion_test", lambda *a: True)
            levels = [(level, keys, tested)
                      for level, _, keys, tested in search._levels(n, r, spec, **kw)]
        out += [levels, len(calls)]
    return out


def test_deletion_test_keeps_every_level():
    """The deletion test skips most first children without changing any
    level's keys or tested count, at m = 1 and m = 2, for paths and both
    cycle modes, on whole graph populations, and where a prune turns the
    test off from its level on."""
    grid = [
        (8, 3, FamilySpec("bp", 4)),
        (10, 3, FamilySpec("bp", 4)),
        (7, 3, FamilySpec("bp", 4, 2)),
        (6, 3, FamilySpec("bp", 5)),
        (4, 2, FamilySpec("bp", 3, 2)),
        (5, 2, FamilySpec("bp", 5, 2)),
        (6, 2, FamilySpec("bp", 6)),
        (7, 3, FamilySpec("bc_exact", 4)),
        (7, 3, FamilySpec("bc_at_least", 4)),
        (5, 2, FamilySpec("bc_at_least", 4, 2)),
    ]
    skipped = 0
    for n, r, spec in grid:
        levels, calls, forced, forced_calls = (
            _levels_with_and_without_deletion_test(n, r, spec))
        assert levels == forced, (n, r, spec)
        assert calls <= forced_calls, (n, r, spec)
        skipped += forced_calls - calls
    assert skipped > 3000, skipped


def test_a_pruning_level_applies_no_deletion_test(monkeypatch):
    """At (7,3,BP4, m = 2) the deletion test runs at every level before
    the first one whose expand pass prunes a parent, and at none from it
    on, since a pruned parent may have held the only passing child of a
    class.  Every level equals the search without the test."""
    import bergeturan.search as search

    n, r, spec = 7, 3, FamilySpec("bp", 4, 2)
    passes, connected = search._passes_deletion_test, search.is_connected
    calls = []  # "test" or "prune", since the last level was yielded
    monkeypatch.setattr(search, "_passes_deletion_test",
                        lambda *a: calls.append("test") or passes(*a))
    # In the level search, is_connected only tests a parent's closure.
    monkeypatch.setattr(search, "is_connected",
                        lambda h: connected(h) or calls.append("prune") or False)
    expanded = []   # per level expanded: (deletion tests, prunes)
    for i, _ in enumerate(search._levels(n, r, spec)):
        if i:
            expanded.append((calls.count("test"), calls.count("prune")))
        calls.clear()
    first = next(level for level, (_, prunes) in enumerate(expanded) if prunes)
    assert first == 3, expanded
    assert all(tests for tests, _ in expanded[:first]), expanded
    assert not any(tests for tests, _ in expanded[first:]), expanded
    monkeypatch.undo()
    levels, _, forced, _ = _levels_with_and_without_deletion_test(n, r, spec)
    assert levels == forced


@pytest.mark.parametrize("budget, level", [(150, 2), (300, 3)])
def test_deletion_test_is_off_after_a_checkpoint_resume(tmp_path, budget, level):
    """A resumed run cannot know that its first level is complete, so it
    canonicalizes every first child: its levels, its keys and its
    canonical_form calls are those of the search without the test, and
    its outcome is the fresh run's.  The fresh run prunes its first
    parent while expanding level 3, so at level 2 the test would still
    skip children."""
    import json

    import bergeturan.search as search
    from bergeturan.hypergraph import from_canonical_string

    n, r, spec = 8, 3, FamilySpec("bp", 4)
    fresh = exact_ex_conn(n, r, spec).stable_json()
    path = tmp_path / "ck.json"
    with pytest.raises(SearchLimitError,
                       match=f"exceeded while expanding level {level}$"):
        exact_ex_conn(n, r, spec, node_budget=budget, checkpoint_path=str(path))
    ck = json.loads(path.read_text())
    start = ([from_canonical_string(k) for k in ck["reps"]], ck["tested"])
    levels, calls, forced, forced_calls = (
        _levels_with_and_without_deletion_test(n, r, spec, start=start))
    assert levels == forced and calls == forced_calls
    fresh_levels = [(level, keys, tested) for level, _, keys, tested
                    in search._levels(n, r, spec)]
    # A key's instance count is its number of ";".
    assert levels == fresh_levels[ck["reps"][0].count(";"):]
    assert exact_ex_conn(n, r, spec, checkpoint_path=str(path)).stable_json() == fresh


def _deletion_verdicts(edges, n):
    """For each distinct edge e of the instance list ``edges``: whether
    the child ``edges`` passes the deletion test with e as its new edge,
    and whether it passes the degree-and-multiplicity test alone."""
    import bergeturan.search as search

    out = {}
    for e in set(edges):
        parent = list(edges)
        parent.remove(e)
        counts, degree = {}, [0] * n
        for f in parent:
            counts[f] = counts.get(f, 0) + 1
            for v in f:
                degree[v] += 1
        child_degree = [d + (v in e) for v, d in enumerate(degree)]

        def plain(f, c):
            return sorted([child_degree[v] for v in f], reverse=True) + [c]

        own = plain(e, counts.get(e, 0) + 1)
        weight = [(len(e) + 1) ** d for d in degree]
        out[e] = (search._passes_deletion_test(counts, weight, e),
                  all(plain(f, c) <= own for f, c in counts.items() if f != e))
    return out


def test_deletion_test_is_an_isomorphism_invariant():
    """On random children at m = 1 and m = 2, relabeled by random vertex
    permutations, every edge's verdict equals its image's.  Some edge of
    each child passes; a passing edge also passes the degree test alone,
    whose ties the refinement rounds break on many children."""
    import itertools
    import random

    rng = random.Random(29)
    broken = 0
    for _ in range(400):
        n = rng.randint(4, 9)
        r = rng.randint(2, min(4, n - 1))
        m = rng.choice((1, 2))
        pool = list(itertools.combinations(range(n), r)) * m
        edges = sorted(rng.sample(pool, rng.randint(1, min(len(pool), 3 * n))))
        verdicts = _deletion_verdicts(edges, n)
        assert any(new for new, _ in verdicts.values()), edges
        assert all(old for new, old in verdicts.values() if new), edges
        broken += sum(old and not new for new, old in verdicts.values())
        for _ in range(3):
            p = list(range(n))
            rng.shuffle(p)
            image = {e: tuple(sorted(p[v] for v in e)) for e in verdicts}
            moved = _deletion_verdicts(sorted(image[e] for e in edges), n)
            assert {image[e]: v for e, v in verdicts.items()} == moved, (edges, p)
    assert broken > 100, broken


@pytest.mark.parametrize("n, r, spec, calls_at_most, classes", [
    (7, 2, FamilySpec("bp", 7), 1100, 1044),
    (10, 5, FamilySpec("bp", 5), 370, 359),
])
def test_canonical_form_calls_are_near_the_class_count(
        n, r, spec, calls_at_most, classes, monkeypatch):
    """Breaking the degree test's ties by refinement takes the n = 7
    graph population from 1,567 canonical_form calls to 1,058, and
    (10,5,BP5), whose expand passes prune no parent, from 413 to its
    class count.  No search can call fewer times than its levels hold
    classes, the root included."""
    import bergeturan.search as search

    canon = search.canonical_form
    calls = []
    monkeypatch.setattr(search, "canonical_form",
                        lambda h, automorphisms=None:
                        calls.append(1) or canon(h, automorphisms))
    found = sum(len(reps) for _, reps, _, _ in search._levels(n, r, spec))
    assert found == classes
    assert classes <= len(calls) <= calls_at_most, len(calls)


# -- exact values --------------------------------------------------------

def test_bp3_r3_pattern():
    expected = {3: 1, 4: 2, 5: 2, 6: None, 7: 3, 8: None, 9: 4}
    for n, val in expected.items():
        out = exact_ex_conn(n, 3, FamilySpec("bp", 3))
        if val is None:
            assert out.status == "infeasible", n
        else:
            assert out.status == "value" and out.value == val, n


def test_bp3_r4_small():
    # n <= 2r-2 = 6: two overlapping edges; n = 7 needs (r-1) | (n-1) = 6/3.
    assert exact_ex_conn(5, 4, FamilySpec("bp", 3)).value == 2
    assert exact_ex_conn(6, 4, FamilySpec("bp", 3)).value == 2
    assert exact_ex_conn(7, 4, FamilySpec("bp", 3)).value == 2


def test_bp4_r4_small_values():
    # No 4-edge BP_4-free 4-uniform hypergraph exists on n <= 9 at all
    # (labeled brute force), so the connected maxima are all 3.
    for n in (6, 7, 8):
        out = exact_ex_conn(n, 4, FamilySpec("bp", 4))
        assert out.status == "value" and out.value == 3, n


def test_bp4_r4_n10_is_four():
    out = exact_ex_conn(10, 4, FamilySpec("bp", 4), force=True)
    assert out.value == 4
    assert out.extremal_class_count == 1
    # The unique extremal class is the 2-core sunflower.
    w = from_canonical_string(out.witnesses[0])
    cores = set(w.edges[0])
    for e in w.edges[1:]:
        cores &= set(e)
    assert len(cores) == 2


def test_r2_matches_connected_graph_formula():
    for n, k in [(5, 4), (6, 4), (6, 5), (7, 5)]:
        out = exact_ex_conn(n, 2, FamilySpec("bp", k))
        assert out.value == classical_bound("kopylov", n, 2, k).value


@pytest.mark.parametrize("k", [4, 5, 6])
def test_r2_at_n_equal_k_is_the_complete_graph(k):
    """A path of length k needs k+1 vertices, so at n = k the complete
    graph is free: the dispatcher gives C(k, 2), exact, and Kopylov's
    formula, which undercounts there, is out of range."""
    from math import comb

    from bergeturan.formulas import FormulaRangeError, conn_bp_value

    out = exact_ex_conn(k, 2, FamilySpec("bp", k))
    res = conn_bp_value(k, 2, k)
    assert out.value == res.value == comb(k, 2) and res.regime == "exact"
    with pytest.raises(FormulaRangeError):
        classical_bound("kopylov", k, 2, k)


@pytest.mark.parametrize("n, r, spec", [
    (5, 3, FamilySpec("bp", 5)),
    (5, 3, FamilySpec("bp", 6)),
    (4, 3, FamilySpec("bp", 4, 2)),
    (5, 3, FamilySpec("bc_exact", 6)),
    (4, 2, FamilySpec("bc_at_least", 5)),
    (3, 3, FamilySpec("bp", 3)),
])
def test_trivial_regime_matches_the_level_search(n, r, spec, tmp_path):
    """Where the family cannot fit (a path with n <= k, a cycle with
    n < k), ``exact_ex_conn`` searches nothing, yet its value, witnesses
    and class count are those of the level search's last connected
    level.  A checkpoint gets the finished state, and a run resumed from
    it gives the same outcome."""
    import json

    import bergeturan.search as search

    for level, reps, keys, _ in search._levels(n, r, spec):
        conn = [k.decode() for k, h in zip(keys, reps) if is_connected(h)]
        if conn:
            best = level, conn
    path = tmp_path / "ck.json"
    out = exact_ex_conn(n, r, spec, witness_cap=10**9, checkpoint_path=str(path))
    assert (out.status, out.value, out.witnesses, out.extremal_class_count,
            out.nodes_explored) == ("value", best[0], best[1], len(best[1]), 0)
    ck = json.loads(path.read_text())
    assert (ck["reps"], ck["tested"], ck["best_keys"]) == ([], 0, best[1])
    again = exact_ex_conn(n, r, spec, witness_cap=10**9,
                          checkpoint_path=str(path))
    assert again.stable_json() == out.stable_json()


def test_trivial_regime_keeps_every_refusal_and_its_bounds(tmp_path):
    """The limits, the arguments and a checkpoint are checked before the
    trivial answer, and one vertex more than the family needs searches."""
    with pytest.raises(SearchLimitError, match="default search limit"):
        exact_ex_conn(10, 4, FamilySpec("bp", 10))
    with pytest.raises(ValueError, match="witness_cap"):
        exact_ex_conn(7, 4, FamilySpec("bp", 7), witness_cap=-1)
    path = tmp_path / "ck.json"
    path.write_text("not json")
    with pytest.raises(SearchLimitError, match="not JSON"):
        exact_ex_conn(7, 4, FamilySpec("bp", 7), checkpoint_path=str(path))
    other = tmp_path / "other.json"
    exact_ex_conn(5, 3, FamilySpec("bp", 5), checkpoint_path=str(other))
    with pytest.raises(SearchLimitError, match="this run reads"):
        exact_ex_conn(5, 3, FamilySpec("bp", 6), checkpoint_path=str(other))
    out = exact_ex_conn(7, 4, FamilySpec("bp", 7), witness_cap=0)
    assert (out.value, out.witnesses, out.extremal_class_count) == (35, [], 1)
    assert exact_ex_conn(5, 3, FamilySpec("bp", 4)).nodes_explored > 0
    assert exact_ex_conn(5, 3, FamilySpec("bc_exact", 5)).nodes_explored > 0


def test_witness_soundness():
    out = exact_ex_conn(7, 3, FamilySpec("bp", 3))
    assert out.witnesses
    for s in out.witnesses:
        h = from_canonical_string(s)
        assert is_connected(h)
        assert not contains_berge_path(h, 3)
        assert h.num_edges() == out.value


def test_lower_bound_dominance_vs_sunflower():
    for n in (5, 6, 7):
        out = exact_ex_conn(n, 3, FamilySpec("bp", 4))
        assert out.value >= sunflower_family(n, 3).num_edges()


def test_upper_bound_dominance_vs_kostochka_luo():
    for r in (3, 4):
        for k in range(3, r + 1):
            for n in range(r, 8):
                out = exact_ex_conn(n, r, FamilySpec("bp", k))
                if out.status != "value":
                    continue
                assert out.value <= classical_bound("kostochka_luo", n, r, k).value


def test_connected_cycle_values_within_exact_formula():
    # The unconstrained maximum for forbidden long cycles is known in
    # closed form for r > k; the connected maximum can only be smaller.
    for r, k, n in [(4, 3, 6), (4, 3, 7), (4, 3, 8), (5, 3, 7), (5, 4, 8)]:
        out = exact_ex_conn(n, r, FamilySpec("bc_at_least", k))
        if out.status != "value":
            continue
        assert out.value <= bc_value("glsz_small", n, r, k).value, (r, k, n)


def test_multi_cycle_bound():
    # BC_{>=k}-free multi-hypergraphs with cap k-2 obey
    # (k-1) * floor((n-1)/(r-1)); sweep a small grid.
    for r, k, n in [(3, 3, 5), (3, 3, 6), (4, 3, 6), (4, 4, 6), (4, 4, 7)]:
        cap = max(1, k - 2)
        out = exact_ex_conn(n, r, FamilySpec("bc_at_least", k, multiplicity_cap=cap))
        if out.status != "value":
            continue
        assert out.value <= bc_value("multi", n, r, k).value, (r, k, n)


def test_multiplicity_cap_changes_values():
    simple = exact_ex_conn(4, 3, FamilySpec("bp", 3))
    multi = exact_ex_conn(4, 3, FamilySpec("bp", 3, multiplicity_cap=2))
    assert simple.value == 2
    assert multi.value == 2  # a second copy would create the length-3 path
    multi_bc = exact_ex_conn(4, 3, FamilySpec("bc_at_least", 3, multiplicity_cap=2))
    assert multi_bc.value >= simple.value


def test_infeasible_certificate():
    out = exact_ex_conn(6, 3, FamilySpec("bp", 3))
    assert out.status == "infeasible"
    assert out.value is None and out.witnesses == []


def _brute_force_max(n, r, spec):
    """Independent oracle: scan the full labeled power set of candidate
    instances (each vertex set up to the multiplicity cap), no pruning,
    no isomorphism machinery."""
    import itertools

    from bergeturan.hypergraph import Hypergraph

    pool = [
        e
        for e in itertools.combinations(range(n), r)
        for _ in range(spec.multiplicity_cap)
    ]
    best = None
    for mask in range(1 << len(pool)):
        chosen = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        counts = {}
        for e in chosen:
            counts[e] = counts.get(e, 0) + 1
        if any(c > spec.multiplicity_cap for c in counts.values()):
            continue
        h = Hypergraph(n, r, tuple(sorted(chosen)))
        if not is_connected(h) or spec.violates(h):
            continue
        if best is None or len(chosen) > best:
            best = len(chosen)
    return best


def test_search_matches_power_set_brute_force():
    cases = [
        (4, 3, FamilySpec("bp", 3)),
        (5, 3, FamilySpec("bp", 3)),
        (5, 3, FamilySpec("bp", 4)),
        (5, 3, FamilySpec("bc_at_least", 3)),
        (5, 4, FamilySpec("bp", 4)),
        (4, 3, FamilySpec("bp", 3, multiplicity_cap=2)),
        (4, 3, FamilySpec("bc_exact", 2)),
    ]
    for n, r, spec in cases:
        expect = _brute_force_max(n, r, spec)
        out = exact_ex_conn(n, r, spec)
        got = out.value if out.status == "value" else None
        assert got == expect, (n, r, spec)


# -- determinism and limits ------------------------------------------------

def test_worker_counts_do_not_change_reports():
    base = exact_ex_conn(7, 3, FamilySpec("bp", 3), workers=1).stable_json()
    for w in (2, 8):
        assert exact_ex_conn(7, 3, FamilySpec("bp", 3), workers=w).stable_json() == base


def test_repeat_runs_are_byte_stable():
    a = exact_ex_conn(6, 3, FamilySpec("bp", 4)).stable_json()
    b = exact_ex_conn(6, 3, FamilySpec("bp", 4)).stable_json()
    assert a == b


def test_default_limits_enforced():
    assert [default_n_limit(2, m) for m in range(1, 6)] == [12, 12, 12, 11, 10]
    assert [default_n_limit(r) for r in range(2, 13)] == [
        12, 9, 8, 9, 9, 10, 10, 11, 12, 12, 12]
    with pytest.raises(SearchLimitError):
        exact_ex_conn(10, 3, FamilySpec("bp", 3))
    with pytest.raises(SearchLimitError):
        exact_ex_conn(2, 3, FamilySpec("bp", 3))


def test_default_limit_past_the_canonical_limit():
    # n >= r > 12 is beyond exact canonicalization, so there is no limit.
    with pytest.raises(SearchLimitError, match="n <= 12"):
        default_n_limit(13)


@pytest.mark.parametrize("r", [1, 0, -1])
def test_default_limit_rejects_r_below_two(r):
    with pytest.raises(SearchLimitError, match=f"r must be >= 2, got r={r}"):
        default_n_limit(r)


def test_node_budget():
    with pytest.raises(SearchLimitError):
        exact_ex_conn(7, 3, FamilySpec("bp", 3), node_budget=10)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_node_budget_holds_inside_a_level(monkeypatch, workers):
    """The node budget is checked after each parent, so the search stops
    at most one parent's candidates past it, at any worker count, and
    names the level."""
    from math import comb

    from bergeturan.hypergraph import Hypergraph

    tested = []
    with_edge = Hypergraph.with_edge
    monkeypatch.setattr(Hypergraph, "with_edge",
                        lambda h, e: tested.append(e) or with_edge(h, e))
    with pytest.raises(SearchLimitError,
                       match="node budget 300 exceeded while expanding level 3"):
        exact_ex_conn(8, 3, FamilySpec("bp", 4), node_budget=300,
                      workers=workers)
    assert 300 < len(tested) <= 300 + comb(8, 3)


def test_with_edge_calls_count_the_nodes_explored(monkeypatch, tmp_path):
    """The traced benchmark counts tested children by their
    ``Hypergraph.with_edge`` calls, so the search makes exactly one per
    child counted in ``nodes_explored``: where the prune cuts parents
    (from level 3 of (10,3,BP4)), where it cuts them while the deletion
    test is on (7,3,BP4, m = 2), for a cycle family, and in a resumed
    run, which calls it only for the children it tests itself."""
    import json

    from bergeturan.hypergraph import Hypergraph

    calls = []
    with_edge = Hypergraph.with_edge
    monkeypatch.setattr(Hypergraph, "with_edge",
                        lambda h, e: calls.append(e) or with_edge(h, e))
    for n, r, spec in [(10, 3, FamilySpec("bp", 4)),
                       (7, 3, FamilySpec("bp", 4, 2)),
                       (7, 3, FamilySpec("bc_at_least", 4))]:
        calls.clear()
        out = exact_ex_conn(n, r, spec, force=True)
        assert len(calls) == out.nodes_explored, (n, r, spec)
    path = tmp_path / "ck.json"
    spec = FamilySpec("bp", 4)
    with pytest.raises(SearchLimitError, match="node budget 3000 exceeded"):
        exact_ex_conn(10, 3, spec, force=True, node_budget=3000,
                      checkpoint_path=str(path))
    before = json.loads(path.read_text())["tested"]
    calls.clear()
    out = exact_ex_conn(10, 3, spec, force=True, checkpoint_path=str(path))
    assert 0 < before and len(calls) == out.nodes_explored - before


def test_time_budget(tmp_path):
    with pytest.raises(SearchLimitError):
        exact_ex_conn(9, 3, FamilySpec("bp", 4), time_budget=0.0)


def test_time_budget_holds_inside_a_level(monkeypatch, tmp_path):
    """A clock that advances one second per reading runs out after the
    first of level 2's parents: the search stops there, before level 3
    is reported, and says which level it was expanding."""
    import itertools
    import json
    import time
    import types

    import bergeturan.search as search

    readings = itertools.count()
    monkeypatch.setattr(search, "time", types.SimpleNamespace(
        monotonic=lambda: float(next(readings)),
        perf_counter=time.perf_counter,
    ))
    path = tmp_path / "ck.json"
    # Readings: 0 sets the deadline.  Each kept parent reads the clock
    # once per pass: 1-2 (root) and 3-4 (level 1) are within it, and so
    # is 5 (the first level-2 parent's expand pass); 6 (the second) is not.
    with pytest.raises(SearchLimitError, match="while expanding level 2"):
        exact_ex_conn(7, 3, FamilySpec("bp", 3), time_budget=5.5,
                      checkpoint_path=str(path))
    ck = json.loads(path.read_text())
    # A key's instance count is its number of ";".
    assert len(ck["reps"]) > 1 and {k.count(";") for k in ck["reps"]} == {2}


def test_time_budget_holds_in_the_admission_pass(monkeypatch):
    """A clock that advances one second per reading and runs out just
    after a level's expand pass stops the search at the first reading of
    that level's admit pass, and the error names the level.  At
    (7,3,BP4, m = 2) level 2 prunes nothing and level 3 prunes first."""
    import time
    import types

    import bergeturan.search as search

    n, r, spec = 7, 3, FamilySpec("bp", 4, 2)
    readings = []   # reading i returns i
    monkeypatch.setattr(search, "time", types.SimpleNamespace(
        monotonic=lambda: float(readings.append(None) or len(readings) - 1),
        perf_counter=time.perf_counter,
    ))
    for stop in (2, 3):
        readings.clear()
        for level, reps, _, _ in search._levels(n, r, spec, time_budget=1e9):
            if level == stop:
                # The expand pass reads the clock once per parent.
                last_expand = len(readings) + len(reps) - 1
                break
        readings.clear()
        levels = search._levels(n, r, spec, time_budget=last_expand + 0.5)
        with pytest.raises(
                SearchLimitError,
                match=f"time budget exceeded while expanding level {stop}$"):
            for level, *_ in levels:
                assert level <= stop
        assert len(readings) == last_expand + 2


@pytest.mark.parametrize("budget, level", [(100, 2), (200, 3)])
def test_checkpoint_resume_matches_fresh_run(tmp_path, budget, level):
    spec = FamilySpec("bp", 3)
    fresh = exact_ex_conn(7, 3, spec).stable_json()
    path = str(tmp_path / "ck.json")
    # Abort mid-run via a node budget, then resume to completion.  At
    # budget 200 the search stops while expanding its last level.
    with pytest.raises(SearchLimitError,
                       match=f"exceeded while expanding level {level}$"):
        exact_ex_conn(7, 3, spec, node_budget=budget, checkpoint_path=path)
    resumed = exact_ex_conn(7, 3, spec, checkpoint_path=path).stable_json()
    assert resumed == fresh
    # Resuming a complete checkpoint is a no-op with the same outcome.
    again = exact_ex_conn(7, 3, spec, checkpoint_path=path)
    assert again.stable_json() == fresh
    assert again.nodes_explored > 0


def test_checkpoint_resume_with_carried_generators(tmp_path, monkeypatch):
    """Representatives resumed from a checkpoint get their generators from
    one canonicalization each, so every parent of the resumed levels has
    as many candidate orbits as in the fresh run, and the outcome is the
    fresh run's."""
    import bergeturan.search as search

    counts = []     # orbits per expanded parent, in expansion order
    orbits_of = search._candidate_orbits

    def record(allowed, twin, r, gens, orbit):
        orbits = orbits_of(allowed, twin, r, gens, orbit)
        counts.append(len(set(orbits)))
        return orbits

    monkeypatch.setattr(search, "_candidate_orbits", record)
    n, r, spec = 10, 3, FamilySpec("bp", 4)
    fresh = exact_ex_conn(n, r, spec, force=True).stable_json()
    in_fresh = counts.copy()
    path = str(tmp_path / "ck.json")
    with pytest.raises(SearchLimitError, match="node budget 3000 exceeded"):
        exact_ex_conn(n, r, spec, force=True, node_budget=3000,
                      checkpoint_path=path)
    counts.clear()
    resumed = exact_ex_conn(n, r, spec, force=True, checkpoint_path=path)
    assert resumed.stable_json() == fresh
    assert 0 < len(counts) < len(in_fresh)
    assert counts == in_fresh[-len(counts):], (sum(counts), sum(in_fresh))


def test_checkpoint_rejects_mismatched_run(tmp_path):
    path = str(tmp_path / "ck.json")
    exact_ex_conn(5, 3, FamilySpec("bp", 3), checkpoint_path=path)
    with pytest.raises(SearchLimitError):
        exact_ex_conn(6, 3, FamilySpec("bp", 3), checkpoint_path=path)


def test_witness_cap():
    out = exact_ex_conn(8, 4, FamilySpec("bp", 4), witness_cap=2)
    assert len(out.witnesses) == 2
    assert out.extremal_class_count == 6
    assert exact_ex_conn(7, 3, FamilySpec("bp", 3), witness_cap=0).witnesses == []
    with pytest.raises(ValueError, match="witness_cap"):
        exact_ex_conn(7, 3, FamilySpec("bp", 3), witness_cap=-1)


@pytest.mark.parametrize("budget, message", [
    ({"node_budget": -1}, "node_budget must be >= 0, got -1"),
    ({"time_budget": -0.5}, "time_budget must be >= 0, got -0.5"),
    ({"time_budget": float("nan")}, "time_budget must be >= 0, got nan"),
])
def test_bad_budgets_are_refused_before_the_search(tmp_path, budget, message):
    """A negative budget, or a NaN time budget, which no comparison with
    the clock would ever fire, is refused before a level is written."""
    path = tmp_path / "ck.json"
    with pytest.raises(ValueError, match=f"^{message}$"):
        exact_ex_conn(7, 3, FamilySpec("bp", 3), checkpoint_path=str(path),
                      **budget)
    assert not path.exists()


def test_zero_and_infinite_budgets_are_valid():
    spec = FamilySpec("bp", 3)
    with pytest.raises(SearchLimitError, match="node budget 0 exceeded"):
        exact_ex_conn(7, 3, spec, node_budget=0)
    out = exact_ex_conn(7, 3, spec, time_budget=float("inf"))
    assert out.stable_json() == exact_ex_conn(7, 3, spec).stable_json()


# -- population enumeration --------------------------------------------------

def test_bp3_population_counts():
    expected = {4: 1, 5: 1, 6: 0, 7: 1, 8: 0}
    for n, count in expected.items():
        pop = enumerate_connected_free(n, 3, FamilySpec("bp", 3))
        assert len(pop) == count, n
        for h in pop:
            assert is_connected(h)
            assert not contains_berge_path(h, 3)


def test_population_is_isomorphism_reduced():
    from bergeturan.hypergraph import canonical_key

    pop = enumerate_connected_free(7, 3, FamilySpec("bp", 4))
    keys = [canonical_key(h) for h in pop]
    assert len(keys) == len(set(keys))


def test_searches_leave_no_cycles_behind():
    """The walks and canonical searches a run makes free their state by
    reference counting: with the cyclic collector off, a fresh search
    and a fresh population enumeration leave no unreachable object."""
    gc.collect()
    gc.disable()
    try:
        assert exact_ex_conn(7, 3, FamilySpec("bp", 3)).value == 3
        # n <= k: every connected graph on 5 vertices (OEIS A001349).
        assert len(enumerate_connected_free(5, 2, FamilySpec("bp", 5))) == 21
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_population_matches_labeled_power_set():
    # Independent completeness check of the level enumeration (and of the
    # reachability-potential prune): classify the full labeled power set
    # by canonical key and compare the connected-spanning class sets.
    import itertools

    from bergeturan.hypergraph import Hypergraph, canonical_key

    for n, r, spec in [
        (5, 3, FamilySpec("bp", 3)),
        (5, 3, FamilySpec("bp", 4)),
        (5, 3, FamilySpec("bc_at_least", 3)),
    ]:
        pool = list(itertools.combinations(range(n), r))
        expected_keys = set()
        for mask in range(1 << len(pool)):
            chosen = tuple(pool[i] for i in range(len(pool)) if mask >> i & 1)
            h = Hypergraph(n, r, chosen)
            if not is_connected(h) or spec.violates(h):
                continue
            expected_keys.add(canonical_key(h))
        got_keys = {canonical_key(h)
                    for h in enumerate_connected_free(n, r, spec)}
        assert got_keys == expected_keys, (n, r, spec)


# -- conjecture comparator -----------------------------------------------------

def test_conjecture_check_small_cases():
    rep = conjecture_check(6, 3, 4)
    assert rep.conjectured == 4
    assert rep.construction_count == 4
    assert rep.status == "match"
    rep = conjecture_check(7, 3, 5)
    assert rep.conjectured == 5 and rep.status == "match"
    rep = conjecture_check(6, 3, 5)
    assert (rep.outcome.value, rep.conjectured, rep.status) == (5, 4, "exact_exceeds")


@pytest.mark.parametrize("status, value, expected", [
    ("infeasible", None, "infeasible"),
    ("value", 3, "exact_below"),
    ("value", 4, "match"),
    ("value", 5, "exact_exceeds"),
])
def test_conjecture_status_compares_the_search_value(status, value, expected):
    outcome = SearchOutcome(status, value, [], 0, 0.0)
    assert ConjectureReport(6, 3, 4, 4, 4, outcome).status == expected


def test_conjecture_check_range():
    with pytest.raises(ValueError):
        conjecture_check(7, 3, 3)


def test_the_suite_runs_under_an_address_space_cap():
    resource = pytest.importorskip("resource")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    assert soft != resource.RLIM_INFINITY and soft <= 2 << 30
