"""Berge path/cycle detection against independent brute-force oracles.

The oracles enumerate defining vertex sequences together with explicit
instance assignments via itertools (no matching machinery), so they
share nothing with the production search path.
"""

import gc
import itertools
import random

import pytest

from bergeturan.berge import (
    BergeWitness,
    contains_berge_cycle,
    contains_berge_path,
    longest_berge_path,
    new_edge_detector,
    verify_witness,
)
from bergeturan.hypergraph import build, is_connected

STAR73 = [[0, 1, 2], [0, 3, 4], [0, 5, 6]]
SUNFLOWER63 = [[0, 1, i] for i in range(2, 6)]


# -- independent oracles ----------------------------------------------

def brute_contains_path(h, k):
    if k > len(h.edges) or k + 1 > h.n:
        return False
    for verts in itertools.permutations(range(h.n), k + 1):
        for insts in itertools.permutations(range(len(h.edges)), k):
            ok = all(
                verts[i] in h.edges[insts[i]] and verts[i + 1] in h.edges[insts[i]]
                for i in range(k)
            )
            if ok:
                return True
    return False


def brute_contains_cycle(h, k):
    if k > len(h.edges) or k > h.n:
        return False
    for verts in itertools.permutations(range(h.n), k):
        for insts in itertools.permutations(range(len(h.edges)), k):
            ok = all(
                verts[i] in h.edges[insts[i]]
                and verts[(i + 1) % k] in h.edges[insts[i]]
                for i in range(k)
            )
            if ok:
                return True
    return False


def brute_longest_path(h):
    t = 0
    for k in range(1, min(len(h.edges), h.n - 1) + 1):
        if brute_contains_path(h, k):
            t = k
    return t


def brute_berge(h, k, closed):
    """Whether h has a Berge path (a cycle if ``closed``) with k instances:
    every vertex sequence (a cycle's from its minimum vertex) against
    every choice of one instance per pair."""
    holding = {(u, v): [i for i, e in enumerate(h.edges) if u in e and v in e]
               for u, v in itertools.permutations(range(h.n), 2)}
    for verts in itertools.permutations(range(h.n), k if closed else k + 1):
        if closed and verts[0] != min(verts):
            continue
        ends = verts[1:] + verts[:1] if closed else verts[1:]
        lists = [holding[pair] for pair in zip(verts, ends)]
        if any(len(set(c)) == k for c in itertools.product(*lists)):
            return True
    return False


def assignable(h, verts, closed):
    """True when the consecutive pairs of ``verts`` (read cyclically if
    ``closed``) lie in distinct instances."""
    k = len(verts) if closed else len(verts) - 1
    pairs = [(verts[i], verts[(i + 1) % len(verts)]) for i in range(k)]
    return any(
        all(u in h.edges[i] and v in h.edges[i] for (u, v), i in zip(pairs, insts))
        for insts in itertools.permutations(range(len(h.edges)), k)
    )


def least_path(h, k):
    """The lexicographically least vertex sequence of a Berge path of length k."""
    return next(
        (v for v in itertools.permutations(range(h.n), k + 1) if assignable(h, v, False)),
        None,
    )


def least_cycle(h, lengths):
    """The least vertex sequence, in tuple order and starting at its minimum
    vertex, of a Berge cycle with a length in ``lengths``."""
    seqs = sorted(
        v for j in lengths for v in itertools.permutations(range(h.n), j)
        if v[0] == min(v)
    )
    return next((v for v in seqs if assignable(h, v, True)), None)


def graph_has_path(n, edges, k):
    """Plain DFS path detector for 2-uniform hypergraphs (simple graphs)."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def dfs(v, visited, length):
        if length == k:
            return True
        for u in adj[v]:
            if u in visited:
                continue
            if dfs(u, visited | {u}, length + 1):
                return True
        return False

    return any(dfs(v, frozenset({v}), 0) for v in range(n))


def random_hypergraph(rng, n, r, max_edges, multi=False):
    pool = list(itertools.combinations(range(n), r))
    q = rng.randrange(0, max_edges + 1)
    if multi:
        return build(n, r, [rng.choice(pool) for _ in range(q)])
    return build(n, r, rng.sample(pool, min(q, len(pool))))


# -- witness verification ----------------------------------------------

def test_verify_witness_simple_path():
    h = build(4, 3, [[0, 1, 2], [0, 1, 3]])
    assert verify_witness(h, BergeWitness("path", (2, 0, 3), (0, 1)))


def test_verify_witness_rejects_repeated_instance():
    h = build(4, 3, [[0, 1, 2], [0, 1, 3]])
    assert not verify_witness(h, BergeWitness("path", (2, 0, 3), (0, 0)))


def test_verify_witness_length_two_cycle():
    h = build(4, 3, [[0, 1, 2], [0, 1, 3]])
    assert verify_witness(h, BergeWitness("cycle", (0, 1), (0, 1)))


def test_verify_witness_instance_out_of_range():
    h = build(4, 3, [[0, 1, 2]])
    with pytest.raises(ValueError):
        verify_witness(h, BergeWitness("path", (0, 1), (5,)))


def test_verify_witness_rejects_repeated_vertices_and_bad_pairs():
    h = build(5, 3, [[0, 1, 2], [2, 3, 4]])
    assert not verify_witness(h, BergeWitness("path", (0, 1, 0), (0, 1)))
    assert not verify_witness(h, BergeWitness("path", (0, 1, 4), (0, 1)))


@pytest.mark.parametrize("witness", [
    BergeWitness("path", (0, 2, 5), (0, 1)),  # a vertex outside 0..n-1
    BergeWitness("path", (0, 2), (0, 1)),  # a path needs k + 1 vertices
    BergeWitness("cycle", (0, 1, 2), (0, 1)),  # a cycle needs k vertices
    BergeWitness("loop", (0, 2, 3), (0, 1)),  # an unknown kind
])
def test_verify_witness_rejects_a_malformed_witness(witness):
    h = build(5, 3, [[0, 1, 2], [2, 3, 4]])
    assert verify_witness(h, BergeWitness("path", (0, 2, 3), (0, 1)))
    assert not verify_witness(h, witness)


# -- paths -------------------------------------------------------------

def test_single_edge_path_lengths():
    h = build(3, 3, [[0, 1, 2]])
    assert contains_berge_path(h, 1)
    assert not contains_berge_path(h, 2)


def test_sunflower_has_no_bp4():
    h = build(6, 3, SUNFLOWER63)
    assert brute_contains_path(h, 4) is False  # oracle first
    assert not contains_berge_path(h, 4)


def test_star_longest_is_two():
    h = build(7, 3, STAR73)
    assert brute_longest_path(h) == 2
    t, w = longest_berge_path(h)
    assert t == 2
    assert verify_witness(h, w)


def test_sunflower_longest_is_three():
    h = build(6, 3, SUNFLOWER63)
    assert brute_longest_path(h) == 3
    t, w = longest_berge_path(h)
    assert t == 3
    assert verify_witness(h, w)


def test_found_witnesses_always_verify():
    rng = random.Random(19)
    for _ in range(60):
        h = random_hypergraph(rng, 6, 3, 6)
        for k in (1, 2, 3):
            has, w = contains_berge_path(h, k, want_witness=True)
            if has:
                assert verify_witness(h, w)
                assert len(w.vertices) == k + 1
            else:
                assert w is None


def test_path_detector_matches_brute_force():
    rng = random.Random(23)
    for _ in range(50):
        h = random_hypergraph(rng, 6, 3, 5, multi=True)
        for k in (1, 2, 3, 4):
            assert contains_berge_path(h, k) == brute_contains_path(h, k), h


def test_longest_matches_brute_force():
    rng = random.Random(29)
    for _ in range(40):
        h = random_hypergraph(rng, 6, 3, 5, multi=True)
        t, w = longest_berge_path(h)
        assert t == brute_longest_path(h)
        if w is not None:
            assert verify_witness(h, w)


def test_path_bounds():
    rng = random.Random(31)
    for _ in range(40):
        h = random_hypergraph(rng, 7, 3, 6)
        t, _ = longest_berge_path(h)
        assert t <= len(h.edges)
        assert t <= h.n - 1


def test_edge_deletion_monotonicity():
    rng = random.Random(37)
    for _ in range(40):
        h = random_hypergraph(rng, 6, 3, 6)
        if not h.edges:
            continue
        drop = rng.randrange(len(h.edges))
        sub = build(h.n, h.r, [e for i, e in enumerate(h.edges) if i != drop])
        for k in (2, 3):
            if contains_berge_path(sub, k):
                assert contains_berge_path(h, k)
        if contains_berge_cycle(sub, 2, "at_least"):
            assert contains_berge_cycle(h, 2, "at_least")


def test_witnesses_are_the_least_qualifying_sequences():
    rng = random.Random(61)
    checked = 0
    for _ in range(40):
        h = random_hypergraph(rng, 6, 3, 5, multi=True)
        for k in (1, 2, 3, 4):
            _, w = contains_berge_path(h, k, want_witness=True)
            assert (w and w.vertices) == least_path(h, k), (h, k)
        t, w = longest_berge_path(h)
        assert (w and w.vertices) == (least_path(h, t) if t else None), h
        cap = min(len(h.edges), h.n)
        for k in (2, 3, 4):
            for mode, lengths in (("exact", [k]), ("at_least", range(k, cap + 1))):
                _, w = contains_berge_cycle(h, k, mode, want_witness=True)
                assert (w and w.vertices) == least_cycle(h, lengths), (h, k, mode)
                if w is not None:
                    checked += 1
                    assert verify_witness(h, w)
                    assert len(w.vertices) == k or (
                        mode == "at_least" and len(w.vertices) > k)
    assert checked > 20


def test_anchored_walk_witnesses_use_the_added_instance():
    """A walk anchored at a pair of the added edge e finds a witness that
    is a Berge path or cycle of h plus the added instance, and that
    instance is in it."""
    from bergeturan.berge import _pair_index, _walk
    from bergeturan.hypergraph import Hypergraph

    rng = random.Random(29)
    checked = {"path": 0, "cycle": 0}
    for _ in range(80):
        h = random_hypergraph(rng, 7, 3, 6, multi=True)
        e = tuple(sorted(rng.sample(range(7), 3)))
        inst = len(h.edges)
        child = Hypergraph(h.n, h.r, h.edges + (e,))
        index = _pair_index(h)
        for k in (2, 3, 4, 5):
            for kind, close_from in (("path", 0), ("cycle", k)):
                for pair in itertools.combinations(e, 2):
                    found = _walk(index, k, close_from, (pair, inst))
                    if found is None:
                        continue
                    w = BergeWitness(kind, *found)
                    assert verify_witness(child, w) and inst in w.edge_instances, (
                        h, e, w)
                    checked[kind] += 1
    assert min(checked.values()) > 50, checked


# The SHA-256 of ``_walk_corpus_results()``'s repr, recorded before the
# matcher took a free first instance without a search.  It pins the
# instance assignment of every witness, not only its vertices.
WALK_CORPUS_SHA256 = "03278d0c9464cc007efe2447bab895839870c8f342a369aed782a8be307a6d52"


def _walk_corpus_results():
    """``_walk`` results over a fixed random multi-hypergraph corpus: the
    unanchored longest path, path at each length, and both cycle modes at
    each length, then the same path and cycle queries anchored at every
    vertex pair with an added instance."""
    from bergeturan.berge import _bounds, _pair_index, _walk

    rng = random.Random(2003)
    out = []
    for _ in range(60):
        n = rng.randint(3, 7)
        r = rng.randint(2, min(4, n))
        pool = list(itertools.combinations(range(n), r))
        h = build(n, r, [rng.choice(pool) for _ in range(rng.randint(0, 9))])
        index = _pair_index(h)
        inst = len(h.edges)
        out.append(_walk(index, _bounds(None, None, inst, n)[0]))
        for k in range(1, n):
            out.append(_walk(index, k))
        for k in range(2, n + 1):
            for mode in ("exact", "at_least"):
                most, close_from, _ = _bounds(k, mode, inst, n)
                out.append(_walk(index, most, close_from))
        for pair in itertools.combinations(range(n), 2):
            for k in range(1, n):
                out.append(_walk(index, k, 0, (pair, inst)))
            for k in range(2, n + 1):
                for mode in ("exact", "at_least"):
                    most, close_from, _ = _bounds(k, mode, inst + 1, n)
                    out.append(_walk(index, most, close_from, (pair, inst)))
    return out


def test_walk_results_are_pinned():
    """Vertices and instance tuples of every walk result over the corpus
    hash to the recorded digest."""
    import hashlib

    results = _walk_corpus_results()
    # The corpus reaches witnesses whose slots have several instances.
    assert sum(f is not None and len(f[1]) > 1 for f in results) > 5000
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == WALK_CORPUS_SHA256


def _pair_orbit_ids(h):
    """Each pair u < v mapped to the least pair on its orbit under the
    automorphism group of h, found by brute force over all n! vertex
    maps."""
    edges = sorted(h.edges)
    auts = [p for p in itertools.permutations(range(h.n))
            if sorted(tuple(sorted(p[v] for v in e)) for e in edges) == edges]
    return {pair: min(tuple(sorted((p[pair[0]], p[pair[1]]))) for p in auts)
            for pair in itertools.combinations(range(h.n), 2)}


def _each_pair(n):
    """The pair orbits of the trivial group: each pair is its own."""
    return lambda: {p: p for p in itertools.combinations(range(n), 2)}


def _full_detector(k, mode):
    """The unanchored test for a Berge path of length k (``mode`` None)
    or a Berge cycle in ``mode``."""
    if mode is None:
        return lambda g: contains_berge_path(g, k)
    return lambda g: contains_berge_cycle(g, k, mode)


def _random_free(rng, n, r, k, mode):
    """A random multi-hypergraph free of the Berge path of length k
    (``mode`` None) or cycle: a random prefix of each r-set twice over, in
    shuffled order, keeping each edge that leaves it free."""
    contains = _full_detector(k, mode)
    pool = list(itertools.combinations(range(n), r)) * 2
    rng.shuffle(pool)
    edges = []
    for e in pool[: rng.randint(0, len(pool))]:
        if not contains(build(n, r, edges + [e])):
            edges.append(e)
    return build(n, r, edges)


def _detector_or_none(h, k, mode, pair_orbits, cap):
    """The detector for h, or a test that answers "no" where it returns
    None, which it must do exactly when k > cap; the full detector must
    then find every candidate free."""
    test = new_edge_detector(h, k, mode, pair_orbits)
    assert (test is None) == (k > cap), (h, k, mode)
    if test is not None:
        return test
    contains = _full_detector(k, mode)
    assert not any(contains(h.with_edge(e))
                   for e in itertools.combinations(range(h.n), h.r)), (h, k, mode)
    return lambda e: False


def test_new_edge_detector_walks_each_pair_at_most_once(monkeypatch):
    """On a parent free of the configuration, the detector given the
    trivial pair orbits walks each anchor pair at most once over all
    candidate edges, so at most C(n, 2) times.  Given the pair orbits of
    Aut(parent) (by brute force, n <= 6) it walks each orbit at most
    once, builds them once and only where it can walk, and walks fewer
    pairs in all.  Either way it answers as the OR of unmemoized walks
    anchored at each pair of the edge.  Where no configuration fits in
    the parent plus one instance (k above the cap) there is no detector
    (None) and every candidate is free."""
    from math import comb

    from bergeturan import berge

    walk = berge._walk
    anchors = []

    def counting_walk(index, most, close_from=0, anchor=None, classes=None):
        anchors.append(anchor and anchor[0])
        return walk(index, most, close_from, anchor, classes)

    monkeypatch.setattr(berge, "_walk", counting_walk)
    rng = random.Random(47)
    seen = {True: 0, False: 0}
    walks = {"pairs": 0, "orbits": 0}
    for _ in range(150):
        n = rng.randint(3, 8)
        r = rng.randint(2, min(4, n))
        k = rng.randint(2, 5)
        mode = rng.choice((None, "exact", "at_least"))
        h = _random_free(rng, n, r, k, mode)
        inst = len(h.edges)
        most, close_from, cap = berge._bounds(k, mode, inst + 1, n)
        index = berge._pair_index(h)
        expect = {}
        for e in itertools.combinations(range(n), r):
            expect[e] = k <= cap and any(
                berge._counts(walk(index, most, close_from, (pair, inst)),
                              k, close_from)
                for pair in itertools.combinations(e, 2))
            seen[expect[e]] += 1
        anchors.clear()
        test = _detector_or_none(h, k, mode, _each_pair(n), cap)
        for e, want in expect.items():
            assert test(e) == want, (h, k, mode, e)
        assert len(set(anchors)) == len(anchors) <= comb(n, 2), (h, k, mode)
        assert all(len(pair) == 2 for pair in anchors)
        if n > 6:
            continue
        walks["pairs"] += len(anchors)
        orbit = _pair_orbit_ids(h)
        built = []
        anchors.clear()
        test = _detector_or_none(h, k, mode, lambda: built.append(1) or orbit, cap)
        assert len(built) == (k <= cap), (h, k, mode)
        for e, want in expect.items():
            assert test(e) == want, (h, k, mode, e)
        ids = [orbit[pair] for pair in anchors]
        assert len(set(ids)) == len(ids) <= len(set(orbit.values())), (h, k, mode)
        assert len(built) == (k <= cap)
        walks["orbits"] += len(anchors)
    assert min(seen.values()) > 300, seen
    assert walks["orbits"] < 0.8 * walks["pairs"], walks


def test_new_edge_detector_answers_in_any_order_as_unmemoized_walks():
    """A witness found by one anchored walk also answers the pairs it
    proves, so the detector's answers depend on the order candidates are
    asked in only through which pairs it walks.  On random free
    multi-hypergraphs, for paths and both cycle modes, every candidate
    asked in each of several shuffled orders, with the trivial pair
    orbits and (n <= 6) those of Aut(h), is answered as the OR of
    unmemoized walks anchored at its pairs, or, where k is above the cap
    and there is no detector, is free; and the witnesses answer enough
    pairs to save walks."""
    from bergeturan import berge

    walk = berge._walk
    walked = []

    def counting_walk(index, most, close_from=0, anchor=None, classes=None):
        walked.append(anchor[0])
        return walk(index, most, close_from, anchor, classes)

    rng = random.Random(30)
    seen = {True: 0, False: 0}
    hits_seen = {"all": 0, "walked": 0}
    for trial in range(120):
        n = rng.randint(3, 8)
        r = rng.randint(2, min(4, n))
        k = rng.randint(1 if trial % 3 == 0 else 2, 6)
        mode = (None, "exact", "at_least")[trial % 3]
        h = _random_free(rng, n, r, k, mode)
        inst = len(h.edges)
        most, close_from, cap = berge._bounds(k, mode, inst + 1, n)
        index = berge._pair_index(h)
        hits = {pair: berge._counts(walk(index, most, close_from, (pair, inst)),
                                    k, close_from)
                for pair in itertools.combinations(range(n), 2)}
        expect = {e: k <= cap and any(hits[p] for p in itertools.combinations(e, 2))
                  for e in itertools.combinations(range(n), r)}
        for want in expect.values():
            seen[want] += 1
        orbit_maps = [_each_pair(n)]
        if n <= 6:
            orbit = _pair_orbit_ids(h)
            orbit_maps.append(lambda: orbit)
        for pair_orbits in orbit_maps:
            for _ in range(3):
                order = list(expect)
                rng.shuffle(order)
                walked.clear()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(berge, "_walk", counting_walk)
                    test = _detector_or_none(h, k, mode, pair_orbits, cap)
                    for e in order:
                        assert test(e) == expect[e], (h, k, mode, e, order)
                hits_seen["all"] += sum(hits.values()) if k <= cap else 0
                hits_seen["walked"] += sum(hits[p] for p in walked)
    assert min(seen.values()) > 300, seen
    # Of the pairs whose walk finds a witness, most are proved, not walked.
    assert hits_seen["walked"] < 0.5 * hits_seen["all"], hits_seen


def test_queries_leave_no_cycles_behind():
    """Every walk frees its state by reference counting on return: with
    the cyclic collector off, the queries leave no unreachable object."""
    path = build(5, 3, [[0, 1, 2], [1, 2, 3], [2, 3, 4]])
    star = build(7, 3, STAR73)
    gc.collect()
    gc.disable()
    try:
        assert contains_berge_path(path, 3)
        assert contains_berge_path(path, 3, want_witness=True)[0]
        assert not contains_berge_path(star, 3)
        assert contains_berge_path(star, 3, want_witness=True) == (False, None)
        assert longest_berge_path(path)[0] == 3
        assert contains_berge_cycle(path, 2, "exact")
        assert contains_berge_cycle(path, 2, "at_least", want_witness=True)[0]
        # The star is free of BP4; a pendant-to-pendant edge completes
        # one, a second copy of its first edge does not.
        test = new_edge_detector(star, 4, None, _each_pair(star.n))
        assert test((1, 3, 5)) and not test((0, 1, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _family_members():
    """Every distinct registered family member with r 3..5 and n <= 10."""
    from bergeturan.constructions import FamilyParamError, family_names, make_family

    members = {}
    for name in family_names():
        for r in range(3, 6):
            for n in range(r, 11):
                for k in (None, *range(3, 2 * r + 1)):
                    try:
                        h = make_family(name, n, r, k)
                    except FamilyParamError:
                        continue
                    members.setdefault(h, None)
    return list(members)


def _skip_corpus():
    """Random multi-hypergraphs with a planted clique, whose vertices are
    all interchangeable, about half of those with r >= 3 also with two
    pendant twins (degree-1 vertices of one instance that also covers
    other vertices), and every registered family member with r 3..5 and
    n <= 10."""
    rng = random.Random(71)
    corpus = []
    for _ in range(300):
        n = rng.randint(3, 8)
        r = rng.randint(2, min(4, n))
        pool = list(itertools.combinations(range(n), r))
        edges = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        clique = sorted(rng.sample(range(n), rng.randint(r, n)))
        edges += list(itertools.combinations(clique, r)) * rng.randint(1, 2)
        if r >= 3 and n <= 6 and rng.random() < 0.5:
            # The twins take the lowest labels, so they come first as starts.
            edges = [tuple(v + 2 for v in e) for e in edges]
            edges.append((0, 1, *rng.sample(range(2, n + 2), r - 2)))
            n += 2
        rng.shuffle(edges)
        corpus.append(build(n, r, edges))
    return corpus + _family_members()


def test_interchangeable_skip_changes_no_walk_result():
    """Skipping interchangeable vertices while no slot is matched gives
    every walk result of the walk without classes, vertices and instances:
    the longest path, a path of each length k and a cycle of each length
    in both modes, through ``_walk`` and through the public queries."""
    from bergeturan.berge import _bounds, _counts, _pair_index, _walk
    from bergeturan.hypergraph import interchangeable_classes

    corpus = _skip_corpus()
    symmetric = 0
    for h in corpus:
        index = _pair_index(h)
        classes = interchangeable_classes(h)
        symmetric += len(set(classes)) < len(h.support())
        n, m = h.n, len(h.edges)
        most, _, _ = _bounds(None, None, m, n)
        plain = _walk(index, most)
        assert _walk(index, most, classes=classes) == plain, h
        assert longest_berge_path(h) == (
            (len(plain[1]), BergeWitness("path", *plain)) if plain else (0, None)), h
        queries = [(k, None) for k in range(1, n)]
        queries += [(k, mode) for k in range(2, n + 1) for mode in ("exact", "at_least")]
        for k, mode in queries:
            most, close_from, cap = _bounds(k, mode, m, n)
            plain = _walk(index, most, close_from)
            assert _walk(index, most, close_from, classes=classes) == plain, (h, k, mode)
            if mode is None:
                has, w = contains_berge_path(h, k, want_witness=True)
            else:
                has, w = contains_berge_cycle(h, k, mode, want_witness=True)
            expect = plain if k <= cap and _counts(plain, k, close_from) else None
            got = w and (w.vertices, w.edge_instances)
            assert (has, got) == (expect is not None, expect), (h, k, mode)
    assert len(corpus) > 350 and symmetric > 250, (len(corpus), symmetric)
    # The pendant twins 0 and 1 start no cycle.  The skipped start 1 stays
    # used, as the walk without classes leaves it, so no later cycle's
    # augmentation moves the first slot's instance from 0 to 1.
    h = build(11, 4, [(0, 1, 2, 3), (2, 3, 5, 6), (2, 4, 9, 10), (3, 4, 7, 8)])
    for mode in ("exact", "at_least"):
        assert contains_berge_cycle(h, 3, mode, want_witness=True) == (
            True, BergeWitness("cycle", (2, 3, 4), (0, 3, 2))), mode


def test_clique_pendants_witness_is_pinned():
    """The clique-pendants member (13,5,9) has a Berge path of length 8
    and none of length 9; the witness's instances are pinned, since a
    skip after the first matched slot would change them."""
    from bergeturan.constructions import make_family

    h = make_family("clique-pendants", 13, 5, 9)
    _, w = contains_berge_path(h, 8, want_witness=True)
    assert w == BergeWitness(
        "path", (7, 0, 1, 2, 4, 5, 6, 3, 8), (3, 0, 1, 10, 9, 11, 2, 4))
    assert not contains_berge_path(h, 9)


def _pendant_corpus():
    """Random multi-hypergraphs on a core of vertices, most with pendant
    vertices (each of those in one instance, together with core
    vertices), under a random relabeling."""
    rng = random.Random(83)
    corpus = []
    for _ in range(400):
        n = rng.randint(3, 9)
        r = rng.randint(2, min(4, n))
        core = rng.randint(r, n)
        pool = list(itertools.combinations(range(core), r))
        edges = [rng.choice(pool) for _ in range(rng.randint(0, 7))]
        for v in range(core, n):
            if rng.random() < 0.8:
                edges.append((*rng.sample(range(core), r - 1), v))
        label = rng.sample(range(n), n)
        corpus.append(build(n, r, [[label[v] for v in e] for e in edges]))
    return corpus


def test_degree_cap_changes_no_query_result():
    """The degree cap skips only queries that the walk answers "no", and
    the longest path walk stopped at the cap returns the full walk's
    result: every public query equals ``_walk`` under ``_bounds`` alone,
    witnesses included.  On inputs with n <= 7 a brute force finds no
    path or cycle longer than the cap, and an invalid query raises as
    before on every input, also for a k above the cap."""
    from bergeturan.berge import _bounds, _counts, _degree_cap, _pair_index, _walk
    from bergeturan.hypergraph import interchangeable_classes

    skipped = stopped = brute = 0
    for h in _pendant_corpus() + _family_members():
        index, classes = _pair_index(h), interchangeable_classes(h)
        n, m = h.n, len(h.edges)
        path_cap, cycle_cap = _degree_cap(h, False), _degree_cap(h, True)
        most = _bounds(None, None, m, n)[0]
        full = _walk(index, most, classes=classes)
        assert longest_berge_path(h) == (
            (len(full[1]), BergeWitness("path", *full)) if full else (0, None)), h
        stopped += full is not None and len(full[1]) == path_cap < most
        queries = [(k, None) for k in range(1, n + 1)]
        queries += [(k, mode) for k in range(2, n + 2) for mode in ("exact", "at_least")]
        for k, mode in queries:
            most, close_from, cap = _bounds(k, mode, m, n)
            found = _walk(index, most, close_from, classes=classes) if k <= cap else None
            expect = found if _counts(found, k, close_from) else None
            if mode is None:
                has, w = contains_berge_path(h, k, want_witness=True)
            else:
                has, w = contains_berge_cycle(h, k, mode, want_witness=True)
            got = w and (w.vertices, w.edge_instances)
            assert (has, got) == (expect is not None, expect), (h, k, mode)
            if k > (path_cap if mode is None else cycle_cap):
                skipped += k <= cap
                assert expect is None, (h, k, mode)
                if mode == "exact":
                    with pytest.raises(ValueError, match="unknown cycle mode 'sometimes'"):
                        contains_berge_cycle(h, k, "sometimes")
                    with pytest.raises(ValueError, match="unknown cycle mode None"):
                        contains_berge_cycle(h, k, None)
        for k in (0, -1):
            with pytest.raises(ValueError, match="path length must be >= 1"):
                contains_berge_path(h, k)
        for k in (1, 0):
            with pytest.raises(ValueError, match="cycle length must be >= 2"):
                contains_berge_cycle(h, k, "at_least")
        if n <= 7:
            brute += 1
            for k in range(max(1, path_cap + 1), min(m, n - 1) + 1):
                assert not brute_berge(h, k, False), (h, k)
            for k in range(max(2, cycle_cap + 1), min(m, n) + 1):
                assert not brute_berge(h, k, True), (h, k)
    assert skipped > 1000 and stopped > 100 and brute > 300, (skipped, stopped, brute)


def test_degree_cap_skips_the_walk_and_stops_the_longest_path(monkeypatch):
    """On clique-pendants (13,5,9) the path cap is 8: asking for a path of
    length 9 builds no pair index, no classes and no walk, and the
    longest path is one walk with ``most`` 8 that returns the pinned
    witness."""
    from bergeturan import berge
    from bergeturan.constructions import make_family

    calls = []

    def spy(name):
        real = getattr(berge, name)

        def wrapped(*args, **kwargs):
            calls.append((name, args[1] if name == "_walk" else None))
            return real(*args, **kwargs)

        monkeypatch.setattr(berge, name, wrapped)

    for name in ("_walk", "_pair_index", "interchangeable_classes"):
        spy(name)
    h = make_family("clique-pendants", 13, 5, 9)
    assert not contains_berge_path(h, 9)
    assert calls == []
    assert longest_berge_path(h) == (8, BergeWitness(
        "path", (7, 0, 1, 2, 4, 5, 6, 3, 8), (3, 0, 1, 10, 9, 11, 2, 4)))
    assert [c for c in calls if c[0] == "_walk"] == [("_walk", 8)]


# -- cycles ------------------------------------------------------------

def test_two_overlapping_edges_make_bc2():
    h = build(4, 3, [[0, 1, 2], [0, 1, 3]])
    assert contains_berge_cycle(h, 2, "exact")


def test_star_has_no_cycles_at_all():
    h = build(7, 3, STAR73)
    assert brute_contains_cycle(h, 2) is False
    assert not contains_berge_cycle(h, 2, "at_least")


def test_multiplicity_three_gives_bc3():
    h = build(3, 3, [[0, 1, 2]] * 3)
    assert contains_berge_cycle(h, 3, "exact")
    has, w = contains_berge_cycle(h, 3, "exact", want_witness=True)
    assert has and verify_witness(h, w)


def test_cycle_detector_matches_brute_force():
    rng = random.Random(41)
    for _ in range(50):
        h = random_hypergraph(rng, 6, 3, 5, multi=True)
        for k in (2, 3, 4):
            assert contains_berge_cycle(h, k, "exact") == brute_contains_cycle(h, k)
        for k in (2, 3):
            expect = any(
                brute_contains_cycle(h, j)
                for j in range(k, min(len(h.edges), h.n) + 1)
            )
            assert contains_berge_cycle(h, k, "at_least") == expect


def test_cycle_query_refuses_a_missing_mode():
    # A None cycle mode would be read as a path query; only the anchored
    # detector takes None, and there it means a path.
    path = build(4, 2, [[0, 1], [1, 2], [2, 3]])
    with pytest.raises(ValueError, match="cycle mode None"):
        contains_berge_cycle(path, 3, None, want_witness=True)
    test = new_edge_detector(build(4, 2, [[0, 1], [1, 2]]), 3, None, _each_pair(4))
    assert test((2, 3)) and not test((0, 2))


def test_bc2_iff_two_instances_sharing_two_vertices():
    rng = random.Random(43)
    for _ in range(60):
        h = random_hypergraph(rng, 6, 3, 6, multi=True)
        expect = any(
            len(set(h.edges[i]) & set(h.edges[j])) >= 2
            for i in range(len(h.edges))
            for j in range(i + 1, len(h.edges))
        )
        assert contains_berge_cycle(h, 2, "exact") == expect


def test_connected_cycle_extends_to_path():
    # With n >= k+1 and a BC_k present, connectivity forces a BP_k.
    rng = random.Random(47)
    checked = 0
    for _ in range(300):
        h = random_hypergraph(rng, 6, 3, 7)
        if not is_connected(h):
            continue
        for k in (2, 3, 4):
            if h.n >= k + 1 and contains_berge_cycle(h, k, "exact"):
                checked += 1
                assert contains_berge_path(h, k)
    assert checked > 20


# -- r = 2 reduction ---------------------------------------------------

def test_two_uniform_reduces_to_graph_paths():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randrange(3, 8)
        pool = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pool, rng.randrange(0, len(pool) + 1))
        h = build(n, 2, edges)
        for k in (1, 2, 3, 4):
            assert contains_berge_path(h, k) == graph_has_path(n, edges, k)


def graph_has_cycle(n, edges, k):
    """DFS detector for a simple cycle of length exactly k."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def dfs(start, v, visited):
        if len(visited) == k:
            return start in adj[v]
        for u in adj[v]:
            if u in visited or u < start:
                continue
            if dfs(start, u, visited | {u}):
                return True
        return False

    return any(dfs(v, v, frozenset({v})) for v in range(n))


def test_two_uniform_reduces_to_graph_cycles():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randrange(3, 8)
        pool = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pool, rng.randrange(0, len(pool) + 1))
        h = build(n, 2, edges)
        for k in (3, 4, 5):
            assert contains_berge_cycle(h, k, "exact") == graph_has_cycle(n, edges, k)


def test_invalid_lengths_raise():
    h = build(3, 3, [[0, 1, 2]])
    with pytest.raises(ValueError):
        contains_berge_path(h, 0)
    with pytest.raises(ValueError):
        contains_berge_cycle(h, 1, "exact")
    with pytest.raises(ValueError):
        contains_berge_cycle(h, 2, "sometimes")
