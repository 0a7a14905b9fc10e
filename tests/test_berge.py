"""Berge path/cycle detection against independent brute-force oracles.

The oracles enumerate defining vertex sequences together with explicit
instance assignments via itertools (no matching machinery), so they
share nothing with the production search path.
"""

import itertools
import random

import pytest

from bergeturan.berge import (
    BergeWitness,
    contains_berge_cycle,
    contains_berge_path,
    longest_berge_path,
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
    """An anchored walk's witness is a Berge path or cycle of h plus the
    added instance, and that instance is in it."""
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
                found = _walk(index, k, close_from, (e, inst))
                if found is None:
                    continue
                w = BergeWitness(kind, *found)
                assert verify_witness(child, w) and inst in w.edge_instances, (h, e, w)
                checked[kind] += 1
    assert min(checked.values()) > 50, checked


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
