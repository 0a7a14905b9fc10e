"""Sparse hyperedge-neighborhood sets: the structural guarantee that a
connected, path-bounded, cycle-free-at-the-top hypergraph always has a
large vertex set meeting few edges.

Both the exhaustive checker and the constructive procedure are run over
complete enumerated populations; a single counterexample verdict fails
the build.
"""

import random

import pytest

import bergeturan.search as search
from bergeturan.constructions import make_family
from bergeturan.hypergraph import build, hyperedge_neighborhood
from bergeturan.search import (
    CASE_LARGE,
    CASE_SMALL,
    FamilySpec,
    enumerate_connected_free,
    sparse_set_check,
    sparse_set_constructive,
)

STAR5 = build(5, 3, [[0, 1, 2], [0, 3, 4]])
STAR7 = build(7, 3, [[0, 1, 2], [0, 3, 4], [0, 5, 6]])
DOUBLE = build(4, 3, [[0, 1, 2], [0, 1, 3]])
SINGLE = build(3, 3, [[0, 1, 2]])
# A 3-edge Berge path (t = 3 = r-1) labeled so that the first 7-set,
# {0..6}, meets 3 <= t edges while every 6-set meeting <= 2 edges
# contains 7, 8 or 9: a large-case subset precedes every small-case one.
CHAIN = build(10, 4, [[0, 1, 2, 7], [0, 3, 4, 8], [3, 5, 6, 9]])
# Longest path 0 e_1 2 e_2 10 e_3 11 e_4 5 takes the recursive branch,
# where the order of the two walks matters: e_1 revisits v_3 = 11 and
# e_4 revisits v_1 = 2 and v_3.  Walking e_1's first absorbs e_3's
# outside part {9, 12}, which e_2's then meets, so v_1 = 2 joins;
# walking e_4's first would add v_2 = 10 instead.
ORDERED = build(13, 5, [[0, 2, 4, 7, 11], [1, 2, 3, 10, 12],
                        [2, 5, 6, 8, 11], [2, 9, 10, 11, 12]])


def test_star7_exhaustive_witness():
    rep = sparse_set_check(STAR7, 1)
    assert rep.verdict == "witness_found"
    assert rep.case == CASE_SMALL
    assert rep.neighborhood_size <= 2
    assert len(rep.subset) >= 4
    assert len(hyperedge_neighborhood(STAR7, rep.subset)) == rep.neighborhood_size


def test_star7_constructive_trace():
    # Longest path pivots on the hub; the two end edges minus the hub
    # give the four outer vertices of those edges, meeting 2 <= m+1 edges.
    rep = sparse_set_constructive(STAR7, 1)
    assert rep.verdict == "witness_found"
    assert rep.subset == (1, 2, 3, 4)
    assert rep.neighborhood_size == 2
    assert rep.case == CASE_SMALL and rep.exact_size_match


def test_double_edge_violates_top_cycle_precondition():
    for fn in (sparse_set_check, sparse_set_constructive):
        rep = fn(DOUBLE, 1)
        assert rep.verdict == "precondition_violated"
        assert "cycle" in rep.reason


def test_single_edge_is_degenerate():
    for fn in (sparse_set_check, sparse_set_constructive):
        rep = fn(SINGLE, 1)
        assert rep.verdict == "precondition_violated"
        assert "degenerate" in rep.reason


def test_multiplicity_cap_precondition():
    h = build(5, 3, [[0, 1, 2], [0, 1, 2], [0, 3, 4]])
    rep = sparse_set_check(h, 1)
    assert rep.verdict == "precondition_violated"
    assert "multiplicity" in rep.reason


@pytest.mark.parametrize("m", [0, -1])
def test_cap_below_one_is_refused(m):
    # A cap below 1 is a usage error, as for FamilySpec, not a verdict.
    for fn in (sparse_set_check, sparse_set_constructive):
        with pytest.raises(ValueError, match=f"multiplicity cap must be >= 1, got m={m}"):
            fn(STAR7, m)


def test_constructive_agrees_with_exhaustive_on_population():
    # r=3, simple, no length-3 Berge path, n <= 8: every instance passing
    # the preconditions must yield a witness from both procedures.
    confirmed = 0
    for n in range(4, 9):
        for h in enumerate_connected_free(n, 3, FamilySpec("bp", 3)):
            chk = sparse_set_check(h, 1)
            con = sparse_set_constructive(h, 1)
            assert chk.verdict in ("witness_found", "precondition_violated")
            assert con.verdict == chk.verdict
            if chk.verdict == "witness_found":
                confirmed += 1
                assert con.neighborhood_size <= max(2, con.t)
    assert confirmed == 2  # the two stars


def test_population_r4_bp4_including_recursive_branch():
    # The r=4 population exercises the recursive union construction
    # (end edges revisiting interior defining vertices).
    confirmed = 0
    for n in range(5, 9):
        for h in enumerate_connected_free(n, 4, FamilySpec("bp", 4)):
            chk = sparse_set_check(h, 1)
            if chk.verdict != "witness_found":
                continue
            confirmed += 1
            con = sparse_set_constructive(h, 1)
            assert con.verdict == "witness_found", h
            size = len(con.subset)
            if con.case == CASE_SMALL:
                assert size >= 2 * h.r - 2 and con.neighborhood_size <= 2
            else:
                assert size >= 2 * h.r - 1 and con.neighborhood_size <= con.t
    assert confirmed >= 5


def test_population_with_multiplicity_two():
    confirmed = 0
    for n in range(4, 8):
        for h in enumerate_connected_free(n, 3, FamilySpec("bp", 3, multiplicity_cap=2)):
            chk = sparse_set_check(h, 2)
            if chk.verdict != "witness_found":
                continue
            confirmed += 1
            con = sparse_set_constructive(h, 2)
            assert con.verdict == "witness_found", h
    assert confirmed >= 2


def test_report_json_shape():
    obj = sparse_set_check(STAR7, 1).to_json_obj()
    assert obj["verdict"] == "witness_found"
    assert obj["subset"] is not None and obj["t"] == 2


def test_exhaustive_scan_size_guard():
    from bergeturan.hypergraph import Hypergraph
    from bergeturan.search import SearchLimitError

    big = Hypergraph(17, 3, ((0, 1, 2),))
    with pytest.raises(SearchLimitError):
        sparse_set_check(big, 1)


def test_constructive_walks_the_longest_path_once(monkeypatch):
    calls = []

    def counting(h):
        calls.append(h)
        return longest(h)

    longest = search.longest_berge_path
    monkeypatch.setattr(search, "longest_berge_path", counting)
    rep = sparse_set_constructive(STAR7, 1)
    assert rep.subset == (1, 2, 3, 4)
    assert len(calls) == 1


def _first_subset(h, min_size, max_meets):
    """Brute force: the first vertex set in bitmask order with at least
    ``min_size`` vertices that meets at most ``max_meets`` edge instances."""
    for mask in range(1 << h.n):
        s = {v for v in range(h.n) if mask >> v & 1}
        if len(s) >= min_size and sum(1 for e in h.edges if s & set(e)) <= max_meets:
            return tuple(sorted(s))
    return None


def _mask(subset):
    return sum(1 << v for v in subset)


def _grown(rng):
    """A connected multi-hypergraph grown edge by edge, each new edge
    sharing 1..r-1 vertices with an earlier one, some edges repeated,
    with shuffled labels; the cap is its multiplicity or one more."""
    r = rng.randint(3, 5)
    n_max = rng.randint(r + 1, 11)
    edges = [list(range(r))]
    n = r
    while True:
        shared = rng.randint(1, r - 1) if rng.random() < 0.5 else 1
        if n + r - shared > n_max:
            break
        edges.append(rng.sample(rng.choice(edges), shared)
                     + list(range(n, n + r - shared)))
        n += r - shared
        if rng.random() < 0.2:
            edges.append(rng.choice(edges))
    perm = list(range(n))
    rng.shuffle(perm)
    h = build(n, r, [[perm[v] for v in e] for e in edges])
    return h, h.max_multiplicity() + rng.randint(0, 1)


def test_check_returns_first_small_else_first_large_subset():
    rng = random.Random(8)
    inputs = [(CHAIN, 1)] + [_grown(rng) for _ in range(300)]
    outcomes = {"small": 0, "large": 0, "small_after_large": 0}
    for h, m in inputs:
        rep = sparse_set_check(h, m)
        if rep.verdict == "precondition_violated":
            continue
        small = _first_subset(h, 2 * h.r - 2, m + 1)
        large = _first_subset(h, 2 * h.r - 1, rep.t)
        if small is not None:
            expected = ("witness_found", small, CASE_SMALL)
            outcomes["small"] += 1
            if large is not None and _mask(large) < _mask(small):
                outcomes["small_after_large"] += 1
        elif large is not None:
            expected = ("witness_found", large, CASE_LARGE)
            outcomes["large"] += 1
        else:
            expected = ("counterexample", None, None)
        assert (rep.verdict, rep.subset, rep.case) == expected, (h, m)
        if rep.subset is not None:
            assert rep.neighborhood_size == len(hyperedge_neighborhood(h, rep.subset))
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize("name, n, r, k, verdict, case, subset", [
    # recursive union branch
    ("hub", 11, 4, 5, "counterexample", None, (0, 1, 2, 3, 4, 5, 6, 7)),
    ("hub", 11, 5, 5, "witness_found", CASE_LARGE, tuple(range(11))),
    # end-edges branch
    ("hub", 9, 5, 5, "witness_found", CASE_SMALL, (1, 2, 3, 4, 5, 6, 7, 8)),
    ("multi-star", 13, 5, 5, "counterexample", None, (1, 2, 3, 4, 5, 6, 7, 8)),
])
def test_constructive_family_members_pinned(name, n, r, k, verdict, case, subset):
    h = make_family(name, n, r, k)
    rep = sparse_set_constructive(h, h.max_multiplicity())
    assert (rep.verdict, rep.case, rep.subset) == (verdict, case, subset)


def test_recursive_set_walks_the_first_end_edge_first():
    rep = sparse_set_constructive(ORDERED, 1)
    assert rep.t == 4 and rep.case == CASE_LARGE
    assert rep.subset == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12)
