"""Generator families: structural contracts, determinism, and an honest
record of which published recipes fail their own freeness claim.

The k=4 families and the satellite-bearing cycle families are built
exactly as described by their sources, yet the exact detector finds the
forbidden path in every such output.  Those facts are pinned here as
passing tests (they document the defect); the acceptance suite keeps the
original "every generator is free" criterion and fails it honestly.
"""

import pytest

from bergeturan.berge import contains_berge_path, contains_berge_cycle, verify_witness
from bergeturan.constructions import (
    FamilyParamError,
    bp3_free_family,
    bp4_free_family,
    clique_pendant_family,
    cycle_satellite_family,
    hub_family,
    make_family,
    multi_family,
    sunflower_family,
    verify_family_output,
)
from bergeturan.hypergraph import canonical_key, is_connected


# -- k = 3 families -----------------------------------------------------

def test_star_7_3_exact_edges():
    h = bp3_free_family(7, 3, "star")
    assert h.edges == ((0, 1, 2), (0, 3, 4), (0, 5, 6))
    assert is_connected(h) and not contains_berge_path(h, 3)


def test_star_divisibility_error():
    with pytest.raises(FamilyParamError):
        bp3_free_family(6, 3, "star")


def test_double_edge_4_3():
    h = bp3_free_family(4, 3, "double_edge")
    assert h.edges == ((0, 1, 2), (0, 1, 3))
    assert len(set(h.edges[0]) & set(h.edges[1])) == 2


def test_double_edge_overlap_scaling():
    for r, n in [(4, 5), (4, 6), (5, 7), (6, 8)]:
        h = bp3_free_family(n, r, "double_edge")
        assert len(set(h.edges[0]) & set(h.edges[1])) == 2 * r - n
        assert is_connected(h) and not contains_berge_path(h, 3)


def test_star_range_errors():
    with pytest.raises(FamilyParamError):
        bp3_free_family(4, 3, "star")  # below 2r-1
    with pytest.raises(FamilyParamError):
        bp3_free_family(7, 4, "double_edge")  # above 2r-2


# -- k = 4 families: counts hold, freeness provably fails ---------------

def test_bp4_compact_6_4_pinned_edges():
    h = bp4_free_family(6, 4, "compact")
    assert h.num_edges() == 4
    assert (0, 1, 2, 3) in h.edges  # core {0,1} with v1=2, v2=3


def test_bp4_counts_and_connectivity():
    cases = [
        ("compact", 6, 4, 4), ("compact", 7, 4, 4), ("compact", 8, 4, 4),
        ("compact", 9, 5, 4),
        ("pair_hub", 10, 4, 5), ("pair_hub", 12, 4, 6), ("pair_hub", 13, 5, 5),
        ("point_hub", 11, 4, 5), ("point_hub", 14, 4, 6), ("point_hub", 13, 5, 5),
    ]
    for variant, n, r, count in cases:
        h = bp4_free_family(n, r, variant)
        assert h.num_edges() == count, (variant, n, r)
        assert is_connected(h)
        assert all(len(e) == r for e in h.edges)


def test_bp4_recipes_contain_the_forbidden_path():
    # The three-edge gadget shares its (r-2)-core, so a path can re-enter
    # the middle edge through a core vertex: every published k=4 recipe
    # yields a Berge path of length 4.  Pin the defect with witnesses.
    for variant, n, r in [
        ("compact", 6, 4), ("compact", 8, 4),
        ("pair_hub", 10, 4), ("pair_hub", 13, 5),
        ("point_hub", 11, 4), ("point_hub", 13, 5),
    ]:
        h = bp4_free_family(n, r, variant)
        has, w = contains_berge_path(h, 4, want_witness=True)
        assert has, (variant, n, r)
        assert verify_witness(h, w)


def test_bp4_range_errors():
    with pytest.raises(FamilyParamError):
        bp4_free_family(6, 3, "compact")  # r >= 4
    with pytest.raises(FamilyParamError):
        bp4_free_family(9, 4, "compact")  # n > r+4
    with pytest.raises(FamilyParamError):
        bp4_free_family(11, 4, "pair_hub")  # (r-2) does not divide (n-4)
    with pytest.raises(FamilyParamError):
        bp4_free_family(12, 4, "point_hub")  # (r-1) does not divide (n-5)


# -- hub family ---------------------------------------------------------

def test_hub_16_5_5():
    h = hub_family(16, 5, 5)
    assert h.num_edges() == 6
    assert is_connected(h)
    assert not contains_berge_path(h, 5)


def test_hub_17_5_6_count():
    assert hub_family(17, 5, 6).num_edges() == 7


def test_hub_every_edge_contains_hub():
    for n, r, k in [(11, 5, 5), (16, 5, 5), (13, 6, 5), (19, 6, 6)]:
        h = hub_family(n, r, k)
        assert all(0 in e for e in h.edges), (n, r, k)


def test_hub_freeness_small_grid():
    for n, r, k in [(11, 5, 5), (16, 5, 5), (13, 6, 5), (19, 6, 6), (17, 5, 6)]:
        h = hub_family(n, r, k)
        res = verify_family_output("hub", h, n, r, k)
        assert res.ok, (n, r, k, res.failures)


def test_hub_rejects_r_divides_n():
    with pytest.raises(FamilyParamError):
        hub_family(15, 5, 5)
    with pytest.raises(FamilyParamError):
        hub_family(16, 5, 4)  # k < 5


@pytest.mark.parametrize("build, args, message", [
    (bp3_free_family, (9, 2, "star"), "bp3 families need r >= 3"),
    (bp3_free_family, (9, 3, "ring"), "unknown bp3 variant 'ring'"),
    (bp4_free_family, (10, 4, "ring"), "unknown bp4 variant 'ring'"),
    (hub_family, (4, 5, 5), "need n >= r+1, got n=4"),
    (multi_family, (3, 4, 3, "star"), "need n >= r, got n=3"),
    (multi_family, (9, 4, 3, "ring"), "unknown multi variant 'ring'"),
    (make_family, ("ring", 7, 3), "unknown family 'ring'; known: "),
])
def test_builders_refuse_parameters_outside_their_range(build, args, message):
    with pytest.raises(FamilyParamError) as exc:
        build(*args)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("edges, n, failure", [
    # Hypergraph() takes the edges as given, so one can have r + 1 vertices.
    (((0, 1, 2), (0, 3, 4), (0, 1, 5, 6)), 7, "output is not r-uniform"),
    (((0, 1, 2), (0, 3, 4), (0, 5, 6)), 8, "vertex count 7 != 8"),
    (((0, 1, 2), (0, 1, 6), (3, 4, 5)), 7, "output is not connected/spanning"),
    (((0, 1, 2), (0, 1, 2), (0, 3, 4), (0, 5, 6)), 7, "edge count 4 != closed form 3"),
])
def test_verify_names_each_broken_contract(edges, n, failure):
    from bergeturan.hypergraph import Hypergraph

    # Every member is checked against star (7, 3): 3 edges on 7 vertices.
    check = verify_family_output("star", Hypergraph(7, 3, edges), n, 3,
                                 check_bp_free=False)
    assert check.failures == [failure]


def test_verify_without_required_k_raises_param_error():
    h = hub_family(16, 5, 5)
    with pytest.raises(FamilyParamError):
        verify_family_output("hub", h, 16, 5)


# -- cycle + satellites --------------------------------------------------

def test_cycle_satellites_always_carry_the_cycle():
    for n, r, k in [(16, 5, 5), (19, 5, 5), (25, 6, 6), (29, 6, 6)]:
        h = cycle_satellite_family(n, r, k)
        assert contains_berge_cycle(h, k - 1, "exact"), (n, r, k)
        assert is_connected(h)


def test_cycle_satellite_free_instances_are_genuinely_free():
    for n, r, k in [(16, 5, 5), (25, 6, 6), (20, 6, 5)]:
        h = cycle_satellite_family(n, r, k)
        assert h.num_edges() == k - 1
        assert not contains_berge_path(h, k)


def test_cycle_with_any_satellite_contains_the_forbidden_path():
    # Walking the whole cycle from a filler vertex and hopping into a
    # satellite yields k edges over k+1 distinct vertices.
    for n, r, k in [(19, 5, 5), (22, 5, 5), (29, 6, 6)]:
        h = cycle_satellite_family(n, r, k)
        assert h.num_edges() > k - 1
        has, w = contains_berge_path(h, k, want_witness=True)
        assert has, (n, r, k)
        assert verify_witness(h, w)


def test_cycle_satellite_divisibility_error():
    with pytest.raises(FamilyParamError):
        cycle_satellite_family(18, 5, 5)  # residual 2 vs step 3


# -- sunflower and clique-pendant families -------------------------------

def test_sunflower_6_3():
    h = sunflower_family(6, 3)
    assert h.edges == ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5))
    assert h.num_edges() == 4


def test_sunflower_smallest_case():
    h = sunflower_family(4, 3)
    assert h.num_edges() == 2
    assert len(set(h.edges[0]) & set(h.edges[1])) == 2


def test_sunflower_rejects_r_below_two():
    for n, r in [(3, 1), (2, 0)]:
        with pytest.raises(ValueError):
            sunflower_family(n, r)


def test_sunflower_grid_is_bp_r_plus_1_free():
    for r in (3, 4, 5):
        for n in range(r + 1, r + 7):
            h = sunflower_family(n, r)
            assert h.num_edges() == n - r + 1
            assert is_connected(h)
            assert not contains_berge_path(h, r + 1), (n, r)


def test_clique_pendants_7_3_5():
    h = clique_pendant_family(7, 3, 5)
    assert h.num_edges() == 5  # 7 - 3 + C(3,3)
    assert not contains_berge_path(h, 5)


def test_clique_pendants_matches_sunflower_at_k_r_plus_1():
    for r, n in [(3, 8), (4, 9), (5, 9)]:
        a = clique_pendant_family(n, r, r + 1)
        b = sunflower_family(n, r)
        assert canonical_key(a) == canonical_key(b)


def test_clique_pendants_freeness_grid():
    for n, r, k in [(7, 3, 5), (8, 3, 5), (9, 4, 6), (10, 4, 7), (9, 4, 5)]:
        h = clique_pendant_family(n, r, k)
        res = verify_family_output("clique-pendants", h, n, r, k)
        assert res.ok, (n, r, k, res.failures)


def test_clique_pendants_range_errors():
    with pytest.raises(FamilyParamError):
        clique_pendant_family(9, 4, 4)  # k < r+1
    with pytest.raises(FamilyParamError):
        clique_pendant_family(9, 4, 8)  # k > 2r-1


# -- multi-hypergraph families --------------------------------------------

def test_multi_star_8_4_4():
    h = multi_family(8, 4, 4, "star")
    assert h.num_edges() == 3  # floor(7/3)*1 + 1
    assert h.max_multiplicity() == 1  # floor((k-1)/2) = 1 at k=4
    assert not contains_berge_path(h, 4)


def test_multi_star_multiplicity_shows_up():
    h = multi_family(14, 5, 5, "star")
    assert h.max_multiplicity() == 2
    res = verify_family_output("multi-star", h, 14, 5, 5)
    assert res.ok, res.failures


def test_multi_star_grid():
    for n, r, k in [(7, 4, 3), (11, 4, 4), (13, 5, 4), (14, 5, 5), (18, 5, 4)]:
        h = multi_family(n, r, k, "star")
        res = verify_family_output("multi-star", h, n, r, k)
        assert res.ok, (n, r, k, res.failures)


def test_multi_star_rejects_divisible_n():
    with pytest.raises(FamilyParamError):
        multi_family(9, 4, 3, "star")  # (r-1) | n
    with pytest.raises(FamilyParamError):
        multi_family(8, 4, 3, "star")  # k=3 cannot cover a nonzero remainder


def test_multi_cycle_realizes_the_short_cycle():
    for n, r, k in [(4, 4, 3), (5, 5, 4), (6, 6, 5)]:
        h = multi_family(n, r, k, "cycle")
        assert h.max_multiplicity() == k - 1
        assert contains_berge_cycle(h, k - 1, "exact")
        assert not contains_berge_path(h, k)


def test_multi_cycle_with_satellites_contains_the_path():
    h = multi_family(7, 4, 3, "cycle")
    assert h.num_edges() == 3
    has, w = contains_berge_path(h, 3, want_witness=True)
    assert has and verify_witness(h, w)


# -- cross-cutting contracts ----------------------------------------------

def test_generators_are_deterministic():
    cases = [
        ("star", 9, 3, None), ("double-edge", 5, 4, None),
        ("bp4-pair-hub", 10, 4, None), ("hub", 16, 5, 5),
        ("sunflower", 8, 3, None), ("clique-pendants", 8, 3, 5),
        ("multi-star", 11, 4, 4), ("multi-cycle", 5, 5, 4),
    ]
    for name, n, r, k in cases:
        a = make_family(name, n, r, k)
        b = make_family(name, n, r, k)
        assert a == b
        if n <= 12:
            assert canonical_key(a) == canonical_key(b)


def test_star_count_matches_formula_oracle():
    from bergeturan.formulas import conn_bp_value

    for r in (3, 4, 5):
        for a in range(2, 5):
            n = 1 + a * (r - 1)
            res = conn_bp_value(n, r, 3)
            if res.regime == "exact" and n >= 2 * r - 1:
                h = bp3_free_family(n, r, "star")
                assert h.num_edges() == res.value


def test_every_member_edge_list_is_pinned():
    # The bench golden file pins verdicts only; this digest pins every
    # edge of every member on a small grid, so moving a block or a
    # satellite anchor shows here even when no verdict changes.
    from hashlib import sha256

    from bergeturan.constructions import family_names

    text, members = "", 0
    for name in family_names():
        for r in range(3, 6):
            for k in range(3, 2 * r + 1):
                for n in range(r, 15):
                    try:
                        h = make_family(name, n, r, k)
                    except FamilyParamError:
                        continue
                    text += f"{name} {n} {r} {k}\n" + h.to_text()
                    members += 1
    assert members == 527
    assert sha256(text.encode()).hexdigest() == (
        "3559b8140f2fa3af596772517200cad003da9f1665c4a8209bbe15721c67b5a4"
    )


def test_every_member_verdict_is_pinned():
    # The verifier's verdict on every member of the grid above: the
    # forbidden length it checked and its failure strings, in order.
    from hashlib import sha256

    from bergeturan.constructions import family_names

    text, members = "", 0
    for name in family_names():
        for r in range(3, 6):
            for k in range(3, 2 * r + 1):
                for n in range(r, 15):
                    try:
                        h = make_family(name, n, r, k)
                    except FamilyParamError:
                        continue
                    check = verify_family_output(name, h, n, r, k)
                    text += f"{name} {n} {r} {k} {check.k} {check.failures}\n"
                    members += 1
    assert members == 527
    assert sha256(text.encode()).hexdigest() == (
        "139b166a1d8d529fdbc8ab7ce64000acca47f22b0a0e149058e6ed217b922075"
    )
