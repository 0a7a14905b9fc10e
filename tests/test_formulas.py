"""Closed-form oracles: pinned instantiations and rational exactness."""

from fractions import Fraction

import pytest

from bergeturan.formulas import (
    BC_SELECTORS,
    BP4_SMALL_REFUTED,
    CLASSICAL_SELECTORS,
    FormulaRangeError,
    applicable_bounds,
    bc_value,
    classical_bound,
    conn_bp_value,
)


# -- main dispatcher ----------------------------------------------------

def test_hub_range_16_5_5():
    res = conn_bp_value(16, 5, 5)
    assert res.value == 6 and res.regime == "exact_for_large_n"


def test_sunflower_value_10_3_4():
    res = conn_bp_value(10, 3, 4)
    assert res.value == 8 and res.regime == "exact_for_large_n"


def test_bp3_undefined_6_3():
    res = conn_bp_value(6, 3, 3)
    assert res.value is None and res.regime == "undefined"


def test_conjectured_7_3_5():
    res = conn_bp_value(7, 3, 5)
    assert res.value == 5 and res.regime == "conjectured"


def test_bp3_pair_and_star_regimes():
    assert conn_bp_value(4, 3, 3).value == 2
    assert conn_bp_value(7, 3, 3).value == 3
    assert conn_bp_value(9, 3, 3).value == 4
    assert conn_bp_value(13, 4, 3).value == 4


def test_bp4_small_and_bound_regimes():
    assert conn_bp_value(8, 4, 4).value == 4
    assert conn_bp_value(8, 4, 4).regime == "exact"
    res = conn_bp_value(10, 4, 4)
    assert res.regime == "upper_bound"
    assert res.value == max(Fraction(10 - 5, 3) + 3, Fraction(10 - 4, 2) + 2)
    assert "pair_hub" in res.note
    res = conn_bp_value(9, 4, 4)  # neither divisibility holds
    assert res.regime == "undefined"


def test_bp4_small_carries_its_refutation():
    res = conn_bp_value(8, 4, 4)
    assert res.refuted == BP4_SMALL_REFUTED
    assert "refutes" in res.refuted and "(8, 4)" in res.refuted
    assert "refuted" not in res.to_json_obj()
    assert conn_bp_value(10, 4, 4).refuted == ""


def test_search_disagrees_with_bp4_small():
    """Every (n, r) point the refutation names, searched inside the
    default limits."""
    from bergeturan.search import FamilySpec, default_n_limit, exact_ex_conn

    formula = conn_bp_value(8, 4, 4).value
    assert exact_ex_conn(8, 4, FamilySpec("bp", 4)).value != formula
    for r in range(4, 13):
        for n in range(r, min(r + 4, default_n_limit(r)) + 1):
            assert conn_bp_value(n, r, 4).source == "bp4_small"
            out = exact_ex_conn(n, r, FamilySpec("bp", 4))
            assert out.value == (1 if n == r else 3) != formula, (n, r)


def test_bp2_values():
    assert conn_bp_value(3, 3, 2).value == 1
    assert conn_bp_value(4, 3, 2).regime == "undefined"


def test_hub_range_undefined_when_r_divides_n():
    assert conn_bp_value(15, 5, 5).regime == "undefined"


def test_gsz21_range():
    res = conn_bp_value(30, 3, 20)
    q = 9  # floor(19/2)
    from math import comb

    assert res.value == comb(q, 2) * (30 - q) + comb(q, 3) + comb(q, 1)
    assert res.regime == "exact_for_large_n"


def test_no_formula_gap_range():
    res = conn_bp_value(20, 4, 9)  # 2r <= k < 2r+13
    assert res.regime == "undefined"
    assert "gkl_large" in res.note


def test_graph_case_dispatch():
    assert conn_bp_value(5, 2, 4).value == 5
    assert conn_bp_value(7, 2, 5).value == 11


def test_dispatch_rejects_bad_parameters():
    with pytest.raises(FormulaRangeError):
        conn_bp_value(3, 4, 3)  # n < r
    with pytest.raises(FormulaRangeError):
        conn_bp_value(5, 3, 1)


def test_values_are_exact_rationals():
    for n, r, k in [(16, 5, 5), (10, 4, 4), (7, 3, 5), (8, 3, 4)]:
        res = conn_bp_value(n, r, k)
        assert res.value is None or isinstance(res.value, Fraction)


# -- classical path bounds ------------------------------------------------

def test_kostochka_luo_16_5_5():
    res = classical_bound("kostochka_luo", 16, 5, 5)
    assert res.value == Fraction(80, 9)
    assert res.regime == "upper_bound"


def test_gkl_small_8_3_3():
    assert classical_bound("gkl_small", 8, 3, 3).value == 4


def test_kopylov_5_2_4_exact():
    res = classical_bound("kopylov", 5, 2, 4)
    assert res.value == 5 and res.regime == "exact"


def test_kopylov_matches_both_branches():
    # k=5, n=7: max{C(4,2)+3, C(3,2)+2*4} = max{9, 11} = 11
    assert classical_bound("kopylov", 7, 2, 5).value == 11


def test_gkl_large_and_dgmt():
    from math import comb

    assert classical_bound("gkl_large", 12, 3, 6).value == Fraction(12, 6) * comb(6, 3)
    assert classical_bound("dgmt", 10, 3, 4).value == 10


def test_classical_selector_ranges():
    with pytest.raises(FormulaRangeError):
        classical_bound("kostochka_luo", 10, 3, 4)  # k > r
    with pytest.raises(FormulaRangeError):
        classical_bound("kopylov", 10, 3, 4)  # r != 2
    with pytest.raises(FormulaRangeError):
        classical_bound("dgmt", 10, 3, 5)
    with pytest.raises(FormulaRangeError):
        classical_bound("nope", 10, 3, 3)


def test_applicable_bounds_collects_valid_selectors():
    sels = {b.source for b in applicable_bounds(16, 5, 5)}
    assert "kostochka_luo" in sels and "gkl_small" in sels
    assert "kopylov" not in sels


# -- Berge cycle values -----------------------------------------------------

def test_glsz_eq_10_3_3():
    res = bc_value("glsz_eq", 10, 3, 3)
    assert res.value == 8 and res.regime == "exact"
    assert "sunflower" in res.note


def test_glsz_small_9_4_3():
    res = bc_value("glsz_small", 9, 4, 3)
    assert res.value == 4 and res.regime == "exact"


def test_glsz_small_indicator_term():
    assert bc_value("glsz_small", 8, 4, 3).value == 2 * 1 + 1  # 4 | 8


def test_multi_9_4_3():
    res = bc_value("multi", 9, 4, 3)
    assert res.value == 4 and res.regime == "upper_bound"


def test_egmstz_both_cases():
    assert bc_value("egmstz", 10, 3, 4).value == 9
    assert bc_value("egmstz", 10, 3, 5).value == Fraction(9 * 4, 3)


def test_fkl_cycle():
    from math import comb

    res = bc_value("fkl_cycle", 13, 3, 6)
    assert res.value == Fraction(12, 4) * comb(5, 3)


def test_bc_selector_ranges():
    with pytest.raises(FormulaRangeError):
        bc_value("glsz_small", 9, 3, 3)  # needs r > k
    with pytest.raises(FormulaRangeError):
        bc_value("glsz_eq", 9, 4, 3)
    with pytest.raises(FormulaRangeError):
        bc_value("egmstz", 9, 4, 4)
    with pytest.raises(FormulaRangeError, match="unknown bc selector 'ring'"):
        bc_value("ring", 9, 4, 4)


def test_uniformity_below_two_is_out_of_range():
    # Without the check these raised a bare ValueError from math.comb.
    with pytest.raises(FormulaRangeError):
        applicable_bounds(40, 1, 20)
    with pytest.raises(FormulaRangeError):
        classical_bound("gsz21", 40, 0, 20)
    for r in (1, 0, -1):
        for sel in CLASSICAL_SELECTORS:
            with pytest.raises(FormulaRangeError):
                classical_bound(sel, 40, r, 20)
        for sel in BC_SELECTORS:
            with pytest.raises(FormulaRangeError):
                bc_value(sel, 40, r, 6)


def test_no_bound_below_n_equal_r():
    # No r-edge fits on fewer than r vertices.  kostochka_luo gave 2 at
    # (1,3,3) and (2,3,3) before the check; at n = r it still applies.
    for r in (2, 3, 5):
        for n in range(r):
            need = f"need n >= r, got n={n}, r={r}"
            for k in range(2, 2 * r + 20):
                with pytest.raises(FormulaRangeError, match=need):
                    applicable_bounds(n, r, k)
                for fn, selectors in ((classical_bound, CLASSICAL_SELECTORS),
                                      (bc_value, BC_SELECTORS)):
                    for sel in selectors:
                        with pytest.raises(FormulaRangeError, match=need):
                            fn(sel, n, r, k)
    assert classical_bound("kostochka_luo", 3, 3, 3).value == 2


# -- cross-oracle invariants -------------------------------------------------

def test_hub_value_below_kostochka_luo_on_grid():
    # The new exact values must improve on (sit below) the general bound
    # wherever both apply with 5 <= k <= r.
    for r in (5, 6, 7):
        for k in range(5, r + 1):
            for n in range(2 * r + 1, 6 * r, 3):
                res = conn_bp_value(n, r, k)
                if res.value is None:
                    continue
                kl = classical_bound("kostochka_luo", n, r, k)
                assert res.value <= kl.value, (n, r, k)


def test_generator_counts_match_oracle_values():
    from bergeturan.constructions import hub_family, sunflower_family

    # Only within the hub family's extremal regime 5 <= k <= r; at
    # k = r+1 the dispatcher switches to the sunflower value instead.
    for n, r, k in [(11, 5, 5), (16, 5, 5), (19, 6, 6)]:
        res = conn_bp_value(n, r, k)
        assert res.value == hub_family(n, r, k).num_edges()
    for n, r in [(6, 3), (9, 3), (9, 4), (11, 5)]:
        res = conn_bp_value(n, r, r + 1)
        assert res.value == sunflower_family(n, r).num_edges()


def test_json_rendering():
    assert conn_bp_value(16, 5, 5).to_json_obj()["value"] == "6"
    obj = classical_bound("kostochka_luo", 16, 5, 5).to_json_obj()
    assert obj["value"] == "80/9"
    assert conn_bp_value(6, 3, 3).to_json_obj()["value"] == "undefined"


def test_every_value_and_bound_is_pinned():
    # One digest over the dispatcher on a grid and every selector of both
    # interfaces, range errors included.
    from hashlib import sha256

    from bergeturan.formulas import BC_SELECTORS, CLASSICAL_SELECTORS

    lines = []
    for r in range(2, 9):
        for n in range(r, 41):
            for k in range(2, 41):
                res = conn_bp_value(n, r, k)
                lines.append(
                    f"{n} {r} {k} {sorted(res.to_json_obj().items())!r} {res.refuted}"
                )
                for fn, selectors in ((classical_bound, CLASSICAL_SELECTORS),
                                      (bc_value, BC_SELECTORS)):
                    for sel in selectors:
                        try:
                            obj = fn(sel, n, r, k).to_json_obj()
                            lines.append(f"{sel} {sorted(obj.items())!r}")
                        except FormulaRangeError as exc:
                            lines.append(f"{sel} {exc}")
    assert len(lines) == 127764
    assert sha256("\n".join(lines).encode()).hexdigest() == (
        "2b119776c01d9da5a170d302451d735fc569e684db666f5b14e620b6f00a9834"
    )
