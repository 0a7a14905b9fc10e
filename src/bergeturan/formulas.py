"""Closed-form values and bounds for connected Berge-path Turan numbers.

Every oracle returns an exact rational (``fractions.Fraction``) together
with a validity-regime tag; no floating point is used anywhere so the
values are safe to use as admissible pruning bounds in the exact search.

Regimes:
  exact              -- claimed exact for the stated parameters
  exact_for_large_n  -- exact once n is sufficiently large (threshold
                        unspecified by the source; the exhaustive search
                        is the arbiter at small n)
  upper_bound        -- valid upper bound
  lower_bound        -- valid lower bound
  conjectured        -- conjectured exact value
  undefined          -- no value (either no formula in range, or the
                        function itself has no value: no qualifying
                        hypergraph exists)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

REGIMES = (
    "exact",
    "exact_for_large_n",
    "upper_bound",
    "lower_bound",
    "conjectured",
    "undefined",
)


@dataclass(frozen=True)
class FormulaResult:
    value: Fraction | None
    regime: str
    source: str
    note: str = ""
    # Where the exhaustive search refutes ``value``.  Kept out of
    # ``to_json_obj`` so recorded formula objects stay as they are; the
    # ``formula`` command prints it next to them.
    refuted: str = ""

    def __post_init__(self):
        assert self.regime in REGIMES
        assert self.value is not None or self.regime == "undefined"

    def to_json_obj(self) -> dict:
        if self.value is None:
            val = "undefined"
        elif self.value.denominator == 1:
            val = str(self.value.numerator)
        else:
            val = f"{self.value.numerator}/{self.value.denominator}"
        obj = {"value": val, "regime": self.regime, "source": self.source}
        if self.note:
            obj["note"] = self.note
        return obj


class FormulaRangeError(ValueError):
    """Raised when a selector is evaluated outside its stated range."""


def _need_sizes(n: int, r: int) -> None:
    """No r-edge fits on fewer than r vertices, so no bound applies there."""
    if r < 2:
        raise FormulaRangeError(f"need r >= 2, got r={r}")
    if n < r:
        raise FormulaRangeError(f"need n >= r, got n={n}, r={r}")


# ----------------------------------------------------------------------
# Main dispatcher: connected Turan numbers for Berge paths
# ----------------------------------------------------------------------

def conn_bp_value(n: int, r: int, k: int) -> FormulaResult:
    """Piecewise closed-form oracle for the maximum edge count of an
    n-vertex connected r-uniform hypergraph with no Berge path of
    length k.  Dispatches on the relation of k to r."""
    if not (n >= r >= 2) or k < 2:
        raise FormulaRangeError(f"need n >= r >= 2 and k >= 2, got {(n, r, k)}")

    if r == 2:
        return _graph_case(n, k)

    if k == 2:
        # A second edge would already give a Berge path of length 2.
        if n == r:
            return FormulaResult(Fraction(1), "exact", "bp2")
        return FormulaResult(None, "undefined", "bp2",
                             "no connected spanning BP_2-free hypergraph for n > r")

    if k == 3:
        return _bp3_value(n, r)

    if k == 4 and r >= 4:
        return _bp4_value(n, r)

    if 5 <= k <= r:
        return _hub_range_value(n, r, k)

    if k == r + 1:
        return FormulaResult(Fraction(_clique_pendant_count(n, r, k)),
                             "exact_for_large_n", "sunflower")

    if r + 2 <= k <= 2 * r - 1:
        return FormulaResult(Fraction(_clique_pendant_count(n, r, k)),
                             "conjectured", "clique_pendants")

    if k >= 2 * r + 13 and k >= 18:
        return FormulaResult(_gsz21_value(n, r, k), "exact_for_large_n", "gsz21")

    applicable = [b.source for b in applicable_bounds(n, r, k)]
    note = "no closed form in this range"
    if applicable:
        note += "; applicable upper bounds: " + ", ".join(applicable)
    return FormulaResult(None, "undefined", "none", note)


def _graph_case(n: int, k: int) -> FormulaResult:
    """r = 2: connected graphs without a path of length k."""
    if k == 2:
        if n == 2:
            return FormulaResult(Fraction(1), "exact", "bp2")
        return FormulaResult(None, "undefined", "bp2",
                             "no connected spanning P_2-free graph for n > 2")
    if n <= k:
        return FormulaResult(Fraction(comb(n, 2)), "exact", "complete",
                             "a path of length k needs k+1 vertices")
    if k >= 4:
        return FormulaResult(_kopylov_value(n, k), "exact", "kopylov")
    return FormulaResult(None, "undefined", "none",
                         "graph case k = 3 not covered by the implemented formulas")


def _kopylov_value(n: int, k: int) -> Fraction:
    t1 = comb(k - 1, 2) + (n - k + 1)
    half_up = (k + 1 + 1) // 2  # ceil((k+1)/2)
    t2 = comb(half_up, 2) + ((k - 1) // 2) * (n - half_up)
    return Fraction(max(t1, t2))


def _hub_count(n: int, k: int, size: int) -> int:
    """Edges of a hub of blocks of ``size`` fresh vertices avoiding length
    k: floor((k-1)/2) per block, one more when k is even."""
    return ((k - 1) // 2) * ((n - 1) // size) + (1 if k % 2 == 0 else 0)


def _clique_pendant_count(n: int, r: int, k: int) -> int:
    """Edges of a clique on k-2 vertices plus a pendant edge per outside
    vertex: n - (k-2) + C(k-2, r), which is n-r+1 at k = r+1."""
    return n - (k - 2) + comb(k - 2, r)


def _gsz21_value(n: int, r: int, k: int) -> Fraction:
    """C(q, r-1)*(n-q) + C(q, r) + [2|k]*C(q, r-2), q = floor((k-1)/2)."""
    q = (k - 1) // 2
    return Fraction(
        comb(q, r - 1) * (n - q) + comb(q, r)
        + (comb(q, r - 2) if k % 2 == 0 else 0)
    )


def _bp3_value(n: int, r: int) -> FormulaResult:
    if n <= 2 * r - 2:
        return FormulaResult(Fraction(2), "exact", "bp3_pair")
    if (n - 1) % (r - 1) == 0:
        return FormulaResult(Fraction(_hub_count(n, 3, r - 1)), "exact", "bp3_star")
    return FormulaResult(None, "undefined", "bp3_star",
                         "no connected spanning BP_3-free hypergraph: "
                         f"(r-1) = {r - 1} does not divide (n-1) = {n - 1}")


BP4_SMALL_REFUTED = (
    "exhaustive search refutes this value: exact_ex_conn gives 1 at n = r "
    "and 3 at every other (n, r) with 4 <= r <= 12 and "
    "n <= min(r + 4, default_n_limit(r)), for example 3 at (8, 4)"
)


def _bp4_value(n: int, r: int) -> FormulaResult:
    if n <= r + 4:
        return FormulaResult(Fraction(4), "exact", "bp4_small",
                             refuted=BP4_SMALL_REFUTED)
    b1 = Fraction(n - 5, r - 1) + 3
    b2 = Fraction(n - 4, r - 2) + 2
    div1 = (n - 5) % (r - 1) == 0
    div2 = (n - 4) % (r - 2) == 0
    if not div1 and not div2:
        return FormulaResult(None, "undefined", "bp4_bound",
                             "claimed undefined: neither (r-1) | (n-5) nor "
                             "(r-2) | (n-4) holds")
    achieved = [name for name, d in (("point_hub", div1), ("pair_hub", div2)) if d]
    return FormulaResult(max(b1, b2), "upper_bound", "bp4_bound",
                         "constructively claimed branch: " + ",".join(achieved))


def _hub_range_value(n: int, r: int, k: int) -> FormulaResult:
    if n % r == 0:
        return FormulaResult(None, "undefined", "hub",
                             "value not determined when r | n")
    return FormulaResult(Fraction(_hub_count(n, k, r)), "exact_for_large_n", "hub")


# ----------------------------------------------------------------------
# Cited bounds for Berge paths (selector interface)
# ----------------------------------------------------------------------

def classical_bound(selector: str, n: int, r: int, k: int) -> FormulaResult:
    """Closed-form bounds from the surrounding literature, by selector.

    kostochka_luo : max{k-1, k*n/(2r-k+4)}, connected, 3 <= k <= r
    gkl_small     : n*(k-1)/(r+1), unrestricted, 2 < k <= r
    gkl_large     : (n/k)*C(k,r), unrestricted, k > r+1 > 3
    dgmt          : n, unrestricted, k = r+1
    kopylov       : graph case (r = 2), connected, n > k >= 4, exact
    fkl_conn      : C(ceil((k+1)/2), r) + (n - ceil((k+1)/2))*C(floor((k-1)/2), r-1),
                    connected, k >= 4r >= 12, large n
    gsz21         : C(q, r-1)*(n-q) + C(q, r) + [2|k]*C(q, r-2), q = floor((k-1)/2),
                    connected, k >= 2r+13 >= 18, large n
    """
    _need_sizes(n, r)
    if selector == "kostochka_luo":
        if not (3 <= k <= r):
            raise FormulaRangeError(f"kostochka_luo needs 3 <= k <= r, got k={k}, r={r}")
        val = max(Fraction(k - 1), Fraction(k * n, 2 * r - k + 4))
        return FormulaResult(val, "upper_bound", "kostochka_luo")
    if selector == "gkl_small":
        if not (2 < k <= r):
            raise FormulaRangeError(f"gkl_small needs 2 < k <= r, got k={k}, r={r}")
        return FormulaResult(Fraction(n * (k - 1), r + 1), "upper_bound", "gkl_small")
    if selector == "gkl_large":
        if not (k > r + 1 > 3):
            raise FormulaRangeError(f"gkl_large needs k > r+1 > 3, got k={k}, r={r}")
        return FormulaResult(Fraction(n, k) * comb(k, r), "upper_bound", "gkl_large")
    if selector == "dgmt":
        if k != r + 1:
            raise FormulaRangeError(f"dgmt needs k = r+1, got k={k}, r={r}")
        return FormulaResult(Fraction(n), "upper_bound", "dgmt")
    if selector == "kopylov":
        if r != 2 or not (n > k >= 4):
            raise FormulaRangeError(
                f"kopylov is the graph case: r=2, n > k >= 4, got {(n, r, k)}"
            )
        return FormulaResult(_kopylov_value(n, k), "exact", "kopylov")
    if selector == "fkl_conn":
        if not (n >= k >= 4 * r >= 12):
            raise FormulaRangeError(
                f"fkl_conn needs n >= k >= 4r >= 12, got {(n, r, k)}"
            )
        half_up = (k + 1 + 1) // 2
        val = Fraction(
            comb(half_up, r) + (n - half_up) * comb((k - 1) // 2, r - 1)
        )
        return FormulaResult(val, "upper_bound", "fkl_conn",
                             "valid once n exceeds an unspecified threshold")
    if selector == "gsz21":
        if not (k >= 2 * r + 13 and k >= 18):
            raise FormulaRangeError(f"gsz21 needs k >= 2r+13 >= 18, got k={k}, r={r}")
        return FormulaResult(_gsz21_value(n, r, k), "upper_bound", "gsz21",
                             "exact for sufficiently large n")
    raise FormulaRangeError(f"unknown classical bound selector {selector!r}")


CLASSICAL_SELECTORS = (
    "kostochka_luo", "gkl_small", "gkl_large", "dgmt", "kopylov", "fkl_conn", "gsz21",
)


# ----------------------------------------------------------------------
# Cited values/bounds for Berge cycles (selector interface)
# ----------------------------------------------------------------------

def bc_value(selector: str, n: int, r: int, k: int) -> FormulaResult:
    """Turan values/bounds for the family of Berge cycles of length >= k.

    glsz_small : (k-1)*floor((n-1)/r) + [r|n], exact, r > k >= 3
    glsz_eq    : max{(r-1)*floor((n-1)/r), n-r+1}, exact, k = r >= 3
    multi      : (k-1)*floor((n-1)/(r-1)), multi-hypergraphs, 2 <= k <= r
    egmstz     : n-1 for k = r+1; (n-1)(r+1)/r for k = r+2 (k >= 4)
    fkl_cycle  : ((n-1)/(k-2))*C(k-1, r), k >= r+3 >= 6
    """
    _need_sizes(n, r)
    if selector == "glsz_small":
        if not (r > k >= 3):
            raise FormulaRangeError(f"glsz_small needs r > k >= 3, got k={k}, r={r}")
        val = Fraction((k - 1) * ((n - 1) // r) + (1 if n % r == 0 else 0))
        return FormulaResult(val, "exact", "glsz_small")
    if selector == "glsz_eq":
        if not (k == r and r >= 3):
            raise FormulaRangeError(f"glsz_eq needs k = r >= 3, got k={k}, r={r}")
        branch_a = Fraction((r - 1) * ((n - 1) // r))
        branch_b = Fraction(n - r + 1)
        winner = "partition" if branch_a > branch_b else (
            "sunflower" if branch_b > branch_a else "tie")
        return FormulaResult(max(branch_a, branch_b), "exact", "glsz_eq",
                             f"max branch: {winner}")
    if selector == "multi":
        if not (2 <= k <= r):
            raise FormulaRangeError(f"multi needs 2 <= k <= r, got k={k}, r={r}")
        return FormulaResult(Fraction((k - 1) * ((n - 1) // (r - 1))),
                             "upper_bound", "multi")
    if selector == "egmstz":
        if k == r + 1 and k >= 4:
            return FormulaResult(Fraction(n - 1), "upper_bound", "egmstz")
        if k == r + 2 and k >= 4:
            return FormulaResult(Fraction((n - 1) * (r + 1), r),
                                 "upper_bound", "egmstz")
        raise FormulaRangeError(
            f"egmstz needs k in {{r+1, r+2}} and k >= 4, got k={k}, r={r}"
        )
    if selector == "fkl_cycle":
        if not (k >= r + 3 and k >= 6):
            raise FormulaRangeError(f"fkl_cycle needs k >= r+3 >= 6, got k={k}, r={r}")
        return FormulaResult(Fraction(n - 1, k - 2) * comb(k - 1, r),
                             "upper_bound", "fkl_cycle")
    raise FormulaRangeError(f"unknown bc selector {selector!r}")


BC_SELECTORS = ("glsz_small", "glsz_eq", "multi", "egmstz", "fkl_cycle")


def applicable_bounds(n: int, r: int, k: int) -> list[FormulaResult]:
    """All classical path bounds whose preconditions hold at (n, r, k)."""
    _need_sizes(n, r)
    out = []
    for sel in CLASSICAL_SELECTORS:
        try:
            out.append(classical_bound(sel, n, r, k))
        except FormulaRangeError:
            continue
    return out
