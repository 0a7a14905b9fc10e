"""Workloads: the case lists, how a case calls the library, and the
normalised answer that is compared with the pinned golden output.

Each workload is chosen so that one optimisation target dominates it and
another is bypassed (see bench/README.md for the reasoning):

- ``search-detect``: the Berge detector dominates the level search.
- ``search-canon``: the canonicalizer dominates; the detector is idle.
- ``families``: the detector on few large inputs; no canonicalizer and
  no level search.
- ``quick``: tiny cases for the self-test; not a benchmark workload.

The seed only permutes the order in which a workload's cases run.  The
search cases themselves do not depend on it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# Connected graphs on n unlabeled vertices, OEIS A001349 (n = 1..8).
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# Recipes the README records as refuted: they contain the Berge path they
# are meant to avoid.  Every other family member must verify.
REFUTED_RECIPES = frozenset(
    {"bp4-compact", "bp4-pair-hub", "bp4-point-hub", "cycle-hub", "multi-cycle"})

FAMILY_R = range(3, 6)
FAMILY_N_MAX = 14

# (n, r, k) of the Berge-path searches.
DETECT_SEARCHES = ((10, 5, 5), (11, 4, 4))
CANON_SEARCHES = ((10, 3, 4),)
CANON_POPULATION = 7
QUICK_SEARCHES = ((7, 3, 3),)
QUICK_POPULATION = 5
QUICK_FAMILIES = (
    ("star", 7, 3, None), ("double-edge", 5, 4, None),
    ("bp4-compact", 6, 4, None), ("hub", 11, 5, 5),
    ("sunflower", 8, 4, None), ("clique-pendants", 8, 4, 6),
    ("multi-cycle", 7, 4, 4),
)

WORKLOADS = ("search-detect", "search-canon", "families")


@dataclass(frozen=True)
class Case:
    """One call into the library; ``id`` keys the golden output."""

    id: str
    kind: str           # "exact" | "population" | "family"
    n: int
    r: int
    k: int | None
    family: str = ""


def _exact(n, r, k) -> Case:
    return Case(f"exact/n{n}-r{r}-bp{k}", "exact", n, r, k)


def _population(n) -> Case:
    return Case(f"population/n{n}-r2-bp{n}", "population", n, 2, n)


def _family(name, n, r, k) -> Case:
    suffix = "" if k is None else f"-k{k}"
    return Case(f"family/{name}/n{n}-r{r}{suffix}", "family", n, r, k, family=name)


def family_grid() -> list[Case]:
    """Every distinct registered family member with r in FAMILY_R,
    k in 3..2r (for families that take k) and n up to FAMILY_N_MAX.

    A member exists where ``make_family`` accepts the parameters.
    """
    from bergeturan.constructions import FamilyParamError, family_names, make_family

    cases: dict[str, Case] = {}
    for name in family_names():
        for r in FAMILY_R:
            for k in range(3, 2 * r + 1):
                for n in range(r, FAMILY_N_MAX + 1):
                    try:
                        make_family(name, n, r, k)
                    except FamilyParamError:
                        continue
                    case = _family(name, n, r, k if _takes_k(name, n, r) else None)
                    cases.setdefault(case.id, case)
    return list(cases.values())


def _takes_k(name: str, n: int, r: int) -> bool:
    """Families with a fixed forbidden length build without k and ignore
    it; the others refuse to build without it."""
    from bergeturan.constructions import FamilyParamError, make_family

    try:
        make_family(name, n, r)
    except FamilyParamError:
        return True
    return False


def build_cases(workload: str, seed: int) -> list[Case]:
    """The workload's cases in the order given by ``seed``."""
    if workload == "search-detect":
        cases = [_exact(n, r, k) for n, r, k in DETECT_SEARCHES]
    elif workload == "search-canon":
        cases = [_exact(n, r, k) for n, r, k in CANON_SEARCHES]
        cases.append(_population(CANON_POPULATION))
    elif workload == "families":
        cases = family_grid()
    elif workload == "quick":
        cases = [_exact(n, r, k) for n, r, k in QUICK_SEARCHES]
        cases.append(_population(QUICK_POPULATION))
        cases.extend(_family(*m) for m in QUICK_FAMILIES)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cases.sort(key=lambda c: c.id)
    random.Random(seed).shuffle(cases)
    return cases


def run_case(case: Case):
    """The timed part: call the library and return its raw results.

    The entry points are looked up on the package at each call, so the
    traced run sees the wrapped versions it installs there.
    """
    import bergeturan as bt

    if case.kind == "exact":
        return bt.exact_ex_conn(case.n, case.r, bt.FamilySpec("bp", case.k),
                                workers=1, force=True)
    if case.kind == "population":
        return bt.enumerate_connected_free(case.n, case.r, bt.FamilySpec("bp", case.k),
                                           workers=1, force=True)
    h = bt.make_family(case.family, case.n, case.r, case.k)
    check = bt.verify_family_output(case.family, h, case.n, case.r, case.k)
    # The cap is the member's own multiplicity, so multi-hypergraph members
    # reach the longest-path and cycle stages instead of stopping at it.
    sparse = bt.sparse_set_constructive(h, h.max_multiplicity())
    formula = bt.conn_bp_value(case.n, case.r, check.k)
    return check, sparse, formula


def canonical_string(h) -> str:
    """The canonical string of a canonically labeled representative."""
    return ";".join([f"{h.n} {h.r}"] + [",".join(map(str, e)) for e in h.edges])


def answer(case: Case, raw) -> dict:
    """The normalised answer pinned in golden.json (computed untimed)."""
    if case.kind == "exact":
        return {
            "status": raw.status,
            "value": raw.value,
            "witnesses": list(raw.witnesses),
            "extremal_class_count": raw.extremal_class_count,
            "nodes_explored": raw.nodes_explored,
        }
    if case.kind == "population":
        keys = sorted(canonical_string(h) for h in raw)
        digest = hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()
        return {"count": len(keys), "digest": digest}
    check, sparse, formula = raw
    return {
        "failures": list(check.failures),
        "longest": sparse.t,
        "sparse_verdict": sparse.verdict,
        "sparse_case": sparse.case,
        "formula": formula.to_json_obj(),
    }


def fact_errors(case: Case, raw) -> list[str]:
    """Checks against sources independent of the golden file."""
    from bergeturan.hypergraph import from_canonical_string

    errors = []
    if case.kind == "population":
        expected = A001349.get(case.n)
        if case.r == 2 and case.k >= case.n and len(raw) != expected:
            errors.append(f"{len(raw)} classes, OEIS A001349 gives {expected}")
        for h in raw:
            if from_canonical_string(canonical_string(h)) != h:
                errors.append("representative does not round-trip its canonical string")
                break
    elif case.kind == "family":
        check = raw[0]
        if check.failures and case.family not in REFUTED_RECIPES:
            errors.append(f"{case.family} is not a refuted recipe but fails: "
                          + "; ".join(check.failures))
    return errors
