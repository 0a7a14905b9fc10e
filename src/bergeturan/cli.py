"""Command-line front end.

Subcommands
  construct      build a named family and emit it (text or JSON)
  check          test a hypergraph file for Berge paths/cycles
  formula        closed-form value plus optional bounds at (n, r, k)
  exact          exhaustive connected Turan number with witnesses
  lemma-witness  sparse hyperedge-neighborhood set for a hypergraph file
  conjecture     compare exact search against the conjectured value
  table          CSV sweep comparing exact, formula and constructions

Exit codes: 0 success (an infeasible search outcome is a valid answer),
2 parameter/usage errors, 4 internal postcondition failures (a generator
whose output fails its own contract).  Reports are emitted with sorted
keys and no timing by default, so identical inputs give identical bytes;
pass --timing for wall-clock fields.
"""

from __future__ import annotations

import argparse
import json
import sys

from .berge import contains_berge_cycle, contains_berge_path, longest_berge_path
from .constructions import (
    FamilyParamError,
    _forbidden_length,
    family_names,
    make_family,
    verify_family_output,
)
from .formulas import (
    FormulaRangeError,
    applicable_bounds,
    classical_bound,
    conn_bp_value,
)
from .hypergraph import Hypergraph, from_json, from_text, is_connected
from .search import (
    FamilySpec,
    SearchLimitError,
    conjecture_check,
    exact_ex_conn,
    sparse_set_check,
    sparse_set_constructive,
)

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_POSTCONDITION = 4

VERIFY_DETECTOR_N_CAP = 24

WORKERS_HELP = ("accepted for compatibility; the search runs in one thread "
                "and gives the same output for any value")


def _read_hypergraph(path: str) -> Hypergraph:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(text)
    return from_text(text)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# -- subcommand implementations ------------------------------------------

def _cmd_construct(args) -> int:
    h = make_family(args.family, args.n, args.r, args.k)
    if not args.skip_verify:
        check_bp = h.n <= VERIFY_DETECTOR_N_CAP
        res = verify_family_output(args.family, h, args.n, args.r, args.k,
                                   check_bp_free=check_bp)
        if not res.ok:
            for msg in res.failures:
                print(f"postcondition failure [{args.family}]: {msg}",
                      file=sys.stderr)
            return EXIT_POSTCONDITION
    _emit(h.to_json() if args.format == "json" else h.to_text(), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    h = _read_hypergraph(args.file)
    report: dict = {
        "n": h.n,
        "r": h.r,
        "edges": h.num_edges(),
        "connected": is_connected(h),
    }
    if args.bp is not None:
        has, w = contains_berge_path(h, args.bp, want_witness=True)
        report["family"] = f"BP{args.bp}"
    elif args.bc is not None:
        mode = "at_least" if args.at_least else "exact"
        has, w = contains_berge_cycle(h, args.bc, mode, want_witness=True)
        report["family"] = f"BC{'>=' if args.at_least else ''}{args.bc}"
    else:
        has = None
        t, w = longest_berge_path(h)
        report["longest_berge_path"] = t
    if has is not None:
        report["contains"] = has
        report["free"] = not has
    if w is not None:
        report["witness"] = w.to_json_obj()
    _emit(_json_dump(report), args.out)
    return EXIT_OK


def _cmd_formula(args) -> int:
    res = conn_bp_value(args.n, args.r, args.k)
    report = {"n": args.n, "r": args.r, "k": args.k, "formula": res.to_json_obj()}
    if res.refuted:
        report["refuted"] = res.refuted
    if args.all_bounds:
        report["bounds"] = [b.to_json_obj() for b in
                            applicable_bounds(args.n, args.r, args.k)]
    _emit(_json_dump(report), args.out)
    return EXIT_OK


def _make_spec(args) -> FamilySpec:
    if args.bp is not None:
        return FamilySpec("bp", args.bp, args.multiplicity)
    kind = "bc_at_least" if args.at_least else "bc_exact"
    return FamilySpec(kind, args.bc, args.multiplicity)


def _cmd_exact(args) -> int:
    spec = _make_spec(args)
    out = exact_ex_conn(
        args.n,
        args.r,
        spec,
        workers=args.workers,
        witness_cap=args.witness_cap,
        node_budget=args.node_budget,
        time_budget=args.time_budget,
        force=args.force,
        checkpoint_path=args.checkpoint,
    )
    _emit(_json_dump(out.to_json_obj(stable=not args.timing)), args.out)
    return EXIT_OK


def _cmd_lemma_witness(args) -> int:
    h = _read_hypergraph(args.file)
    fn = sparse_set_constructive if args.constructive else sparse_set_check
    rep = fn(h, args.multiplicity)
    _emit(_json_dump(rep.to_json_obj()), args.out)
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    rep = conjecture_check(args.n, args.r, args.k,
                           workers=args.workers, force=args.force)
    _emit(_json_dump(rep.to_json_obj(stable=not args.timing)), args.out)
    return EXIT_OK


def _best_construction(n: int, r: int, k: int) -> int | None:
    """Largest generator output at (n, r, k) that passes its own
    ``verify_family_output`` contract, if any."""
    best = None
    for name in family_names():
        if name.startswith("multi-") or _forbidden_length(name, r, k) != k:
            continue
        try:
            h = make_family(name, n, r, k)
        except FamilyParamError:
            continue
        ok = h.n <= VERIFY_DETECTOR_N_CAP and verify_family_output(name, h, n, r, k).ok
        if ok and (best is None or h.num_edges() > best):
            best = h.num_edges()
    return best


def _cmd_table(args) -> int:
    lo, _, hi = args.n_range.partition("..")
    try:
        n_lo, n_hi = int(lo), int(hi)
    except ValueError:
        raise FamilyParamError(f"bad --n-range {args.n_range!r}; expected A..B")
    if n_lo > n_hi:
        raise FamilyParamError("empty --n-range")
    rows = ["n,r,k,exact,formula,regime,best_construction,bound_kl"]
    for n in range(n_lo, n_hi + 1):
        try:
            out = exact_ex_conn(n, args.r, FamilySpec("bp", args.k),
                                workers=args.workers, force=args.force)
            exact = str(out.value) if out.status == "value" else "infeasible"
        except SearchLimitError:
            exact = "skipped"
        try:
            res = conn_bp_value(n, args.r, args.k)
            formula = res.to_json_obj()["value"]
            regime = res.regime
        except FormulaRangeError:
            formula, regime = "", ""
        best = _best_construction(n, args.r, args.k)
        try:
            kl = classical_bound("kostochka_luo", n, args.r, args.k)
            kl_str = kl.to_json_obj()["value"]
        except FormulaRangeError:
            kl_str = ""
        rows.append(
            f"{n},{args.r},{args.k},{exact},{formula},{regime},"
            f"{'' if best is None else best},{kl_str}"
        )
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


# -- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bergeturan",
        description="Connected Turan numbers for Berge paths: exact search, "
                    "constructions, formulas and structural checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named extremal family")
    c.add_argument("family", choices=family_names())
    c.add_argument("n", type=int)
    c.add_argument("r", type=int)
    c.add_argument("k", type=int, nargs="?")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--out")
    c.add_argument("--skip-verify", action="store_true",
                   help="emit without checking the family's postconditions")
    c.set_defaults(fn=_cmd_construct)

    c = sub.add_parser("check", help="detect Berge paths/cycles in a file")
    c.add_argument("file")
    grp = c.add_mutually_exclusive_group()
    grp.add_argument("--bp", type=int, help="Berge path length to test")
    grp.add_argument("--bc", type=int, help="Berge cycle length to test")
    c.add_argument("--at-least", action="store_true",
                   help="with --bc: any cycle of length >= k")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_check)

    c = sub.add_parser("formula", help="closed-form value at (n, r, k)")
    c.add_argument("n", type=int)
    c.add_argument("r", type=int)
    c.add_argument("k", type=int)
    c.add_argument("--all-bounds", action="store_true")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_formula)

    c = sub.add_parser("exact", help="exhaustive connected Turan number")
    c.add_argument("n", type=int)
    c.add_argument("r", type=int)
    grp = c.add_mutually_exclusive_group(required=True)
    grp.add_argument("--bp", type=int)
    grp.add_argument("--bc", type=int)
    c.add_argument("--at-least", action="store_true")
    c.add_argument("--multiplicity", type=int, default=1, metavar="M")
    c.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    c.add_argument("--witness-cap", type=int, default=10)
    c.add_argument("--node-budget", type=int, default=None)
    c.add_argument("--time-budget", type=float, default=None, metavar="SECONDS")
    c.add_argument("--checkpoint", metavar="PATH",
                   help="write level-complete state here and resume from it")
    c.add_argument("--force", action="store_true",
                   help="override the desk-scale size limits")
    c.add_argument("--timing", action="store_true",
                   help="include wall-clock fields in the report")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_exact)

    c = sub.add_parser("lemma-witness",
                       help="sparse hyperedge-neighborhood set for a file")
    c.add_argument("file")
    c.add_argument("-m", "--multiplicity", type=int, default=1)
    c.add_argument("--constructive", action="store_true",
                   help="follow the longest-path construction instead of "
                        "exhaustive subset search")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_lemma_witness)

    c = sub.add_parser("conjecture", help="exact vs conjectured value")
    c.add_argument("n", type=int)
    c.add_argument("r", type=int)
    c.add_argument("k", type=int)
    c.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    c.add_argument("--force", action="store_true")
    c.add_argument("--timing", action="store_true")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_conjecture)

    c = sub.add_parser("table", help="CSV sweep over an n range")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--n-range", required=True, metavar="A..B")
    c.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    c.add_argument("--force", action="store_true")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_table)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # FamilyParamError, FormulaRangeError, SearchLimitError and
        # HypergraphError are all ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())
