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


class PostconditionError(Exception):
    """A generator's output fails its own contract, one line per failure."""


def _read_hypergraph(path: str) -> Hypergraph:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(text)
    return from_text(text)


def _emit(text: str, out: str | None) -> None:
    """Write ``text``, ending in a newline, to stdout or to the file ``out``."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _cycle_mode(args) -> str:
    """The Berge cycle mode of ``--bc``; ``--at-least`` needs ``--bc``."""
    if args.at_least and args.bc is None:
        raise ValueError("--at-least applies only to --bc")
    return "at_least" if args.at_least else "exact"


# -- subcommand implementations: each returns the text to emit -----------

def _cmd_construct(args) -> str:
    h = make_family(args.family, args.n, args.r, args.k)
    if not args.skip_verify:
        check_bp = h.n <= VERIFY_DETECTOR_N_CAP
        res = verify_family_output(args.family, h, args.n, args.r, args.k,
                                   check_bp_free=check_bp)
        if not check_bp:
            print(f"note: n={h.n} is above the verify cap {VERIFY_DETECTOR_N_CAP}, "
                  f"so Berge path freeness was not checked; run "
                  f"`bergeturan check FILE --bp {res.k}` to check it",
                  file=sys.stderr)
        if not res.ok:
            raise PostconditionError("\n".join(
                f"postcondition failure [{args.family}]: {msg}"
                for msg in res.failures))
    return h.to_json() if args.format == "json" else h.to_text()


def _cmd_check(args) -> str:
    mode = _cycle_mode(args)
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
    return _json_dump(report)


def _cmd_formula(args) -> str:
    res = conn_bp_value(args.n, args.r, args.k)
    report = {"n": args.n, "r": args.r, "k": args.k, "formula": res.to_json_obj()}
    if res.refuted:
        report["refuted"] = res.refuted
    if args.all_bounds:
        report["bounds"] = [b.to_json_obj() for b in
                            applicable_bounds(args.n, args.r, args.k)]
    return _json_dump(report)


def _cmd_exact(args) -> str:
    mode = _cycle_mode(args)
    if args.bp is not None:
        spec = FamilySpec("bp", args.bp, args.multiplicity)
    else:
        spec = FamilySpec("bc_" + mode, args.bc, args.multiplicity)
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
    return _json_dump(out.to_json_obj(stable=not args.timing))


def _cmd_lemma_witness(args) -> str:
    h = _read_hypergraph(args.file)
    fn = sparse_set_constructive if args.constructive else sparse_set_check
    rep = fn(h, args.multiplicity)
    return _json_dump(rep.to_json_obj())


def _cmd_conjecture(args) -> str:
    rep = conjecture_check(args.n, args.r, args.k,
                           workers=args.workers, force=args.force)
    return _json_dump(rep.to_json_obj(stable=not args.timing))


def _best_construction(n: int, r: int, k: int) -> tuple[int | None, bool]:
    """Largest generator output at (n, r, k) that passes its own
    ``verify_family_output`` contract, if any, and whether some member
    went unverified, and so uncounted, above ``VERIFY_DETECTOR_N_CAP``."""
    best, capped = None, False
    for name in family_names():
        if name.startswith("multi-") or _forbidden_length(name, r, k) != k:
            continue
        try:
            h = make_family(name, n, r, k)
        except FamilyParamError:
            continue
        if h.n > VERIFY_DETECTOR_N_CAP:
            capped = True
        elif verify_family_output(name, h, n, r, k).ok and (
                best is None or h.num_edges() > best):
            best = h.num_edges()
    return best, capped


def _cmd_table(args) -> str:
    lo, _, hi = args.n_range.partition("..")
    try:
        n_lo, n_hi = int(lo), int(hi)
    except ValueError:
        raise FamilyParamError(f"bad --n-range {args.n_range!r}; expected A..B")
    if n_lo > n_hi:
        raise FamilyParamError("empty --n-range")
    rows = ["n,r,k,exact,formula,regime,best_construction,bound_kl"]
    capped_rows = []
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
        best, capped = _best_construction(n, args.r, args.k)
        if capped:
            capped_rows.append(str(n))
        try:
            kl = classical_bound("kostochka_luo", n, args.r, args.k)
            kl_str = kl.to_json_obj()["value"]
        except FormulaRangeError:
            kl_str = ""
        rows.append(
            f"{n},{args.r},{args.k},{exact},{formula},{regime},"
            f"{'' if best is None else best},{kl_str}"
        )
    if capped_rows:
        print(f"note: rows n={','.join(capped_rows)} are above the verify cap "
              f"{VERIFY_DETECTOR_N_CAP}, so best_construction counts no family "
              f"member there; run `bergeturan check FILE --bp {args.k}` on a "
              f"member to check it", file=sys.stderr)
    return "\n".join(rows)


# -- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bergeturan",
        description="Connected Turan numbers for Berge paths: exact search, "
                    "constructions, formulas and structural checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write to this file what stdout would show")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; the search runs in "
                             "one thread and gives the same output for any value")
    search.add_argument("--force", action="store_true",
                        help="override the desk-scale size limits")

    def add(name: str, summary: str, *shared: argparse.ArgumentParser):
        return sub.add_parser(name, help=summary, parents=[output, *shared])

    c = add("construct", "build a named extremal family")
    c.add_argument("family", choices=family_names())
    c.add_argument("n", type=int)
    c.add_argument("r", type=int)
    c.add_argument("k", type=int, nargs="?")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--skip-verify", action="store_true",
                   help="emit without checking the family's postconditions")
    c.set_defaults(fn=_cmd_construct)

    c = add("check", "detect Berge paths/cycles in a file")
    c.add_argument("file")
    grp = c.add_mutually_exclusive_group()
    grp.add_argument("--bp", type=int, help="Berge path length to test")
    grp.add_argument("--bc", type=int, help="Berge cycle length to test")
    c.add_argument("--at-least", action="store_true",
                   help="with --bc: any cycle of length >= k")
    c.set_defaults(fn=_cmd_check)

    c = add("formula", "closed-form value at (n, r, k)")
    c.add_argument("n", type=int)
    c.add_argument("r", type=int)
    c.add_argument("k", type=int)
    c.add_argument("--all-bounds", action="store_true")
    c.set_defaults(fn=_cmd_formula)

    c = add("exact", "exhaustive connected Turan number", search)
    c.add_argument("n", type=int)
    c.add_argument("r", type=int)
    grp = c.add_mutually_exclusive_group(required=True)
    grp.add_argument("--bp", type=int)
    grp.add_argument("--bc", type=int)
    c.add_argument("--at-least", action="store_true")
    c.add_argument("--multiplicity", type=int, default=1, metavar="M")
    c.add_argument("--witness-cap", type=int, default=10)
    c.add_argument("--node-budget", type=int, default=None)
    c.add_argument("--time-budget", type=float, default=None, metavar="SECONDS")
    c.add_argument("--checkpoint", metavar="PATH",
                   help="write level-complete state here and resume from it")
    c.add_argument("--timing", action="store_true",
                   help="include wall-clock fields in the report")
    c.set_defaults(fn=_cmd_exact)

    c = add("lemma-witness", "sparse hyperedge-neighborhood set for a file")
    c.add_argument("file")
    c.add_argument("-m", "--multiplicity", type=int, default=1)
    c.add_argument("--constructive", action="store_true",
                   help="follow the longest-path construction instead of "
                        "exhaustive subset search")
    c.set_defaults(fn=_cmd_lemma_witness)

    c = add("conjecture", "exact vs conjectured value", search)
    c.add_argument("n", type=int)
    c.add_argument("r", type=int)
    c.add_argument("k", type=int)
    c.add_argument("--timing", action="store_true")
    c.set_defaults(fn=_cmd_conjecture)

    c = add("table", "CSV sweep over an n range", search)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--n-range", required=True, metavar="A..B")
    c.set_defaults(fn=_cmd_table)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.fn(args), args.out)
    except PostconditionError as exc:
        print(exc, file=sys.stderr)
        return EXIT_POSTCONDITION
    except (ValueError, OSError) as exc:
        # FamilyParamError, FormulaRangeError, SearchLimitError and
        # HypergraphError are all ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
