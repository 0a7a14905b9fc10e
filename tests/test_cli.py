"""Command-line interface: formats, round-trips, exit codes, stability."""

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from bergeturan.cli import main
from bergeturan.hypergraph import canonical_key, from_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_star_text(capsys):
    code, out, _ = run(capsys, "construct", "star", "7", "3")
    assert code == 0
    assert out.splitlines() == ["7 3", "0 1 2", "0 3 4", "0 5 6"]


def test_construct_round_trip_via_parse(capsys, tmp_path):
    path = tmp_path / "h.txt"
    code, _, _ = run(capsys, "construct", "sunflower", "8", "3", "--out", str(path))
    assert code == 0
    h = from_text(path.read_text())
    code2, _, _ = run(capsys, "construct", "sunflower", "8", "3", "--format", "json",
                      "--out", str(path))
    assert code2 == 0
    from bergeturan.hypergraph import from_json

    assert canonical_key(from_json(path.read_text())) == canonical_key(h)


def test_construct_postcondition_failure_exits_4(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "bp4-pair-hub", "10", "4")
    assert code == 4
    assert out == ""
    assert "Berge path of length 4" in err
    path = tmp_path / "h.txt"
    assert run(capsys, "construct", "bp4-pair-hub", "10", "4",
               "--out", str(path)) == (4, "", err)
    assert not path.exists()


def test_construct_skip_verify_emits_anyway(capsys):
    code, out, _ = run(capsys, "construct", "bp4-pair-hub", "10", "4",
                       "--skip-verify")
    assert code == 0
    assert out.startswith("10 4")


def test_construct_above_the_verify_cap_notes_the_skipped_check(capsys):
    """Above n = 24 ``construct`` skips the freeness check, which it says
    in one stderr line; stdout and the exit code stay those of
    ``--skip-verify``.  This member does contain a Berge path of length 6."""
    from bergeturan.berge import contains_berge_path

    code, out, err = run(capsys, "construct", "cycle-hub", "29", "6", "6")
    assert code == 0
    assert err.startswith("note: ") and err.count("\n") == 1, err
    assert "verify cap 24" in err and "`bergeturan check FILE --bp 6`" in err
    assert run(capsys, "construct", "cycle-hub", "29", "6", "6",
               "--skip-verify") == (0, out, "")
    assert contains_berge_path(from_text(out), 6)
    assert run(capsys, "construct", "star", "7", "3")[2] == ""


def test_construct_parameter_error_exits_2(capsys):
    code, _, err = run(capsys, "construct", "star", "6", "3")
    assert code == 2
    assert "divide" in err


def test_check_reports_freeness_and_connectivity(capsys, tmp_path):
    path = tmp_path / "star.txt"
    run(capsys, "construct", "star", "7", "3", "--out", str(path))
    code, out, _ = run(capsys, "check", str(path), "--bp", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["free"] is True and rep["connected"] is True


def test_check_finds_witness(capsys, tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("4 3\n0 1 2\n0 1 3\n")
    code, out, _ = run(capsys, "check", str(path), "--bc", "2")
    rep = json.loads(out)
    assert rep["contains"] is True
    assert rep["witness"]["kind"] == "cycle"


def test_check_reads_a_json_file_as_the_text_file(capsys, tmp_path):
    text, js = tmp_path / "star.txt", tmp_path / "star.json"
    run(capsys, "construct", "star", "7", "3", "--out", str(text))
    run(capsys, "construct", "star", "7", "3", "--format", "json", "--out", str(js))
    reports = [run(capsys, "check", str(path), "--bp", "2") for path in (text, js)]
    assert reports[0] == reports[1]
    code, out, _ = reports[1]
    assert code == 0
    assert json.loads(out)["witness"] == {
        "kind": "path", "vertices": [1, 0, 3], "edge_instances": [0, 1]}


def test_check_longest_mode(capsys, tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("6 3\n0 1 2\n0 1 3\n0 1 4\n0 1 5\n")
    code, out, _ = run(capsys, "check", str(path))
    assert json.loads(out)["longest_berge_path"] == 3


def test_check_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("7 3\n0 1\n")
    code, _, err = run(capsys, "check", str(path), "--bp", "3")
    assert code == 2
    assert "line 2" in err


def test_formula_json(capsys):
    code, out, _ = run(capsys, "formula", "10", "3", "4")
    rep = json.loads(out)
    assert rep["formula"]["value"] == "8"
    assert rep["formula"]["regime"] == "exact_for_large_n"


def test_formula_prints_the_bp4_small_refutation(capsys):
    _, out, _ = run(capsys, "formula", "8", "4", "4")
    rep = json.loads(out)
    assert rep["formula"] == {"value": "4", "regime": "exact", "source": "bp4_small"}
    assert "(8, 4)" in rep["refuted"]
    _, out, _ = run(capsys, "formula", "10", "3", "4")
    assert "refuted" not in json.loads(out)


def test_exact_infeasible_is_exit_zero(capsys):
    code, out, _ = run(capsys, "exact", "6", "3", "--bp", "3")
    assert code == 0
    assert json.loads(out)["status"] == "infeasible"


def test_exact_answers_the_trivial_regime_at_once(capsys):
    """A Berge path of length 7 needs 8 vertices, so (7,4,bp7), inside the
    default limit, is answered by the complete 4-graph with no search."""
    import itertools
    import time

    from bergeturan.hypergraph import Hypergraph

    t0 = time.perf_counter()
    code, out, err = run(capsys, "exact", "7", "4", "--bp", "7")
    assert time.perf_counter() - t0 < 1
    rep = json.loads(out)
    assert (code, err) == (0, "")
    assert (rep["value"], rep["nodes_explored"], rep["extremal_class_count"]) == (35, 0, 1)
    complete = Hypergraph(7, 4, tuple(itertools.combinations(range(7), 4)))
    assert rep["witnesses"] == [canonical_key(complete).decode()]


def test_exact_respects_limits(capsys):
    code, _, err = run(capsys, "exact", "11", "3", "--bp", "3")
    assert code == 2
    assert "limit" in err


@pytest.mark.parametrize("n, r", [(13, 13), (13, 3)])
def test_exact_beyond_canonical_limit_names_it(capsys, n, r):
    # Checked before the desk-scale default, which has no value for
    # r >= 13 and would otherwise advise a force=True that cannot help.
    code, out, err = run(capsys, "exact", str(n), str(r), "--bp", "4")
    assert code == 2 and out == ""
    assert "canonicalization is limited to n <= 12" in err


@pytest.mark.parametrize("argv", [("5", "1", "--bp", "2"), ("3", "0", "--bp", "1")])
def test_exact_rejects_r_below_two(capsys, argv):
    code, out, err = run(capsys, "exact", *argv)
    assert code == 2 and out == ""
    assert "r must be >= 2" in err


def test_exact_stable_output_across_workers(capsys):
    _, out1, _ = run(capsys, "exact", "7", "3", "--bp", "3", "--workers", "1")
    _, out2, _ = run(capsys, "exact", "7", "3", "--bp", "3", "--workers", "2")
    assert out1 == out2
    assert "elapsed_ms" not in out1


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "bergeturan", "exact", "8", "3", "--bp", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 6


def test_exact_timing_flag_adds_elapsed(capsys):
    _, out, _ = run(capsys, "exact", "5", "3", "--bp", "3", "--timing")
    assert "elapsed_ms" in out


def test_lemma_witness_both_modes(capsys, tmp_path):
    path = tmp_path / "star.txt"
    run(capsys, "construct", "star", "7", "3", "--out", str(path))
    code, out, _ = run(capsys, "lemma-witness", str(path))
    rep = json.loads(out)
    assert rep["verdict"] == "witness_found"
    code, out, _ = run(capsys, "lemma-witness", str(path), "--constructive")
    assert json.loads(out)["subset"] == [1, 2, 3, 4]


@pytest.mark.parametrize("m", ["0", "-1"])
@pytest.mark.parametrize("mode", [(), ("--constructive",)])
def test_lemma_witness_refuses_a_cap_below_one(capsys, tmp_path, m, mode):
    # Like exact --multiplicity 0, a usage error: exit 2, nothing on stdout.
    path = tmp_path / "star.txt"
    run(capsys, "construct", "star", "7", "3", "--out", str(path))
    code, out, err = run(capsys, "lemma-witness", str(path), "-m", m, *mode)
    assert (code, out) == (2, "")
    assert f"multiplicity cap must be >= 1, got m={m}" in err


def test_table_leaves_bound_kl_empty_below_n_equal_r(capsys):
    # No 3-edge fits on 1 or 2 vertices; kostochka_luo printed 2 there.
    code, out, _ = run(capsys, "table", "--k", "3", "--r", "3",
                       "--n-range", "1..3")
    assert code == 0
    assert out.splitlines()[1:] == ["1,3,3,skipped,,,,", "2,3,3,skipped,,,,",
                                    "3,3,3,1,2,exact,,2"]


def test_conjecture_report(capsys):
    code, out, _ = run(capsys, "conjecture", "6", "3", "4")
    rep = json.loads(out)
    assert rep["status"] == "match"
    assert rep["conjectured"] == 4


def test_table_csv_shape_and_values(capsys):
    code, out, _ = run(capsys, "table", "--k", "3", "--r", "3",
                       "--n-range", "4..7")
    lines = out.strip().splitlines()
    assert lines[0] == "n,r,k,exact,formula,regime,best_construction,bound_kl"
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert rows[4][3] == "2" and rows[6][3] == "infeasible"
    assert rows[7][3] == "3" and rows[7][6] == "3"


def test_table_best_construction_at_k_equal_r_plus_one(capsys):
    # The sunflower avoids length r + 1, so it counts at k = 4 for r = 3.
    code, out, _ = run(capsys, "table", "--k", "4", "--r", "3",
                       "--n-range", "5..7")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[6] for row in rows] == ["3", "4", "5"]


def test_table_above_the_verify_cap_notes_the_uncounted_rows(capsys):
    """Above n = 24 no member is verified, so ``best_construction`` stays
    empty there, which one stderr line says; stdout and the exit code
    are unchanged.  A range inside the cap writes nothing to stderr."""
    code, out, err = run(capsys, "table", "--k", "4", "--r", "3",
                         "--n-range", "24..26")
    assert code == 0
    assert out.splitlines()[1:] == [
        "24,3,4,skipped,22,exact_for_large_n,22,",
        "25,3,4,skipped,23,exact_for_large_n,,",
        "26,3,4,skipped,24,exact_for_large_n,,",
    ]
    assert err.startswith("note: rows n=25,26 ") and err.count("\n") == 1, err
    assert "verify cap 24" in err and "`bergeturan check FILE --bp 4`" in err
    assert run(capsys, "table", "--k", "3", "--r", "3",
               "--n-range", "4..6")[::2] == (0, "")


def test_table_byte_stable(capsys):
    _, out1, _ = run(capsys, "table", "--k", "3", "--r", "3", "--n-range", "4..6")
    _, out2, _ = run(capsys, "table", "--k", "3", "--r", "3", "--n-range", "4..6")
    assert out1 == out2


def test_bad_n_range_exits_2(capsys):
    code, _, err = run(capsys, "table", "--k", "3", "--r", "3",
                       "--n-range", "oops")
    assert code == 2
    code, out, err = run(capsys, "table", "--k", "3", "--r", "3",
                         "--n-range", "9..3")
    assert (code, out) == (2, "")
    assert "empty --n-range" in err


@pytest.mark.parametrize("argv", [
    ("exact", "8", "3", "--bp", "4"),
    ("check", "{star}", "--bp", "2"),
    ("formula", "16", "5", "5", "--all-bounds"),
    ("table", "--k", "3", "--r", "3", "--n-range", "4..6"),
    ("construct", "sunflower", "8", "3", "--format", "json"),
    ("construct", "sunflower", "8", "3"),
])
def test_out_file_holds_what_stdout_shows(capsys, tmp_path, argv):
    star, path = tmp_path / "star.txt", tmp_path / "out"
    star.write_text("7 3\n0 1 2\n0 3 4\n0 5 6\n")
    argv = [a.format(star=star) for a in argv]
    code, shown, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == shown.encode()


def test_out_in_a_missing_directory_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "ex.json"
    code, out, err = run(capsys, "exact", "7", "3", "--bp", "3",
                         "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("budget, value, message", [
    ("--node-budget", "-1", "node_budget must be >= 0, got -1"),
    ("--time-budget", "-1", "time_budget must be >= 0, got -1.0"),
    ("--time-budget", "nan", "time_budget must be >= 0, got nan"),
])
def test_exact_refuses_a_bad_budget(capsys, budget, value, message):
    code, out, err = run(capsys, "exact", "7", "3", "--bp", "3", budget, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("check", "{pair}", "--bp", "2", "--at-least"),
    ("check", "{pair}", "--at-least"),
    ("exact", "6", "3", "--bp", "3", "--at-least"),
])
def test_at_least_without_bc_exits_2(capsys, tmp_path, argv):
    pair = tmp_path / "pair.txt"
    pair.write_text("4 3\n0 1 2\n0 1 3\n")
    code, out, err = run(capsys, *[a.format(pair=pair) for a in argv])
    assert (code, out, err) == (2, "", "error: --at-least applies only to --bc\n")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_construct_then_check_gate(capsys, tmp_path):
    # Every family that passes its own postconditions must also pass an
    # independent check run on the serialized file.
    cases = [
        ("star", "7", "3", None, "3"),
        ("double-edge", "5", "4", None, "3"),
        ("hub", "16", "5", "5", "5"),
        ("cycle-hub", "16", "5", "5", "5"),
        ("sunflower", "8", "3", None, "4"),
        ("clique-pendants", "7", "3", "5", "5"),
        ("multi-star", "7", "4", "3", "3"),
        ("multi-cycle", "5", "5", "4", "4"),
    ]
    for name, n, r, k, bp in cases:
        path = tmp_path / f"{name}.txt"
        argv = ["construct", name, n, r] + ([k] if k else []) + ["--out", str(path)]
        code, _, err = run(capsys, *argv)
        assert code == 0, (name, err)
        code, out, _ = run(capsys, "check", str(path), "--bp", bp)
        rep = json.loads(out)
        assert rep["free"] is True and rep["connected"] is True, name


def test_exact_checkpoint_flag(capsys, tmp_path):
    path = tmp_path / "ck.json"
    code, out1, _ = run(capsys, "exact", "7", "3", "--bp", "3",
                        "--checkpoint", str(path))
    assert code == 0 and path.exists()
    code, out2, _ = run(capsys, "exact", "7", "3", "--bp", "3",
                        "--checkpoint", str(path))
    assert code == 0 and out1 == out2


def _sealed(ck):
    """``ck`` with the check value of its (possibly edited) contents."""
    body = [ck.get("reps"), ck.get("tested"), ck.get("best_keys")]
    ck["crc32"] = zlib.crc32(json.dumps(body, separators=(",", ":")).encode())
    return ck


def _no_object(ck):
    return [ck["version"], ck["reps"]]


def _version_1(ck):
    # The same state in the format before the check value, which also
    # stored the level, the best level and whether the run had finished.
    return {"version": 1, "n": 7, "r": 3, "family": ck["family"],
            "level": 2, "reps": ck["reps"], "tested": ck["tested"],
            "best_level": None, "best_keys": [], "complete": False}


def _no_best_level(ck):
    # The best level is the best keys' instance count.
    del ck["best_keys"]
    return ck


def _rep_on_other_n(ck):
    # Every representative moved to n = 8, where it is still a canonical
    # form with two instances, listed in order.
    ck["reps"] = [k.replace("7 3", "8 3", 1) for k in ck["reps"]]
    return ck


def _rep_on_other_r(ck):
    # A canonical form with two instances, but r = 4.
    ck["reps"] = ["7 4;0,1,2,6;3,4,5,6"]
    return ck


def _negative_tested(ck):
    # It once resumed to nodes_explored -837.
    ck["tested"] = -1000
    return ck


def _best_level_above_level(ck):
    # A connected canonical form with 3 instances above 2-instance
    # representatives.
    ck["best_keys"] = ["7 3;0,1,6;2,3,6;4,5,6"]
    return ck


def _rep_not_a_string(ck):
    ck["reps"][0] = 7
    return ck


def _rep_with_one_instance_less(ck):
    ck["reps"][0] = ";".join(ck["reps"][0].split(";")[:-1])
    return ck


def _reps_twice(ck):
    # Ascending, but each twice: it once resumed to nodes_explored 331
    # (fresh: 232).
    ck["reps"] = sorted(ck["reps"] * 2)
    return ck


def _reps_reversed(ck):
    ck["reps"].reverse()
    return ck


def _relabeled_rep(ck):
    # "7 3;0,1,2;3,4,5" with vertices 0 and 6 swapped: its class, but not
    # its canonical form.
    assert ck["reps"][0] == "7 3;0,1,2;3,4,5"
    ck["reps"][0] = "7 3;1,2,6;3,4,5"
    return ck


def _rep_over_the_cap(ck):
    # A canonical form, but a double edge at m = 1: it once resumed to
    # nodes_explored 201.
    ck["reps"][0] = "7 3;0,1,2;0,1,2"
    return ck


def _finished_with_best_keys(ck, *keys):
    # The finished run's checkpoint with other best keys, which were once
    # printed as the witnesses.
    ck.update(reps=[], tested=232, best_keys=list(keys))
    return ck


def _best_key_not_a_hypergraph(ck):
    return _finished_with_best_keys(ck, "not a hypergraph")


def _best_key_with_one_instance(ck):
    # Beside a witness with 3.
    return _finished_with_best_keys(ck, "7 3;0,1,2", "7 3;0,1,6;2,3,6;4,5,6")


def _best_key_disconnected(ck):
    # Its own canonical form.
    return _finished_with_best_keys(ck, "7 3;0,1,2;3,5,6;4,5,6")


def _best_key_relabeled(ck):
    # The witness "7 3;0,1,6;2,3,6;4,5,6" with vertices 0 and 6 swapped.
    return _finished_with_best_keys(ck, "7 3;0,1,2;0,3,4;0,5,6")


def _best_key_twice(ck):
    return _finished_with_best_keys(ck, *["7 3;0,1,6;2,3,6;4,5,6"] * 2)


# Edits that leave the file well formed, caught only by the check value.
# They once resumed with exit 0: removing the second representative gave
# status infeasible and nodes_explored 167 (fresh: value 3, 232).

def _rep_removed(ck):
    del ck["reps"][1]
    return ck


def _best_key_removed(ck):
    # The finished run's checkpoint without its one best key reads as an
    # infeasible search.
    ck = _sealed(_finished_with_best_keys(ck, "7 3;0,1,6;2,3,6;4,5,6"))
    ck["best_keys"] = []
    return ck


def _tested_edited(ck):
    ck["tested"] += 1
    return ck


_UNSEALED = {_rep_removed, _best_key_removed, _tested_edited}


@pytest.mark.parametrize("corrupt", [
    _no_object, _version_1, _no_best_level, _rep_on_other_n,
    _rep_on_other_r, _negative_tested, _best_level_above_level,
    _rep_not_a_string, _rep_with_one_instance_less, _reps_twice,
    _reps_reversed, _relabeled_rep, _rep_over_the_cap,
    _best_key_not_a_hypergraph, _best_key_with_one_instance,
    _best_key_disconnected, _best_key_relabeled, _best_key_twice,
    _rep_removed, _best_key_removed, _tested_edited])
def test_exact_malformed_checkpoint_exits_2(capsys, tmp_path, corrupt):
    """A checkpoint that is not a JSON object, has another version, lacks
    a field, has a field of the wrong type or a negative count, or holds
    a representative that is not a canonical string, is on another n or
    r, has another instance count than the others or is over the
    multiplicity cap, lists its representatives
    twice, out of order or not in canonical form, or holds a best key
    that is not a connected canonical form, has another instance count
    than the other best keys or more than the representatives, or is
    listed twice, stops the run with an error that names the file, not
    with a traceback or a wrong answer.  Each of those edits is sealed
    with a new check value, so the check it targets is the one that
    fires; an edit left unsealed, such as a representative removed, is
    refused for its check value."""
    path = tmp_path / "ck.json"
    argv = ["exact", "7", "3", "--bp", "3", "--checkpoint", str(path)]
    code, _, err = run(capsys, *argv, "--node-budget", "100")
    assert code == 2 and "node budget" in err
    ck = json.loads(path.read_text())
    assert len(ck["reps"]) > 1
    ck = corrupt(ck)
    if isinstance(ck, dict) and "crc32" in ck and corrupt not in _UNSEALED:
        ck = _sealed(ck)
    path.write_text(json.dumps(ck))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: checkpoint {path} "), err
    assert ("check value" in err) == (corrupt in _UNSEALED), err
    assert ("version 1" in err) == (corrupt is _version_1), err


def test_report_bytes_are_pinned(capsys, tmp_path):
    # Every JSON report shape printed by the CLI, hashed as printed, so a
    # change to how a report is assembled shows here even when each field
    # still parses to the same value.
    from hashlib import sha256

    star, pair = tmp_path / "star.txt", tmp_path / "pair.txt"
    run(capsys, "construct", "star", "7", "3", "--out", str(star))
    pair.write_text("4 3\n0 1 2\n0 1 3\n")
    commands = [
        ("exact", "7", "3", "--bp", "3"),
        ("exact", "6", "3", "--bp", "3"),
        ("exact", "8", "3", "--bc", "4"),
        ("conjecture", "7", "3", "5"),
        ("lemma-witness", str(star)),
        ("lemma-witness", str(star), "--constructive"),
        ("check", str(star), "--bp", "2"),
        ("check", str(star), "--bc", "2"),
        ("check", str(pair), "--bc", "2"),
        ("check", str(star)),
    ]
    text = ""
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        text += out
    assert sha256(text.encode()).hexdigest() == (
        "a587c70a1fe8ebcea1eda24c76b175e268a5cc318a287ff68a7cc6b949d6c26a"
    )
    _, out, _ = run(capsys, "exact", "7", "3", "--bp", "3", "--timing")
    assert set(json.loads(out)) == {
        "status", "value", "witnesses", "nodes_explored", "elapsed_ms",
        "extremal_class_count", "n", "r", "family",
    }
