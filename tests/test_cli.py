"""Command-line interface: formats, round-trips, exit codes, stability."""

import json
import os
import subprocess
import sys
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


def test_construct_postcondition_failure_exits_4(capsys):
    code, out, err = run(capsys, "construct", "bp4-pair-hub", "10", "4")
    assert code == 4
    assert out == ""
    assert "Berge path of length 4" in err


def test_construct_skip_verify_emits_anyway(capsys):
    code, out, _ = run(capsys, "construct", "bp4-pair-hub", "10", "4",
                       "--skip-verify")
    assert code == 0
    assert out.startswith("10 4")


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


def test_table_byte_stable(capsys):
    _, out1, _ = run(capsys, "table", "--k", "3", "--r", "3", "--n-range", "4..6")
    _, out2, _ = run(capsys, "table", "--k", "3", "--r", "3", "--n-range", "4..6")
    assert out1 == out2


def test_bad_n_range_exits_2(capsys):
    code, _, err = run(capsys, "table", "--k", "3", "--r", "3",
                       "--n-range", "oops")
    assert code == 2


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


def _no_object(ck):
    return [ck["level"], ck["reps"]]


def _no_best_level(ck):
    del ck["best_level"]
    return ck


def _complete_as_text(ck):
    # Truthy, so it once made the run skip its representatives and
    # report the search infeasible.
    ck["complete"] = "no"
    return ck


def _rep_on_other_n(ck):
    ck["reps"][0] = "8 3;0,1,2;0,3,4"
    return ck


def _rep_on_other_r(ck):
    ck["reps"][0] = "7 4;0,1,2,3"
    return ck


def _level_as_bool(ck):
    # An int to isinstance: it once resumed to value 2 (the answer is 3).
    ck["level"] = True
    return ck


def _negative_level(ck):
    # It once resumed to value -2.
    ck["level"] = -3
    return ck


def _negative_tested(ck):
    # It once resumed to nodes_explored -837.
    ck["tested"] = -1000
    return ck


def _best_level_as_bool(ck):
    ck["best_level"] = True
    return ck


def _negative_best_level(ck):
    ck["best_level"] = -1
    return ck


def _best_level_above_level(ck):
    ck["best_level"] = ck["level"] + 1
    return ck


def _rep_with_one_instance_less(ck):
    ck["reps"][0] = ";".join(ck["reps"][0].split(";")[:-1])
    return ck


@pytest.mark.parametrize("corrupt", [
    _no_object, _no_best_level, _complete_as_text, _rep_on_other_n,
    _rep_on_other_r, _level_as_bool, _negative_level, _negative_tested,
    _best_level_as_bool, _negative_best_level, _best_level_above_level,
    _rep_with_one_instance_less])
def test_exact_malformed_checkpoint_exits_2(capsys, tmp_path, corrupt):
    """A checkpoint that is not a JSON object, lacks a field, has a field
    of the wrong type or a negative count, a best level above its level,
    or holds a representative on another n or r or with another instance
    count than its level stops the run with an error that names the
    file, not with a traceback or a wrong answer."""
    path = tmp_path / "ck.json"
    argv = ["exact", "7", "3", "--bp", "3", "--checkpoint", str(path)]
    code, _, err = run(capsys, *argv, "--node-budget", "100")
    assert code == 2 and "node budget" in err
    ck = json.loads(path.read_text())
    assert ck["reps"] and not ck["complete"]
    path.write_text(json.dumps(corrupt(ck)))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: checkpoint {path} "), err


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
