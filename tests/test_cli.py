import argparse
import csv
import json
import math

import pytest

import equiosc as eq
from equiosc.cli import build_parser, main


@pytest.fixture
def problem_file(tmp_path):
    problem = eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0))
    path = tmp_path / "problem.json"
    eq.dump_problem(problem, path)
    return str(path)


@pytest.fixture
def gap_problem_file(tmp_path):
    from test_fields import log_chi_union

    problem = eq.Problem(2, (1.0, 1.0), eq.Log(), log_chi_union())
    path = tmp_path / "gap_problem.json"
    eq.dump_problem(problem, path)
    return str(path)


def test_solve_subcommand(problem_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["solve", problem_file, "--json-out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "0.5" in printed
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert doc["nodes"][0] == pytest.approx(0.5, abs=1e-8)
    assert doc["value"] == pytest.approx(math.log(0.5), abs=1e-8)
    assert set(doc) >= {"nodes", "m", "phi", "value", "residual", "iterations", "converged"}


def test_solve_notes_a_kernel_that_is_not_strictly_monotone(tmp_path, capsys):
    path = tmp_path / "capped.json"
    eq.dump_problem(eq.Problem(1, (1.0,), eq.CappedLog(0.25), eq.constant_field(0.0)), path)
    assert main(["solve", str(path)]) == 0
    assert "note: kernel is not strictly monotone" in capsys.readouterr().out


def test_solve_diff_subcommand(problem_file, capsys):
    code = main(["solve-diff", problem_file, "--target", "0.5"])
    assert code == 0
    assert "converged: True" in capsys.readouterr().out


def test_oracle_subcommand(problem_file, capsys):
    code = main(["oracle", problem_file, "--mode", "minimax", "--grid", "101,1"])
    assert code == 0
    assert "minimax value" in capsys.readouterr().out


def test_oracle_json_out_writes_neg_infinity_as_null(tmp_path, capsys):
    # every maximin cell of the 2-point grid has a degenerate interval, so the value is −∞
    problem = tmp_path / "log2.json"
    eq.dump_problem(eq.Problem(2, (1.0, 1.0), eq.Log(), eq.constant_field(0.0)), problem)
    out = tmp_path / "oracle.json"
    argv = ["oracle", str(problem), "--mode", "maximin", "--grid", "2,0", "--json-out", str(out)]
    code = main(argv)
    assert code == 0
    assert "maximin value: -inf" in capsys.readouterr().out

    def refuse(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    doc = json.loads(out.read_text(), parse_constant=refuse)
    assert doc["value"] is None


def test_intertwine_subcommand(problem_file, capsys):
    code = main(["intertwine", problem_file, "--x", "0.4", "--y", "0.6"])
    assert code == 0
    assert "witness" in capsys.readouterr().out


def test_intertwine_prints_the_direction_of_a_majorization_violation(tmp_path, capsys):
    path = tmp_path / "tent.json"
    eq.dump_problem(eq.build_problem("nonmonotone_5_4"), path)
    assert main(["intertwine", str(path), "--x", "0.33,0.57", "--y", "0.15,0.75"]) == 0
    assert "direction: x_dominates_y" in capsys.readouterr().out


def test_bojanov_subcommand(capsys):
    code = main(["bojanov", "--interval", "0,1", "--exponents", "1,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.146446609" in out and "0.125" in out


@pytest.mark.parametrize(
    "text",
    [
        '{"pieces": [{"lo": 0, "hi": 1, "formula": {"kind": "Constant", "c": "abc"}}]}',
        '{"pieces": [{"lo": 0, "hi": 1, "formula": {"kind": "Constant"}}]}',
        "{not valid json",
        '{"pieces": [{"lo": 0, "hi": 1, "formula": {"kind": "Constant", "c": 1}}], '
        '"point_values": [[0.5, NaN]]}',
        '{"pieces": [{"lo": 0, "hi": 1, "formula": {"kind": "Constant", "c": 1}}], '
        '"point_values": [[0.5, Infinity]]}',
        '{"pieces": [{"lo": 0, "hi": 0.5, "formula": {"kind": "Constant", "c": -1}}, '
        '{"lo": 0.5, "hi": 1, "formula": {"kind": "Constant", "c": 1}}]}',
    ],
)
def test_bojanov_bad_weight_is_a_validation_error(tmp_path, capsys, text):
    weight = tmp_path / "bad.json"
    weight.write_text(text)
    code = main(["bojanov", "--exponents", "1", "--weight", str(weight)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bojanov_interval_needs_two_values(capsys):
    code = main(["bojanov", "--interval", "0,1,2", "--exponents", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --interval expects a,b")


def test_oracle_non_integer_grid_is_a_validation_error(problem_file, capsys):
    code = main(["oracle", problem_file, "--grid", "a,2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --grid expects")


def test_union_compare_subcommand(capsys):
    code = main(
        ["union-compare", "--components", "0,0.4,0.6,1", "--exponents", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "C (unrestricted): 0.5" in out
    assert "R (restricted):   0.6" in out


def test_example_subcommand(capsys):
    code = main(["example", "classical_chebyshev", "--n", "2", "--fast"])
    assert code == 0
    assert "max abs deviation" in capsys.readouterr().out


def test_example_prints_its_notes(capsys):
    assert main(["example", "figure1_quartics", "--fast"]) == 0
    assert "note: witness indices: below=3, above=0" in capsys.readouterr().out


def test_example_parenthesized_id(capsys):
    code = main(["example", "classical_chebyshev(2)", "--fast"])
    assert code == 0


def test_example_parameters_it_does_not_take_are_validation_errors(capsys):
    # --n was ignored for every other example, and after a parenthesized degree
    assert main(["example", "singularity_5_1", "--n", "3", "--fast"]) == 2
    assert "takes no parameters, not n" in capsys.readouterr().err
    assert main(["example", "classical_chebyshev(3)", "--n", "5", "--fast"]) == 2
    assert "given twice" in capsys.readouterr().err


def test_export_subcommand(problem_file, gap_problem_file, tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        ["export", gap_problem_file, "--nodes", "0.3,0.7", "--samples", "101", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "F"]
    assert len(rows) == 102
    # the field gap (0.4, 0.6) must serialize as empty F cells
    empties = [float(t) for t, v in rows[1:] if v == ""]
    assert empties and all(0.4 <= t <= 0.6 or t in (0.3, 0.7) for t in empties)
    sidecar = json.loads((tmp_path / "curve.csv.json").read_text())
    assert sidecar["nodes"] == [0.3, 0.7]
    assert len(sidecar["m"]) == 3
    assert sidecar["csv"] == str(out)


def test_export_two_samples(problem_file, tmp_path):
    out = tmp_path / "two.csv"
    assert main(["export", problem_file, "--nodes", "0.5", "--samples", "2", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["0", "1"]


def test_exit_code_validation_error(problem_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    assert main(["solve", str(bad)]) == 2
    # hypothesis violations are validation errors too
    tent = eq.Problem(2, (1.0, 1.0), eq.TentLog(), eq.constant_field(0.0))
    path = tmp_path / "tent.json"
    eq.dump_problem(tent, path)
    assert main(["solve", str(path)]) == 2
    assert main(["example", "not_an_example"]) == 2
    # exit 1 means a reference-check deviation; a malformed id is not one
    assert main(["example", "classical_chebyshev(x)"]) == 2
    assert main(["example", "classical_chebyshev(3"]) == 2
    assert main(["example", "singularity_5_1", "--fast", "--seed", "-1"]) == 2  # printed a traceback, exit 1
    assert main(["solve-diff", problem_file, "--target", "1,x"]) == 2
    assert main(["oracle", problem_file, "--grid", "5"]) == 2
    assert main(["union-compare", "--components", "0,0.4,0.6", "--exponents", "1"]) == 2
    assert main(["export", problem_file, "--nodes", "0.5", "--samples", "1", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["solve", str(tmp_path / "missing.json")]) == 2


def test_a_file_that_is_not_utf8_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert main(["solve", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid JSON in ")
    assert main(["bojanov", "--exponents", "1", "--weight", str(bad)]) == 2


def test_exit_code_convergence_error(problem_file):
    hard = eq.Problem(3, (1.0, 1.0, 1.0), eq.Log(), eq.constant_field(0.0))
    import pathlib

    path = pathlib.Path(problem_file).parent / "hard.json"
    eq.dump_problem(hard, path)
    assert main(["solve", str(path), "--tol", "1e-13", "--max-iterations", "1"]) == 3


@pytest.mark.parametrize("flags", [["--tol", "nan"], ["--tol", "0"], ["--max-iterations", "0"]])
def test_bad_solver_settings_exit_2_at_once(problem_file, monkeypatch, capsys, flags):
    from equiosc import solver

    monkeypatch.setattr(solver, "_newton", lambda *args: pytest.fail("solver ran"))
    assert main(["solve", problem_file, *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["union-compare", "--components", "0,0.4,0.6,1", "--exponents", "1", "--max-iterations", "0"],
        ["bojanov", "--exponents", "1", "--max-iterations", "10"],
        ["oracle", "{problem}", "--max-iterations", "10"],
        ["export", "{problem}", "--nodes", "0.5", "--out", "x.csv", "--max-iterations", "10"],
        ["solve", "{problem}", "--seed", "3"],
        ["solve-diff", "{problem}", "--target", "0", "--seed", "3"],
        ["intertwine", "{problem}", "--x", "0.3", "--y", "0.6", "--seed", "3"],
        ["union-compare", "--components", "0,0.4,0.6,1", "--exponents", "1", "--seed", "3"],
        ["oracle", "{problem}", "--grid", "5,0", "--tol", "0"],
        ["intertwine", "{problem}", "--x", "0.3", "--y", "0.6", "--tol", "nan"],
        ["example", "classical_chebyshev", "--tol", "1e-9"],
        ["export", "{problem}", "--nodes", "0.5", "--out", "x.csv", "--tol", "1e-9"],
        ["export", "{problem}", "--nodes", "0.5", "--out", "x.csv", "--json-out", "x.json"],
    ],
)
def test_unread_flags_are_usage_errors(problem_file, capsys, argv):
    # --seed is read only by example, --max-iterations only by solve and solve-diff,
    # --tol only by the solving subcommands, --json-out by all but export
    with pytest.raises(SystemExit) as exc:
        main([a.format(problem=problem_file) for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_shape():
    """Each subcommand's option dests: a flag registered where nothing reads it fails here."""
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    shape = {
        name: {a.dest for a in p._actions if a.dest != "help"}
        for name, p in subparsers.choices.items()
    }
    assert shape == {
        "solve": {"problem", "tol", "json_out", "max_iterations"},
        "solve-diff": {"problem", "tol", "json_out", "max_iterations", "target"},
        "oracle": {"problem", "json_out", "mode", "grid"},
        "intertwine": {"problem", "json_out", "x", "y"},
        "bojanov": {"tol", "json_out", "interval", "exponents", "weight"},
        "union-compare": {"tol", "json_out", "components", "exponents"},
        "example": {"json_out", "id", "n", "fast", "seed"},
        "export": {"problem", "nodes", "samples", "out"},
    }


def test_exit_code_budget_error(tmp_path):
    wide = eq.Problem(2, (1.0, 1.0), eq.Log(), eq.constant_field(0.0))
    path = tmp_path / "wide.json"
    eq.dump_problem(wide, path)
    assert main(["oracle", str(path), "--grid", "100001,9"]) == 4


def test_exit_code_example_deviation(monkeypatch, capsys):
    import equiosc.cli as cli_mod
    from equiosc.catalog import ReferenceReport

    def fake_check(key, fast=False, **params):
        return ReferenceReport(key, (("q", 1.0, 0.0),), 1.0, 0.0)

    monkeypatch.setattr(cli_mod, "run_reference_check", fake_check)
    assert main(["example", "classical_chebyshev"]) == 1
