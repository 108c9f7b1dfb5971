"""End-to-end command line tests: parsing, golden outputs, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

import plapeig
from plapeig import ConfigError, pi_p
from plapeig.cli import main, parse_config

from exact_p2 import transfer_matrix_eigenvalue_p2

CONSTANT_PROBLEM = {
    "length": 1.0,
    "p": 2.0,
    "a": {"kind": "constant", "value": 1.0},
    "rho": {"kind": "constant", "value": 1.0},
}

TWO_PHASE_PROBLEM = {
    "length": 1.0,
    "p": 2.0,
    "a": {"kind": "piecewise-constant",
          "breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 4.0]},
    "rho": {"kind": "constant", "value": 1.0},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(tmp_path, capsys, sub, doc, extra=()):
    path = write_config(tmp_path, doc, name=f"{sub}.json")
    code = main([sub, "--config", path, *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# -- config parsing -------------------------------------------------------


def test_parse_canonical_round_trip():
    doc = {"subcommand": "solve", "problem": CONSTANT_PROBLEM,
           "parameters": {"k": 2, "tol": 1e-10}}
    cfg = parse_config(json.dumps(doc))
    again = parse_config(cfg.canonical())
    assert again == cfg
    assert cfg.parameters["k"] == 2
    assert cfg.parameters["tol"] == 1e-10
    assert cfg.parameters["samples"] == 1025  # default filled in


def test_parse_cell_mode_round_trip():
    doc = {"subcommand": "sweep", "problem": TWO_PHASE_PROBLEM,
           "parameters": {"n_list": [2, 4, 8]}}
    cfg = parse_config(json.dumps(doc))
    assert cfg.problem.a.kind == "periodic-cell"
    assert parse_config(cfg.canonical()) == cfg
    assert cfg.parameters["n_list"] == [2, 4, 8]


def test_parse_errors_name_the_field():
    bad = {"subcommand": "solve", "problem": dict(CONSTANT_PROBLEM)}
    bad["problem"] = dict(CONSTANT_PROBLEM)
    bad["problem"]["a"] = {"kind": "piecewise-constant",
                           "breakpoints": [0.0, 1.0], "values": [0.0]}
    with pytest.raises(ConfigError, match="problem.a"):
        parse_config(json.dumps(bad))
    with pytest.raises(ConfigError, match="problem.p"):
        parse_config({"subcommand": "solve",
                      "problem": {**CONSTANT_PROBLEM, "p": 1.0}})
    with pytest.raises(ConfigError, match="parameters.k"):
        parse_config({"subcommand": "solve", "problem": CONSTANT_PROBLEM,
                      "parameters": {"k": 0}})
    with pytest.raises(ConfigError, match="parameters.p"):
        parse_config({"subcommand": "pfunc", "parameters": {}})
    with pytest.raises(ConfigError, match="output.format"):
        parse_config({"subcommand": "pfunc", "parameters": {"p": 2.0},
                      "output": {"format": "yaml"}})
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config({"subcommand": "pfunc", "parameters": {"p": 2.0},
                      "mystery": 1})
    with pytest.raises(ConfigError, match="subcommand"):
        parse_config({"subcommand": "solve", "problem": CONSTANT_PROBLEM},
                     subcommand="sweep")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{not json")


def test_parse_requires_problem_only_where_used():
    with pytest.raises(ConfigError, match="problem"):
        parse_config({"subcommand": "solve"})
    with pytest.raises(ConfigError, match="problem"):
        parse_config({"subcommand": "picone", "problem": CONSTANT_PROBLEM,
                      "parameters": {}})


# -- golden runs, one per subcommand ---------------------------------------


def test_solve_golden(tmp_path, capsys):
    doc = {"problem": CONSTANT_PROBLEM, "parameters": {"k": 1, "tol": 1e-10}}
    code, out, _ = run_cli(tmp_path, capsys, "solve", doc)
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["k", "lambda", "n_zeros"]
    assert len(rows) == 1
    k, lam, nz = rows[0]
    assert int(k) == 1 and int(nz) == 0
    assert float(lam) == pytest.approx(math.pi ** 2, rel=1e-8)


def test_pfunc_golden(tmp_path, capsys):
    doc = {"parameters": {"p": 3.0, "samples": 5, "periods": 1.0}}
    code, out, _ = run_cli(tmp_path, capsys, "pfunc", doc)
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["p", "pi_p", "x", "sin_p", "dsin_p"]
    assert len(rows) == 5
    assert float(rows[0][1]) == pytest.approx(pi_p(3.0), rel=1e-12)
    assert float(rows[2][3]) == pytest.approx(1.0, abs=1e-12)  # x = pi_p/2
    assert float(rows[4][3]) == pytest.approx(0.0, abs=1e-10)  # x = pi_p


def test_lambda1_fem_golden(tmp_path, capsys):
    doc = {"problem": CONSTANT_PROBLEM, "parameters": {"n": 400}}
    code, out, _ = run_cli(tmp_path, capsys, "lambda1-fem", doc)
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "lambda1", "iterations"]
    assert float(rows[0][1]) == pytest.approx(math.pi ** 2, rel=0.005)


def test_lambda2_eq_golden(tmp_path, capsys):
    doc = {"problem": CONSTANT_PROBLEM, "parameters": {"tol": 1e-8}}
    code, out, _ = run_cli(tmp_path, capsys, "lambda2-eq", doc)
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["lambda2", "c_star"]
    assert float(rows[0][0]) == pytest.approx(4.0 * math.pi ** 2, rel=1e-6)
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-6)


def test_check_bounds_golden(tmp_path, capsys):
    doc = {"problem": TWO_PHASE_PROBLEM, "parameters": {"k_max": 3}}
    code, out, _ = run_cli(tmp_path, capsys, "check-bounds", doc)
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["k", "lambda", "lower", "upper",
                      "margin_low", "margin_high", "ok"]
    assert len(rows) == 3
    for row in rows:
        assert row[6] == "true"
        assert float(row[4]) >= 0.0 and float(row[5]) >= 0.0


def test_picone_golden(tmp_path, capsys):
    doc = {"parameters": {"p": 2.7, "a": 1.5, "samples": 5000, "seed": 3}}
    code, out, _ = run_cli(tmp_path, capsys, "picone", doc)
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["samples", "max_mismatch", "min_l", "ok"]
    assert rows[0][3] == "true"
    assert float(rows[0][1]) <= 1e-12


def test_homogenize_golden(tmp_path, capsys):
    doc = {"problem": TWO_PHASE_PROBLEM, "parameters": {"k_list": [1, 2]}}
    code, out, _ = run_cli(tmp_path, capsys, "homogenize", doc)
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["k", "a_star", "rho_star", "lambda_star"]
    assert float(rows[0][1]) == pytest.approx(1.6, abs=1e-14)
    assert float(rows[0][3]) == pytest.approx(1.6 * math.pi ** 2, rel=1e-12)
    assert float(rows[1][3]) == pytest.approx(6.4 * math.pi ** 2, rel=1e-12)


def test_homogenize_strong_cell(tmp_path, capsys):
    problem = {**CONSTANT_PROBLEM, "p": 1.05,
               "a": {"kind": "piecewise-constant", "breakpoints": [0.0, 0.5, 1.0],
                     "values": [1e-16, 1.0]}}
    code, out, _ = run_cli(tmp_path, capsys, "homogenize",
                           {"problem": problem, "parameters": {"k_list": [1]}})
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][1]) == pytest.approx(1e-16 * 0.5 ** -0.05, rel=1e-13, abs=0.0)


def test_sweep_golden(tmp_path, capsys):
    doc = {"problem": TWO_PHASE_PROBLEM,
           "parameters": {"k": 1, "n_list": [2, 4, 8, 16], "tol": 1e-9}}
    code, out, _ = run_cli(tmp_path, capsys, "sweep", doc)
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "epsilon", "lambda", "rel_error"]
    errs = [float(r[3]) for r in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.05


# -- determinism and stream separation -------------------------------------


@pytest.mark.parametrize("sub,doc", [
    ("pfunc", {"parameters": {"p": [2.0, 3.0], "samples": 9}}),
    ("solve", {"problem": TWO_PHASE_PROBLEM, "parameters": {"k": 2}}),
    ("lambda1-fem", {"problem": TWO_PHASE_PROBLEM, "parameters": {"n": 100}}),
    ("lambda2-eq", {"problem": CONSTANT_PROBLEM, "parameters": {}}),
    ("check-bounds", {"problem": TWO_PHASE_PROBLEM, "parameters": {"k_max": 2}}),
    ("picone", {"parameters": {"samples": 2000}}),
    ("homogenize", {"problem": TWO_PHASE_PROBLEM, "parameters": {}}),
    ("sweep", {"problem": TWO_PHASE_PROBLEM, "parameters": {"n_list": [2, 4, 8]}}),
])
def test_reruns_are_byte_identical(tmp_path, capsys, sub, doc):
    for fmt in ("csv", "json"):
        outputs = []
        for i in range(2):
            out_file = tmp_path / f"{sub}-{fmt}-{i}.out"
            path = write_config(tmp_path, doc, name=f"{sub}.json")
            code = main([sub, "--config", path,
                         "--out", str(out_file), "--format", fmt])
            assert code == 0
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1]
        if fmt == "json":
            json.loads(outputs[0])  # well-formed document


def test_data_and_diagnostics_are_separated(tmp_path, capsys):
    doc = {"problem": CONSTANT_PROBLEM, "parameters": {"k": 1}}
    code, out, err = run_cli(tmp_path, capsys, "solve", doc, ("--verbose",))
    assert code == 0
    header, _ = csv_rows(out)
    assert header == ["k", "lambda", "n_zeros"]
    assert "solve" in err  # diagnostics went to the error stream
    assert "lambda" not in err.split("exit")[0] or "running" in err


def test_out_file_and_stdout_agree(tmp_path, capsys):
    doc = {"problem": CONSTANT_PROBLEM, "parameters": {"k": 1, "tol": 1e-10}}
    code, out, _ = run_cli(tmp_path, capsys, "solve", doc)
    out_file = tmp_path / "direct.csv"
    path = write_config(tmp_path, doc)
    main(["solve", "--config", path, "--out", str(out_file)])
    capsys.readouterr()
    assert out_file.read_text() == out


# -- exit codes -------------------------------------------------------------


def test_exit_code_config_error(tmp_path, capsys):
    doc = {"problem": {**CONSTANT_PROBLEM, "p": 0.5}, "parameters": {}}
    code, out, err = run_cli(tmp_path, capsys, "solve", doc)
    assert code == 2
    assert out == ""
    assert "problem.p" in err


def test_exit_code_missing_config_file(capsys):
    code = main(["solve", "--config", "/definitely/not/here.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read" in captured.err


def test_exit_code_nonconvergence(tmp_path, capsys):
    doc = {"problem": CONSTANT_PROBLEM,
           "parameters": {"k": 1, "tol": 1e-12, "max_iter": 2}}
    code, out, err = run_cli(tmp_path, capsys, "solve", doc)
    assert code == 3
    assert out == ""
    assert "solver error" in err


def test_exit_code_bound_violation(tmp_path, capsys):
    doc = {"problem": TWO_PHASE_PROBLEM,
           "parameters": {"lambdas": [15.0, 5000.0]}}
    code, out, _ = run_cli(tmp_path, capsys, "check-bounds", doc)
    assert code == 4
    header, rows = csv_rows(out)  # the table is still emitted
    assert rows[1][6] == "false"


def test_exit_code_sweep_failure(tmp_path, capsys):
    doc = {"problem": TWO_PHASE_PROBLEM,
           "parameters": {"n_list": [2, 4], "tol": 1e-300}}
    code, _, err = run_cli(tmp_path, capsys, "sweep", doc)
    assert code == 3
    assert "solver error" in err


@pytest.mark.parametrize("sub, length, reason, p, params", [
    pytest.param("lambda1-fem", 1e-200, "float range", 2.0, {},
                 id="lambda1-fem-1e-200-float range"),
    pytest.param("solve", 1e200, "underflows", 2.0, {}, id="solve-1e+200-underflows"),
    pytest.param("solve", 1e-200, "overflows", 2.0, {}, id="solve-1e-200-overflows"),
    pytest.param("solve", 1.0, "overflows", 1000.0, {"k": 2}, id="solve-p1000-k2"),
    pytest.param("solve", 1.0, "overflows", 1e5, {"k": 1}, id="solve-p1e5-k1"),
    pytest.param("homogenize", 1.0, "overflows", 1000.0, {"k_list": [1, 2]},
                 id="homogenize-p1000-k2"),
    pytest.param("check-bounds", 1.0, "overflows", 1000.0, {"k_max": 2},
                 id="check-bounds-p1000-k2"),
])
def test_exit_code_for_eigenvalues_outside_the_floats(tmp_path, capsys, sub, length, reason,
                                                      p, params):
    # lambda_k, or mu_k = (pi_p k / L)^p, leaves the floats: a solver error,
    # not a config error, a traceback, or a silent inf or 0.
    doc = {"problem": {**CONSTANT_PROBLEM, "length": length, "p": p}, "parameters": params}
    code, out, err = run_cli(tmp_path, capsys, sub, doc)
    assert code == 3
    assert out == ""
    assert err.startswith("solver error:") and reason in err


def test_import_loads_no_scipy():
    probe = ("import sys, plapeig; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(plapeig.__file__)), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "[]"


def test_exit_code_overflow_in_a_shot(tmp_path, capsys):
    # 200 pieces alternating a = 1 and 1e6: far from an eigenvalue the
    # closed-form state grows across the interfaces until it overflows
    # (lam = 1.78e8 does on piece 190), unless the bracket's shots rescale
    # it, after which the solve succeeds.
    n = 200
    a_vals = [1.0 if i % 2 == 0 else 1e6 for i in range(n)]
    doc = {"problem": {"length": 1.0, "p": 2.0,
                       "a": {"kind": "piecewise-constant",
                             "breakpoints": [i / n for i in range(n + 1)],
                             "values": a_vals},
                       "rho": {"kind": "constant", "value": 1.0}},
           "parameters": {"k": 3}}
    code, out, err = run_cli(tmp_path, capsys, "solve", doc)
    assert code == 0, err
    _, rows = csv_rows(out)
    lam = float(rows[0][1])
    exact = transfer_matrix_eigenvalue_p2([1.0 / n] * n, a_vals, 3, (0.5 * lam, 2.0 * lam))
    assert lam == pytest.approx(exact, rel=1e-9)
