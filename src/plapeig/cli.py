"""Config-driven command line interface.

Every run is described by a JSON config document; command-line flags only
pick the subcommand, the config file, the output destination and the
verbosity.  Identical configs produce byte-identical outputs.

Config schema::

    {
      "subcommand": "solve",            // optional if given on the command line
      "problem": {
        "length": 1.0,
        "p": 2.0,
        "a":   {"kind": "piecewise-constant",
                "breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 4.0]},
        "rho": {"kind": "constant", "value": 1.0}
      },
      "parameters": { ... per-subcommand, see below ... },
      "output": {"path": "out.csv", "format": "csv"}   // format: csv | json
    }

Coefficient kinds: ``piecewise-constant`` (values between consecutive
breakpoints, right-continuous), ``piecewise-linear`` (values at the
breakpoints), ``periodic-cell`` (``cell`` holds a coefficient on [0, 1],
``period`` the cell width), and the shorthand ``constant`` (one value,
expanded over the domain).  For ``homogenize`` and ``sweep`` the problem's
``a`` and ``rho`` are unit-cell coefficients on [0, 1] and ``length`` is
the domain the cells tile.

Subcommands and their parameters (defaults in parentheses):

- ``pfunc``: table of pi_p and sin_p/dsin_p samples.
  p (required; number or list), samples (65), periods (2.0).
  CSV columns: p, pi_p, x, sin_p, dsin_p.
- ``solve``: k-th eigenvalue by shooting.
  k (1), tol (1e-9), steps_per_unit (10000), samples (1025), max_iter (200;
  the budget of bracketing shots, Illinois regula falsi on the Pruefer
  phase, 9-13 of which reach tol 1e-9 on typical problems).
  CSV columns: k, lambda, n_zeros.
- ``lambda1-fem``: first eigenvalue by Rayleigh quotient descent.
  n (400), tol (1e-8), max_iter (2000).  CSV columns: n, lambda1, iterations.
- ``lambda2-eq``: second eigenvalue by nodal equalization.
  tol (1e-7), max_iter (200).  CSV columns: lambda2, c_star.
- ``check-bounds``: two-sided eigenvalue bounds report.
  k_max (5) and tol (1e-9), or lambdas (externally computed values,
  checked as k = 1, 2, ...).  CSV columns: k, lambda, lower, upper,
  margin_low, margin_high, ok.  Any violation exits with code 4.
- ``picone``: randomized check of the pointwise identity.
  p (2.0), a (1.0), samples (10000), seed (0).
  CSV columns: samples, max_mismatch, min_l, ok.  Failure exits 4.
- ``homogenize``: effective coefficient/weight and limiting eigenvalues.
  k_list ([1, 2, 3]).  CSV columns: k, a_star, rho_star, lambda_star.
- ``sweep``: eigenvalues of the oscillating problems for eps = length/n.
  k (1), n_list ([2, 4, 8, 16, 32, 64]), tol (1e-8).
  CSV columns: n, epsilon, lambda, rel_error.

Exit codes: 0 success, 2 config error, 3 solver nonconvergence,
4 bound or identity violation in a check subcommand.  Numbers in CSV
output are rendered with 15 significant digits; diagnostics go to the
error stream, never into the data output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketError, ConfigError, NonconvergenceError, SweepError
from .homogenize import (convergence_report, effective_coefficient,
                         effective_weight, epsilon_sweep, homogenized_eigenvalue)
from .problem import Coefficient, Problem, picone_lr
from .ptrig import dsin_p, pi_p, sin_p
from .shooting import solve_eigenpair
from .variational import check_weyl, lambda2_equalize, minimize_lambda1

__all__ = ["RunConfig", "parse_config", "run", "main"]

SUBCOMMANDS = ("pfunc", "solve", "lambda1-fem", "lambda2-eq",
               "check-bounds", "picone", "homogenize", "sweep")
_NEEDS_PROBLEM = ("solve", "lambda1-fem", "lambda2-eq",
                  "check-bounds", "homogenize", "sweep")
_CELL_MODE = ("homogenize", "sweep")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_CHECK_FAILED = 4


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    subcommand: str
    problem: Problem | None
    parameters: dict
    out_path: str | None = None
    out_format: str = "csv"
    verbose: bool = False

    def canonical(self) -> dict:
        doc: dict = {"subcommand": self.subcommand}
        if self.problem is not None:
            doc["problem"] = {
                "length": self.problem.length,
                "p": self.problem.p.p,
                "a": _coeff_doc(self.problem.a),
                "rho": _coeff_doc(self.problem.rho),
            }
        doc["parameters"] = dict(self.parameters)
        doc["output"] = {"path": self.out_path, "format": self.out_format}
        return doc


def _coeff_doc(c: Coefficient) -> dict:
    if c.kind == "periodic-cell":
        return {"kind": c.kind, "period": c.period, "cell": _coeff_doc(c.cell)}
    return {"kind": c.kind, "breakpoints": list(c.breakpoints),
            "values": list(c.values)}


# -- config parsing ----------------------------------------------------


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    return obj


def _number(d, key, path, default=None, required=False, positive=False):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}: required")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    v = float(v)
    if positive and not v > 0.0:
        raise ConfigError(f"{path}.{key}: must be positive")
    return v


def _integer(d, key, path, default=None, required=False, minimum=None):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}: required")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}: must be at least {minimum}")
    return v


def _number_list(d, key, path, default=None, required=False):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}: required")
        return default
    v = d[key]
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path}.{key}: expected a nonempty list")
    out = []
    for i, x in enumerate(v):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"{path}.{key}[{i}]: expected a number")
        out.append(float(x))
    return out


def _reject_unknown(d, known, path):
    for key in d:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")


def _coeff_from(doc, span, path) -> Coefficient:
    doc = _require_mapping(doc, path)
    kind = doc.get("kind")
    if kind == "constant":
        _reject_unknown(doc, {"kind", "value"}, path)
        value = _number(doc, "value", path, required=True, positive=True)
        return Coefficient.constant(value, span)
    try:
        if kind == "periodic-cell":
            _reject_unknown(doc, {"kind", "period", "cell"}, path)
            period = _number(doc, "period", path, required=True, positive=True)
            if "cell" not in doc:
                raise ConfigError(f"{path}.cell: required")
            cell = _coeff_from(doc["cell"], (0.0, 1.0), f"{path}.cell")
            return Coefficient.periodic(cell, period)
        if kind in ("piecewise-constant", "piecewise-linear"):
            _reject_unknown(doc, {"kind", "breakpoints", "values"}, path)
            bs = _number_list(doc, "breakpoints", path, required=True)
            vs = _number_list(doc, "values", path, required=True)
            return Coefficient(kind, tuple(bs), tuple(vs))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: expected one of constant, piecewise-constant, "
                      f"piecewise-linear, periodic-cell, got {kind!r}")


def _problem_from(doc, cell_mode: bool, path="problem") -> Problem:
    doc = _require_mapping(doc, path)
    _reject_unknown(doc, {"length", "p", "a", "rho"}, path)
    length = _number(doc, "length", path, required=True, positive=True)
    p = _number(doc, "p", path, required=True)
    if p <= 1.0:
        raise ConfigError(f"{path}.p: must exceed 1")
    span = (0.0, 1.0) if cell_mode else (0.0, length)
    if "a" not in doc or "rho" not in doc:
        raise ConfigError(f"{path}: both a and rho are required")
    a = _coeff_from(doc["a"], span, f"{path}.a")
    rho = _coeff_from(doc["rho"], span, f"{path}.rho")
    if cell_mode:
        # Unit-cell coefficients may not cover [0, length]; wrap them as
        # periodic so the Problem is valid for any length.  The sweep and
        # homogenization routines unwrap the cells again.
        checked = []
        for name, c in (("a", a), ("rho", rho)):
            cell = c.cell if c.kind == "periodic-cell" else c
            if not cell.covers(0.0, 1.0):
                raise ConfigError(f"{path}.{name}: must describe a unit cell "
                                  f"covering [0, 1]")
            if c.kind != "periodic-cell":
                c = Coefficient.periodic(cell, length)
            checked.append(c)
        a, rho = checked
    try:
        return Problem(length, p, a, rho)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _params_for(sub: str, raw: dict) -> dict:
    path = "parameters"
    raw = _require_mapping(raw, path)
    if sub == "pfunc":
        _reject_unknown(raw, {"p", "samples", "periods"}, path)
        pval = raw.get("p")
        if pval is None:
            raise ConfigError(f"{path}.p: required")
        ps = pval if isinstance(pval, list) else [pval]
        ps_out = []
        for i, x in enumerate(ps):
            if isinstance(x, bool) or not isinstance(x, (int, float)) or not x > 1.0:
                raise ConfigError(f"{path}.p[{i}]: expected a number > 1")
            ps_out.append(float(x))
        return {"p": ps_out,
                "samples": _integer(raw, "samples", path, default=65, minimum=2),
                "periods": _number(raw, "periods", path, default=2.0, positive=True)}
    if sub == "solve":
        _reject_unknown(raw, {"k", "tol", "steps_per_unit", "samples", "max_iter"}, path)
        return {"k": _integer(raw, "k", path, default=1, minimum=1),
                "tol": _number(raw, "tol", path, default=1e-9, positive=True),
                "steps_per_unit": _integer(raw, "steps_per_unit", path,
                                           default=10_000, minimum=1),
                "samples": _integer(raw, "samples", path, default=1025, minimum=2),
                "max_iter": _integer(raw, "max_iter", path, default=200, minimum=1)}
    if sub == "lambda1-fem":
        _reject_unknown(raw, {"n", "tol", "max_iter"}, path)
        return {"n": _integer(raw, "n", path, default=400, minimum=16),
                "tol": _number(raw, "tol", path, default=1e-8, positive=True),
                "max_iter": _integer(raw, "max_iter", path, default=2000, minimum=1)}
    if sub == "lambda2-eq":
        _reject_unknown(raw, {"tol", "max_iter"}, path)
        return {"tol": _number(raw, "tol", path, default=1e-7, positive=True),
                "max_iter": _integer(raw, "max_iter", path, default=200, minimum=1)}
    if sub == "check-bounds":
        _reject_unknown(raw, {"k_max", "tol", "lambdas"}, path)
        out = {"k_max": _integer(raw, "k_max", path, default=5, minimum=1),
               "tol": _number(raw, "tol", path, default=1e-9, positive=True)}
        lambdas = _number_list(raw, "lambdas", path, default=None)
        if lambdas is not None:
            out["lambdas"] = lambdas
        return out
    if sub == "picone":
        _reject_unknown(raw, {"p", "a", "samples", "seed"}, path)
        p = _number(raw, "p", path, default=2.0)
        if p <= 1.0:
            raise ConfigError(f"{path}.p: must exceed 1")
        return {"p": p,
                "a": _number(raw, "a", path, default=1.0, positive=True),
                "samples": _integer(raw, "samples", path, default=10_000, minimum=1),
                "seed": _integer(raw, "seed", path, default=0, minimum=0)}
    if sub == "homogenize":
        _reject_unknown(raw, {"k_list"}, path)
        ks = raw.get("k_list", [1, 2, 3])
        if not isinstance(ks, list) or not ks or \
                any(isinstance(k, bool) or not isinstance(k, int) or k < 1 for k in ks):
            raise ConfigError(f"{path}.k_list: expected a nonempty list of "
                              f"positive integers")
        return {"k_list": list(ks)}
    if sub == "sweep":
        _reject_unknown(raw, {"k", "n_list", "tol"}, path)
        ns = raw.get("n_list", [2, 4, 8, 16, 32, 64])
        if not isinstance(ns, list) or not ns or \
                any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in ns) or \
                any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError(f"{path}.n_list: expected a strictly increasing "
                              f"list of positive integers")
        return {"k": _integer(raw, "k", path, default=1, minimum=1),
                "n_list": list(ns),
                "tol": _number(raw, "tol", path, default=1e-8, positive=True)}
    raise ConfigError(f"subcommand: unknown subcommand {sub!r}")


def parse_config(document, subcommand: str | None = None) -> RunConfig:
    """Parse and validate a JSON config document (text or mapping).

    ``subcommand`` (from the command line) must agree with the document's
    own subcommand field when both are present.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON: {exc}") from exc
    else:
        doc = document
    doc = _require_mapping(doc, "config")
    _reject_unknown(doc, {"subcommand", "problem", "parameters", "output"}, "config")

    doc_sub = doc.get("subcommand")
    if doc_sub is not None and doc_sub not in SUBCOMMANDS:
        raise ConfigError(f"subcommand: expected one of {', '.join(SUBCOMMANDS)}, "
                          f"got {doc_sub!r}")
    if subcommand is not None and doc_sub is not None and subcommand != doc_sub:
        raise ConfigError(f"subcommand: config says {doc_sub!r} but the command "
                          f"line says {subcommand!r}")
    sub = subcommand or doc_sub
    if sub is None:
        raise ConfigError("subcommand: required (in the config or on the command line)")

    problem = None
    if sub in _NEEDS_PROBLEM:
        if "problem" not in doc:
            raise ConfigError("problem: required for this subcommand")
        problem = _problem_from(doc["problem"], cell_mode=sub in _CELL_MODE)
    elif "problem" in doc:
        raise ConfigError(f"problem: not used by subcommand {sub!r}")

    params = _params_for(sub, doc.get("parameters", {}))

    out_path, out_format = None, "csv"
    if "output" in doc:
        od = _require_mapping(doc["output"], "output")
        _reject_unknown(od, {"path", "format"}, "output")
        if "path" in od and od["path"] is not None:
            if not isinstance(od["path"], str):
                raise ConfigError("output.path: expected a string")
            out_path = od["path"]
        if "format" in od:
            if od["format"] not in ("csv", "json"):
                raise ConfigError("output.format: expected csv or json")
            out_format = od["format"]
    return RunConfig(subcommand=sub, problem=problem, parameters=params,
                     out_path=out_path, out_format=out_format)


# -- execution ---------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".15g")


def _render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _run_pfunc(cfg):
    rows = []
    tables = []
    for p in cfg.parameters["p"]:
        pip = pi_p(p)
        xs = np.linspace(0.0, cfg.parameters["periods"] * pip,
                         cfg.parameters["samples"])
        samples = [{"x": float(x), "sin_p": sin_p(p, x), "dsin_p": dsin_p(p, x)}
                   for x in xs]
        tables.append({"p": p, "pi_p": pip, "samples": samples})
        rows.extend((p, pip, s["x"], s["sin_p"], s["dsin_p"]) for s in samples)
    obj = {"subcommand": "pfunc", "tables": tables}
    return ["p", "pi_p", "x", "sin_p", "dsin_p"], rows, obj, EXIT_OK


def _run_solve(cfg):
    pm = cfg.parameters
    eig = solve_eigenpair(cfg.problem, pm["k"], pm["tol"],
                          steps_per_unit=pm["steps_per_unit"],
                          samples=pm["samples"], max_iter=pm["max_iter"])
    rows = [(eig.k, eig.lam, len(eig.zeros))]
    obj = {"subcommand": "solve", "k": eig.k, "lambda": eig.lam,
           "zeros": list(eig.zeros)}
    return ["k", "lambda", "n_zeros"], rows, obj, EXIT_OK


def _run_lambda1(cfg):
    pm = cfg.parameters
    val, _, history = minimize_lambda1(cfg.problem, pm["n"], pm["tol"],
                                       max_iter=pm["max_iter"],
                                       return_history=True)
    rows = [(pm["n"], val, len(history) - 1)]
    obj = {"subcommand": "lambda1-fem", "n": pm["n"], "lambda1": val,
           "iterations": len(history) - 1}
    return ["n", "lambda1", "iterations"], rows, obj, EXIT_OK


def _run_lambda2(cfg):
    pm = cfg.parameters
    lam2, c = lambda2_equalize(cfg.problem, pm["tol"], max_iter=pm["max_iter"])
    obj = {"subcommand": "lambda2-eq", "lambda2": lam2, "c_star": c}
    return ["lambda2", "c_star"], [(lam2, c)], obj, EXIT_OK


def _run_check_bounds(cfg):
    pm = cfg.parameters
    if "lambdas" in pm:
        eigs = [(i + 1, lam) for i, lam in enumerate(pm["lambdas"])]
    else:
        eigs = [(k, solve_eigenpair(cfg.problem, k, pm["tol"]).lam)
                for k in range(1, pm["k_max"] + 1)]
    report = check_weyl(cfg.problem, eigs)
    rows = [(e["k"], e["lambda"], e["lower"], e["upper"],
             e["margin_low"], e["margin_high"], e["ok"])
            for e in report["entries"]]
    obj = {"subcommand": "check-bounds", **report}
    code = EXIT_OK if report["all_ok"] else EXIT_CHECK_FAILED
    return ["k", "lambda", "lower", "upper", "margin_low", "margin_high", "ok"], \
        rows, obj, code


def _run_picone(cfg):
    pm = cfg.parameters
    rng = np.random.default_rng(pm["seed"])
    max_mismatch = 0.0
    min_l = float("inf")
    for _ in range(pm["samples"]):
        u = rng.uniform(0.0, 2.0)
        v = rng.uniform(0.8, 2.5)
        du = rng.uniform(-2.0, 2.0)
        dv = rng.uniform(-2.0, 2.0)
        left, right = picone_lr(pm["p"], pm["a"], u, du, v, dv)
        max_mismatch = max(max_mismatch, abs(left - right) / (1.0 + abs(left)))
        min_l = min(min_l, left)
    ok = max_mismatch <= 1e-12 and min_l >= -1e-12
    rows = [(pm["samples"], max_mismatch, min_l, ok)]
    obj = {"subcommand": "picone", "samples": pm["samples"],
           "max_mismatch": max_mismatch, "min_l": min_l, "ok": ok}
    return ["samples", "max_mismatch", "min_l", "ok"], rows, obj, \
        (EXIT_OK if ok else EXIT_CHECK_FAILED)


def _run_homogenize(cfg):
    prob = cfg.problem
    a_star = effective_coefficient(prob.a, prob.p)
    rho_star = effective_weight(prob.rho)
    rows = [(k, a_star, rho_star,
             homogenized_eigenvalue(a_star, rho_star, prob.p, prob.length, k))
            for k in cfg.parameters["k_list"]]
    obj = {"subcommand": "homogenize", "a_star": a_star, "rho_star": rho_star,
           "eigenvalues": [{"k": r[0], "lambda_star": r[3]} for r in rows]}
    return ["k", "a_star", "rho_star", "lambda_star"], rows, obj, EXIT_OK


def _run_sweep(cfg):
    pm = cfg.parameters
    sweep = epsilon_sweep(cfg.problem, pm["k"], pm["n_list"], pm["tol"],
                          keep_eigenfunction=False)
    rows = [(n, eps, lam, err)
            for n, eps, lam, err in zip(sweep.n_cells, sweep.epsilons,
                                        sweep.lambdas, sweep.rel_errors)]
    if len(sweep.epsilons) >= 3:
        obj = {"subcommand": "sweep", **convergence_report(sweep)}
    else:
        obj = {"subcommand": "sweep", "k": sweep.k,
               "lambda_star": sweep.lambda_star,
               "entries": [{"n": r[0], "epsilon": r[1], "lambda": r[2],
                            "rel_error": r[3]} for r in rows]}
    return ["n", "epsilon", "lambda", "rel_error"], rows, obj, EXIT_OK


_HANDLERS = {
    "pfunc": _run_pfunc,
    "solve": _run_solve,
    "lambda1-fem": _run_lambda1,
    "lambda2-eq": _run_lambda2,
    "check-bounds": _run_check_bounds,
    "picone": _run_picone,
    "homogenize": _run_homogenize,
    "sweep": _run_sweep,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated config; write the output; return the exit code."""
    if cfg.verbose:
        print(f"running {cfg.subcommand} "
              f"(format={cfg.out_format}, out={cfg.out_path or 'stdout'})",
              file=sys.stderr)
    columns, rows, obj, code = _HANDLERS[cfg.subcommand](cfg)
    if cfg.out_format == "csv":
        text = _render_csv(columns, rows)
    else:
        text = json.dumps(obj, indent=2) + "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if cfg.verbose:
        print(f"{cfg.subcommand}: exit {code}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plapeig",
        description="Eigenvalues of the 1D weighted p-Laplacian")
    parser.add_argument("subcommand", choices=list(SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="JSON config document")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None,
                        help="override the config's output format")
    parser.add_argument("--verbose", action="store_true",
                        help="diagnostics on the error stream")
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config!r}: {exc}") from exc
        cfg = parse_config(text, subcommand=args.subcommand)
        overrides = {}
        if args.out is not None:
            overrides["out_path"] = args.out
        if args.format is not None:
            overrides["out_format"] = args.format
        if args.verbose:
            overrides["verbose"] = True
        if overrides:
            cfg = replace(cfg, **overrides)
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonconvergenceError, BracketError, SweepError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
