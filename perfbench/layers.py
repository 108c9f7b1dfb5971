"""Per-layer probes, run in every traced run whatever the workload.

Each probe times calls into one layer's public functions from outside, on
fixed problems, so its figures are comparable across workloads and seeds.
Counts (shots, iterations, subsolves) repeat exactly from run to run; the
seed only draws the argument sets of the scalar kernels.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time

import oracles as O
from tracing import Tracer
from workloads import EXPONENTS, RK4_STEPS_PER_UNIT

KERNEL_ARGS = 100          # per exponent
SCALAR_ARGS = 300
PIECES_CELLS = 1024
PROPAGATE_CELLS = 256
FEM_N = 2000
SWEEP_CELLS = (8, 16, 32)
REPEATS = 3

# The golden CLI configs of the acceptance gate, on the (1, 4) two-phase
# problem; each is launched twice and must print the same bytes.
_TWO_PHASE_DOC = {
    "length": 1.0, "p": 2.0,
    "a": {"kind": "piecewise-constant", "breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 4.0]},
    "rho": {"kind": "constant", "value": 1.0},
}
CLI_CONFIGS = {
    "solve": {"problem": _TWO_PHASE_DOC, "parameters": {"k": 3, "tol": 1e-10}},
    "sweep": {"problem": _TWO_PHASE_DOC, "parameters": {"k": 1, "n_list": [2, 4, 8, 16]}},
    "lambda1-fem": {"problem": _TWO_PHASE_DOC, "parameters": {"n": 200}},
    "pfunc": {"parameters": {"p": [1.5, 2.0, 3.0], "samples": 33}},
}


def _per_call_us(fn, args) -> float:
    """Median wall time of one call, over calls on every argument tuple."""
    times = []
    for a in args:
        t0 = time.perf_counter()
        fn(*a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _median_s(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _half_cell(P, p, n_cells=None):
    C = P.Coefficient
    cell = C.piecewise_constant([0.0, 0.5, 1.0], [1.0, 4.0])
    a = cell if n_cells is None else C.periodic(cell, 1.0 / n_cells)
    return P.Problem(1.0, p, a, C.constant(1.0))


def _traced(modules, name, fn):
    """Run fn once as a root span with the boundary wrappers installed."""
    tracer = Tracer()
    tracer.install(modules)
    try:
        t0 = time.perf_counter()
        result = tracer.run_op(0, name, fn)
        seconds = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, result, seconds


def ptrig(P, rng, problems) -> dict:
    sin_args, asin_args = [], []
    for p in EXPONENTS:
        span = 2.0 * O.pi_p_closed(p)
        sin_args += [(p, float(x)) for x in rng.uniform(-span, span, KERNEL_ARGS)]
        asin_args += [(p, float(s)) for s in rng.uniform(-1.0, 1.0, KERNEL_ARGS)]
    err = max(max(abs(P.sin_p(p, x) - O.sin_p_ref(p, x)) for p, x in sin_args),
              max(abs(P.asin_p(p, s) - O.asin_p_ref(p, s)) for p, s in asin_args),
              max(abs(P.pi_p(p) - O.pi_p_closed(p)) for p in EXPONENTS))
    if not err <= 1e-10:
        problems.append(f"ptrig: max abs error {err:.2e} against the Beta oracle")
    return {"ptrig.sin_p_us": (_per_call_us(P.sin_p, sin_args), "us"),
            "ptrig.asin_p_us": (_per_call_us(P.asin_p, asin_args), "us"),
            "ptrig.max_abs_err": (err, "1")}


def problem(P, rng, problems) -> dict:
    a = P.Coefficient.piecewise_linear([0.0, 1.0], [1.0, 3.0])
    xs = [(float(x),) for x in rng.uniform(0.0, 1.0, SCALAR_ARGS)]
    ss = [(3.0, float(s)) for s in rng.uniform(-2.0, 2.0, SCALAR_ARGS)]
    prob = _half_cell(P, 2.0, PIECES_CELLS)
    pieces = prob.pieces()
    if len(pieces) != 2 * PIECES_CELLS:
        problems.append(f"problem: {len(pieces)} pieces for {PIECES_CELLS} cells")
    return {"problem.phi_p_us": (_per_call_us(P.phi_p, ss), "us"),
            "problem.coeff_call_us": (_per_call_us(a, xs), "us"),
            "problem.pieces_ms": (_median_s(prob.pieces) * 1e3, "ms")}


def shooting(P, modules, problems) -> dict:
    prob = _half_cell(P, 2.0, PROPAGATE_CELLS)
    lam = O.homogenized_eigenvalue(2.0, 1, [0.5, 0.5], [1.0, 4.0], [1.0, 1.0], 1.0)
    per_piece = _median_s(lambda: P.propagate_piecewise_constant(prob, lam)) \
        / (2 * PROPAGATE_CELLS) * 1e6

    C = P.Coefficient
    smooth = P.Problem(1.0, 2.0, C.piecewise_linear([0.0, 1.0], [1.0, 3.0]), C.constant(1.0))
    tracer, lam1, _ = _traced(modules, "shooting.solve_eigenvalue",
                              lambda: P.solve_eigenvalue(
                                  smooth, 1, steps_per_unit=RK4_STEPS_PER_UNIT))
    shots = tracer.counts["shooting.integrate_ivp"]
    rk4_s = tracer.total_seconds("shooting.integrate_ivp")
    if abs(lam1 - O.bessel_eigenvalues(1)[0]) > 1e-8 * lam1:
        problems.append(f"shooting: RK4 lambda1 {lam1!r} misses the Bessel oracle")

    two_phase = _half_cell(P, 2.0)
    pair_s = _median_s(lambda: P.solve_eigenpair(two_phase, 5))
    value_s = _median_s(lambda: P.solve_eigenvalue(two_phase, 5))
    return {"shooting.propagate_us_per_piece": (per_piece, "us"),
            "shooting.rk4_us_per_step": (rk4_s / max(shots, 1) / RK4_STEPS_PER_UNIT * 1e6, "us"),
            "shooting.rk4_shots_per_solve": (shots, "count"),
            "shooting.sample_ms": ((pair_s - value_s) * 1e3, "ms")}


def variational(P, modules, problems) -> dict:
    prob = _half_cell(P, 3.0)
    tracer, (lam1, _, history), fem_s = _traced(
        modules, "variational.minimize_lambda1",
        lambda: P.minimize_lambda1(prob, FEM_N, return_history=True))
    share = tracer.total_seconds("ptrig.sin_p", under="variational.minimize_lambda1") / fem_s
    eq_tracer, (lam2, _), eq_s = _traced(modules, "variational.lambda2_equalize",
                                         lambda: P.lambda2_equalize(prob))
    subsolves = eq_tracer.counts["shooting.solve_eigenvalue"]
    for name, got, k, tol in (("lambda1", lam1, 1, 1e-2), ("lambda2", lam2, 2, 1e-6)):
        ref = P.solve_eigenvalue(prob, k, 1e-10)
        if abs(got - ref) > tol * ref:
            problems.append(f"variational: {name} {got!r} disagrees with shooting {ref!r}")
    return {"variational.minimize_lambda1_ms": (fem_s * 1e3, "ms"),
            "variational.iterations": (len(history) - 1, "count"),
            "variational.ptrig_share": (share, "1"),
            "variational.lambda2_equalize_ms": (eq_s * 1e3, "ms"),
            "variational.subsolves": (subsolves, "count"),
            "variational.make_mesh_ms": (_median_s(lambda: P.make_mesh(prob, FEM_N)) * 1e3, "ms")}


def homogenize(P, modules, problems) -> dict:
    prob = _half_cell(P, 2.0)
    tracer, sweep, sweep_s = _traced(modules, "homogenize.epsilon_sweep",
                                     lambda: P.epsilon_sweep(prob, 1, SWEEP_CELLS,
                                                             keep_eigenfunction=False))
    solve_s = tracer.total_seconds("shooting.solve_eigenvalue", under="homogenize.epsilon_sweep")
    order = P.convergence_report(sweep)["order_estimate"]
    star = O.homogenized_eigenvalue(2.0, 1, [0.5, 0.5], [1.0, 4.0], [1.0, 1.0], 1.0)
    own = O.order_estimate(SWEEP_CELLS, [abs(x - star) / star for x in sweep.lambdas])
    if order is None or not order > 0.0 or abs(order - own) > 1e-6:
        problems.append(f"homogenize: order estimate {order!r}, oracle {own!r}")
    return {"homogenize.ms_per_cell": (sweep_s / sum(SWEEP_CELLS) * 1e3, "ms"),
            "homogenize.solve_share": (solve_s / sweep_s, "1"),
            "homogenize.order_estimate": (order if order is not None else math.nan, "1")}


def cli(root, env, tmpdir, problems) -> dict:
    out = {}
    for sub, doc in CLI_CONFIGS.items():
        cfg = tmpdir / f"{sub}.json"
        cfg.write_text(json.dumps(doc))
        blobs, times = [], []
        for _ in range(2):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "plapeig.cli", sub, "--config", str(cfg)],
                                  cwd=root, env=env, capture_output=True, timeout=120)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                problems.append(f"cli {sub}: exit {proc.returncode}: {proc.stderr[-300:]!r}")
            blobs.append(proc.stdout)
        if blobs[0] != blobs[1] or not blobs[0]:
            problems.append(f"cli {sub}: two launches printed different output")
        if sub == "solve" and blobs[0]:
            lam = float(blobs[0].decode().splitlines()[1].split(",")[1])
            exact = O.pc_eigenvalue_p2([(0.5, 1.0, 1.0), (0.5, 4.0, 1.0)], 3)
            if abs(lam - exact) > 1e-8 * exact:
                problems.append(f"cli solve: lambda_3 {lam!r} misses the oracle {exact!r}")
        out[f"cli.{sub.replace('-', '_')}_s"] = (statistics.median(times), "s")
    return out
