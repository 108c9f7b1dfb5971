"""plapeig benchmark: end-to-end and per-layer figures for one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload homog-sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of that checkout and nowhere else.
One process, no threads; ops run back to back in a closed loop (each op
starts when the previous one ends), pass after pass over the workload's
fixed op list, as long as half of one more pass fits in ``--seconds``
(at least one pass).
Every op's result is checked against an oracle that shares no plapeig
code.  The last line of standard output is one JSON object.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: wall time of a fresh interpreter that imports plapeig and
  builds pi_p at each exponent of the workload; median of several.
- ``wall_ref``: time to solution of the op list, in units of a fixed
  reference chunk (``reference_chunk``) timed in the same pass: the sum
  over the op kinds of each kind's median time over the passes.  On a
  shared host the speed of one core drifts by tens of percent from one
  minute to the next, in CPU time as well as wall time, so raw seconds
  spread past any useful bound from run to run; the chunk slows with the
  ops and the ratio does not.  The unscaled seconds are printed above the
  result line.
- ``op_p50_ref``: median time of one op, in the same units, over all
  executions of the run (Harrell-Davis estimate, see ``hd_median``).
- ``ok_frac``: op kinds (and known-defect probes) whose every execution
  returned and met its oracle, over all attempted.  The complement of
  the fail fraction, so that it is never zero.
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` reports the per-layer metrics instead: the probes of
``layers.py``, plus self time and call counts per layer from spans around
the public functions one module calls in another (``tracing.py``),
recorded over traced passes that alternate with untraced ones.  The spans
are written to ``.perfbench_out/`` at the end.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# All load comes from one thread.  OpenBLAS would start a worker thread per
# CPU, which competes with the measured thread on a small host; the setting
# reaches the fresh interpreters of the set-up and CLI probes as well.  It must
# be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
WORKLOADS = ("homog-sweep", "spectrum", "smooth-rk4")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _check_origin(path) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"plapeig was imported from {path}, not from {SRC}")


def measure_setup(exponents, repeats) -> list:
    """Fresh-interpreter set-up runs: [(wall seconds, child report), ...]."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"),
                               *map(str, exponents)],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        report = json.loads(proc.stdout.splitlines()[-1])
        _check_origin(report["file"])
        runs.append((wall, report))
    return runs


# Each op is followed by reference chunks worth this share of its time.
REF_SHARE = 0.05


def reference_chunk() -> float:
    """Time one fixed chunk of the two kinds of work plapeig does, about
    4 ms in equal parts: a scalar float loop (powers, copysign, floor) and
    numpy expressions on 20-point arrays, as in its quadratures.  It calls
    no plapeig code."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 5000):
        x = i * 4e-4
        s += math.copysign(abs(x - 1.0) ** 1.7, x - 1.0) / (1.0 + x) + math.floor(x * 3.1)
    for j in range(400):
        s += float(np.dot(_REF_WEIGHTS, (1.0 - _REF_NODES ** (1.5 + j * 1e-3)) ** -0.4))
    return time.perf_counter() - t0


_REF_NODES = np.linspace(0.01, 0.99, 20)
_REF_WEIGHTS = np.full(20, 0.05)


class PassLog:
    """Per-op and per-pass records of one kind of pass (traced or not).

    With ``reference`` on, every op is followed by reference chunks, and
    each op time is also kept relative to the mean chunk time of its pass
    (``rel``): the chunks run in the same seconds as the ops, so a slow
    spell of the host stretches both."""

    def __init__(self, reference=False):
        self.pass_s: list = []
        self.op_s: list = []
        self.ref_s: list = []     # every reference chunk time
        self.reference = reference
        self.by_op: dict = {}     # name -> {"times", "rel", "errs", "fails"}

    def run_pass(self, ops, tracer=None):
        from workloads import Miss

        ctx: dict = {}
        done, refs = [], []
        for i, op in enumerate(ops):
            rec = self.by_op.setdefault(op.name, {"times": [], "rel": [], "errs": [],
                                                  "fails": []})
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.call(ctx)
                else:
                    result = tracer.run_op(i, op.func, lambda: op.call(ctx))
            except Exception as exc:   # an op that raises is a failed op
                dt = time.perf_counter() - t0
                rec["fails"].append(f"{type(exc).__name__}: {exc}")
            else:
                dt = time.perf_counter() - t0
                ctx[op.name] = result
                try:
                    rec["errs"].append(op.check(result, ctx))
                except Miss as exc:
                    rec["fails"].append(f"Miss: {exc}")
            rec["times"].append(dt)
            done.append((rec, dt))
            if self.reference:     # at least one chunk after every op
                spent = 0.0
                while not spent or spent < REF_SHARE * dt:
                    refs.append(reference_chunk())
                    spent += refs[-1]
        self.pass_s.append(sum(dt for _, dt in done))
        self.op_s += [dt for _, dt in done]
        if refs:
            unit = statistics.mean(refs)
            for rec, dt in done:
                rec["rel"].append(dt / unit)
            self.ref_s += refs

    def executions(self) -> tuple:
        attempted = sum(len(r["times"]) for r in self.by_op.values())
        failed = sum(len(r["fails"]) for r in self.by_op.values())
        return attempted, failed


def run_probes(probes) -> list:
    """Each probe once, untimed: [(name, outcome, ok), ...]."""
    from workloads import Miss

    out = []
    for op in probes:
        try:
            result = op.call({})
        except Exception as exc:   # the known defect shows up here
            out.append((op.name, f"{type(exc).__name__}: {exc}", False))
            continue
        try:
            err = op.check(result, {})
        except Miss as exc:
            out.append((op.name, f"Miss: {exc}", False))
        else:
            out.append((op.name, f"ok, error {err}", True))
    return out


def _fmt_err(errs) -> str:
    known = [e for e in errs if e is not None]
    return f"{max(known):.1e}" if known else "bound"


def report_ops(logs) -> None:
    for label, log in logs:
        for name, rec in log.by_op.items():
            times = rec["times"]
            print(f"op {label:8s} {name:32s} n={len(times):3d} "
                  f"p50_ms={statistics.median(times) * 1e3:10.3f} "
                  f"err={_fmt_err(rec['errs']):>7s} fails={len(rec['fails'])}")
            for msg in rec["fails"][:2]:
                print(f"   fail: {msg[:300]}")


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of all order
    statistics.  Op times from many op kinds cluster by kind, and the plain
    median jumps across the gap between two clusters from run to run."""
    from scipy.special import betainc

    x = np.sort(np.asarray(list(values), dtype=float))
    a = (len(x) + 1) / 2.0
    weights = np.diff(betainc(a, a, np.arange(len(x) + 1) / len(x)))
    return float(np.dot(weights, x))


def _measured(logs) -> float:
    return sum(t for _, log in logs for t in log.pass_s)


def _another_pass(logs, seconds) -> bool:
    """Whether at least half of one more pass of typical length still fits
    in seconds of measured pass time, so that the measured time ends, on
    average, at seconds."""
    typical = statistics.median(t for _, log in logs for t in log.pass_s)
    return _measured(logs) + typical / 2.0 <= seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "plapeig" / "__init__.py").is_file():
        print(f"perfbench: no plapeig sources under {SRC}; run from the root of a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import plapeig
    import plapeig.homogenize
    import plapeig.shooting
    import plapeig.variational

    import layers
    import selftest
    import workloads
    from tracing import Tracer

    _check_origin(plapeig.__file__)
    selftest.check_all()
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(args.seed)
    wl = workloads.build(args.workload, args.seed, plapeig)
    modules = {name: sys.modules[name] for name in
               ("plapeig.homogenize", "plapeig.shooting", "plapeig.variational")}
    problems: list = []      # correctness failures outside the op list
    metrics: dict = {}

    if args.trace == 0:
        for p in wl.exponents:          # the set-up every run pays, not timed
            plapeig.pi_p(p)
        logs = [("timed", PassLog(reference=True))]
        setup = []
        while True:
            # Set-up runs go between passes, so that a slow spell of the
            # host does not catch all of them at once.
            if len(setup) < SETUP_REPEATS:
                setup += measure_setup(wl.exponents, 1)
            logs[0][1].run_pass(wl.ops)
            if not _another_pass(logs, args.seconds):
                break
        setup += measure_setup(wl.exponents, SETUP_REPEATS - len(setup))
    else:
        setup = measure_setup(wl.exponents, 1)
        tmp = OUT / f"cli-{os.getpid()}"
        tmp.mkdir()
        try:
            metrics.update(layers.ptrig(plapeig, rng, problems))
            metrics.update(layers.problem(plapeig, rng, problems))
            metrics.update(layers.shooting(plapeig, modules, problems))
            metrics.update(layers.variational(plapeig, modules, problems))
            metrics.update(layers.homogenize(plapeig, modules, problems))
            metrics.update(layers.cli(ROOT, child_env(), tmp, problems))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        metrics["ptrig.pi_p_cold_ms"] = (statistics.median(setup[0][1]["pi_p_cold_ms"]), "ms")
        metrics["cli.import_s"] = (setup[0][1]["import_s"], "s")

        logs = [("untraced", PassLog()), ("traced", PassLog())]
        tracer = Tracer()
        for i in itertools.count():    # alternate, at least one pass of each
            if i % 2 == 0:
                logs[0][1].run_pass(wl.ops)
            else:
                tracer.install(modules)
                try:
                    logs[1][1].run_pass(wl.ops, tracer)
                finally:
                    tracer.uninstall()
            if i >= 1 and not _another_pass(logs, args.seconds):
                break
        passes = len(logs[1][1].pass_s)
        per_name = tracer.self_seconds()
        for layer in ("ptrig", "shooting", "variational", "homogenize"):
            own = sum(s for name, s in per_name.items() if name.startswith(layer + "."))
            metrics[f"{layer}.self_ms"] = (own / passes * 1e3, "ms")
        metrics["shooting.solve_eigenvalue.self_ms"] = (
            per_name["shooting.solve_eigenvalue"] / passes * 1e3, "ms")
        for name in ("shooting.solve_eigenvalue", "shooting.integrate_ivp", "ptrig.sin_p"):
            metrics[f"{name}.calls"] = (tracer.counts[name] / passes, "count")
        metrics["trace.spans"] = (len(tracer.spans) / passes, "count")
        metrics["trace.overhead_frac"] = (
            statistics.median(logs[1][1].pass_s) / statistics.median(logs[0][1].pass_s) - 1.0,
            "1")
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    probes = run_probes(wl.probes)
    attempted = sum(log.executions()[0] for _, log in logs)
    failed = sum(log.executions()[1] for _, log in logs)
    correct = failed == 0 and not problems
    names = logs[0][1].by_op.keys()
    kinds = len(names) + len(probes)
    bad_kinds = sum(any(log.by_op[n]["fails"] for _, log in logs) for n in names) \
        + sum(not ok for _, _, ok in probes)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(wl.ops)} ops per pass, {_measured(logs):.1f} s measured")
    for label, log in logs:
        print(f"passes {label}: " + " ".join(f"{s:.3f}" for s in log.pass_s) + " s")
    report_ops(logs)
    for name, outcome, _ in probes:
        print(f"probe {name}: {outcome}")
    for msg in problems:
        print(f"problem: {msg}")
    print(f"fail_frac {bad_kinds / kinds:.4f}: {bad_kinds} failed of {len(names)} op kinds "
          f"plus {len(probes)} probes; {failed} of {attempted} timed executions failed")

    if args.trace == 0:
        timed = logs[0][1]
        metrics["setup_s"] = (statistics.median(w for w, _ in setup), "s")
        rel = [rec["rel"] for rec in timed.by_op.values()]
        metrics["wall_ref"] = (sum(statistics.median(r) for r in rel), "ref")
        metrics["op_p50_ref"] = (hd_median(x for r in rel for x in r), "ref")
        metrics["ok_frac"] = (1.0 - bad_kinds / kinds, "1")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
        print(f"samples: setup_s {len(setup)}, wall_ref {len(timed.pass_s)} passes, "
              f"op_p50_ref {len(timed.op_s)} ops; reference chunk median "
              f"{statistics.median(timed.ref_s) * 1e3:.4f} ms over {len(timed.ref_s)} chunks; "
              f"unscaled median pass {statistics.median(timed.pass_s):.4f} s, "
              f"median op {statistics.median(timed.op_s) * 1e3:.3f} ms")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
