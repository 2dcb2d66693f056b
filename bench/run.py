"""Benchmark of the tree-recon command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy.  Every operation is one tree-recon
command run in-process through ``treerecon.cli.main(argv)`` with
``--threads 1 --format json``.  The run repeats the workload's fixed list of
operations until S seconds have passed, checks each command's stdout against
its reference and prints, as the last line of stdout, one JSON object with
the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics (setup_s, wall_s, op_p50_s,
peak_rss_mb).  --trace 1 spends the first half of the time untraced and the
second half with every layer's public functions wrapped, and reports the
per-layer metrics of tracer.py plus trace.overhead_s and trace.coverage.
See bench/README.md for the workloads and metrics.
"""

import os

# Pin BLAS to one thread before numpy loads: timings measure one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_LAUNCHES = 5
THREADS_CHECK = 2
# Duration of Calibration.measure() at the reference speed.
CAL_NOMINAL_S = 0.025

SETUP_CODE = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import treerecon.cli
import commands
commands.build({name!r}, {seed})
"""


class Calibration:
    """Fixed reference work timed next to every measurement.

    On a shared virtual machine the CPU speed drifts between regimes up to
    2x apart, each lasting seconds (a fixed Python loop reads 42 ms or 60 ms
    for minutes at a time), so raw medians flip from run to run.  Every timed operation is
    bracketed by measure() and rescaled to the speed at which measure()
    takes CAL_NOMINAL_S.  The work mixes a pure-Python loop, small-array
    numpy calls and a large-array numpy pass, the three kinds of work the
    workloads do, in roughly equal shares.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.small = np.array([0.2, 0.3, 0.5]), np.array([0.3, 0.3, 0.4])
        self.big = np.random.default_rng(0).random((250, 1000))
        self.last = self.measure()

    def measure(self):
        np = self.np
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        a, b = self.small
        for _ in range(2000):
            d = a - b
            float(np.sum(d * np.log1p(d / b)))
        for _ in range(2):
            np.log1p(self.big).sum(axis=1)
            self.big @ self.big[:8].T
        return time.perf_counter() - t0

    def rescale(self, seconds):
        """Rescale a duration measured since the previous call to the
        reference speed, using the calibrations on both sides of it."""
        before, self.last = self.last, self.measure()
        return seconds * CAL_NOMINAL_S / (0.5 * (before + self.last))


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("optimize", "bounds_q2", "simulate", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "treerecon", "cli.py")):
        sys.exit(f"error: {SRC}/treerecon not found; run from the root of a "
                 "treerecon source checkout")
    sys.path[:0] = [SRC, BENCH]
    import treerecon.cli
    if not os.path.abspath(treerecon.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported treerecon from {treerecon.cli.__file__}, "
                 f"not from {SRC}")
    return treerecon.cli


class Outcome:
    __slots__ = ("code", "stdout", "error", "seconds", "status", "reason")


def run_op(cli, op, threads=1):
    """Run one command in-process; classify it as ok, failed or known_defect."""
    argv = [*op.argv, "--threads", str(threads), "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    res = Outcome()
    res.code, res.error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            res.code = cli.main(argv)
    except SystemExit as exc:
        res.code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught exception is the outcome under test
        res.error = type(exc).__name__
    res.seconds = time.perf_counter() - t0
    res.stdout = out.getvalue()
    res.status, res.reason = "ok", None
    if res.error is not None:
        if res.error == op.known_defect:
            res.status, res.reason = "known_defect", f"uncaught {res.error}"
        else:
            res.status, res.reason = "failed", f"uncaught {res.error}"
    elif res.code != op.expect_exit:
        res.status = "failed"
        res.reason = f"exit {res.code}, expected {op.expect_exit}: {err.getvalue().strip()[:200]}"
    return res


class Checker:
    """Checks each operation's stdout once per distinct digest, outside the
    timed region, and requires every pass to print the same bytes."""

    def __init__(self, ops):
        self.ops = ops
        self.digests = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.known = {}
        self.problems = []
        self.uncaught = 0

    def record(self, k, res):
        op = self.ops[k]
        self.attempted += 1
        if res.error is not None:
            self.uncaught += 1
        if res.status == "known_defect":
            self.known[op.name] = res.reason
            return
        reason = res.reason
        if reason is None:
            digest = hashlib.sha256(res.stdout.encode()).hexdigest()
            if self.digests[k] is None:
                self.digests[k] = digest
                if op.check is not None and op.expect_exit == 0:
                    try:
                        reason = op.check(res.stdout)
                    except (KeyError, TypeError, ValueError, IndexError) as exc:
                        reason = f"output lacks what the check reads: {exc!r}"
            elif digest != self.digests[k]:
                reason = "stdout differs from an earlier pass"
        if reason is not None:
            self.failed += 1
            self.problems.append(f"{op.name}: {reason}")


def run_pass(cli, ops, checker, cal, tracer=None):
    """One pass over the operations.  Returns the raw and the rescaled wall
    time of each operation and, when traced, the smallest share of an
    operation's wall time that the reported time metrics account for."""
    raw, scaled, coverage = [], [], 1.0
    cal.last = cal.measure()
    for k, op in enumerate(ops):
        before = tracer.reported_self() if tracer else 0.0
        res = run_op(cli, op)
        raw.append(res.seconds)
        scaled.append(cal.rescale(res.seconds))
        if tracer is not None:
            coverage = min(coverage, (tracer.reported_self() - before) / res.seconds)
        checker.record(k, res)
    return raw, scaled, coverage


def measure_setup(name, seed, cal):
    """Median wall time, rescaled, of fresh interpreters that import
    treerecon.cli and generate the workload's command lines."""
    code = SETUP_CODE.format(src=SRC, bench=BENCH, name=name, seed=seed)
    raw, scaled = [], []
    cal.last = cal.measure()
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        raw.append(time.perf_counter() - t0)
        scaled.append(cal.rescale(raw[-1]))
    return statistics.median(raw), statistics.median(scaled)


def op_p50(op_times, n_ops):
    """Median time of the median operation: each operation's median over the
    passes, then the lower median over operations.  Pooling every sample
    instead would put the median between two operations of different cost
    whenever the count is even, where it jumps with the noise."""
    per_op = [statistics.median(op_times[k::n_ops]) for k in range(n_ops)]
    return statistics.median_low(per_op)


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "seed": seed}


def main(argv=None):
    args = _parse_args(argv)
    cli = _import_package()
    import commands
    import tracer as tracing
    import workloads

    ops = workloads.build(args.workload, args.seed, workloads.load_refs())
    det_index = commands.WORKLOADS[args.workload][1]
    cal = Calibration()
    setup = None if args.trace else measure_setup(args.workload, args.seed, cal)

    checker = Checker(ops)
    raw_walls, pass_walls, raw_ops, op_times = [], [], [], []
    traced_raw, traced_walls, layer_runs, coverage = [], [], [], 1.0
    start = time.perf_counter()
    untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
    # a new pass starts only if it is expected to end within the time
    while not pass_walls or time.perf_counter() + max(raw_walls) < untraced_until:
        raw, scaled, _ = run_pass(cli, ops, checker, cal)
        raw_walls.append(sum(raw))
        pass_walls.append(sum(scaled))
        raw_ops.extend(raw)
        op_times.extend(scaled)
    # the untraced passes' peak, read before the --threads 2 check, whose
    # worker threads add 25-35 MB that varies from run to run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while args.trace and (not traced_walls or time.perf_counter()
                          + max(traced_raw) < start + args.seconds):
        tr = tracing.Tracer()
        tr.install()
        try:
            raw, scaled, cov = run_pass(cli, ops, checker, cal, tr)
        finally:
            tr.uninstall()
        traced_raw.append(sum(raw))
        traced_walls.append(sum(scaled))
        coverage = min(coverage, cov)
        layer_runs.append(tr.metrics())
        if tr.missing:
            print("note: wrap targets missing: " + ", ".join(tr.missing),
                  file=sys.stderr)

    # stdout must not depend on the thread count (acceptance criterion 8)
    det_op = ops[det_index]
    res = run_op(cli, det_op, threads=THREADS_CHECK)
    checker.attempted += 1
    digest = hashlib.sha256(res.stdout.encode()).hexdigest()
    if res.status != "ok" or digest != checker.digests[det_index]:
        checker.failed += 1
        checker.problems.append(f"{det_op.name}: stdout differs with "
                                f"--threads {THREADS_CHECK}")

    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, reason in checker.known.items():
        print(f"known defect: {name}: {reason}", file=sys.stderr)

    if args.trace:
        values = {key: statistics.median(r[key] for r in layer_runs)
                  for key in layer_runs[0]}
        values["cli.uncaught"] = checker.uncaught / (len(pass_walls) + len(traced_walls))
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(pass_walls))
        values["trace.coverage"] = coverage
        metrics = {name: (values[name], unit)
                   for name, unit, _ in tracing.LAYER_METRICS if name in values}
    else:
        metrics = {
            "setup_s": (setup[1], "s"),
            "wall_s": (statistics.median(pass_walls), "s"),
            "op_p50_s": (op_p50(op_times, len(ops)), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    info = {"workload": args.workload, "env": environment(args.seed),
            "ops_per_pass": len(ops), "raw_setup_s": setup and setup[0],
            "raw_pass_walls": raw_walls, "pass_walls": pass_walls,
            "traced_walls": traced_walls, "raw_op_times": raw_ops,
            "op_times": op_times,
            "digests": dict(zip((op.name for op in ops), checker.digests)),
            "known_defects": checker.known}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
