"""Per-layer tracing from outside the package.

The traced run replaces public functions with timing wrappers, as the
calling module sees them (``treerecon.cli.compute_c`` is wrapped separately
from ``treerecon.bounds.compute_c``), and restores them afterwards.  Spans
nest through a stack: a span's self time is its duration minus the time of
the spans it encloses.  Aggregates are kept per span name, never per call,
so a pass with a million entropy evaluations costs no memory.

If a wrap target no longer exists, or a counter cannot read the result it
expects, the metrics that read that span are left out of the report rather
than reported as zero, so a refactor of the package cannot break a run.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# span name -> wrap targets ("module:attribute"), grouped by layer prefix.
# treesim.sweep and treesim.sample_tree have no time metric of their own:
# they keep the library time they enclose out of cli.self_s.
TARGETS = {
    "cli.main": ["treerecon.cli:main"],
    "channels.build": [
        "treerecon.cli:potts_channel", "treerecon.cli:binary_channel",
        "treerecon.cli:channel_from_json", "treerecon.channels:make_channel",
        "treerecon.channels:potts_channel", "treerecon.channels:binary_channel",
        "treerecon.bounds:binary_channel", "treerecon.oracle:binary_channel",
        "treerecon.oracle:make_channel",
    ],
    "entropy.scalar": ["treerecon.variational:symmetrized_entropy"],
    "entropy.rows": [
        "treerecon.variational:symmetrized_entropy_rows",
        "treerecon.treesim:symmetrized_entropy_rows",
        "treerecon.oracle:symmetrized_entropy_rows",
    ],
    "variational.compute_c": [
        "treerecon.cli:compute_c", "treerecon.bounds:compute_c",
        "treerecon.oracle:compute_c",
    ],
    "variational.nm": ["treerecon.variational:minimize"],
    "variational.refine": ["treerecon.variational:minimize_scalar"],
    "variational.eigh": ["treerecon.variational:eigh"],
    "bounds.report": ["treerecon.cli:bound_report", "treerecon.bounds:bound_report"],
    "bounds.table1": ["treerecon.cli:table1"],
    "treesim.sweep": ["treerecon.cli:depth_sweep"],
    "treesim.mc": ["treerecon.treesim:mc_root_entropy"],
    "treesim.sample_tree": ["treerecon.cli:sample_tree"],
    "oracle.suite": ["treerecon.cli:run_suite"],
    "oracle.check": [
        "treerecon.cli:check_lemma1", "treerecon.cli:check_main_recursion",
        "treerecon.cli:check_propagation", "treerecon.cli:check_lyapunov_bound",
    ],
    "oracle.fold": ["treerecon.oracle:enumerate_boundary_laws"],
    "oracle.brute": ["treerecon.oracle:brute_force_boundary_laws"],
    "oracle.bayes": ["treerecon.cli:bayes_vs_recursion",
                     "treerecon.oracle:bayes_vs_recursion"],
}

# Spans whose self time feeds a reported time metric (oracle.suite_s is
# inclusive, so the suite's self time is part of it).  trace.coverage sums
# their self time over an operation: time in an unreported span, or outside
# every span, lowers it.
REPORTED_SELF = (
    "cli.main", "channels.build", "entropy.scalar", "entropy.rows",
    "variational.compute_c", "variational.nm", "variational.refine",
    "variational.eigh", "bounds.report", "bounds.table1", "treesim.mc",
    "oracle.suite", "oracle.check", "oracle.fold", "oracle.brute", "oracle.bayes",
)

# (name, unit, better) of every per-layer metric the traced run reports;
# the last three are filled in by run.py, not by the Tracer.
LAYER_METRICS = (
    ("cli.self_s", "s", "lower"), ("cli.calls", "count", "lower"),
    ("channels.build_s", "s", "lower"), ("channels.builds", "count", "lower"),
    ("entropy.scalar_calls", "count", "lower"), ("entropy.scalar_s", "s", "lower"),
    ("entropy.rows_calls", "count", "lower"), ("entropy.rows_count", "count", "lower"),
    ("entropy.rows_s", "s", "lower"),
    ("variational.compute_c_calls", "count", "lower"),
    ("variational.compute_c_self_s", "s", "lower"),
    ("variational.nm_starts", "count", "lower"),
    ("variational.nm_iters", "count", "lower"),
    ("variational.nm_nfev", "count", "lower"),
    ("variational.nm_self_s", "s", "lower"),
    ("variational.nm_starts_failed", "count", "lower"),
    ("variational.useful_start_ratio", "ratio", "higher"),
    ("variational.refine_nfev", "count", "lower"),
    ("variational.refine_s", "s", "lower"),
    ("variational.grid_points", "count", "lower"),
    ("variational.eigh_calls", "count", "lower"), ("variational.eigh_s", "s", "lower"),
    ("bounds.self_s", "s", "lower"), ("bounds.reports", "count", "higher"),
    ("treesim.mc_calls", "count", "higher"), ("treesim.mc_self_s", "s", "lower"),
    ("treesim.samples", "count", "higher"), ("treesim.samples_per_s", "1/s", "higher"),
    ("oracle.suite_s", "s", "lower"), ("oracle.instances", "count", "higher"),
    ("oracle.check_s", "s", "lower"),
    ("oracle.fold_calls", "count", "lower"), ("oracle.fold_s", "s", "lower"),
    ("oracle.configs", "count", "lower"), ("oracle.brute_calls", "count", "lower"),
    ("oracle.brute_s", "s", "lower"), ("oracle.bayes_s", "s", "lower"),
    ("oracle.fold_unique_ratio", "ratio", "higher"),
    ("cli.uncaught", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

# A ratio whose denominator is zero (the layer did not run) reads 0.
USEFUL_START_TOL = 1e-9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.outer = defaultdict(int)    # calls not nested in the same span name
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.missing: list[str] = []
        self.broken: set[str] = set()    # spans whose counter hook failed
        self._stack: list[list] = []     # [span name, time of enclosed spans]
        self._nm_values: list[float] = []  # start results of the open compute_c
        self._folds: set = set()
        self._saved: list = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        hooks = {
            "entropy.rows": self._on_rows,
            "variational.compute_c": self._on_compute_c,
            "variational.nm": self._on_minimize,
            "variational.refine": self._on_refine,
            "treesim.mc": self._on_mc,
            "treesim.sample_tree": self._on_sample_tree,
            "oracle.suite": self._on_suite,
            "oracle.fold": self._on_fold,
        }
        for span, targets in TARGETS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(target)
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, span, hooks.get(span)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, span, on_exit):
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.calls[span] += 1
                self.incl[span] += dur
                self.self_time[span] += dur - frame[1]
                if parent != span:
                    self.outer[span] += 1
                if stack:
                    stack[-1][1] += dur
            if on_exit is not None:
                try:
                    on_exit(args, kwargs, out)
                except (AttributeError, KeyError, TypeError, IndexError):
                    self.broken.add(span)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ counters

    def _on_rows(self, args, kwargs, out):
        self.counts["rows"] += len(out)

    def _on_compute_c(self, args, kwargs, out):
        values, self._nm_values = self._nm_values, []
        if values:
            best = max(values)
            self.counts["useful_starts"] += sum(
                1 for v in values if v >= best - USEFUL_START_TOL)
        self.counts["grid_points"] += out.trace.grid_points

    def _on_minimize(self, args, kwargs, res):
        self.counts["nm_iters"] += int(res.nit)
        self.counts["nm_nfev"] += int(res.nfev)
        self.counts["nm_failed"] += 0 if res.success else 1
        self._nm_values.append(-float(res.fun))

    def _on_refine(self, args, kwargs, res):
        self.counts["refine_nfev"] += int(res.nfev)

    def _on_mc(self, args, kwargs, est):
        self.counts["samples"] += int(est.samples)

    def _on_sample_tree(self, args, kwargs, tree):
        self.counts["instances"] += 1

    def _on_suite(self, args, kwargs, report):
        self.counts["instances"] += int(report["count"])

    def _on_fold(self, args, kwargs, law):
        tree, channel = args[0], args[1]
        node = args[2] if len(args) > 2 else kwargs.get("node", 0)
        self._folds.add((tree.parent.tobytes(), channel.matrix.tobytes(), int(node)))
        self.counts["configs"] += int(law.free.size)

    # ------------------------------------------------------------ metrics

    def reported_self(self) -> float:
        """Self time so far of the spans that feed a reported time metric."""
        return sum(self.self_time[span] for span in REPORTED_SELF)

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced since construction.  Each
        entry lists the spans it reads; it is dropped if one of them lost a
        wrap target."""
        c, s, i, n = self.calls, self.self_time, self.incl, self.counts
        table = {
            "cli.self_s": (["cli.main"], s["cli.main"]),
            "cli.calls": (["cli.main"], c["cli.main"]),
            "channels.build_s": (["channels.build"], s["channels.build"]),
            "channels.builds": (["channels.build"], self.outer["channels.build"]),
            "entropy.scalar_calls": (["entropy.scalar"], c["entropy.scalar"]),
            "entropy.scalar_s": (["entropy.scalar"], s["entropy.scalar"]),
            "entropy.rows_calls": (["entropy.rows"], c["entropy.rows"]),
            "entropy.rows_count": (["entropy.rows"], n["rows"]),
            "entropy.rows_s": (["entropy.rows"], s["entropy.rows"]),
            "variational.compute_c_calls": (["variational.compute_c"],
                                            c["variational.compute_c"]),
            "variational.compute_c_self_s": (["variational.compute_c"],
                                             s["variational.compute_c"]),
            "variational.nm_starts": (["variational.nm"], c["variational.nm"]),
            "variational.nm_iters": (["variational.nm"], n["nm_iters"]),
            "variational.nm_nfev": (["variational.nm"], n["nm_nfev"]),
            "variational.nm_self_s": (["variational.nm"], s["variational.nm"]),
            "variational.nm_starts_failed": (["variational.nm"], n["nm_failed"]),
            "variational.useful_start_ratio": (
                ["variational.nm", "variational.compute_c"],
                _ratio(n["useful_starts"], c["variational.nm"])),
            "variational.refine_nfev": (["variational.refine"], n["refine_nfev"]),
            "variational.refine_s": (["variational.refine"], s["variational.refine"]),
            "variational.grid_points": (["variational.compute_c"], n["grid_points"]),
            "variational.eigh_calls": (["variational.eigh"], c["variational.eigh"]),
            "variational.eigh_s": (["variational.eigh"], i["variational.eigh"]),
            "bounds.self_s": (["bounds.report", "bounds.table1"],
                              s["bounds.report"] + s["bounds.table1"]),
            "bounds.reports": (["bounds.report"], c["bounds.report"]),
            "treesim.mc_calls": (["treesim.mc"], c["treesim.mc"]),
            "treesim.mc_self_s": (["treesim.mc"], s["treesim.mc"]),
            "treesim.samples": (["treesim.mc"], n["samples"]),
            "treesim.samples_per_s": (["treesim.mc"],
                                      _ratio(n["samples"], i["treesim.mc"])),
            "oracle.suite_s": (["oracle.suite"], i["oracle.suite"]),
            "oracle.instances": (["oracle.suite", "treesim.sample_tree"],
                                 n["instances"]),
            "oracle.check_s": (["oracle.check"], s["oracle.check"]),
            "oracle.fold_calls": (["oracle.fold"], c["oracle.fold"]),
            "oracle.fold_s": (["oracle.fold"], s["oracle.fold"]),
            "oracle.configs": (["oracle.fold"], n["configs"]),
            "oracle.brute_calls": (["oracle.brute"], c["oracle.brute"]),
            "oracle.brute_s": (["oracle.brute"], s["oracle.brute"]),
            "oracle.bayes_s": (["oracle.bayes"], s["oracle.bayes"]),
            "oracle.fold_unique_ratio": (["oracle.fold"],
                                         _ratio(len(self._folds), c["oracle.fold"])),
        }
        lost = self.broken | {span for span, targets in TARGETS.items()
                              for t in targets if t in self.missing}
        return {name: float(value) for name, (spans, value) in table.items()
                if not lost.intersection(spans)}
