"""Command-line front end: channel constants, bound tables, identity
verification suites, and broadcast simulations.

Every command builds one report dict, which is exactly the JSON it prints.
A per-command View describes how that report prints as CSV and as a table,
so live output and re-rendered --from-file output share one renderer per
format.

Exit codes: 0 success, 1 tolerance breach in verify, 2 input validation,
3 numerical non-convergence, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

from .bounds import DELTA2_GRID, BoundReport, bound_report, table1
from .channels import (Channel, binary_channel, channel_from_json,
                       channel_to_json, potts_channel)
from .errors import ChannelError, NoConvergence
from .oracle import (TOLERANCES, bayes_vs_recursion, check_lemma1,
                     check_lyapunov_bound, check_main_recursion,
                     check_propagation, run_suite)
from .treesim import TreeSpec, depth_sweep, sample_tree
from .variational import OptimizerConfig, compute_c

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_USAGE = 64

LYAPUNOV_MARGIN_TOL = 1e-9

BOUND_NAMES = ("fk", "ks", "martin", "mp")
SUITE_KEYS = ("max_recursion_diff", "max_lemma1_diff", "max_propagation_diff",
              "max_bayes_diff", "max_enumeration_diff", "witness_instances")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this front end reserves 2 for
    input validation and uses 64 for usage errors instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------- reports


@dataclass(frozen=True)
class View:
    """How one command's report prints as CSV and as a table.

    rows(report) lists its records as flat dicts (a report read back from
    CSV holds them under "rows").  CSV prints `columns`, each (key, format
    spec, parser for --from-file), per record.  The table prints head(report),
    column names if `header`, then the str.format template `line` per record
    with cells formatted by `specs` or else the column spec.  A JSON report
    given to --from-file must match `schema`.
    """

    rows: Callable[[dict], list]
    line: str
    columns: tuple = ()
    specs: dict = field(default_factory=dict)
    header: bool = False
    head: Callable[[dict], list] = lambda report: []
    schema: dict | None = None


def _cell(value, spec: str = "") -> str:
    """One value as text: None is blank, a boolean true/false (yes/no under
    the spec "yn"), a list its formatted items joined by ", "."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return ("no", "yes")[value] if spec == "yn" else str(value).lower()
    if isinstance(value, list):
        return ", ".join(_cell(v, spec) for v in value)
    return format(value, spec)


def render(report: dict, view: View, fmt: str) -> str:
    """The report as json, csv or table text, without a final newline."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    from_csv = "rows" in report  # a report read back from CSV has only rows
    rows = report["rows"] if from_csv else view.rows(report)
    if fmt == "csv":
        lines = [",".join(key for key, _, _ in view.columns)]
        lines += [",".join(_cell(row[key], spec) for key, spec, _ in view.columns)
                  for row in rows]
        return "\n".join(lines)
    specs = {key: spec for key, spec, _ in view.columns} | view.specs
    lines = [] if from_csv else view.head(report)
    if view.header:
        lines.append(view.line.format_map({key: key for key, _, _ in view.columns}))
    lines += [view.line.format_map({k: _cell(v, specs.get(k, ""))
                                    for k, v in row.items()})
              for row in rows]
    return "\n".join(lines)


def _check(obj, schema, where: str) -> None:
    """Raise ValueError unless obj matches schema: a dict lists required
    keys, a one-item list describes every element, a string is a literal,
    anything else is a type (or tuple of types) for isinstance."""
    if isinstance(schema, dict):
        if not isinstance(obj, dict):
            raise ValueError(f"{where} must be an object")
        for key, sub in schema.items():
            if key not in obj:
                raise ValueError(f"{where} lacks {key!r}")
            _check(obj[key], sub, f"{where}.{key}")
    elif isinstance(schema, list):
        if not isinstance(obj, list):
            raise ValueError(f"{where} must be a list")
        for i, item in enumerate(obj):
            _check(item, schema[0], f"{where}[{i}]")
    elif isinstance(schema, str):
        if obj != schema:
            raise ValueError(f"{where} is {obj!r}, expected {schema!r}")
    elif not isinstance(obj, schema):
        raise ValueError(f"{where} has type {type(obj).__name__}")


def _load(path: str, command: str, view: View) -> dict:
    """A report that the same command printed earlier, read back from JSON
    or, as {"command", "rows"}, from CSV."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        report = json.loads(text)
        _check(report, view.schema, f"{path}: report")
        return report
    keys = [key for key, _, _ in view.columns]
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != keys:
        raise ValueError(f"{path}: expected a JSON report or the CSV header "
                         f"{','.join(keys)!r}")
    rows = []
    for row in reader:
        if None in row or None in row.values():
            raise ValueError(f"{path}: CSV line {reader.line_num} needs "
                             f"{len(keys)} fields")
        rows.append({key: None if row[key] == "" else parse(row[key])
                     for key, _, parse in view.columns})
    return {"command": command, "rows": rows}


NUM = (int, float)
OPT = (int, float, type(None))
CONSTANTS = dict.fromkeys(BOUND_NAMES, OPT)


def _bound_record(r: BoundReport) -> dict:
    return {"channel": r.channel_desc, "branching": r.branching,
            "delta1": r.delta1, "delta2": r.delta2, "verdicts": r.verdicts,
            "constants": {name: getattr(r, name) for name in BOUND_NAMES}}


def _verify_rows(report: dict) -> list:
    checks = (report["checks"] if "checks" in report
              else {key: report[key] for key in SUITE_KEYS})
    return [{"key": key, "value": value}
            for key, value in [*checks.items(), ("ok", report["ok"])]]


C_OF_M = View(
    rows=lambda report: [report],
    columns=(("value", ".6f", None), ("near_center_limit", ".6f", None),
             ("near_center_is_max", "", None)),  # no --from-file
    specs={"argmax": ".6f", "near_center_is_max": "yn"},
    line="c = {value}\nargmax = [{argmax}]\n"
         "near-center limit = {near_center_limit} "
         "(is maximizer: {near_center_is_max})\n"
         "method = {method}; starts = {starts}; seed = {seed}",
)

BOUNDS = View(
    rows=lambda report: [
        {"bound": name, "constant": rep["constants"][name],
         "verdict": rep["verdicts"].get(name, "")}
        for rep in report["reports"]
        for name in BOUND_NAMES if rep["constants"][name] is not None
    ],
    columns=(("bound", "", str), ("constant", ".4f", float),
             ("verdict", "", str)),
    line="  {bound:<8} {constant}  {verdict}",
    head=lambda report: [
        f"channel: {rep['channel']}" + ("" if rep["branching"] is None else
                                        f"   branching: {rep['branching']:g}")
        for rep in report["reports"][:1]],
    schema={"command": "bounds",
            "reports": [{"channel": str, "branching": OPT,
                         "constants": CONSTANTS, "verdicts": dict}]},
)

TABLE1 = View(
    rows=lambda report: [{"delta2": rep["delta2"], **rep["constants"]}
                         for rep in report["reports"]],
    columns=tuple((key, ".4f", float)
                  for key in ("delta2", "ks", "fk", "martin", "mp")),
    line="{delta2:>8}  {ks:>8}  {fk:>8}  {martin:>8}  {mp:>8}",
    header=True,
    schema={"command": "table1",
            "reports": [{"delta2": OPT, "constants": CONSTANTS}]},
)

VERIFY = View(
    rows=_verify_rows,
    line="{key} = {value}",
    head=lambda report: [] if "checks" in report else [
        f"instances = {report['count']}  seed = {report['seed']}"],
)

SIMULATE = View(
    rows=lambda report: report["results"],
    columns=(("depth", "", int), ("mean_L", "", float), ("stderr", "", float),
             ("samples", "", int)),
    specs={"mean_L": ".6g", "stderr": ".6g"},
    line="{depth:>5}  {mean_L:>12}  {stderr:>12}  {samples:>8}",
    header=True,
    schema={"command": "simulate",
            "results": [{"depth": int, "mean_L": NUM, "stderr": NUM,
                         "samples": int}]},
)


# ---------------------------------------------------------------- arguments


def _add_channel_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("channel")
    g.add_argument("--channel", metavar="JSON_OR_PATH",
                   help="channel as inline JSON or a path to a JSON file")
    g.add_argument("--family", choices=("potts", "binary"),
                   help="built-in channel family")
    g.add_argument("--q", type=int, help="number of states (potts)")
    g.add_argument("--beta", type=float, help="inverse temperature (potts)")
    g.add_argument("--delta1", type=float, help="row-1 flip probability (binary)")
    g.add_argument("--delta2", type=float, help="row-2 stay probability (binary)")


def _add_optimizer_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("optimizer")
    g.add_argument("--starts", type=int, default=64)
    g.add_argument("--max-iters", type=int, default=4000)
    g.add_argument("--tol", type=float, default=1e-10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--grid-points", type=int, default=200_000)


def _add_common_args(p: argparse.ArgumentParser, func, view: View, *,
                     default_format: str) -> None:
    formats = ("json", "csv", "table") if view.columns else ("json", "table")
    p.add_argument("--format", choices=formats, default=default_format)
    p.add_argument("--threads", type=int, default=None,
                   help="Monte Carlo worker threads of simulate; 0 = one per "
                        "CPU (default: TREE_RECON_THREADS or 1); other "
                        "commands validate it and run serially")
    if view.schema is not None:
        p.add_argument("--from-file", metavar="PATH",
                       help="re-render a report this command printed")
    p.set_defaults(func=func, view=view)


def _resolve_channel(args) -> Channel:
    if args.channel is not None and args.family is not None:
        raise ChannelError("give either --channel or --family, not both")
    if args.channel is not None:
        text = args.channel.strip()
        if not text.startswith("{"):
            with open(args.channel, "r", encoding="utf-8") as handle:
                text = handle.read()
        return channel_from_json(json.loads(text))
    if args.family == "potts":
        if args.q is None or args.beta is None:
            raise ChannelError("--family potts needs --q and --beta")
        return potts_channel(args.q, args.beta)
    if args.family == "binary":
        if args.delta1 is None or args.delta2 is None:
            raise ChannelError("--family binary needs --delta1 and --delta2")
        return binary_channel(args.delta1, args.delta2)
    raise ChannelError("no channel given: use --channel or --family")


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(starts=args.starts, max_iters=args.max_iters,
                           tol=args.tol, seed=args.seed,
                           grid_points=args.grid_points)


def _threads(args) -> int | None:
    value = args.threads
    if value is None:
        env = os.environ.get("TREE_RECON_THREADS")
        if env is None or env.strip() == "":
            return 1
        value = int(env)
    if value < 0:
        raise ValueError(f"--threads must be >= 0, got {value}")
    return None if value == 0 else value


def _parse_tree(text: str, depth: int) -> TreeSpec:
    kind, _, params = text.partition(":")
    if kind == "regular":
        key, _, value = params.partition("=")
        if key != "d" or not value:
            raise ChannelError(f"regular tree syntax is regular:d=<int>, got {text!r}")
        return TreeSpec.regular(int(value), depth)
    if kind == "gw":
        key, _, value = params.partition("=")
        if key != "pmf" or not value:
            raise ChannelError(f"offspring tree syntax is gw:pmf=p1,p2,..., got {text!r}")
        pmf = tuple(float(x) for x in value.split(","))
        return TreeSpec.galton_watson(pmf, depth)
    raise ChannelError(f"unknown tree kind {kind!r} (use regular:d=... or gw:pmf=...)")


def _parse_sweep(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ChannelError(f"depth sweep syntax is a..b, got {text!r}")
    a, b = int(lo), int(hi)
    if a < 1 or b < a:
        raise ChannelError(f"need 1 <= a <= b in depth sweep, got {text!r}")
    return list(range(a, b + 1))


# ---------------------------------------------------------------- commands
# Each handler computes its command's report; main() renders it.


def _cmd_c_of_m(args) -> dict:
    channel = _resolve_channel(args)
    result = compute_c(channel, _optimizer_config(args))
    trace = result.trace
    return {
        "command": "c-of-m",
        "channel": channel_to_json(channel),
        "value": round(result.value, 6),
        "argmax": [float(x) for x in result.argmax],
        "near_center_limit": round(trace.near_center_value, 6),
        "near_center_is_max": bool(trace.near_center_is_max),
        "method": trace.method,
        "starts": int(trace.starts),
        "seed": int(trace.seed),
    }


def _cmd_bounds(args) -> dict:
    channel = _resolve_channel(args)
    report = bound_report(channel, args.branching, config=_optimizer_config(args))
    return {"command": "bounds", "seed": int(args.seed),
            "reports": [_bound_record(report)]}


def _cmd_table1(args) -> dict:
    delta2_list = DELTA2_GRID
    if args.delta2_list:
        delta2_list = tuple(float(x) for x in args.delta2_list.split(","))
    reports = table1(args.delta1, delta2_list, args.branching,
                     config=_optimizer_config(args))
    return {"command": "table1", "delta1": float(args.delta1),
            "seed": int(args.seed),
            "reports": [_bound_record(r) for r in reports]}


def _cmd_verify(args) -> dict:
    if args.channel is None and args.family is None:
        if args.suite != "all":
            raise ValueError(f"--suite {args.suite} checks one instance: give "
                             "a channel, --tree and --depth")
        report = run_suite(seed=args.seed, count=args.count)
        report.update(command="verify", suite=args.suite)
        if not args.verbose:
            report.pop("instances")
        return report
    channel = _resolve_channel(args)
    if args.tree is None or args.depth is None:
        raise ChannelError("instance verification needs --tree and --depth")
    spec = _parse_tree(args.tree, args.depth)
    tree = sample_tree(spec, args.seed)
    want = args.suite
    checks: dict = {}
    if want in ("lemma1", "all"):
        checks["lemma1_diff"] = check_lemma1(tree, channel, 0)
    if want in ("recursion", "all"):
        rec = check_main_recursion(tree, channel, 0)
        checks["recursion_diff"] = rec.abs_diff
        checks["pointwise_violations"] = rec.pointwise_violations
        checks["max_pointwise_gap"] = rec.max_pointwise_gap
    if want in ("propagation", "all"):
        checks["propagation_diff"] = check_propagation(tree, channel, 0)
    if want in ("lyapunov", "all"):
        checks["lyapunov_margin"] = check_lyapunov_bound(
            tree, channel, 0, config=_optimizer_config(args))
    if want == "all":
        checks["bayes_diff"] = bayes_vs_recursion(tree, channel)
    ok = (all(checks[f"{check}_diff"] <= tol for check, tol in TOLERANCES.items()
              if f"{check}_diff" in checks)
          and checks.get("lyapunov_margin", 0.0) >= -LYAPUNOV_MARGIN_TOL)
    return {
        "command": "verify",
        "suite": want,
        "channel": channel_to_json(channel),
        "tree": args.tree,
        "depth": int(args.depth),
        "seed": int(args.seed),
        "checks": checks,
        "ok": bool(ok),
    }


def _cmd_simulate(args) -> dict:
    channel = _resolve_channel(args)
    if args.tree is None:
        raise ChannelError("simulate needs --tree")
    if args.depth_sweep:
        depths = _parse_sweep(args.depth_sweep)
    elif args.depth is not None:
        depths = [args.depth]
    else:
        raise ChannelError("simulate needs --depth or --depth-sweep")
    spec = _parse_tree(args.tree, depths[0])
    estimates = depth_sweep(spec, channel, depths, args.samples, args.seed,
                            mode=args.mode, threads=args.threads,
                            max_nodes=args.max_nodes)
    return {
        "command": "simulate",
        "channel": channel_to_json(channel),
        "tree": args.tree,
        "mode": args.mode,
        "samples": int(args.samples),
        "seed": int(args.seed),
        "results": [
            {"depth": e.depth, "mean_L": e.mean, "stderr": e.stderr,
             "samples": e.samples}
            for e in estimates
        ],
    }


# ---------------------------------------------------------------- wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="tree-recon",
                     description="Non-reconstruction constants and broadcast "
                                 "simulations for Markov channels on trees.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    # constants and tables print as a table on a terminal, CSV when piped
    shown = "table" if sys.stdout.isatty() else "csv"

    p = sub.add_parser("c-of-m", help="variational constant c(M) of a channel")
    _add_channel_args(p)
    _add_optimizer_args(p)
    _add_common_args(p, _cmd_c_of_m, C_OF_M, default_format=shown)

    p = sub.add_parser("bounds", help="bound constants and verdicts at a "
                                      "branching number")
    _add_channel_args(p)
    _add_optimizer_args(p)
    _add_common_args(p, _cmd_bounds, BOUNDS, default_format=shown)
    p.add_argument("--branching", type=float, default=None,
                   help="branching number d for verdicts")

    p = sub.add_parser("table1", help="bound table for two-state channels "
                                      "over a delta2 grid")
    _add_optimizer_args(p)
    _add_common_args(p, _cmd_table1, TABLE1, default_format=shown)
    p.add_argument("--delta1", type=float, default=0.3)
    p.add_argument("--delta2-list", metavar="P1,P2,...",
                   help="comma-separated delta2 values (default: standard grid)")
    p.add_argument("--branching", type=float, default=None)

    p = sub.add_parser("verify", help="exact identity checks on small trees")
    _add_channel_args(p)
    _add_optimizer_args(p)
    _add_common_args(p, _cmd_verify, VERIFY, default_format="json")
    p.add_argument("--suite",
                   choices=("lemma1", "recursion", "propagation", "lyapunov",
                            "all"),
                   default="all")
    p.add_argument("--tree", help="instance tree, e.g. regular:d=2")
    p.add_argument("--depth", type=int)
    p.add_argument("--count", type=int, default=50,
                   help="instances in the randomized suite")
    p.add_argument("--verbose", action="store_true",
                   help="include per-instance rows in the suite report")

    p = sub.add_parser("simulate", help="Monte Carlo root-entropy decay")
    _add_channel_args(p)
    _add_common_args(p, _cmd_simulate, SIMULATE, default_format="json")
    p.add_argument("--tree", help="regular:d=<int> or gw:pmf=p1,p2,...")
    p.add_argument("--depth", type=int)
    p.add_argument("--depth-sweep", metavar="A..B")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("annealed", "quenched"),
                   default="annealed")
    p.add_argument("--max-nodes", type=int, default=1_000_000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        args.threads = _threads(args)
        path = getattr(args, "from_file", None)
        report = _load(path, args.command, args.view) if path else args.func(args)
        print(render(report, args.view, args.format))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NoConvergence, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if report.get("ok", True) else EXIT_TOLERANCE


def entry() -> None:
    sys.exit(main())
