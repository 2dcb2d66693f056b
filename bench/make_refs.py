"""Regenerate bench/refs.json, the frozen references of the benchmark.

    python3 bench/make_refs.py

Frozen values, each computed once at the commit that set up the benchmark:

- optimize_asym: c of the fixed asymmetric channel, as c-of-m prints it
  with the workload's budget.
- optimize_random: for workload seeds 0..FROZEN_SEEDS-1, c of each random
  channel of the optimize panel, as c-of-m prints it with the workload's
  budget.  Seeds outside this range skip the frozen comparison and keep the
  other checks.
- simulate: for each regular and annealed setup and each depth beyond the
  exact-enumeration range, a high-sample Monte Carlo mean and its standard
  error, from a seed the workloads never use.

c is found by a search from below, so the frozen values of c are lower
bounds: the checks require c >= frozen - 1e-6, and a better search passes.

Regenerating changes what "correct" means: do it only when a change to the
workloads, not to the program, requires it.
"""

import contextlib
import io
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import commands  # noqa: E402
import treerecon.cli  # noqa: E402
import workloads  # noqa: E402
from treerecon import mc_root_entropy, potts_channel  # noqa: E402

FROZEN_SEEDS = 64
REF_SEED = 987_654_321
REF_SAMPLES = {"regular": 100_000, "annealed": 8_000}


def printed_c(op) -> float:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = treerecon.cli.main([*op.argv, "--threads", "1", "--format", "json"])
    if code != 0:
        raise SystemExit(f"{op.name} exited {code}")
    return json.loads(out.getvalue())["value"]


def main():
    refs = {}
    ops = commands.optimize_ops(0)
    refs["optimize_asym"] = printed_c(ops[-1])
    randoms = {}
    for seed in range(FROZEN_SEEDS):
        ops = commands.optimize_ops(seed)
        randoms[str(seed)] = [printed_c(op) for op in ops
                              if op.name.startswith("c-of-m random")]
        print(f"optimize seed {seed}: {randoms[str(seed)]}", file=sys.stderr)
    refs["optimize_random"] = randoms
    sim = {}
    for key, family, tree_text, mode, (lo, hi), _ in commands.SIM_SETUPS:
        if mode == "quenched":
            continue
        channel = potts_channel(*family)
        kind = "regular" if tree_text.startswith("regular") else "annealed"
        sim[key] = {}
        for depth in range(max(lo, workloads.EXACT_MAX_DEPTH + 1), hi + 1):
            est = mc_root_entropy(workloads.parse_tree(tree_text, depth), channel,
                                  REF_SAMPLES[kind], REF_SEED, mode=mode)
            sim[key][str(depth)] = [est.mean, est.stderr]
            print(f"simulate {key} depth {depth}: {est.mean} +- {est.stderr}",
                  file=sys.stderr)
    refs["simulate"] = sim
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
