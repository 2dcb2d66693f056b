"""The command lines of each workload, generated from the seed.

This module needs only numpy, so that ``setup_s`` times what a
``tree-recon`` call imports plus input generation, not the benchmark's
checks.  Each operation names its reference check in ``spec``;
``workloads.build`` turns that into a callable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Table 1 of the paper is tabulated over this delta2 grid, ascending.
DELTA2_GRID = (0.1, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

# An asymmetric three-state channel whose near-center limit is not the
# maximizer; its frozen c is in refs.json.
ASYM_MATRIX = [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]]

# Optimizer budgets for c-of-m on the optimize panel.  The command's
# defaults (64 starts) cost 1.4 s per random q=3 channel and 10 s per q=4
# channel on a 2.1 GHz Xeon vCPU; these keep one pass of the panel near 3 s.
RANDOM_Q3 = dict(count=8, starts=8, max_iters=4000)
RANDOM_Q4 = dict(count=2, starts=4, max_iters=1000)
POTTS_STARTS = {3: 16, 4: 8}
ASYM_STARTS = 16

# Simulation setups: (key, Potts (q, beta), tree, mode, depths, samples).
# Regular trees take the batched chunk path (more than one 4096-sample
# chunk), annealed Galton-Watson trees the per-sample loop, quenched ones
# the batched path on one drawn tree.  The quenched tree, and so its cost
# and memory, changes with the seed; its sweeps are kept shallow and small
# so that the fixed-size setups set the median operation and peak memory.
SIM_SETUPS = (
    ("ising_regular", (2, 0.7), "regular:d=2", "annealed", (2, 7), 5000),
    ("potts3_regular", (3, 0.8), "regular:d=2", "annealed", (2, 6), 5000),
    ("ising_gw_annealed", (2, 0.7), "gw:pmf=0.5,0.5", "annealed", (2, 6), 250),
    ("potts3_gw_annealed", (3, 0.8), "gw:pmf=0.5,0.5", "annealed", (2, 5), 200),
    ("ising_gw_quenched", (2, 0.7), "gw:pmf=0.5,0.5", "quenched", (2, 6), 1500),
    ("potts3_gw_quenched", (3, 0.8), "gw:pmf=0.5,0.5", "quenched", (2, 5), 1500),
)


@dataclass
class Op:
    """One command line with its expected exit code and output check.

    ``spec`` is (check name, parameters) of the reference check, or None;
    ``check(stdout)``, set by ``workloads.build``, returns None when the
    output is correct, otherwise a one-line reason.  ``known_defect`` names
    an exception type the command currently raises instead of exiting with
    ``expect_exit``; that outcome is reported but not counted as a failure.
    """

    name: str
    argv: list
    expect_exit: int = 0
    spec: tuple | None = None
    known_defect: str | None = None
    check: Callable[[str], str | None] | None = None


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def dirichlet_matrix(rng: np.random.Generator, q: int, mix: float = 0.5) -> list:
    """Random positive channel: Dirichlet(1) rows mixed with the uniform row."""
    rows = (1.0 - mix) * rng.dirichlet(np.ones(q), size=q) + mix / q
    return (rows / rows.sum(axis=1, keepdims=True)).tolist()


# ---------------------------------------------------------------- optimize


def _c_of_m(name, channel_argv, starts, max_iters, seed, **check):
    argv = ["c-of-m", *channel_argv, "--starts", str(starts),
            "--max-iters", str(max_iters), "--seed", str(seed)]
    return Op(name, argv, spec=("c", check))


def optimize_ops(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    ops = []
    k = 0
    for q, cfg in ((3, RANDOM_Q3), (4, RANDOM_Q4)):
        for _ in range(cfg["count"]):
            matrix = dirichlet_matrix(rng, q)
            ops.append(_c_of_m(
                f"c-of-m random q={q} #{k}",
                ["--channel", json.dumps({"matrix": matrix})],
                cfg["starts"], cfg["max_iters"], seed,
                matrix=matrix, cloud_seed=seed * 16 + k,
                frozen=("optimize_random", str(seed), k)))
            k += 1
    for q, starts in POTTS_STARTS.items():
        beta = round(float(rng.uniform(0.5, 1.0)), 4)
        ops.append(_c_of_m(
            f"c-of-m potts q={q} beta={beta}",
            ["--family", "potts", "--q", str(q), "--beta", str(beta)],
            starts, 4000, seed, potts=(q, beta)))
    ops.append(_c_of_m(
        "c-of-m asymmetric q=3",
        ["--channel", json.dumps({"matrix": ASYM_MATRIX})],
        ASYM_STARTS, 4000, 0,
        matrix=ASYM_MATRIX, frozen=("optimize_asym",), nc_is_max=False))
    return ops


# ---------------------------------------------------------------- bounds_q2


def bounds_q2_ops(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    ops = [Op("table1 delta1=0.3", ["table1", "--delta1", "0.3"],
              spec=("table1", dict(d1=0.3, pinned=True)))]
    for _ in range(2):
        d1 = round(float(rng.uniform(0.05, 0.45)), 3)
        ops.append(Op(f"table1 delta1={d1}", ["table1", "--delta1", str(d1)],
                      spec=("table1", dict(d1=d1, pinned=False))))
    for _ in range(3):
        d1 = round(float(rng.uniform(0.05, 0.95)), 3)
        d2 = round(float(rng.uniform(0.05, 0.95)), 3)
        if abs(d1 - d2) < 0.01:
            d2 = round(d2 + 0.02 if d2 < 0.5 else d2 - 0.02, 3)
        branching = round(float(rng.uniform(1.0, 20.0)), 2)
        ops.append(Op(
            f"bounds binary ({d1}, {d2}) family",
            ["bounds", "--family", "binary", "--delta1", str(d1),
             "--delta2", str(d2), "--branching", str(branching)],
            spec=("bounds_binary", dict(d1=d1, d2=d2))))
        matrix = [[1 - d1, d1], [1 - d2, d2]]
        ops.append(Op(
            f"bounds binary ({d1}, {d2}) json",
            ["bounds", "--channel", json.dumps({"matrix": matrix}),
             "--branching", str(branching)],
            spec=("bounds_binary", dict(d1=d1, d2=d2))))
    for _ in range(2):
        beta = round(float(rng.uniform(0.1, 2.0)), 4)
        ops.append(Op(
            f"bounds ising beta={beta}",
            ["bounds", "--family", "potts", "--q", "2", "--beta", str(beta),
             "--branching", "2"],
            spec=("bounds_ising", dict(beta=beta))))
    d = round(float(rng.uniform(0.1, 0.4)), 3)
    ops.append(Op("bounds non-stochastic json",
                  ["bounds", "--channel",
                   json.dumps({"matrix": [[0.7, 0.3 - d], [0.9, 0.1]]})],
                  expect_exit=2))
    ops.append(Op("bounds delta1 outside (0, 1)",
                  ["bounds", "--family", "binary", "--delta1", str(1.0 + d),
                   "--delta2", "0.1"],
                  expect_exit=2))
    ops.append(Op("bounds potts q=2 beta=400",
                  ["bounds", "--family", "potts", "--q", "2", "--beta", "400"],
                  expect_exit=2, known_defect="OverflowError"))
    return ops


# ---------------------------------------------------------------- simulate


def simulate_ops(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for key, (q, beta), tree_text, mode, depths, samples in SIM_SETUPS:
        mc_seed = _child_seed(rng)
        argv = ["simulate", "--family", "potts", "--q", str(q), "--beta", str(beta),
                "--tree", tree_text, "--mode", mode,
                "--depth-sweep", f"{depths[0]}..{depths[1]}",
                "--samples", str(samples), "--seed", str(mc_seed)]
        ops.append(Op(f"simulate {key}", argv, spec=("simulate", dict(
            key=key, family=(q, beta), tree_text=tree_text, mode=mode,
            mc_seed=mc_seed))))
    return ops


# ---------------------------------------------------------------- verify


def _verify(name, channel_argv, tree, depth, suite, seed):
    return Op(name, ["verify", *channel_argv, "--tree", tree, "--depth", str(depth),
                     "--suite", suite, "--seed", str(seed)],
              spec=("verify", {}))


def verify_ops(seed: int) -> list:
    rng = np.random.default_rng([seed, 4])
    ops = []
    # The suites' random trees make their cost vary with the seed, so they
    # are kept short next to the fixed-size instances below.
    for _ in range(3):
        s = _child_seed(rng)
        ops.append(Op(f"verify suite seed={s}",
                      ["verify", "--count", "10", "--seed", str(s)],
                      spec=("verify", {})))
    # Instances on the largest regular trees the budgets allow: the fold
    # takes q^leaves <= 1e6 configurations (16 leaves here at q=2, 9 at
    # q=3) and brute force q^nodes <= 4e6 joint assignments (13 nodes at
    # q=3, used by propagation).  lyapunov runs compute_c, so it only runs
    # (within "all") on a q=2 channel, where c comes from the cheap grid
    # and the enumeration dominates.  Of the 13 operations, the median one
    # falls among the seven cheap fixed-size fold checks, whose top three
    # (lemma1) cost the same, so a cheap suite cannot move it far.
    beta = round(float(rng.uniform(0.3, 1.0)), 4)
    ising = ["--family", "potts", "--q", "2", "--beta", str(beta)]
    d1 = round(float(rng.uniform(0.05, 0.45)), 3)
    d2 = round(float(rng.uniform(0.05, 0.45)), 3)
    binary = ["--family", "binary", "--delta1", str(d1), "--delta2", str(d2)]
    random_q2 = ["--channel", json.dumps({"matrix": dirichlet_matrix(rng, 2)})]
    for label, channel, tree, depth in (
            (f"ising beta={beta}", ising, "regular:d=4", 2),
            (f"binary ({d1}, {d2})", binary, "regular:d=2", 4),
            ("random q=2", random_q2, "regular:d=4", 2)):
        for suite in ("recursion", "lemma1"):
            ops.append(_verify(f"verify {label} {tree} depth {depth} {suite}",
                               channel, tree, depth, suite, 0))
    ops.append(_verify("verify random q=2 regular:d=2 depth 3 all", random_q2,
                       "regular:d=2", 3, "all", 0))
    for suites in (("recursion", "propagation"), ("propagation",)):
        beta = round(float(rng.uniform(0.3, 1.0)), 4)
        potts3 = ["--family", "potts", "--q", "3", "--beta", str(beta)]
        for suite in suites:
            ops.append(_verify(f"verify potts q=3 beta={beta} regular:d=3 depth 2 {suite}",
                               potts3, "regular:d=3", 2, suite, 0))
    return ops


# ---------------------------------------------------------------- registry

# For each workload: the operation generator and the index of the operation
# re-run with --threads 2 to check that stdout does not depend on threads.
WORKLOADS = {
    "optimize": (optimize_ops, 0),
    "bounds_q2": (bounds_q2_ops, 0),
    "simulate": (simulate_ops, 0),
    "verify": (verify_ops, 9),
}


def build(name: str, seed: int) -> list:
    """The operations of one workload, generated from the seed."""
    make, _ = WORKLOADS[name]
    return make(int(seed))
