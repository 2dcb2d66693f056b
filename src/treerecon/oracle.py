"""Exact small-tree enumeration oracles for the entropy recursion.

For a node v with L leaves below it, the boundary law stores, for each spin
j, the probability of every leaf configuration given spin j at v (a
``(q, q**L)`` array), the unconditioned law, and the Bayes posterior of v's
spin per configuration.  Configurations are numpy's C order over the leaves
in node order, the first leaf's spin varying slowest.

Two independent algorithms produce the laws: a bottom-up fold that sums out
interior spins one node at a time, and a sum over every joint spin
assignment of the subtree.  The latter holds the joint law as one array with
an axis per node, breadth first: the stationary law on the root's axis times,
for each further node, the channel with rows on the parent's axis and columns
on the node's.  Summing the interior axes leaves (root, leaf configuration).
enumeration_cross_check compares them; the identity checks consume the fold.
Reductions over configurations use compensated summation so the identity
checks resolve 1e-10 gaps reliably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.special import rel_entr

from .channels import Channel, binary_channel, make_channel
from .entropy import symmetrized_entropy_rows
from .errors import EnumerationTooLarge, NumericalUnderflow, TreeError
from .treesim import SampledTree, _one_hot, _upward, tree_from_level_counts
from .variational import OptimizerConfig, compute_c

DEFAULT_BUDGET = 10 ** 6
JOINT_BUDGET = 4_000_000
POINTWISE_TOL = 1e-9

# check -> largest difference that passes, for the suite's worst gap
# ("max_<check>_diff") and for one instance ("<check>_diff")
TOLERANCES = {"recursion": 1e-10, "lemma1": 1e-10, "propagation": 1e-12,
              "bayes": 1e-12}
WITNESS_GAP = 1e-3


@dataclass(frozen=True)
class BoundaryLaw:
    node: int
    leaves: np.ndarray
    cond: np.ndarray       # (q, K): row j is the boundary law given spin j at node
    free: np.ndarray       # (K,): unconditioned boundary law
    posterior: np.ndarray  # (K, q): posterior of the node's spin per configuration


@dataclass(frozen=True)
class RecursionCheck:
    lhs: float
    rhs: float
    abs_diff: float
    pointwise_violations: int
    max_pointwise_gap: float
    pointwise_tol: float = POINTWISE_TOL


def _subtree_nodes(tree: SampledTree, v: int) -> np.ndarray:
    # Breadth first, the subtree holds one contiguous range per level, and the
    # children of the range [lo, hi) are [child_ptr[lo], child_ptr[hi]).
    lo, hi = int(v), int(v) + 1
    levels = []
    while lo < hi:
        levels.append(np.arange(lo, hi, dtype=np.int64))
        lo, hi = int(tree.child_ptr[lo]), int(tree.child_ptr[hi])
    return np.concatenate(levels)


def _subtree_leaves(tree: SampledTree, v: int) -> np.ndarray:
    nodes = _subtree_nodes(tree, v)
    return nodes[np.asarray(tree.node_depth)[nodes] == tree.depth]


def _config_count(q: int, n_leaves: int, budget: int) -> int:
    count = q ** n_leaves
    if count > budget:
        raise EnumerationTooLarge(
            f"{q}^{n_leaves} = {count} boundary configurations exceed the "
            f"budget of {budget}")
    return count


def _product_step(matrix: np.ndarray, child_conds) -> np.ndarray:
    # The law at a node given its spin is the product over its children of
    # the channel applied to each child's law, configurations in mixed radix.
    q = matrix.shape[0]
    acc = np.ones((q, 1))
    for cond in child_conds:
        t = matrix @ cond
        acc = (acc[:, :, None] * t[:, None, :]).reshape(q, -1)
    return acc


def _fold_law(tree: SampledTree, channel: Channel, v: int,
              budget: int) -> dict[int, np.ndarray]:
    """Conditioned boundary law of every node below v (v included), in one
    bottom-up pass."""
    _config_count(channel.q, int(_subtree_leaves(tree, v).size), budget)
    laws: dict[int, np.ndarray] = {}
    for u in reversed(_subtree_nodes(tree, v).tolist()):  # children before parents
        kids = tree.children(u)
        laws[u] = (_product_step(channel.matrix, [laws[int(w)] for w in kids])
                   if len(kids) else np.eye(channel.q))
    return laws


def _law_from_cond(tree: SampledTree, node: int, cond: np.ndarray,
                   alpha: np.ndarray) -> BoundaryLaw:
    # Above the leaves a positive channel gives every configuration positive
    # probability under every spin, so an exact zero there is underflow.  Its
    # posterior would be 0/0, or hold a 0 whose entropy is infinite, so no
    # identity could be resolved.  (A leaf's own law is the identity.)
    if tree.node_depth[node] < tree.depth and cond.min() <= 0.0:
        lost = int(np.count_nonzero(np.any(cond <= 0.0, axis=0)))
        raise NumericalUnderflow(
            f"{lost} of {cond.shape[1]} boundary configurations below node {node} "
            "underflowed to probability 0 under some spin; the exact checks "
            "need every one in double precision")
    free = alpha @ cond
    posterior = np.ascontiguousarray((alpha[:, None] * cond / free[None, :]).T)
    return BoundaryLaw(int(node), _subtree_leaves(tree, node), cond, free, posterior)


def enumerate_boundary_laws(tree: SampledTree, channel: Channel, node: int = 0,
                            budget: int = DEFAULT_BUDGET) -> BoundaryLaw:
    """Exact boundary law of the subtree below ``node``, by summing out
    interior spins bottom-up."""
    cond = _fold_law(tree, channel, node, budget)[int(node)]
    return _law_from_cond(tree, node, cond, channel.stationary)


def _laws_with_children(tree: SampledTree, channel: Channel, node: int,
                        budget: int) -> list[BoundaryLaw]:
    """Boundary laws of ``node`` and then of each of its children, from one fold."""
    kids = [int(w) for w in tree.children(int(node))]
    if not kids:
        raise TreeError(f"node {node} has no children")
    conds = _fold_law(tree, channel, node, budget)
    return [_law_from_cond(tree, u, conds[u], channel.stationary) for u in [int(node), *kids]]


def brute_force_boundary_laws(tree: SampledTree, channel: Channel, node: int = 0,
                              budget: int = DEFAULT_BUDGET,
                              joint_budget: int = JOINT_BUDGET) -> BoundaryLaw:
    """Same law as enumerate_boundary_laws, but computed by summing the joint
    probability of every full spin assignment of the subtree."""
    nodes = _subtree_nodes(tree, node)
    q = channel.q
    n_sub = int(nodes.size)
    joint = q ** n_sub
    if joint > joint_budget:
        raise EnumerationTooLarge(
            f"{q}^{n_sub} = {joint} joint assignments exceed the budget of "
            f"{joint_budget}")
    n_leaves = int(np.count_nonzero(tree.node_depth[nodes] == tree.depth))
    n_configs = _config_count(q, n_leaves, budget)

    # Axis t is the spin of nodes[t]; nodes are sorted, so the parent's axis is
    # found by search, and the leaves' axes come last.
    probs = channel.stationary
    for t, axis in enumerate(np.searchsorted(nodes, tree.parent[nodes[1:]]), start=1):
        shape = [1] * (t + 1)
        shape[axis] = shape[t] = q
        probs = probs[..., None] * channel.matrix.reshape(shape)
    mass = (probs.reshape(q, -1, n_configs).sum(axis=1) if n_sub > 1
            else np.diag(channel.stationary))
    cond = mass / channel.stationary[:, None]
    return _law_from_cond(tree, node, cond, channel.stationary)


def enumeration_cross_check(tree: SampledTree, channel: Channel, node: int = 0,
                            budget: int = DEFAULT_BUDGET,
                            joint_budget: int = JOINT_BUDGET) -> float:
    """Largest discrepancy between the two enumeration algorithms."""
    a = enumerate_boundary_laws(tree, channel, node, budget)
    b = brute_force_boundary_laws(tree, channel, node, budget, joint_budget)
    return float(max(
        np.max(np.abs(a.cond - b.cond)),
        np.max(np.abs(a.free - b.free)),
        np.max(np.abs(a.posterior - b.posterior)),
    ))


def check_propagation(tree: SampledTree, channel: Channel, node: int = 0,
                      budget: int = DEFAULT_BUDGET,
                      joint_budget: int = JOINT_BUDGET) -> float:
    """Gap in the one-step factorization of the boundary law: the law at a
    node must equal the product over children of the channel applied to each
    child's law.  Both sides come from independent joint enumerations."""
    kids = list(tree.children(int(node)))
    if not kids:
        raise TreeError(f"node {node} has no children")
    law_v = brute_force_boundary_laws(tree, channel, node, budget, joint_budget)
    acc = _product_step(channel.matrix, [
        brute_force_boundary_laws(tree, channel, w, budget, joint_budget).cond for w in kids])
    return float(np.max(np.abs(acc - law_v.cond)))


def _expected_root_entropy(law: BoundaryLaw, channel: Channel) -> float:
    rows = symmetrized_entropy_rows(law.posterior, channel.stationary)
    return math.fsum((law.free * rows).tolist())


def check_lemma1(tree: SampledTree, channel: Channel, node: int = 0,
                 budget: int = DEFAULT_BUDGET) -> float:
    """Gap in the pair identity: the expected symmetrized entropy of the
    node's posterior equals the stationary-weighted sum of relative entropies
    between its conditioned boundary laws."""
    law = enumerate_boundary_laws(tree, channel, node, budget)
    lhs = _expected_root_entropy(law, channel)
    alpha = channel.stationary
    terms = []
    for x1 in range(channel.q):
        for x2 in range(channel.q):
            div = math.fsum(rel_entr(law.cond[x2], law.cond[x1]).tolist())
            terms.append(float(alpha[x1]) * float(alpha[x2]) * div)
    rhs = math.fsum(terms)
    return abs(lhs - rhs)


def check_main_recursion(tree: SampledTree, channel: Channel, node: int = 0,
                         budget: int = DEFAULT_BUDGET,
                         pointwise_tol: float = POINTWISE_TOL) -> RecursionCheck:
    """The expected symmetrized entropy at a node equals the sum over its
    children of the expected entropy of the child posterior pushed through
    the reversed channel.  Also counts boundary configurations where the
    identity read pointwise (no expectation) fails."""
    alpha = channel.stationary
    law_v, *child_laws = _laws_with_children(tree, channel, node, budget)
    v_rows = symmetrized_entropy_rows(law_v.posterior, alpha)
    lhs = math.fsum((law_v.free * v_rows).tolist())

    child_rows = [symmetrized_entropy_rows(law.posterior @ channel.reversed, alpha)
                  for law in child_laws]
    rhs = math.fsum(math.fsum((law.free * rows).tolist())
                    for law, rows in zip(child_laws, child_rows))

    pointwise_sum = reduce(lambda acc, rows: np.add.outer(rows, acc),
                           reversed(child_rows)).ravel()
    gaps = np.abs(pointwise_sum - v_rows)
    return RecursionCheck(
        lhs=lhs,
        rhs=rhs,
        abs_diff=abs(lhs - rhs),
        pointwise_violations=int(np.sum(gaps > pointwise_tol)),
        max_pointwise_gap=float(gaps.max()),
        pointwise_tol=float(pointwise_tol),
    )


def check_lyapunov_bound(tree: SampledTree, channel: Channel, node: int = 0,
                         c_value: float | None = None,
                         config: OptimizerConfig | None = None,
                         budget: int = DEFAULT_BUDGET) -> float:
    """Margin of the contraction step: c * (sum of child expected entropies)
    minus the node's expected entropy.  Nonnegative up to roundoff."""
    law_v, *child_laws = _laws_with_children(tree, channel, node, budget)
    if c_value is None:
        c_value = compute_c(channel, config).value
    child_sum = math.fsum(_expected_root_entropy(law, channel) for law in child_laws)
    return float(c_value) * child_sum - _expected_root_entropy(law_v, channel)


def bayes_vs_recursion(tree: SampledTree, channel: Channel,
                       budget: int = 100_000) -> float:
    """Largest gap, over all boundary configurations, between the enumerated
    root posterior and the root belief from the upward recursion."""
    law = enumerate_boundary_laws(tree, channel, 0, budget)
    n_leaves = int(law.leaves.size)
    spins = np.indices((channel.q,) * n_leaves).reshape(n_leaves, -1).T
    roots = _upward(tree, channel, _one_hot(spins, channel.q))
    return float(np.max(np.abs(roots - law.posterior)))


@dataclass(frozen=True)
class SuiteInstance:
    index: int
    channel: Channel
    tree: SampledTree


def _random_small_tree(rng: np.random.Generator, depth: int,
                       max_leaves: int = 6, max_nodes: int = 11) -> SampledTree:
    for _ in range(200):
        counts = []
        width, total, feasible = 1, 1, True
        for _level in range(depth):
            c = rng.integers(1, 4, size=width).astype(np.int64)
            width = int(c.sum())
            total += width
            if total > max_nodes:
                feasible = False
                break
            counts.append(c)
        if feasible and width <= max_leaves:
            return tree_from_level_counts(counts)
    raise TreeError("failed to draw a tree within the size limits")


def random_suite(seed: int = 0, count: int = 50) -> list[SuiteInstance]:
    """Randomized (channel, tree) instances for the identity checks: positive
    channels with 2 or 3 states, trees of depth 1..3 with at most 6 leaves.

    Instance 0 is pinned to an asymmetric two-state channel on the depth-2
    binary tree, a case where the pointwise identity visibly fails.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = []
    for k in range(count):
        if k == 0:
            ch = binary_channel(0.3, 0.1)
            tr = tree_from_level_counts([[2], [2, 2]])
        else:
            rng = np.random.default_rng([int(seed), k])
            q = 2 + (k % 2)
            rows = rng.dirichlet(np.ones(q), size=q)
            rows = 0.75 * rows + 0.25 / q
            ch = make_channel(rows, label=f"suite[{k}]")
            tr = _random_small_tree(rng, depth=1 + k % 3)
        out.append(SuiteInstance(k, ch, tr))
    return out


def run_suite(seed: int = 0, count: int = 50) -> dict:
    """Run every identity check over the randomized suite and aggregate the
    worst gaps.  The report's "ok" flag requires all tolerances to hold and
    at least one pointwise-failure witness."""
    rows = []
    for inst in random_suite(seed, count):
        tr, ch = inst.tree, inst.channel
        rec = check_main_recursion(tr, ch, 0)
        recursion_diff = rec.abs_diff
        max_gap = rec.max_pointwise_gap
        lemma1_diff = check_lemma1(tr, ch, 0)
        for w in tr.children(0):
            if tr.node_depth[w] < tr.depth:
                rec_w = check_main_recursion(tr, ch, int(w))
                recursion_diff = max(recursion_diff, rec_w.abs_diff)
                max_gap = max(max_gap, rec_w.max_pointwise_gap)
                lemma1_diff = max(lemma1_diff, check_lemma1(tr, ch, int(w)))
        rows.append({
            "index": inst.index,
            "q": int(ch.q),
            "depth": int(tr.depth),
            "nodes": int(tr.n_nodes),
            "leaves": int(tr.n_leaves),
            "recursion_diff": float(recursion_diff),
            "lemma1_diff": float(lemma1_diff),
            "propagation_diff": float(check_propagation(tr, ch, 0)),
            "bayes_diff": float(bayes_vs_recursion(tr, ch)),
            "enumeration_diff": float(enumeration_cross_check(tr, ch, 0)),
            "pointwise_violations": int(rec.pointwise_violations),
            "max_pointwise_gap": float(max_gap),
        })
    report = {
        "seed": int(seed),
        "count": int(count),
        "max_recursion_diff": max(r["recursion_diff"] for r in rows),
        "max_lemma1_diff": max(r["lemma1_diff"] for r in rows),
        "max_propagation_diff": max(r["propagation_diff"] for r in rows),
        "max_bayes_diff": max(r["bayes_diff"] for r in rows),
        "max_enumeration_diff": max(r["enumeration_diff"] for r in rows),
        "witness_instances": sum(
            1 for r in rows if r["max_pointwise_gap"] > WITNESS_GAP),
        "tolerances": {**TOLERANCES, "witness_gap": WITNESS_GAP},
        "instances": rows,
    }
    report["ok"] = bool(
        all(report[f"max_{check}_diff"] <= tol for check, tol in TOLERANCES.items())
        and report["witness_instances"] >= 1
    )
    return report
