import json
import math
import tracemalloc

import numpy as np
import pytest

from treerecon import (
    EnumerationTooLarge,
    TreeError,
    TreeSpec,
    bayes_vs_recursion,
    brute_force_boundary_laws,
    check_lemma1,
    check_lyapunov_bound,
    check_main_recursion,
    check_propagation,
    enumerate_boundary_laws,
    enumeration_cross_check,
    make_channel,
    mc_root_entropy_fixed_tree,
    potts_channel,
    random_suite,
    run_suite,
    sample_tree,
    tree_from_level_counts,
)
from treerecon.oracle import (DEFAULT_BUDGET, TOLERANCES, _fold_law,
                              _random_small_tree, _subtree_nodes)
from treerecon.treesim import _sample_forest

WITNESS_TREE = [[2], [2, 2]]


@pytest.fixture(scope="module")
def witness_tree():
    return tree_from_level_counts(WITNESS_TREE)


@pytest.fixture(scope="module")
def potts_tree():
    return sample_tree(TreeSpec.regular(2, 2))


def test_single_edge_law_is_the_channel(binary_0301):
    law = enumerate_boundary_laws(sample_tree(TreeSpec.regular(1, 1)),
                                  binary_0301)
    np.testing.assert_array_equal(law.cond, binary_0301.matrix)
    np.testing.assert_allclose(law.free, binary_0301.stationary, atol=1e-15)
    np.testing.assert_allclose(law.posterior[0], [0.7, 0.3], atol=1e-15)
    np.testing.assert_allclose(law.posterior[1], [0.9, 0.1], atol=1e-15)
    assert list(law.leaves) == [1]
    assert math.fsum(law.free.tolist()) == pytest.approx(1.0, abs=1e-15)


def test_enumeration_algorithms_agree(binary_0301, witness_tree, potts_tree):
    assert enumeration_cross_check(witness_tree, binary_0301) <= 1e-12
    assert enumeration_cross_check(potts_tree, potts_channel(3, 0.8)) <= 1e-12
    # subtree law at an internal node
    assert enumeration_cross_check(witness_tree, binary_0301, node=1) <= 1e-12


def test_fold_keeps_every_node_law(binary_0301, witness_tree, potts_tree):
    # one bottom-up pass yields the law below every node (root, inner nodes
    # and leaves), each equal to the independent joint enumeration of that
    # node's subtree
    rows = 0.8 * np.random.default_rng(3).dirichlet(np.ones(3), size=3) + 0.2 / 3
    cases = [(witness_tree, binary_0301), (potts_tree, potts_channel(3, 0.8)),
             (witness_tree, make_channel(rows))]  # the last is not reversible
    rng = np.random.default_rng(11)
    for k in range(24):  # random channels, q = 2..4, on trees small enough for q = 4
        q = 2 + k % 3
        ch = make_channel(0.8 * rng.dirichlet(np.ones(q), size=q) + 0.2 / q)
        cases.append((_random_small_tree(rng, 1 + k % 3, max_nodes=9), ch))
    for tree, ch in cases:
        laws = _fold_law(tree, ch, 0, DEFAULT_BUDGET)
        assert sorted(laws) == list(range(tree.n_nodes))
        for u, cond in laws.items():
            brute = brute_force_boundary_laws(tree, ch, u).cond
            np.testing.assert_allclose(cond, brute, rtol=0, atol=1e-15)


def _children_walk(tree, v):
    out, frontier = [v], [v]
    while frontier:
        frontier = [w for u in frontier for w in tree.children(u)]
        out.extend(frontier)
    return out


def test_subtree_nodes_match_children_walk():
    gw = TreeSpec.galton_watson({1: 0.4, 2: 0.3, 3: 0.3}, 4)
    trees = [sample_tree(TreeSpec.regular(3, 3)),
             sample_tree(gw, rng=np.random.default_rng(2)),
             _sample_forest(gw, np.random.default_rng(5), 10_000, roots=4)]
    for tree in trees:
        for v in range(tree.n_nodes):
            assert _subtree_nodes(tree, v).tolist() == _children_walk(tree, v)


def test_budgets_raise_before_allocating(binary_0301):
    # 2^63 joint assignments could not be allocated at all; the star's 2^21
    # fit the joint budget, a 16 MB array, but its 2^20 leaf configurations
    # exceed budget=1000
    deep = sample_tree(TreeSpec.regular(2, 5))
    star = tree_from_level_counts([[20]])
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationTooLarge):
            brute_force_boundary_laws(deep, binary_0301)
        with pytest.raises(EnumerationTooLarge):
            brute_force_boundary_laws(star, binary_0301, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_brute_force_law_normalization(binary_0301, witness_tree):
    law = brute_force_boundary_laws(witness_tree, binary_0301)
    assert law.cond.shape == (2, 16)
    np.testing.assert_allclose(law.cond.sum(axis=1), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(law.posterior.sum(axis=1), 1.0, atol=1e-12)


def test_propagation_identity(binary_0301, witness_tree, potts_tree):
    assert check_propagation(witness_tree, binary_0301) <= 1e-12
    assert check_propagation(potts_tree, potts_channel(3, 0.8)) <= 1e-12
    with pytest.raises(TreeError):
        check_propagation(witness_tree, binary_0301, node=3)


def test_pair_identity(binary_0301, witness_tree, potts_tree):
    assert check_lemma1(sample_tree(TreeSpec.regular(2, 1)),
                        binary_0301) <= 1e-12
    assert check_lemma1(witness_tree, binary_0301) <= 1e-10
    assert check_lemma1(potts_tree, potts_channel(3, 0.8)) <= 1e-10


def test_zero_correlation_recursion_is_exact(potts_tree):
    rec = check_main_recursion(potts_tree, potts_channel(2, 0.0))
    assert rec.lhs == 0.0
    assert rec.rhs == 0.0
    assert rec.abs_diff == 0.0
    assert rec.max_pointwise_gap == 0.0
    assert rec.pointwise_violations == 0


def test_recursion_holds_in_expectation_only(binary_0301, witness_tree):
    rec = check_main_recursion(witness_tree, binary_0301)
    assert rec.abs_diff <= 1e-10
    assert rec.lhs > 0.0
    # the identity read per configuration fails on this instance
    assert rec.pointwise_violations >= 1
    assert rec.max_pointwise_gap > 1e-3
    with pytest.raises(TreeError):
        check_main_recursion(witness_tree, binary_0301, node=4)


def test_recursion_pointwise_exact_on_chains(binary_0301):
    chain = tree_from_level_counts([[1], [1], [1]])
    rec = check_main_recursion(chain, binary_0301)
    assert rec.abs_diff <= 1e-12
    assert rec.pointwise_violations == 0
    assert rec.max_pointwise_gap <= 1e-12


def test_contraction_margin(binary_0301, witness_tree, potts_tree, quick_config):
    margin = check_lyapunov_bound(witness_tree, binary_0301,
                                  config=quick_config)
    assert margin >= -1e-9
    c = math.tanh(1.0) ** 2
    assert check_lyapunov_bound(potts_tree, potts_channel(2, 1.0),
                                c_value=c) >= -1e-9
    assert check_lyapunov_bound(potts_tree, potts_channel(2, 0.0),
                                c_value=0.0) == 0.0
    with pytest.raises(TreeError):
        check_lyapunov_bound(witness_tree, binary_0301, node=5, c_value=0.1)


def test_recursion_matches_bayes_posterior(binary_0301, witness_tree, potts_tree):
    assert bayes_vs_recursion(witness_tree, binary_0301) <= 1e-12
    assert bayes_vs_recursion(potts_tree, potts_channel(3, 0.8)) <= 1e-12
    chain = tree_from_level_counts([[1], [2]])
    assert bayes_vs_recursion(chain, potts_channel(3, 1.2)) <= 1e-12


def test_enumeration_budget_guard(binary_0301, witness_tree):
    with pytest.raises(EnumerationTooLarge):
        enumerate_boundary_laws(witness_tree, binary_0301, budget=10)
    with pytest.raises(EnumerationTooLarge):
        brute_force_boundary_laws(witness_tree, binary_0301, joint_budget=100)
    with pytest.raises(EnumerationTooLarge):
        bayes_vs_recursion(witness_tree, binary_0301, budget=10)


def test_random_suite_structure(binary_0301):
    suite = random_suite(seed=0, count=12)
    assert len(suite) == 12
    pinned = suite[0]
    np.testing.assert_array_equal(pinned.channel.matrix, binary_0301.matrix)
    assert pinned.tree.n_nodes == 7
    assert pinned.tree.n_leaves == 4
    for inst in suite:
        assert inst.channel.q in (2, 3)
        assert 1 <= inst.tree.depth <= 3
        assert inst.tree.n_leaves <= 6
        assert inst.tree.n_nodes <= 11
        assert np.all(inst.channel.matrix > 0)
    # same seed redraws the same suite
    again = random_suite(seed=0, count=12)
    for a, b in zip(suite, again):
        np.testing.assert_array_equal(a.channel.matrix, b.channel.matrix)
        np.testing.assert_array_equal(a.tree.parent, b.tree.parent)
    with pytest.raises(ValueError):
        random_suite(seed=0, count=0)


def test_run_suite_report():
    report = run_suite(seed=0, count=6)
    assert report["ok"] is True
    assert report["seed"] == 0
    assert report["count"] == 6
    assert len(report["instances"]) == 6
    for check, tol in TOLERANCES.items():
        assert report[f"max_{check}_diff"] <= report["tolerances"][check] == tol
    assert report["tolerances"]["enumeration"] == 1e-12
    assert report["witness_instances"] >= 1
    row = report["instances"][0]
    assert row["pointwise_violations"] >= 1
    assert row["max_pointwise_gap"] > report["tolerances"]["witness_gap"]


def test_suite_ok_reads_the_enumeration_gap(monkeypatch, run_cli):
    # the fold against brute force is a gap check like the others: a gap
    # above its tolerance fails the suite and exits 1
    monkeypatch.setattr("treerecon.oracle.enumeration_cross_check",
                        lambda *args: 1e-9)
    report = run_suite(seed=0, count=3)
    assert report["max_enumeration_diff"] == 1e-9
    assert report["ok"] is False
    code, out, _ = run_cli(["verify", "--count", "3", "--format", "json"])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_oracle_matches_simulation(binary_0301, witness_tree, potts_tree):
    # the enumerated expectation is the exact mean of the simulated estimator
    rec = check_main_recursion(witness_tree, binary_0301)
    est = mc_root_entropy_fixed_tree(witness_tree, binary_0301,
                                     samples=100_000, seed=17, threads=1)
    assert abs(est.mean - rec.lhs) <= 4 * est.stderr

    ch = potts_channel(3, 0.8)
    rec3 = check_main_recursion(potts_tree, ch)
    est3 = mc_root_entropy_fixed_tree(potts_tree, ch, samples=40_000, seed=23)
    assert abs(est3.mean - rec3.lhs) <= 4 * est3.stderr
