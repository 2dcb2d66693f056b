import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from treerecon import (
    NumericalUnderflow,
    TreeError,
    TreeSpec,
    TreeTooLarge,
    belief_recursion,
    binary_channel,
    broadcast,
    depth_sweep,
    leaf_beliefs,
    make_channel,
    mc_root_entropy,
    mc_root_entropy_fixed_tree,
    potts_channel,
    sample_tree,
    tree_from_level_counts,
)
from treerecon.entropy import symmetrized_entropy_rows
from treerecon.oracle import enumerate_boundary_laws
from treerecon.treesim import (_assemble, _broadcast_from_uniforms, _chunk_size,
                               _sample_forest, _upward)


def test_spec_regular_validation():
    spec = TreeSpec.regular(3, 4)
    assert spec.kind == "regular"
    assert spec.mean_offspring == 3.0
    with pytest.raises(TreeError):
        TreeSpec.regular(0, 2)
    with pytest.raises(TreeError):
        TreeSpec.regular(2, 0)
    with pytest.raises(TreeError):
        TreeSpec(kind="regular", depth=2, degree=2, pmf=(1.0,))
    with pytest.raises(TreeError):
        TreeSpec(kind="star", depth=2, degree=2)


def test_spec_gw_validation():
    spec = TreeSpec.galton_watson((0.5, 0.5), 2)
    assert spec.pmf == (0.5, 0.5)
    assert spec.mean_offspring == 1.5
    third = (1 / 3, 1 / 3, 1 / 3)
    assert math.fsum(TreeSpec.galton_watson(third, 2).pmf) == 1.0
    with pytest.raises(TreeError):
        TreeSpec.galton_watson((0.5, 0.4), 2)
    with pytest.raises(TreeError):
        TreeSpec.galton_watson((0.5, -0.5, 1.0), 2)
    with pytest.raises(TreeError):
        TreeSpec.galton_watson((), 2)
    with pytest.raises(TreeError, match=r"must sum to 1, got 1\.1$"):
        TreeSpec.galton_watson((0.5, 0.6), 2)
    with pytest.raises(TreeError):
        TreeSpec.galton_watson((math.nan, 1.0), 2)
    with pytest.raises(TreeError):
        TreeSpec(kind="gw", depth=2, degree=2, pmf=(1.0,))


def test_spec_gw_mapping_form():
    spec = TreeSpec.galton_watson({1: 0.25, 3: 0.75}, 2)
    assert spec.pmf == (0.25, 0.0, 0.75)
    assert spec.mean_offspring == 0.25 + 3 * 0.75
    # explicit zero mass at zero offspring is tolerated, positive mass is not
    assert TreeSpec.galton_watson({0: 0.0, 2: 1.0}, 1).pmf == (0.0, 1.0)
    with pytest.raises(TreeError):
        TreeSpec.galton_watson({0: 0.5, 2: 0.5}, 1)
    with pytest.raises(TreeError):
        TreeSpec.galton_watson({-1: 1.0}, 1)


def test_regular_tree_layout():
    tree = sample_tree(TreeSpec.regular(2, 3))
    assert tree.n_nodes == 15
    assert tree.depth == 3
    assert tree.n_leaves == 8
    assert list(tree.leaves) == list(range(7, 15))
    assert list(tree.level_ptr) == [0, 1, 3, 7, 15]
    assert tree.parent[0] == -1
    assert list(tree.children(0)) == [1, 2]
    assert list(tree.children(3)) == [7, 8]
    for v in range(1, 15):
        assert int(v) in tree.children(int(tree.parent[v]))
        assert tree.node_depth[v] == tree.node_depth[tree.parent[v]] + 1
    with pytest.raises(ValueError):
        tree.parent[0] = 5


def test_gw_degenerate_pmf_matches_regular():
    reg = sample_tree(TreeSpec.regular(2, 3))
    gw = sample_tree(TreeSpec.galton_watson({2: 1.0}, 3), seed=11)
    for field in ("parent", "node_depth", "level_ptr", "child_ptr"):
        np.testing.assert_array_equal(getattr(gw, field), getattr(reg, field))


def test_gw_sampling_bounds_and_determinism():
    spec = TreeSpec.galton_watson((1 / 3, 1 / 3, 1 / 3), 2)
    sizes = set()
    for seed in range(30):
        tree = sample_tree(spec, seed=seed)
        assert 3 <= tree.n_nodes <= 13
        sizes.add(tree.n_nodes)
    assert len(sizes) > 1
    a = sample_tree(spec, seed=5)
    b = sample_tree(spec, seed=5)
    np.testing.assert_array_equal(a.parent, b.parent)
    np.testing.assert_array_equal(a.child_ptr, b.child_ptr)
    # regular specs ignore the seed entirely and draw nothing from a given rng
    np.testing.assert_array_equal(
        sample_tree(TreeSpec.regular(2, 2), seed=1).parent,
        sample_tree(TreeSpec.regular(2, 2), seed=99).parent,
    )
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert sample_tree(TreeSpec.regular(3, 3), rng=rng).n_nodes == 40
    assert rng.bit_generator.state == state


def test_tree_too_large():
    with pytest.raises(TreeTooLarge):
        sample_tree(TreeSpec.regular(2, 3), max_nodes=10)
    with pytest.raises(TreeTooLarge):
        sample_tree(TreeSpec.galton_watson({3: 1.0}, 4), seed=0, max_nodes=20)
    with pytest.raises(TreeTooLarge):  # a degree beyond int64
        sample_tree(TreeSpec.regular(10 ** 20, 2))


@pytest.mark.parametrize("spec", [TreeSpec.galton_watson({99: 1.0}, 3),
                                  TreeSpec.regular(99, 3)])
def test_node_budget_is_checked_before_a_level_is_allocated(spec):
    # level 3 holds 970,299 nodes (7.8 MB of int64 per array); the budget of
    # 10,000 nodes is 0.08 MB
    tracemalloc.start()
    try:
        with pytest.raises(TreeTooLarge, match="exceeds 10000 nodes"):
            sample_tree(spec, seed=0, max_nodes=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_tree_from_level_counts_validation():
    tree = tree_from_level_counts([[2], [2, 1]])
    assert tree.n_nodes == 6
    assert tree.n_leaves == 3
    assert list(tree.children(1)) == [3, 4]
    assert list(tree.children(2)) == [5]
    with pytest.raises(TreeError):
        tree_from_level_counts([])
    with pytest.raises(TreeError):
        tree_from_level_counts([[2], [1]])
    with pytest.raises(TreeError):
        tree_from_level_counts([[2], [1, 0]])


def test_broadcast_joint_law(binary_0301):
    # depth-1 chain: empirical (root, child) counts against alpha(i) M(i, j)
    tree = sample_tree(TreeSpec.regular(1, 1))
    rng = np.random.default_rng(42)
    n = 20_000
    counts = np.zeros((2, 2))
    for _ in range(n):
        spins = broadcast(tree, binary_0301, rng=rng)
        counts[spins[0], spins[1]] += 1
    freq = counts / n
    expect = binary_0301.stationary[:, None] * binary_0301.matrix
    for i in range(2):
        for j in range(2):
            p = expect[i, j]
            assert abs(freq[i, j] - p) <= 3 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_root_spins_match_the_clamped_searchsorted_draw(q):
    # the roots take the children's comparison rule on the row alpha; the
    # reference is the inverse CDF by searchsorted, clamped to q - 1
    tree = sample_tree(TreeSpec.regular(1, 1))
    for ch in (potts_channel(q, 0.7),
               make_channel(np.random.default_rng(q).dirichlet(np.ones(q), size=q))):
        cum = np.cumsum(ch.stationary)
        cum[-1] = 1.0
        u = [0.0, 1.0 - 2.0 ** -53]
        for c in cum[:-1]:
            u += [np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)]
        u = np.array(u)
        spins = _broadcast_from_uniforms(tree, ch, np.column_stack([u, u]))[:, 0]
        reference = np.minimum(np.searchsorted(cum, u, side="right"), q - 1)
        np.testing.assert_array_equal(spins, reference)


def test_broadcast_shape_and_determinism():
    tree = sample_tree(TreeSpec.regular(2, 2))
    ch = potts_channel(3, 0.7)
    spins = broadcast(tree, ch, seed=3)
    assert spins.shape == (7,)
    assert spins.dtype == np.int64
    assert spins.min() >= 0 and spins.max() <= 2
    np.testing.assert_array_equal(spins, broadcast(tree, ch, seed=3))


def test_leaf_beliefs(binary_0301):
    tree = sample_tree(TreeSpec.regular(2, 2))
    ch = potts_channel(3, 0.5)
    config = broadcast(tree, ch, seed=1)
    beliefs = leaf_beliefs(tree, config, 3)
    assert set(beliefs) == set(int(v) for v in tree.leaves)
    for v, row in beliefs.items():
        assert row.shape == (3,)
        assert row.sum() == 1.0
        assert row[config[v]] == 1.0
        assert not row.flags.writeable
    with pytest.raises(TreeError):
        leaf_beliefs(tree, config[:-1], 3)
    with pytest.raises(TreeError):
        leaf_beliefs(tree, config, 2)


def test_recursion_fixed_point():
    ch = potts_channel(3, 0.8)
    tree = sample_tree(TreeSpec.galton_watson((0.5, 0.5), 3), seed=9)
    boundary = {int(v): ch.stationary for v in tree.leaves}
    out = belief_recursion(tree, ch, boundary)
    assert set(out) == set(range(tree.n_nodes))
    for row in out.values():
        np.testing.assert_allclose(row, ch.stationary, atol=1e-14)


def test_recursion_single_edge_posterior(binary_0301):
    tree = sample_tree(TreeSpec.regular(1, 1))
    out = belief_recursion(tree, binary_0301, {1: np.array([1.0, 0.0])})
    np.testing.assert_allclose(out[0], [0.7, 0.3], atol=1e-15)
    out = belief_recursion(tree, binary_0301, {1: np.array([0.0, 1.0])})
    # alpha(j) M(j, 1) / P(child = 1)
    np.testing.assert_allclose(out[0], [0.9, 0.1], atol=1e-15)


def test_recursion_product_underflow_raises():
    # At beta = 200 each child's message is 1 on its spin and e^-400 on the
    # other; two children of each spin leave e^-800 in every product, which
    # underflows to zero.
    tree = tree_from_level_counts([[4]])
    leaves = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    boundary = {int(v): np.array(row) for v, row in zip(tree.leaves, leaves)}
    with pytest.raises(NumericalUnderflow, match="belief product underflowed to zero"):
        belief_recursion(tree, potts_channel(2, 200.0), boundary)


def test_recursion_boundary_key_errors(binary_0301):
    tree = sample_tree(TreeSpec.regular(2, 1))
    good = {1: np.array([0.5, 0.5]), 2: np.array([0.5, 0.5])}
    with pytest.raises(TreeError, match="missing"):
        belief_recursion(tree, binary_0301, {1: good[1]})
    with pytest.raises(TreeError, match="non-leaf"):
        belief_recursion(tree, binary_0301, {**good, 0: good[1]})


def test_recursion_matches_log_ratio_form(binary_0301):
    tree = tree_from_level_counts([[2], [2, 1]])
    rng = np.random.default_rng(5)
    rows = rng.dirichlet((2.0, 2.0), size=tree.n_leaves)
    boundary = {int(v): rows[i] for i, v in enumerate(tree.leaves)}
    out = belief_recursion(tree, binary_0301, boundary)

    # independent recomputation in log-odds form
    M, a = binary_0301.matrix, binary_0301.stationary
    ell = {}
    for v in range(tree.n_nodes - 1, -1, -1):
        kids = list(tree.children(v))
        if not kids:
            b = boundary[v]
            ell[v] = math.log(b[0]) - math.log(b[1])
            continue
        total = math.log(a[0]) - math.log(a[1])
        for w in kids:
            p0 = 1.0 / (1.0 + math.exp(-ell[w]))
            r = (p0 / a[0], (1.0 - p0) / a[1])
            m0 = M[0, 0] * r[0] + M[0, 1] * r[1]
            m1 = M[1, 0] * r[0] + M[1, 1] * r[1]
            total += math.log(m0) - math.log(m1)
        ell[v] = total
    for v in range(tree.n_nodes):
        p0 = 1.0 / (1.0 + math.exp(-ell[v]))
        np.testing.assert_allclose(out[v], [p0, 1.0 - p0], atol=1e-12)


def test_recursion_state_relabeling_equivariance():
    ch = make_channel(np.array([
        [0.5, 0.3, 0.2],
        [0.1, 0.6, 0.3],
        [0.25, 0.25, 0.5],
    ]))
    perm = np.array([2, 0, 1])
    inv = np.argsort(perm)
    relabeled = make_channel(ch.matrix[np.ix_(inv, inv)])
    tree = tree_from_level_counts([[2], [1, 2]])
    rng = np.random.default_rng(8)
    rows = rng.dirichlet((1.5, 1.5, 1.5), size=tree.n_leaves)
    boundary = {int(v): rows[i] for i, v in enumerate(tree.leaves)}
    twisted = {v: b[inv] for v, b in boundary.items()}
    out = belief_recursion(tree, ch, boundary)
    out2 = belief_recursion(tree, relabeled, twisted)
    for v in range(tree.n_nodes):
        np.testing.assert_allclose(out2[v], out[v][inv], atol=1e-12)


def test_zero_correlation_channel_is_exact():
    ch = potts_channel(2, 0.0)
    tree = sample_tree(TreeSpec.regular(2, 3))
    rng = np.random.default_rng(0)
    rows = rng.dirichlet((1.0, 1.0), size=tree.n_leaves)
    boundary = {int(v): rows[i] for i, v in enumerate(tree.leaves)}
    out = belief_recursion(tree, ch, boundary)
    for v in range(int(tree.level_ptr[tree.depth])):
        assert out[v][0] == 0.5 and out[v][1] == 0.5
    est = mc_root_entropy(TreeSpec.regular(2, 3), ch, samples=50, seed=0)
    assert est.mean == 0.0
    assert est.stderr == 0.0


def test_mc_estimate_fields(binary_0301):
    est = mc_root_entropy(TreeSpec.regular(2, 2), binary_0301, samples=200,
                          seed=13, mode="annealed")
    assert est.samples == 200
    assert est.depth == 2
    assert est.mode == "annealed"
    assert est.seed == 13
    assert est.mean > 0.0
    assert est.stderr > 0.0
    one = mc_root_entropy(TreeSpec.regular(2, 2), binary_0301, samples=1)
    assert one.stderr == 0.0


def test_mc_argument_errors(binary_0301):
    with pytest.raises(ValueError):
        mc_root_entropy(TreeSpec.regular(2, 2), binary_0301, samples=0)
    with pytest.raises(ValueError):
        mc_root_entropy(TreeSpec.regular(2, 2), binary_0301, samples=10,
                        mode="typical")
    tree = sample_tree(TreeSpec.regular(2, 2))
    with pytest.raises(ValueError):
        mc_root_entropy_fixed_tree(tree, binary_0301, samples=0)


def test_mc_thread_count_is_invisible(binary_0301):
    spec = TreeSpec.regular(2, 3)
    base = mc_root_entropy(spec, binary_0301, samples=5000, seed=21, threads=1)
    again = mc_root_entropy(spec, binary_0301, samples=5000, seed=21, threads=1)
    threaded = mc_root_entropy(spec, binary_0301, samples=5000, seed=21, threads=3)
    assert base == again
    assert base == threaded

    gw = TreeSpec.galton_watson((0.5, 0.5), 3)
    for mode in ("annealed", "quenched"):
        serial = mc_root_entropy(gw, binary_0301, samples=5000, seed=4, mode=mode)
        parallel = mc_root_entropy(gw, binary_0301, samples=5000, seed=4,
                                   mode=mode, threads=3)
        assert serial == parallel


def test_mc_modes_differ_on_random_trees(binary_0301):
    gw = TreeSpec.galton_watson((0.5, 0.5), 3)
    ann = mc_root_entropy(gw, binary_0301, samples=500, seed=2, mode="annealed")
    que = mc_root_entropy(gw, binary_0301, samples=500, seed=2, mode="quenched")
    assert ann.mode == "annealed" and que.mode == "quenched"
    assert ann.mean != que.mean


def test_fixed_tree_matches_quenched(binary_0301):
    gw = TreeSpec.galton_watson((0.5, 0.5), 3)
    tree = sample_tree(gw, rng=np.random.default_rng([6]))
    que = mc_root_entropy(gw, binary_0301, samples=300, seed=6, mode="quenched")
    fix = mc_root_entropy_fixed_tree(tree, binary_0301, samples=300, seed=6)
    assert fix.mode == "fixed-tree"
    assert fix.mean == que.mean
    assert fix.stderr == que.stderr


def test_depth_sweep_contracts_like_the_constant():
    ch = potts_channel(2, 0.5)
    c = math.tanh(0.5) ** 2
    ests = depth_sweep(TreeSpec.regular(2, 2), ch, depths=range(2, 6),
                      samples=10_000, seed=7)
    assert [e.depth for e in ests] == [2, 3, 4, 5]
    for prev, cur in zip(ests, ests[1:]):
        bound = 2 * c * prev.mean + 3 * (cur.stderr + 2 * c * prev.stderr)
        assert cur.mean <= bound
    single = mc_root_entropy(TreeSpec.regular(2, 4), ch, samples=10_000, seed=7)
    assert single == ests[2]


def _level_counts(tree):
    """Per-level offspring counts of a single tree."""
    counts = np.diff(np.asarray(tree.child_ptr))
    lv = tree.level_ptr
    return [counts[lv[k]:lv[k + 1]] for k in range(tree.depth)]


def _forest(trees):
    # level k of the forest lists tree 0's level-k nodes, then tree 1's, ...
    levels = zip(*(_level_counts(t) for t in trees))
    return _assemble([np.concatenate(c) for c in levels], trees[0].depth, len(trees))


def test_forest_of_one_tree_matches_belief_recursion():
    ch = potts_channel(3, 0.8)
    spec = TreeSpec.galton_watson((0.4, 0.3, 0.3), 3)
    forest = _sample_forest(spec, np.random.default_rng(4), 10_000, roots=1)
    tree = sample_tree(spec, rng=np.random.default_rng(4))
    rows = np.random.default_rng(5).dirichlet((1.0, 1.0, 1.0), size=tree.n_leaves)
    out = belief_recursion(tree, ch, {int(v): rows[i] for i, v in enumerate(tree.leaves)})
    full = _upward(forest, ch, rows[None], keep_all=True)[0]
    root = _upward(forest, ch, rows[None])
    assert root.shape == (1, 3)
    assert root[0].tobytes() == out[0].tobytes()
    for v in range(tree.n_nodes):
        assert full[v].tobytes() == out[v].tobytes()


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_forest_roots_match_separate_trees(q):
    ch = make_channel(0.6 * np.random.default_rng(q).dirichlet(np.ones(q), size=q)
                      + 0.4 / q)
    rng = np.random.default_rng(10 + q)
    spec = TreeSpec.galton_watson((0.3, 0.4, 0.3), 3)
    trees = [sample_tree(spec, rng=rng) for _ in range(40)]
    forest = _forest(trees)
    assert int(forest.level_ptr[1]) == 40
    assert forest.n_nodes == sum(t.n_nodes for t in trees)
    batch = 3
    leaf_rows = [rng.dirichlet(np.ones(q), size=(batch, t.n_leaves)) for t in trees]
    roots = _upward(forest, ch, np.concatenate(leaf_rows, axis=1))
    separate = np.stack([_upward(t, ch, rows) for t, rows in zip(trees, leaf_rows)],
                        axis=1).reshape(-1, q)
    assert roots.shape == (batch * 40, q)
    # The BLAS product may round a row by its place in the block (seen here
    # from q = 4 on, by at most 6 ulps), so equality is up to a few ulps.
    np.testing.assert_array_max_ulp(roots, separate, maxulp=16)


def _gw_trees(pmf, depth):
    """Every Galton-Watson tree of the given depth with its probability."""
    def grow(width, levels):
        if levels == 0:
            yield [], 1.0
            return
        for combo in itertools.product(range(len(pmf)), repeat=width):
            prob = math.prod(pmf[k] for k in combo)
            if prob > 0.0:
                counts = [k + 1 for k in combo]
                for rest, p_rest in grow(sum(counts), levels - 1):
                    yield [counts] + rest, prob * p_rest

    yield from grow(1, depth)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_annealed_mean_matches_exact_expectation(binary_0301, depth):
    pmf = (0.4, 0.6)
    exact = 0.0
    for counts, prob in _gw_trees(pmf, depth):
        law = enumerate_boundary_laws(tree_from_level_counts(counts), binary_0301)
        rows = symmetrized_entropy_rows(law.posterior, binary_0301.stationary)
        exact += prob * math.fsum((law.free * rows).tolist())
    est = mc_root_entropy(TreeSpec.galton_watson(pmf, depth), binary_0301,
                          samples=20_000, seed=31, mode="annealed")
    assert abs(est.mean - exact) <= 5 * est.stderr


def test_tree_too_large_is_checked_per_tree():
    spec = TreeSpec.galton_watson({1: 0.5, 3: 0.5}, 3)  # trees of 4..40 nodes
    forest = _sample_forest(spec, np.random.default_rng(1), 40, roots=200)
    owner = np.arange(forest.n_nodes)
    for v in range(200, forest.n_nodes):  # parents precede children
        owner[v] = owner[forest.parent[v]]
    largest = int(np.bincount(owner).max())
    assert largest < forest.n_nodes
    again = _sample_forest(spec, np.random.default_rng(1), largest, roots=200)
    assert again.n_nodes == forest.n_nodes
    with pytest.raises(TreeTooLarge):
        _sample_forest(spec, np.random.default_rng(1), largest - 1, roots=200)
    fixed = TreeSpec.galton_watson({3: 1.0}, 4)  # 121 nodes per tree
    ch = potts_channel(2, 0.5)
    assert mc_root_entropy(fixed, ch, samples=100, seed=2, max_nodes=121).samples == 100
    with pytest.raises(TreeTooLarge):
        mc_root_entropy(fixed, ch, samples=100, seed=2, max_nodes=120)
    # an expected size beyond the float range still ends in TreeTooLarge
    with pytest.raises(TreeTooLarge):
        mc_root_entropy(TreeSpec.galton_watson({3: 1.0}, 700), ch, samples=2)


@pytest.mark.parametrize("tree,depth,samples", [
    ("regular:d=2", 10, 1200),     # 2,047 nodes: chunks of 512 samples
    ("gw:pmf=0,0.5,0.5", 7, 2500),  # about 1,017 expected nodes: chunks of 1,031
])
def test_node_budget_chunks_ignore_thread_count(run_cli, tree, depth, samples):
    m = 2.0 if tree.startswith("regular") else 2.5
    assert _chunk_size(sum(m ** k for k in range(depth + 1))) * 2 < samples
    argv = ["simulate", "--family", "potts", "--q", "2", "--beta", "0.6",
            "--tree", tree, "--depth", str(depth), "--samples", str(samples),
            "--seed", "9"]
    code, serial, _ = run_cli([*argv, "--threads", "1"])
    assert code == 0
    assert run_cli([*argv, "--threads", "3"]) == (0, serial, "")
    assert json.loads(serial)["results"][0]["samples"] == samples
