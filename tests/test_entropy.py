import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerecon import relative_entropy, symmetrized_entropy
from treerecon.entropy import _CHUNK, pairwise_sum, symmetrized_entropy_rows

RELAXED = settings(max_examples=60, deadline=None)


def interior_pair(seed, q):
    rng = np.random.default_rng([seed, q])
    p = 0.9 * rng.dirichlet(np.ones(q)) + 0.1 / q
    a = 0.9 * rng.dirichlet(np.ones(q)) + 0.1 / q
    return p, a


def test_relative_entropy_basics():
    assert relative_entropy([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert abs(relative_entropy([1.0, 0.0], [0.5, 0.5]) - math.log(2)) <= 1e-15
    assert relative_entropy([0.5, 0.5], [1.0, 0.0]) == math.inf
    # 0 * log 0 contributes nothing
    assert abs(relative_entropy([0.0, 1.0], [0.5, 0.5]) - math.log(2)) <= 1e-15


@RELAXED
@given(st.integers(0, 10**6), st.integers(2, 6))
def test_relative_entropy_nonnegative(seed, q):
    p, a = interior_pair(seed, q)
    assert relative_entropy(p, a) >= 0.0


def test_symmetrized_entropy_values():
    assert symmetrized_entropy([0.25, 0.75], [0.25, 0.75]) == 0.0
    # (0.4) log 1.8 + (-0.4) log 0.2 = 0.4 log 9
    got = symmetrized_entropy([0.9, 0.1], [0.5, 0.5])
    assert abs(got - 0.4 * math.log(9)) <= 1e-12
    assert symmetrized_entropy([1.0, 0.0], [0.5, 0.5]) == math.inf
    assert symmetrized_entropy([0.0, 1.0], [0.5, 0.5]) == math.inf


@RELAXED
@given(st.integers(0, 10**6), st.integers(2, 6))
def test_symmetrized_equals_sum_of_relative(seed, q):
    p, a = interior_pair(seed, q)
    left = symmetrized_entropy(p, a)
    right = relative_entropy(p, a) + relative_entropy(a, p)
    assert abs(left - right) <= 1e-12
    assert left >= 0.0


@RELAXED
@given(st.integers(0, 10**6), st.integers(2, 6))
def test_zero_only_at_center(seed, q):
    p, a = interior_pair(seed, q)
    if np.abs(p - a).max() > 1e-12:
        assert symmetrized_entropy(p, a) > 0.0


def test_accuracy_near_center():
    # tiny perturbations must not lose relative accuracy to cancellation
    a = np.array([0.6, 0.4])
    for eps in (1e-6, 1e-9, 1e-12):
        p = np.array([0.6 + eps, 0.4 - eps])
        expected = (p[0] - 0.6) * math.log1p((p[0] - 0.6) / 0.6) \
            + (p[1] - 0.4) * math.log1p((p[1] - 0.4) / 0.4)
        got = symmetrized_entropy(p, a)
        assert got > 0.0
        assert abs(got - expected) <= 1e-12 * expected + 1e-300


def test_second_order_expansion():
    # L(alpha + eps v) / eps^2 approaches sum v_i^2 / alpha_i linearly in eps
    cases = [
        (np.array([0.6, 0.4]), np.array([1.0, -1.0])),
        (np.array([0.5, 0.3, 0.2]), np.array([1.0, 1.0, -2.0])),
    ]
    for a, v in cases:
        quad = float(np.sum(v * v / a))
        errs = []
        for eps in (1e-3, 1e-4):
            got = symmetrized_entropy(a + eps * v, a) / eps**2
            errs.append(abs(got - quad))
        assert errs[0] <= 0.01 * quad
        assert errs[1] <= 0.3 * errs[0]


@RELAXED
@given(st.integers(0, 10**6), st.integers(2, 6), st.floats(0.05, 0.95))
def test_relative_entropy_convex_in_first_argument(seed, q, lam):
    rng = np.random.default_rng([seed, q, 7])
    p1 = 0.9 * rng.dirichlet(np.ones(q)) + 0.1 / q
    p2 = 0.9 * rng.dirichlet(np.ones(q)) + 0.1 / q
    a = 0.9 * rng.dirichlet(np.ones(q)) + 0.1 / q
    mix = lam * p1 + (1 - lam) * p2
    bound = lam * relative_entropy(p1, a) + (1 - lam) * relative_entropy(p2, a)
    assert relative_entropy(mix, a) <= bound + 1e-12


@RELAXED
@given(st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 5))
def test_rows_matches_scalar(seed, q, n_rows):
    rng = np.random.default_rng([seed, q, n_rows])
    P = 0.9 * rng.dirichlet(np.ones(q), size=n_rows) + 0.1 / q
    a = 0.9 * rng.dirichlet(np.ones(q)) + 0.1 / q
    rows = symmetrized_entropy_rows(P, a)
    for i in range(n_rows):
        one = symmetrized_entropy(P[i], a)
        assert math.isclose(rows[i], one, rel_tol=1e-13, abs_tol=1e-300)


def test_rows_boundary_and_center():
    a = np.array([0.6, 0.4])
    P = np.array([[0.6, 0.4], [1.0, 0.0], [0.2, 0.8]])
    rows = symmetrized_entropy_rows(P, a)
    assert rows[0] == 0.0
    assert rows[1] == math.inf
    assert abs(rows[2] - symmetrized_entropy([0.2, 0.8], a)) <= 1e-15


def _two_branch_reference(p, a):
    """The scalar L as computed before it shared the rows formula: masked
    small/large branches over the entries where both p and alpha are positive."""
    if np.any((p == 0.0) & (a > 0.0)) or np.any((a == 0.0) & (p > 0.0)):
        return math.inf
    m = (p > 0.0) & (a > 0.0)
    d = p[m] - a[m]
    r = d / a[m]
    small = np.abs(r) < 0.5
    out = np.empty_like(d)
    out[small] = d[small] * np.log1p(r[small])
    out[~small] = d[~small] * (np.log(p[m][~small]) - np.log(a[m][~small]))
    return float(out.sum())


def test_scalar_matches_two_branch_formula_bitwise():
    # 15,000 inputs, q = 2..16: zeros in p, alpha or both, and points from
    # 1e-12 to O(1) away from alpha, across the small/large branch switch
    rng = np.random.default_rng(2024)
    n = 1000
    for q in range(2, 17):
        A = rng.dirichlet(np.ones(q), size=n)
        V = rng.standard_normal((n, q))
        V -= V.mean(axis=1, keepdims=True)
        V /= np.abs(V).max(axis=1, keepdims=True)
        P = np.abs(A + 10.0 ** rng.uniform(-12, 0, size=(n, 1)) * V)
        P /= P.sum(axis=1, keepdims=True)
        P[::5] = rng.dirichlet(np.ones(q), size=len(P[::5]))
        zero = rng.integers(q, size=n)
        rows = np.arange(n)
        P[rows[2::5], zero[2::5]] = 0.0
        A[rows[3::5], zero[3::5]] = 0.0
        P[rows[4::5], zero[4::5]] = A[rows[4::5], zero[4::5]] = 0.0
        for p, a in zip(P, A):
            want = _two_branch_reference(p, a)
            got = symmetrized_entropy(p, a)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (p, a)


def _rows_reference(P, alpha):
    """The rows formula as computed before the states-major kernel: every
    step on the (S, q) array, zeros masked out and then set to +inf."""
    a = np.asarray(alpha, dtype=float)[None, :]
    P = np.asarray(P, dtype=float)
    d = P - a
    r = d / a
    small = np.abs(r) < 0.5
    safe_r = np.where(small, r, 0.0)
    safe_p = np.where(P > 0.0, P, 1.0)
    terms = np.where(small, d * np.log1p(safe_r), d * (np.log(safe_p) - np.log(a)))
    L = terms.sum(axis=1)
    bad = (P == 0.0).any(axis=1)
    if np.any(bad):
        L = np.where(bad, np.inf, L)
    return L


def _cross_check_rows(rng, q, n):
    """n rows against a positive alpha: points 1e-16 to O(1) away from alpha
    (a fifth within 1e-12), rows with one entry at alpha (1 +- 0.5) to a few
    ulps, so that |r| straddles the branch switch, and rows with one, or all
    but one, entries zero."""
    a = 0.9 * rng.dirichlet(np.ones(q)) + 0.1 / q
    V = rng.standard_normal((n, q))
    V /= np.abs(V).max(axis=1, keepdims=True)
    scale = 10.0 ** rng.uniform(-16, 0, size=(n, 1))
    scale[::5] = 10.0 ** rng.uniform(-16, -12, size=(len(scale[::5]), 1))
    P = np.abs(a + scale * a * V)
    rows = np.arange(n)
    col = rng.integers(q, size=n)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    ulps = rng.integers(-4, 5, size=n) * np.finfo(float).eps
    P[rows[1::7], col[1::7]] = (a[col] * (1.0 + sign * (0.5 + ulps)))[1::7]
    P[rows[2::7], col[2::7]] = 0.0
    P[rows[3::97]] = 0.0
    P[rows[3::97], col[3::97]] = 1.0
    return P, a


@pytest.mark.parametrize("q", [2, 3, 7, 8, 9, 16, 17, 129, 300])
def test_rows_match_row_major_reference_bitwise(q):
    # _CHUNK + 3 rows cross a block boundary
    P, a = _cross_check_rows(np.random.default_rng([7, q]), q, _CHUNK + 3)
    r = np.abs(P - a) / a
    assert (r < 0.5).any() and (r >= 0.5).any() and (P == 0.0).any()
    got = symmetrized_entropy_rows(P, a)
    assert got.tobytes() == _rows_reference(P, a).tobytes()


def test_pairwise_sum_matches_numpy_bitwise():
    # values over 16 decades of both signs, so that the order of the adds
    # shows in the last bits
    rng = np.random.default_rng(11)
    for q in range(1, 301):
        X = rng.standard_normal((3, 4, q)) * 10.0 ** rng.uniform(-8, 8, size=(3, 4, q))
        got = pairwise_sum(np.moveaxis(X, -1, 0))
        assert got.tobytes() == X.sum(axis=-1).tobytes(), q
    for q in (3, 9, 200):  # numpy adds to 0.0, so -0.0 entries sum to 0.0
        assert pairwise_sum(np.full((q, 2), -0.0)).tobytes() == np.zeros(2).tobytes()
    assert pairwise_sum(np.empty((0, 2))).tobytes() == np.zeros(2).tobytes()
    assert symmetrized_entropy([0.0, 0.0], [0.0, 0.0]) == 0.0  # no state left


def test_rows_peak_memory():
    # one call on 10**6 two-state rows (an 8 MB result) holds at most a few
    # blocks of temporaries besides it; the row-major formula held several
    # 16 MB temporaries at once (114 MB; the states-major kernel: 9.1 MB)
    rng = np.random.default_rng(5)
    t = rng.random(10**6)
    P = np.stack([t, 1.0 - t], axis=1)
    a = np.array([0.3, 0.7])
    tracemalloc.start()
    try:
        symmetrized_entropy_rows(P, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32e6, peak
