import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treerecon import (
    BadDimension,
    BadPermutation,
    ChannelError,
    NonPositiveEntry,
    NotStochastic,
    as_belief,
    binary_channel,
    channel_from_json,
    channel_to_json,
    make_channel,
    permute_channel,
    potts_channel,
    second_eigenvalue,
    stationary_distribution,
)
from treerecon.channels import _normalize_exact, _validate_matrix

RELAXED = settings(max_examples=40, deadline=None)


def random_channel(seed, q):
    rng = np.random.default_rng([seed, q])
    rows = rng.dirichlet(np.ones(q), size=q)
    return make_channel(0.8 * rows + 0.2 / q)


def _rowwise_normalized(matrix) -> np.ndarray:
    # The row-by-row renormalization that _validate_matrix batches.
    m = np.asarray(matrix, dtype=float)
    m = m / m.sum(axis=1)[:, None]
    return np.stack([_normalize_exact(row) for row in m])


def _named_matrices() -> list:
    # Channels of the golden files and of the benchmark's command lines.
    out = []
    for q, beta in [(2, 0.5), (3, 0.8), (2, 0.7), (3, 0.9), (4, 1.1), (5, 0.3),
                    (2, 20.0), (3, 1.5), (8, 1.2), (12, 1.0)]:
        e2b = math.exp(2 * beta)
        m = np.full((q, q), 1.0 / (e2b + q - 1))
        np.fill_diagonal(m, e2b / (e2b + q - 1))
        out.append(m)
    deltas = [(0.3, 0.1)] + [(0.3, d2) for d2 in np.linspace(0.05, 0.95, 19)]
    deltas += [(d1, d2) for d1 in (0.01, 0.1, 0.41) for d2 in (0.5, 0.59, 0.9)]
    out += [[[1 - d1, d1], [1 - d2, d2]] for d1, d2 in deltas]
    rng = np.random.default_rng(3)
    for q in (2, 3, 4):
        # commands.dirichlet_matrix: Dirichlet(1) rows mixed with the uniform row
        for _ in range(64):
            rows = 0.5 * rng.dirichlet(np.ones(q), size=q) + 0.5 / q
            out.append(rows / rows.sum(axis=1, keepdims=True))
    return out


def test_batched_normalization_is_bit_identical():
    rng = np.random.default_rng(20)
    matrices = _named_matrices()
    for q in range(2, 9):
        for k in range(10_000 // 7):
            rows = rng.dirichlet(np.ones(q), size=q)
            if k % 2:  # entries spread over many decades
                rows = rows * np.exp(rng.normal(scale=4.0, size=(q, q)))
                rows /= rows.sum(axis=1, keepdims=True)
            matrices.append(rows)
    for m in matrices:
        assert _validate_matrix(m).tobytes() == _rowwise_normalized(m).tobytes()


def _reference_stationary(m: np.ndarray) -> list:
    # alpha (M - I) = 0 with sum(alpha) = 1, solved at 700 digits for the
    # matrix whose diagonal is exactly 1 minus its off-diagonal row sum, since
    # the elimination never reads the diagonal.
    q = m.shape[0]
    with mpmath.workdps(700):
        off = [[mpmath.mpf(float(m[i, j])) if i != j else mpmath.mpf(0)
                for j in range(q)] for i in range(q)]
        A = mpmath.matrix(q, q)
        for i in range(q):
            for j in range(q):
                A[j, i] = off[i][j] if i != j else -mpmath.fsum(off[i])
        for j in range(q):
            A[q - 1, j] = 1
        b = mpmath.matrix(q, 1)
        b[q - 1] = 1
        x = mpmath.lu_solve(A, b)
        return [x[i] for i in range(q)]


def _stationary_cases():
    rng = np.random.default_rng(2024)
    cases = [(f"random-q{q}-{k}", rng.dirichlet(np.full(q, 0.5), size=q))
             for q in range(2, 7) for k in range(20)]
    for q in (2, 3):
        for beta in (15, 17, 18, 20, 100):
            e2b = math.exp(2 * beta)
            potts = np.full((q, q), 1 / (e2b + q - 1))
            np.fill_diagonal(potts, e2b / (e2b + q - 1))
            cases.append((f"potts-q{q}-beta{beta}", potts))
    cases += [
        ("near-identity-1e-170", [[1 - 2e-170, 1e-170, 1e-170],
                                  [1e-170, 1 - 1e-170, 1e-300],
                                  [0.5, 0.25, 0.25]]),
        ("near-absorbing-1e-300", [[0.001, 0.999, 1e-300],
                                   [1e-300, 1e-300, 1.0],
                                   [1e-300, 0.5, 0.5]]),
    ]
    return cases


def test_stationary_matches_700_digit_reference():
    # Every entry of alpha keeps its relative accuracy, however small it is
    # or however close the channel is to the identity.
    worst = 0.0
    for name, matrix in _stationary_cases():
        alpha = stationary_distribution(matrix)
        ref = _reference_stationary(_validate_matrix(matrix))
        with mpmath.workdps(50):
            err = max(float(abs(mpmath.mpf(float(a)) - r) / r)
                      for a, r in zip(alpha, ref))
        assert err <= 1e-14, (name, err)
        worst = max(worst, err)
    assert worst > 0.0  # the comparison is not vacuous


def test_symmetric_mixing_matrix():
    ch = make_channel([[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_allclose(ch.stationary, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(ch.reversed, ch.matrix, atol=1e-15)


def test_binary_stationary_closed_form(binary_0301):
    np.testing.assert_allclose(binary_0301.stationary, [0.75, 0.25], atol=1e-12)
    assert binary_0301.stationary.sum() == 1.0


def test_row_sums_exact_after_construction():
    ch = make_channel([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.25, 0.5, 0.25]])
    assert np.all(ch.matrix.sum(axis=1) == 1.0)


def test_validation_errors():
    with pytest.raises(NotStochastic):
        make_channel([[0.6, 0.5], [0.4, 0.5]])
    with pytest.raises(NonPositiveEntry):
        make_channel([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(NonPositiveEntry):
        make_channel([[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(BadDimension):
        make_channel([[0.5, 0.5]])
    with pytest.raises(BadDimension):
        make_channel([[1.0]])
    with pytest.raises(NotStochastic):
        make_channel([[np.nan, 1.0], [0.5, 0.5]])


def test_immutability():
    ch = binary_channel(0.3, 0.1)
    with pytest.raises(ValueError):
        ch.matrix[0, 0] = 0.0
    with pytest.raises(ValueError):
        ch.stationary[0] = 0.0


@RELAXED
@given(st.integers(0, 10**6), st.integers(2, 6))
@example(617814, 6)  # the largest entry's correction alone oscillates
def test_stationary_residual(seed, q):
    ch = random_channel(seed, q)
    assert np.abs(ch.stationary @ ch.matrix - ch.stationary).max() <= 1e-12
    assert ch.stationary.sum() == 1.0


@RELAXED
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_detailed_balance_and_double_reversal(seed, q):
    ch = random_channel(seed, q)
    a = ch.stationary
    # reversed(i,j) * alpha(i) = alpha(j) * matrix(j,i)
    lhs = ch.reversed * a[:, None]
    rhs = a[None, :] * ch.matrix.T
    assert np.abs(lhs - rhs).max() <= 1e-12
    assert np.abs(ch.reversed.sum(axis=1) - 1.0).max() <= 1e-12
    back = make_channel(ch.reversed)
    assert np.abs(back.reversed - ch.matrix).max() <= 1e-12
    # the reversed chain has the same stationary law
    assert np.abs(back.stationary - a).max() <= 1e-12


def test_two_state_chains_are_reversible(binary_0301):
    # every 2-state chain satisfies detailed balance, so reversal is a no-op
    np.testing.assert_allclose(binary_0301.reversed, binary_0301.matrix,
                               atol=1e-15)


def test_potts_matrix_values():
    ch = potts_channel(3, 0.5)
    e = math.exp(1.0)
    np.testing.assert_allclose(np.diag(ch.matrix), e / (e + 2), atol=1e-12)
    np.testing.assert_allclose(ch.matrix[0, 1], 1 / (e + 2), atol=1e-12)
    np.testing.assert_allclose(ch.stationary, 1 / 3, atol=1e-15)

    flat = potts_channel(2, 0.0)
    np.testing.assert_allclose(flat.matrix, 0.5, atol=1e-15)

    ising = potts_channel(2, 1.0)
    e2 = math.exp(2.0)
    np.testing.assert_allclose(ising.matrix[0, 0], e2 / (e2 + 1), atol=1e-12)

    with pytest.raises(BadDimension):
        potts_channel(1, 0.5)
    with pytest.raises(ChannelError):
        potts_channel(2, math.inf)


def test_binary_channel_values_and_domain():
    ch = binary_channel(0.3, 0.1)
    np.testing.assert_allclose(ch.matrix, [[0.7, 0.3], [0.9, 0.1]], atol=1e-15)
    sym = binary_channel(0.3, 0.7)
    np.testing.assert_allclose(sym.stationary, [0.5, 0.5], atol=1e-12)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(NonPositiveEntry):
            binary_channel(bad, 0.5)
        with pytest.raises(NonPositiveEntry):
            binary_channel(0.5, bad)


def test_second_eigenvalue_binary():
    for d1, d2 in [(0.3, 0.1), (0.3, 0.9), (0.45, 0.55)]:
        ch = binary_channel(d1, d2)
        assert abs(second_eigenvalue(ch) - abs(d2 - d1)) <= 1e-12


def test_second_eigenvalue_rank_one():
    assert second_eigenvalue(make_channel([[0.5, 0.5], [0.5, 0.5]])) <= 1e-12


@RELAXED
@given(st.integers(2, 8), st.floats(0.0, 3.0, allow_nan=False))
def test_second_eigenvalue_potts(q, beta):
    lam = math.expm1(2 * beta) / (math.exp(2 * beta) + q - 1)
    assert abs(second_eigenvalue(potts_channel(q, beta)) - lam) <= 1e-10


def test_doubly_stochastic_stationary_is_uniform(sym_channel_factory):
    ch = sym_channel_factory(np.random.default_rng(5), 4)
    np.testing.assert_allclose(ch.stationary, 0.25, atol=1e-12)


def test_permute_channel():
    ch = potts_channel(2, 0.8)
    same = permute_channel(ch, [0, 1])
    np.testing.assert_allclose(same.matrix, ch.matrix, atol=1e-15)

    swapped = permute_channel(ch, np.array([1, 0]))
    np.testing.assert_allclose(swapped.matrix, ch.matrix[:, ::-1], atol=1e-15)

    ch3 = random_channel(11, 3)
    perm = np.array([2, 0, 1])
    there = permute_channel(ch3, perm)
    back = permute_channel(there, np.argsort(perm))
    np.testing.assert_allclose(back.matrix, ch3.matrix, atol=1e-12)

    for bad in ([0, 0], [0, 1, 2], [1, 2], [0.5, 0.5]):
        with pytest.raises(BadPermutation):
            permute_channel(ch, bad)


def test_channel_json_forms():
    ch = channel_from_json({"family": "potts", "q": 3, "beta": 0.5})
    np.testing.assert_allclose(ch.matrix, potts_channel(3, 0.5).matrix)

    ch = channel_from_json({"family": "binary", "delta1": 0.3, "delta2": 0.1})
    np.testing.assert_allclose(ch.matrix, [[0.7, 0.3], [0.9, 0.1]])

    ch = channel_from_json({"q": 2, "matrix": [[0.6, 0.4], [0.2, 0.8]]})
    np.testing.assert_allclose(ch.matrix, [[0.6, 0.4], [0.2, 0.8]], atol=1e-15)

    with pytest.raises(ChannelError):
        channel_from_json({"family": "gauss"})
    with pytest.raises(ChannelError):
        channel_from_json({"family": "potts", "q": 3})
    with pytest.raises(ChannelError):
        channel_from_json({"family": "binary", "delta1": 0.3})
    with pytest.raises(ChannelError):
        channel_from_json({"q": 3, "matrix": [[0.5, 0.5], [0.5, 0.5]]})
    with pytest.raises(ChannelError):
        channel_from_json({"q": 2})
    with pytest.raises(ChannelError):
        channel_from_json([0.5, 0.5])
    # an integral float is an integer q; a fractional q is rejected, not truncated
    assert channel_from_json({"family": "potts", "q": 3.0, "beta": 0.5}).q == 3
    for bad in ({"family": "potts", "q": 3.9, "beta": 0.5},
                {"family": "potts", "q": None, "beta": 0.5},
                {"family": "potts", "q": 3, "beta": [0.5]},
                {"family": "binary", "delta1": None, "delta2": 0.1},
                {"q": 2.5, "matrix": [[0.6, 0.4], [0.2, 0.8]]}):
        with pytest.raises(ChannelError):
            channel_from_json(bad)


def test_channel_json_round_trip():
    ch = random_channel(77, 3)
    again = channel_from_json(channel_to_json(ch))
    np.testing.assert_allclose(again.matrix, ch.matrix, atol=1e-15)
    assert again.q == ch.q


def test_stationary_distribution_function():
    alpha = stationary_distribution([[0.7, 0.3], [0.9, 0.1]])
    np.testing.assert_allclose(alpha, [0.75, 0.25], atol=1e-12)
    np.testing.assert_allclose(stationary_distribution([[0.5, 0.5], [0.5, 0.5]]),
                               [0.5, 0.5], atol=1e-15)


def test_as_belief():
    p = as_belief([0.25, 0.75])
    assert p.shape == (2,)
    as_belief([0.2, 0.3, 0.5], q=3)
    with pytest.raises(BadDimension):
        as_belief([0.2, 0.3, 0.5], q=2)
    with pytest.raises(BadDimension):
        as_belief([1.0])
    with pytest.raises(ChannelError, match=r"^belief sums to 1\.1, not 1 "):
        as_belief([0.5, 0.6])
    with pytest.raises(ChannelError):
        as_belief([-0.1, 1.1])
    with pytest.raises(ChannelError):
        as_belief([0.5, 0.5 + 3e-12])
