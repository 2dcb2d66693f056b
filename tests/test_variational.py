import math

import mpmath
import numpy as np
import pytest

from treerecon import (
    BadDimension,
    CenterSingularity,
    NonPositiveEntry,
    OptimizerConfig,
    binary_channel,
    compute_c,
    ks_constant,
    make_channel,
    near_center_limit,
    permute_channel,
    potts_cbar,
    potts_channel,
    ratio,
)
from treerecon.variational import GUARD_L1, MIN_GRID_POINTS, _near_center, _ratio_rows


@pytest.fixture(scope="module")
def c_binary(binary_0301):
    return compute_c(binary_0301)


def test_ratio_center_singularity(binary_0301):
    with pytest.raises(CenterSingularity):
        ratio(binary_0301.stationary, binary_0301)
    with pytest.raises(CenterSingularity):
        ratio(binary_0301.stationary + np.array([1e-13, -1e-13]), binary_0301)


def test_ratio_boundary_is_zero(binary_0301):
    assert ratio(np.array([1.0, 0.0]), binary_0301) == 0.0
    assert ratio(np.array([0.0, 1.0]), binary_0301) == 0.0


def test_ratio_below_supremum():
    ch = potts_channel(2, 1.0)
    val = ratio(np.array([0.9, 0.1]), ch)
    assert 0.0 < val <= math.tanh(1.0) ** 2 + 1e-12


def test_ratio_shape_check(binary_0301):
    with pytest.raises(BadDimension):
        ratio(np.array([0.2, 0.3, 0.5]), binary_0301)


def test_near_center_closed_forms(binary_0301):
    for beta in (0.3, 1.0):
        got = near_center_limit(potts_channel(2, beta))
        assert abs(got - math.tanh(beta) ** 2) <= 1e-12
    assert abs(near_center_limit(potts_channel(3, 0.0))) <= 1e-12
    # for two-state channels the directional limit is the squared eigenvalue
    assert abs(near_center_limit(binary_0301) - 0.04) <= 1e-12
    from treerecon import binary_channel
    assert abs(near_center_limit(binary_channel(0.3, 0.7)) - 0.16) <= 1e-12


def test_ising_closed_form_single():
    res = compute_c(potts_channel(2, 0.5))
    assert abs(res.value - math.tanh(0.5) ** 2) <= 1e-6
    assert res.trace.method == "grid-1d"
    assert res.trace.near_center_is_max
    assert res.value >= res.trace.near_center_value - 1e-12


def test_asymmetric_two_state(c_binary, binary_0301):
    assert abs(c_binary.value - 0.0579) <= 0.0005
    # interior maximizer beats the directional limit here
    assert not c_binary.trace.near_center_is_max
    assert c_binary.value > near_center_limit(binary_0301) + 0.01
    assert abs(ratio(c_binary.argmax, binary_0301) - c_binary.value) <= 1e-9


def test_result_invariants(c_binary):
    assert c_binary.value >= 0.0
    assert c_binary.argmax.shape == (2,)
    assert abs(c_binary.argmax.sum() - 1.0) <= 1e-9
    assert c_binary.trace.seed == 0


def test_lower_bound_consistency(c_binary, binary_0301):
    assert c_binary.value >= near_center_limit(binary_0301) - 1e-9
    res = compute_c(potts_channel(2, 1.3))
    assert res.value >= near_center_limit(potts_channel(2, 1.3)) - 1e-9


def test_zero_information_channel(quick_config):
    assert compute_c(potts_channel(2, 0.0)).value <= 1e-12
    assert compute_c(potts_channel(3, 0.0), quick_config).value <= 1e-12


def test_potts_reduction_q2():
    # tanh^2(beta) = tanh(beta) * cbar forces cbar = tanh(beta)
    for beta in (0.4, 1.1):
        assert abs(potts_cbar(2, beta) - math.tanh(beta)) <= 1e-6


def test_potts_overflow_is_a_validation_error():
    # e^{2 beta} overflows, so the off-diagonal entry is below every normal
    # double
    with pytest.raises(NonPositiveEntry):
        potts_channel(2, 400.0)
    with pytest.raises(NonPositiveEntry):
        potts_cbar(3, 400.0)


def test_potts_reduction_q3():
    beta = 1.0
    lam = math.expm1(2 * beta) / (math.exp(2 * beta) + 2)
    full = compute_c(potts_channel(3, beta)).value
    reduced = lam * potts_cbar(3, beta)
    assert abs(full - reduced) <= 1e-6


def test_boundary_decay(c_binary, binary_0301):
    # the ratio collapses toward 0 at the simplex boundary
    for p in ([1e-9, 1.0 - 1e-9], [1.0 - 1e-9, 1e-9]):
        assert ratio(np.array(p), binary_0301) < 0.5 * c_binary.value
    ch = potts_channel(2, 1.0)
    c = compute_c(ch).value
    assert c > 0.01
    assert ratio(np.array([1e-9, 1.0 - 1e-9]), ch) < 0.5 * c


def test_deterministic_across_runs_and_threads():
    cfg = OptimizerConfig(starts=12, seed=3)
    ch = potts_channel(3, 0.6)
    # the optimizer runs serially; --threads reaches only simulate, and
    # test_criterion_8_thread_determinism pins the CLI across thread counts
    a = compute_c(ch, cfg)
    b = compute_c(ch, cfg)
    c = compute_c(ch, cfg)
    assert a.value == b.value == c.value
    np.testing.assert_array_equal(a.argmax, c.argmax)


def test_seed_changes_are_bounded():
    # different multistart seeds may find different local maxima, but the
    # reported value never drops below the directional limit
    ch = potts_channel(3, 0.8)
    lo = near_center_limit(ch)
    for seed in (0, 1):
        cfg = OptimizerConfig(starts=8, seed=seed)
        assert compute_c(ch, cfg).value >= lo - 1e-9


def test_permutation_invariance_quick():
    ch = make_channel([[0.8, 0.2], [0.2, 0.8]])
    flipped = permute_channel(ch, [1, 0])
    a = compute_c(ch).value
    b = compute_c(flipped).value
    assert abs(a - b) <= 1e-6
    assert abs(a - 0.36) <= 1e-6


def test_convexity_quick():
    # mixtures within the symmetric two-state family share the uniform
    # stationary law, so the constant is convex along the segment
    m1 = make_channel([[0.9, 0.1], [0.1, 0.9]])
    m2 = make_channel([[0.6, 0.4], [0.4, 0.6]])
    c1 = compute_c(m1).value
    c2 = compute_c(m2).value
    for lam in (0.3, 0.7):
        mix = make_channel(lam * m1.matrix + (1 - lam) * m2.matrix)
        assert compute_c(mix).value <= lam * c1 + (1 - lam) * c2 + 1e-5


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rows_objective_matches_scalar_ratio(q):
    # The search evaluates the batched objective; ratio() is the scalar
    # definition.  Batched products round differently, so compare within
    # 1e-12 relative rather than bitwise.
    rng = np.random.default_rng(40 + q)
    ch = make_channel(0.8 * rng.dirichlet(np.ones(q), size=q) + 0.2 / q)
    F = _ratio_rows(ch, near_center_limit(ch))
    P = rng.dirichlet(np.ones(q), size=4000)
    P = P[np.abs(P - ch.stationary).sum(axis=1) >= GUARD_L1]
    scalar = np.array([ratio(p, ch) for p in P])
    np.testing.assert_allclose(F(P), scalar, rtol=1e-12, atol=0)
    single = np.array([F(p[None])[0] for p in P[:500]])
    np.testing.assert_allclose(single, scalar[:500], rtol=1e-12, atol=0)
    # guard zone: the quadratic form, which is the limit at alpha itself and
    # a Rayleigh quotient below it nearby; vertices lie on the boundary
    a = ch.stationary
    v = rng.standard_normal(q)
    near = F(np.array([a, a + 1e-10 * (v - v.mean())]))
    assert near[0] == near_center_limit(ch)
    assert 0.0 <= near[1] <= near[0] * (1 + 1e-9)
    assert np.all(F(np.eye(q)) == 0.0)


@pytest.mark.parametrize("delta1, delta2", [
    (0.18, 0.82), (0.41, 0.59), (0.42, 0.58), (0.43, 0.57), (0.82, 0.18)])
def test_guard_rows_stay_below_near_center_limit(delta1, delta2):
    # On these channels a q=2 grid row lies within an ulp of alpha, where
    # P - alpha does not sum to 0 in floating point; the quadratic form must
    # still stay below its supremum over {sum v = 0}.
    # The default grid has no row in the guard zone; rows a few ulps from
    # alpha stand in for it.
    ch = binary_channel(delta1, delta2)
    limit = near_center_limit(ch)
    F = _ratio_rows(ch, limit)
    a0 = ch.stationary[0]
    ulps = a0 + np.spacing(a0) * np.arange(-4, 5)
    for t in (np.linspace(1e-9, 1.0 - 1e-9, MIN_GRID_POINTS),
              np.linspace(1e-9, 1.0 - 1e-9, OptimizerConfig().grid_points), ulps):
        P = np.stack([t, 1.0 - t], axis=1)
        P = P[np.abs(P - ch.stationary).sum(axis=1) < GUARD_L1]
        assert len(P) > 0 or len(t) > MIN_GRID_POINTS
        assert np.all(F(P) <= limit * (1 + 1e-9))


def _mp_stationary(m):
    """Stationary law of the stored matrix by GTH elimination in mpmath."""
    q = len(m)
    P = [[mpmath.mpf(float(x)) for x in row] for row in m]
    for n in range(q - 1, 0, -1):
        out = mpmath.fsum(P[n][:n])
        for i in range(n):
            P[i][n] /= out
        for i in range(n):
            for j in range(n):
                P[i][j] += P[i][n] * P[n][j]
    pi = [mpmath.mpf(1)]
    for j in range(1, q):
        pi.append(mpmath.fsum(pi[i] * P[i][j] for i in range(j)))
    total = mpmath.fsum(pi)
    return [x / total for x in pi]


def _mp_quotient(v, m, a):
    """sum_j (v M_rev)_j^2 / alpha_j over sum_i v_i^2 / alpha_i, as defined."""
    q = len(a)
    w = [mpmath.fsum(v[i] * a[j] * m[j][i] / a[i] for i in range(q)) for j in range(q)]
    return (mpmath.fsum(w[j] ** 2 / a[j] for j in range(q))
            / mpmath.fsum(v[i] ** 2 / a[i] for i in range(q)))


def _mp_near_center(ch):
    """The near-center limit at 50 digits: with v = sqrt(alpha) w the
    quotient is w^T K K^T w / |w|^2, maximized over w orthogonal to
    sqrt(alpha) by the top eigenvalue of P K K^T P, P the projector on that
    complement.  Also returns the stored matrix and alpha in mpmath."""
    q = ch.q
    m = [[mpmath.mpf(float(x)) for x in row] for row in ch.matrix]
    a = _mp_stationary(ch.matrix)
    s = mpmath.matrix([mpmath.sqrt(x) for x in a])
    K = mpmath.matrix(q, q)
    for i in range(q):
        for j in range(q):
            K[i, j] = s[j] * m[j][i] / s[i]
    P = mpmath.eye(q) - s * s.T
    return max(mpmath.eigsy(P * K * K.T * P, eigvals_only=True)), m, a


def _near_center_panel():
    rng = np.random.default_rng(2024)
    panel = []
    for k in range(30):
        q = 2 + k % 5
        rows = rng.dirichlet(np.ones(q), size=q)
        if k % 3 == 2:  # entries down to 1e-120, alpha over many decades
            rows = rows * 10.0 ** -rng.uniform(0, 120, size=(q, q))
            rows[np.arange(q), rng.integers(q, size=q)] += 1.0
        panel.append(make_channel(rows / rows.sum(axis=1, keepdims=True)))
    panel += [potts_channel(q, beta) for q in (2, 3, 5) for beta in (0.0, 1.0, 20.0)]
    panel += [binary_channel(0.3, 0.1), binary_channel(0.3, 0.7),
              binary_channel(0.01, 0.5), binary_channel(0.41, 0.59)]
    return panel


def test_near_center_matches_mpmath_reference():
    # X's entries carry rounding of order 1e-16, so a limit of order 1e-32
    # (a zero-information channel, where X vanishes) is resolved only to an
    # absolute 1e-30; every other limit to 1e-13 relative.  The returned
    # direction must attain the limit in the quotient's own definition.
    with mpmath.workdps(50):
        for ch in _near_center_panel():
            ref, m, a = _mp_near_center(ch)
            value, direction = _near_center(ch)
            assert abs(value - ref) <= 1e-13 * ref + 1e-30, ch.matrix
            assert np.max(np.abs(direction)) == 1.0
            if ref > 1e-20:
                v = [mpmath.mpf(float(x)) for x in direction]
                assert abs(_mp_quotient(v, m, a) - ref) <= 1e-13 * ref, ch.matrix


def test_near_center_limit_dominates_ks():
    # K is similar to M^T and X = K - s s^T keeps its eigenvalues other than
    # 1, so sigma_2(K) >= |lambda_2|: near_center_limit >= ks, with equality
    # when M is reversible (K symmetric).
    rng = np.random.default_rng(11)
    for k in range(400):
        q = 2 + k % 5
        ch = make_channel(0.9 * rng.dirichlet(np.ones(q), size=q) + 0.1 / q)
        assert near_center_limit(ch) >= ks_constant(ch) - 1e-14
        w = rng.uniform(0.05, 1.0, size=(q, q))
        w = w + w.T
        rev = make_channel(w / w.sum(axis=1, keepdims=True))
        assert abs(near_center_limit(rev) - ks_constant(rev)) <= 1e-14
