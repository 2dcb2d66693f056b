import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize import minimize_scalar as scipy_minimize_scalar

from treerecon import (
    BadDimension,
    CenterSingularity,
    Channel,
    ChannelError,
    NoConvergence,
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
from treerecon.channels import _potts_e2b
from treerecon.entropy import symmetrized_entropy_rows
from treerecon.variational import (
    CENTER_ATOL,
    MIN_GRID_POINTS,
    NEAR_RTOL,
    REFINE_STEPS,
    _multistart,
    _ascent,
    _near_center,
    _ratio_cols,
    _ratio_q2,
    _starts,
    minimize,
    minimize_scalar,
)


def _ratio_rows(channel, nc_value):
    """F(P) = L(P M_rev) / L(P) over the rows of P, both in deviation form
    through symmetrized_entropy_rows: the reference that holds _ratio_cols
    bit for bit, and the q = 2 cross-check.

    Each row's deviation d = p - alpha is projected onto sum d = 0 along
    alpha for both entropies.  F is nc_value where L(p) is exactly 0 (the
    0/0 at alpha) and 0 where the quotient is not finite, as on the boundary
    of the simplex, where L(p) = +inf.
    """
    a = channel.stationary
    rev = channel.reversed
    eye = np.eye(channel.q)

    def F(P):
        L = symmetrized_entropy_rows(P, a, eye)
        r = symmetrized_entropy_rows(P, a, rev)
        with np.errstate(divide="ignore", invalid="ignore"):
            r /= L
        r[~np.isfinite(r)] = 0.0
        r[L == 0.0] = nc_value
        return r

    return F


def _softmax(z):
    """Softmax along the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    return p / p.sum(axis=-1, keepdims=True)


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
    # every direction attains the limit 0; the reported argmax must still
    # lie off alpha, where ratio() is defined
    for q in (2, 3, 5):
        ch = potts_channel(q, 0.0)
        res = compute_c(ch, quick_config)
        assert res.value <= 1e-12
        assert math.isfinite(ratio(res.argmax, ch))


def test_potts_reduction_q2():
    # tanh^2(beta) = tanh(beta) * cbar forces cbar = tanh(beta)
    for beta in (0.4, 1.1, *np.linspace(0.05, 3.0, 60)):
        assert abs(potts_cbar(2, beta) - math.tanh(beta)) <= 1e-15 * math.tanh(beta), beta


def test_potts_overflow_is_a_validation_error():
    # e^{2 beta} overflows, so the off-diagonal entry is below every normal
    # double
    with pytest.raises(NonPositiveEntry):
        potts_channel(2, 400.0)
    with pytest.raises(NonPositiveEntry):
        potts_cbar(3, 400.0)


def test_potts_subnormal_entry_is_no_convergence():
    # At beta = 354.5, e^{2 beta} is finite but the off-diagonal entry
    # 1 / (e^{2 beta} + q - 1) is subnormal: the channel is too extreme to
    # resolve, and potts_cbar, which builds it, says so too.
    for q in (2, 3):
        with pytest.raises(NoConvergence):
            potts_channel(q, 354.5)
        with pytest.raises(NoConvergence):
            potts_cbar(q, 354.5)


def test_potts_cbar_rejects_negative_beta():
    # c = lam cbar needs lam >= 0; beta = 0 keeps the positive zero
    for q in (2, 3):
        with pytest.raises(ChannelError):
            potts_cbar(q, -0.5)
        assert math.copysign(1.0, potts_cbar(q, 0.0)) == 1.0 and potts_cbar(q, 0.0) == 0.0


def _potts_lam(q, beta):
    return potts_channel(q, beta).lumped[1]


def test_potts_channel_carries_its_lumping():
    # lam from beta; the lumped chain is state 0 against the rest.  No other
    # constructor tags a channel, and the tag takes no part in equality.
    for q, beta in ((2, 0.5), (3, 0.8), (50, 2.0), (3, 1e-6)):
        ch = potts_channel(q, beta)
        pair, lam = ch.lumped
        assert abs(lam - math.expm1(2 * beta) / (math.exp(2 * beta) + q - 1)) <= 1e-16 * lam
        lumped = np.array([[ch.matrix[0, 0], ch.matrix[0, 1:].sum()],
                           [ch.matrix[1, 0], ch.matrix[1, 1:].sum()]])
        np.testing.assert_allclose(make_channel(pair).matrix, lumped, rtol=1e-15, atol=0)
        untagged = make_channel(ch.matrix)
        assert untagged.lumped is None
        assert untagged.matrix.tobytes() == ch.matrix.tobytes()
    assert potts_channel(3, -0.5).lumped is None
    assert not {f.name: f.compare for f in dataclasses.fields(Channel)}["lumped"]
    assert permute_channel(potts_channel(3, 0.8), [1, 2, 0]).lumped is None


def test_potts_cbar_matches_full_search():
    # The (q - 1)-dimensional multistart Newton search on the full channel,
    # the lumped route of compute_c and lam potts_cbar agree.
    cfg = OptimizerConfig()
    for q in range(3, 7):
        for beta in (0.2, 0.7, 1.5, 3.0):
            ch = potts_channel(q, beta)
            nc = near_center_limit(ch)
            full = max(nc, _multistart(ch, nc, cfg)[0])
            res = compute_c(ch)
            reduced = _potts_lam(q, beta) * potts_cbar(q, beta)
            assert res.trace.method == "lumped-grid-1d" and res.trace.failed_starts == 0
            assert abs(full - res.value) <= 1e-12 * full, (q, beta)
            assert abs(full - reduced) <= 1e-12 * full, (q, beta)
            # the argmax is the one-heavy point that attains the value
            assert np.all(res.argmax[1:] == res.argmax[1])
            assert abs(ratio(res.argmax, ch) - res.value) <= 1e-12 * res.value


def _mp_potts_cbar(q, beta):
    """sup of g(lam r) / g(r) over the one-heavy line, r in (0, q - 1),
    g(x) = log1p(x) - log1p(-x / (q - 1)), lam from beta, in 50 digits:
    a 400-point scan, then golden-section search on the best bracket (the
    sup is lam, at r -> 0, when that is larger)."""
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        lam = mpmath.expm1(2 * b) / (mpmath.exp(2 * b) + q - 1)

        def F(r):
            return (mpmath.log1p(lam * r) - mpmath.log1p(-lam * r / (q - 1))) / (
                mpmath.log1p(r) - mpmath.log1p(-r / (q - 1)))

        rs = [mpmath.mpf(q - 1) * k / 400 for k in range(1, 400)]
        k = max(range(len(rs)), key=lambda i: F(rs[i]))
        lo, hi = (rs[k - 1] if k else rs[0] / 2), rs[min(k + 1, len(rs) - 1)]
        phi = (mpmath.sqrt(5) - 1) / 2
        for _ in range(120):
            m1, m2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
            if F(m1) < F(m2):
                lo = m1
            else:
                hi = m2
        return max(F((lo + hi) / 2), lam)


@pytest.mark.parametrize("beta", [1e-9, 1e-6, 1e-3])
def test_potts_cbar_matches_mpmath_at_small_beta(beta):
    # lam comes from beta: e^{2 beta} - 1 would cancel to 3e-8 relative at
    # beta = 1e-9
    for q in (2, 3, 5, 12):
        ref = float(_mp_potts_cbar(q, beta))
        assert abs(potts_cbar(q, beta) - ref) <= 1e-15 * ref, q


@pytest.mark.parametrize("q", [3, 5, 12, 50])
def test_potts_cbar_matches_lumped_two_state_channel(q):
    # Lumping states 1..q-1 of the Potts chain gives the two-state chain of
    # the one-heavy line, alpha = (1/q, 1 - 1/q) and the same lam, so its c,
    # found by the q = 2 closed form, is lam cbar.
    for beta in (0.5, 1.0, 2.0):
        e2b = _potts_e2b(q, beta)
        den = e2b + q - 1.0
        c2 = compute_c(binary_channel((q - 1) / den, (e2b + q - 2) / den)).value
        reduced = _potts_lam(q, beta) * potts_cbar(q, beta)
        assert abs(c2 - reduced) <= 1e-12 * c2, (q, beta)


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
    ch = make_channel(potts_channel(3, 0.6).matrix)  # untagged: the multistart search
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
    ch = make_channel(potts_channel(3, 0.8).matrix)  # untagged: the multistart search
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
    # The search evaluates the batched objective over the columns of a
    # states-major array; ratio() is the scalar definition.  Batched
    # products round differently, so compare within 1e-12 relative rather
    # than bitwise.  The rows objective reads the same bits on the rows.
    rng = np.random.default_rng(40 + q)
    ch = make_channel(0.8 * rng.dirichlet(np.ones(q), size=q) + 0.2 / q)
    F = _ratio_cols(ch, near_center_limit(ch))
    P = rng.dirichlet(np.ones(q), size=4000)
    scalar = np.array([ratio(p, ch) for p in P])
    batch = F(P.T.copy())
    np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0)
    assert batch.tobytes() == _ratio_rows(ch, near_center_limit(ch))(P).tobytes()
    single = np.array([F(p[:, None])[0] for p in P[:500]])
    np.testing.assert_allclose(single, scalar[:500], rtol=1e-12, atol=0)
    # the limit at alpha itself, a value below it nearby; vertices lie on
    # the boundary
    a = ch.stationary
    v = rng.standard_normal(q)
    near = F(np.array([a, a + 1e-10 * (v - v.mean())]).T.copy())
    assert near[0] == near_center_limit(ch)
    assert 0.0 <= near[1] <= near[0] * (1 + 1e-9)
    assert np.all(F(np.eye(q)) == 0.0)


def _cross_beliefs(ch, rng, n):
    """The first n of these beliefs of ch, as rows: alpha exactly,
    alpha + 1e-10 v with sum v = 0, a vertex (on the boundary), then
    Dirichlet points."""
    a = ch.stationary
    v = rng.standard_normal(ch.q)
    special = [a, a + 1e-10 * (v - v.mean()), np.eye(ch.q)[0]]
    return np.array([*special, *rng.dirichlet(np.ones(ch.q), size=n)])[:n]


@pytest.mark.parametrize("q", [3, 4, 5, 6, 7, 8])
def test_cols_objective_matches_rows_objective_bitwise(q):
    # The search's column objective against the rows objective: on softmax
    # points of wide spread, one with an entry that underflows to 0 (F = 0),
    # and on given beliefs, alpha itself (the near-center limit), 1e-10 from
    # it and the boundary (0).
    rng = np.random.default_rng(90 + q)
    ch = _random_channel(q, 80 + q)
    nc = near_center_limit(ch)
    cols, rows = _ratio_cols(ch, nc), _ratio_rows(ch, nc)
    for n in (1, 4, 14, 64):
        X = rng.normal(0.0, 2.0, size=(n, q - 1))
        X[0, :2] = (800.0, -800.0)
        P = _softmax(np.concatenate([X, np.zeros((n, 1))], axis=1))
        got = cols(P.T.copy())
        assert got.tobytes() == rows(P).tobytes(), n
        assert got[0] == 0.0
        P = _cross_beliefs(ch, rng, n)
        got = cols(P.T.copy())
        assert got.tobytes() == rows(P).tobytes(), n
        assert got[0] == nc
        if n >= 3:
            assert got[2] == 0.0 and 0.0 < got[1] <= nc * (1 + 1e-9)


def test_cols_objective_is_columnwise_at_q3():
    # At q = 3 a column alone reads the same bits as inside a batch.
    ch = _random_channel(3, 60)
    F = _ratio_cols(ch, near_center_limit(ch))
    X = np.random.default_rng(5).normal(0.0, 2.0, size=(200, 2))
    B = _softmax(np.concatenate([X, np.zeros((200, 1))], axis=1)).T.copy()
    batch = F(B)
    assert np.array([F(B[:, [k]])[0] for k in range(200)]).tobytes() == batch.tobytes()


def _potts_row_form(q, lam, P):
    """The reduced Potts objective over the rows of P, in numpy's row order."""
    R = q * P - 1.0
    R = R - R.mean(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        den = (R * np.log1p(R)).sum(axis=1)
        r = (R * np.log1p(lam * R)).sum(axis=1) / den
    r[~np.isfinite(r)] = 0.0
    r[den == 0.0] = lam
    return r


def _heavy_points(q, k, x):
    """k states at x each and the rest sharing 1 - k x, one row per x."""
    P = np.repeat(((1.0 - k * x) / (q - k))[:, None], q, axis=1)
    P[:, :k] = x[:, None]
    return P


def _lumped_line(q, beta):
    """compute_c's objective on the lumped chain of the Potts channel, over
    lam: the reduced Potts objective at p = (t, (1 - t) / (q - 1), ...)."""
    pair, lam = potts_channel(q, beta).lumped
    R, _ = _ratio_q2(make_channel(pair), lam)
    return lambda t: R(t) / lam


@pytest.mark.parametrize("q", range(3, 13))
def test_potts_line_matches_row_form(q):
    # the line objective is the full objective at p = (t, (1 - t) / (q - 1), ...)
    lam = _potts_lam(q, 1.0)
    # away from the ends, where R = q p - 1 near -1 is ill-conditioned in both
    t = np.concatenate([[1.0 / q], np.random.default_rng(q).uniform(0.01, 0.99, 63)])
    F = _lumped_line(q, 1.0)
    got = F(t)
    np.testing.assert_allclose(got, _potts_row_form(q, lam, _heavy_points(q, 1, t)),
                               rtol=1e-13, atol=0)
    a = make_channel(potts_channel(q, 1.0).lumped[0]).stationary[0]
    assert F(np.array([a]))[0] == lam * lam / lam and not F(np.array([0.0, 1.0])).any()


@pytest.mark.parametrize("beta", [0.3, 1.0, 3.0])
def test_row_form_stays_below_potts_cbar(beta):
    # The one-heavy line holds the supremum: neither Dirichlet points nor the
    # k-heavy lines of the full objective exceed potts_cbar.
    rng = np.random.default_rng(11)
    for q in range(2, 13):
        lam = _potts_lam(q, beta)
        bound = potts_cbar(q, beta) * (1.0 + 1e-12)
        assert _potts_row_form(q, lam, rng.dirichlet(np.ones(q), size=2000)).max() <= bound
        for k in range(1, q):
            x = np.linspace(0.0, 1.0 / k, 4001)[1:-1]
            assert _potts_row_form(q, lam, _heavy_points(q, k, x)).max() <= bound, (q, k)


@pytest.mark.parametrize("delta1, delta2", [
    (0.18, 0.82), (0.41, 0.59), (0.42, 0.58), (0.43, 0.57), (0.82, 0.18)])
def test_guard_rows_stay_below_near_center_limit(delta1, delta2):
    # On these symmetric channels the limit is the supremum.  A q=2 grid row
    # lies within an ulp of alpha, where P - alpha does not sum to 0 in
    # floating point; projected along alpha, F must still stay below the
    # limit there, at every row within 64 ulps of alpha and at the row of
    # each grid nearest alpha.
    ch = binary_channel(delta1, delta2)
    limit = near_center_limit(ch)
    F = _ratio_rows(ch, limit)
    a0 = ch.stationary[0]
    t = [a0 + np.spacing(a0) * np.arange(-64, 65)]
    for n in (MIN_GRID_POINTS, OptimizerConfig().grid_points):
        grid = np.linspace(1e-9, 1.0 - 1e-9, n)
        t.append(grid[[np.argmin(np.abs(grid - a0))]])
    R, _ = _ratio_q2(ch)
    for u in t:
        assert np.all(F(np.stack([u, 1.0 - u], axis=1)) <= limit * (1 + 1e-13))
        assert np.all(R(u) <= limit * (1 + 1e-13))


def _mp_ratio(p, a, rev):
    """L(p M_rev) / L(p) at 50 digits in deviation form, taking the stored
    alpha and M_rev as exact: d = p - alpha projected along alpha onto
    sum d = 0, then sum_j w_j log1p(w_j / alpha_j) with w = d M_rev over
    sum_i d_i log1p(d_i / alpha_i)."""
    A = [mpmath.mpf(float(x)) for x in a]
    d = [mpmath.mpf(float(x)) - y for x, y in zip(p, A)]
    s = mpmath.fsum(d)
    d = [x - s * y for x, y in zip(d, A)]
    w = [mpmath.fsum(d[i] * mpmath.mpf(float(rev[i, j])) for i in range(len(A)))
         for j in range(len(A))]
    def L(v):
        return mpmath.fsum(x * mpmath.log1p(x / y) for x, y in zip(v, A))
    return L(w) / L(d)


def test_rows_objective_matches_mpmath_near_alpha():
    # At l1 distances 1e-3 .. 1e-15 from alpha, along the near-center
    # direction and 4 random ones, F keeps full relative accuracy, batched
    # and one row at a time, and so does ratio() outside CENTER_ATOL.
    panel = [make_channel(np.random.default_rng(q).dirichlet(np.ones(q), size=q))
             for q in (3, 4, 5)]
    panel += [potts_channel(3, 1.0), binary_channel(0.3, 0.6)]
    rng = np.random.default_rng(8)
    with mpmath.workdps(50):
        for ch in panel:
            a = ch.stationary
            F = _ratio_rows(ch, near_center_limit(ch))
            dirs = [_near_center(ch)[1], *rng.standard_normal((4, ch.q))]
            P = np.array([a + 10.0 ** -e * (v - v.mean()) / np.abs(v - v.mean()).sum()
                          for v in dirs for e in range(3, 16)])
            ref = np.array([float(_mp_ratio(p, a, ch.reversed)) for p in P])
            np.testing.assert_allclose(F(P), ref, rtol=1e-15, atol=0)
            single = np.array([F(p[None])[0] for p in P])
            np.testing.assert_allclose(single, ref, rtol=1e-15, atol=0)
            far = np.max(np.abs(P - a), axis=1) > CENTER_ATOL
            scalar = np.array([ratio(p, ch) for p in P[far]])
            np.testing.assert_allclose(scalar, ref[far], rtol=1e-15, atol=0)


@pytest.mark.parametrize("q, beta", [(2, 0.3), (2, 1.0), (3, 0.3), (3, 1.0), (4, 1.0),
                                     (5, 3.0), (8, 1.0), (20, 1.0), (50, 2.0)])
def test_potts_rows_match_mpmath_near_uniform(q, beta):
    # The lumped line objective at t = 1/q + s (q - 1) / q for
    # |s| = 1e-3 .. 1e-15, and at three points far from uniform, against
    # g(lam r) / g(r) in 50 digits with r = q t - 1 from the float t and lam
    # from beta.
    s = np.array([x * 10.0 ** -e for e in range(3, 16) for x in (1.0, -1.0)])
    t = np.concatenate([1.0 / q + s * (q - 1) / q, [0.5 / q, 0.75, 0.99]])
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        mp_lam = mpmath.expm1(2 * b) / (mpmath.exp(2 * b) + q - 1)

        def g(x):
            return mpmath.log1p(x) - mpmath.log1p(-x / (q - 1))

        ref = []
        for x in t:
            r = q * mpmath.mpf(float(x)) - 1
            ref.append(float(g(mp_lam * r) / g(r)))
    # near t = 1, 1 - r / (q - 1) is small, which scales the rounding of q t
    got = _lumped_line(q, beta)(t)
    np.testing.assert_allclose(got[:-3], ref[:-3], rtol=1e-15, atol=0)
    np.testing.assert_allclose(got[-3:], ref[-3:], rtol=4e-15, atol=0)


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
    # direction must lie on the plane sum v = 0 and attain the limit in the
    # quotient's own definition.
    with mpmath.workdps(50):
        for ch in _near_center_panel():
            ref, m, a = _mp_near_center(ch)
            value, direction = _near_center(ch)
            assert abs(value - ref) <= 1e-13 * ref + 1e-30, ch.matrix
            assert np.max(np.abs(direction)) == 1.0
            assert abs(direction.sum()) <= 1e-15, ch.matrix
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


CROSS_CFG = OptimizerConfig(starts=8, max_iters=1500)


def _random_channel(q, seed):
    return make_channel(np.random.default_rng(seed).dirichlet(np.ones(q), size=q))


def _channel_case(ch):
    """compute_c's objective, directions and starts for channel ch."""
    F = _ratio_cols(ch, near_center_limit(ch))
    return F, _ascent(ch), _starts(ch.q, ch.stationary, CROSS_CFG)


def _scipy_per_start(F, P0, max_iters=CROSS_CFG.max_iters):
    """scipy's Nelder-Mead result on -F from each column of P0, one start
    and one point per call, in the softmax coordinates x of
    softmax([x, 0]); the tolerances are the former batched search's."""
    def f(x):
        return -F(_softmax(np.append(x, 0.0))[:, None])[0]

    return [scipy_minimize(f, np.log(p0 / p0[-1])[:-1], method="Nelder-Mead",
                           options={"maxiter": max_iters, "fatol": 1e-10, "xatol": 1e-10})
            for p0 in P0.T]


CROSS_Q3 = {
    "random-0": lambda: _channel_case(_random_channel(3, 60)),
    "random-1": lambda: _channel_case(_random_channel(3, 61)),
    "random-2": lambda: _channel_case(_random_channel(3, 62)),
    "potts-beta1": lambda: _channel_case(potts_channel(3, 1.0)),
    "potts-beta0": lambda: _channel_case(potts_channel(3, 0.0)),  # flat: F = 0 everywhere
}
CROSS_Q45 = {f"random-q{q}": lambda q=q: _channel_case(_random_channel(q, 70 + q)) for q in (4, 5)}


@pytest.mark.parametrize("case", [
    *(pytest.param(CROSS_Q3[name], id=name) for name in CROSS_Q3),
    *(pytest.param(CROSS_Q45[name], id=name) for name in CROSS_Q45)])
def test_newton_reaches_scipy_best(case):
    # scipy's Nelder-Mead, one start at a time from the same starts, is the
    # independent reference: Newton's best must not fall behind its best.
    F, direction, P0 = case()
    ref = _scipy_per_start(F, P0)
    res = minimize(F, direction, P0, CROSS_CFG.max_iters)
    best = -min(r.fun for r in ref)
    assert res.success and res.failed == 0
    assert -res.fun >= best - 1e-14 * abs(best)
    assert abs(res.fun + F(res.x[:, None])[0]) <= 1e-14 * abs(res.fun)


@pytest.mark.parametrize("name, max_iters", [
    *(pytest.param(name, n, id=name if n == CROSS_CFG.max_iters else f"{name}-{n}")
      for n in (CROSS_CFG.max_iters, 8, 1) for name in CROSS_Q3),
    *(pytest.param(name, CROSS_CFG.max_iters, id=name) for name in CROSS_Q45)])
def test_newton_batch_matches_each_start_alone(name, max_iters):
    # Every start run alone, against the batch of it and the starts after
    # it.  At q = 3 both objectives round a column alike in any batch, so
    # the batch returns the first best start alone bit for bit, and its
    # iterations, evaluations and failures are the sums of theirs.  At
    # q >= 4 batched products may round a column differently, so paths can
    # part by a few ulps: the best agrees within 1e-14 relative.  At 1500
    # iterations every start converges; at 8 random-0 has starts that
    # converge and starts that exhaust the budget; at 1 none converges.
    # Reruns are bitwise.
    F, direction, P0 = {**CROSS_Q3, **CROSS_Q45}[name]()
    alone = [minimize(F, direction, P0[:, [k]], max_iters) for k in range(P0.shape[1])]
    for k in reversed(range(P0.shape[1])):
        batch = minimize(F, direction, P0[:, k:], max_iters)
        rest = alone[k:]
        best = min(rest, key=lambda r: r.fun)
        assert batch.failed == sum(r.failed for r in rest)
        assert batch.success == any(r.success for r in rest)
        if P0.shape[0] == 3:
            assert (batch.x.tobytes(), batch.fun) == (best.x.tobytes(), best.fun), k
            assert (batch.nit, batch.nfev) == (sum(r.nit for r in rest), sum(r.nfev for r in rest))
        else:
            assert abs(batch.fun - best.fun) <= 1e-14 * abs(best.fun), k
    again = minimize(F, direction, P0, max_iters)
    assert (again.x.tobytes(), again.fun, again.nit, again.nfev, again.failed) == \
        (batch.x.tobytes(), batch.fun, batch.nit, batch.nfev, batch.failed)


def test_newton_direction_is_zero_where_not_finite():
    # at alpha (D = 0) and on the boundary (log 0) the derivatives are not
    # finite: those columns get no step, and the others are unaffected
    ch = _random_channel(3, 60)
    direction = _ascent(ch)
    p = np.array([0.2, 0.3, 0.5])
    got = direction(np.stack([ch.stationary, np.eye(3)[0], p], axis=1))
    assert not got[:, :2].any()
    assert got[:, 2].tobytes() == direction(p[:, None])[:, 0].tobytes()
    assert abs(got[:, 2].sum()) <= 1e-15 and np.abs(got[:, 2]).max() > 0.01


def _dirichlet_channel(q, seed=3):
    return make_channel(np.random.default_rng(seed).dirichlet(np.ones(q), size=q))


@pytest.mark.parametrize("q", [16, 20])
def test_multistart_converges_at_large_q(q):
    # Nelder-Mead exhausted its 4000 iterations from every start here
    res = compute_c(_dirichlet_channel(q))
    assert res.trace.method == "multistart-newton"
    assert res.trace.failed_starts == 0 and res.trace.starts == 64
    assert res.value > res.trace.near_center_value
    assert abs(ratio(res.argmax, _dirichlet_channel(q)) - res.value) <= 1e-12 * res.value


def test_multistart_reports_a_winning_limit():
    # kron(sym(0.1), sym(0.3)): the limit 0.8^2 = 0.64 is the supremum, the
    # starts climb towards alpha, and the one near-center verdict reports it
    sym = lambda e: np.array([[1.0 - e, e], [e, 1.0 - e]])  # noqa: E731
    ch = make_channel(np.kron(sym(0.1), sym(0.3)))
    res = compute_c(ch)
    assert res.trace.method == "multistart-newton" and res.trace.failed_starts == 0
    assert res.value == res.trace.near_center_value
    assert abs(res.value - 0.64) <= 1e-14
    assert res.trace.near_center_is_max
    assert math.isfinite(ratio(res.argmax, ch))


def test_minimize_scalar_on_a_parabola():
    # one step lands on a parabola's vertex; a vertex outside the bracket is
    # clipped to the bracket's end
    def f(u):
        return (u - 0.3) ** 2

    x = np.array([[0.1, 0.2, 0.4], [0.5, 0.6, 0.7]])
    res = minimize_scalar(f, x, f(x), np.array([0.1, 0.5]), np.array([0.4, 0.6]))
    assert abs(res.x[0] - 0.3) <= 1e-15 and res.fun <= 1e-30
    assert (res.nit, res.nfev) == (REFINE_STEPS, 2 * REFINE_STEPS)
    res = minimize_scalar(f, x[1:], f(x[1:]), np.array([0.5]), np.array([0.6]))
    assert res.x[0] == 0.5


def _scipy_refined_c(ch, cfg):
    """c of a two-state channel with its q = 2 grid refined per candidate by
    scipy's bounded search: the reference for the batched refinement."""
    nc = near_center_limit(ch)
    F = _ratio_rows(ch, nc)
    n = max(cfg.grid_points, MIN_GRID_POINTS)
    t = np.linspace(1e-9, 1.0 - 1e-9, n)
    r = F(np.stack([t, 1.0 - t], axis=1))
    interior = np.flatnonzero((r[1:-1] >= r[:-2]) & (r[1:-1] >= r[2:])) + 1
    cand = {*interior[np.argsort(r[interior], kind="stable")][-8:].tolist(), int(np.argmax(r))}
    best = float(r.max())
    for i in cand:
        res = scipy_minimize_scalar(lambda x: -F(np.array([[x, 1.0 - x]]))[0],
                                    bounds=(t[max(i - 1, 0)], t[min(i + 1, n - 1)]),
                                    method="bounded", options={"xatol": 1e-13})
        best = max(best, -res.fun)
    return max(nc, best)


def _q2_panel():
    """(delta1, delta2, rel_tol): the table1 rows at delta1 = 0.3, random
    two-state channels, and channels with a delta down to 1e-5."""
    rng = np.random.default_rng(17)
    panel = [(0.3, d2, 1e-14) for d2 in (0.1, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    panel += [(*rng.uniform(0.05, 0.95, 2).round(3).tolist(), 1e-12) for _ in range(6)]
    for e in (1e-5, 1e-4, 1e-3):
        d2 = rng.uniform(0.05, 0.95, 2).round(3).tolist()
        panel += [(e, d2[0], 1e-11), (1.0 - e, d2[1], 1e-11)]
    return panel


@pytest.mark.parametrize("d1, d2, tol", _q2_panel())
def test_q2_refinement_matches_scipy_bounded_search(d1, d2, tol):
    ch = binary_channel(d1, d2)
    cfg = OptimizerConfig(grid_points=MIN_GRID_POINTS)
    res = compute_c(ch, cfg)
    ref = _scipy_refined_c(ch, cfg)
    if res.trace.near_center_is_max:
        # compute_c then reports the near-center limit, which scipy reaches to 1e-9
        assert abs(res.value - ref) <= 1e-9
    else:
        assert abs(res.value - ref) <= tol * ref


@pytest.mark.parametrize("ch", [potts_channel(2, 0.5), potts_channel(2, 1.7862),
                                binary_channel(0.3, 0.7), binary_channel(0.3, 0.1)],
                         ids=lambda ch: ch.label)
def test_q2_grid_refines_one_bracket_per_plateau(ch):
    # On a symmetric channel the two points of the default (even) grid
    # nearest alpha = 1/2 tie; the local-maximum test must take only one of
    # them, so one bracket is refined here, as for binary(0.3, 0.1).
    trace = compute_c(ch).trace
    assert trace.evaluations - trace.grid_points == REFINE_STEPS


def _closed_form_panel():
    """_q2_panel's channels, Ising from beta = 0.1 to 20 and a channel with
    lam < 0."""
    return ([binary_channel(d1, d2) for d1, d2, _ in _q2_panel()]
            + [potts_channel(2, beta) for beta in (0.1, 1.0, 3.0, 20.0)]
            + [binary_channel(0.9, 0.2)])


def _mp_closed_form(ch, t):
    """_ratio_q2 at t to 50 digits, the stored alpha and M_rev taken as exact
    once the states are relabelled so that a = alpha_0 is the smaller entry:
    lam g(lam s) / g(s) with lam = rev_00 - rev_10, s = t - a, b = 1 - a and
    g(d) = log1p(d / a) - log1p(-d / b).  The stored M_rev is stochastic and
    fixes alpha only up to rounding, which moves the mapped point by ~1e-17,
    so where |lam s / (a (b - lam s))| >= 0.5, g(lam s) is log(t' b / (a u'))
    at the product (t', u') = p M_rev, which keeps its relative accuracy
    when that point nears a vertex (Ising at beta = 20)."""
    a, rev, t = ch.stationary[0], ch.reversed, mpmath.mpf(float(t))
    if a > ch.stationary[1]:
        a, rev, t = ch.stationary[1], rev[::-1, ::-1], 1 - t
    (r00, r01), (r10, r11) = [[mpmath.mpf(float(x)) for x in row] for row in rev]
    a = mpmath.mpf(float(a))
    b, lam = 1 - a, r00 - r10

    def g(d):
        return mpmath.log1p(d / a) - mpmath.log1p(-d / b)

    d = lam * (t - a)
    if abs(d / (a * (b - d))) < 0.5:
        num = g(d)
    else:
        u = 1 - t
        num = mpmath.log((t * r00 + u * r10) * b / (a * (t * r01 + u * r11)))
    return lam * num / g(t - a)


def test_q2_closed_form_matches_mpmath():
    # At l1 distances 1e-3 .. 1e-15 from alpha on both sides, and at the
    # ends of the grid, the closed form keeps full relative accuracy.
    with mpmath.workdps(50):
        for ch in _closed_form_panel():
            a = ch.stationary[0]
            t = np.array([a + 0.5 * x * 10.0 ** -e for e in range(3, 16) for x in (1.0, -1.0)]
                         + [1e-9, 1.0 - 1e-9])
            t = t[(t > 0.0) & (t < 1.0)]  # alpha within 5e-4 of a vertex
            ref = [float(_mp_closed_form(ch, x)) for x in t]
            np.testing.assert_allclose(_ratio_q2(ch)[0](t), ref,
                                       rtol=1e-15, atol=0, err_msg=ch.label)


def test_q2_closed_form_matches_rows_objective():
    # The general rows objective, the q >= 3 objective, is the independent
    # check of the closed form on the whole default grid.
    t = np.linspace(1e-9, 1.0 - 1e-9, OptimizerConfig().grid_points)
    P = np.stack([t, 1.0 - t], axis=1)
    for ch in _closed_form_panel():
        nc = near_center_limit(ch)
        np.testing.assert_allclose(_ratio_q2(ch)[0](t), _ratio_rows(ch, nc)(P),
                                   rtol=1e-14, atol=0, err_msg=ch.label)


def test_q2_symmetric_channels_stay_below_lam_squared():
    # _ratio_q2's docstring proves R <= lam^2 on the whole simplex when
    # a = 1/2.  Every default-grid value of binary(d, 1 - d) and of Ising
    # obeys it up to rounding, and at 50 digits it holds exactly, for either
    # sign of lam.
    t = np.linspace(1e-9, 1.0 - 1e-9, OptimizerConfig().grid_points)
    chans = [(binary_channel(d, 1.0 - d), 1.0 - 2.0 * d)
             for d in np.arange(0.02, 0.5, 0.02).round(2)]
    chans += [(potts_channel(2, beta), math.tanh(beta)) for beta in (0.1, 0.5, 1.0, 3.0, 20.0)]
    for ch, lam in chans:
        R = _ratio_q2(ch)[0](t)
        assert np.all(R <= lam ** 2 * (1 + 1e-15)), ch.label
    with mpmath.workdps(50):
        half = mpmath.mpf(1) / 2

        def g(d):
            return mpmath.log1p(d / half) - mpmath.log1p(-d / half)

        for lam in (*(1 - 2 * mpmath.mpf(d) for d in (0.02, 0.24, 0.48)),
                    mpmath.tanh(20), mpmath.mpf(-0.7)):
            for s in (0.4999999, 0.3, 1e-3, 1e-9, -1e-9, -1e-3, -0.3, -0.4999999):
                s = mpmath.mpf(s)
                assert lam * g(lam * s) / g(s) <= lam ** 2


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 20.0,
                                  0.6496, 0.7798, 1.9439])
def test_q2_ising_reaches_the_limit(beta):
    # At the last three the search's best value lies a float step above the
    # limit; the proven supremum lam^2 itself is reported.
    ch = potts_channel(2, beta)
    res = compute_c(ch)
    want = math.tanh(beta) ** 2
    assert res.trace.near_center_is_max
    assert res.value == ch.lumped[1] ** 2
    assert abs(res.value - want) <= 1e-14 * want


def test_q2_symmetric_binary_reaches_the_limit():
    # binary(d, 1 - d) is Ising with tanh(beta) = 1 - 2d; the flag must
    # never flip.
    cfg = OptimizerConfig(grid_points=MIN_GRID_POINTS)
    for d in np.arange(0.02, 0.5, 0.02).round(2):
        res = compute_c(binary_channel(d, 1.0 - d), cfg)
        want = (1.0 - 2.0 * d) ** 2
        assert res.trace.near_center_is_max, d
        assert abs(res.value - want) <= 1e-13 * want, d


def _two_state_panel():
    """72 raw two-state chains: the table1 rows at delta1 = 0.3, 15
    channels binary(d, 1 - d), and 49 random ones."""
    rng = np.random.default_rng(28)
    return ([binary_channel(0.3, d2) for d2 in (0.1, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
            + [binary_channel(d, 1.0 - d) for d in np.arange(0.03, 0.46, 0.03).round(2)]
            + [binary_channel(*rng.uniform(0.02, 0.98, 2)) for _ in range(49)])


def test_two_state_limit_matches_eigensolve():
    # The two-state route reads its limit as lam^2 in closed form; the
    # eigensolved near-center limit is the independent check, on raw chains
    # and on Potts channels, whose route takes lam from beta.
    panel = _two_state_panel()
    assert len(panel) == 72
    for ch in panel:
        limit = compute_c(ch).trace.near_center_value
        assert limit == _ratio_q2(ch)[1]
        assert abs(limit - near_center_limit(ch)) <= 4e-16, ch.label
    for q in (2, 3, 5, 10, 20, 50):
        for beta in (0.5, 1.0, 2.0):
            ch = potts_channel(q, beta)
            limit = compute_c(ch).trace.near_center_value
            assert limit == ch.lumped[1] ** 2
            nc = near_center_limit(ch)
            assert abs(limit - nc) <= 5e-15 * nc, (q, beta)


def test_asymmetric_two_state_exceeds_its_limit():
    # For a != b, h'(0) = (1/b^2 - 1/a^2) / 2 != 0 with h(x) = g(x) / x, so
    # R = lam^2 h(lam s) / h(s) exceeds lam^2 on one side of alpha and
    # c > lam^2 strictly.  binary(d, 1 - d) has a = b and c = lam^2.
    asymmetric = 0
    for ch in _two_state_panel():
        a, b = ch.stationary
        res = compute_c(ch)
        limit = res.trace.near_center_value
        if abs(a - b) > 1e-9:
            asymmetric += 1
            assert res.value > limit and not res.trace.near_center_is_max, ch.label
        else:
            assert res.trace.near_center_is_max, ch.label
            assert abs(res.value - limit) <= 1e-15 * limit, ch.label
    assert asymmetric == 56


class _NoEigensolve(Exception):
    pass


def test_two_state_route_runs_no_eigensolve(monkeypatch):
    def eigh(_):
        raise _NoEigensolve
    monkeypatch.setattr("treerecon.variational.eigh", eigh)
    for ch in (binary_channel(0.3, 0.1), binary_channel(0.3, 0.7), potts_channel(2, -0.5),
               potts_channel(2, 1.0), potts_channel(5, 1.0)):
        res = compute_c(ch)
        assert res.trace.method in ("grid-1d", "lumped-grid-1d"), ch.label
    raw = make_channel(np.random.default_rng(3).dirichlet(np.ones(3), size=3))
    with pytest.raises(_NoEigensolve):
        compute_c(raw, OptimizerConfig(starts=2))


def test_symmetric_raw_chain_reports_its_limit():
    # binary(0.3, 0.7) has alpha_0 = 0.5000000000000001; the grid's refinement
    # reaches t = 0.5, an ulp from alpha, where ratio() raises.  The limit
    # lam^2 wins there, with the near-center point as the argmax.
    ch = binary_channel(0.3, 0.7)
    res = compute_c(ch)
    assert res.value == res.trace.near_center_value == _ratio_q2(ch)[1]
    assert abs(res.value - 0.16) <= 1e-15 and res.trace.near_center_is_max
    assert res.trace.method == "grid-1d"
    assert ratio(res.argmax, ch) <= res.value * (1 + 1e-15)


@pytest.mark.parametrize("d", [0.12, 0.33])
def test_best_point_at_alpha_yields_to_the_limit(d):
    # On this grid the refinement of binary(d, 1 - d) ends within CENTER_ATOL
    # of alpha with a value a rounding above lam^2.  ratio() refuses such a
    # point, so compute_c reports the limit and its representative point.
    ch = binary_channel(d, 1.0 - d)
    res = compute_c(ch, OptimizerConfig(grid_points=100_001))
    assert res.value == res.trace.near_center_value
    assert res.trace.near_center_is_max
    assert ratio(res.argmax, ch) <= res.value * (1 + 1e-15)


def _verdict_panel():
    """Symmetric and asymmetric binaries, Ising and Potts on their lumped
    chains, and random raw q = 3 channels."""
    rng = np.random.default_rng(30)
    return ([binary_channel(d, 1.0 - d) for d in (0.03, 0.12, 0.3, 0.33, 0.45)]
            + [binary_channel(0.3, d2) for d2 in (0.1, 0.5, 0.9)]
            + [binary_channel(0.01, 0.0100001), binary_channel(0.01, 0.5)]
            + [potts_channel(2, beta) for beta in (1e-4, 0.6496, 0.7798, 1.9439, 20.0)]
            + [potts_channel(q, beta) for q, beta in ((3, 1e-4), (3, 0.8), (5, 2.0), (50, 0.5))]
            + [make_channel(0.5 * rng.dirichlet(np.ones(3), size=3) + 0.5 / 3,
                            label=f"random q=3 #{k}") for k in range(3)])


@pytest.mark.parametrize("ch", _verdict_panel(), ids=lambda ch: ch.label)
def test_one_verdict_sets_value_argmax_and_flag(ch):
    # binary(0.01, 0.0100001) and Potts q=3 at beta = 1e-4 have c within 1e-9
    # of the limit in absolute terms, yet 13.4x and 1.093x above it.  Where
    # the limit loses, the argmax is the search's point, at which ratio()
    # (not the route's own objective) reads c.
    res = compute_c(ch, OptimizerConfig(starts=8))
    limit = res.trace.near_center_value
    assert type(limit) is float
    t = res.trace
    assert all(type(n) is int for n in (t.iterations, t.evaluations, t.failed_starts,
                                         t.starts, t.grid_points))
    assert res.trace.near_center_is_max == (res.value == limit)
    at_argmax = ratio(res.argmax, ch)  # never the 0/0 at alpha
    if not res.trace.near_center_is_max:
        assert res.value > limit * (1 + NEAR_RTOL)
        assert abs(at_argmax - res.value) <= 1e-9 * res.value
