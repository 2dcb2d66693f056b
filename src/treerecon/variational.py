"""Variational constant c(M) = sup_p L(p M_rev) / L(p) over the simplex.

The ratio is 0/0 at p = alpha; its supremum over directions v with sum v = 0
of the second-order expansion is the Rayleigh quotient

    sup_v  (sum_i (v M_rev)_i^2 / alpha_i) / (sum_i v_i^2 / alpha_i),

computed exactly as the squared second singular value of
K[i, j] = sqrt(alpha_j) M(j, i) / sqrt(alpha_i): the top eigenvalue of X X^T
with X = K - sqrt(alpha) sqrt(alpha)^T, one symmetric q x q eigenproblem.
That near-center value is merged with the interior search by one test: the
limit wins, with its point and near_center_is_max, when the best ratio found
is at most NEAR_RTOL (relative) above it or is found at alpha (CENTER_ATOL).

Each constant has one objective F, alpha and the boundary included, and
compute_c has two routes, each calling its own search.  The two-state route
takes any q = 2 channel, and a Potts channel (beta >= 0) through its lumped
two-state chain at any q.  F is then the closed form R(s) = lam g(lam s) /
g(s) of _ratio_q2 over an array of t, with s = t - alpha_0 and
lam = M_00 + M_11 - 1 (from beta for Potts), and the near-center limit is
lam^2, with no eigensolve; potts_cbar is that constant over lam.
_grid_search evaluates F on a grid of grid_points points (fewer than
100,001 are raised to 100,001) and refines the brackets of its best local
maxima together (minimize_scalar; iterations counts its steps, evaluations
the grid points plus one per bracket and step).  Every other channel takes
the eigensolved limit of _near_center, and _multistart runs Nelder-Mead in
softmax coordinates, whose softmax builds the beliefs as the columns of a
states-major (q, n) array; F is _ratio_cols, which runs both entropies
through one pass of the entropy kernel's branches.
minimize advances the live starts together as one (live, q, q - 1) array of
simplices, with one F call per step for the trial points of every live
start, in start order.  A start leaves the array when it converges or
exhausts max_iters, so the live starts share one iteration count.  Start k
draws its randomness from a stream seeded by (seed, k), and the first of
equal maxima wins, so results depend only on the configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh

from .channels import Channel, _normalize_exact, _readonly, make_channel, potts_channel
from .entropy import _CHUNK, _states_sum, pairwise_sum, symmetrized_entropy
from .entropy import symmetrized_entropy_rows  # noqa: F401  (bench/tracer.py wraps this name here)
from .errors import BadDimension, CenterSingularity, ChannelError, NoConvergence

CENTER_ATOL = 1e-12
NEAR_RTOL = 1e-12  # a best value this far (relative) above the limit yields to it
MIN_GRID_POINTS = 100_001  # smaller 1-d grids are raised to this size
REFINE_STEPS = 4  # parabolic steps of the 1-d refinement
FATOL = 1e-10  # Nelder-Mead value tolerance (xatol: 1e-10, and 1e-12 to polish)
# trial points A * xbar - B * worst: reflection, expansion, outside and inside contraction
_XBAR_COEF = np.array([2.0, 3.0, 1.5, 0.5])[:, None]
_WORST_COEF = np.array([1.0, 2.0, 0.5, -0.5])[:, None]


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 64
    max_iters: int = 4000
    seed: int = 0
    grid_points: int = 200_000


@dataclass(frozen=True)
class MethodTrace:
    method: str
    starts: int
    grid_points: int
    iterations: int
    evaluations: int
    failed_starts: int
    near_center_value: float
    near_center_is_max: bool
    seed: int


@dataclass(frozen=True)
class VariationalResult:
    value: float
    argmax: np.ndarray
    trace: MethodTrace


def ratio(p, channel: Channel) -> float:
    """L(p M_rev) / L(p), both in the deviation form of _ratio_cols.  Raises
    CenterSingularity if p is alpha within 1e-12.

    Returns 0.0 on the boundary of the simplex, where L(p) = +inf while the
    numerator stays finite (positive channels map everything inside).
    """
    p = np.asarray(p, dtype=float)
    a = channel.stationary
    if p.shape != a.shape:
        raise BadDimension(f"belief has shape {p.shape}, expected {a.shape}")
    if np.max(np.abs(p - a)) <= CENTER_ATOL:
        raise CenterSingularity("ratio is 0/0 at the stationary distribution")
    Lp = symmetrized_entropy(p, a, np.eye(len(a)))
    if not math.isfinite(Lp) or Lp == 0.0:
        return 0.0
    return symmetrized_entropy(p, a, channel.reversed) / Lp


def _near_center(channel: Channel) -> tuple[float, np.ndarray]:
    # With s = sqrt(alpha) and v = s * w the quotient is |K^T w|^2 / |w|^2
    # over w orthogonal to s, where K[i, j] = s_j M(j, i) / s_i; K and K^T
    # both fix s, so X = K - s s^T has X^T = K^T on that complement and
    # X^T s = 0.  The limit is the top eigenvalue of X X^T.
    s = np.sqrt(channel.stationary)
    X = channel.matrix.T * (s[None, :] / s[:, None]) - np.outer(s, s)
    try:
        w, V = eigh(X @ X.T)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"near-center eigensolve failed: {exc}") from None
    # X X^T s = 0, so when every eigenvalue is 0 to rounding (zero-information
    # channels) the top eigenvector can be s itself; take the next one then.
    # An eigenvector is orthogonal to s only to an absolute 1e-16, far off
    # the plane sum v = 0 when alpha spans many decades, so the entry of
    # largest alpha, which the quotient weighs least, balances the others.
    u = V[:, -2] if abs(V[:, -1] @ s) > 0.5 else V[:, -1]
    v = s * u
    j = int(np.argmax(s))
    v[j] = 0.0
    v[j] = -v.sum()
    return float(w[-1]), v / np.max(np.abs(v))


def near_center_limit(channel: Channel) -> float:
    """Limit value of the ratio along the best direction through alpha."""
    return _near_center(channel)[0]


def _ratio_cols(channel: Channel, nc_value: float):
    """F(B) = L(B M_rev) / L(B) over the columns of a states-major (q, n)
    array B, in deviation form: d = B - alpha is projected onto sum d = 0
    along alpha, so F keeps full relative accuracy however close a column
    is to alpha.  F is nc_value where L is exactly 0 (the 0/0 at alpha) and
    0 where the quotient is not finite, as on the boundary, where L = +inf.

    The deviations are mapped by the kernel's two matrices,
    I - alpha 1^T and M_rev^T - alpha 1^T, one product each into a (2, q, n)
    stack, beside B and M_rev^T B, so the branches, the sum over states and
    the quotient run once over both.
    """
    a = channel.stationary[:, None]
    log_a = np.log(a)
    Mt = channel.reversed.T
    proj_eye, proj_rev = np.eye(channel.q).T - a, Mt - a  # as the kernel forms them

    def F(B: np.ndarray) -> np.ndarray:
        d = B - a
        D = np.empty((2, *B.shape))
        E = np.empty((2, *B.shape))
        np.matmul(proj_eye, d, out=D[0])
        np.matmul(proj_rev, d, out=D[1])
        E[0] = B
        np.matmul(Mt, B, out=E[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            den, r = _states_sum(D, E, a, log_a)
            r /= den
        r[~np.isfinite(r)] = 0.0
        r[den == 0.0] = nc_value
        return r

    return F


def _ratio_q2(channel: Channel, lam: float | None = None):
    """(F, lam^2): F(t) = L(p M_rev) / L(p) at p = (t, 1 - t), over a 1-d
    array of t, in closed form, and its limit at alpha.

    With (a, b) = alpha and s = t - a, p = alpha + s (1, -1), and (1, -1) is
    a left eigenvector of M_rev with eigenvalue lam = M_00 + M_11 - 1.  So
    L(p) = s g(s) and L(p M_rev) = lam s g(lam s), where

        g(s) = log1p(s / a) - log1p(-s / b) = log(t b / (a u)),  u = 1 - t,

    and F = R(s) = lam g(lam s) / g(s), whose limit at s = 0 is lam^2.  g at
    a point (t, u) of deviation d from alpha is log1p(d / (a u)) where that
    argument is below 0.5 in magnitude, which keeps full relative accuracy
    near alpha, and log(t b / (a u)) elsewhere.  At the mapped point, d is
    lam s and t and u are the products t rev_00 + u rev_10 and
    t rev_01 + u rev_11, as in the kernel's log branch.  The log1p form
    takes u for b - d, which differs from it by the rounding of the stored
    a + b, a large error next to a tiny b; so the states are first
    relabelled to make a <= b, and u stays above 0.4 wherever that form is
    used.  F is lam^2 where g(s) is exactly 0 and 0 where the quotient is
    not finite, as on the boundary.  Blocks of _CHUNK points keep the
    temporaries in cache.  A caller that knows lam more accurately than the
    stored matrix gives it (a Potts lumped chain, lam from beta) for both.

    A symmetric channel (a = 1/2) has R <= lam^2 on the whole simplex, so
    its c(M) is the near-center limit lam^2.  Proof: g'(v) = 1/(a + v) +
    1/(b - v) = 1/(1/4 - v^2) is even and grows with |v|, so
    h(x) = g(x) / x, the mean of g' over [0, x], is positive, even and grows
    with |x|.  As |lam| <= 1, R(s) = lam^2 h(lam s) / h(s) <= lam^2.
    """
    a, b = channel.stationary
    rev = channel.reversed
    swap = a > b
    if swap:
        a, b, rev = b, a, rev[::-1, ::-1]
    (r00, r01), (r10, r11) = rev
    if lam is None:
        lam = r00 - r10
    limit = lam * lam

    def g(d, t, u):
        # one transcendental per point
        au = a * u
        x = d / au
        small = np.abs(x) < 0.5
        np.log1p(x, out=x, where=small)
        np.log(t * b / au, out=x, where=~small)
        return x

    def F(t: np.ndarray) -> np.ndarray:
        out = np.empty(len(t))
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(0, len(t), _CHUNK):
                T = t[i:i + _CHUNK]
                U = 1.0 - T
                if swap:
                    T, U = U, T
                s = T - a
                den = g(s, T, U)
                r = g(lam * s, T * r00 + U * r10, T * r01 + U * r11)
                r *= lam
                r /= den
                r[~np.isfinite(r)] = 0.0
                r[den == 0.0] = limit
                out[i:i + _CHUNK] = r
        return out

    return F, limit


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    return p / p.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class SearchResult:
    """One batched search: the point and value of the first row of least
    value, iterations (steps for minimize_scalar) and objective rows summed
    over all rows, whether any row converged, and how many rows did not."""
    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool
    failed: int


def minimize(f, X0, max_iters: int, fatol: float, xatol: float) -> SearchResult:
    """Nelder-Mead from every row of X0 at once; f maps an (n, N) array to n values.

    Each row follows scipy's non-adaptive Nelder-Mead step for step: the same
    initial simplex, coefficients, comparisons and sort, and nit counting from
    1 with no convergence test once it reaches max_iters.  Rows only leave the
    batch, when they converge or reach max_iters, so the live rows share one
    iteration count.  A step evaluates the four trial points of every live
    row in one f call, and the shrunk vertices of the rows that shrink in a
    second, each in the rows' original order, so a row's path is scipy's
    wherever f evaluates each row independently of the others.
    """
    X0 = np.array(X0, dtype=float, ndmin=2)
    S, N = X0.shape
    s = np.repeat(X0[:, None, :], N + 1, axis=1)
    k = np.arange(N)
    s[:, k + 1, k] = np.where(X0 != 0, 1.05 * X0, 0.00025)
    fs = f(s.reshape(-1, N)).reshape(S, N + 1)
    nfev = S * (N + 1)
    live = np.arange(S)  # original row of each live simplex in s, fs
    rows = np.arange(S)  # position of each live simplex, kept until the live set changes
    i = rows[:, None]
    order = fs.argsort(axis=1)
    s, fs = s[i, order], fs[i, order]
    x_out, f_out = np.empty((S, N)), np.empty(S)
    nit = nit_sum = converged = 0
    while True:
        nit += 1
        if nit >= max_iters:
            leave = np.ones(len(live), dtype=bool)
            n_leave = len(live)
        else:
            # fs is sorted, so fs[:, -1] - fs[:, 0] is max |fs[:, 0] - fs[:, j]|, NaN included
            leave = fs[:, -1] - fs[:, 0] <= fatol
            n_leave = np.count_nonzero(leave)
            if n_leave:
                leave[leave] = np.abs(s[leave, 1:] - s[leave, :1]).max(axis=(1, 2)) <= xatol
                n_leave = np.count_nonzero(leave)
                converged += n_leave
        if n_leave:
            gone = live[leave]
            x_out[gone], f_out[gone] = s[leave, 0], fs[leave, 0]
            nit_sum += nit * n_leave
            if n_leave == len(live):
                break
            stay = ~leave
            live, s, fs = live[stay], s[stay], fs[stay]
            rows = np.arange(len(live))
            i = rows[:, None]
        trial = _XBAR_COEF * (np.add.reduce(s[:, :-1], 1) / N)[:, None] - _WORST_COEF * s[:, -1:]
        ft = f(trial.reshape(-1, N)).reshape(-1, 4)
        nfev += ft.size
        fr, fe, fc, fcc = ft.T
        expand = fr < fs[:, 0]
        contract = ~expand & ~(fr < fs[:, -2])
        outside = contract & (fr < fs[:, -1])
        take_c = outside & (fc <= fr)
        take_cc = contract & ~outside & (fcc < fs[:, -1])
        shrink = contract & ~(take_c | take_cc)
        # the four cases are disjoint: 0 reflection, 1 expansion, 2 and 3 contraction
        pick = (expand & (fe < fr)) + 2 * take_c + 3 * take_cc
        if not np.count_nonzero(shrink):
            s[:, -1], fs[:, -1] = trial[rows, pick], ft[rows, pick]
        else:
            m = ~shrink
            s[m, -1], fs[m, -1] = trial[m, pick[m]], ft[m, pick[m]]
            b = s[shrink]
            b[:, 1:] = b[:, :1] + 0.5 * (b[:, 1:] - b[:, :1])
            s[shrink] = b
            fs[shrink, 1:] = f(b[:, 1:].reshape(-1, N)).reshape(-1, N)
            nfev += b.shape[0] * N
        order = fs.argsort(axis=1)
        s, fs = s[i, order], fs[i, order]
    best = int(np.argmin(f_out))
    return SearchResult(x=x_out[best], fun=float(f_out[best]), nit=nit_sum, nfev=nfev,
                        success=converged > 0, failed=S - converged)


def minimize_scalar(f, x, fx, lo, hi) -> SearchResult:
    """REFINE_STEPS steps of successive parabolic interpolation on all rows at once.

    Row k of x holds three increasing points, fx their values under f, which
    maps n points to n values, and [lo[k], hi[k]] its bracket.  A step
    evaluates every row's parabola vertex, clipped to the bracket (the middle
    point if the three are collinear), in one f call, and keeps the best of
    the four points with its two neighbours: no row's best value gets worse.
    """
    x, fx = np.asarray(x, dtype=float), np.asarray(fx, dtype=float)
    rows = np.arange(len(x))[:, None]
    for _ in range(REFINE_STEPS):
        (a, b, c), (fa, fb, fc) = x.T, fx.T
        num = (b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)
        den = 2.0 * ((b - a) * (fb - fc) - (b - c) * (fb - fa))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = np.where(den != 0.0, np.clip(b - num / den, lo, hi), b)
        xs, fs = np.concatenate([x, u[:, None]], 1), np.concatenate([fx, f(u)[:, None]], 1)
        order = np.argsort(xs, axis=1, kind="stable")
        xs, fs = xs[rows, order], fs[rows, order]
        keep = np.clip(np.argmin(fs, axis=1), 1, 2)[:, None] + np.arange(-1, 2)
        x, fx = xs[rows, keep], fs[rows, keep]
    row, col = np.unravel_index(np.argmin(fx), fx.shape)
    return SearchResult(x=x[row, col:col + 1].copy(), fun=float(fx[row, col]),
                        nit=REFINE_STEPS, nfev=REFINE_STEPS * len(x), success=True, failed=0)


def _softmax_objective(F):
    """-F in softmax coordinates: row x of X stands for softmax([x, 0]),
    which F takes as a column of a states-major (q, n) array.  The column
    max, exp and pairwise sum over states give _softmax's rows bit for bit."""
    def f(X: np.ndarray) -> np.ndarray:
        Z = np.empty((X.shape[1] + 1, len(X)))
        Z[:-1] = X.T
        Z[-1] = 0.0
        Z -= Z.max(axis=0)
        np.exp(Z, out=Z)
        Z /= pairwise_sum(Z)
        r = F(Z)
        return np.negative(r, out=r)
    return f


def _starts(q: int, center: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    """The (starts, q - 1) softmax coordinates of the multistart search:
    the q corners, then alternately a Dirichlet point and a perturbation of
    ``center``, start k drawing from default_rng([seed, k])."""
    X0 = np.empty((int(cfg.starts), q - 1))
    for k in range(len(X0)):
        rng = np.random.default_rng([cfg.seed, k])
        if k < q:
            p0 = np.full(q, 1e-6 / q)
            p0[k] += 1.0 - 1e-6
        elif (k - q) % 2 == 0:
            p0 = rng.dirichlet(np.ones(q))
        else:
            p0 = _softmax(np.log(center) + 0.5 * rng.standard_normal(q))
        p0 = np.maximum(p0, 1e-12)
        X0[k] = np.log(p0 / p0[-1])[:-1]
    return X0


def _grid_search(F, cfg: OptimizerConfig):
    """Best found (value, t, stats) of F over a 1-d array of t in (0, 1),
    stats holding the MethodTrace fields.  The grid refines its best 8 local
    maxima and its maximum in one batched search counting steps as iterations."""
    n_points = max(int(cfg.grid_points), MIN_GRID_POINTS)
    t = np.linspace(1e-9, 1.0 - 1e-9, n_points)
    r = F(t)
    # strict on the left, so that a plateau gives one candidate
    interior = np.where((r[1:-1] > r[:-2]) & (r[1:-1] >= r[2:]))[0] + 1
    order = np.argsort(r[interior], kind="stable")
    top = int(np.argmax(r))
    cand = np.union1d(interior[order][-8:], top)
    # grid triples; a candidate at an end of the grid keeps a one-sided bracket
    j = np.clip(cand, 1, n_points - 2)[:, None] + np.arange(-1, 2)
    lo, hi = t[np.maximum(cand - 1, 0)], t[np.minimum(cand + 1, n_points - 1)]
    res = minimize_scalar(lambda u: -F(u), t[j], -r[j], lo, hi)
    best_v, best_t = float(r[top]), float(t[top])
    if -res.fun > best_v:
        best_v, best_t = -res.fun, float(res.x[0])
    stats = dict(method="grid-1d", starts=0, grid_points=n_points,
                 iterations=res.nit, evaluations=n_points + res.nfev, failed_starts=0)
    return best_v, best_t, stats


def _multistart(F, cfg: OptimizerConfig, center: np.ndarray):
    """Best found (value, point, stats) of F over the len(center)-simplex,
    stats holding the MethodTrace fields.  Every start, some perturbing
    center, runs in one batched Nelder-Mead, which then polishes the winner."""
    f = _softmax_objective(F)
    X0 = _starts(len(center), center, cfg)
    res = minimize(f, X0, cfg.max_iters, FATOL, 1e-10)
    if not res.success:
        raise NoConvergence("no optimizer start converged within the iteration budget")
    best_v, best_x = -res.fun, res.x
    # one polish pass from the winning point
    polish = minimize(f, best_x, cfg.max_iters, FATOL, 1e-12)
    if -polish.fun > best_v:
        best_v, best_x = -polish.fun, polish.x
    best_p = _softmax(np.concatenate([best_x, [0.0]]))
    stats = dict(method="multistart-nelder-mead", starts=len(X0), grid_points=0,
                 iterations=res.nit + polish.nit, evaluations=res.nfev + polish.nfev,
                 failed_starts=res.failed)
    return best_v, best_p, stats


def compute_c(channel: Channel, config: OptimizerConfig | None = None) -> VariationalResult:
    """Best found value of sup_p L(p M_rev) / L(p), with the near-center limit merged.

    A two-state channel, and a Potts channel (beta >= 0) through its lumped
    chain at any q (README "Potts constants"), take _ratio_q2 with its limit
    lam^2 and _grid_search ("lumped-grid-1d" for q >= 3); any other channel
    takes the eigensolved limit and _multistart.  A budget (starts, max_iters,
    grid_points) below 1 is a ValueError on either route.  Deterministic.
    """
    cfg = config or OptimizerConfig()
    for name in ("starts", "max_iters", "grid_points"):
        n = getattr(cfg, name)
        if n < 1:
            raise ValueError(f"optimizer {name} must be >= 1, got {n}")
    q, a = channel.q, channel.stationary
    if q == 2 or channel.lumped is not None:
        pair, lam = channel.lumped or (None, None)
        F, nc_value = _ratio_q2(channel if pair is None else make_channel(pair), lam)
        best_v, t, stats = _grid_search(F, cfg)
        best_p = np.concatenate([[t], np.full(q - 1, (1.0 - t) / (q - 1))])
        nc_dir = np.concatenate([[-1.0], np.full(q - 1, 1.0 / (q - 1))])
        if q > 2:
            stats["method"] = "lumped-grid-1d"
    else:
        nc_value, nc_dir = _near_center(channel)
        best_v, best_p, stats = _multistart(_ratio_cols(channel, nc_value), cfg, a)

    # representative point for the near-center candidate, 1e-9 min(alpha)
    # from alpha in the max norm (the largest entry of nc_dir is +-1)
    eps = 1e-9 * float(a.min())
    p_nc = _normalize_exact(a + eps * nc_dir)

    near_wins = bool(best_v - nc_value <= NEAR_RTOL * nc_value
                     or np.max(np.abs(best_p - a)) <= CENTER_ATOL)
    value, argmax = (nc_value, p_nc) if near_wins else (best_v, best_p)
    trace = MethodTrace(**stats, near_center_value=float(nc_value),
                        near_center_is_max=near_wins, seed=cfg.seed)
    return VariationalResult(value=float(value), argmax=_readonly(argmax), trace=trace)


def potts_cbar(q: int, beta: float, config: OptimizerConfig | None = None) -> float:
    """sup_p of the reduced Potts objective

        sum_i (q p_i - 1) log(1 + (e^{2 beta} - 1) p_i)
        -------------------------------------------------
        sum_i (q p_i - 1) log(q p_i)

    that is, c of potts_channel(q, beta), found on its lumped two-state
    chain, over lam = expm1(2 beta) / (e^{2 beta} + q - 1).  beta < 0
    (lam < 0, where c = lam cbar fails) raises ChannelError, and beta = 0
    gives 0.0.  Where 1 / (e^{2 beta} + q - 1) is subnormal (beta in about
    (354.2, 354.89]), potts_channel raises NoConvergence.  grid_points sets
    the grid; starts and max_iters are validated but unused.  The value is
    the best found, not a certified bound.
    """
    ch = potts_channel(q, beta)
    if beta < 0:
        raise ChannelError(f"potts_cbar needs beta >= 0, got {beta!r}")
    if beta == 0:
        return 0.0
    return compute_c(ch, config).value / ch.lumped[1]
