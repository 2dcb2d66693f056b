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
the eigensolved limit of _near_center, and _multistart runs a Newton ascent
on the simplex from every start at once: F is _ratio_cols, which runs both
entropies through one pass of the entropy kernel's branches over the
columns of a states-major (q, n) array, and _ascent gives saddle-free
Newton directions from F's closed-form gradient and Hessian.  minimize
holds the live starts as the columns of one array, with one direction call
per iteration and one F call per halving of the pending steps, in start
order.  A start leaves when its step shrinks to STEP_TOL or it exhausts
max_iters (iterations: Newton iterations summed over the starts;
evaluations: columns of F).  Start k draws its randomness from a stream
seeded by (seed, k), and the first of equal maxima wins, so results depend
only on the configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh

from .channels import Channel, _normalize_exact, _readonly, make_channel, potts_channel
from .entropy import _states_sum, symmetrized_entropy
from .entropy import symmetrized_entropy_rows  # noqa: F401  (bench/tracer.py wraps this name here)
from .errors import BadDimension, CenterSingularity, ChannelError, NoConvergence

CENTER_ATOL = 1e-12
NEAR_RTOL = 1e-12  # a best value this far (relative) above the limit yields to it
MIN_GRID_POINTS = 100_001  # smaller 1-d grids are raised to this size
REFINE_STEPS = 4  # parabolic steps of the 1-d refinement
# Points per block of _ratio_q2, apart from entropy._CHUNK: at 16,384
# points each float64 temporary is exactly 128 KiB, glibc malloc's default
# mmap threshold, and the grid's time then moved by ~30% with the process's
# allocation history (likely the mmap and trim thresholds; not traced).
# Blocks of 64 KiB temporaries run at the fast end whatever the history.
_Q2_BLOCK = 8192
STEP_TOL = 1e-13  # a Newton step this short in the max norm ends its start


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
    not finite, as on the boundary.  Blocks of _Q2_BLOCK points keep the
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
            for i in range(0, len(t), _Q2_BLOCK):
                T = t[i:i + _Q2_BLOCK]
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
                out[i:i + _Q2_BLOCK] = r
        return out

    return F, limit


@dataclass(frozen=True)
class SearchResult:
    """One batched search: the point and value of the first start of least
    value, iterations (steps for minimize_scalar) and objective evaluations
    summed over all starts, whether any start converged, and how many did
    not."""
    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool
    failed: int


def _ascent(channel: Channel):
    """Saddle-free Newton directions of F = N / D, with N = L(B M_rev) and
    D = L(B), at the columns of a states-major (q, n) array B.

    With x a mapped column and d its deviation in the form of _ratio_cols,
    grad L(x)_i = log1p(d_i / alpha_i) + d_i / x_i (log(x_i / alpha_i)
    outside the log1p branch) and hess L(x) = diag((x + alpha) / x^2).  N
    takes them through M_rev: M_rev grad L(x) and M_rev hess L(x) M_rev^T.
    Then grad F = (grad N - F grad D) / D and
    hess F = (hess N - F hess D - grad F grad D^T - grad D grad F^T) / D.
    Both are projected onto an orthonormal basis Q of sum v = 0, and with
    hess F = V diag(w) V^T the direction is Q V diag(1 / |w|) V^T grad F:
    Newton's step with every curvature taken as negative, so it ascends at
    minima and saddles too.  Where it is not finite (at alpha, or with a
    zero curvature along a zero slope) the direction is 0.
    """
    q = channel.q
    a = channel.stationary[:, None]
    log_a = np.log(a)
    Mt = channel.reversed.T
    eye = np.eye(q)
    Q = np.linalg.qr(eye[:, :-1] - 1.0 / q)[0]
    proj_eye, proj_rev = eye.T - a, Mt - a  # as _ratio_cols forms them
    W = np.stack([Q, Mt @ Q])  # (2, q, q - 1): the chain rule through x and the projection
    Wt = W.transpose(0, 2, 1)[:, None]

    def direction(B: np.ndarray) -> np.ndarray:
        dev = B - a
        d = np.stack([proj_eye @ dev, proj_rev @ dev])
        x = np.stack([B, Mt @ B])
        with np.errstate(all="ignore"):
            r = d / a
            lg = np.where(np.abs(r) < 0.5, np.log1p(r), np.log(x) - log_a)
            D, N = (d * lg).sum(axis=1)
            F = (N / D)[:, None]
            # (2, n, q - 1) gradients and (2, n, q - 1, q - 1) Hessians of D, N
            gD, gN = (Wt @ (lg + d / x).transpose(0, 2, 1)[..., None])[..., 0]
            hD, hN = (Wt * ((x + a) / x ** 2).transpose(0, 2, 1)[:, :, None]) @ W[:, None]
            g = (gN - F * gD) / D[:, None]
            cross = g[:, :, None] * gD[:, None]
            H = (hN - F[..., None] * hD - cross - cross.transpose(0, 2, 1)) / D[:, None, None]
            bad = ~(np.isfinite(g).all(axis=1) & np.isfinite(H).all(axis=(1, 2)))
            g[bad], H[bad] = 0.0, 0.0
            w, V = np.linalg.eigh(H)
            c = (g[:, None] @ V)[:, 0] / np.abs(w)
        c[~np.isfinite(c)] = 0.0
        return (Q @ (V @ c[..., None]))[..., 0].T

    return direction


def minimize(F, direction, P0, max_iters: int) -> SearchResult:
    """Maximize F from every column of P0 at once, by line searches along
    direction(B); F and direction map a states-major (q, n) array of
    beliefs to n values and to (q, n) directions.

    Each iteration takes one direction per live column.  Its step starts at
    t = min(1, 0.9 times the distance to the simplex's boundary) and halves
    until F does not fall, all pending columns of the batch in one F call
    per halving.  A column converges when its step is at most STEP_TOL in
    the max norm, before or after halving, and leaves the batch; those left
    after max_iters iterations fail.  fun is -F at the first best column,
    nit the iterations and nfev the F columns, both summed over columns.
    """
    P = np.array(P0, dtype=float)
    f = F(P)
    nfev, nit, converged = P.shape[1], 0, 0
    live = np.arange(P.shape[1])
    for _ in range(max_iters):
        if not len(live):
            break
        nit += len(live)
        step = direction(P[:, live])
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(step < 0.0, P[:, live] / -step, np.inf).min(axis=0)
        t = np.minimum(1.0, 0.9 * room)
        span = np.abs(step).max(axis=0)
        todo = np.flatnonzero(t * span > STEP_TOL)
        while len(todo):
            k = live[todo]
            trial = P[:, k] + t[todo] * step[:, todo]
            ft = F(trial)
            nfev += len(todo)
            up = ft >= f[k]
            P[:, k[up]], f[k[up]] = trial[:, up], ft[up]
            todo = todo[~up]
            t[todo] *= 0.5
            todo = todo[t[todo] * span[todo] > STEP_TOL]
        done = t * span <= STEP_TOL
        converged += int(np.count_nonzero(done))
        live = live[~done]
    best = int(np.argmax(f))
    return SearchResult(x=P[:, best].copy(), fun=-float(f[best]), nit=nit, nfev=nfev,
                        success=converged > 0, failed=P.shape[1] - converged)


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


def _starts(q: int, center: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    """The (q, starts) beliefs of the multistart search, one per column:
    the q corners, then alternately a Dirichlet point and a perturbation of
    ``center``, start k drawing from default_rng([seed, k])."""
    P0 = np.empty((q, int(cfg.starts)))
    for k in range(P0.shape[1]):
        rng = np.random.default_rng([cfg.seed, k])
        if k < q:
            p0 = np.full(q, 1e-6 / q)
            p0[k] += 1.0 - 1e-6
        elif (k - q) % 2 == 0:
            p0 = rng.dirichlet(np.ones(q))
        else:
            p0 = center * np.exp(0.5 * rng.standard_normal(q))
        p0 = np.maximum(p0, 1e-12)
        P0[:, k] = p0 / p0.sum()
    return P0


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


def _multistart(channel: Channel, nc_value: float, cfg: OptimizerConfig):
    """Best found (value, point, stats) of _ratio_cols over the simplex,
    stats holding the MethodTrace fields: every start, some perturbing
    alpha, runs in one batched Newton search along _ascent."""
    P0 = _starts(channel.q, channel.stationary, cfg)
    res = minimize(_ratio_cols(channel, nc_value), _ascent(channel), P0, cfg.max_iters)
    if not res.success:
        raise NoConvergence("no optimizer start converged within the iteration budget")
    stats = dict(method="multistart-newton", starts=P0.shape[1], grid_points=0,
                 iterations=res.nit, evaluations=res.nfev, failed_starts=res.failed)
    return -res.fun, res.x, stats


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
        best_v, best_p, stats = _multistart(channel, nc_value, cfg)

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
