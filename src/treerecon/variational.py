"""Variational constant c(M) = sup_p L(p M_rev) / L(p) over the simplex.

The ratio is 0/0 at p = alpha; its supremum over directions v with sum v = 0
of the second-order expansion is the Rayleigh quotient

    sup_v  (sum_i (v M_rev)_i^2 / alpha_i) / (sum_i v_i^2 / alpha_i),

computed exactly as the squared second singular value of
K[i, j] = sqrt(alpha_j) M(j, i) / sqrt(alpha_i): the top eigenvalue of X X^T
with X = K - sqrt(alpha) sqrt(alpha)^T, one symmetric q x q eigenproblem.
That near-center value is always merged with the interior search, so the
reported constant is max(near-center limit, best evaluated ratio).

Each constant has one objective F, a rows function mapping an (S, q) array
of beliefs to S values, guard zone included, and one search, _maximize.
For q = 2 it evaluates F on a 1-d grid of grid_points points (fewer than
100,001 are raised to 100,001) and refines the best local maxima on single
rows; for q >= 3 it runs multistart Nelder-Mead in softmax coordinates.
The starts run one after another; start k draws its randomness from a
stream seeded by (seed, k), and the first of equal maxima wins, so results
depend only on the configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh
from scipy.optimize import minimize, minimize_scalar

from .channels import Channel, _normalize_exact, _potts_e2b, _readonly
from .entropy import symmetrized_entropy, symmetrized_entropy_rows
from .errors import BadDimension, CenterSingularity, NoConvergence

CENTER_ATOL = 1e-12
GUARD_L1 = 1e-8  # inside this l1 distance of the center, use the quadratic form
MIN_GRID_POINTS = 100_001  # smaller q=2 grids are raised to this size


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 64
    max_iters: int = 4000
    tol: float = 1e-10
    seed: int = 0
    grid_points: int = 200_000


@dataclass(frozen=True)
class MethodTrace:
    method: str
    starts: int
    grid_points: int
    iterations: int
    near_center_value: float
    near_center_is_max: bool
    seed: int


@dataclass(frozen=True)
class VariationalResult:
    value: float
    argmax: np.ndarray
    trace: MethodTrace


def ratio(p, channel: Channel) -> float:
    """L(p M_rev) / L(p).  Raises CenterSingularity if p is alpha within 1e-12.

    Returns 0.0 on the boundary of the simplex, where L(p) = +inf while the
    numerator stays finite (positive channels map everything inside).
    """
    p = np.asarray(p, dtype=float)
    a = channel.stationary
    if p.shape != a.shape:
        raise BadDimension(f"belief has shape {p.shape}, expected {a.shape}")
    if np.max(np.abs(p - a)) <= CENTER_ATOL:
        raise CenterSingularity("ratio is 0/0 at the stationary distribution")
    Lp = symmetrized_entropy(p, a)
    if not math.isfinite(Lp) or Lp == 0.0:
        return 0.0
    return symmetrized_entropy(p @ channel.reversed, a) / Lp


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
    v = s * V[:, -1]
    return float(w[-1]), v / np.max(np.abs(v))


def near_center_limit(channel: Channel) -> float:
    """Limit value of the ratio along the best direction through alpha."""
    return _near_center(channel)[0]


def _near_rows(P: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Mask of the rows of P within l1 distance GUARD_L1 of center."""
    near = np.abs(P[:, 0] - center[0]) < GUARD_L1  # necessary; cheap on a large grid
    if near.any():
        near[near] = np.abs(P[near] - center).sum(axis=1) < GUARD_L1
    return near


def _ratio_rows(channel: Channel, nc_value: float):
    """F(P) = L(P M_rev) / L(P) over the rows of P.

    Within GUARD_L1 of alpha, where both entropies vanish, F is the quadratic
    form of the second-order expansion (nc_value exactly at alpha); on the
    boundary of the simplex, where L(p) = +inf, F is 0.  The form bounds
    the ratio only on {sum v = 0}, so each row of P - alpha is centred first:
    within an ulp of alpha its rounded sum is not 0.
    """
    a = channel.stationary
    rev = channel.reversed
    inv_a = 1.0 / a

    def F(P: np.ndarray) -> np.ndarray:
        L = symmetrized_entropy_rows(P, a)
        ok = np.isfinite(L) & (L > 0.0)
        r = np.where(ok, symmetrized_entropy_rows(P @ rev, a) / np.where(ok, L, 1.0), 0.0)
        near = _near_rows(P, a)
        if near.any():
            D = P[near] - a
            D = D - D.mean(axis=1, keepdims=True)
            W = D @ rev
            den = (D * D * inv_a).sum(axis=1)
            num = (W * W * inv_a).sum(axis=1)
            r[near] = np.where(den == 0.0, nc_value, num / np.where(den == 0.0, 1.0, den))
        return r

    return F


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    p = np.exp(z)
    return p / p.sum()


def _maximize(F, q: int, center: np.ndarray, cfg: OptimizerConfig):
    """Best found (value, point, iterations, method, starts, grid_points) of
    the rows objective F over the q-simplex.  The q = 2 grid refines its
    best 8 local maxima and its maximum, and counts refinement evaluations
    as iterations; q >= 3 starts also perturb ``center``.  Fewer than one
    start is a ValueError for every q.
    """
    if cfg.starts < 1:
        raise ValueError(f"optimizer starts must be >= 1, got {cfg.starts}")
    if q == 2:
        n_points = max(int(cfg.grid_points), MIN_GRID_POINTS)
        t = np.linspace(1e-9, 1.0 - 1e-9, n_points)
        r = F(np.stack([t, 1.0 - t], axis=1))
        interior = np.where((r[1:-1] >= r[:-2]) & (r[1:-1] >= r[2:]))[0] + 1
        order = np.argsort(r[interior], kind="stable")
        top = int(np.argmax(r))
        cand = set(int(i) for i in interior[order][-8:]) | {top}
        best_v, best_t = float(r[top]), float(t[top])
        nfev = 0
        for i in sorted(cand):
            lo = float(t[max(i - 1, 0)])
            hi = float(t[min(i + 1, n_points - 1)])
            res = minimize_scalar(
                lambda tt: -F(np.array([[tt, 1.0 - tt]]))[0], bounds=(lo, hi),
                method="bounded", options={"xatol": 1e-13}
            )
            nfev += int(res.nfev)
            v = -float(res.fun)
            if v > best_v:
                best_v, best_t = v, float(res.x)
        return best_v, np.array([best_t, 1.0 - best_t]), nfev, "grid-1d", 0, n_points

    def nelder_mead(x0: np.ndarray, xatol: float):
        return minimize(
            lambda x: -F(_softmax(np.concatenate([x, [0.0]]))[None])[0],
            x0,
            method="Nelder-Mead",
            options={"maxiter": cfg.max_iters, "fatol": cfg.tol, "xatol": xatol},
        )

    def one_start(k: int):
        rng = np.random.default_rng([cfg.seed, k])
        if k < q:
            p0 = np.full(q, 1e-6 / q)
            p0[k] += 1.0 - 1e-6
        elif (k - q) % 2 == 0:
            p0 = rng.dirichlet(np.ones(q))
        else:
            p0 = _softmax(np.log(center) + 0.5 * rng.standard_normal(q))
        p0 = np.maximum(p0, 1e-12)
        res = nelder_mead(np.log(p0 / p0[-1])[:-1], 1e-10)
        return -float(res.fun), res.x, int(res.nit), bool(res.success)

    results = [one_start(k) for k in range(int(cfg.starts))]

    if not any(ok for _, _, _, ok in results):
        raise NoConvergence("no optimizer start converged within the iteration budget")

    iters = sum(nit for _, _, nit, _ in results)
    best_v, best_x = -math.inf, None
    for v, x, _, _ in results:  # first start wins ties: deterministic merge
        if v > best_v:
            best_v, best_x = v, x
    # one polish pass from the winning point
    res = nelder_mead(best_x, 1e-12)
    iters += int(res.nit)
    if -float(res.fun) > best_v:
        best_v, best_x = -float(res.fun), res.x
    best_p = _softmax(np.concatenate([best_x, [0.0]]))
    return best_v, best_p, iters, "multistart-nelder-mead", int(cfg.starts), 0


def compute_c(channel: Channel, config: OptimizerConfig | None = None) -> VariationalResult:
    """Best found value of sup_p L(p M_rev) / L(p), with the near-center limit merged.

    The supremum is searched by _maximize: a grid for q = 2, multistart
    Nelder-Mead for q >= 3.  The result is deterministic given config.
    """
    cfg = config or OptimizerConfig()
    a = channel.stationary
    nc_value, nc_dir = _near_center(channel)

    # representative point for the near-center candidate, inside the guard
    # zone (the largest entry of nc_dir is +-1)
    eps = 1e-9 * float(a.min())
    p_nc = _normalize_exact(a + eps * nc_dir)

    best_v, best_p, iters, method, starts, grid_points = _maximize(
        _ratio_rows(channel, nc_value), channel.q, a, cfg)

    near_wins = nc_value >= best_v
    value = nc_value if near_wins else best_v
    argmax = p_nc if near_wins else best_p
    trace = MethodTrace(
        method=method,
        starts=starts,
        grid_points=grid_points,
        iterations=iters,
        near_center_value=nc_value,
        # flag tolerates optimizer-level noise: a point beating the
        # directional limit by < 1e-9 is not evidence of an interior maximum
        near_center_is_max=bool(nc_value >= best_v - 1e-9),
        seed=cfg.seed,
    )
    return VariationalResult(value=float(value), argmax=_readonly(argmax), trace=trace)


def potts_cbar(q: int, beta: float, config: OptimizerConfig | None = None) -> float:
    """sup_p of the reduced Potts objective

        sum_i (q p_i - 1) log(1 + (e^{2 beta} - 1) p_i)
        -------------------------------------------------
        sum_i (q p_i - 1) log(q p_i)

    The product of this value with (e^{2 beta} - 1) / (e^{2 beta} + q - 1)
    equals c of the Potts channel.  Its limit at the uniform vector is that
    same prefactor, independent of direction, and is merged into the result.
    """
    cfg = config or OptimizerConfig()
    e2b = _potts_e2b(q, beta)
    g = e2b - 1.0
    lam = g / (e2b + q - 1.0)
    # The numerator pairs weights q*p-1 (which sum to 0 exactly only in real
    # arithmetic) with O(1) logarithms, so a 1-ulp defect in the weight sum
    # is amplified by 1/|p-u|^2 near the center.  Centering the weights and
    # shifting the logs by their center value makes both factors of every
    # term vanish there, which restores relative accuracy.
    log_center = math.log1p(g / q)
    u = np.full(q, 1.0 / q)

    def F(P: np.ndarray) -> np.ndarray:
        R = q * P - 1.0
        R = R - R.mean(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            den = (R * np.log1p(R)).sum(axis=1)
            num = (R * (np.log1p(g * P) - log_center)).sum(axis=1)
        ok = np.isfinite(den) & (den > 0.0) & np.isfinite(num)
        r = np.where(ok, num / np.where(ok, den, 1.0), 0.0)
        r[_near_rows(P, u)] = lam
        return r

    best_v = _maximize(F, q, u, cfg)[0]
    return float(max(best_v, lam))
