"""Variational constant c(M) = sup_p L(p M_rev) / L(p) over the simplex.

The ratio is 0/0 at p = alpha; its supremum over directions v with sum v = 0
of the second-order expansion is the generalized Rayleigh quotient

    sup_v  (sum_i (v M_rev)_i^2 / alpha_i) / (sum_i v_i^2 / alpha_i),

computed exactly as a generalized symmetric eigenproblem.  That near-center
value is always merged with the interior search, so the reported constant is
max(near-center limit, best evaluated ratio).

Search strategy: for q = 2 a dense 1-d grid (>= 1e5 points) with bounded
local refinement of every surviving local maximum; for q >= 3 multistart
Nelder-Mead in softmax coordinates (unconstrained in q-1 variables).
Start k draws its randomness from a stream seeded by (seed, k), and the
merge is a pure max-reduce, so results are identical for any degree of
parallelism.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh, null_space
from scipy.optimize import minimize, minimize_scalar

from .channels import Channel, _normalize_exact, _potts_e2b, _readonly
from .entropy import symmetrized_entropy, symmetrized_entropy_rows
from .errors import BadDimension, CenterSingularity, NoConvergence

CENTER_ATOL = 1e-12
GUARD_L1 = 1e-8  # inside this l1 distance of the center, use the quadratic form


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
    q = channel.q
    a = channel.stationary
    rev = channel.reversed
    B = null_space(np.ones((1, q)))  # orthonormal basis of {v : sum v = 0}
    D = np.diag(1.0 / a)
    A2 = B.T @ rev @ D @ rev.T @ B
    A2 = 0.5 * (A2 + A2.T)
    D2 = B.T @ D @ B
    D2 = 0.5 * (D2 + D2.T)
    w, V = eigh(A2, D2)
    v = B @ V[:, -1]
    v = v / np.max(np.abs(v))
    return float(w[-1]), v


def near_center_limit(channel: Channel) -> float:
    """Limit value of the ratio along the best direction through alpha."""
    return _near_center(channel)[0]


def _guarded_ratio(channel: Channel, nc_value: float):
    a = channel.stationary
    rev = channel.reversed
    inv_a = 1.0 / a

    def f(p: np.ndarray) -> float:
        d = p - a
        if np.abs(d).sum() < GUARD_L1:
            den = float(np.sum(d * d * inv_a))
            if den == 0.0:
                return nc_value
            w = d @ rev
            return float(np.sum(w * w * inv_a)) / den
        Lp = symmetrized_entropy(p, a)
        if not math.isfinite(Lp) or Lp <= 0.0:
            return 0.0
        return symmetrized_entropy(p @ rev, a) / Lp

    return f


def _grid_max_1d(rows_fn, f1, n_points: int, refine_top: int = 8):
    t = np.linspace(1e-9, 1.0 - 1e-9, n_points)
    r = rows_fn(t)
    interior = np.where((r[1:-1] >= r[:-2]) & (r[1:-1] >= r[2:]))[0] + 1
    if interior.size:
        order = np.argsort(r[interior], kind="stable")
        cand = set(int(i) for i in interior[order][-refine_top:])
    else:
        cand = set()
    cand.add(int(np.argmax(r)))
    best_v = float(np.max(r))
    best_t = float(t[int(np.argmax(r))])
    nfev = 0
    for i in sorted(cand):
        lo = float(t[max(i - 1, 0)])
        hi = float(t[min(i + 1, n_points - 1)])
        res = minimize_scalar(
            lambda tt: -f1(tt), bounds=(lo, hi), method="bounded", options={"xatol": 1e-13}
        )
        nfev += int(res.nfev)
        v = -float(res.fun)
        if v > best_v:
            best_v, best_t = v, float(res.x)
    return best_v, best_t, nfev


def _softmax_ext(x: np.ndarray, q: int) -> np.ndarray:
    z = np.concatenate([x, [0.0]])
    z = z - z.max()
    p = np.exp(z)
    return p / p.sum()


def _multistart_max(f, q: int, center: np.ndarray, cfg: OptimizerConfig, threads: int):
    def one_start(k: int):
        rng = np.random.default_rng([cfg.seed, k])
        if k < q:
            p0 = np.full(q, 1e-6 / q)
            p0[k] += 1.0 - 1e-6
        elif (k - q) % 2 == 0:
            p0 = rng.dirichlet(np.ones(q))
        else:
            z = np.log(center) + 0.5 * rng.standard_normal(q)
            z = z - z.max()
            p0 = np.exp(z)
            p0 = p0 / p0.sum()
        p0 = np.maximum(p0, 1e-12)
        x0 = np.log(p0 / p0[-1])[:-1]
        res = minimize(
            lambda x: -f(_softmax_ext(x, q)),
            x0,
            method="Nelder-Mead",
            options={"maxiter": cfg.max_iters, "fatol": cfg.tol, "xatol": 1e-10},
        )
        return -float(res.fun), res.x, int(res.nit), bool(res.success)

    n = max(int(cfg.starts), 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(one_start, range(n)))
    else:
        results = [one_start(k) for k in range(n)]

    if not any(ok for _, _, _, ok in results):
        raise NoConvergence("no optimizer start converged within the iteration budget")

    iters = sum(nit for _, _, nit, _ in results)
    best_v, best_x = -math.inf, None
    for v, x, _, _ in results:  # first start wins ties: deterministic merge
        if v > best_v:
            best_v, best_x = v, x
    # one polish pass from the winning point
    res = minimize(
        lambda x: -f(_softmax_ext(x, q)),
        best_x,
        method="Nelder-Mead",
        options={"maxiter": cfg.max_iters, "fatol": cfg.tol, "xatol": 1e-12},
    )
    iters += int(res.nit)
    if -float(res.fun) > best_v:
        best_v, best_x = -float(res.fun), res.x
    return best_v, _softmax_ext(best_x, q), iters


def _resolve_threads(threads: int | None) -> int:
    if threads is None or threads <= 0:
        return os.cpu_count() or 1
    return int(threads)


def compute_c(channel: Channel, config: OptimizerConfig | None = None,
              threads: int | None = 1) -> VariationalResult:
    """Best found value of sup_p L(p M_rev) / L(p), with the near-center limit merged.

    For q = 2 the supremum is located on a dense grid over the 1-simplex and
    refined; for q >= 3, multistart Nelder-Mead in softmax coordinates.  The
    result is deterministic given config.seed, for any thread count.
    """
    cfg = config or OptimizerConfig()
    threads = _resolve_threads(threads)
    q = channel.q
    a = channel.stationary
    nc_value, nc_dir = _near_center(channel)
    f = _guarded_ratio(channel, nc_value)

    # representative point for the near-center candidate, inside the guard zone
    eps = 1e-9 * float(a.min()) / float(np.max(np.abs(nc_dir)))
    p_nc = _normalize_exact(a + eps * nc_dir)

    if q == 2:
        rev = channel.reversed

        def rows_fn(t: np.ndarray) -> np.ndarray:
            P = np.stack([t, 1.0 - t], axis=1)
            L = symmetrized_entropy_rows(P, a)
            LM = symmetrized_entropy_rows(P @ rev, a)
            ok = np.isfinite(L) & (L > 0.0)
            r = np.where(ok, LM / np.where(ok, L, 1.0), 0.0)
            return np.where(np.abs(t - a[0]) < 0.5 * GUARD_L1, nc_value, r)

        n_points = max(int(cfg.grid_points), 100_001)
        best_v, best_t, iters = _grid_max_1d(rows_fn, lambda tt: f(np.array([tt, 1.0 - tt])),
                                             n_points)
        best_p = np.array([best_t, 1.0 - best_t])
        method, starts, grid_points = "grid-1d", 0, n_points
    else:
        best_v, best_p, iters = _multistart_max(f, q, a, cfg, threads)
        method, starts, grid_points = "multistart-nelder-mead", int(cfg.starts), 0

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


def potts_cbar(q: int, beta: float, config: OptimizerConfig | None = None,
               threads: int | None = 1) -> float:
    """sup_p of the reduced Potts objective

        sum_i (q p_i - 1) log(1 + (e^{2 beta} - 1) p_i)
        -------------------------------------------------
        sum_i (q p_i - 1) log(q p_i)

    The product of this value with (e^{2 beta} - 1) / (e^{2 beta} + q - 1)
    equals c of the Potts channel.  Its limit at the uniform vector is that
    same prefactor, independent of direction, and is merged into the result.
    """
    if not isinstance(q, (int, np.integer)) or q < 2:
        raise BadDimension(f"potts objective needs integer q >= 2, got {q!r}")
    cfg = config or OptimizerConfig()
    threads = _resolve_threads(threads)
    e2b = _potts_e2b(beta)
    g = e2b - 1.0
    lam = g / (e2b + q - 1.0)
    u = np.full(q, 1.0 / q)
    # The numerator pairs weights q*p-1 (which sum to 0 exactly only in real
    # arithmetic) with O(1) logarithms, so a 1-ulp defect in the weight sum
    # is amplified by 1/|p-u|^2 near the center.  Centering the weights and
    # shifting the logs by their center value makes both factors of every
    # term vanish there, which restores relative accuracy.
    log_center = math.log1p(g / q)

    def f(p: np.ndarray) -> float:
        if np.abs(p - u).sum() < GUARD_L1:
            return lam
        r = q * p - 1.0
        r = r - r.mean()
        with np.errstate(divide="ignore", invalid="ignore"):
            den = float(np.sum(r * np.log1p(r)))
            num = float(np.sum(r * (np.log1p(g * p) - log_center)))
        if not math.isfinite(den) or den <= 0.0 or not math.isfinite(num):
            return 0.0
        return num / den

    if q == 2:

        def rows_fn(t: np.ndarray) -> np.ndarray:
            P = np.stack([t, 1.0 - t], axis=1)
            R = 2.0 * P - 1.0
            R = R - R.mean(axis=1, keepdims=True)
            num = (R * (np.log1p(g * P) - log_center)).sum(axis=1)
            den = (R * np.log1p(R)).sum(axis=1)
            ok = np.isfinite(den) & (den > 0.0) & np.isfinite(num)
            r = np.where(ok, num / np.where(ok, den, 1.0), 0.0)
            return np.where(np.abs(t - 0.5) < 0.5 * GUARD_L1, lam, r)

        n_points = max(int(cfg.grid_points), 100_001)
        best_v, _, _ = _grid_max_1d(rows_fn, lambda tt: f(np.array([tt, 1.0 - tt])), n_points)
    else:
        best_v, _, _ = _multistart_max(f, q, u, cfg, threads)
    return float(max(best_v, lam))
