"""Finite-state Markov channels with a stationary law and their time reversal.

A channel is a strictly positive row-stochastic q x q matrix M together with
its unique stationary distribution alpha and the reversed kernel

    M_rev(i, j) = alpha(j) * M(j, i) / alpha(i).

Beliefs (probability vectors over the q states) are plain numpy arrays.
States are indexed 0..q-1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BadDimension,
    BadPermutation,
    ChannelError,
    NoConvergence,
    NonPositiveEntry,
    NotStochastic,
)

ROW_SUM_ATOL = 1e-9
BELIEF_SUM_ATOL = 1e-12
STATIONARY_RESIDUAL = 1e-12


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _normalize_exact(v: np.ndarray) -> np.ndarray:
    # Normalize and then push the rounding defect into the largest entry so
    # np.sum of the result is exactly 1.0.  Keeps downstream identities exact.
    # Rounding inside the sum can make that correction overshoot back and
    # forth; then the entry, and after it each smaller nonzero entry in turn,
    # moves by single ulps, which keeps every entry's sign.
    v = v / v.sum()
    for rank, k in enumerate(np.argsort(-v, kind="stable")[:np.count_nonzero(v)]):
        w = v.copy()
        for step in range(16):
            defect = w.sum() - 1.0
            if defect == 0.0:
                return w
            if rank == 0 and step < 3:
                w[k] -= defect
            else:
                w[k] = np.nextafter(w[k], -np.inf if defect > 0 else np.inf)
    return v


def as_belief(vec, q: int | None = None) -> np.ndarray:
    """Validate a probability vector: entries >= 0, sum 1 within 1e-12."""
    p = np.asarray(vec, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise BadDimension(f"belief must be a vector of length >= 2, got shape {p.shape}")
    if q is not None and p.size != q:
        raise BadDimension(f"belief has length {p.size}, expected {q}")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ChannelError("belief entries must be finite and nonnegative")
    if abs(p.sum() - 1.0) > BELIEF_SUM_ATOL:
        raise ChannelError(f"belief sums to {float(p.sum())!r}, not 1 within {BELIEF_SUM_ATOL}")
    return p


@dataclass(frozen=True)
class Channel:
    """Validated positive channel; arrays are read-only.

    Attributes
    ----------
    q : number of states
    matrix : (q, q) row-stochastic transition matrix, entries > 0
    stationary : (q,) stationary distribution alpha, np.sum == 1.0 exactly
    reversed : (q, q) reversed kernel, satisfies detailed balance with matrix
    label : optional human-readable description used in reports
    lumped : (2 x 2 matrix of the lumped chain, lam) of a Potts channel with
        beta >= 0, else None; set by potts_channel only, and not compared
    """

    q: int
    matrix: np.ndarray
    stationary: np.ndarray
    reversed: np.ndarray
    label: str | None = field(default=None, compare=False)
    lumped: tuple[tuple, float] | None = field(default=None, compare=False, repr=False)


def _validate_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadDimension(f"channel matrix must be square, got shape {m.shape}")
    if m.shape[0] < 2:
        raise BadDimension("channel needs at least 2 states")
    if not np.all(np.isfinite(m)):
        raise NotStochastic("channel matrix has non-finite entries")
    if np.any(m <= 0.0):
        raise NonPositiveEntry("channel matrix entries must be strictly positive")
    rows = m.sum(axis=1)
    bad = np.abs(rows - 1.0) > ROW_SUM_ATOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NotStochastic(f"row {i} sums to {float(rows[i])!r}, not 1 within {ROW_SUM_ATOL}")
    # exact renormalization after validation: _normalize_exact's own division
    # for all rows at once, then its ulp walk on the rows that need it
    m = m / rows[:, None]
    out = m / m.sum(axis=1)[:, None]
    for i in np.flatnonzero(out.sum(axis=1) != 1.0):
        out[i] = _normalize_exact(m[i])
    return out


def _positive(a: np.ndarray, name: str) -> np.ndarray:
    # An entry below the smallest normal double has too few bits to resolve:
    # products with it underflow to 0, and the objective's ratios overflow.
    if np.any(a < np.finfo(float).tiny):
        raise NoConvergence(f"{name} has an entry below the smallest normal "
                            "double: the channel is too extreme to resolve")
    return a


def _stationary_of(m: np.ndarray) -> np.ndarray:
    # Grassmann-Taksar-Heyman elimination (Oper. Res. 33, 1985): censor the
    # chain to states 0..k-1 for k = q-1, ..., 1, then rebuild alpha upward,
    # renormalizing at each step so that nothing overflows.  It reads only
    # off-diagonal entries and never subtracts, so every entry of alpha keeps
    # its relative accuracy however close M is to the identity.
    q = m.shape[0]
    A = m.copy()
    down = np.empty(q)  # down[k]: probability of leaving k for a lower state
    for k in range(q - 1, 0, -1):
        down[k] = A[k, :k].sum()
        A[k, :k] /= down[k]
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    a = np.zeros(q)
    a[0] = 1.0
    for k in range(1, q):
        up = a[:k] @ A[:k, k]  # flow into k from below, a[:k] summing to 1
        a[:k] *= down[k] / (down[k] + up)
        a[k] = up / (down[k] + up)
    a = _normalize_exact(a)
    residual = float(np.max(np.abs(a @ m - a)))
    if residual > STATIONARY_RESIDUAL:
        raise NoConvergence(f"stationary distribution residual {residual:.3e} "
                            f"exceeds {STATIONARY_RESIDUAL}")
    return _positive(a, "stationary distribution")


def stationary_distribution(matrix) -> np.ndarray:
    """Stationary distribution of a positive row-stochastic matrix.

    Solved by Grassmann-Taksar-Heyman elimination, which reads only the
    off-diagonal entries and never subtracts, so each entry is accurate to a
    few ulps relative; the returned vector satisfies max|alpha M - alpha| <=
    1e-12, or NoConvergence is raised.
    """
    m = _validate_matrix(matrix)
    return _stationary_of(m)


def make_channel(matrix, label: str | None = None) -> Channel:
    """Build a validated Channel from a row-stochastic matrix.

    Raises NotStochastic / NonPositiveEntry / BadDimension on invalid input.
    Rows are renormalized exactly after validation, so row sums of the stored
    matrix are exactly 1.0.
    """
    m = _validate_matrix(matrix)
    alpha = _stationary_of(m)
    rev = _positive((alpha[None, :] * m.T) / alpha[:, None], "reversed kernel")
    return Channel(
        q=m.shape[0],
        matrix=_readonly(m),
        stationary=_readonly(alpha),
        reversed=_readonly(rev),
        label=label,
    )


def second_eigenvalue(channel: Channel) -> float:
    """Modulus of the second-largest eigenvalue of the channel matrix.

    Eigenvalues are ranked by modulus; complex pairs contribute their modulus.
    """
    try:
        ev = np.linalg.eigvals(channel.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence("eigenvalue computation failed") from exc
    mods = np.sort(np.abs(ev))
    return float(mods[-2])


def _potts_e2b(q: int, beta: float) -> float:
    """e^{2 beta} for a Potts channel on q states; where it overflows, the
    off-diagonal entry 1 / (e^{2 beta} + q - 1) lies below the smallest
    normal double."""
    if not isinstance(q, (int, np.integer)) or q < 2:
        raise BadDimension(f"Potts q must be an integer >= 2, got {q!r}")
    if not math.isfinite(beta):
        raise ChannelError(f"beta must be finite, got {beta!r}")
    try:
        return math.exp(2.0 * beta)
    except OverflowError:
        raise NonPositiveEntry(f"beta={beta!r} is too large: the off-diagonal "
                               "Potts entries underflow to zero") from None


def potts_channel(q: int, beta: float) -> Channel:
    """Potts channel: diagonal e^{2 beta} / (e^{2 beta} + q - 1), off-diagonal
    1 / (e^{2 beta} + q - 1).  Symmetric, stationary law uniform.  For
    beta >= 0 it carries the exact lumping of state 0 against the rest and
    lam = expm1(2 beta) / (e^{2 beta} + q - 1), free of the cancellation in
    e^{2 beta} - 1."""
    e2b = _potts_e2b(q, beta)
    denom = e2b + q - 1.0
    m = np.full((q, q), 1.0 / denom)
    np.fill_diagonal(m, e2b / denom)
    ch = make_channel(m, label=f"potts(q={q}, beta={beta:g})")
    if beta < 0:
        return ch
    # e2b + (q - 2) keeps a q = 2 chain bit for bit equal to the channel
    pair = ((e2b / denom, (q - 1) / denom), (1.0 / denom, (e2b + (q - 2)) / denom))
    return replace(ch, lumped=(pair, math.expm1(2.0 * beta) / denom))


def _check_deltas(delta1: float, delta2: float) -> None:
    for name, d in (("delta1", delta1), ("delta2", delta2)):
        if not (0.0 < d < 1.0):
            raise NonPositiveEntry(f"{name} must lie strictly in (0, 1), got {d!r}")


def binary_channel(delta1: float, delta2: float) -> Channel:
    """Two-state channel [[1-delta1, delta1], [1-delta2, delta2]].

    Requires 0 < delta1, delta2 < 1 strictly.  The stationary law is
    (1-delta2, delta1) / (1 - delta2 + delta1).
    """
    _check_deltas(delta1, delta2)
    m = np.array([[1.0 - delta1, delta1], [1.0 - delta2, delta2]])
    return make_channel(m, label=f"binary(delta1={delta1:g}, delta2={delta2:g})")


def permute_channel(channel: Channel, perm) -> Channel:
    """Permuted channel M_pi(i, j) = M(i, pi^{-1}(j)) for a permutation pi of 0..q-1."""
    p = np.asarray(perm)
    q = channel.q
    if p.shape != (q,) or not np.issubdtype(p.dtype, np.integer):
        raise BadPermutation(f"permutation must be {q} integers, got {perm!r}")
    if not np.array_equal(np.sort(p), np.arange(q)):
        raise BadPermutation(f"{perm!r} is not a permutation of 0..{q - 1}")
    inv = np.argsort(p)  # inv[j] = pi^{-1}(j)
    m = channel.matrix[:, inv]
    label = f"{channel.label}@perm{list(map(int, p))}" if channel.label else None
    return make_channel(m, label=label)


def _json_number(obj: dict, key: str, integer: bool = False):
    """obj[key] as a float, or as an int if integer; a value that is not a
    number, or a fractional one where an integer is due, is a ChannelError."""
    try:
        x = float(obj[key])
    except (TypeError, ValueError, OverflowError):
        raise ChannelError(f"channel field {key!r} must be a number, got {obj[key]!r}") from None
    if not integer:
        return x
    if not x.is_integer():
        raise ChannelError(f"channel field {key!r} must be an integer, got {obj[key]!r}")
    return int(x)


def channel_from_json(obj: dict) -> Channel:
    """Build a channel from its JSON description.

    Accepted forms:
      {"q": int, "matrix": [[...], ...]}
      {"family": "potts", "q": int, "beta": float}
      {"family": "binary", "delta1": float, "delta2": float}
    """
    if not isinstance(obj, dict):
        raise ChannelError(f"channel description must be an object, got {type(obj).__name__}")
    family = obj.get("family")
    if family == "potts":
        missing = {"q", "beta"} - obj.keys()
        if missing:
            raise ChannelError(f"potts channel requires keys {sorted(missing)}")
        return potts_channel(_json_number(obj, "q", integer=True), _json_number(obj, "beta"))
    if family == "binary":
        missing = {"delta1", "delta2"} - obj.keys()
        if missing:
            raise ChannelError(f"binary channel requires keys {sorted(missing)}")
        return binary_channel(_json_number(obj, "delta1"), _json_number(obj, "delta2"))
    if family is not None:
        raise ChannelError(f"unknown channel family {family!r}")
    if "matrix" not in obj:
        raise ChannelError("channel description needs either 'family' or 'matrix'")
    matrix = obj["matrix"]
    ch = make_channel(matrix, label="matrix")
    if "q" in obj and _json_number(obj, "q", integer=True) != ch.q:
        raise ChannelError(f"declared q={obj['q']} but matrix is {ch.q}x{ch.q}")
    return ch


def channel_to_json(channel: Channel) -> dict:
    """Lossless JSON description (matrix form)."""
    return {"q": channel.q, "matrix": channel.matrix.tolist()}
