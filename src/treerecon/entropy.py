"""Relative entropy and its symmetrization, with exact handling of zeros.

Conventions: natural logarithms, 0 * log 0 = 0, and S(p|q) = +inf whenever
p puts mass where q has none.  The symmetrized form

    L(p) = S(p|alpha) + S(alpha|p) = sum_i (p_i - alpha_i) log(p_i / alpha_i)

is computed termwise as d * log1p(d / alpha) when |d| is small relative to
alpha, which keeps full relative accuracy near p = alpha where both factors
of each term vanish.

The rows kernel works states-major: it copies each block of _CHUNK rows of
an (S, q) array once to (q, rows) and then runs every elementwise step and
the sum over states along rows.  In the (S, q) layout each numpy call runs
an inner loop only q entries long, which at q = 2 makes a call 5-20x slower
than the same call in (q, S) order; a block of _CHUNK rows keeps the
temporaries small enough to stay in cache and to be reused instead of
page-faulted in afresh.  The sum over states follows the order in which
numpy's pairwise summation adds the q entries of a row, so the result is
bit-identical to summing the (S, q) terms along axis 1.  The branches and
the sum over states are _states_sum, which the q >= 3 search objective of
variational also runs, once over a stack of both of its entropies.
"""

from __future__ import annotations

import math

import numpy as np

# Rows per block of symmetrized_entropy_rows.
_CHUNK = 16384


def rel_entr(p, q) -> np.ndarray:
    """Termwise p log(p / q): 0 where p = 0, +inf where q = 0 < p."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p == 0.0, 0.0, np.where(q == 0.0, np.inf, p * np.log(p / q)))


def relative_entropy(p, q) -> float:
    """S(p|q) = sum_i p_i log(p_i / q_i); may be +inf, never raises."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(np.sum(rel_entr(p, q)))


def symmetrized_entropy(p, alpha, M=None) -> float:
    """L(p) = sum_i (p_i - alpha_i) log(p_i / alpha_i); may be +inf, never raises.
    Given M, L(p M) as in symmetrized_entropy_rows."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(alpha, dtype=float)
    if M is not None:
        return float(symmetrized_entropy_rows(p[None], a, M)[0])
    if np.any((p == 0.0) != (a == 0.0)):
        return math.inf
    m = a > 0.0
    return float(symmetrized_entropy_rows(p[None, m], a[m])[0])


def pairwise_sum(X: np.ndarray) -> np.ndarray:
    """Sum over the first axis, bit for bit as np.sum(X, axis=0) when that
    axis is contiguous: numpy's pairwise order over the n entries.

    Below 8 entries numpy adds in sequence; up to 128 it keeps 8 running
    sums, one per residue mod 8, adds them as a balanced tree and then the
    remainder in sequence; above 128 it splits at n // 2 rounded down to a
    multiple of 8.  The first entries are added to 0.0, as numpy starts
    from that identity, which turns -0.0 into 0.0.
    """
    n = len(X)
    if n == 0:
        return np.zeros(X.shape[1:])
    if n < 8:
        out = X[0] + 0.0
        for i in range(1, n):
            out += X[i]
        return out
    if n <= 128:
        acc = X[:8] + 0.0
        full = n - n % 8
        for i in range(8, full, 8):
            acc += X[i:i + 8]
        out = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for i in range(full, n):
            out += X[i]
        return out
    half = n // 2
    half -= half % 8
    return pairwise_sum(X[:half]) + pairwise_sum(X[half:])


def symmetrized_entropy_rows(P: np.ndarray, alpha: np.ndarray, M=None) -> np.ndarray:
    """Vectorized L over the rows of P, against a strictly positive alpha.

    A row with a zero entry gives +inf, through log 0 = -inf; entries of P
    must not be negative.  Given a q x q M with alpha M = alpha, the rows are
    L(p M) in deviation form: d = p - alpha (exact by Sterbenz's lemma near
    alpha) is projected along alpha onto sum d = 0 and mapped by M, which
    keeps full relative accuracy however close p is to alpha.  The log branch
    takes p M; a projected d below -alpha_i, where p_i ~ 0, lands there too.
    """
    P = np.asarray(P, dtype=float)
    a = np.asarray(alpha, dtype=float)[:, None]
    log_a = np.log(a)
    if M is not None:
        # (d - (sum d) alpha) M = d M - (sum d) alpha: one matrix for both
        Mt = np.asarray(M, dtype=float).T
        Md = Mt - a
    L = np.empty(len(P))
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(0, len(P), _CHUNK):
            B = P[s:s + _CHUNK].T.copy()
            d = B - a
            if M is not None:
                d, B = Md @ d, Mt @ B
            L[s:s + _CHUNK] = _states_sum(d, B, a, log_a)
    return L


def _states_sum(d: np.ndarray, B: np.ndarray, a: np.ndarray, log_a: np.ndarray) -> np.ndarray:
    """The symmetrized-entropy terms summed over states, which run along
    axis -2 of the states-major arrays d (deviations) and B (points), in
    numpy's pairwise order: d log1p(d / alpha) where |d / alpha| < 0.5,
    d (log B - log alpha) elsewhere.  a and log_a are alpha and its log
    shaped (q, 1).  B is overwritten; call under
    np.errstate(divide="ignore", invalid="ignore"), as log 0 = -inf and a
    d below -alpha gives NaN in the log1p branch, which the other branch
    then replaces."""
    r = d / a
    small = np.abs(r) < 0.5
    # in place: r becomes d log1p(r), B becomes d (log p - log alpha)
    np.log1p(r, out=r)
    r *= d
    np.log(B, out=B)
    B -= log_a
    B *= d
    np.copyto(B, r, where=small)
    return pairwise_sum(B.swapaxes(0, -2))
