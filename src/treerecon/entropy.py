"""Relative entropy and its symmetrization, with exact handling of zeros.

Conventions: natural logarithms, 0 * log 0 = 0, and S(p|q) = +inf whenever
p puts mass where q has none.  The symmetrized form

    L(p) = S(p|alpha) + S(alpha|p) = sum_i (p_i - alpha_i) log(p_i / alpha_i)

is computed termwise as d * log1p(d / alpha) when |d| is small relative to
alpha, which keeps full relative accuracy near p = alpha where both factors
of each term vanish.
"""

from __future__ import annotations

import math

import numpy as np


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


def symmetrized_entropy(p, alpha) -> float:
    """L(p) = sum_i (p_i - alpha_i) log(p_i / alpha_i); may be +inf, never raises."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(alpha, dtype=float)
    if np.any((p == 0.0) != (a == 0.0)):
        return math.inf
    m = a > 0.0
    return float(symmetrized_entropy_rows(p[None, m], a[m])[0])


def symmetrized_entropy_rows(P: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Vectorized L over the rows of P, against a strictly positive alpha."""
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
