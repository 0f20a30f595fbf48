"""Orthogonal polynomials and quadrature primitives.

Everything downstream (normalization coefficients, closed-form states, the
verification oracle) reduces to generalized Laguerre polynomials L_n^(α),
Gegenbauer polynomials C_m^(λ), log-gamma ratios and Gauss–Legendre rules.
Polynomials are evaluated by upward three-term recurrence, which is stable
for the bounded degrees (n ≤ 200) needed here; series forms are kept in the
test suite as independent oracles.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuadratureRule",
    "laguerre",
    "laguerre_deriv",
    "gegenbauer",
    "log_gamma",
    "gauss_legendre",
]

MAX_DEGREE = 200
MAX_QUAD_POINTS = 4096

_lgamma = np.vectorize(math.lgamma, otypes=[float])


@dataclass(frozen=True)
class QuadratureRule:
    """Integration rule on [-1, 1].

    Attributes
    ----------
    nodes : ndarray
        Abscissas, strictly increasing, all inside (-1, 1).
    weights : ndarray
        Positive weights; they sum to 2 (the measure of [-1, 1]).
    kind : str
        Rule family; only "gauss_legendre" is produced here.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str = field(default="gauss_legendre")


def _check_degree(k: int, name: str) -> int:
    if k != int(k) or k < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {k!r}")
    if k > MAX_DEGREE:
        raise ValueError(f"{name}={k} exceeds the supported maximum {MAX_DEGREE}")
    return int(k)


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^(α)(x).

    Parameters
    ----------
    n : int
        Degree, 0 ≤ n ≤ 200.
    alpha : float
        Order, must satisfy α > -1 (the orthogonality weight x^α e^-x
        is otherwise not integrable).
    x : float or array_like
        Evaluation points, x ≥ 0.

    Returns
    -------
    float or ndarray
        L_n^(α)(x) by the three-term recurrence
        (k+1) L_{k+1} = (2k+1+α-x) L_k - (k+α) L_{k-1}.
    """
    n = _check_degree(n, "n")
    if not alpha > -1:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("laguerre is defined here for x >= 0 only")
    prev = np.ones_like(x_arr)
    if n == 0:
        return prev if x_arr.ndim else float(prev)
    cur = 1.0 + alpha - x_arr
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x_arr) * cur - (k + alpha) * prev) / (k + 1)
    return cur if x_arr.ndim else float(cur)


def laguerre_deriv(n: int, alpha: float, x):
    """First derivative d/dx L_n^(α)(x) = -L_{n-1}^(α+1)(x); zero for n = 0."""
    n = _check_degree(n, "n")
    if not alpha > -1:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    if n == 0:
        x_arr = np.asarray(x, dtype=float)
        out = np.zeros_like(x_arr)
        return out if x_arr.ndim else 0.0
    val = laguerre(n - 1, alpha + 1.0, x)
    return -val


def gegenbauer(m: int, lam: float, x):
    """Gegenbauer (ultraspherical) polynomial C_m^(λ)(x).

    Parameters
    ----------
    m : int
        Degree, 0 ≤ m ≤ 200.
    lam : float
        Order λ > -1/2 and λ ≠ 0. λ = 0 is rejected: the classical
        normalization degenerates there (every C_m^(0) with m ≥ 1 is
        identically zero) and the weight-space orthogonality constant
        is undefined.
    x : float or array_like
        Evaluation points in [-1, 1].

    Returns
    -------
    float or ndarray
        C_m^(λ)(x) by the recurrence
        k C_k = 2x(k-1+λ) C_{k-1} - (k-2+2λ) C_{k-2}.
    """
    m = _check_degree(m, "m")
    if not lam > -0.5 or lam == 0.0:
        raise ValueError(f"lam must be > -1/2 and nonzero, got {lam}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < -1.0) or np.any(x_arr > 1.0):
        raise ValueError("gegenbauer is defined on x in [-1, 1]")
    prev = np.ones_like(x_arr)
    if m == 0:
        return prev if x_arr.ndim else float(prev)
    cur = 2.0 * lam * x_arr
    for k in range(2, m + 1):
        prev, cur = cur, (2.0 * x_arr * (k - 1 + lam) * cur - (k - 2 + 2 * lam) * prev) / k
    return cur if x_arr.ndim else float(cur)


def log_gamma(x):
    """Natural log of Γ(x) for x > 0 (vectorized over arrays).

    Normalization coefficients contain ratios like n!/Γ(n+α+1) with α as
    large as √(m²+a²/4)/(a+1); they are always assembled in log space and
    exponentiated once, so this is the only gamma entry point.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("log_gamma requires x > 0")
    out = _lgamma(x_arr)
    return out if x_arr.ndim else float(out)


def _read_only_rule(nodes: np.ndarray, weights: np.ndarray) -> QuadratureRule:
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


@functools.lru_cache(maxsize=64)
def gauss_legendre(npoints: int) -> QuadratureRule:
    """Gauss–Legendre rule with `npoints` nodes on [-1, 1].

    Nodes are the roots of P_n found by Newton iteration on the Legendre
    recurrence (Chebyshev-angle initial guesses), tolerance 1e-15, at most
    100 iterations per node; weights are 2 / ((1-x²) P'_n(x)²).  Exact for
    polynomials of degree ≤ 2n-1.  Rules are built once per npoints and
    shared, so their arrays are read-only.
    """
    if npoints != int(npoints) or npoints < 1:
        raise ValueError(f"npoints must be a positive integer, got {npoints!r}")
    if npoints > MAX_QUAD_POINTS:
        raise ValueError(f"npoints={npoints} exceeds the supported maximum {MAX_QUAD_POINTS}")
    n = int(npoints)
    if n == 1:
        return _read_only_rule(np.array([0.0]), np.array([2.0]))

    # roots in the right half, largest first; the rest come by symmetry
    k = np.arange(1, n // 2 + n % 2 + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(100):
        p_prev = np.ones_like(x)
        p = x.copy()
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break

    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w_half = 2.0 / ((1.0 - x * x) * dp * dp)

    # x holds the right-half roots largest-first; mirror into ascending order
    if n % 2:
        # odd count: the Chebyshev guess already contains the center node,
        # which Newton pins to exactly 0; avoid duplicating it on mirroring
        x[-1] = 0.0
        nodes = np.concatenate([-x[:-1], x[::-1]])
        weights = np.concatenate([w_half[:-1], w_half[::-1]])
    else:
        nodes = np.concatenate([-x, x[::-1]])
        weights = np.concatenate([w_half, w_half[::-1]])
    return _read_only_rule(nodes, weights)
