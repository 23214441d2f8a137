"""Sketch-and-solve least squares and sketched low-rank approximation.

Both pipelines report their quality as a ratio against the exact optimum
(QR least squares, or the Eckart-Young tail), with one shared convention
for exactly solvable instances: errors at or below 1e-10 times the problem
scale count as zero; both zero gives ratio 1, and a zero optimum with a
nonzero sketched error gives ratio inf.

The optimum depends on A alone: the caller computes it once per A and
passes it in.

The low-rank route follows the five quoted steps of the range-finder:
Y = SA, thin QR of Yᵀ, B = AQ, rank-k SVD of B, V_k = Q @ W_k (writing W_k
for B's right singular vectors, since the final output is also called V_k).
It is a sketch only while k <= m < d: at m >= d the basis spans all of
R^d and the error is the optimum whatever S is, so such an m is refused.
So is m > n: Y then has rank at most n, and the QR would fill the basis
with directions the sketch never saw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (LstsqFactor, _as_matrix, _norm, lstsq_exact, numerical_rank, singular_values,
                     svd, thin_qr)
from .sketch import SketchOperator, sketch_apply

_ZERO_REL = 1e-10


@dataclass
class LsqResult:
    x_tilde: np.ndarray
    sketched_residual: float
    optimal_residual: float
    ratio: float


@dataclass
class LowRankResult:
    V_k: np.ndarray
    sketch_error: float
    ratio: float
    rank_deficient: bool = False


def _ratio(err: float, opt: float, scale: float) -> float:
    thr = _ZERO_REL * scale
    if err <= thr and opt <= thr:
        return 1.0
    if opt <= thr:
        return float("inf")
    return err / opt


def sketch_and_solve_lsq(a, b, op: SketchOperator, exact: LstsqFactor) -> LsqResult:
    """Solve argmin ||SAx - Sb|| and measure the result on the original system.

    ``exact`` is ``lstsq_factor(a)``, the unsketched solve's factor, made
    once for any number of right sides.
    """
    a = _as_matrix(a)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or len(b) != a.shape[0]:
        raise ValueError(f"b must be a length-{a.shape[0]} vector, got shape {b.shape}")
    sa = sketch_apply(op, a)
    sb = sketch_apply(op, b[:, None])[:, 0]
    x_tilde = lstsq_exact(sa, sb)
    x_star = exact.solve(b)
    # _norm rescales a sum of squares that overflows; the overflow itself is expected
    with np.errstate(over="ignore"):
        sketched = _norm(a @ x_tilde - b)
        optimal = _norm(a @ x_star - b)
        scale = _norm(b)
    return LsqResult(
        x_tilde=x_tilde,
        sketched_residual=sketched,
        optimal_residual=optimal,
        ratio=_ratio(sketched, optimal, scale),
    )


def best_rank_k_error(a, k: int) -> float:
    """Frobenius error of the optimal rank-k approximation: sqrt(sum of tail sigma^2)."""
    a = _as_matrix(a)
    r = min(a.shape)
    if not 1 <= k <= r:
        raise ValueError(f"k must be in [1, {r}], got {k}")
    sig = singular_values(a)
    with np.errstate(over="ignore"):
        return _norm(sig[k:])


def lowrank_approx(a, k: int, op: SketchOperator, optimal_error: float) -> LowRankResult:
    """Rank-k approximation through a row-space sketch.

    The operator is applied to A from the left (its column count must equal
    A's row count), so Y = SA summarizes A's rows.  ``optimal_error`` is
    ``best_rank_k_error(a, k)``, made once per A.  Requires k <= m < d and
    m <= n.  A sketch whose numerical rank falls below k is flagged
    ``rank_deficient`` and the pipeline continues with the trailing basis
    directions rather than aborting.  The column signs of ``V_k`` are not
    normalized (see ``linalg``); the error and ratio do not depend on them.
    """
    a = _as_matrix(a)
    n, d = a.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k must be in [1, {min(n, d)}], got {k}")
    m = op.m
    if m < k:
        raise ValueError(f"sketch rows m={m} must be at least k={k}")
    if m >= d:
        raise ValueError(f"sketch rows m={m} must be below the d={d} columns of A: "
                         "a basis of all of R^d gives the optimum whatever the sketch")
    if m > n:
        raise ValueError(f"basis of m={m} directions exceeds the {n} rows of A")
    q, r = thin_qr(sketch_apply(op, a).T)
    rank_deficient = numerical_rank(np.diag(r)) < k
    b = a @ q
    w_k = svd(b).V[:, :k]
    v_k = q @ w_k
    approx = (a @ v_k) @ v_k.T
    with np.errstate(over="ignore"):
        err = _norm(a - approx)
        scale = _norm(a)
    return LowRankResult(
        V_k=v_k,
        sketch_error=err,
        ratio=_ratio(err, optimal_error, scale),
        rank_deficient=rank_deficient,
    )
