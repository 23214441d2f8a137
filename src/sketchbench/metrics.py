"""Quality diagnostics for sketch operators.

The central quantity is distortion: with Ã = SA and A of full column rank,

    eta = || I - (AᵀA)^{-1/2} ÃᵀÃ (AᵀA)^{-1/2} ||_2

Two permanently separate code paths compute it, with different formulas
and different algorithms.  ``distortion`` evaluates the formula, with
(AᵀA)^{-1/2} = V Σ^{-1} Vᵀ from the Jacobi SVD of A and the norm as the
largest singular value; ``distortion_via_basis`` uses the algebraic
identity eta = max_i |1 - sigma_i(SU)^2| = max(|1 - λ_min|, |1 - λ_max|)
for an orthonormal basis U of A's column space, with λ the extreme
eigenvalues of G = (SU)ᵀ(SU) from ``linalg._gram_extremes`` (tridiagonal
reduction and bisection, no rotations).  They stay as mutual oracles; the
basis route is what sweeps use (it is faster and better conditioned).  S
embeds the column space with |1 - sigma_i^2| <= eps for every i exactly
when eta <= eps.

The Monte Carlo estimator ``jlt_failure_rate`` takes a ``factory``: a
callable mapping a Prng to a fresh sketch operator.  Trials use
position-independent split streams, so estimates are reproducible and
schedule-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (RANK_TOL, RankDeficiencyError, _as_matrix, _gram_extremes, _norm,
                     _prescale, numerical_rank, singular_values, svd)
from .rng import Prng
from .sketch import SketchOperator, sketch_apply

_UNIT_TOL = 1e-10


@dataclass
class DistortionResult:
    eta: float
    sigma_min: float
    sigma_max: float


def distortion(a, a_sketched) -> DistortionResult:
    """Distortion by the defining formula; raises on rank-deficient A.

    Full column rank means at least as many rows as columns and a
    ``numerical_rank`` of A's singular values equal to d (each above 1e-10
    times the largest); the inverse square root (AᵀA)^{-1/2} then exists.
    """
    a = _as_matrix(a)
    at = _as_matrix(a_sketched)
    if a.shape[1] != at.shape[1]:
        raise ValueError(
            f"need matrices with equal column counts, got {a.shape} and {at.shape}"
        )
    n, d = a.shape
    if n < d:
        raise RankDeficiencyError(f"A is {n}x{d}: fewer rows than columns")
    # eta is invariant under one scale of A and SA; A's power of two keeps ÃᵀÃ in range
    a, e = _prescale(a)
    at = np.ldexp(at, -e)
    res = svd(a)
    sig_a = res.singular_values
    if numerical_rank(sig_a) < d:
        raise RankDeficiencyError(
            f"singular-value ratio {sig_a[-1]:.3e}/{sig_a[0]:.3e} below {RANK_TOL:.0e}"
        )
    w = (res.V / sig_a) @ res.V.T
    gram = at.T @ at
    eta = singular_values(np.eye(d) - w @ gram @ w)[0]
    sig_su = singular_values(at @ w)
    return DistortionResult(
        eta=float(eta), sigma_min=float(sig_su[-1]), sigma_max=float(sig_su[0])
    )


def _check_orthonormal(u: np.ndarray) -> None:
    k = u.shape[1]
    if k and _norm(u.T @ u - np.eye(k)) > _UNIT_TOL:
        raise ValueError("U does not have orthonormal columns within 1e-10")


def distortion_via_basis(u, op: SketchOperator) -> DistortionResult:
    """Distortion from the extreme eigenvalues of G = (SU)ᵀ(SU), U an orthonormal n x d basis.

    eta = max(|1 - λ_min|, |1 - λ_max|) and sigma = √max(λ, 0).  With fewer
    sketch rows than d, λ_min is the structural 0 of G's d - m zero
    eigenvalues, so sigma_min is 0.
    """
    u = _as_matrix(u)
    _check_orthonormal(u)
    if u.shape[1] == 0:
        return DistortionResult(eta=0.0, sigma_min=1.0, sigma_max=1.0)
    lmin, lmax = _gram_extremes(sketch_apply(op, u))
    sig_min, sig_max = np.sqrt([max(lmin, 0.0), max(lmax, 0.0)]).tolist()
    return DistortionResult(eta=max(abs(1.0 - lmin), abs(1.0 - lmax)),
                            sigma_min=sig_min, sigma_max=sig_max)


def _check_unit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"x must be a vector, got shape {x.shape}")
    nrm = _norm(x)
    if abs(nrm - 1.0) > _UNIT_TOL:
        raise ValueError(f"x must be a unit vector, got norm {nrm!r}")
    return x


def _sketched_norm_sq(factory, x: np.ndarray, rng: Prng, trial: int) -> float:
    op = factory(rng.split(trial))
    sx = sketch_apply(op, x[:, None])
    return float(np.sum(sx * sx))


def jlt_failure_rate(factory, x, eps: float, trials: int, rng: Prng) -> float:
    """Fraction of fresh operators with |‖Sx‖² − 1| > eps."""
    x = _check_unit(x)
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    failures = 0
    for t in range(trials):
        if abs(_sketched_norm_sq(factory, x, rng, t) - 1.0) > eps:
            failures += 1
    return failures / trials
