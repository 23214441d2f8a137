"""Dense factorization kernels: thin QR, SVD, Gram extremes, and least squares.

Everything here is written against plain numpy array arithmetic; none of it
calls ``numpy.linalg``, which the test suite keeps free to use as an
independent oracle.

Algorithm choices, pinned for reproducibility:

* ``thin_qr``: Householder reflections, reduced form, with the diagonal of R
  made nonnegative by sign flips (deterministic output).  The input is
  first divided by the power of two 2**e with max|a| < 2**e <= 2 max|a|,
  and R is multiplied back at the end; the scaling is exact, and it keeps
  the squared norms inside the float64 range for any input scale.  One
  private Householder core does this prescale for every routine here, and
  forms Q only for ``thin_qr`` and ``lstsq_factor``.
* ``svd`` and ``singular_values``: one private spectrum driver runs
  one-sided Jacobi rotations on Rᵀ, with R from that QR (R alone, never Q),
  so the rotation phase always runs on a square d x d matrix.  The rotated
  X = RᵀW has orthogonal columns, so A = (QW) Σ (X/σ)ᵀ and V = X/σ, as in
  Drmač & Veselić's Jacobi SVD (2008): no rotation is accumulated and no U
  is formed.  ``svd`` takes n >= d; ``singular_values`` also takes a wide
  input, through its transpose.  A sweep visits the column pairs in the
  round-robin order of Brent & Luk (1985), ``_round_robin``, so a whole
  round of disjoint pairs is rotated at once by array operations.  Column
  norms are tracked with the Rutishauser update and refreshed once per
  sweep.  Sweeps are capped at 60; hitting the cap raises
  ConvergenceError carrying the worst remaining off-diagonal ratio.  This
  is the only rotation loop in the package.
* ``_gram_extremes``: the two extreme eigenvalues of xᵀx, for the
  distortion of ``metrics.distortion_via_basis``, without a full spectrum.
  It forms the smaller Gram matrix of the prescaled x (xᵀx, or x xᵀ when x
  is wide, where λ_min is the structural 0), reduces it to tridiagonal form
  by Householder steps, one matrix-vector product and one symmetric rank-2
  update each, and bisects both ends of the spectrum by Sturm counts from
  the Gershgorin interval, counting both shifts in one pass per step.  A
  pivot that comes out 0 counts as -pivmin (the underflow threshold times
  the largest squared off-diagonal, at least 1), as in LAPACK's bisection.
  Each end stops when its interval's midpoint equals an endpoint, so the
  result is the same for the same input and within an ulp of the computed
  tridiagonal's eigenvalue.
* ``lstsq_exact``: two steps, so a caller with many right sides for one A
  factors it once.  ``lstsq_factor(a)`` is the thin QR of A, Q included,
  with the rank check; its ``solve(b)`` prescales b by its own power of two
  in the same way, forms Q^T b and back-substitutes, so the solution is
  right at any input scale too.  ``lstsq_exact(a, b)`` is the two in a row.
* ``numerical_rank``: the one rank rule, the count of |values| above
  ``RANK_TOL`` times the largest; every full-rank check in the package calls it.

The signs of V's columns are not normalized: each is that of the rotated
column of Rᵀ, the same for the same input.  Every caller reads V only where a
column sign flip changes no bit of its result, because negation is exact:
V Σ^-1 Vᵀ in ``metrics.distortion``, and the rank-k projection
(A V_k) V_kᵀ with V_k = Q W_k in ``pipelines.lowrank_approx``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

JACOBI_SWEEP_CAP = 60
_JACOBI_TOL = 1e-14
# numerical_rank counts the entries above this times the largest
RANK_TOL = 1e-10
_TINY = float(np.finfo(np.float64).tiny)  # the least normal float64

__all__ = [
    "ConvergenceError",
    "RankDeficiencyError",
    "SvdResult",
    "numerical_rank",
    "thin_qr",
    "svd",
    "singular_values",
    "LstsqFactor",
    "lstsq_factor",
    "lstsq_exact",
]


def numerical_rank(values) -> int:
    """Entries of |values| above ``RANK_TOL`` times the largest; a NaN makes that NaN, so 0."""
    mags = np.abs(np.asarray(values, dtype=np.float64))
    return int(np.sum(mags > RANK_TOL * mags.max(initial=0.0)))


class ConvergenceError(RuntimeError):
    """Iteration cap hit; ``residual`` is the worst remaining off-diagonal ratio."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (off-diagonal residual {residual:.3e})")
        self.residual = residual


class RankDeficiencyError(ValueError):
    """Input is numerically rank deficient where full rank is required."""


@dataclass
class SvdResult:
    """Singular values and right singular vectors: A V = U diag(singular_values).

    For an n x d input with n >= d: V is d x d and orthogonal, singular
    values descending and nonnegative.  V is read off the rotated columns of
    Rᵀ, with those of σ = 0 completed to an orthogonal V.  U is not formed,
    and the column signs of V are not normalized.
    """

    singular_values: np.ndarray
    V: np.ndarray


def _norm(x: np.ndarray) -> float:
    """Frobenius norm of x at any float64 scale.

    The plain sqrt(sum(x*x)) unless that sum of squares overflows, or is zero
    or subnormal for a nonzero x; then x is first divided by the power of two
    of max|x|, which is exact and keeps x's layout, so the sum runs in the
    same order and every finite, normal sum keeps its bits.
    """
    total = float(np.sum(x * x))
    if total == math.inf or (total < _TINY and np.any(x)):
        e = math.frexp(float(np.max(np.abs(x))))[1]
        x = np.ldexp(x, -e)
        return math.ldexp(math.sqrt(np.sum(x * x)), e)
    return math.sqrt(total)


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    return a


def _prescale(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a / 2**e, e) with max|a| < 2**e <= 2 max|a|; exact, keeps squares in range.

    The result is a new row-major array, whatever the layout of a: the
    Householder sums run in the order that layout gives them.
    """
    e = math.frexp(float(np.max(np.abs(a), initial=0.0)))[1]
    return np.ldexp(a, -e, order="C"), e


def _householder_qr(a, form_q: bool) -> tuple[np.ndarray | None, np.ndarray, int]:
    """The reduced QR of an n x d matrix, n >= d, that every routine here shares.

    Prescales a by 2**e (``_prescale``) and returns (q, r, e): a = 2**e q r,
    with r upper triangular with nonnegative diagonal, and q None unless
    ``form_q``.  A power of two commutes exactly with every Householder
    step, so r is the unscaled R times 2**-e bit for bit in the normal range.
    """
    a = _as_matrix(a)
    n, d = a.shape
    if n < d:
        raise ValueError(f"QR factorization needs n >= d, got {n}x{d}")
    r, e = _prescale(a)
    reflectors: list[np.ndarray | None] = []
    for k in range(d):
        x = r[k:, k]
        sigma = _norm(x)
        if sigma == 0.0:
            reflectors.append(None)
            continue
        alpha = -math.copysign(sigma, x[0])
        v = x.copy()
        v[0] -= alpha
        tau = 2.0 / float(v @ v)
        r[k:, k:] -= np.outer(tau * v, v @ r[k:, k:])
        r[k, k] = alpha
        r[k + 1 :, k] = 0.0
        reflectors.append(v)
    r_out = np.triu(r[:d, :])
    flip = np.where(np.diag(r_out) < 0.0, -1.0, 1.0)
    r_out *= flip[:, None]
    if not form_q:
        return None, r_out, e
    q = np.zeros((n, d))
    q[np.arange(d), np.arange(d)] = 1.0
    for k in range(d - 1, -1, -1):
        v = reflectors[k]
        if v is None:
            continue
        tau = 2.0 / float(v @ v)
        q[k:, :] -= np.outer(tau * v, v @ q[k:, :])
    q *= flip[None, :]
    return q, r_out, e


def thin_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of an n x d matrix with n >= d.

    Returns (Q, R) with Q n x d orthonormal and R d x d upper triangular
    with nonnegative diagonal.  Rank deficiency is permitted; R then has
    zero (or tiny) diagonal entries.  The input is prescaled, so R is right
    at any input scale.
    """
    q, r, e = _householder_qr(a, form_q=True)
    return q, np.ldexp(r, e)


def _round_robin(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The seating of one Jacobi sweep over d columns, in rounds of disjoint pairs.

    The circle method of Brent & Luk (1985), on n = d + d % 2 seats: an odd
    d gets an empty seat d, and its partner has the round off (the bye).
    Returns (seats, step).  Rows 2i and 2i + 1 of x[seats] hold pair i of
    the first round; x[step] moves every row on to its seat in the next
    round.  Seat 0 stays put and the others turn one place round the ring,
    so n - 1 steps pair every two columns once and bring the seating back
    to the start.
    """
    n = d + d % 2

    def layout(ring: list[int]) -> list[int]:
        around = [0] + ring
        return [c for i in range(n // 2) for c in (around[i], around[n - 1 - i])]

    first = layout(list(range(1, n)))
    second = layout([n - 1] + list(range(1, n - 1)))
    step = np.argsort(first)[second]
    return np.array(first), step


def _one_sided_jacobi(w: np.ndarray) -> None:
    """Orthogonalize the columns of w in place by plane rotations.

    A sweep is the n - 1 rounds of ``_round_robin``.  The work is done on a
    transposed copy, where each column of w is one row, seated so that the
    pairs of a round are adjacent rows; the pairs are disjoint, so a round
    computes every pair's rotation as array operations and applies them
    all as one batched 2 x 2 product.
    """
    d = w.shape[1]
    if d < 2:
        return
    seats, step = _round_robin(d)
    n, k = len(seats), len(seats) // 2
    xt = np.zeros((n, w.shape[0]))
    xt[:d] = w.T
    xt = xt[seats]
    worst = 0.0
    for _ in range(JACOBI_SWEEP_CAP):
        norms = np.einsum("ij,ij->i", xt, xt)
        worst = 0.0
        rotated = False
        for _ in range(n - 1):
            pairs = xt.reshape(k, 2, -1)
            npp, nqq = norms[0::2], norms[1::2]
            npq = np.einsum("ij,ij->i", pairs[:, 0], pairs[:, 1])
            # a pair with a zero norm is skipped; two roots: npp * nqq can underflow to 0
            live = (npp > 0.0) & (nqq > 0.0)
            ratio = np.abs(npq) / np.where(live, np.sqrt(npp) * np.sqrt(nqq), np.inf)
            worst = max(worst, float(ratio.max()))
            turn = ratio > _JACOBI_TOL
            if turn.any():
                # a pair that does not turn gets t = 0, the identity rotation
                zeta = (nqq - npp) / (2.0 * np.where(turn, npq, 1.0))
                t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
                t[~turn] = 0.0
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = cs * t
                g = np.stack([cs, -sn, sn, cs], axis=1).reshape(k, 2, 2)
                xt = (g @ pairs).reshape(n, -1)
                # Rutishauser norm updates; clamp tiny negative drift
                norms[0::2] = np.maximum(npp - t * npq, 0.0)
                norms[1::2] = np.maximum(nqq + t * npq, 0.0)
                rotated = True
            xt, norms = xt[step], norms[step]
        if not rotated:
            # n - 1 steps have brought every row back to its first seat
            w[:] = xt[np.argsort(seats)[:d]].T
            return
    raise ConvergenceError(
        f"one-sided Jacobi did not converge in {JACOBI_SWEEP_CAP} sweeps", worst
    )


def _spectrum(a) -> tuple[np.ndarray, np.ndarray]:
    """(singular values descending, V) of an n x d matrix with n >= d.

    V is X/σ, X the Jacobi-rotated Rᵀ, its columns sorted with σ by a stable
    descending argsort.  A column with σ = 0 stays zero (Jacobi skips
    zero-norm pairs) and sorts last; the Householder Q of V completes it.
    """
    _, r, e = _householder_qr(a, form_q=False)
    x = r.T
    _one_sided_jacobi(x)
    sig = np.sqrt(np.sum(x * x, axis=0))
    order = np.argsort(-sig, kind="stable")
    sig, x = sig[order], x[:, order]
    v = np.divide(x, sig, out=np.zeros_like(x), where=sig > 0.0)
    live = np.count_nonzero(sig)
    if live < len(sig):
        v[:, live:] = _householder_qr(v, form_q=True)[0][:, live:]
    return np.ldexp(sig, e), v


def svd(a) -> SvdResult:
    """Singular values and right singular vectors of an n x d matrix, n >= d.

    A wide input raises ``ValueError``.
    """
    return SvdResult(*_spectrum(a))


def singular_values(a) -> np.ndarray:
    """Singular values only, descending, min(n, d) of them; a wide A goes through Aᵀ."""
    a = _as_matrix(a)
    return _spectrum(a.T if a.shape[0] < a.shape[1] else a)[0]


def _gram_extremes(x) -> tuple[float, float]:
    """(λ_min, λ_max) of xᵀx for an m x d matrix x; λ_min is the structural 0 when m < d.

    Forms the smaller Gram matrix of the prescaled x (xᵀx, or x xᵀ when
    m < d), reduces it to tridiagonal form by Householder steps (Golub &
    Van Loan 8.3.1) and bisects both ends of its spectrum by Sturm counts
    (8.4.1) until each midpoint equals an endpoint of its interval.
    """
    x, e = _prescale(_as_matrix(x))
    m, d = x.shape
    g = x.T @ x if m >= d else x @ x.T
    n = len(g)
    for k in range(n - 2):
        v = g[k + 1 :, k].copy()
        sigma = _norm(v)
        if sigma == 0.0:
            continue
        alpha = -math.copysign(sigma, v[0])
        v[0] -= alpha
        tau = 2.0 / float(v @ v)
        block = g[k + 1 :, k + 1 :]
        p = tau * (block @ v)
        w = np.outer(v, p - (0.5 * tau * float(p @ v)) * v)
        # w + wᵀ adds the same two products at (i, j) and (j, i): block stays symmetric
        block -= w + w.T
        g[k + 1, k] = alpha
    diag = np.diag(g).tolist()
    off = np.diag(g, -1)
    off2 = [0.0] + (off * off).tolist()
    radius = np.r_[np.abs(off), 0.0] + np.r_[0.0, np.abs(off)]
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    pivmin = float(np.finfo(np.float64).tiny) * max(1.0, max(off2))
    # the count of eigenvalues below a shift is 0 at lo and n at hi; m < d pins λ_min at 0
    ends = [[0.0, 0.0] if m < d else [lo, hi], [lo, hi]]
    while True:
        mids = [0.5 * (a + b) for a, b in ends]
        if not any(a < mid < b for (a, b), mid in zip(ends, mids)):
            break
        s1, s2 = mids
        q1 = q2 = 1.0
        c1 = c2 = 0
        for a, b2 in zip(diag, off2):
            q1 = a - s1 - b2 / q1
            q2 = a - s2 - b2 / q2
            if abs(q1) < pivmin:
                q1 = -pivmin
            if abs(q2) < pivmin:
                q2 = -pivmin
            c1 += q1 < 0.0
            c2 += q2 < 0.0
        for end, mid, below, top in zip(ends, mids, (c1, c2), (1, n)):
            end[below >= top] = mid
    return tuple(np.ldexp(mids, 2 * e).tolist())


def _solve_upper(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = len(y)
    x = np.zeros(d)
    for i in range(d - 1, -1, -1):
        x[i] = (y[i] - float(r[i, i + 1 :] @ x[i + 1 :])) / r[i, i]
    return x


@dataclass(frozen=True)
class LstsqFactor:
    """The factor of ``lstsq_factor``: a = 2**e q r, r with a full-rank diagonal."""

    q: np.ndarray
    r: np.ndarray
    e: int

    def solve(self, b) -> np.ndarray:
        """argmin_x of the residual norm for this A; b is prescaled by its own power of two."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 1 or len(b) != self.q.shape[0]:
            raise ValueError(f"b must be a length-{self.q.shape[0]} vector, got shape {b.shape}")
        b, eb = _prescale(b)
        return np.ldexp(_solve_upper(self.r, self.q.T @ b), eb - self.e)


def lstsq_factor(a) -> LstsqFactor:
    """Thin QR of A for ``lstsq_exact``, computed once for any number of right sides.

    Raises ``RankDeficiencyError`` unless n >= d and A has numerically full
    column rank (R diagonal bounded away from zero relative to its largest).
    Its ``q`` is then an orthonormal basis of A's range, the Q of ``thin_qr``.
    """
    a = _as_matrix(a)
    n, d = a.shape
    if n < d:
        raise RankDeficiencyError(f"full column rank needs n >= d, got {n}x{d}")
    q, r, e = _householder_qr(a, form_q=True)
    diag = np.abs(np.diag(r))
    if numerical_rank(diag) < d:
        raise RankDeficiencyError(
            f"{n}x{d} input: R diagonal range [{diag.min():.3e}, {diag.max():.3e}] "
            "indicates rank deficiency"
        )
    return LstsqFactor(q, r, e)


def lstsq_exact(a, b) -> np.ndarray:
    """Least-squares solution argmin_x of the residual norm, via thin QR.

    ``lstsq_factor(a).solve(b)``: A and b are prescaled separately, so the
    result is right at any input scale.
    """
    return lstsq_factor(a).solve(b)
