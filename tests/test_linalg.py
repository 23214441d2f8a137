import ast
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchbench import linalg
from sketchbench.linalg import (
    ConvergenceError,
    RankDeficiencyError,
    SvdResult,
    lstsq_exact,
    lstsq_factor,
    numerical_rank,
    singular_values,
    svd,
    thin_qr,
)
from sketchbench.matrices import gen_gaussian, write_matrix_market
from sketchbench.metrics import distortion, distortion_via_basis
from sketchbench.pipelines import lowrank_approx
from sketchbench.rng import Prng
from sketchbench.sketch import gaussian_sketch_new, graph_sketch_new, sketch_apply


def fro(a):
    return float(np.sqrt(np.sum(a * a)))


# ---------------------------------------------------------------------------
# _norm


@pytest.mark.parametrize("c", [2.0**-1000, 2.0**-600, 2.0**600, 2.0**1000])
def test_norm_scales_exactly_where_squares_leave_range(c):
    x = gen_gaussian(30, 4, Prng(7))
    with np.errstate(over="ignore"):
        assert linalg._norm(c * x) == c * linalg._norm(x)
    assert linalg._norm(np.zeros(5)) == 0.0
    assert linalg._norm(np.array([0.0, -2.0**-1074])) == 2.0**-1074


# ---------------------------------------------------------------------------
# thin_qr


def test_qr_identity():
    q, r = thin_qr(np.eye(3))
    np.testing.assert_allclose(q, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(r, np.eye(3), atol=1e-14)


def test_qr_analytic_2x1():
    q, r = thin_qr(np.array([[3.0], [4.0]]))
    np.testing.assert_allclose(r, [[5.0]], atol=1e-14)
    np.testing.assert_allclose(q, [[0.6], [0.8]], atol=1e-14)


def test_qr_random_residuals():
    a = gen_gaussian(50, 10, Prng(20))
    q, r = thin_qr(a)
    assert fro(q.T @ q - np.eye(10)) < 1e-10
    assert fro(a - q @ r) < 1e-8 * fro(a)
    assert np.all(np.diag(r) >= 0.0)
    assert np.allclose(r, np.triu(r))


def test_qr_rank_deficient_still_reconstructs():
    a = gen_gaussian(20, 4, Prng(21))
    a[:, 3] = a[:, 0]  # duplicate column
    q, r = thin_qr(a)
    assert fro(a - q @ r) < 1e-8 * fro(a)
    assert fro(q.T @ q - np.eye(4)) < 1e-10
    assert abs(r[3, 3]) < 1e-10 * fro(a)


def test_qr_zero_matrix():
    q, r = thin_qr(np.zeros((5, 3)))
    np.testing.assert_array_equal(r, np.zeros((3, 3)))
    assert fro(q.T @ q - np.eye(3)) < 1e-12


def test_qr_rejects_wide():
    with pytest.raises(ValueError):
        thin_qr(np.zeros((2, 3)))


def test_qr_matches_numpy_on_singular_values():
    # svd of R must equal svd of A: QR preserves singular values
    a = gen_gaussian(40, 12, Prng(22))
    _, r = thin_qr(a)
    s_a = np.linalg.svd(a, compute_uv=False)
    s_r = np.linalg.svd(r, compute_uv=False)
    np.testing.assert_allclose(s_a, s_r, rtol=1e-8)


# ---------------------------------------------------------------------------
# svd


def check_svd(a, res: SvdResult, c=1.0, tol=1e-10):
    """res = svd(c * a): V orthonormal, (AV)ᵀ(AV) = diag(σ²), and (AV)Vᵀ = A.

    The checks run on the unscaled a, with σ = singular_values / c, so
    that no product leaves the float64 range.
    """
    r = min(a.shape)
    s, v = res.singular_values / c, res.V
    assert s.shape == (r,) and v.shape == (a.shape[1], r)
    assert np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 1e-12 * max(s[0], 1.0))
    assert fro(v.T @ v - np.eye(r)) < tol
    av = a @ v
    assert fro(av.T @ av - np.diag(s**2)) <= tol * s[0] ** 2
    assert fro(a - av @ v.T) <= tol * fro(a)


def test_svd_diagonal():
    res = svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(res.singular_values, [3.0, 1.0], atol=1e-14)


def test_svd_zero_matrix():
    res = svd(np.zeros((4, 3)))
    np.testing.assert_array_equal(res.singular_values, np.zeros(3))
    check_svd(np.zeros((4, 3)), res)


def test_svd_matches_jacobi_eigen_oracle():
    # independent route: eigenvalues of the Gram matrix
    a = gen_gaussian(30, 8, Prng(23))
    s = svd(a).singular_values
    w = np.linalg.eigvalsh(a.T @ a)
    np.testing.assert_allclose(np.sort(s**2), np.sort(w), rtol=1e-8)


def test_svd_matches_numpy():
    a = gen_gaussian(25, 9, Prng(24))
    s = svd(a).singular_values
    np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False), rtol=1e-10)


def test_svd_rejects_wide():
    # every caller passes n >= d; a wide A has singular_values, not svd
    with pytest.raises(ValueError, match="n >= d"):
        svd(gen_gaussian(8, 30, Prng(25)))


def test_svd_rank_deficient_input():
    a = gen_gaussian(15, 6, Prng(27))
    a[:, 5] = 2.0 * a[:, 1]
    res = svd(a)
    check_svd(a, res)
    assert res.singular_values[5] < 1e-10 * res.singular_values[0]


def test_svd_hundred_seeded_instances():
    # factorization invariants across random tall shapes up to 200x50
    rng = Prng(28)
    for trial in range(100):
        n = 1 + int(rng.integers_below(200, 1)[0])
        d = 1 + int(rng.integers_below(min(n, 50), 1)[0])
        a = gen_gaussian(n, d, rng.split(trial))
        check_svd(a, svd(a))


def test_singular_values_matches_full_svd():
    a = gen_gaussian(40, 15, Prng(29))
    np.testing.assert_allclose(
        singular_values(a), svd(a).singular_values, rtol=1e-12, atol=1e-14
    )
    np.testing.assert_allclose(
        singular_values(a.T), svd(a).singular_values, rtol=1e-12, atol=1e-14
    )


@pytest.mark.parametrize("seed", [40, 78, 146, 196, 199, 249])
def test_singular_values_tiny_column_norms_do_not_underflow(seed):
    # S @ U for an 18-row s=2 sketch of a coordinate basis: Jacobi drives
    # some column norms so close to 0 that their product underflows
    op = graph_sketch_new(40, 18, 2, Prng(seed))
    a = sketch_apply(op, np.eye(40)[:, :20])
    np.testing.assert_allclose(
        singular_values(a), np.linalg.svd(a, compute_uv=False), rtol=0, atol=1e-13
    )


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-160, 1e-150, 1e150, 1e160, 1e300])
def test_singular_values_scale_with_input(c):
    # squared norms of c * A leave the float64 range unless A is prescaled
    a = gen_gaussian(40, 12, Prng(50))
    want = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(singular_values(c * a) / c, want, rtol=1e-13, atol=0)
    np.testing.assert_allclose(singular_values(c * a.T) / c, want, rtol=1e-13, atol=0)
    res = svd(c * a)
    np.testing.assert_allclose(res.singular_values / c, want, rtol=1e-13, atol=0)
    check_svd(a, res, c, tol=1e-13)


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-160, 1e-150, 1e150, 1e160, 1e300])
def test_thin_qr_scale_with_input(c):
    # unscaled, the Householder norms of c * A leave the float64 range
    a = gen_gaussian(40, 12, Prng(50))
    _, want = np.linalg.qr(a)
    want *= np.where(np.diag(want) < 0.0, -1.0, 1.0)[:, None]
    q, r = thin_qr(c * a)
    assert np.max(np.abs(r / c - want)) <= 1e-13 * np.max(np.abs(want))
    assert fro(q.T @ q - np.eye(12)) < 1e-12


# ---------------------------------------------------------------------------
# the round-robin Jacobi kernel against the cyclic loop it replaced


def _cyclic_jacobi_reference(w):
    """The cyclic-order one-sided Jacobi loop, one (p, q) pair at a time.

    Same tolerance, cap, zero-norm skip, two-root ratio and Rutishauser
    norm updates as ``linalg._one_sided_jacobi``; orthogonalizes w in place.
    """
    d = w.shape[1]
    if d < 2:
        return
    for _ in range(linalg.JACOBI_SWEEP_CAP):
        norms = np.sum(w * w, axis=0)
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                npp, nqq = norms[p], norms[q]
                if npp <= 0.0 or nqq <= 0.0:
                    continue
                npq = float(w[:, p] @ w[:, q])
                ratio = abs(npq) / (math.sqrt(npp) * math.sqrt(nqq))
                if ratio <= linalg._JACOBI_TOL:
                    continue
                zeta = (nqq - npp) / (2.0 * npq)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                wp = w[:, p].copy()
                w[:, p] = cs * wp - sn * w[:, q]
                w[:, q] = sn * wp + cs * w[:, q]
                norms[p] = max(npp - t * npq, 0.0)
                norms[q] = max(nqq + t * npq, 0.0)
                rotated = True
        if not rotated:
            return
    pytest.fail("the reference loop hit the sweep cap")


def _reference_singular_values(a):
    if a.shape[0] < a.shape[1]:
        a = a.T
    _, w, e = linalg._householder_qr(a, form_q=False)
    _cyclic_jacobi_reference(w)
    return np.ldexp(np.sort(np.sqrt(np.sum(w * w, axis=0)))[::-1], e)


def _with_zero_columns():
    a = gen_gaussian(15, 6, Prng(60))
    a[:, [1, 4]] = 0.0
    return a


def _tiny_norms(seed):
    return sketch_apply(graph_sketch_new(40, 18, 2, Prng(seed)), np.eye(40)[:, :20])


def _desk(m, s):
    # S @ U as distortion-desk forms it, for a 1024 x 100 orthonormal U
    u, _ = thin_qr(gen_gaussian(1024, 100, Prng(61)))
    rng = Prng(62).split(m)
    op = gaussian_sketch_new(1024, m, rng) if s is None else graph_sketch_new(1024, m, s, rng)
    return sketch_apply(op, u)


_KERNEL_CASES = {
    **{f"gauss-d{d}": (lambda d=d: gen_gaussian(20, d, Prng(63 + d))) for d in (1, 2, 3, 7, 12)},
    "zero-columns": _with_zero_columns,
    **{f"tiny-norms-{seed}": (lambda seed=seed: _tiny_norms(seed))
       for seed in (40, 78, 146, 196, 199, 249)},
    **{f"desk-m{m}-s{s}": (lambda m=m, s=s: _desk(m, s)) for m in (200, 1600) for s in (1, 4)},
    **{f"desk-m{m}-gaussian": (lambda m=m: _desk(m, None)) for m in (200, 1600)},
}


@pytest.mark.parametrize("case", list(_KERNEL_CASES))
def test_round_robin_kernel_agrees_with_cyclic_reference(case):
    a = _KERNEL_CASES[case]()
    got = singular_values(a)
    top = got[0]
    assert np.max(np.abs(got - _reference_singular_values(a))) <= 1e-13 * top
    assert np.max(np.abs(got - np.linalg.svd(a, compute_uv=False))) <= 1e-13 * top
    v = svd(a if a.shape[0] >= a.shape[1] else a.T).V  # the 18 x 20 tiny-norms cases are wide
    assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) <= 1e-13


@pytest.mark.parametrize("d", [*range(1, 10), 100])
def test_round_robin_pairs_every_two_columns_once_per_sweep(d):
    seats, step = linalg._round_robin(d)
    n = d + d % 2
    order, met = seats, []
    for _ in range(n - 1):
        assert sorted(order) == list(range(n))  # each round's pairs are disjoint
        met += [tuple(sorted(pair)) for pair in order.reshape(-1, 2) if max(pair) < d]
        order = order[step]
    assert sorted(met) == [(p, q) for p in range(d) for q in range(p + 1, d)]
    np.testing.assert_array_equal(order, seats)


def test_jacobi_sweep_cap_raises_with_the_worst_ratio(monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_SWEEP_CAP", 1)
    with pytest.raises(ConvergenceError) as err:
        singular_values(gen_gaussian(12, 6, Prng(64)))
    assert err.value.residual > 1e-14


# ---------------------------------------------------------------------------
# truncated SVD


def test_truncate_eckart_young_residual_identity():
    a = gen_gaussian(20, 12, Prng(31))
    res = svd(a)
    k = 5
    v_k = res.V[:, :k]
    recon = (a @ v_k) @ v_k.T
    tail = float(np.sum(res.singular_values[k:] ** 2))
    assert fro(a - recon) ** 2 == pytest.approx(tail, rel=1e-8)


# ---------------------------------------------------------------------------
# spectral norm: the largest singular value


def test_spectral_norm_diagonal():
    assert singular_values(np.diag([2.0, 1.0]))[0] == pytest.approx(2.0)


def test_spectral_norm_rank_one_analytic():
    u = Prng(33).normal(30)
    v = Prng(34).normal(50)
    a = np.outer(u, v)
    expected = fro(u[None, :]) * fro(v[None, :])
    assert singular_values(a)[0] == pytest.approx(expected, rel=1e-12)


def test_spectral_norm_matches_svd_small():
    g = gen_gaussian(40, 40, Prng(35))
    m = (g + g.T) / 2
    assert singular_values(m)[0] == pytest.approx(float(svd(m).singular_values[0]), rel=1e-12)


def test_spectral_norm_zero():
    assert singular_values(np.zeros((70, 70)))[0] == 0.0
    assert singular_values(np.zeros((5, 5)))[0] == 0.0


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_spectral_at_most_frobenius(n, d, seed):
    a = gen_gaussian(n, d, Prng(seed))
    assert singular_values(a)[0] <= np.linalg.norm(a) * (1 + 1e-9)


def test_spectral_equals_frobenius_for_rank_one():
    a = np.outer(Prng(37).normal(9), Prng(38).normal(7))
    assert singular_values(a)[0] == pytest.approx(np.linalg.norm(a), rel=1e-8)


# ---------------------------------------------------------------------------
# lstsq_exact


def test_lstsq_identity():
    b = Prng(41).normal(6)
    np.testing.assert_allclose(lstsq_exact(np.eye(6), b), b, atol=1e-12)


def test_lstsq_consistent_system():
    a = gen_gaussian(30, 7, Prng(42))
    x0 = Prng(43).normal(7)
    x = lstsq_exact(a, a @ x0)
    np.testing.assert_allclose(x, x0, rtol=1e-9, atol=1e-11)


def test_lstsq_normal_equation_residual():
    a = gen_gaussian(100, 5, Prng(44))
    b = Prng(45).normal(100)
    x = lstsq_exact(a, b)
    resid = a.T @ (a @ x - b)
    assert fro(resid[None, :]) < 1e-8 * np.linalg.norm(a, 2) * fro(b[None, :])


def test_lstsq_matches_numpy():
    a = gen_gaussian(50, 8, Prng(46))
    b = Prng(47).normal(50)
    x_np, *_ = np.linalg.lstsq(a, b, rcond=None)
    np.testing.assert_allclose(lstsq_exact(a, b), x_np, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-160, 1e-150, 1e150, 1e160, 1e300])
def test_lstsq_exact_scale_with_input(c):
    # (c A) x = c b has the solution of A x = b; unscaled, R and Q^T b leave the float64 range
    a = gen_gaussian(40, 12, Prng(50))
    b = Prng(51).normal(40)
    want, *_ = np.linalg.lstsq(a, b, rcond=None)
    err = np.max(np.abs(lstsq_exact(c * a, c * b) - want))
    assert err <= 1e-13 * np.max(np.abs(want))


def test_lstsq_rank_deficient_raises():
    a = gen_gaussian(20, 4, Prng(48))
    a[:, 2] = a[:, 0] + a[:, 1]
    with pytest.raises(RankDeficiencyError):
        lstsq_exact(a, Prng(49).normal(20))


def test_lstsq_factor_rejects_an_infinite_entry():
    # the R diagonal comes out [5.34, 3.81, nan, nan]; a NaN is no full rank
    a = gen_gaussian(20, 4, Prng(48))
    a[5, 2] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(RankDeficiencyError,
                                                      match="indicates rank deficiency"):
        lstsq_factor(a)


def test_numerical_rank_counts_entries_strictly_above_the_threshold():
    assert numerical_rank(np.zeros(5)) == 0
    assert numerical_rank([1.0, 1e-10]) == 1  # exactly RANK_TOL times the largest
    assert numerical_rank([1.0, 2e-10]) == 2
    assert numerical_rank([-2e-10, 1.0, -3.0]) == 2  # magnitudes, in any order
    assert numerical_rank([]) == 0


def test_numerical_rank_counts_no_nan_entry():
    assert numerical_rank([np.nan, np.nan]) == 0
    # a NaN makes the largest entry NaN, so the finite ones do not count either
    assert numerical_rank([1.0, np.nan, 0.5]) == 0


def test_lstsq_rejects_wide_and_bad_b():
    with pytest.raises(RankDeficiencyError, match="n >= d"):
        lstsq_exact(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        lstsq_exact(np.eye(3), np.zeros(4))


# ---------------------------------------------------------------------------
# _gram_extremes: the two extreme eigenvalues of xᵀx


def check_extremes(x, got):
    """got within 1e-14 ||G||_2 of eigvalsh's extremes of G = xᵀx; λ_min exactly 0 when m < d."""
    m, d = x.shape
    ev = np.linalg.eigvalsh(x.T @ x)
    tol = 1e-14 * max(abs(ev[0]), abs(ev[-1]))
    if m < d:
        assert got[0] == 0.0
    else:
        assert abs(got[0] - ev[0]) <= tol
    assert abs(got[1] - ev[-1]) <= tol


def _split_bidiagonal():
    # an upper bidiagonal x has a tridiagonal xᵀx; a zero x[3, 4] zeroes G[3, 4] and G[4, 3]
    x = np.diag(np.arange(1.0, 9.0)) + np.diag([0.5, -2.0, 1.5, 0.0, 3.0, -1.0, 0.25], 1)
    g = x.T @ x
    assert g[3, 4] == g[4, 3] == 0.0 and g[2, 3] != 0.0
    return x


_GRAM_CASES = {
    "d1": lambda: gen_gaussian(20, 1, Prng(81)),
    "d2": lambda: gen_gaussian(20, 2, Prng(82)),
    "d3": lambda: gen_gaussian(20, 3, Prng(83)),
    "repeated-extremes": lambda: np.diag([3.0, 1.0, 3.0, 2.0, 1.0, 3.0]),
    "tridiagonal-splits": _split_bidiagonal,
    "wide": lambda: gen_gaussian(5, 12, Prng(84)),
    # G = [[2, 1], [1, 2]]: the first Sturm pivot, at the first midpoint 2, is exactly 0
    "zero-pivot": lambda: np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("case", list(_GRAM_CASES))
def test_gram_extremes_match_eigvalsh(case):
    x = _GRAM_CASES[case]()
    check_extremes(x, linalg._gram_extremes(x))


def test_gram_extremes_zero_and_identity_are_exact():
    assert linalg._gram_extremes(np.zeros((7, 4))) == (0.0, 0.0)
    assert linalg._gram_extremes(np.eye(5)) == (1.0, 1.0)


def test_gram_extremes_random_shapes_match_eigvalsh():
    rng = Prng(85)
    for trial in range(40):
        m, d = (1 + int(v) for v in rng.integers_below(30, 2))
        x = gen_gaussian(m, d, rng.split(trial))
        check_extremes(x, linalg._gram_extremes(x))


@pytest.mark.parametrize("c", [600, -600])
def test_gram_extremes_scale_with_input(c):
    # x * 2**c has extremes exactly 2**(2c) times those of x; x sits at 2**(-c/2)
    # so that both sides stay inside the float64 range
    x = np.ldexp(gen_gaussian(30, 8, Prng(86)), -c // 2)
    check_extremes(x, linalg._gram_extremes(x))
    want = np.ldexp(linalg._gram_extremes(x), 2 * c).tolist()
    assert list(linalg._gram_extremes(np.ldexp(x, c))) == want


# ---------------------------------------------------------------------------
# matrix arguments go through the one 2-D check


_ONE_D_CALLS = {
    "lowrank_approx": lambda v, op: lowrank_approx(v, 1, op, 0.0),
    "distortion": lambda v, op: distortion(v, np.eye(5)),
    "distortion_via_basis": lambda v, op: distortion_via_basis(v, op),
    "write_matrix_market": lambda v, op: write_matrix_market(v, io.StringIO()),
}


@pytest.mark.parametrize("name", list(_ONE_D_CALLS))
def test_matrix_arguments_refuse_a_1d_array(name):
    op = graph_sketch_new(5, 4, 2, Prng(70))
    with pytest.raises(ValueError, match=r"2-D array, got shape \(5,\)"):
        _ONE_D_CALLS[name](np.ones(5), op)


# ---------------------------------------------------------------------------
# the core stays free of numpy.linalg


def _numpy_linalg_uses(source: str) -> list[int]:
    """Line numbers of code (not prose) that reaches numpy's linalg module."""
    tree = ast.parse(source)
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(al.asname for al in node.names if al.name == "numpy" and al.asname)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(al.name.startswith("numpy.linalg") for al in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.linalg") or (
                module == "numpy" and any(al.name == "linalg" for al in node.names)
            )
        elif isinstance(node, ast.Attribute):
            hit = (
                node.attr == "linalg"
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            )
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("code, lines", [
    ('"""calls no ``numpy.linalg.svd``."""\n# np.linalg.eigh(m)\n', []),
    ("import numpy as xp\n\nxp.linalg.eigh(m)\n", [3]),
    ("import numpy\nnumpy.linalg.norm(x)\n", [2]),
    ("from numpy import linalg\n", [1]),
    ("from numpy.linalg import eigh\n", [1]),
    ("import numpy.linalg as la\n", [1]),
])
def test_numpy_linalg_guard_sees_code_not_prose(code, lines):
    assert _numpy_linalg_uses(code) == lines


def test_src_does_not_use_numpy_linalg():
    src = Path(__file__).resolve().parents[1] / "src" / "sketchbench"
    files = sorted(src.glob("*.py"))
    assert files
    found = {f.name: _numpy_linalg_uses(f.read_text()) for f in files}
    assert {name: lines for name, lines in found.items() if lines} == {}
