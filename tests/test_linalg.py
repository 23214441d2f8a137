import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchbench.linalg import (
    RankDeficiencyError,
    SvdResult,
    eigh_jacobi,
    lstsq_exact,
    singular_values,
    spd_inv_sqrt,
    spectral_norm,
    svd,
    thin_qr,
)
from sketchbench.matrices import gen_gaussian
from sketchbench.rng import Prng
from sketchbench.sketch import graph_sketch_new, sketch_apply


def fro(a):
    return float(np.sqrt(np.sum(a * a)))


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


def check_svd(a, res: SvdResult, tol_recon=1e-8):
    r = res.rank
    assert r == min(a.shape)
    assert fro(res.U.T @ res.U - np.eye(r)) < 1e-10
    assert fro(res.V.T @ res.V - np.eye(r)) < 1e-10
    s = res.singular_values
    assert np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 1e-12 * max(s[0], 1.0))
    recon = res.U @ np.diag(s) @ res.V.T
    assert fro(a - recon) <= tol_recon * max(fro(a), 1e-300) + 1e-12


def test_svd_diagonal():
    res = svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(res.singular_values, [3.0, 1.0], atol=1e-14)


def test_svd_zero_matrix():
    res = svd(np.zeros((4, 3)))
    np.testing.assert_array_equal(res.singular_values, np.zeros(3))
    check_svd(np.zeros((4, 3)), res)


def test_svd_matches_jacobi_eigen_oracle():
    # independent route: eigenvalues of the Gram matrix via two-sided Jacobi
    a = gen_gaussian(30, 8, Prng(23))
    s = svd(a).singular_values
    w, _ = eigh_jacobi(a.T @ a)
    np.testing.assert_allclose(np.sort(s**2), np.sort(w), rtol=1e-8)


def test_svd_matches_numpy():
    a = gen_gaussian(25, 9, Prng(24))
    s = svd(a).singular_values
    np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False), rtol=1e-10)


def test_svd_wide_matrix():
    a = gen_gaussian(8, 30, Prng(25))
    res = svd(a)
    check_svd(a, res)
    np.testing.assert_allclose(
        res.singular_values, np.linalg.svd(a, compute_uv=False), rtol=1e-10
    )


def test_svd_sign_convention():
    a = gen_gaussian(12, 5, Prng(26))
    res = svd(a)
    for j in range(res.rank):
        idx = int(np.argmax(np.abs(res.U[:, j])))
        assert res.U[idx, j] > 0.0


def test_svd_rank_deficient_input():
    a = gen_gaussian(15, 6, Prng(27))
    a[:, 5] = 2.0 * a[:, 1]
    res = svd(a)
    check_svd(a, res)
    assert res.singular_values[5] < 1e-10 * res.singular_values[0]


def test_svd_hundred_seeded_instances():
    # factorization invariants across random shapes up to 200x50
    rng = Prng(28)
    for trial in range(100):
        n = 1 + rng.int_below(200)
        d = 1 + rng.int_below(50)
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


# ---------------------------------------------------------------------------
# truncated SVD


def test_truncate_eckart_young_residual_identity():
    a = gen_gaussian(20, 12, Prng(31))
    res = svd(a)
    k = 5
    recon = res.U[:, :k] @ np.diag(res.singular_values[:k]) @ res.V[:, :k].T
    tail = float(np.sum(res.singular_values[k:] ** 2))
    assert fro(a - recon) ** 2 == pytest.approx(tail, rel=1e-8)


# ---------------------------------------------------------------------------
# eigh_jacobi


def test_eigh_known_2x2():
    w, v = eigh_jacobi(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-12)
    assert fro(v.T @ v - np.eye(2)) < 1e-12


def test_eigh_matches_numpy():
    g = gen_gaussian(20, 20, Prng(32))
    m = (g + g.T) / 2
    w, v = eigh_jacobi(m)
    w_np = np.linalg.eigvalsh(m)
    np.testing.assert_allclose(w, w_np, rtol=1e-9, atol=1e-9)
    assert fro(v @ np.diag(w) @ v.T - m) < 1e-8 * fro(m)


def test_eigh_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigh_jacobi(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# spectral_norm


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([2.0, 1.0]), tol=1e-10) == pytest.approx(2.0)


def test_spectral_norm_rank_one_analytic():
    u = Prng(33).normal(30)
    v = Prng(34).normal(50)
    a = np.outer(u, v)
    expected = fro(u[None, :]) * fro(v[None, :])
    assert spectral_norm(a, tol=1e-8) == pytest.approx(expected, rel=1e-7)


def test_spectral_norm_matches_svd_small():
    g = gen_gaussian(40, 40, Prng(35))
    m = (g + g.T) / 2
    assert spectral_norm(m, tol=1e-8) == pytest.approx(
        float(svd(m).singular_values[0]), rel=1e-7
    )


def test_spectral_norm_power_iteration_path():
    # 100x80 exercises the >= 64 power-iteration branch
    a = gen_gaussian(100, 80, Prng(36))
    got = spectral_norm(a, tol=1e-9)
    want = float(np.linalg.svd(a, compute_uv=False)[0])
    assert got == pytest.approx(want, rel=1e-6)


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((70, 70)), tol=1e-6) == 0.0
    assert spectral_norm(np.zeros((5, 5)), tol=1e-6) == 0.0


def test_spectral_norm_rejects_bad_tol():
    with pytest.raises(ValueError):
        spectral_norm(np.eye(2), tol=0.0)


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_spectral_at_most_frobenius(n, d, seed):
    a = gen_gaussian(n, d, Prng(seed))
    assert spectral_norm(a, tol=1e-9) <= np.linalg.norm(a) * (1 + 1e-9)


def test_spectral_equals_frobenius_for_rank_one():
    a = np.outer(Prng(37).normal(9), Prng(38).normal(7))
    assert spectral_norm(a, tol=1e-9) == pytest.approx(np.linalg.norm(a), rel=1e-8)


# ---------------------------------------------------------------------------
# spd_inv_sqrt


def test_spd_inv_sqrt_identity():
    np.testing.assert_allclose(spd_inv_sqrt(np.eye(4)), np.eye(4), atol=1e-12)


def test_spd_inv_sqrt_diagonal():
    got = spd_inv_sqrt(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(got, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)


def test_spd_inv_sqrt_random_residual():
    g = gen_gaussian(12, 12, Prng(39))
    m = g.T @ g + np.eye(12)
    w = spd_inv_sqrt(m)
    assert fro(w - w.T) < 1e-12 * fro(w)
    assert spectral_norm(w @ m @ w - np.eye(12), tol=1e-8) < 1e-8


def test_spd_inv_sqrt_rank_deficient():
    v = Prng(40).normal(5)
    with pytest.raises(RankDeficiencyError):
        spd_inv_sqrt(np.outer(v, v))


def test_spd_inv_sqrt_rejects_asymmetric():
    with pytest.raises(ValueError):
        spd_inv_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


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
    assert fro(resid[None, :]) < 1e-8 * spectral_norm(a, tol=1e-9) * fro(b[None, :])


def test_lstsq_matches_numpy():
    a = gen_gaussian(50, 8, Prng(46))
    b = Prng(47).normal(50)
    x_np, *_ = np.linalg.lstsq(a, b, rcond=None)
    np.testing.assert_allclose(lstsq_exact(a, b), x_np, rtol=1e-8, atol=1e-10)


def test_lstsq_rank_deficient_raises():
    a = gen_gaussian(20, 4, Prng(48))
    a[:, 2] = a[:, 0] + a[:, 1]
    with pytest.raises(RankDeficiencyError):
        lstsq_exact(a, Prng(49).normal(20))


def test_lstsq_rejects_wide_and_bad_b():
    with pytest.raises(ValueError):
        lstsq_exact(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        lstsq_exact(np.eye(3), np.zeros(4))
