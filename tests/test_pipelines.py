import math

import numpy as np
import pytest

from sketchbench.linalg import RankDeficiencyError, lstsq_factor, svd
from sketchbench.matrices import gen_gaussian, gen_low_rank_plus_noise
from sketchbench.metrics import distortion  # noqa: F401  (import cycle sanity)
from sketchbench.pipelines import (
    best_rank_k_error,
    lowrank_approx,
    sketch_and_solve_lsq,
)
from sketchbench.rng import Prng
from sketchbench.sketch import (
    GaussianSketch,
    gaussian_sketch_new,
    graph_sketch_new,
    sketch_apply,
)


def fro(a):
    return float(np.sqrt(np.sum(a * a)))


def zero_operator(n, m):
    return GaussianSketch(m=m, n=n, entries=np.zeros((m, n)))


def identity_operator(n):
    return GaussianSketch(m=n, n=n, entries=np.eye(n))


# ---------------------------------------------------------------------------
# sketch_and_solve_lsq


def test_lsq_consistent_system_recovers_exactly():
    a = gen_gaussian(80, 6, Prng(140))
    x0 = Prng(141).normal(6)
    res = sketch_and_solve_lsq(a, a @ x0, graph_sketch_new(80, 40, 2, Prng(142)), lstsq_factor(a))
    np.testing.assert_allclose(res.x_tilde, x0, rtol=1e-8, atol=1e-10)
    assert res.ratio == 1.0


def test_lsq_identity_sketch_matches_exact_solver():
    a = gen_gaussian(50, 5, Prng(143))
    b = Prng(144).normal(50)
    res = sketch_and_solve_lsq(a, b, identity_operator(50), lstsq_factor(a))
    assert res.ratio == 1.0
    assert res.sketched_residual == res.optimal_residual


def test_lsq_ratio_never_below_one():
    for trial in range(20):
        rng = Prng(145).split(trial)
        a = gen_gaussian(60, 5, rng.split(0))
        b = rng.split(1).normal(60)
        res = sketch_and_solve_lsq(a, b, graph_sketch_new(60, 30, 2, rng.split(2)), lstsq_factor(a))
        assert res.ratio >= 1.0 - 1e-8


def test_lsq_graph_sketch_quality():
    # scaled-down version of the m = 40 d regime: most trials land close
    # to the optimum
    good = 0
    for trial in range(30):
        rng = Prng(146).split(trial)
        a = gen_gaussian(500, 8, rng.split(0))
        x0 = rng.split(1).normal(8)
        b = a @ x0 + 0.1 * rng.split(2).normal(500)
        op = graph_sketch_new(500, 160, 2, rng.split(3))
        res = sketch_and_solve_lsq(a, b, op, lstsq_factor(a))
        if res.ratio <= 1.2:
            good += 1
    assert good >= 27


def test_lsq_gaussian_sketch_quality():
    good = 0
    for trial in range(30):
        rng = Prng(147).split(trial)
        a = gen_gaussian(500, 8, rng.split(0))
        b = rng.split(1).normal(500)
        op = gaussian_sketch_new(500, 160, rng.split(2))
        res = sketch_and_solve_lsq(a, b, op, lstsq_factor(a))
        if res.ratio <= 1.1:
            good += 1
    assert good >= 27


def test_lsq_rank_deficient_sketch_raises():
    a = gen_gaussian(30, 4, Prng(148))
    b = Prng(149).normal(30)
    with pytest.raises(RankDeficiencyError):
        sketch_and_solve_lsq(a, b, zero_operator(30, 10), lstsq_factor(a))


def test_lsq_rank_deficient_matrix_raises():
    a = gen_gaussian(30, 4, Prng(150))
    a[:, 1] = a[:, 0]
    with pytest.raises(RankDeficiencyError):
        sketch_and_solve_lsq(a, Prng(151).normal(30), graph_sketch_new(30, 16, 2, Prng(152)),
                             lstsq_factor(a))


def test_lsq_validates_b():
    a = gen_gaussian(10, 2, Prng(153))
    with pytest.raises(ValueError):
        sketch_and_solve_lsq(a, np.zeros(11), identity_operator(10), lstsq_factor(a))


# ---------------------------------------------------------------------------
# best_rank_k_error


def test_best_rank_full_is_zero():
    a = gen_gaussian(12, 5, Prng(154))
    assert best_rank_k_error(a, 5) <= 1e-10 * fro(a)


def test_best_rank_diagonal():
    assert best_rank_k_error(np.diag([3.0, 2.0, 1.0]), 1) == pytest.approx(math.sqrt(5))


def test_best_rank_matches_reconstruction():
    a = gen_gaussian(25, 10, Prng(155))
    k = 4
    v_k = svd(a).V[:, :k]
    recon_err = fro(a - (a @ v_k) @ v_k.T)
    assert best_rank_k_error(a, k) == pytest.approx(recon_err, abs=1e-8)


@pytest.mark.parametrize("c", [2.0**600, 2.0**-600])
def test_lsq_ratio_and_tail_error_exact_at_extreme_scales(c):
    """A power-of-two scale is exact along the whole path, so squares that
    overflow or vanish must not turn either quantity into inf, 0 or 1.0."""
    a = gen_gaussian(300, 10, Prng(158))
    b = Prng(159).normal(300)
    op = graph_sketch_new(300, 40, 2, Prng(160))
    want = sketch_and_solve_lsq(a, b, op, lstsq_factor(a)).ratio
    assert want > 1.0
    with np.errstate(over="ignore"):
        assert sketch_and_solve_lsq(c * a, c * b, op, lstsq_factor(c * a)).ratio == want
        assert best_rank_k_error(c * a, 5) / c == best_rank_k_error(a, 5)


def test_best_rank_validates_k():
    a = gen_gaussian(6, 4, Prng(156))
    with pytest.raises(ValueError):
        best_rank_k_error(a, 0)
    with pytest.raises(ValueError):
        best_rank_k_error(a, 5)


# ---------------------------------------------------------------------------
# lowrank_approx


def test_lowrank_exact_rank_recovers():
    a = gen_low_rank_plus_noise(100, 30, 4, 0.0, Prng(157))
    res = lowrank_approx(a, 4, graph_sketch_new(100, 16, 2, Prng(158)), best_rank_k_error(a, 4))
    if not res.rank_deficient:
        assert res.ratio == 1.0
        assert res.sketch_error <= 1e-10 * fro(a)


def test_lowrank_k_equals_d():
    a = gen_gaussian(40, 6, Prng(159))
    res = lowrank_approx(a, 6, graph_sketch_new(40, 12, 2, Prng(160)), best_rank_k_error(a, 6))
    assert res.V_k.shape == (6, 6)
    assert fro(res.V_k.T @ res.V_k - np.eye(6)) < 1e-10
    assert res.ratio == 1.0


def test_lowrank_orthonormal_and_floor():
    a = gen_low_rank_plus_noise(120, 40, 6, 0.05, Prng(161))
    k = 6
    optimal = best_rank_k_error(a, k)
    res = lowrank_approx(a, k, graph_sketch_new(120, 24, 2, Prng(162)), optimal)
    assert res.V_k.shape == (40, k)
    assert fro(res.V_k.T @ res.V_k - np.eye(k)) < 1e-10
    assert res.sketch_error >= optimal - 1e-8 * fro(a)
    assert res.ratio >= 1.0 - 1e-8
    proj = res.V_k @ res.V_k.T
    assert fro(proj @ proj - proj) < 1e-10


def test_lowrank_zero_sketch_flagged():
    a = gen_gaussian(30, 10, Prng(163))
    res = lowrank_approx(a, 3, zero_operator(30, 8), best_rank_k_error(a, 3))
    assert res.rank_deficient
    assert np.isfinite(res.ratio)


def test_lowrank_m_exceeding_d_capped():
    a = gen_low_rank_plus_noise(60, 12, 3, 0.01, Prng(164))
    res = lowrank_approx(a, 3, graph_sketch_new(60, 24, 2, Prng(165)), best_rank_k_error(a, 3))
    assert res.V_k.shape == (12, 3)
    assert fro(res.V_k.T @ res.V_k - np.eye(3)) < 1e-10
    assert res.ratio >= 1.0 - 1e-8
    assert res.ratio < 10.0


def test_lowrank_wide_sketched_product_is_refused():
    # Y = SA has rank at most n = 30, so a basis of min(m, d) > 30 directions
    # would hold QR completion directions the sketch never saw
    a = gen_low_rank_plus_noise(30, 60, 5, 0.01, Prng(169))
    k = 5
    opt = best_rank_k_error(a, k)
    with pytest.raises(ValueError, match="exceeds the 30 rows"):
        lowrank_approx(a, k, graph_sketch_new(30, 40, 2, Prng(170)), opt)
    # at min(m, d) = n, with Y of full rank, B = AQ is square and the ratio is
    # numpy.linalg's (the route of perfbench/checks.py)
    op = gaussian_sketch_new(30, 30, Prng(170))
    res = lowrank_approx(a, k, op, opt)
    assert res.V_k.shape == (60, k)
    assert fro(res.V_k.T @ res.V_k - np.eye(k)) < 1e-10
    q = np.linalg.qr(sketch_apply(op, a).T)[0]
    v_k = q @ np.linalg.svd(a @ q, full_matrices=False)[2][:k].T
    err = np.linalg.norm(a - (a @ v_k) @ v_k.T)
    want = np.sqrt(np.sum(np.linalg.svd(a, compute_uv=False)[k:] ** 2))
    assert res.ratio == pytest.approx(err / want, rel=1e-10)


def test_lowrank_validates():
    a = gen_gaussian(20, 8, Prng(166))
    opt = best_rank_k_error(a, 5)  # read only once the checks pass
    with pytest.raises(ValueError):
        lowrank_approx(a, 0, graph_sketch_new(20, 8, 2, Prng(167)), opt)
    with pytest.raises(ValueError):
        lowrank_approx(a, 9, graph_sketch_new(20, 18, 2, Prng(167)), opt)
    with pytest.raises(ValueError):
        lowrank_approx(a, 5, graph_sketch_new(20, 4, 2, Prng(167)), opt)


def test_lowrank_median_ratio_nonincreasing_in_m():
    k = 5
    meds = []
    for m in (2 * k, 4 * k, 8 * k):
        ratios = []
        for trial in range(10):
            rng = Prng(168).split(trial)
            a = gen_low_rank_plus_noise(256, 40, k, 0.01, rng.split(0))
            op = graph_sketch_new(256, m, 2, rng.split(1))
            res = lowrank_approx(a, k, op, best_rank_k_error(a, k))
            ratios.append(res.ratio)
        meds.append(float(np.median(ratios)))
    assert meds[1] <= meds[0] * 1.05
    assert meds[2] <= meds[1] * 1.05
