import math

import numpy as np
import pytest

from sketchbench.linalg import RankDeficiencyError, thin_qr
from sketchbench.matrices import gen_gaussian
from sketchbench.metrics import (
    distortion,
    distortion_via_basis,
    jlt_failure_rate,
)
from sketchbench.rng import Prng
from sketchbench.sketch import (
    GaussianSketch,
    expander_sketch_params,
    gaussian_sketch_new,
    graph_sketch_new,
)


def unit_vector(n, seed):
    x = Prng(seed).normal(n)
    return x / math.sqrt(float(x @ x))


def zero_operator(n, m):
    return GaussianSketch(m=m, n=n, entries=np.zeros((m, n)))


def diag_operator(values):
    d = len(values)
    return GaussianSketch(m=d, n=d, entries=np.diag(values))


def identity_operator(n):
    return diag_operator(np.ones(n))


# ---------------------------------------------------------------------------
# distortion, definition route


def test_distortion_identity_sketch_is_zero():
    a = gen_gaussian(50, 6, Prng(110))
    res = distortion(a, a)
    assert res.eta <= 1e-8


def test_distortion_doubling_gives_three():
    a = gen_gaussian(40, 5, Prng(111))
    res = distortion(a, 2.0 * a)
    assert res.eta == pytest.approx(3.0, abs=1e-8)


def test_distortion_rejects_rank_deficient():
    a = gen_gaussian(30, 4, Prng(112))
    a[:, 3] = a[:, 0]
    with pytest.raises(RankDeficiencyError):
        distortion(a, a)


def test_distortion_rejects_an_infinite_entry():
    # A's singular values come out NaN, which no full rank allows
    a = gen_gaussian(20, 4, Prng(48))
    a[5, 2] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(RankDeficiencyError,
                                                      match="singular-value ratio"):
        distortion(a, a)


def test_distortion_rejects_wide_input():
    # a 3x5 A has rank at most 3; its Gram matrix has no inverse square root
    a = gen_gaussian(3, 5, Prng(115))
    with pytest.raises(RankDeficiencyError):
        distortion(a, a)


def test_distortion_rejects_column_mismatch():
    with pytest.raises(ValueError):
        distortion(np.eye(4), np.eye(3))


def test_distortion_scale_invariance():
    a = gen_gaussian(60, 6, Prng(113))
    sk = graph_sketch_new(60, 24, 2, Prng(114))
    from sketchbench.sketch import sketch_apply

    sa = sketch_apply(sk, a)
    base = distortion(a, sa).eta
    for c in (1e-3, 7.5, 1e3):
        assert distortion(c * a, c * sa).eta == pytest.approx(base, abs=1e-8)


# ---------------------------------------------------------------------------
# distortion, basis route


def test_basis_identity_zero():
    u, _ = thin_qr(gen_gaussian(30, 4, Prng(115)))
    res = distortion_via_basis(u, identity_operator(30))
    assert res.eta <= 1e-10


def test_basis_pinned_arithmetic():
    res = distortion_via_basis(np.eye(2), diag_operator([1.2, 0.9]))
    assert res.eta == pytest.approx(0.44, abs=1e-12)
    assert res.sigma_max == pytest.approx(1.2, abs=1e-12)
    assert res.sigma_min == pytest.approx(0.9, abs=1e-12)


def test_basis_eta_from_extreme_sigmas():
    u, _ = thin_qr(gen_gaussian(80, 5, Prng(116)))
    res = distortion_via_basis(u, graph_sketch_new(80, 30, 2, Prng(117)))
    expected = max(abs(1 - res.sigma_min**2), abs(1 - res.sigma_max**2))
    assert res.eta == pytest.approx(expected, rel=1e-12)


def test_basis_keeps_structural_zeros_when_m_below_d():
    # 12 sketch rows cannot embed a 20-dimensional subspace: S @ U has 8
    # zero singular values that the factorization of the 12 x 20 product
    # does not return
    u, _ = thin_qr(gen_gaussian(60, 20, Prng(123)))
    op = graph_sketch_new(60, 12, 2, Prng(124))
    res = distortion_via_basis(u, op)
    assert res.sigma_min == 0.0
    assert res.eta >= 1.0


@pytest.mark.parametrize("method", ["graph", "gaussian"])
def test_basis_eta_matches_lapack_at_d300(method):
    # a wider d than any workload: the Gram route against LAPACK's singular values
    n, d, m = 1200, 300, 600
    u, _ = thin_qr(gen_gaussian(n, d, Prng(125)))
    if method == "graph":
        op = graph_sketch_new(n, m, 2, Prng(126))
    else:
        op = gaussian_sketch_new(n, m, Prng(126))
    from sketchbench.sketch import sketch_apply

    sig = np.linalg.svd(sketch_apply(op, u), compute_uv=False)
    want = float(np.max(np.abs(1.0 - sig**2)))
    assert distortion_via_basis(u, op).eta == pytest.approx(want, rel=1e-13, abs=0)


def test_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        distortion_via_basis(2.0 * np.eye(3), identity_operator(3))


def test_definition_equals_basis_on_random_instances():
    # the two routes share no code path past sketch_apply
    for trial in range(50):
        rng = Prng(118).split(trial)
        a = gen_gaussian(60, 6, rng.split(0))
        method = trial % 4
        if method == 3:
            op = gaussian_sketch_new(60, 24, rng.split(1))
        else:
            op = graph_sketch_new(60, 24, 2 ** method, rng.split(1))
        from sketchbench.sketch import sketch_apply

        lit = distortion(a, sketch_apply(op, a)).eta
        bas = distortion_via_basis(thin_qr(a)[0], op).eta
        assert lit == pytest.approx(bas, abs=1e-8)


# ---------------------------------------------------------------------------
# the embedding condition |1 - sigma_i^2| <= eps, read as eta <= eps


def test_embedding_zero_dimensional_vacuous():
    res = distortion_via_basis(np.zeros((5, 0)), identity_operator(5))
    assert res.eta == 0.0
    assert res.sigma_min == res.sigma_max == 1.0


def test_embedding_zero_operator_fails_below_one():
    u, _ = thin_qr(gen_gaussian(10, 2, Prng(120)))
    res = distortion_via_basis(u, zero_operator(10, 6))
    assert res.eta == 1.0
    assert res.sigma_min == res.sigma_max == 0.0


# ---------------------------------------------------------------------------
# JLT failure rate


def test_jlt_identity_family_zero():
    n = 8
    x = np.zeros(n)
    x[0] = 1.0
    assert jlt_failure_rate(lambda r: identity_operator(n), x, 0.1, 40, Prng(132)) == 0.0


def test_jlt_zero_family_always_fails():
    n = 8
    x = np.zeros(n)
    x[0] = 1.0
    assert jlt_failure_rate(lambda r: zero_operator(n, 4), x, 0.5, 40, Prng(133)) == 1.0


def test_jlt_expander_parameters_meet_target():
    # the hidden constant in m = O(k L / eps^2) is calibrated to c_m = 3
    # (see scripts/calibrate_embedding_eps.py for the measurement setup);
    # with it the k=1 target delta = 0.1 holds with slack
    s, m = expander_sketch_params(1, 0.5, 0.1, c_m=3.0)
    n = 64
    x = unit_vector(n, 134)
    rate = jlt_failure_rate(lambda r: graph_sketch_new(n, m, s, r), x, 0.5, 500, Prng(135))
    assert rate <= 0.1


def test_jlt_validates():
    x = unit_vector(8, 136)
    factory = lambda r: graph_sketch_new(8, 4, 1, r)
    with pytest.raises(ValueError):
        jlt_failure_rate(factory, x, 0.0, 5, Prng(137))
    with pytest.raises(ValueError):
        jlt_failure_rate(factory, x * 3, 0.5, 5, Prng(137))
