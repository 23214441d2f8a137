import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import check_graph_sketch, sketch_densify, sketch_graph

from sketchbench.graphs import max_matching_covers
from sketchbench.matrices import gen_gaussian
from sketchbench.rng import MERSENNE61, KwiseHash, KwiseHashes, Prng
from sketchbench.sketch import (
    _ROW_STREAM,
    _SIGN_STREAM,
    GaussianSketch,
    GraphSketch,
    expander_sketch_params,
    gaussian_sketch_new,
    graph_sketch_new,
    sketch_apply,
)


# ---------------------------------------------------------------------------
# graph sketch construction


@pytest.mark.parametrize("s", [1, 2, 4, 8])
def test_graph_sketch_column_structure(s):
    m = 8 * s
    sk = graph_sketch_new(30, m, s, Prng(50))
    check_graph_sketch(sk)
    dense = sketch_densify(sk)
    for j in range(30):
        nz = np.nonzero(dense[:, j])[0]
        assert len(nz) == s
        np.testing.assert_allclose(np.abs(dense[nz, j]), 1.0 / math.sqrt(s))


@pytest.mark.parametrize("s", [2, 4])
def test_block_construction_row_ranges(s):
    m = 6 * s
    block = m // s
    sk = graph_sketch_new(40, m, s, Prng(51))
    for i in range(s):
        col = sk.rows_per_column[:, i]
        assert np.all(col >= i * block)
        assert np.all(col < (i + 1) * block)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_block_rows_are_row_stream_draws_offset_by_their_block(s):
    # column j's i-th row is i·(m/s) + h[i·n + j], h the row stream's draws below m/s
    n, m = 50, 12 * s
    block = m // s
    h = Prng(54).split(_ROW_STREAM).integers_below(block, s * n)
    rows = graph_sketch_new(n, m, s, Prng(54)).rows_per_column
    want = [[i * block + h[i * n + j] for i in range(s)] for j in range(n)]
    np.testing.assert_array_equal(rows, want)


def test_graph_sketch_requires_divisibility():
    with pytest.raises(ValueError, match="divisible"):
        graph_sketch_new(10, 7, 2, Prng(52))


def test_graph_sketch_parameter_errors():
    with pytest.raises(ValueError):
        graph_sketch_new(10, 4, 5, Prng(53))  # s > m
    with pytest.raises(ValueError):
        graph_sketch_new(10, 4, 0, Prng(53))
    with pytest.raises(ValueError):
        graph_sketch_new(10, 4, 2, Prng(53), row_mode="diagonal")


def test_graph_sketch_reproducible_from_parent_seed():
    parent = Prng(54)
    parent.raw(123)  # advance the parent; splits must not care
    sk = graph_sketch_new(25, 12, 2, parent)
    again = graph_sketch_new(25, 12, 2, Prng(54))
    np.testing.assert_array_equal(sk.rows_per_column, again.rows_per_column)
    np.testing.assert_array_equal(sk.signs_per_column, again.signs_per_column)


def test_subset_row_mode_no_block_structure_required():
    sk = graph_sketch_new(30, 10, 3, Prng(55), row_mode="subset")
    check_graph_sketch(sk)
    # subset mode can place several of a column's rows in one block; just
    # require distinctness, which check_graph_sketch already enforced
    assert sk.rows_per_column.shape == (30, 3)


def _subset_rows_reference(n, m, s, rng):
    """The per-column loop that subset mode replaced: one ``subset`` call per
    column, all on the row stream."""
    rows_rng = rng.split(_ROW_STREAM)
    return np.stack([rows_rng.subset(m, s) for _ in range(n)])


@pytest.mark.parametrize("n, m, s", [(1, 1, 1), (30, 10, 3), (50, 7, 7), (200, 65, 64),
                                     (1600, 400, 4)])
def test_subset_row_mode_matches_per_column_loop(n, m, s):
    for seed in range(3):
        sk = graph_sketch_new(n, m, s, Prng(seed), row_mode="subset")
        np.testing.assert_array_equal(sk.rows_per_column,
                                      _subset_rows_reference(n, m, s, Prng(seed)))


def test_gamma_mode_structure_and_determinism():
    sk = graph_sketch_new(50, 20, 2, Prng(56), gamma=4)
    check_graph_sketch(sk)
    again = graph_sketch_new(50, 20, 2, Prng(56), gamma=4)
    np.testing.assert_array_equal(sk.rows_per_column, again.rows_per_column)
    np.testing.assert_array_equal(sk.signs_per_column, again.signs_per_column)


def test_gamma_mode_rejects_subset_rows():
    with pytest.raises(ValueError, match="block"):
        graph_sketch_new(10, 4, 2, Prng(57), gamma=2, row_mode="subset")


@pytest.mark.parametrize("gamma, m, s, digest", [
    (2, 200, 2, "97ed8281f871e91ebb012e38ea4f9808d7bc945c0da3b1dc413c82126ba07efd"),
    (4, 200, 2, "94bf8ceac3852d25061beeae4299e59ab0897d16de62624c4783cf4282671d5c"),
    (8, 400, 4, "db5f230b3224080c059948d8c0922b89c9502db16994786875e8185a9a375ace"),
])
def test_gamma_mode_bytes_are_pinned(gamma, m, s, digest):
    # the gamma-wise operator's exact rows and signs, recorded from the per-key hash loop
    op = graph_sketch_new(2000, m, s, Prng(909), gamma)
    data = op.rows_per_column.tobytes() + op.signs_per_column.tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def _gamma_reference(n, m, s, gamma, rng):
    """The gamma-wise operator hash by hash: s row hashes, then s sign hashes,
    each one ``KwiseHash.sample`` and one ``eval_many`` over the columns."""
    block, cols = m // s, np.arange(n)
    rows_rng, signs_rng = rng.split(_ROW_STREAM), rng.split(_SIGN_STREAM)
    h = np.stack([KwiseHash.sample(gamma, block, rows_rng).eval_many(cols)
                  for _ in range(s)], axis=1)
    signs = np.stack([KwiseHash.sample(gamma, 2, signs_rng).eval_many(cols)
                      for _ in range(s)], axis=1)
    return h + np.arange(s) * block, 1.0 - 2.0 * signs


def test_gamma_mode_matches_the_per_hash_reference_on_random_shapes():
    pick = np.random.default_rng(2030)
    heights = [1, 2, 3] + [2**j + e for j in range(2, 9) for e in (-1, 1)]
    for trial in range(300):
        n = int(pick.integers(1, 5001)) if trial % 3 else int(pick.integers(1, 40))
        s, gamma = int(pick.integers(1, 6)), int(pick.integers(1, 10))
        m = s * int(pick.choice(heights))
        op = graph_sketch_new(n, m, s, Prng(trial), gamma=gamma)
        rows, signs = _gamma_reference(n, m, s, gamma, Prng(trial))
        for got, want in ((op.rows_per_column, rows), (op.signs_per_column, signs)):
            assert got.dtype == want.dtype and got.shape == want.shape, (n, m, s, gamma)
            np.testing.assert_array_equal(got, want, err_msg=f"n={n} m={m} s={s} gamma={gamma}")


def test_batched_horner_matches_scalar_at_the_top_of_the_field():
    # acc, keys and coefficients at p - 1 put every step at the bound of the lazy reduction
    top = MERSENNE61 - 1
    keys = [0, 1, 2, 2**32 - 1, 2**32, 2**60, top - 1, top]
    draws = Prng(31).integers_below(MERSENNE61, 40).tolist()
    for gamma in range(1, 10):
        hashes = [KwiseHash(MERSENNE61, (top,) * gamma, out_range)
                  for out_range in (2, 2**40, 2**70)]
        hashes.append(KwiseHash(MERSENNE61, tuple(draws[:gamma - 1]) + (top,), 1000))
        hashes.append(KwiseHash(MERSENNE61, tuple(draws[gamma:2 * gamma]), 7))
        values = KwiseHashes(tuple(hashes)).eval_many(np.array(keys))
        assert values.dtype == np.int64 and values.shape == (len(hashes), len(keys))
        for h, row in zip(hashes, values.tolist()):
            assert row == [h(x) for x in keys], h


def test_hash_stack_refuses_mixed_fields_and_takes_no_hashes():
    with pytest.raises(ValueError, match="different fields"):
        KwiseHashes((KwiseHash(7, (1, 2), 3), KwiseHash(MERSENNE61, (1, 2), 3))).eval_many([1])
    assert KwiseHashes(()).eval_many([1, 2]).shape == (0, 2)


def test_hash_stack_sample_is_count_samples_in_a_row():
    one, many = Prng(41), Prng(41)
    stack = KwiseHashes.sample(3, 5, 11, many)
    assert stack.hashes == tuple(KwiseHash.sample(5, 11, one) for _ in range(3))
    assert many.counter == one.counter


def test_gamma_differs_from_full():
    full = graph_sketch_new(50, 20, 2, Prng(58))
    g2 = graph_sketch_new(50, 20, 2, Prng(58), gamma=2)
    assert np.any(full.rows_per_column != g2.rows_per_column)


# ---------------------------------------------------------------------------
# countsketch


def test_countsketch_single_pm1_per_column():
    sk = graph_sketch_new(40, 16, 1, Prng(59))
    assert sk.s == 1
    dense = sketch_densify(sk)
    for j in range(40):
        nz = np.nonzero(dense[:, j])[0]
        assert len(nz) == 1
        assert dense[nz[0], j] in (-1.0, 1.0)


def test_countsketch_frobenius_exact():
    sk = graph_sketch_new(33, 8, 1, Prng(60))
    dense = sketch_densify(sk)
    assert float(np.sum(dense * dense)) == 33.0


def test_countsketch_reproducible():
    a = graph_sketch_new(20, 8, 1, Prng(61))
    b = graph_sketch_new(20, 8, 1, Prng(61))
    np.testing.assert_array_equal(a.rows_per_column, b.rows_per_column)
    np.testing.assert_array_equal(a.signs_per_column, b.signs_per_column)


# ---------------------------------------------------------------------------
# expander parameters


def test_expander_params_pinned_example():
    s, m = expander_sketch_params(k=100, eps=0.5, delta=0.1)
    assert s == 16
    assert m == 3056
    assert m % s == 0


def test_expander_params_monotone_in_eps():
    for k, delta in [(10, 0.1), (100, 0.05), (7, 0.3)]:
        s1, m1 = expander_sketch_params(k, 0.4, delta)
        s2, m2 = expander_sketch_params(k, 0.2, delta)
        assert s2 >= 2 * s1 - s1 % 1 - 1  # at least doubles up to rounding
        assert s2 >= s1
        assert m2 >= m1


def test_expander_params_log_clamped():
    # k=1 with delta*eps close to 1 would give ln(arg) <= 0 without the clamp
    s, m = expander_sketch_params(k=1, eps=0.9, delta=0.9)
    assert s >= math.ceil(1.0 / 0.9)
    assert m >= s


def test_expander_params_validation():
    with pytest.raises(ValueError):
        expander_sketch_params(0, 0.5, 0.1)
    with pytest.raises(ValueError):
        expander_sketch_params(10, 0.0, 0.1)
    with pytest.raises(ValueError):
        expander_sketch_params(10, 1.0, 0.1)
    with pytest.raises(ValueError):
        expander_sketch_params(10, 0.5, 0.0)


@given(
    st.integers(1, 500),
    st.floats(0.05, 0.95),
    st.floats(0.01, 0.95),
)
@settings(max_examples=100, deadline=None)
def test_expander_params_always_constructible(k, eps, delta):
    s, m = expander_sketch_params(k, eps, delta)
    assert s >= 1
    assert m >= s
    assert m % s == 0


# ---------------------------------------------------------------------------
# gaussian sketch


def test_gaussian_shape_and_reproducibility():
    sk = gaussian_sketch_new(7, 5, Prng(63))
    assert sk.entries.shape == (5, 7)
    again = gaussian_sketch_new(7, 5, Prng(63))
    np.testing.assert_array_equal(sk.entries, again.entries)


def test_gaussian_column_norm_expectation():
    # E ||S e_1||^2 = 1 by the 1/m variance scaling; Monte Carlo over seeds
    total = 0.0
    trials = 10_000
    base = Prng(64)
    for t in range(trials):
        sk = gaussian_sketch_new(2, 5, base.split(t))
        total += float(np.sum(sk.entries[:, 0] ** 2))
    assert abs(total / trials - 1.0) < 0.03


def test_gaussian_validation():
    with pytest.raises(ValueError):
        gaussian_sketch_new(0, 5, Prng(65))


# ---------------------------------------------------------------------------
# apply


@pytest.mark.parametrize("s", [1, 2, 4, 8])
def test_fast_apply_matches_dense_oracle(s):
    sk = graph_sketch_new(24, 8 * s, s, Prng(66 + s))
    a = gen_gaussian(24, 7, Prng(67))
    fast = sketch_apply(sk, a)
    oracle = sketch_densify(sk) @ a
    np.testing.assert_allclose(fast, oracle, atol=1e-12)


def test_apply_linearity_exact_countsketch_integers():
    # with s=1 (scale 1) and integer inputs every float op is exact, so
    # bilinearity holds bit for bit
    sk = graph_sketch_new(12, 6, 1, Prng(70))
    a = np.floor(gen_gaussian(12, 3, Prng(71)) * 8)
    b = np.floor(gen_gaussian(12, 3, Prng(72)) * 8)
    lhs = sketch_apply(sk, a + b)
    rhs = sketch_apply(sk, a) + sketch_apply(sk, b)
    np.testing.assert_array_equal(lhs, rhs)


def test_apply_linearity_general_s():
    # the irrational 1/sqrt(s) scale breaks float distributivity, so the
    # general case is checked at rounding tolerance
    sk = graph_sketch_new(12, 6, 2, Prng(70))
    a = gen_gaussian(12, 3, Prng(71))
    b = gen_gaussian(12, 3, Prng(72))
    lhs = sketch_apply(sk, a + b)
    rhs = sketch_apply(sk, a) + sketch_apply(sk, b)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def _apply_reference(op, a):
    """Every pass as one 2-D ``np.add.at`` over the output rows."""
    out = np.zeros((op.m, a.shape[1]))
    for i in range(op.s):
        np.add.at(out, op.rows_per_column[:, i], op.signs_per_column[:, i, None] * a)
    out *= op.scale
    return out


@pytest.mark.parametrize("d", [0, 1, 10, 100])
@pytest.mark.parametrize("n, m, s, mode", [
    (300, 40, 2, {}), (300, 40, 4, {}), (200, 30, 3, {"row_mode": "subset"}),
    (250, 48, 4, {"gamma": 4}), (257, 9, 3, {"gamma": 1}), (3000, 4, 2, {}), (300, 7, 1, {}),
])
def test_apply_flat_scatter_matches_the_2d_reference_bit_for_bit(n, m, s, mode, d):
    op = graph_sketch_new(n, m, s, Prng(n + m + s), **mode)
    a = Prng(d + 3).normal(n * d).reshape(n, d)
    a[np.random.default_rng(d).random(a.shape) < 0.3] = 0.0  # sign times zero gives -0.0
    for x in (a, np.asfortranarray(a), a[::-1].copy()):
        got, want = sketch_apply(op, x), _apply_reference(op, x)
        assert got.shape == want.shape == (m, d)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_apply_shape_mismatch():
    sk = graph_sketch_new(12, 6, 2, Prng(73))
    with pytest.raises(ValueError):
        sketch_apply(sk, np.zeros((13, 2)))
    gsk = gaussian_sketch_new(12, 6, Prng(74))
    with pytest.raises(ValueError):
        sketch_apply(gsk, np.zeros((13, 2)))


def test_gaussian_apply_is_matrix_product():
    sk = gaussian_sketch_new(9, 4, Prng(75))
    a = gen_gaussian(9, 3, Prng(76))
    np.testing.assert_allclose(sketch_apply(sk, a), sk.entries @ a, atol=0)


def test_unbiased_sketched_norm():
    # mean of ||S x||^2 over many seeds approximates ||x||^2 = 1
    x = Prng(77).normal(200)
    x /= math.sqrt(float(x @ x))
    xcol = x[:, None]
    base = Prng(78)
    trials = 10_000
    vals = np.empty(trials)
    for t in range(trials):
        sk = graph_sketch_new(200, 50, 2, base.split(t))
        sx = sketch_apply(sk, xcol)
        vals[t] = float(np.sum(sx * sx))
    stderr = vals.std() / math.sqrt(trials)
    assert abs(vals.mean() - 1.0) <= 3 * stderr


# ---------------------------------------------------------------------------
# densify / graph view


def test_densify_column_norms_one():
    for s in (1, 2, 8):
        sk = graph_sketch_new(20, 8 * s, s, Prng(79 + s))
        dense = sketch_densify(sk)
        norms_sq = np.sum(dense * dense, axis=0)
        np.testing.assert_allclose(norms_sq, 1.0, atol=1e-14)
        assert abs(float(np.sum(dense * dense)) - 20.0) <= 1e-12 * 20


def test_densify_nnz():
    sk = graph_sketch_new(20, 12, 3, Prng(80))
    dense = sketch_densify(sk)
    assert np.count_nonzero(dense) == 3 * 20


def test_densify_gaussian_reproduces_entries():
    sk = gaussian_sketch_new(6, 4, Prng(81))
    np.testing.assert_array_equal(sketch_densify(sk), sk.entries)


def test_sketch_to_graph_roundtrip():
    sk = graph_sketch_new(18, 8, 2, Prng(82))
    g = sketch_graph(sk)
    assert g.left_count == 18 and g.right_count == 8 and g.degree == 2
    assert g.adjacency.shape == (18, 2)
    assert g.adjacency.min() >= 0 and g.adjacency.max() < 8
    assert all(len(set(row)) == 2 for row in g.adjacency.tolist())
    for j in range(18):
        assert set(g.adjacency[j]) == set(sk.rows_per_column[j])


def test_sketch_to_graph_identity_perfect_matching():
    identity = GraphSketch(n=9, m=9, s=1, rows_per_column=np.arange(9)[:, None],
                           signs_per_column=np.ones((9, 1)))
    assert max_matching_covers(sketch_graph(identity), range(9))
