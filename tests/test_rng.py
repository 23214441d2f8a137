import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchbench import rng as rng_module
from sketchbench.rng import (
    MERSENNE61,
    KwiseHash,
    Prng,
    _draws_below,
    _split_seeds,
    _splitmix,
    _subsets,
    mix64,
)

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def uniform(rng, n):
    """n doubles on [0, 1) from the top 53 bits of n raw draws."""
    return (rng.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def test_mix64_known_values():
    # SplitMix64 reference outputs for seed 1234567 (first three next() calls).
    state = 1234567
    expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    for want in expected:
        state = (state + GOLDEN) & MASK64
        assert mix64(state) == want


def test_mix64_zero_fixed_point():
    assert mix64(0) == 0


def test_raw_matches_scalar_path():
    # output i of a stream with seed z is mix64(z + (i + 1) * GOLDEN)
    block = Prng(99).raw(17)
    singles = [mix64((99 + i * GOLDEN) & MASK64) for i in range(1, 18)]
    assert [int(x) for x in block] == singles


def test_same_seed_same_stream():
    a = uniform(Prng(42), 100)
    b = uniform(Prng(42), 100)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = Prng(42).raw(100)
    b = Prng(43).raw(100)
    assert np.any(a != b)


def test_split_is_position_independent():
    parent = Prng(7)
    parent.raw(1000)  # advancing the parent must not change children
    late = parent.split(3)
    early = Prng(7).split(3)
    assert late.seed == early.seed
    np.testing.assert_array_equal(late.raw(10), early.raw(10))


def test_split_streams_are_distinct():
    parent = Prng(7)
    seeds = {parent.split(i).seed for i in range(200)}
    assert len(seeds) == 200
    assert parent.seed not in seeds


def test_uniform_bounds_and_moments():
    u = uniform(Prng(1), 200_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.005


def test_normal_moments():
    z = Prng(2).normal(200_001)  # odd length exercises the trim path
    assert len(z) == 200_001
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # kurtosis of a standard normal is 3
    assert abs(np.mean(z**4) - 3.0) < 0.1


def test_integers_below_range_and_uniformity():
    draws = Prng(3).integers_below(10, 100_000)
    assert draws.min() >= 0 and draws.max() <= 9
    counts = np.bincount(draws, minlength=10)
    assert counts.min() > 9000  # expect ~10000 each

    # non-power-of-two bound close below a power of two stresses rejection
    draws = Prng(4).integers_below(3, 30_000)
    counts = np.bincount(draws, minlength=3)
    assert counts.min() > 9000


def test_integers_below_bound_one():
    assert np.all(Prng(5).integers_below(1, 50) == 0)


def test_int_below_matches_vector_path():
    a = Prng(6)
    b = Prng(6)
    singles = [int(a.integers_below(7, 1)[0]) for _ in range(20)]
    # a draw consumes variable raws under rejection, so only check range/determinism
    assert all(0 <= x < 7 for x in singles)
    assert singles == [int(b.integers_below(7, 1)[0]) for _ in range(20)]


def test_signs_values_and_balance():
    s = Prng(8).signs(100_000)
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 0.01


def test_subset_is_valid_and_deterministic():
    rng = Prng(9)
    sub = rng.subset(50, 12)
    assert len(sub) == 12
    assert len(set(sub.tolist())) == 12
    assert sub.min() >= 0 and sub.max() < 50
    np.testing.assert_array_equal(sub, Prng(9).subset(50, 12))


def test_subset_full_is_permutation():
    sub = Prng(10).subset(8, 8)
    assert sorted(sub.tolist()) == list(range(8))


def test_subset_rejects_bad_k():
    with pytest.raises(ValueError):
        Prng(11).subset(5, 6)


def _next_draw(rng):
    """The stream's next output by the scalar ``mix64``, not the array kernel:
    output c of seed z is mix64(z + c * GOLDEN)."""
    rng.counter += 1
    return mix64((rng.seed + rng.counter * GOLDEN) & MASK64)


def _below_reference(rng, bound):
    """One value below ``bound`` by bitmask rejection, one raw draw at a
    time; bound 1 draws nothing."""
    mask = (1 << (bound - 1).bit_length()) - 1
    while bound > 1:
        cand = _next_draw(rng) & mask
        if cand < bound:
            return cand
    return 0


def _integers_below_reference(rng, bound, n):
    """``integers_below(bound, n)`` drawn one value at a time, so the counter
    ends on the n-th accepted draw."""
    return np.array([_below_reference(rng, bound) for _ in range(n)], dtype=np.int64)


def _subset_reference(rng, n, k):
    """The partial Fisher-Yates loop that ``subset`` replaced, one bounded
    draw per step."""
    pool = list(range(n))
    for i in range(k):
        j = i + _below_reference(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return np.array(pool[:k], dtype=np.int64)


def _assert_same_draws(draw, reference, seed):
    """Equal values, dtype, counter, and equal raw draws after, from streams
    already advanced by 0-4 draws."""
    for advance in range(5):
        a, b = Prng(seed), Prng(seed)
        a.raw(advance)
        b.raw(advance)
        got, want = draw(a), reference(b)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert a.counter == b.counter
        np.testing.assert_array_equal(a.raw(3), b.raw(3))


@pytest.mark.parametrize(
    "bound", [1, 2, 3, 5, 17, 20, 33, 64, 65, 100, 1000, 2**40 + 3, MERSENNE61]
)
def test_integers_below_matches_round_loop_reference(bound):
    for n in (0, 1, 2, 3, 10, 101, 1000, 3000):
        seed = 1000 * bound + n
        _assert_same_draws(
            lambda r: r.integers_below(bound, n),
            lambda r: _integers_below_reference(r, bound, n),
            seed,
        )


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 17, 64, 65, 800, 1000])
def test_subset_matches_fisher_yates_reference(n):
    for k in sorted({0, min(1, n), max(n - 1, 0), n // 2, n}):
        _assert_same_draws(
            lambda r: r.subset(n, k),
            lambda r: _subset_reference(r, n, k),
            17 * n + k,
        )


def _assert_streams_match_integers_below(seeds, bound, count, picks=None):
    """Stream r of ``_draws_below`` is ``Prng(seeds[r]).integers_below(bound,
    count)`` and the round loop reference read at ``picks[r]`` (all of it by
    default), and it ends on the reference's counter."""
    if picks is None:
        picks = np.broadcast_to(np.arange(count), (len(seeds), count))
    values, ends = _draws_below(np.array(seeds, dtype=np.uint64), 0, bound, count, picks)
    assert values.dtype == np.int64 and values.shape == np.shape(picks)
    for r, seed in enumerate(seeds):
        ref = Prng(seed)
        want = _integers_below_reference(ref, bound, count)
        np.testing.assert_array_equal(values[r], want[picks[r]])
        np.testing.assert_array_equal(Prng(seed).integers_below(bound, count), want)
        assert ends[r] == ref.counter


@pytest.mark.parametrize("bound", [1, 2, 20, 55, 64, MERSENNE61])
def test_draws_below_is_integers_below_per_stream(bound):
    seeds = [Prng(bound).split(r).seed for r in range(150)]
    for count in (0, 1, 7, 300):
        # 150 streams of 300 draws span several default chunks (59 streams at bound 20)
        _assert_streams_match_integers_below(seeds, bound, count)


@pytest.mark.parametrize("chunk", [1, 300, 1000])
def test_draws_below_across_chunk_boundaries(monkeypatch, chunk):
    monkeypatch.setattr(rng_module, "_DRAW_CHUNK", chunk)
    seeds = [Prng(77).split(r).seed for r in range(13)]
    for bound in (2, 20, 55):
        picks = np.stack([Prng(seed).subset(120, 9) for seed in seeds])
        _assert_streams_match_integers_below(seeds, bound, 120)
        _assert_streams_match_integers_below(seeds, bound, 120, picks)


def test_draws_below_short_first_block_draws_more(monkeypatch):
    """Blocks far too short for their need are extended until every stream
    has its draws, with the values and counters of the reference."""
    needs = []

    def short(need, bits, bound):
        needs.append(need)
        return max(1, need // 3)

    monkeypatch.setattr(rng_module, "_block_length", short)
    seeds = [Prng(78).split(r).seed for r in range(9)]
    for bound in (20, 55, MERSENNE61):
        needs.clear()
        _assert_streams_match_integers_below(seeds, bound, 200)
        assert any(need < 200 for need in needs)  # a further block was drawn


@pytest.mark.parametrize("streams", [1, 2, 13])
def test_splitmix_into_a_held_block(streams):
    """With ``out`` and ``tmp`` (here strided views of larger blocks) the
    block is written into ``out``, with the allocating path's values."""
    seeds = np.array([Prng(81).split(r).seed for r in range(streams)], dtype=np.uint64)
    held, scratch = np.zeros((16, 400), dtype=np.uint64), np.zeros((16, 400), dtype=np.uint64)
    for start in (0, 17):
        for count in (1, 300):
            out = held[1:1 + streams, 3:3 + count]
            got = _splitmix(seeds, start, count, out, scratch[2:2 + streams, :count])
            assert np.shares_memory(got, held)
            np.testing.assert_array_equal(got, _splitmix(seeds, start, count))
            want = [[mix64(int(z) + (start + c + 1) * GOLDEN) for c in range(count)]
                    for z in seeds]
            assert got.tolist() == want


@pytest.mark.parametrize("chunk", [300, 1000])
def test_draws_below_reuses_one_block(monkeypatch, chunk):
    """Every chunk's first block is drawn into the block of the first chunk
    (at 1000 the last chunk is shorter), and the values stay the reference's."""
    monkeypatch.setattr(rng_module, "_DRAW_CHUNK", chunk)
    calls = []
    splitmix = rng_module._splitmix
    signature = inspect.signature(splitmix)

    def recorded(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return splitmix(*args, **kwargs)

    monkeypatch.setattr(rng_module, "_splitmix", recorded)
    seeds = [Prng(82).split(r).seed for r in range(13)]
    picks = np.broadcast_to(np.arange(120), (13, 120))
    _draws_below(np.array(seeds, dtype=np.uint64), 0, 20, 120, picks)
    firsts = [call for call in calls if call["start"] == 0]
    assert len(firsts) > 1 and sum(len(call["seeds"]) for call in firsts) == 13
    for call in firsts:
        assert np.shares_memory(call["out"], firsts[0]["out"])
    _assert_streams_match_integers_below(seeds, 20, 120)


def _assert_subsets_match_loop(seeds, start, n, k, count):
    """Stream r of ``_subsets`` is ``count`` calls of ``Prng.subset`` and of the
    one-draw-a-step reference, from counter ``start``, ending on their counter."""
    values, ends = _subsets(np.array(seeds, dtype=np.uint64), start, n, k, count)
    assert values.dtype == np.int64 and values.shape == (len(seeds), count, k)
    assert ends.shape == (len(seeds),)
    for r, seed in enumerate(seeds):
        one, ref = Prng(seed), Prng(seed)
        one.counter = ref.counter = start
        for c in range(count):
            want = _subset_reference(ref, n, k)
            np.testing.assert_array_equal(values[r, c], want)
            np.testing.assert_array_equal(one.subset(n, k), want)
        assert ends[r] == ref.counter == one.counter


@pytest.mark.parametrize("n", [1, 2, 65, 1000])
def test_subsets_match_a_loop_of_subset_calls(n):
    seeds = [Prng(n).split(r).seed for r in range(40)]
    for k in sorted({0, 1, n - 1, n}):
        for count in (0, 1, 5):
            _assert_subsets_match_loop(seeds, 3 * k, n, k, count)


@pytest.mark.parametrize("chunk", [1, 7, 64, 300])
def test_subsets_across_chunk_boundaries_and_top_ups(monkeypatch, chunk):
    """A small ``_DRAW_CHUNK`` splits the streams into many chunks and cuts
    every first block short, so streams draw their further blocks."""
    monkeypatch.setattr(rng_module, "_DRAW_CHUNK", chunk)
    calls = []
    splitmix = rng_module._splitmix

    def recorded(seeds, start, count):
        calls.append((len(seeds), start))
        return splitmix(seeds, start, count)

    monkeypatch.setattr(rng_module, "_splitmix", recorded)
    seeds = [Prng(79).split(r).seed for r in range(13)]
    for n, k, count in ((2, 1, 40), (65, 64, 3), (1000, 10, 6), (20, 20, 4)):
        calls.clear()
        _subsets(np.array(seeds, dtype=np.uint64), 5, n, k, count)
        assert sum(start == 5 for _, start in calls) > 1  # first blocks of several chunks
        if chunk < count * min(k, n - 1):  # fewer draws than a stream's least need
            assert any(start > 5 for _, start in calls)  # a top-up ran
        _assert_subsets_match_loop(seeds, 5, n, k, count)


def test_subsets_rejects_bad_k():
    seeds = np.array([1, 2], dtype=np.uint64)
    for n, k in ((5, 6), (5, -1), (0, 1)):
        with pytest.raises(ValueError, match="0 <= k <= n"):
            _subsets(seeds, 0, n, k, 3)


def test_split_seeds_is_split():
    pick = Prng(80)
    parents = [0, 1, MASK64, *(int(x) for x in pick.raw(30))]
    ids = [0, 1, 2, MASK64, MASK64 - 1, GOLDEN, *(int(x) for x in pick.raw(30))]
    got = _split_seeds(np.array(parents, dtype=np.uint64)[:, None], np.array(ids, dtype=np.uint64))
    want = [[Prng(p).split(i).seed for i in ids] for p in parents]
    assert got.dtype == np.uint64
    assert got.tolist() == want
    # a scalar parent or id broadcasts like the arrays
    assert _split_seeds(parents[3], ids).tolist() == want[3]
    assert _split_seeds(parents, ids[4]).tolist() == [row[4] for row in want]


def _normal_reference(rng, n):
    """The unblocked Box-Muller that ``normal`` replaced: 2 * pairs draws by
    the scalar ``_next_draw``, u1 from the first half and u2 from the second."""
    pairs = (n + 1) // 2
    u = np.array([_next_draw(rng) for _ in range(2 * pairs)], dtype=np.uint64)
    u1 = ((u[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (u[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


def test_normal_matches_unblocked_reference():
    pairs = rng_module._DRAW_CHUNK  # pairs in one block
    lengths = [0, 1, 2, 3, 101]
    lengths += [2 * (pairs + d) + odd for d in (-1, 0, 1) for odd in (-1, 0, 1)]
    for n in lengths:
        _assert_same_draws(lambda r: r.normal(n), lambda r: _normal_reference(r, n), n)


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_normal_matches_unblocked_reference_many_blocks(monkeypatch, chunk):
    monkeypatch.setattr(rng_module, "_DRAW_CHUNK", chunk)
    for n in (0, 1, 2 * chunk - 1, 2 * chunk, 2 * chunk + 1, 2 * chunk + 2, 37, 1000):
        _assert_same_draws(lambda r: r.normal(n), lambda r: _normal_reference(r, n), n + chunk)


def test_normal_holds_only_its_output():
    import tracemalloc

    n = 2_000_000
    tracemalloc.start()
    try:
        z = Prng(81).normal(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(z) == n
    assert peak < 8 * n + 4 * 2**20  # the 16 MB output plus 4 MB


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=64))
@settings(max_examples=50)
def test_raw_reproducible_any_seed(seed, n):
    np.testing.assert_array_equal(Prng(seed).raw(n), Prng(seed).raw(n))


@given(st.integers(min_value=2, max_value=1000))
@settings(max_examples=50)
def test_integers_below_always_in_range(bound):
    draws = Prng(12).integers_below(bound, 64)
    assert draws.min() >= 0 and draws.max() < bound


# ---------------------------------------------------------------------------
# gamma-wise independent hashing


def test_hash_pinned_degree1_mod5():
    # coefficients[i] multiplies x**i, so this is (2 + 3x) mod 5
    h = KwiseHash(prime=5, coefficients=(2, 3), out_range=5)
    assert h(0) == 2
    assert h(1) == 0
    assert h(4) == 4


def test_hash_pinned_degree1_small_range():
    # (1 + 2x) mod 5, then mod 3
    h = KwiseHash(prime=5, coefficients=(1, 2), out_range=3)
    assert h(0) == 1
    assert h(3) == 2


def test_hash_rejects_out_of_field_input():
    h = KwiseHash(prime=5, coefficients=(1, 2), out_range=5)
    with pytest.raises(ValueError):
        h(5)
    with pytest.raises(ValueError):
        h(-1)


# keys where the 61-bit limbs carry: the bottom, the top of the field, the limb edges
_EDGE_KEYS = (
    list(range(2000))
    + list(range(MERSENNE61 - 1, MERSENNE61 - 3001, -1))
    + [2**32 - 1, 2**32, 2**60]
)


def test_hash_eval_many_matches_scalar():
    rng = Prng(13)
    for gamma in range(1, 9):
        for out_range in (1, 2, 17, 500):
            h = KwiseHash.sample(gamma=gamma, out_range=out_range, rng=rng)
            many = h.eval_many(np.array(_EDGE_KEYS))
            assert many.dtype == np.int64
            assert many.tolist() == [h(x) for x in _EDGE_KEYS], (gamma, out_range)


@pytest.mark.parametrize("gamma", range(1, 9))
def test_hash_eval_many_largest_product(gamma):
    # every Horner step multiplies (p - 1) by (p - 1) and adds p - 1
    h = KwiseHash(prime=MERSENNE61, coefficients=(MERSENNE61 - 1,) * gamma, out_range=2**40)
    assert h.eval_many([MERSENNE61 - 1]).tolist() == [h(MERSENNE61 - 1)]


@pytest.mark.parametrize("prime", [2, 3, 5, 7, 103, 4294967291])
@pytest.mark.parametrize("gamma", [1, 2, 4, 8])
def test_hash_eval_many_matches_scalar_small_primes(prime, gamma):
    coeffs = tuple(int(c) for c in Prng(prime + gamma).integers_below(prime, gamma))
    h = KwiseHash(prime, coefficients=coeffs, out_range=17)
    xs = sorted(set(range(min(prime, 2000))) | set(range(prime - 1, max(prime - 3001, -1), -1)))
    assert h.eval_many(np.array(xs)).tolist() == [h(x) for x in xs]


@given(
    st.lists(st.integers(0, 2**64), min_size=1, max_size=8),
    st.lists(st.integers(0, MERSENNE61 - 1), min_size=1, max_size=20),
    st.integers(1, 2**70),
)
@settings(max_examples=200, deadline=None)
def test_hash_eval_many_matches_scalar_any_coefficients(coeffs, xs, out_range):
    h = KwiseHash(prime=MERSENNE61, coefficients=tuple(coeffs), out_range=out_range)
    assert h.eval_many(xs).tolist() == [h(x) for x in xs]


@pytest.mark.parametrize("key", [-1, MERSENNE61, 2**63, 2**64])
def test_hash_eval_many_rejects_out_of_field_input(key):
    h = KwiseHash.sample(gamma=3, out_range=7, rng=Prng(17))
    with pytest.raises(ValueError, match="outside field"):
        h.eval_many([key])
    with pytest.raises(ValueError, match="outside field"):
        h.eval_many([0, key, 1])


def test_hash_eval_many_rejects_non_integer_input():
    h = KwiseHash.sample(gamma=3, out_range=7, rng=Prng(18))
    with pytest.raises(ValueError, match="integers"):
        h.eval_many([1.0, 2.0])


def test_hash_eval_many_empty_input():
    h = KwiseHash.sample(gamma=3, out_range=7, rng=Prng(19))
    for xs in ([], np.arange(0)):
        many = h.eval_many(xs)
        assert many.dtype == np.int64 and many.shape == (0,)


def test_hash_eval_many_reduces_coefficients_like_scalar():
    # a hand-built hash may hold coefficients at or above p; both paths reduce them
    for prime in (MERSENNE61, 103):
        h = KwiseHash(prime=prime, coefficients=(prime, 2 * prime + 5, 2**64 + 3), out_range=1000)
        xs = [0, 1, 2, prime - 1]
        assert h.eval_many(xs).tolist() == [h(x) for x in xs]


def test_hash_prime_rule():
    # below 2^32 the Horner step fits uint64 directly, and 2^61 - 1 has its limbs
    KwiseHash(prime=2**31 + 11, coefficients=(1, 2), out_range=5)
    with pytest.raises(ValueError, match="prime"):
        KwiseHash(prime=2**40 + 15, coefficients=(1, 2), out_range=5)


def test_hash_sample_coefficient_count_and_field():
    rng = Prng(14)
    h = KwiseHash.sample(gamma=5, out_range=8, rng=rng)
    assert len(h.coefficients) == 5
    assert all(0 <= c < MERSENNE61 for c in h.coefficients)
    assert h.prime == MERSENNE61


def test_hash_sample_validates():
    rng = Prng(15)
    with pytest.raises(ValueError):
        KwiseHash.sample(gamma=0, out_range=4, rng=rng)
    with pytest.raises(ValueError):
        KwiseHash.sample(gamma=2, out_range=0, rng=rng)


@pytest.mark.parametrize("prime", [5, 7])
@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_hash_family_exactly_gamma_wise_uniform(prime, gamma):
    """Enumerate the whole polynomial family over a tiny field and count tuples.

    For any gamma distinct points x_1..x_g and any targets y_1..y_g, exactly
    prime**(0) ... i.e. a fraction p^-gamma of the p^gamma polynomials maps
    x_i -> y_i for all i.  That is the defining property of gamma-wise
    independence, checked here exhaustively rather than statistically.
    """
    from itertools import product

    points = list(range(min(gamma, prime)))
    g = len(points)
    counts = {}
    total = 0
    for coeffs in product(range(prime), repeat=gamma):
        h = KwiseHash(prime=prime, coefficients=coeffs, out_range=prime)
        key = tuple(h(x) for x in points)
        counts[key] = counts.get(key, 0) + 1
        total += 1
    expected = total // prime**g
    assert all(c == expected for c in counts.values())
    assert len(counts) == prime**g


def test_hash_horner_matches_naive_polynomial():
    coeffs = tuple(int(c) for c in Prng(16).integers_below(103, 3))
    h = KwiseHash(prime=103, coefficients=coeffs, out_range=101)
    c0, c1, c2 = h.coefficients
    for x in range(103):
        naive = (c0 + c1 * x + c2 * x * x) % 103 % 101
        assert h(x) == naive
