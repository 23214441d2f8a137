import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import neighborhood, sketch_graph

from sketchbench import rng as rng_module
from sketchbench.cli import _trial_stream
from sketchbench.graphs import (
    BipartiteGraph,
    BudgetExceededError,
    _greedy_stalls,
    estimate_magical_delta,
    max_matching_covers,
    verify_expansion,
)
from sketchbench.rng import Prng
from sketchbench.sketch import graph_sketch_new


def identity_graph(n):
    return BipartiteGraph(
        left_count=n, right_count=n, degree=1,
        adjacency=np.arange(n, dtype=np.int64)[:, None],
    )


def complete_graph(n, m):
    adj = np.tile(np.arange(m, dtype=np.int64), (n, 1))
    return BipartiteGraph(left_count=n, right_count=m, degree=m, adjacency=adj)


def random_graph(n, m, s, seed):
    return sketch_graph(graph_sketch_new(n, m, s, Prng(seed), row_mode="subset"))


# ---------------------------------------------------------------------------
# neighborhood


def test_neighborhood_empty():
    assert neighborhood(identity_graph(5), set()) == set()


def test_neighborhood_identity():
    g = identity_graph(6)
    assert neighborhood(g, {1, 4}) == {1, 4}


def test_neighborhood_shared():
    adj = np.array([[0, 1], [0, 1]], dtype=np.int64)
    g = BipartiteGraph(left_count=2, right_count=4, degree=2, adjacency=adj)
    assert neighborhood(g, {0, 1}) == {0, 1}


def test_neighborhood_rejects_bad_id():
    with pytest.raises(ValueError):
        neighborhood(identity_graph(3), {3})


def test_neighborhood_monotone():
    g = random_graph(15, 10, 3, 90)
    c2 = set(range(8))
    c1 = {0, 3, 5}
    assert neighborhood(g, c1) <= neighborhood(g, c2)


# ---------------------------------------------------------------------------
# verify_expansion


def test_expansion_identity_always_holds():
    g = identity_graph(10)
    for eps in (0.1, 0.5, 0.9):
        res = verify_expansion(g, 5, eps)
        assert res.holds and res.witness is None


def test_expansion_complete_fails_with_pair_witness():
    g = complete_graph(4, 6)
    res = verify_expansion(g, 2, 0.25)
    assert not res.holds
    assert res.witness is not None and len(res.witness) == 2


def test_expansion_matches_bruteforce():
    g = random_graph(30, 60, 4, 91)
    res = verify_expansion(g, 3, 0.5)
    # independently coded brute force over the same subsets
    neigh = [set(int(v) for v in g.adjacency[j]) for j in range(30)]
    holds = True
    for size in (1, 2, 3):
        for sub in combinations(range(30), size):
            union = set().union(*(neigh[x] for x in sub))
            if not len(union) > (1 - 0.5) * 4 * size:
                holds = False
                break
        if not holds:
            break
    assert res.holds == holds


def _expansion_reference(g, k, eps):
    """The enumerator that ``verify_expansion`` replaced for sizes 1 and 2:
    every subset, sizes increasing, lexicographic, float bound."""
    neighbor_sets = [frozenset(int(v) for v in g.adjacency[j]) for j in range(g.left_count)]
    for size in range(1, min(k, g.left_count) + 1):
        bound = (1.0 - eps) * g.degree * size
        for subset in combinations(range(g.left_count), size):
            union = set()
            for x in subset:
                union |= neighbor_sets[x]
            if not len(union) > bound:
                return False, subset
    return True, None


def _assert_matches_reference(g, k, eps):
    res = verify_expansion(g, k, eps)
    assert (res.holds, res.witness) == _expansion_reference(g, k, eps)
    return res


EPS_GRID = (0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 0.9)


def test_expansion_matches_enumerator_on_random_graphs():
    r = random.Random(2024)
    violating = 0
    for _ in range(2000):
        m = r.randint(1, 60)
        n, s, k = r.randint(1, 40), r.randint(1, min(5, m)), r.randint(1, 3)
        if r.random() < 0.25:  # repeated right vertices: no validate() in the check
            rows = [sorted(r.choices(range(m), k=s)) for _ in range(n)]
        else:
            rows = [sorted(r.sample(range(m), s)) for _ in range(n)]
        g = BipartiteGraph(n, m, s, np.array(rows, dtype=np.int64).reshape(n, s))
        violating += not _assert_matches_reference(g, k, r.choice(EPS_GRID)).holds
    assert 200 < violating < 1800


def test_expansion_repeated_right_vertex():
    # rows [0, 0, 1] have 2 distinct neighbors: 2 <= 0.5 * 3 * 1 is false,
    # but a pair sharing right vertex 1 has union 3 <= 0.5 * 3 * 2
    adj = np.array([[0, 0, 1], [1, 2, 2], [3, 4, 5]], dtype=np.int64)
    g = BipartiteGraph(left_count=3, right_count=6, degree=3, adjacency=adj)
    assert _assert_matches_reference(g, 2, 0.5).witness == (0, 1)
    assert _assert_matches_reference(g, 1, 0.5).holds


def test_expansion_pair_union_equal_to_bound_violates():
    # s = 4, eps = 0.5: the pair bound is exactly 4.0, so a union of 4 fails
    # and a union of 5, as in (0, 2), passes; (0, 3) is the first tie
    adj = np.array(
        [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 2, 8], [0, 1, 2, 3], [4, 5, 6, 7]],
        dtype=np.int64,
    )
    g = BipartiteGraph(left_count=5, right_count=11, degree=4, adjacency=adj)
    assert _assert_matches_reference(g, 2, 0.5).witness == (0, 3)
    assert _assert_matches_reference(g, 3, 0.5).witness == (0, 3)


@pytest.mark.parametrize("m", [400, 800])
def test_expansion_matches_enumerator_on_graph_desk_graphs(m):
    # the verify-graph units of the graph-desk benchmark at seed 42
    stream = _trial_stream(Prng(42), "verify-graph", "graph:n=1600:s=4", m, 0)
    g = sketch_graph(graph_sketch_new(1600, m, 4, stream, row_mode="subset"))
    assert _assert_matches_reference(g, 2, 0.5).holds


def test_expansion_budget_guard():
    g = random_graph(60, 30, 2, 92)
    with pytest.raises(BudgetExceededError, match="budget|subset"):
        verify_expansion(g, 30, 0.5)


def test_expansion_validates_eps_and_k():
    g = identity_graph(4)
    with pytest.raises(ValueError):
        verify_expansion(g, 2, 0.0)
    with pytest.raises(ValueError):
        verify_expansion(g, 0, 0.5)


# ---------------------------------------------------------------------------
# max_matching_covers


def test_matching_identity():
    g = identity_graph(7)
    assert max_matching_covers(g, set(range(7)))


def test_matching_pigeonhole_failure():
    adj = np.array([[0], [0]], dtype=np.int64)
    g = BipartiteGraph(left_count=2, right_count=3, degree=1, adjacency=adj)
    assert max_matching_covers(g, {0})
    assert not max_matching_covers(g, {0, 1})


def test_matching_empty_subset():
    assert max_matching_covers(identity_graph(3), set())


def hall_condition(g, c):
    c = sorted(c)
    for size in range(1, len(c) + 1):
        for sub in combinations(c, size):
            if len(neighborhood(g, sub)) < size:
                return False
    return True


@pytest.mark.parametrize("seed", range(20))
def test_matching_agrees_with_hall_oracle(seed):
    rng = Prng(93 + seed)
    n, m, s = 10, 12, 1 + int(rng.integers_below(3, 1)[0])
    g = random_graph(n, m, s, 94 + seed)
    c = set(int(x) for x in rng.subset(n, 8))
    want = hall_condition(g, c)
    assert max_matching_covers(g, c) == want
    rows, r = g.adjacency.tolist(), random.Random(seed)
    for row in rows:  # any order within a row, as the sketch leaves it
        r.shuffle(row)
    shuffled = BipartiteGraph(n, m, s, np.array(rows, dtype=np.int64))
    assert max_matching_covers(shuffled, c) == want


def chain_graph(length, right_zero=True):
    """Left i < length has rows [i + 1, i], the last left vertex [length, length - 1].

    Kuhn's search takes 0..length-1 to 1..length; the last vertex then needs
    an augmenting path through every earlier one, ending at right vertex 0.
    Without right vertex 0, left 0 gets [1, 2] and no matching covers all.
    """
    rows = [[i + 1, i] for i in range(length)] + [[length, length - 1]]
    if not right_zero:
        rows[0] = [1, 2]
    return BipartiteGraph(length + 1, length + 1, 2, np.array(rows, dtype=np.int64))


def test_matching_long_augmenting_path_needs_no_recursion():
    g = chain_graph(5000)
    assert max_matching_covers(g, range(5001))
    assert not max_matching_covers(chain_graph(5000, right_zero=False), range(5001))


def test_matching_repeated_ids_do_not_cover():
    g = identity_graph(4)
    assert not max_matching_covers(g, [1, 1])
    assert not max_matching_covers(g, [0, 2, 3, 2])
    assert max_matching_covers(g, [0, 2, 3])


def test_expansion_implies_matching():
    # whenever (1-eps)*s >= 1 and expansion holds up to k, Hall's condition
    # holds for every subset of size <= k, so matching coverage must follow
    checked = 0
    for seed in range(30):
        g = random_graph(12, 14, 2, 95 + seed)
        res = verify_expansion(g, 4, 0.5)  # (1-0.5)*2 = 1
        if not res.holds:
            continue
        checked += 1
        rng = Prng(96 + seed)
        for _ in range(10):
            c = set(int(x) for x in rng.subset(12, 4))
            assert max_matching_covers(g, c)
    assert checked > 0


# ---------------------------------------------------------------------------
# estimate_magical_delta


def test_delta_single_edge():
    assert estimate_magical_delta(1, 1, 1, 1, trials=5, rng=Prng(97)) == 0.0


def test_delta_forced_collision():
    assert estimate_magical_delta(2, 1, 1, 2, trials=5, rng=Prng(98)) == 1.0


def test_delta_deterministic():
    a = estimate_magical_delta(40, 22, 2, 6, trials=30, rng=Prng(99))
    b = estimate_magical_delta(40, 22, 2, 6, trials=30, rng=Prng(99))
    assert a == b


def test_delta_validates():
    for n, m, s, k, trials, message in [
        (10, 8, 2, 11, 5, "need 1 <= k <= n"),
        (10, 8, 2, 5, 0, "trials must be >= 1"),
        (0, 8, 2, 1, 5, "need n, m >= 1"),
        (10, 0, 1, 5, 5, "need n, m >= 1"),
        (10, 8, 0, 5, 5, "need 1 <= s <= m"),
        (10, 8, 9, 5, 5, "need 1 <= s <= m"),
        (10, 9, 2, 5, 5, "m=9 is not divisible by s=2"),
    ]:
        with pytest.raises(ValueError, match=message):
            estimate_magical_delta(n, m, s, k, trials=trials, rng=Prng(100))


def _magical_delta_reference(n, m, s, k, trials, rng):
    """The per-trial loop that ``estimate_magical_delta`` replaced: a whole
    sketch per trial, then its subset's matching check."""
    failures = 0
    for t in range(trials):
        trial_rng = rng.split(t)
        g = sketch_graph(graph_sketch_new(n, m, s, trial_rng))
        if not max_matching_covers(g, trial_rng.subset(n, k)):
            failures += 1
    return failures / trials


def test_delta_matches_per_trial_sketch_reference(monkeypatch):
    default_chunk = rng_module._DRAW_CHUNK
    pick = random.Random(103)
    failing = 0
    for case in range(400):
        s = pick.randint(1, 4)
        block = pick.choice([1, 2, 4, 8, 16, pick.randint(3, 13)])
        m = s * block
        # k near where coverage starts to fail: the birthday range for s = 1,
        # within about m / s^2 of m otherwise
        if s == 1:
            k = pick.randint(2, 2 + 2 * math.isqrt(m))
        else:
            k = pick.randint(max(1, m - m // (s * s) - 1), m + 1)
        n = pick.randint(k, k + 60)
        trials = pick.randint(1, 40)
        # a small chunk puts chunk boundaries among the trials
        chunk = pick.choice([default_chunk, pick.randint(1, 8 * s * n)])
        monkeypatch.setattr(rng_module, "_DRAW_CHUNK", chunk)
        got = estimate_magical_delta(n, m, s, k, trials, Prng(case))
        want = _magical_delta_reference(n, m, s, k, trials, Prng(case))
        assert got == want, (n, m, s, k, trials, chunk)
        failing += got > 0
    assert failing >= 280


def test_delta_nonincreasing_in_m():
    # doubling m should not increase the median failure rate over repeats
    lo, hi = [], []
    for rep in range(20):
        lo.append(estimate_magical_delta(50, 22, 2, 8, trials=40, rng=Prng(101).split(rep)))
        hi.append(estimate_magical_delta(50, 44, 2, 8, trials=40, rng=Prng(102).split(rep)))
    assert np.median(hi) <= np.median(lo)


@given(st.integers(0, 2**32))
@settings(max_examples=10, deadline=None)
def test_delta_in_unit_interval(seed):
    rate = estimate_magical_delta(12, 8, 2, 4, trials=7, rng=Prng(seed))
    assert 0.0 <= rate <= 1.0
    assert rate * 7 == int(rate * 7)


def test_delta_memory_is_bounded_by_the_rows_not_by_m():
    import tracemalloc

    tracemalloc.start()
    try:
        rate = estimate_magical_delta(40, 2**18, 2, 4, 500, Prng(104))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 <= rate <= 1.0
    assert peak < 16 * 2**20  # a trials x m table of flags alone would be 125 MiB


# ---------------------------------------------------------------------------
# _greedy_stalls: the batch pass in front of max_matching_covers

# (rows of one trial, greedy stalls, Hall's condition holds), all k = 3, s = 2
GREEDY_CASES = {
    "greedy covers": ([[0, 1], [1, 2], [2, 3]], False, True),
    "greedy covers in reverse": ([[2, 3], [1, 2], [0, 1]], False, True),
    "stalls, Kuhn covers": ([[0, 1], [1, 2], [0, 1]], True, True),
    "stalls, Hall fails": ([[0, 1], [0, 1], [0, 1]], True, False),
    "repeated right vertex covers": ([[3, 3], [3, 4], [4, 5]], False, True),
    "repeated right vertex stalls": ([[3, 3], [3, 3], [4, 5]], True, False),
}


def _graph_of(rows):
    rows = np.asarray(rows, dtype=np.int64)
    return BipartiteGraph(len(rows), int(rows.max()) + 1, rows.shape[1], rows)


@pytest.mark.parametrize("name", GREEDY_CASES)
def test_greedy_stalls_on_handcrafted_trials(name):
    rows, stalls, hall = GREEDY_CASES[name]
    assert _greedy_stalls(np.array([rows], dtype=np.int64)).tolist() == [stalls]
    g = _graph_of(rows)
    assert hall_condition(g, range(3)) == hall
    assert max_matching_covers(g, range(3)) == hall


def test_greedy_stalls_answers_each_trial_on_its_own():
    cases = list(GREEDY_CASES.values())
    order = [0, 1, 2, 3, 4, 5, 5, 3, 2, 1, 4, 0, 2, 2, 1]
    batch = np.array([cases[i][0] for i in order], dtype=np.int64)
    assert _greedy_stalls(batch).tolist() == [cases[i][1] for i in order]


def test_greedy_never_passes_a_trial_that_fails_hall():
    pick = np.random.default_rng(105)
    passed = stalled = 0
    for _ in range(2000):
        trials, k, s = pick.integers(1, 6), pick.integers(1, 9), pick.integers(1, 5)
        m = pick.integers(1, 3 * k * s // 2 + 2)
        rows = pick.integers(0, m, size=(trials, k, s))
        flags = _greedy_stalls(rows)
        assert flags.shape == (trials,) and flags.dtype == bool
        for adj, flag in zip(rows, flags):
            stalled += flag
            if not flag:
                passed += 1
                assert hall_condition(_graph_of(adj), range(k)), adj.tolist()
    assert passed >= 2000 and stalled >= 1000
