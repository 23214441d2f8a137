"""Left-regular bipartite graphs with combinatorial verifiers.

Two graph properties matter for the sketching experiments and both are
checked exactly here, at sizes where exactness is affordable:

* vertex expansion — every left subset C with |C| ≤ k has more than
  (1−eps)·s·|C| distinct neighbors; sizes 1 and 2 are counted through the
  right vertices each pair shares, larger sizes by enumerating all subsets,
  with an explicit budget on the subset count so a careless call fails fast
  instead of running for hours;
* matching coverage — a given left subset C can be saturated by a matching;
  decided by Kuhn's augmenting paths from each vertex of C, searched on an
  explicit stack so that no path length reaches the recursion limit.

``estimate_magical_delta`` ties the two to the sketch constructions: it
samples fresh block-mode degree-s sketches and uniform k-subsets of columns
and reports how often matching coverage fails.  It splits all trials'
streams as arrays, draws all their subsets in one call, and builds only the
rows of the k chosen columns, through the block-row draw of ``sketch``
(the one ``graph_sketch_new`` uses) on all trials' row streams at once.
A greedy matching over all trials at once (``_greedy_stalls``) settles
every trial in which each column found a free row; only the trials where
it stalls go to Kuhn's search, whose answer decides them.  That failure
frequency is the empirical stand-in for the per-subset failure
probability the s=2 construction is supposed to keep at O(1/k) once m is a
constant multiple of k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .rng import Prng, _split_seeds, _subsets
from .sketch import _ROW_STREAM, _block_height, _block_mode_rows

EXPANSION_BUDGET = 10_000_000
_PAIR_CHUNK = 1 << 20  # pair codes held at once by the size-2 count


class BudgetExceededError(ValueError):
    """Exhaustive enumeration would exceed the subset budget."""


@dataclass
class BipartiteGraph:
    """Left-regular bipartite graph; each adjacency row holds distinct right ids."""

    left_count: int
    right_count: int
    degree: int
    adjacency: np.ndarray  # (left_count, degree) int64, in no particular order


def _check_left_ids(g: BipartiteGraph, c) -> list[int]:
    ids = sorted(int(x) for x in c)
    for x in ids:
        if not 0 <= x < g.left_count:
            raise ValueError(f"left id {x} out of range [0, {g.left_count})")
    return ids


@dataclass
class ExpansionResult:
    holds: bool
    witness: tuple[int, ...] | None


def _check_expansion_budget(n: int, k: int) -> None:
    """Refuse (BudgetExceededError) when the subsets of sizes 1..k of n exceed the budget."""
    required = 0
    for j in range(1, min(k, n) + 1):
        required += math.comb(n, j)
        if required > EXPANSION_BUDGET:
            raise BudgetExceededError(
                f"checking all subsets up to size {k} of {n} left vertices needs "
                f"more than {EXPANSION_BUDGET} subset evaluations ({required}+)"
            )


def verify_expansion(g: BipartiteGraph, k: int, eps: float) -> ExpansionResult:
    """Check |Γ(C)| > (1-eps)·s·|C| for all C with 1 ≤ |C| ≤ k, exactly.

    Refuses (BudgetExceededError) when the subset count exceeds the budget
    of ten million.  Returns the first violating subset, scanning sizes in
    increasing order and subsets in lexicographic order.  Sizes 1 and 2 are
    counted through shared right vertices (``_first_violating_pair``);
    larger sizes are enumerated.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n, s = g.left_count, g.degree
    kmax = min(k, n)
    _check_expansion_budget(n, k)
    if kmax == 0:
        return ExpansionResult(holds=True, witness=None)
    # |Γ(C)| is an integer, so "not |Γ(C)| > (1-eps)·s·|C|" is |Γ(C)| <= limit.
    limits = [math.floor((1.0 - eps) * s * size) for size in range(kmax + 1)]
    rows = np.sort(np.asarray(g.adjacency, dtype=np.int64), axis=1)
    fresh = np.ones(rows.shape, dtype=bool)
    fresh[:, 1:] = rows[:, 1:] != rows[:, :-1]
    degrees = fresh.sum(axis=1)
    low = np.flatnonzero(degrees <= limits[1])
    if low.size:
        return ExpansionResult(holds=False, witness=(int(low[0]),))
    if kmax >= 2:
        left = np.repeat(np.arange(n, dtype=np.int64), rows.shape[1])[fresh.ravel()]
        witness = _first_violating_pair(left, rows[fresh], degrees, limits[2])
        if witness is not None:
            return ExpansionResult(holds=False, witness=witness)
    if kmax < 3:
        return ExpansionResult(holds=True, witness=None)
    neighbor_sets = [frozenset(int(v) for v in g.adjacency[j]) for j in range(n)]
    for size in range(3, kmax + 1):
        for subset in combinations(range(n), size):
            union: set[int] = set()
            for x in subset:
                union |= neighbor_sets[x]
            if len(union) <= limits[size]:
                return ExpansionResult(holds=False, witness=subset)
    return ExpansionResult(holds=True, witness=None)


def _first_violating_pair(left, right, degrees, limit) -> tuple[int, int] | None:
    """Lexicographically first pair (a, b) with |Γ(a) ∪ Γ(b)| <= limit, or None.

    ``left``/``right`` are the distinct edges and ``degrees`` the distinct
    neighbor counts, each above ``limit // 2``.  Then |Γ(a) ∪ Γ(b)| =
    deg a + deg b − shared(a, b), and a pair that shares no right vertex
    cannot violate.  Every right vertex's sorted left list yields the codes
    a·n + b of its pairs; the counts of one ``np.unique`` over them are the
    shared counts.  Codes are built for a range of first vertices a at a
    time, at most ``_PAIR_CHUNK`` of them, in increasing order, so memory
    stays bounded and the first range holding a violator ends the search.
    """
    n = len(degrees)
    order = np.lexsort((left, right))
    left, right = left[order], right[order]
    heads = np.flatnonzero(np.r_[True, right[1:] != right[:-1]])
    group_end = np.repeat(np.r_[heads[1:], len(right)], np.diff(np.r_[heads, len(right)]))
    partners = group_end - np.arange(len(left)) - 1  # later edges on the same right vertex
    per_first = np.cumsum(np.bincount(left, weights=partners, minlength=n))
    a0 = 0
    while a0 < n:
        done = per_first[a0 - 1] if a0 else 0.0
        a1 = max(a0 + 1, int(np.searchsorted(per_first, done + _PAIR_CHUNK, side="right")))
        edges = np.flatnonzero((left >= a0) & (left < a1))
        count = partners[edges]
        firsts = np.repeat(left[edges], count)
        offsets = np.arange(len(firsts)) - np.repeat(np.cumsum(count) - count, count)
        seconds = left[np.repeat(edges + 1, count) + offsets]
        codes, shared = np.unique(firsts * n + seconds, return_counts=True)
        a, b = np.divmod(codes, n)
        bad = np.flatnonzero(degrees[a] + degrees[b] - shared <= limit)
        if bad.size:
            return int(a[bad[0]]), int(b[bad[0]])
        a0 = a1
    return None


def _augment(adj: list[list[int]], match: dict[int, int], root: int) -> bool:
    """Find an augmenting path from the free left vertex root and apply it.

    Depth first on a stack of (left vertex, neighbor iterator) pairs; a right
    vertex is entered at most once per search.
    """
    stack = [(root, iter(adj[root]))]
    via: list[int] = []  # via[i] leads from stack[i] to stack[i + 1]
    seen: set[int] = set()
    while stack:
        for v in stack[-1][1]:
            if v in seen:
                continue
            seen.add(v)
            w = match.get(v)
            if w is None:
                for (u, _), x in zip(stack, via + [v]):
                    match[x] = u
                return True
            via.append(v)
            stack.append((w, iter(adj[w])))
            break
        else:
            stack.pop()
            if via:
                via.pop()
    return False


def max_matching_covers(g: BipartiteGraph, c) -> bool:
    """True iff some matching saturates every left vertex in c.

    Each vertex of c in turn searches for an augmenting path; one that finds
    none cannot be matched later either (Berge), so the first failure decides.
    A repeated id would need two matches and gives False.
    """
    ids = _check_left_ids(g, c)
    if len(set(ids)) < len(ids):
        return False
    return _covers(g.adjacency[ids].tolist())


def _covers(adj: list[list[int]]) -> bool:
    """True iff some matching saturates every left vertex 0..len(adj)-1, where
    ``adj[u]`` lists the right vertices of u: Kuhn's search from each in turn."""
    match: dict[int, int] = {}  # right vertex -> left vertex
    return all(_augment(adj, match, u) for u in range(len(adj)))


def estimate_magical_delta(
    n: int, m: int, s: int, k: int, trials: int, rng: Prng
) -> float:
    """Fraction of (fresh sketch graph, uniform k-subset) trials without coverage.

    Trial t is the block-mode degree-s sketch ``graph_sketch_new(n, m, s,
    rng.split(t))`` and the subset ``rng.split(t).subset(n, k)``, but all
    trials are drawn together: their seeds by ``_split_seeds``, their subsets
    by one ``_subsets`` call, and the rows of only each subset's k columns
    from all trials' row streams (``_block_mode_rows``).  The matching check
    runs on the k-vertex graph those columns span.  One greedy pass over the
    whole batch (``_greedy_stalls``) covers most trials; Kuhn's search
    (``_covers``, the core of ``max_matching_covers``) decides only the
    trials where it stalls, on their rows as lists, so the count is the one
    a Kuhn search on every trial gives.  No signs are drawn.  This
    estimates the failure probability delta of Definition-2 style coverage;
    it samples subsets rather than quantifying over all of them.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _block_height(n, m, s)  # n, m and s are checked before k
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    trial_seeds = _split_seeds(rng.seed, np.arange(trials))
    cols = _subsets(trial_seeds, 0, n, k, 1)[0][:, 0]
    rows = _block_mode_rows(_split_seeds(trial_seeds, _ROW_STREAM), n, m, s, cols)
    failures = sum(not _covers(adj) for adj in rows[_greedy_stalls(rows)].tolist())
    return failures / trials


def _greedy_stalls(rows: np.ndarray) -> np.ndarray:
    """Flag the trials of a (trials, k, s) rows batch where a greedy matching stalls.

    Left vertex u = 0..k−1 of every trial in turn takes the first of its
    rows, in adjacency order, that no earlier vertex of its trial took.  A
    trial in which every vertex took a row has a matching that saturates all
    k, so it is covered; a trial in which some vertex found every row taken
    is flagged, and stops taking rows.  That is k·s array steps for the
    whole batch.  Each trial's rows are relabelled by one ``np.unique``, so
    the taken flags number at most ``rows.size``, whatever m is.
    """
    trials, k, s = rows.shape
    span = int(rows.max()) + 1
    keys = np.arange(trials, dtype=np.int64)[:, None, None] * span + rows
    labels = np.unique(keys, return_inverse=True)[1].reshape(rows.shape)
    taken = np.zeros(rows.size, dtype=bool)
    stalled = np.zeros(trials, dtype=bool)
    for u in range(k):
        placed = stalled.copy()
        for i in range(s):
            label = labels[:, u, i]
            take = ~placed & ~taken[label]
            taken[label[take]] = True
            placed |= take
        stalled |= ~placed
    return stalled
