"""Left-regular bipartite graphs with combinatorial verifiers.

Two graph properties matter for the sketching experiments and both are
checked exactly here, at sizes where exactness is affordable:

* vertex expansion — every left subset C with |C| ≤ k has more than
  (1−eps)·s·|C| distinct neighbors; sizes 1 and 2 are counted through the
  right vertices each pair shares, larger sizes by enumerating all subsets,
  with an explicit budget on the subset count so a careless call fails fast
  instead of running for hours;
* matching coverage — a given left subset C can be saturated by a matching;
  decided by Hopcroft–Karp on the induced subgraph.

``estimate_magical_delta`` ties the two to the sketch constructions: it
samples fresh degree-s sketches and uniform k-subsets of columns and reports
how often matching coverage fails.  That failure frequency is the empirical
stand-in for the per-subset failure probability the s=2 construction is
supposed to keep at O(1/k) once m is a constant multiple of k.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .rng import Prng

EXPANSION_BUDGET = 10_000_000
_PAIR_CHUNK = 1 << 20  # pair codes held at once by the size-2 count


class BudgetExceededError(ValueError):
    """Exhaustive enumeration would exceed the subset budget."""


@dataclass
class BipartiteGraph:
    """Left-regular bipartite graph; adjacency rows are sorted and distinct."""

    left_count: int
    right_count: int
    degree: int
    adjacency: np.ndarray  # (left_count, degree) int64, sorted within rows

    def validate(self) -> None:
        n, s = self.left_count, self.degree
        if self.adjacency.shape != (n, s):
            raise ValueError("adjacency must be left_count x degree")
        if n and (self.adjacency.min() < 0 or self.adjacency.max() >= self.right_count):
            raise ValueError("right-vertex id out of range")
        for j in range(n):
            row = self.adjacency[j]
            if np.any(np.diff(row) <= 0):
                raise ValueError(f"left vertex {j}: neighbors not sorted distinct")


def _check_left_ids(g: BipartiteGraph, c) -> list[int]:
    ids = sorted(int(x) for x in c)
    for x in ids:
        if not 0 <= x < g.left_count:
            raise ValueError(f"left id {x} out of range [0, {g.left_count})")
    return ids


def neighborhood(g: BipartiteGraph, c) -> set[int]:
    """Union of the adjacency lists of the left ids in c."""
    ids = _check_left_ids(g, c)
    out: set[int] = set()
    for x in ids:
        out.update(int(v) for v in g.adjacency[x])
    return out


@dataclass
class ExpansionResult:
    holds: bool
    witness: tuple[int, ...] | None


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
    required = 0
    for j in range(1, kmax + 1):
        required += math.comb(n, j)
        if required > EXPANSION_BUDGET:
            raise BudgetExceededError(
                f"checking all subsets up to size {k} of {n} left vertices needs "
                f"more than {EXPANSION_BUDGET} subset evaluations ({required}+)"
            )
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


def _hopcroft_karp(adj: dict[int, tuple[int, ...]]) -> int:
    """Maximum matching size for left-to-right adjacency lists."""
    match_left: dict[int, int | None] = {u: None for u in adj}
    match_right: dict[int, int | None] = {}
    for vs in adj.values():
        for v in vs:
            match_right.setdefault(v, None)
    inf = math.inf
    dist: dict[int, float] = {}

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in adj:
            if match_left[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        reachable_free = inf
        while queue:
            u = queue.popleft()
            if dist[u] < reachable_free:
                for v in adj[u]:
                    w = match_right[v]
                    if w is None:
                        reachable_free = dist[u] + 1
                    elif dist[w] == inf:
                        dist[w] = dist[u] + 1
                        queue.append(w)
        return reachable_free != inf

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_right[v]
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = inf
        return False

    size = 0
    while bfs():
        for u in adj:
            if match_left[u] is None and dfs(u):
                size += 1
    return size


def max_matching_covers(g: BipartiteGraph, c) -> bool:
    """True iff some matching saturates every left vertex in c."""
    ids = _check_left_ids(g, c)
    if not ids:
        return True
    adj = {u: tuple(int(v) for v in g.adjacency[u]) for u in ids}
    return _hopcroft_karp(adj) == len(ids)


def estimate_magical_delta(
    n: int, m: int, s: int, k: int, trials: int, rng: Prng
) -> float:
    """Fraction of (fresh sketch graph, uniform k-subset) trials without coverage.

    Each trial draws an independent degree-s sketch on its own split stream
    plus a uniform k-subset of left vertices, then runs the matching check.
    This estimates the failure probability delta of Definition-2 style
    coverage; it samples subsets rather than quantifying over all of them.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    from .sketch import graph_sketch_new, sketch_to_graph

    failures = 0
    for t in range(trials):
        trial_rng = rng.split(t)
        g = sketch_to_graph(graph_sketch_new(n, m, s, trial_rng))
        subset = trial_rng.subset(n, k)
        if not max_matching_covers(g, subset):
            failures += 1
    return failures / trials
