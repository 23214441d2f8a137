"""Deterministic seeded randomness and k-wise independent polynomial hashing.

The generator is counter-based SplitMix64: output ``i`` of a stream with seed
``z`` is ``mix64(z + (i+1) * GOLDEN)`` where ``GOLDEN = 0x9E3779B97F4A7C15``
and ``mix64`` is the standard SplitMix64 finalizer
(xor-shift 30, * 0xBF58476D1CE4E5B9, xor-shift 27, * 0x94D049BB133111EB,
xor-shift 31).  Because the state is a pure function of the counter, blocks of
outputs vectorize over numpy uint64 arrays and the sequence is identical on
every platform.

Streams split by stream id, never by position:
``child_seed = mix64(seed ^ mix64((stream_id + GOLDEN) mod 2^64))``.
Both inner maps are bijections on 64-bit integers, so distinct ids give
distinct child seeds, and a child depends only on (parent seed, id), not on
how much the parent has drawn.

One kernel, ``_splitmix``, computes every output: a (stream x counter)
block of any number of streams at one counter, one stream for ``raw``.  It
allocates that block, or writes it into one its caller holds, with a
scratch array of the same shape for the mixing shifts.  It and
``_split_seeds``, which splits many streams at once, share one array
finalizer, ``_mix64_many``.

Normal variates come from Box-Muller: ``normal(n)`` makes pairs = ceil(n/2)
pairs, pair p taking u1 from draw p and u2 from draw pairs + p (u1 shifted
into (0,1] so the log is always finite), and emits each pair (z0, z1) in
order.  It computes them in blocks of ``_DRAW_CHUNK`` pairs written straight
into the output, so it holds no more than the output and one block.

Bounded integers use bitmask rejection sampling, which is exact.
``_draws_below`` holds that rule for many streams at once, drawing them as
one block per chunk of streams, every chunk into the same held block (a
further block only when a stream of the chunk falls short);
``integers_below`` is its one-stream case.  ``_subsets``
runs partial Fisher-Yates with that rule, ``count`` subsets in a row on many
streams at once: it draws one block per chunk of streams (the streams that
run short draw a further block together), settles as arrays every draw
whose acceptance does not depend on its step, walks only the others as
Python ints, and resolves the swaps of all subsets as arrays; ``subset`` is
its one-stream, one-subset case.  All of them set the counter just after
the last draw they used, so values and stream position are those of
drawing one value at a time.

``KwiseHash`` evaluates its polynomial by Horner's rule, in ``__call__`` on
Python integers for one key and in ``eval_many`` on uint64 arrays for many.
``KwiseHashes`` holds several hashes over one field and evaluates them
together: one Horner pass over a (hashes x keys) uint64 array, of which
``KwiseHash.eval_many`` is the one-hash case; its ``sample`` draws the
coefficients of count hashes with one ``KwiseHash.sample`` call, so values
and stream position are those of count calls in a row.  The field is the
Mersenne prime p = 2^61 - 1 or a prime below 2^32, and no other: below
2^32, acc * x + c < p^2 fits in 64 bits as it is; for 2^61 - 1 each Horner
step splits acc and x into 32-bit limbs, forms the four limb products, and
folds them with 2^61 = 1 (mod p).  Between steps the accumulator is kept
below p + 8 rather than below p, so every intermediate stays below 2^63,
and one conditional subtraction at the end makes it canonical; the result
equals ``__call__`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_DRAW_CHUNK = 1 << 15  # uint64 draws in one block (256 KB), of one stream or many

#: Default field modulus for hash families: the Mersenne prime 2^61 - 1.
MERSENNE61 = (1 << 61) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer (pure Python, exact)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Prng:
    """Counter-based SplitMix64 stream, reproducible from its seed."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0

    def split(self, stream_id: int) -> "Prng":
        """Child stream determined by (self.seed, stream_id) only.

        Splitting is independent of the parent's position, and splitting the
        same id twice gives the same stream.
        """
        return Prng(mix64(self.seed ^ mix64((stream_id + _GOLDEN) & _MASK64)))

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        z = _splitmix(np.array([self.seed], dtype=np.uint64), self.counter, n)[0]
        self.counter += n
        return z

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal variates via Box-Muller, in blocks of pairs.

        With c the counter, pair p takes u1 from draw c + p and u2 from draw
        c + pairs + p; each block of at most ``_DRAW_CHUNK`` pairs is drawn
        and written into the output before the next.
        """
        pairs = (n + 1) // 2
        seed = np.array([self.seed], dtype=np.uint64)
        out = np.empty(2 * pairs)
        for lo in range(0, pairs, _DRAW_CHUNK):
            hi = min(lo + _DRAW_CHUNK, pairs)
            u1 = _splitmix(seed, self.counter + lo, hi - lo)[0]
            u2 = _splitmix(seed, self.counter + pairs + lo, hi - lo)[0]
            u1 = ((u1 >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
            u2 = (u2 >> np.uint64(11)).astype(np.float64) * 2.0**-53
            r = np.sqrt(-2.0 * np.log(u1))
            theta = 2.0 * np.pi * u2
            out[2 * lo:2 * hi:2] = r * np.cos(theta)
            out[2 * lo + 1:2 * hi:2] = r * np.sin(theta)
        self.counter += 2 * pairs
        return out[:n]

    def integers_below(self, bound: int, n: int) -> np.ndarray:
        """``n`` exact uniform integers in [0, bound) via bitmask rejection.

        The draws come from ``_draws_below`` on this one stream; the counter
        then moves to just after the n-th accepted draw, so the values and
        the stream position do not depend on the block size.
        """
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        seeds = np.array([self.seed], dtype=np.uint64)
        values, ends = _draws_below(seeds, self.counter, bound, n, np.arange(n)[None, :])
        self.counter = int(ends[0])
        return values[0]

    def signs(self, n: int) -> np.ndarray:
        """``n`` values in {-1.0, +1.0}, one raw draw per value (bit 0)."""
        return np.where(self.raw(n) & np.uint64(1), 1.0, -1.0)

    def subset(self, n: int, k: int) -> np.ndarray:
        """Uniform k-subset of range(n) without replacement (partial Fisher-Yates).

        The one-stream, one-subset case of ``_subsets``; the counter ends
        just after the last draw used.
        """
        values, ends = _subsets(np.array([self.seed], dtype=np.uint64), self.counter, n, k, 1)
        self.counter = int(ends[0])
        return values[0, 0]


def _mix64_many(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """``mix64`` on a uint64 array, in place; returns the array.  The shifts
    go into ``tmp``, a uint64 array of z's shape, when one is given."""
    # uint64 array arithmetic wraps mod 2^64 without a warning
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _splitmix(seeds: np.ndarray, start: int, count: int,
              out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """Outputs start+1 .. start+count of each stream, one row per seed.

    The SplitMix64 kernel of every draw: a (len(seeds), count) uint64 block
    whose entry (r, c) is mix64(seeds[r] + (start + c + 1) * GOLDEN).  With
    ``out``, a uint64 array of that shape, the block is written into it and
    ``out`` returned, and ``tmp``, of the same shape, takes the mixing
    shifts; so a caller drawing block after block reuses two arrays.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    # the counters become the states, then the outputs; one stream stays in
    # place, which saves a block of memory (a copy raised lsq-bench peak RSS)
    if out is not None:
        z = np.add(seeds[:, None], z, out=out)
    elif len(seeds) == 1:
        z += seeds
        z = z[None, :]
    else:
        z = z + seeds[:, None]
    return _mix64_many(z, tmp)


def _split_seeds(parents, ids) -> np.ndarray:
    """``Prng(p).split(i).seed`` for each pair of broadcast parent seeds and ids.

    The formula of ``Prng.split`` on uint64 arrays; ids must lie in [0, 2^64).
    """
    z = _mix64_many(np.array(ids, dtype=np.uint64, ndmin=1) + np.uint64(_GOLDEN))
    return _mix64_many(z ^ np.array(parents, dtype=np.uint64, ndmin=1))


def _block_length(need: int, bits: int, bound: int) -> int:
    """Draws to take for ``need`` values below ``bound`` by ``bits``-bit masks:
    the expected count plus a margin, so one block nearly always suffices."""
    expected = (need << bits) // bound + 1
    return expected + 3 * math.isqrt(expected) + 8


def _draws_below(
    seeds: np.ndarray, start: int, bound: int, count: int, picks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bitmask-rejection draws below ``bound`` on many streams at one counter.

    Stream r (seed ``seeds[r]``, counter ``start``) masks each raw draw to the
    bit width of bound - 1 and accepts the values below ``bound``: its first
    ``count`` accepted values are ``Prng.integers_below(bound, count)`` of
    that stream.  Returns, per stream, the accepted values at the positions
    ``picks[r]`` (each in [0, count)) and the counter just after the
    count-th accepted draw; bound 1 draws nothing.

    Streams are taken as many at a time as fit ``_DRAW_CHUNK`` draws, and
    each chunk draws one (stream x counter) block.  Every chunk's block is
    written into one block and one scratch array allocated per call, the
    last chunk into their first rows when it has fewer streams.  While some
    stream of the chunk has fewer than ``count`` accepted values, the whole
    chunk draws the next block, sized for the largest shortfall, as a new
    array; values never depend on the block sizes.
    """
    values = np.zeros(np.shape(picks), dtype=np.int64)
    ends = np.full(len(seeds), start, dtype=np.int64)
    if bound == 1 or count == 0:
        return values, ends
    bits = (bound - 1).bit_length()
    mask = np.uint64((1 << bits) - 1)
    length = _block_length(count, bits, bound)
    per_chunk = max(1, _DRAW_CHUNK // length)
    # fresh arrays for each chunk cost more in page faults than in arithmetic
    block = np.empty((min(per_chunk, len(seeds)), length), dtype=np.uint64)
    tmp = np.empty_like(block)
    for lo in range(0, len(seeds), per_chunk):
        rows = slice(lo, lo + per_chunk)
        r = len(seeds[rows])
        cand = _splitmix(seeds[rows], start, length, block[:r], tmp[:r])
        cand &= mask
        while True:
            hits = np.flatnonzero(cand < bound)  # row-major: stream, then counter
            # each stream's first entry in hits, then the end of the last
            first = np.searchsorted(hits, cand.shape[1] * np.arange(len(cand) + 1))
            short = count - int((first[1:] - first[:-1]).min())
            if short <= 0:
                break
            more = _splitmix(seeds[rows], start + cand.shape[1], _block_length(short, bits, bound))
            more &= mask
            cand = np.concatenate([cand, more], axis=1)
        first = first[:-1]
        values[rows] = cand.ravel()[hits[first[:, None] + picks[rows]]].view(np.int64)
        ends[rows] = hits[first + (count - 1)] % cand.shape[1] + (start + 1)
    return values, ends


def _subsets(
    seeds: np.ndarray, start: int, n: int, k: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` consecutive ``subset(n, k)`` draws on many streams at one counter.

    Each subset is a partial Fisher-Yates shuffle: step i swaps position i
    with i + j, j drawn below n - i by bitmask rejection (no draw once
    n - i is 1).  Returns a (len(seeds), count, k) int64 array, stream r's
    subsets in order, and each stream's counter just after its last draw.

    Streams are taken as many at a time as fit ``_DRAW_CHUNK`` draws, and
    each chunk draws one (stream x counter) block, sized for the expected
    need plus a margin.  ``_accepted`` finds the draws that bitmask
    rejection accepts, settling in Python only those whose acceptance
    depends on their step.  Stream r's a-th accepted draw serves step
    i = a mod K of subset a // K (K steps a subset) and targets i + (draw &
    mask_i).  The streams still short of count * K accepted draws draw
    their next block together, sized for the largest shortfall; values
    never depend on the block sizes.  ``_swap_results`` then resolves the
    swaps of every (stream, subset) at once.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    out = np.empty((len(seeds), count, k), dtype=np.int64)
    ends = np.full(len(seeds), start, dtype=np.int64)
    steps = min(k, n - 1)  # step i draws below n - i when that is above 1
    if steps <= 0 or count == 0:
        out[...] = np.arange(k)
        return out, ends
    bounds = [n - i for i in range(steps)]
    masks = [(1 << (bound - 1).bit_length()) - 1 for bound in bounds]
    per_subset = sum((mask + 1) / bound for bound, mask in zip(bounds, masks))  # expected draws
    need = count * steps  # accepted draws per stream

    def length(subsets: int) -> int:
        expected = math.ceil(per_subset * subsets)
        return min(expected + 3 * math.isqrt(expected) + 8, _DRAW_CHUNK)

    step_masks = np.array(masks, dtype=np.uint64)
    first = length(count)
    per_chunk = max(1, _DRAW_CHUNK // first)
    for lo in range(0, len(seeds), per_chunk):
        chunk = np.arange(lo, min(lo + per_chunk, len(seeds)))
        targets = np.empty((len(chunk), need), dtype=np.int64)
        taken = np.zeros(len(chunk), dtype=np.int64)  # accepted draws so far
        live, base, size = np.arange(len(chunk)), start, first
        while True:
            block = _splitmix(seeds[chunk[live]], base, size)
            hits = _accepted(block, taken[live], bounds, masks)
            # each live row's first entry in hits, then the end of the last
            heads = np.searchsorted(hits, size * np.arange(len(live) + 1))
            have, before = heads[1:] - heads[:-1], taken[live]
            # the a-th accepted draw of row r, for a from before[r] up to need
            wanted = np.minimum(have, need - before)
            r, c = np.nonzero(np.arange(min(need, size)) < wanted[:, None])
            a = before[r] + c
            i = a % steps
            draws = block.ravel()[hits[heads[r] + c]]
            targets[live[r], a] = i + (draws & step_masks[i]).view(np.int64)
            taken[live] = before + have
            done = taken[live] >= need
            last = hits[heads[:-1][done] + (need - 1 - before[done])]
            ends[chunk[live[done]]] = base + last % size + 1
            live = live[~done]
            if not live.size:
                break
            base += size
            size = length(-(-(need - int(taken[live].min())) // steps))
        swapped = _swap_results(targets.reshape(-1, steps), k)
        out[chunk] = swapped.reshape(len(chunk), count, k)
    return out, ends


def _accepted(block: np.ndarray, taken: np.ndarray, bounds: list[int],
              masks: list[int]) -> np.ndarray:
    """Flat indices, in row-major order, of the draws of ``block`` that are accepted.

    ``block`` holds one row of draws per stream.  Row r's draw that follows
    a accepted draws of the row, taken[r] of them before the block, is
    tested at step i = a mod len(bounds) and accepted when draw & masks[i]
    < bounds[i].  The steps that share a mask have bounds from some lo to
    some hi, so under each distinct mask a draw is accepted at every such
    step (below lo), rejected at every one (hi or above), or neither.  A
    draw accepted under every mask, or rejected under every mask, is
    settled whatever its step; only the others are walked, in stream
    order, as Python ints.
    """
    spans: dict[int, list[int]] = {}  # mask: [lo, hi]
    for bound, mask in zip(bounds, masks):  # bounds fall, so the first is hi
        spans.setdefault(mask, [bound, bound])[0] = bound
    sure, maybe = True, False
    for mask, (lo, hi) in spans.items():
        value = block & np.uint64(mask)
        sure = sure & (value < lo)
        maybe = maybe | (value < hi)
    pending = np.flatnonzero(maybe & ~sure)  # acceptance depends on the step
    if pending.size:
        size = block.shape[1]
        rows = pending // size
        # the sure draws of a row before a pending one: those before it less those before the row
        ones = np.flatnonzero(sure)
        before = np.searchsorted(ones, pending) - np.searchsorted(ones, rows * size) + taken[rows]
        steps, row, extra, keep = len(bounds), -1, 0, []
        for x, (r, a, draw) in enumerate(zip(rows.tolist(), before.tolist(),
                                              block.ravel()[pending].tolist())):
            if r != row:
                row, extra = r, 0
            i = (a + extra) % steps
            if draw & masks[i] < bounds[i]:
                extra += 1
                keep.append(x)
        sure.ravel()[pending[keep]] = True
    return np.flatnonzero(sure)


def _swap_results(targets: np.ndarray, k: int) -> np.ndarray:
    """Positions 0..k-1 after partial Fisher-Yates on range(n), one row per shuffle.

    Row q's step t swaps position t with ``targets[q, t]`` (at least t), for
    t below targets.shape[1], which is k, or k - 1 when k = n (the last
    position takes no draw).  Step t fixes position t for good, so the
    result at t is what position targets[q, t] holds just before step t.
    Position p holds, before step b, the value f(t) moved there by the
    latest step t < b that targeted p, else p; and f(t), what position t
    holds just before step t, is by the same rule f(t') or t.  One stable
    sort per row groups the targets by position with a read of position b
    before step b ordered among them, each item's predecessor in its group
    names the step it reads from, and pointer doubling follows those links
    to f.
    """
    rows, steps = targets.shape
    out = np.empty((rows, k), dtype=np.int64)
    out[:, :steps] = targets
    out[:, steps:] = np.arange(steps, k)
    # a row whose targets are distinct and all k or above reads each fresh
    ranked = np.sort(out, axis=1)
    busy = np.flatnonzero((ranked[:, 0] < k) | (ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    to = out[busy]
    # item 2b reads position b before step b; item 2t + 1 is step t's target
    items = np.empty((len(busy), 2 * k), dtype=np.int64)
    items[:, 0::2] = np.arange(k)
    items[:, 1::2] = to
    order = np.argsort(items, axis=1, kind="stable")
    grouped = np.sort(items, axis=1)
    r, x = np.nonzero(grouped[:, 1:] == grouped[:, :-1])
    # links and sources as indices into the flattened busy rows
    item, prev = order[r, x + 1], order[r, x] // 2 + r * k
    reads, at = item % 2 == 0, item // 2 + r * k
    link = np.arange(to.size)  # f(b) = f(link[b]), or b where link[b] = b
    link[at[reads]] = prev[reads]
    while True:
        jump = link[link]
        if np.array_equal(jump, link):
            break
        link = jump
    to.ravel()[at[~reads]] = link[prev[~reads]] % k  # a step's target holds f of its predecessor
    out[busy] = to
    return out


_P61 = np.uint64(MERSENNE61)
_LO32 = np.uint64((1 << 32) - 1)
_LO29 = np.uint64((1 << 29) - 1)


def _check_prime(prime: int) -> None:
    if prime != MERSENNE61 and not 2 <= prime < 1 << 32:
        raise ValueError(
            f"prime must be 2^61 - 1 or in [2, 2^32), got {prime}: "
            "only those have an exact uint64 Horner step"
        )


def _horner_mersenne61(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner's rule mod p = 2^61 - 1 for many polynomials at the same keys.

    ``coeffs`` is a (hashes, gamma) uint64 array, each row highest degree
    first, and ``x`` a 1-D uint64 array of keys; both lie in [0, p).  Returns
    the (hashes, keys) values in [0, p).  With acc = ah 2^32 + al and x = xh
    2^32 + xl, acc x = hh 2^64 + cross 2^32 + ll, and since 2^61 = 1 mod p:
    hh 2^64 = 8 hh, cross 2^32 = (cross >> 29) + (cross mod 2^29) 2^32, and
    ll = (ll mod 2^61) + (ll >> 61).  Between steps acc stays below p + 8,
    so ah <= 2^29 and xh < 2^29: cross < 2^62, 8 hh < 2^61, and with c the
    sum t stays below 2^63.  One fold of t gives at most p + 3, and one
    conditional subtraction after the last step brings it into [0, p).
    """
    shift3, shift29, shift32, shift61 = (np.uint64(b) for b in (3, 29, 32, 61))
    xh8, xl = (x >> shift32) << shift3, x & _LO32   # 8 xh < 2^32
    acc = np.repeat(coeffs[:, :1], len(x), axis=1)
    # every step writes into the same five arrays of acc's shape
    ah, al, cross, ll, t = (np.empty_like(acc) for _ in range(5))
    for k in range(1, coeffs.shape[1]):
        np.right_shift(acc, shift32, out=ah)
        np.bitwise_and(acc, _LO32, out=al)
        np.multiply(ah, xh8, out=t)          # 8 hh < 2^61
        np.multiply(ah, xl, out=cross)
        np.multiply(al, xl, out=ll)          # < 2^64
        np.multiply(al, xh8, out=al)         # 8 al xh < 2^64
        al >>= shift3
        cross += al                          # < 2^62
        np.right_shift(cross, shift29, out=ah)
        t += ah
        cross &= _LO29
        cross <<= shift32
        t += cross
        np.right_shift(ll, shift61, out=ah)
        t += ah
        ll &= _P61
        t += ll
        t += coeffs[:, k, None]
        np.right_shift(t, shift61, out=acc)
        t &= _P61
        acc += t                             # <= p + 3
    np.subtract(acc, _P61, out=acc, where=acc >= _P61)
    return acc


@dataclass(frozen=True)
class KwiseHash:
    """Polynomial hash over a prime field: h(x) = (sum_i c_i x^i mod p) mod range.

    Gamma coefficients drawn uniformly from [0, p) give a gamma-wise
    independent family over the field (before the final reduction mod
    ``out_range``).  ``sample`` draws over 2^61 - 1, where the reduction
    bias (below range/p) is ignored; tiny primes exist for exhaustive
    enumeration tests.

    The prime is 2^61 - 1 or below 2^32, and any other is refused at
    construction: those are the two fields whose Horner step ``eval_many``
    computes exactly in uint64, by Mersenne limbs or directly.
    """

    prime: int
    coefficients: tuple[int, ...]
    out_range: int

    def __post_init__(self):
        _check_prime(self.prime)

    @classmethod
    def sample(cls, gamma: int, out_range: int, rng: Prng) -> "KwiseHash":
        if gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {gamma}")
        if out_range < 1:
            raise ValueError(f"out_range must be >= 1, got {out_range}")
        coeffs = tuple(int(c) for c in rng.integers_below(MERSENNE61, gamma))
        return cls(prime=MERSENNE61, coefficients=coeffs, out_range=out_range)

    def __call__(self, x: int) -> int:
        """The scalar reference: Horner's rule on Python integers."""
        if not 0 <= x < self.prime:
            raise ValueError(f"hash input {x} outside field [0, {self.prime})")
        acc = 0
        for c in reversed(self.coefficients):
            acc = (acc * x + c) % self.prime
        return acc % self.out_range

    def eval_many(self, xs) -> np.ndarray:
        """Vectorized evaluation as int64; inputs must be integers in [0, prime).

        The one-hash case of ``KwiseHashes.eval_many``: equal to ``__call__``
        key by key.
        """
        return KwiseHashes((self,)).eval_many(xs)[0]


@dataclass(frozen=True)
class KwiseHashes:
    """Several ``KwiseHash`` of one degree over one field, evaluated together."""

    hashes: tuple[KwiseHash, ...]

    @classmethod
    def sample(cls, count: int, gamma: int, out_range: int, rng: Prng) -> "KwiseHashes":
        """``count`` hashes, equal to ``count`` calls of ``KwiseHash.sample`` in a row.

        Their coefficients in a row are those of one hash with count * gamma
        coefficients, so one ``KwiseHash.sample`` call draws them all and
        leaves the stream where the count calls would.
        """
        drawn = KwiseHash.sample(count * gamma, out_range, rng).coefficients
        return cls(tuple(KwiseHash(MERSENNE61, drawn[i:i + gamma], out_range)
                         for i in range(0, len(drawn), gamma)))

    def eval_many(self, xs) -> np.ndarray:
        """Row r is ``hashes[r].eval_many(xs)``, as one int64 array.

        One Horner pass over a (hashes x keys) uint64 array, each step one set
        of array operations over every hash and key: by 32-bit limbs for
        2^61 - 1 (``_horner_mersenne61``), directly below 2^32.
        """
        primes = {h.prime for h in self.hashes}
        if len(primes) > 1:
            raise ValueError(f"hashes over different fields {sorted(primes)} cannot run together")
        keys = np.asarray(xs)
        if not self.hashes or keys.size == 0:
            return np.empty((len(self.hashes),) + keys.shape, dtype=np.int64)
        p = primes.pop()
        for end in (keys.min(), keys.max()):
            if not 0 <= end < p:
                raise ValueError(f"hash input {end} outside field [0, {p})")
        if keys.dtype.kind not in "iuO":
            raise ValueError(f"hash inputs must be integers, got dtype {keys.dtype}")
        x = keys.astype(np.uint64).ravel()
        coeffs = np.array([[c % p for c in reversed(h.coefficients)] for h in self.hashes],
                          dtype=np.uint64)
        if p == MERSENNE61:
            acc = _horner_mersenne61(coeffs, x)
        else:
            # below 2^32, acc * x + c < p^2 fits in uint64 as it is
            acc = np.repeat(coeffs[:, :1], len(x), axis=1)
            for k in range(1, coeffs.shape[1]):
                acc = (acc * x + coeffs[:, k, None]) % np.uint64(p)
        # acc < p, so a range at or above p leaves it as it is
        ranges = np.array([min(h.out_range, p) for h in self.hashes], dtype=np.uint64)
        acc %= ranges[:, None]
        return acc.view(np.int64).reshape((len(self.hashes),) + keys.shape)
