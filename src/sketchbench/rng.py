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
streams at once: it draws one block per chunk of streams and walks it as
Python ints, a stream drawing a further block only when it runs short;
``subset`` is its one-stream, one-subset case.  All of them set the counter
just after the last draw they used, so values and stream position are those
of drawing one value at a time.

``KwiseHash`` evaluates its polynomial by Horner's rule, in ``__call__`` on
Python integers for one key and in ``eval_many`` on uint64 arrays for many.
The field is the Mersenne prime p = 2^61 - 1 or a prime below 2^32, and no
other: below 2^32, acc * x + c < p^2 fits in 64 bits as it is; for 2^61 - 1
each Horner step splits acc and x into 32-bit limbs, forms the four limb
products (each below 2^64), and folds them with 2^61 = 1 (mod p), so every
intermediate stays below 2^63 and the result equals ``__call__`` bit for bit.
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
    need plus a margin, which the shuffle walks as Python ints.  A stream
    that uses up its row draws its own next block, at most ``_DRAW_CHUNK``
    long; values never depend on the block sizes.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    out = np.empty((len(seeds), count, k), dtype=np.int64)
    ends = np.full(len(seeds), start, dtype=np.int64)
    steps = [(i, n - i, (1 << (n - i - 1).bit_length()) - 1) for i in range(k) if n - i > 1]
    if not steps or count == 0:
        out[...] = np.arange(k)
        return out, ends
    per_subset = sum((mask + 1) / bound for _, bound, mask in steps)  # expected draws

    def length(subsets: int) -> int:
        expected = math.ceil(per_subset * subsets)
        return min(expected + 3 * math.isqrt(expected) + 8, _DRAW_CHUNK)

    first = length(count)
    per_chunk = max(1, _DRAW_CHUNK // first)
    positions = range(k)
    for lo in range(0, len(seeds), per_chunk):
        block = _splitmix(seeds[lo:lo + per_chunk], start, first).tolist()
        flat: list[int] = []
        for r, row in enumerate(block, lo):
            base, pos = start, 0  # row[0] is the draw after counter base
            for c in range(count):
                swapped: dict[int, int] = {}
                for i, bound, mask in steps:
                    while True:
                        try:
                            cand = row[pos] & mask
                        except IndexError:
                            base += len(row)
                            row = _splitmix(seeds[r:r + 1], base, length(count - c))[0].tolist()
                            pos = 0
                            continue
                        pos += 1
                        if cand < bound:
                            break
                    j = i + cand
                    swapped[i], swapped[j] = swapped.get(j, j), swapped.get(i, i)
                flat += map(swapped.get, positions, positions)
            ends[r] = base + pos
        out[lo:lo + len(block)] = np.array(flat, dtype=np.int64).reshape(-1, count, k)
    return out, ends


_P61 = np.uint64(MERSENNE61)
_LO32 = np.uint64((1 << 32) - 1)
_LO29 = np.uint64((1 << 29) - 1)


def _check_prime(prime: int) -> None:
    if prime != MERSENNE61 and not 2 <= prime < 1 << 32:
        raise ValueError(
            f"prime must be 2^61 - 1 or in [2, 2^32), got {prime}: "
            "only those have an exact uint64 Horner step"
        )


def _horner_mersenne61(coeffs: list[np.uint64], x: np.ndarray) -> np.ndarray:
    """Horner's rule mod p = 2^61 - 1 on uint64 keys, coefficients highest first.

    Every operand lies in [0, p).  With acc = ah 2^32 + al and x = xh 2^32 + xl
    (the high halves below 2^29), acc x = hh 2^64 + cross 2^32 + ll, and since
    2^61 = 1 mod p: hh 2^64 = 8 hh, cross 2^32 = (cross >> 29) + (cross mod
    2^29) 2^32, and ll = (ll mod 2^61) + (ll >> 61).  Those terms are below
    2^61, but cross >> 29 is below 2^33 and ll >> 61 below 8, so with c the
    sum stays below 2^63; one more fold and one conditional subtraction
    bring it into [0, p).
    """
    xh, xl = x >> np.uint64(32), x & _LO32
    acc = np.full(x.shape, coeffs[0])
    for c in coeffs[1:]:
        ah, al = acc >> np.uint64(32), acc & _LO32
        cross = ah * xl + al * xh        # < 2^62
        ll = al * xl                     # < 2^64
        t = (ah * xh) << np.uint64(3)    # < 2^61
        t += cross >> np.uint64(29)
        t += (cross & _LO29) << np.uint64(32)
        t += ll & _P61
        t += ll >> np.uint64(61)
        t += c
        acc = (t & _P61) + (t >> np.uint64(61))    # <= p + 3
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

        Horner's rule over uint64 arrays, each step one set of array
        operations over all keys, equal to ``__call__`` key by key: by 32-bit
        limbs for 2^61 - 1 (``_horner_mersenne61``), directly below 2^32.
        """
        keys = np.asarray(xs)
        if keys.size == 0:
            return np.empty(keys.shape, dtype=np.int64)
        p = self.prime
        for end in (keys.min(), keys.max()):
            if not 0 <= end < p:
                raise ValueError(f"hash input {end} outside field [0, {p})")
        if keys.dtype.kind not in "iuO":
            raise ValueError(f"hash inputs must be integers, got dtype {keys.dtype}")
        x = keys.astype(np.uint64)
        coeffs = [np.uint64(c % p) for c in reversed(self.coefficients)]
        if p == MERSENNE61:
            acc = _horner_mersenne61(coeffs, x)
        else:
            # below 2^32, acc * x + c < p^2 fits in uint64 as it is
            acc = np.full(x.shape, coeffs[0])
            for c in coeffs[1:]:
                acc = (acc * x + c) % np.uint64(p)
        # acc < p, so a range at or above p leaves it as it is
        return (acc % np.uint64(min(self.out_range, p))).astype(np.int64)
