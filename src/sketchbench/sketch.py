"""Sketch operator construction and application.

Two operator families share one calling convention:

* ``GraphSketch`` — each of the n columns holds exactly s nonzeros of value
  ±1/√s on distinct rows.  Rows are placed by the block rule: the i-th
  nonzero of column j lands in row i·(m/s) + h_i(j) with h_i uniform over
  [0, m/s), which guarantees distinctness because the s blocks are disjoint.
  s=1 is CountSketch, s=2 the sparse pairing used throughout the matching
  experiments, larger s the expander-style regime.  An alternative
  ``row_mode="subset"`` draws a uniform s-subset of all m rows instead:
  column j's rows are the j-th of n consecutive ``subset(m, s)`` draws of
  the row stream, all made by one ``_subsets`` call.
* ``GaussianSketch`` — dense i.i.d. N(0, 1/m) entries; the 1/√m scale is
  folded into generation so that E‖Sx‖² = ‖x‖² holds for every family here.

Randomness for row placement and for signs comes from two child streams
split off the generator passed in, so the generator's seed alone
reconstructs any operator bit-exactly (splits do not depend on how far the
parent stream has advanced); operators keep no copy of it.  Without
``gamma``, h_i(j) is draw i·n + j below m/s of the row stream.  With
``gamma`` set, both streams seed gamma-wise independent polynomial hashes
instead of being consumed per entry; this is only defined for the block row
rule.  Each stream draws its s hashes' coefficients in one call, and all 2s
hashes are evaluated at the n columns in one ``KwiseHashes.eval_many``
pass.  ``sketch_apply`` scatters each of the s passes with one 1-D
``np.add.at`` on the flat output.  The stream ids, the shape checks and the
block-row draw (``_block_mode_rows``) are declared here once; ``graphs``
calls that draw on all its trials' row streams, for only the columns it
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _as_matrix
from .rng import KwiseHashes, Prng, _draws_below, _subsets

_ROW_STREAM = 1
_SIGN_STREAM = 2


@dataclass
class GraphSketch:
    n: int
    m: int
    s: int
    rows_per_column: np.ndarray    # (n, s) int64, distinct within each row of the array
    signs_per_column: np.ndarray   # (n, s) float64, entries +1 or -1

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.s)


@dataclass
class GaussianSketch:
    m: int
    n: int
    entries: np.ndarray  # (m, n), i.i.d. N(0, 1/m)


SketchOperator = GraphSketch | GaussianSketch


def _check_degree(n: int, m: int, s: int) -> None:
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    if not 1 <= s <= m:
        raise ValueError(f"need 1 <= s <= m, got s={s}, m={m}")


def _block_height(n: int, m: int, s: int) -> int:
    """m / s, the rows of each block of the block rule, once n, m, s are checked."""
    _check_degree(n, m, s)
    if m % s != 0:
        raise ValueError(f"m={m} is not divisible by s={s}; round m up first")
    return m // s


def _block_mode_rows(row_seeds: np.ndarray, n: int, m: int, s: int, cols) -> np.ndarray:
    """Block-rule rows of columns ``cols[r]`` (k of n) on the row stream ``row_seeds[r]``:
    column j's i-th row is i·(m/s) + h, h the draw i·n + j below m/s of that
    fresh stream.  Returns a (streams, k, s) int64 array."""
    picks = (np.arange(s)[:, None] * n + cols[:, None, :]).reshape(len(cols), -1)
    h, _ = _draws_below(row_seeds, 0, m // s, s * n, picks)
    return h.reshape(len(cols), s, -1).transpose(0, 2, 1) + np.arange(s) * (m // s)


def graph_sketch_new(
    n: int,
    m: int,
    s: int,
    rng: Prng,
    gamma: int | None = None,
    row_mode: str = "block",
) -> GraphSketch:
    """Degree-s graph sketch with ±1/√s values on s distinct rows per column.

    Block mode requires m divisible by s (round m up before calling; reports
    should quote the rounded m).  ``gamma`` switches both the row hashes and
    the sign assignment to a gamma-wise independent polynomial family; use
    gamma >= 4 to track the fully random distortion profile, since gamma = 2
    places consecutive columns on a lattice and lowers the median distortion.
    With ``gamma``, the i-th row hash and the i-th sign hash are the i-th of
    s ``KwiseHash.sample`` draws in a row on the row and the sign stream; one
    ``KwiseHashes.sample`` per stream draws them, and one Horner pass
    evaluates all 2s of them at columns 0..n-1.
    """
    _check_degree(n, m, s)
    if row_mode not in ("block", "subset"):
        raise ValueError(f"unknown row_mode {row_mode!r}")
    if gamma is not None and gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    rows_rng = rng.split(_ROW_STREAM)
    signs_rng = rng.split(_SIGN_STREAM)
    if row_mode == "block":
        block = _block_height(n, m, s)
        if gamma is None:
            seeds = np.array([rows_rng.seed], dtype=np.uint64)
            rows = _block_mode_rows(seeds, n, m, s, np.arange(n)[None, :])[0]
            signs = signs_rng.signs(n * s).reshape(n, s)
        else:
            hashes = (KwiseHashes.sample(s, gamma, block, rows_rng).hashes
                      + KwiseHashes.sample(s, gamma, 2, signs_rng).hashes)
            h = KwiseHashes(hashes).eval_many(np.arange(n)).T.copy()
            rows = h[:, :s] + np.arange(s) * block
            signs = 1.0 - 2.0 * h[:, s:]
    else:
        if gamma is not None:
            raise ValueError("gamma-wise hashing is only defined for row_mode='block'")
        rows = _subsets(np.array([rows_rng.seed], dtype=np.uint64), 0, m, s, n)[0][0]
        signs = signs_rng.signs(n * s).reshape(n, s)
    return GraphSketch(n=n, m=m, s=s, rows_per_column=rows, signs_per_column=signs)


def gaussian_sketch_new(n: int, m: int, rng: Prng) -> GaussianSketch:
    """Dense m x n sketch with i.i.d. N(0, 1/m) entries."""
    _check_degree(n, m, 1)
    entries = rng.split(_ROW_STREAM).normal(m * n).reshape((m, n), order="F")
    entries /= math.sqrt(m)
    return GaussianSketch(m=m, n=n, entries=entries)


def expander_sketch_params(k: int, eps: float, delta: float, c_m: float = 1.0) -> tuple[int, int]:
    """Degree and row count for the expander regime at target (eps, delta).

    s = ceil(L / eps) and m = ceil(c_m * k * L / eps^2) rounded up to a
    multiple of s, where L = ln(k / (delta * eps)) clamped below at 1.  The
    constant c_m defaults to 1; the calibration experiment in the acceptance
    suite justifies that choice at desk scale.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if c_m <= 0.0:
        raise ValueError("constant c_m must be positive")
    level = max(1.0, math.log(k / (delta * eps)))
    s = math.ceil(level / eps)
    m_raw = math.ceil(c_m * k * level / (eps * eps))
    m = ((m_raw + s - 1) // s) * s
    return s, m


def sketch_apply(op: SketchOperator, a) -> np.ndarray:
    """Exact product S @ A for a dense A.

    Graph sketches scatter each row of A into s output rows, so the
    arithmetic cost is at most 2 s n d; Gaussian sketches use a dense
    matrix product.  Pass i is one 1-D ``np.add.at`` of sign times A at
    the flat indices row·d + column, in C order, so every output entry
    takes its terms pass by pass and, within a pass, input row by input
    row: the order of a 2-D ``np.add.at`` per pass, bit for bit.
    """
    dense = _as_matrix(a)
    if dense.shape[0] != op.n:
        raise ValueError(f"operator expects {op.n} rows, got {dense.shape[0]}")
    if isinstance(op, GaussianSketch):
        return op.entries @ dense
    d = dense.shape[1]
    out = np.zeros(op.m * d)
    for i in range(op.s):
        flat = op.rows_per_column[:, i, None] * d + np.arange(d)
        np.add.at(out, flat.ravel(), (op.signs_per_column[:, i, None] * dense).ravel())
    out *= op.scale
    return out.reshape(op.m, d)
