"""Dense matrices, MatrixMarket I/O, and synthetic generators.

Matrices are plain 2-D float64 numpy arrays; vectors are 1-D arrays.
Generated matrices fill column-major (the draw order walks down each column),
so a fixed seed pins every entry.

MatrixMarket support covers the ``coordinate`` and ``array`` variants with
``real`` field and ``general``/``symmetric`` symmetry.  One streaming reader
serves both: a single line loop skips blank and ``%`` lines and feeds the
size line and then the data, and one size-line parser requires rows and
cols >= 1 and, for ``coordinate``, nnz >= 0.  Both load as dense arrays:
coordinate entries are written into a zero matrix.  Duplicate coordinate
entries are a hard parse error, not summed; an explicit zero is counted
against the declared nnz and otherwise skipped.  Every parse error is a
``MatrixMarketError`` naming its line.  Writing produces the array variant
with ``repr`` floats, so a read-back reproduces values bit-exactly.  Both
take a path or a text stream; a binary stream is never wrapped (a wrapper
would close it when collected), so it fails with a typed error.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .linalg import _as_matrix
from .rng import Prng


class MatrixMarketError(ValueError):
    """Malformed MatrixMarket input; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# MatrixMarket I/O


def _open_text(source, mode: str):
    if isinstance(source, (str, Path)):
        return open(source, mode), True
    return source, False


def read_matrix_market(source):
    """Parse a MatrixMarket file or text stream (coordinate or array) into a dense array."""
    fh, owned = _open_text(source, "r")
    try:
        return _parse_mm(fh)
    finally:
        if owned:
            fh.close()


def _parse_mm(fh):
    header = fh.readline()
    if not header:
        raise MatrixMarketError("empty input", 1)
    parts = header.strip().split()
    if (
        len(parts) != 5
        or parts[0] != "%%MatrixMarket"
        or parts[1].lower() != "matrix"
        or parts[2].lower() not in ("coordinate", "array")
        or parts[3].lower() != "real"
        or parts[4].lower() not in ("general", "symmetric")
    ):
        raise MatrixMarketError(f"unsupported or malformed header: {header.strip()!r}", 1)
    fmt = parts[2].lower()
    symmetric = parts[4].lower() == "symmetric"
    line_no = 1

    def data_lines():
        # line_no stays at the last line read, so end-of-input errors name it
        nonlocal line_no
        for line in fh:
            line_no += 1
            stripped = line.strip()
            if stripped and not stripped.startswith("%"):
                yield stripped

    lines = data_lines()
    size_line = next(lines, None)
    if size_line is None:
        raise MatrixMarketError("missing size line", line_no)
    size_fields = size_line.split()
    need = "rows cols nnz" if fmt == "coordinate" else "rows cols"
    if len(size_fields) != len(need.split()):
        raise MatrixMarketError(f"{fmt} size line needs '{need}'", line_no)
    try:
        n, d, *nnz = (int(f) for f in size_fields)
    except ValueError:
        raise MatrixMarketError(f"bad size line {size_fields}", line_no) from None
    if n < 1 or d < 1 or min(nnz, default=0) < 0:
        raise MatrixMarketError(
            f"bad size line {size_fields}: rows and cols must be >= 1, nnz >= 0", line_no
        )
    if symmetric and n != d:
        raise MatrixMarketError("symmetric matrix must be square", line_no)

    if fmt == "array":
        try:
            # tok is bound in this scope, so a bad value can be named
            values = np.array([float(tok := t) for line in lines for t in line.split()])
        except ValueError:
            raise MatrixMarketError(f"bad value {tok!r}", line_no) from None
        expected = n * (n + 1) // 2 if symmetric else n * d
        if len(values) != expected:
            raise MatrixMarketError(
                f"expected {expected} array entries, found {len(values)}", line_no
            )
        if not np.all(np.isfinite(values)):
            raise MatrixMarketError("non-finite value in array data", line_no)
        if not symmetric:
            return values.reshape((n, d), order="F")
        out = np.empty((n, d))
        # the upper triangle's indices, swapped: the lower triangle in column-major order
        cols, rows = np.triu_indices(n)
        out[rows, cols] = values
        out[cols, rows] = values
        return out

    rows, cols, vals = [], [], []
    seen = 0
    for stripped in lines:
        fields = stripped.split()
        if len(fields) != 3:
            raise MatrixMarketError(f"expected 'i j value', got {stripped!r}", line_no)
        try:
            i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise MatrixMarketError(f"bad entry {stripped!r}", line_no) from None
        if not (1 <= i <= n and 1 <= j <= d):
            raise MatrixMarketError(f"index ({i}, {j}) out of bounds for {n}x{d}", line_no)
        if not np.isfinite(v):
            raise MatrixMarketError(f"non-finite value {fields[2]}", line_no)
        seen += 1
        if v == 0.0:
            continue
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        if symmetric and i != j:
            rows.append(j - 1)
            cols.append(i - 1)
            vals.append(v)
    if seen != nnz[0]:
        raise MatrixMarketError(f"declared nnz={nnz[0]} but found {seen} entries", line_no)
    # np.unique sorts the keys, so the first duplicate is the first in row-major order
    keys, counts = np.unique(np.asarray(rows, dtype=np.int64) * d + cols, return_counts=True)
    if np.any(counts > 1):
        r, c = divmod(int(keys[np.argmax(counts > 1)]), d)
        raise MatrixMarketError(f"duplicate entry at ({r}, {c})", line_no)
    out = np.zeros((n, d))
    out[rows, cols] = vals
    return out


def write_matrix_market(m, dest) -> None:
    """Write a dense matrix as array/general, with ``repr`` values so read-back is bit-exact."""
    a = _as_matrix(m)
    n, d = a.shape
    fh, owned = _open_text(dest, "w")
    try:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{n} {d}\n")
        for j in range(d):
            for i in range(n):
                fh.write(f"{float(a[i, j])!r}\n")
    finally:
        if owned:
            fh.close()


# ---------------------------------------------------------------------------
# Synthetic generators


def gen_gaussian(n: int, d: int, rng: Prng) -> np.ndarray:
    """n x d matrix of i.i.d. standard normals (Box-Muller, column-major fill)."""
    if n < 1 or d < 1:
        raise ValueError(f"need n, d >= 1, got {n}, {d}")
    return rng.normal(n * d).reshape((n, d), order="F")


def gen_low_rank_plus_noise(n: int, d: int, k: int, noise_sigma: float, rng: Prng) -> np.ndarray:
    """G1 @ G2 + noise_sigma * E with G1 (n x k), G2 (k x d), E (n x d) standard normal."""
    if not 1 <= k <= min(n, d):
        raise ValueError(f"need 1 <= k <= min(n, d), got k={k} for {n}x{d}")
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    g1 = gen_gaussian(n, k, rng)
    g2 = gen_gaussian(k, d, rng)
    e = gen_gaussian(n, d, rng)
    return g1 @ g2 + noise_sigma * e
