"""Dense / CSR sparse matrices, MatrixMarket I/O, and synthetic generators.

Dense matrices are plain 2-D float64 numpy arrays; vectors are 1-D arrays.
Generated matrices fill column-major (the draw order walks down each column),
so a fixed seed pins every entry.

MatrixMarket support covers the ``coordinate`` and ``array`` variants with
``real`` field and ``general``/``symmetric`` symmetry.  Coordinate files load
as CSR, array files as dense.  Duplicate coordinate entries are a hard parse
error, not summed.  Writing uses ``repr`` floats, so a read-back reproduces
values bit-exactly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import Prng


class MatrixMarketError(ValueError):
    """Malformed MatrixMarket input; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass
class CsrMatrix:
    """Compressed sparse row matrix with sorted, duplicate-free rows."""

    shape: tuple[int, int]
    row_offsets: np.ndarray   # int64, length rows+1
    col_indices: np.ndarray   # int64, length nnz
    values: np.ndarray        # float64, length nnz

    @property
    def nnz(self) -> int:
        return len(self.values)

    def validate(self) -> None:
        n, d = self.shape
        if len(self.row_offsets) != n + 1:
            raise ValueError("row_offsets length must be rows+1")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != self.nnz:
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if len(self.col_indices) != self.nnz:
            raise ValueError("col_indices length must equal nnz")
        if self.nnz and (self.col_indices.min() < 0 or self.col_indices.max() >= d):
            raise ValueError("column index out of range")
        for i in range(n):
            lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
            cols = self.col_indices[lo:hi]
            if len(cols) > 1 and np.any(np.diff(cols) <= 0):
                raise ValueError(f"row {i}: column indices not strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if np.any(self.values == 0.0):
            raise ValueError("explicit zeros are not stored")

    @classmethod
    def from_coo(cls, rows, cols, vals, shape: tuple[int, int]) -> "CsrMatrix":
        """Build from coordinate triplets; duplicates raise ValueError."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        n, d = shape
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows) > 1:
            dup = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if np.any(dup):
                i = int(np.argmax(dup))
                raise ValueError(f"duplicate entry at ({rows[i]}, {cols[i]})")
        row_offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(row_offsets, rows + 1, 1)
        np.cumsum(row_offsets, out=row_offsets)
        m = cls(shape=shape, row_offsets=row_offsets, col_indices=cols, values=vals)
        m.validate()
        return m

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.row_offsets))
        out[rows, self.col_indices] = self.values
        return out


def densify(m) -> np.ndarray:
    """CSR to dense; dense passes through unchanged."""
    if isinstance(m, CsrMatrix):
        return m.to_dense()
    return np.asarray(m, dtype=np.float64)


# ---------------------------------------------------------------------------
# MatrixMarket I/O


def _open_text(source, mode: str):
    if isinstance(source, (str, Path)):
        return open(source, mode), True
    if isinstance(source, io.TextIOBase):
        return source, False
    # binary stream: wrap
    return io.TextIOWrapper(source, encoding="ascii"), False


def read_matrix_market(source):
    """Parse a MatrixMarket file or stream into CSR (coordinate) or dense (array)."""
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
    size_fields = None
    for line in fh:
        line_no += 1
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        size_fields = stripped.split()
        break
    if size_fields is None:
        raise MatrixMarketError("missing size line", line_no)

    if fmt == "coordinate":
        if len(size_fields) != 3:
            raise MatrixMarketError("coordinate size line needs 'rows cols nnz'", line_no)
        try:
            n, d, nnz = (int(f) for f in size_fields)
        except ValueError:
            raise MatrixMarketError(f"bad size line {size_fields}", line_no) from None
        if symmetric and n != d:
            raise MatrixMarketError("symmetric matrix must be square", line_no)
        rows, cols, vals = [], [], []
        seen = 0
        for line in fh:
            line_no += 1
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
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
        if seen != nnz:
            raise MatrixMarketError(f"declared nnz={nnz} but found {seen} entries", line_no)
        try:
            return CsrMatrix.from_coo(rows, cols, vals, (n, d))
        except ValueError as exc:
            raise MatrixMarketError(str(exc), line_no) from None

    # array format
    if len(size_fields) != 2:
        raise MatrixMarketError("array size line needs 'rows cols'", line_no)
    try:
        n, d = (int(f) for f in size_fields)
    except ValueError:
        raise MatrixMarketError(f"bad size line {size_fields}", line_no) from None
    if symmetric and n != d:
        raise MatrixMarketError("symmetric matrix must be square", line_no)
    expected = n * (n + 1) // 2 if symmetric else n * d
    entries = []
    for line in fh:
        line_no += 1
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        for tok in stripped.split():
            try:
                entries.append(float(tok))
            except ValueError:
                raise MatrixMarketError(f"bad value {tok!r}", line_no) from None
    if len(entries) != expected:
        raise MatrixMarketError(
            f"expected {expected} array entries, found {len(entries)}", line_no
        )
    out = np.empty((n, d))
    if symmetric:
        idx = 0
        for j in range(d):
            for i in range(j, n):
                out[i, j] = entries[idx]
                out[j, i] = entries[idx]
                idx += 1
    else:
        out = np.asarray(entries).reshape((n, d), order="F")
    if not np.all(np.isfinite(out)):
        raise MatrixMarketError("non-finite value in array data", line_no)
    return out


def write_matrix_market(m, dest) -> None:
    """Write dense as array/general, CSR as coordinate/general.

    Values are written with ``repr`` so that read-back is bit-exact.
    """
    fh, owned = _open_text(dest, "w")
    try:
        if isinstance(m, CsrMatrix):
            n, d = m.shape
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{n} {d} {m.nnz}\n")
            rows = np.repeat(np.arange(n), np.diff(m.row_offsets))
            for i, j, v in zip(rows, m.col_indices, m.values):
                fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")
        else:
            a = np.asarray(m, dtype=np.float64)
            n, d = a.shape
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
