import gc
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchbench.matrices import (
    MatrixMarketError,
    gen_gaussian,
    gen_low_rank_plus_noise,
    read_matrix_market,
    write_matrix_market,
)
from sketchbench.rng import Prng


# ---------------------------------------------------------------------------
# MatrixMarket


COORD = """%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 0.5
2 3 -1.25
3 4 2.0
"""

ARRAY = """%%MatrixMarket matrix array real general
2 2
1.0
2.0
3.0
4.0
"""


def test_binary_streams_are_refused_and_left_open():
    # a text wrapper around the caller's stream would close it when collected
    source = io.BytesIO(ARRAY.encode("ascii"))
    with pytest.raises(MatrixMarketError, match="line 1"):
        read_matrix_market(source)
    dest = io.BytesIO()
    with pytest.raises(TypeError):
        write_matrix_market(np.eye(2), dest)
    gc.collect()
    assert not source.closed and not dest.closed


def test_read_coordinate():
    m = read_matrix_market(io.StringIO(COORD))
    assert isinstance(m, np.ndarray) and m.dtype == np.float64
    assert m.shape == (3, 4)
    assert m[0, 0] == 0.5
    assert m[1, 2] == -1.25
    assert m[2, 3] == 2.0
    assert np.count_nonzero(m) == 3


def test_csr_from_coo_roundtrip():
    # COO triples given out of row order come back as the dense array they name
    text = """%%MatrixMarket matrix coordinate real general
3 3 4
1 2 1.5
2 1 -2.0
3 3 3.0
2 3 4.0
"""
    m = read_matrix_market(io.StringIO(text))
    expected = np.array([[0, 1.5, 0], [-2.0, 0, 4.0], [0, 0, 3.0]])
    np.testing.assert_array_equal(m, expected)
    assert np.count_nonzero(m) == 4


def test_read_coordinate_places_entries_bitexact():
    text = """%%MatrixMarket matrix coordinate real general
5 4 5
3 3 1e300
1 4 0.1
5 3 3.25
2 1 -2.5e-17
4 2 0.0
"""
    expected = np.zeros((5, 4))
    expected[[0, 1, 4, 2], [3, 0, 2, 2]] = [0.1, -2.5e-17, 3.25, 1e300]
    np.testing.assert_array_equal(read_matrix_market(io.StringIO(text)), expected)


def test_read_coordinate_without_entries_is_zero():
    text = "%%MatrixMarket matrix coordinate real general\n3 4 0\n"
    np.testing.assert_array_equal(read_matrix_market(io.StringIO(text)), np.zeros((3, 4)))


def test_coordinate_and_array_files_load_the_same_matrix():
    array = io.StringIO()
    write_matrix_market(read_matrix_market(io.StringIO(COORD)), array)
    array.seek(0)
    np.testing.assert_array_equal(read_matrix_market(array),
                                  read_matrix_market(io.StringIO(COORD)))


def test_read_array_is_column_major():
    m = read_matrix_market(io.StringIO(ARRAY))
    assert isinstance(m, np.ndarray)
    np.testing.assert_array_equal(m, np.array([[1.0, 3.0], [2.0, 4.0]]))


# a symmetric 3x3 matrix, its lower triangle in column-major order, and all of it
_SYM = np.array([[1.5, -2.0, 0.25], [-2.0, 3.0, 7.0], [0.25, 7.0, -1e-300]])
_SYM_LOWER = [(i, j) for j in range(3) for i in range(j, 3)]


def test_read_symmetric_array_matches_general_array_and_symmetric_coordinate():
    sym_array = ("%%MatrixMarket matrix array real symmetric\n% lower triangle\n3 3\n"
                 + "".join(f"{float(_SYM[i, j])!r}\n" for i, j in _SYM_LOWER))
    general_array = ("%%MatrixMarket matrix array real general\n3 3\n"
                     + "".join(f"{float(_SYM[i, j])!r}\n" for j in range(3) for i in range(3)))
    sym_coordinate = ("%%MatrixMarket matrix coordinate real symmetric\n3 3 6\n"
                      + "".join(f"{i + 1} {j + 1} {float(_SYM[i, j])!r}\n" for i, j in _SYM_LOWER))
    for text in (sym_array, general_array, sym_coordinate):
        np.testing.assert_array_equal(read_matrix_market(io.StringIO(text)), _SYM)


def test_read_symmetric_array_rejects_one_value_too_many():
    text = ("%%MatrixMarket matrix array real symmetric\n3 3\n"
            + "".join(f"{float(_SYM[i, j])!r}\n" for i, j in _SYM_LOWER) + "9.0\n")
    with pytest.raises(MatrixMarketError, match=r"^line 9: expected 6 array entries, found 7$"):
        read_matrix_market(io.StringIO(text))


@pytest.mark.parametrize("variant, size", [
    ("coordinate", "-2 3 0"),
    ("coordinate", "3 0 0"),
    ("array", "0 3"),
    ("coordinate", "3 3 -1"),
])
def test_read_rejects_a_size_below_one_or_a_negative_nnz_at_the_size_line(variant, size):
    text = f"%%MatrixMarket matrix {variant} real general\n% a comment\n{size}\n"
    fields = re.escape(str(size.split()))
    with pytest.raises(MatrixMarketError, match=(
            rf"^line 3: bad size line {fields}: rows and cols must be >= 1, nnz >= 0$")) as err:
        read_matrix_market(io.StringIO(text))
    assert err.value.line_no == 3


def test_read_symmetric_coordinate_mirrors():
    text = """%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 1.0
2 1 5.0
"""
    m = read_matrix_market(io.StringIO(text))
    np.testing.assert_array_equal(m, np.array([[1.0, 5.0], [5.0, 0.0]]))


def test_read_rejects_duplicate_with_line_number():
    text = """%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.0
1 1 2.0
"""
    with pytest.raises(MatrixMarketError, match="duplicate"):
        read_matrix_market(io.StringIO(text))


def test_read_names_the_first_duplicate_in_row_major_order():
    # 0-based, the first of (1, 2) and (0, 3) in row-major order, not in file order
    text = """%%MatrixMarket matrix coordinate real general
3 4 5
2 3 1.0
1 4 2.0
2 3 3.0
1 4 4.0
3 1 5.0
"""
    with pytest.raises(MatrixMarketError, match=r"^line 7: duplicate entry at \(0, 3\)$"):
        read_matrix_market(io.StringIO(text))


def test_read_symmetric_rejects_an_entry_and_its_mirror():
    text = """%%MatrixMarket matrix coordinate real symmetric
2 2 2
2 1 5.0
1 2 5.0
"""
    with pytest.raises(MatrixMarketError, match=r"duplicate entry at \(0, 1\)"):
        read_matrix_market(io.StringIO(text))


def test_read_explicit_zero_beside_a_nonzero_is_no_duplicate():
    # the zero counts against the declared nnz and is not stored, so the nonzero wins
    for entries in ("1 2 0.0\n1 2 7.5\n", "1 2 7.5\n1 2 0.0\n"):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n" + entries
        np.testing.assert_array_equal(read_matrix_market(io.StringIO(text)),
                                      np.array([[0.0, 7.5], [0.0, 0.0]]))


def test_read_rejects_bad_header():
    with pytest.raises(MatrixMarketError, match="line 1"):
        read_matrix_market(io.StringIO("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0\n"))


def test_read_rejects_out_of_bounds_index():
    text = """%%MatrixMarket matrix coordinate real general
2 2 1
3 1 1.0
"""
    with pytest.raises(MatrixMarketError, match="line 3"):
        read_matrix_market(io.StringIO(text))


def test_read_rejects_nnz_mismatch():
    text = """%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.0
"""
    with pytest.raises(MatrixMarketError, match="nnz"):
        read_matrix_market(io.StringIO(text))


def test_read_rejects_garbage_value():
    text = """%%MatrixMarket matrix coordinate real general
2 2 1
1 1 abc
"""
    with pytest.raises(MatrixMarketError, match="line 3"):
        read_matrix_market(io.StringIO(text))


def test_write_read_roundtrip_dense_bitexact():
    a = gen_gaussian(7, 5, Prng(100))
    buf = io.StringIO()
    write_matrix_market(a, buf)
    buf.seek(0)
    back = read_matrix_market(buf)
    np.testing.assert_array_equal(back, a)


def test_write_read_roundtrip_csr_bitexact():
    # a mostly-zero matrix keeps its tiny, huge and inexact values and its zeros
    m = np.zeros((5, 4))
    m[[0, 1, 4, 2], [3, 0, 2, 2]] = [0.1, -2.5e-17, 3.25, 1e300]
    buf = io.StringIO()
    write_matrix_market(m, buf)
    buf.seek(0)
    back = read_matrix_market(buf)
    assert back.shape == m.shape
    np.testing.assert_array_equal(back, m)
    np.testing.assert_array_equal(np.flatnonzero(back), np.flatnonzero(m))


def test_file_roundtrip(tmp_path):
    path = tmp_path / "m.mtx"
    a = gen_gaussian(3, 3, Prng(5))
    write_matrix_market(a, path)
    np.testing.assert_array_equal(read_matrix_market(path), a)


# ---------------------------------------------------------------------------
# generators


def test_gen_gaussian_deterministic_and_column_major():
    a = gen_gaussian(4, 3, Prng(77))
    b = gen_gaussian(4, 3, Prng(77))
    np.testing.assert_array_equal(a, b)
    # column-major fill: first column of a 4x3 equals the first 4 draws
    flat = Prng(77).normal(12)
    np.testing.assert_array_equal(a[:, 0], flat[:4])
    np.testing.assert_array_equal(a[:, 1], flat[4:8])


def test_gen_gaussian_moments():
    a = gen_gaussian(300, 300, Prng(1))
    assert abs(a.mean()) < 0.01
    assert abs(a.std() - 1.0) < 0.01


def test_gen_gaussian_validates():
    with pytest.raises(ValueError):
        gen_gaussian(0, 3, Prng(1))


def test_gen_low_rank_rank_and_noise():
    a = gen_low_rank_plus_noise(60, 40, 5, 0.0, Prng(2))
    s = np.linalg.svd(a, compute_uv=False)
    assert s[4] > 1.0
    assert s[5] < 1e-10  # exactly rank 5 without noise
    noisy = gen_low_rank_plus_noise(60, 40, 5, 1e-3, Prng(2))
    s2 = np.linalg.svd(noisy, compute_uv=False)
    assert 0 < s2[5] < 0.5


def test_gen_low_rank_validates():
    with pytest.raises(ValueError):
        gen_low_rank_plus_noise(10, 10, 11, 0.1, Prng(3))
    with pytest.raises(ValueError):
        gen_low_rank_plus_noise(10, 10, 2, -0.1, Prng(3))


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_roundtrip_any_dense(n, d, seed):
    a = gen_gaussian(n, d, Prng(seed))
    buf = io.StringIO()
    write_matrix_market(a, buf)
    buf.seek(0)
    np.testing.assert_array_equal(read_matrix_market(buf), a)
