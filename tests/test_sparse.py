import numpy as np
import pytest
import scipy.sparse as sp

from ncgc.errors import ShapeError
from ncgc.rng import RngState
from ncgc.sparse import CsrMatrix


def random_sparse(rows, cols, seed, density=0.3):
    rng = RngState(seed)
    a = rng.normal((rows, cols))
    a[rng.uniform((rows, cols)) > density] = 0.0
    return a


def assert_canonical(m: CsrMatrix, oracle: np.ndarray):
    """Strictly increasing column indices in every row, and the oracle's entries."""
    assert (m.rows, m.cols) == oracle.shape
    assert m.row_offsets.shape == (m.rows + 1,) and m.row_offsets[0] == 0
    assert m.nnz == m.row_offsets[-1] == m.col_indices.size == m.values.size
    for r in range(m.rows):
        row = m.col_indices[m.row_offsets[r]:m.row_offsets[r + 1]]
        assert np.all(np.diff(row) > 0), f"row {r}: {row}"
    assert np.array_equal(m.to_dense(), oracle)


def test_from_coo_unsorted_triplets():
    rows = [2, 0, 1, 0, 2, 1]
    cols = [0, 3, 1, 1, 2, 0]
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    oracle = np.zeros((3, 4))
    oracle[rows, cols] = vals
    assert_canonical(CsrMatrix.from_coo(3, 4, rows, cols, vals), oracle)


def test_from_coo_rejects_duplicates():
    with pytest.raises(ShapeError, match="duplicate coordinates"):
        CsrMatrix.from_coo(2, 2, [0, 1, 0], [1, 0, 1], [1.0, 1.0, 1.0])


def test_from_dense_identity_zeros():
    a = random_sparse(5, 7, seed=1)
    assert_canonical(CsrMatrix.from_dense(a), a)
    assert_canonical(CsrMatrix.identity(4), np.eye(4))
    z = CsrMatrix.from_dense(np.zeros((3, 5)))
    assert_canonical(z, np.zeros((3, 5)))
    assert z.nnz == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7, 5), (0, 4), (4, 0)])
def test_from_dense_matches_scipy(dtype, shape):
    a = random_sparse(*shape, seed=6).astype(dtype)
    if a.size:
        a[[2, 6]] = 0.0  # all-zero rows, the last one included
        a[:, 3] = 0.0  # an all-zero column
        a[0, 0] = a[4, 1] = -0.0  # a negative zero is not stored
    ref = sp.csr_matrix(a.astype(np.float64))
    m = CsrMatrix.from_dense(a)
    for got, want in ((m.row_offsets, ref.indptr), (m.col_indices, ref.indices),
                      (m.values, ref.data)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert_canonical(m, a.astype(np.float64))


def test_transpose_add_and_scaling():
    a = random_sparse(6, 4, seed=2)
    b = random_sparse(6, 4, seed=3)
    sa, sb = CsrMatrix.from_dense(a), CsrMatrix.from_dense(b)
    assert_canonical(sa.transpose(), a.T)
    assert_canonical(sa.add(sb), a + b)
    d_row = RngState(4).normal((6,))
    d_col = RngState(5).normal((4,))
    assert_canonical(sa.scale_rows(d_row), d_row[:, None] * a)
    assert_canonical(sa.scale_cols(d_col), a * d_col[None, :])


def test_transpose_is_canonical():
    a = random_sparse(6, 4, seed=8)
    assert_canonical(CsrMatrix.from_dense(a).transpose(), a.T)


def test_matmul_dense_matches_numpy_and_checks_shape():
    a = random_sparse(5, 3, seed=6)
    b = RngState(7).normal((3, 2))
    s = CsrMatrix.from_dense(a)
    assert np.allclose(s.matmul_dense(b), a @ b, rtol=1e-14, atol=1e-14)
    with pytest.raises(ShapeError):
        s.matmul_dense(np.ones((4, 2)))


@pytest.mark.parametrize("rows, cols", [(7, 4), (4, 9), (6, 6)])
@pytest.mark.parametrize("width", [1, 3])
def test_transpose_matmul_dense_bit_equals_the_built_transpose(rows, cols, width):
    a = random_sparse(rows, cols, seed=rows * cols + width, density=0.5)
    a[1] = 0.0  # an empty row
    a[:, 2] = 0.0  # an empty column
    a[0, 1], a[1, 0] = 0.75, 0.0  # asymmetric where square
    s = CsrMatrix.from_dense(a)
    b = RngState(width).normal((rows, width))
    got = s.transpose_matmul_dense(b)
    assert got.shape == (cols, width)
    assert np.array_equal(got, s.transpose().matmul_dense(b))
    assert np.allclose(got, a.T @ b, rtol=1e-14, atol=1e-14)
    assert np.array_equal(got[2], np.zeros(width))


def test_transpose_matmul_dense_checks_shape():
    s = CsrMatrix.from_dense(random_sparse(5, 3, seed=9))
    with pytest.raises(ShapeError):
        s.transpose_matmul_dense(np.ones((3, 2)))  # the product wants 5 rows
    with pytest.raises(ShapeError):
        s.transpose_matmul_dense(np.ones(5))
