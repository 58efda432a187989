import numpy as np
import pytest

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
    z = CsrMatrix.zeros(3, 5)
    assert_canonical(z, np.zeros((3, 5)))
    assert z.nnz == 0


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


def test_transpose_is_built_once_and_canonical():
    a = random_sparse(6, 4, seed=8)
    s = CsrMatrix.from_dense(a)
    t = s.transpose()
    assert s.transpose() is t
    assert_canonical(t, a.T)


def test_matmul_dense_matches_numpy_and_checks_shape():
    a = random_sparse(5, 3, seed=6)
    b = RngState(7).normal((3, 2))
    s = CsrMatrix.from_dense(a)
    assert np.allclose(s.matmul_dense(b), a @ b, rtol=1e-14, atol=1e-14)
    with pytest.raises(ShapeError):
        s.matmul_dense(np.ones((4, 2)))
