"""Immutable real matrices in compressed-sparse-row layout.

``CsrMatrix`` carries the graph operators (normalized adjacency and
Laplacian). Construction validates the layout invariants once; instances are
then treated as read-only and may be shared freely across threads. Products
with dense matrices are delegated to ``scipy.sparse`` which keeps a fixed
summation order.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError


class CsrMatrix:
    """Sparse rows x cols matrix with sorted, duplicate-free column indices."""

    __slots__ = ("rows", "cols", "row_offsets", "col_indices", "values", "_scipy")

    def __init__(self, rows, cols, row_offsets, col_indices, values, _validate=True):
        self.rows = int(rows)
        self.cols = int(cols)
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        if _validate:
            self._check_layout()
        self._scipy = sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.rows, self.cols),
        )

    def _check_layout(self):
        off, idx, val = self.row_offsets, self.col_indices, self.values
        if off.shape != (self.rows + 1,):
            raise ShapeError(f"row_offsets has length {off.shape[0]}, expected rows+1={self.rows + 1}")
        if off[0] != 0 or np.any(np.diff(off) < 0):
            raise ShapeError("row_offsets must start at 0 and be non-decreasing")
        nnz = int(off[-1])
        if idx.shape != (nnz,) or val.shape != (nnz,):
            raise ShapeError("col_indices/values length must equal row_offsets[rows]")
        if nnz:
            if idx.min() < 0 or idx.max() >= self.cols:
                raise ShapeError("column index out of range")
            for r in range(self.rows):
                row = idx[off[r]:off[r + 1]]
                if row.size > 1 and np.any(np.diff(row) <= 0):
                    raise ShapeError(f"row {r}: column indices must be strictly increasing")
        if not np.all(np.isfinite(val)):
            raise ShapeError("values must be finite")

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    @classmethod
    def from_coo(cls, rows, cols, row_idx, col_idx, values) -> "CsrMatrix":
        """Build from triplets; duplicate coordinates are an error."""
        row_idx, col_idx = np.asarray(row_idx), np.asarray(col_idx)
        if len(set(zip(row_idx.tolist(), col_idx.tolist()))) != len(row_idx):
            raise ShapeError("duplicate coordinates in COO input")
        csr = sp.coo_matrix((np.asarray(values, dtype=np.float64), (row_idx, col_idx)),
                            shape=(rows, cols)).tocsr()
        csr.sort_indices()
        return cls(rows, cols, csr.indptr, csr.indices, csr.data, _validate=False)

    @classmethod
    def from_dense(cls, a, tol: float = 0.0) -> "CsrMatrix":
        a = np.asarray(a, dtype=np.float64)
        csr = sp.csr_matrix(np.where(np.abs(a) > tol, a, 0.0))
        csr.eliminate_zeros()
        csr.sort_indices()
        return cls(a.shape[0], a.shape[1], csr.indptr, csr.indices, csr.data, _validate=False)

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        return cls(
            n, n,
            np.arange(n + 1, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            np.ones(n, dtype=np.float64),
            _validate=False,
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "CsrMatrix":
        return cls(
            rows, cols,
            np.zeros(rows + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            _validate=False,
        )

    def to_dense(self) -> np.ndarray:
        return np.asarray(self._scipy.todense(), dtype=np.float64)

    def transpose(self) -> "CsrMatrix":
        t = self._scipy.T.tocsr()
        t.sort_indices()
        return CsrMatrix(self.cols, self.rows, t.indptr, t.indices, t.data, _validate=False)

    def matmul_dense(self, b: np.ndarray) -> np.ndarray:
        """Sparse @ dense with shape checking; returns a new dense array."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 2 or self.cols != b.shape[0]:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} CSR by {b.shape}")
        return np.asarray(self._scipy @ b)

    def scale_rows(self, d: np.ndarray) -> "CsrMatrix":
        """Return diag(d) @ self."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.rows,):
            raise ShapeError("row scaling vector length mismatch")
        vals = self.values * np.repeat(d, np.diff(self.row_offsets))
        return CsrMatrix(self.rows, self.cols, self.row_offsets, self.col_indices, vals, _validate=False)

    def scale_cols(self, d: np.ndarray) -> "CsrMatrix":
        """Return self @ diag(d)."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.cols,):
            raise ShapeError("column scaling vector length mismatch")
        return CsrMatrix(
            self.rows, self.cols, self.row_offsets, self.col_indices,
            self.values * d[self.col_indices], _validate=False,
        )

    def add(self, other: "CsrMatrix") -> "CsrMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("CSR addition shape mismatch")
        s = (self._scipy + other._scipy).tocsr()
        s.sum_duplicates()
        s.sort_indices()
        return CsrMatrix(self.rows, self.cols, s.indptr, s.indices, s.data, _validate=False)

    def is_symmetric(self, tol: float = 0.0) -> bool:
        d = self._scipy - self._scipy.T
        return bool(np.all(np.abs(d.data) <= tol)) if d.nnz else True

    def __repr__(self):
        return f"CsrMatrix({self.rows}x{self.cols}, nnz={self.nnz})"
