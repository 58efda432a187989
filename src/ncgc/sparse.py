"""Immutable real matrices in compressed-sparse-row layout.

``CsrMatrix`` carries the graph operators (normalized adjacency and
Laplacian) and the sparse feature operator. It holds one ``scipy.sparse``
CSR matrix in canonical form: within each row the column indices are
strictly increasing. Every constructor and operation here returns that form,
so there is no separate layout check. ``rows``, ``cols``, ``nnz``,
``row_offsets``, ``col_indices`` and ``values`` are read-only views of it.
Instances are treated as read-only and may be shared freely across threads;
``transpose`` builds its result once and keeps it on the instance, so the
backward passes that apply the adjoint of one operator share one copy.
Products with dense matrices are delegated to scipy, which keeps a fixed
summation order.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError


class CsrMatrix:
    """Sparse rows x cols matrix with sorted, duplicate-free column indices."""

    __slots__ = ("_scipy", "_transpose")

    def __init__(self, csr: sp.csr_matrix):
        """Wrap a canonical float64 scipy CSR matrix; build through the classmethods."""
        self._scipy = csr
        self._transpose = None

    @property
    def rows(self) -> int:
        return self._scipy.shape[0]

    @property
    def cols(self) -> int:
        return self._scipy.shape[1]

    @property
    def nnz(self) -> int:
        return self._scipy.nnz

    @property
    def row_offsets(self) -> np.ndarray:
        return self._scipy.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self._scipy.indices

    @property
    def values(self) -> np.ndarray:
        return self._scipy.data

    @classmethod
    def from_coo(cls, rows, cols, row_idx, col_idx, values) -> "CsrMatrix":
        """Build from triplets; duplicate coordinates are an error."""
        coo = sp.coo_matrix((np.asarray(values, dtype=np.float64), (row_idx, col_idx)),
                            shape=(rows, cols))
        csr = coo.tocsr()  # sums duplicates and sorts each row
        if csr.nnz != coo.nnz:
            raise ShapeError("duplicate coordinates in COO input")
        return cls(csr)

    @classmethod
    def from_dense(cls, a) -> "CsrMatrix":
        return cls(sp.csr_matrix(np.asarray(a, dtype=np.float64)))

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        return cls(sp.identity(n, dtype=np.float64, format="csr"))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "CsrMatrix":
        return cls(sp.csr_matrix((rows, cols), dtype=np.float64))

    def to_dense(self) -> np.ndarray:
        return self._scipy.toarray()

    def transpose(self) -> "CsrMatrix":
        """The transpose, built on the first call and returned by every later one.

        Two threads racing on the first call each build an equal matrix and
        one of them is kept, so sharing an instance stays safe.
        """
        if self._transpose is None:
            t = self._scipy.T.tocsr()
            t.sort_indices()
            self._transpose = CsrMatrix(t)
        return self._transpose

    def matmul_dense(self, b: np.ndarray) -> np.ndarray:
        """Sparse @ dense with shape checking; returns a new dense array."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 2 or self.cols != b.shape[0]:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} CSR by {b.shape}")
        return np.asarray(self._scipy @ b)

    def _with_values(self, values: np.ndarray) -> "CsrMatrix":
        s = self._scipy
        return CsrMatrix(sp.csr_matrix((values, s.indices, s.indptr), shape=s.shape))

    def scale_rows(self, d: np.ndarray) -> "CsrMatrix":
        """Return diag(d) @ self."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.rows,):
            raise ShapeError("row scaling vector length mismatch")
        return self._with_values(self.values * np.repeat(d, np.diff(self.row_offsets)))

    def scale_cols(self, d: np.ndarray) -> "CsrMatrix":
        """Return self @ diag(d)."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.cols,):
            raise ShapeError("column scaling vector length mismatch")
        return self._with_values(self.values * d[self.col_indices])

    def add(self, other: "CsrMatrix") -> "CsrMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("CSR addition shape mismatch")
        s = self._scipy + other._scipy
        s.sum_duplicates()
        return CsrMatrix(s)

    def is_symmetric(self, tol: float = 0.0) -> bool:
        d = self._scipy - self._scipy.T
        return bool(np.all(np.abs(d.data) <= tol)) if d.nnz else True

    def __repr__(self):
        return f"CsrMatrix({self.rows}x{self.cols}, nnz={self.nnz})"
