"""Immutable real matrices in compressed-sparse-row layout.

``CsrMatrix`` carries the graph operator (the normalized adjacency, which
``graph.normalized_adjacency`` builds symmetric bit for bit, so its own
adjoint) and the node feature matrix, which the spectral baseline densifies
and filters with the operator. It holds
one ``scipy.sparse`` CSR matrix in canonical form: within each row the
column indices are strictly increasing. Every constructor and operation here
returns that form, so there is no separate layout check. ``rows``, ``cols``,
``nnz``, ``row_offsets``, ``col_indices`` and ``values`` are read-only views
of it. Instances are treated as read-only and may be shared freely across
threads. ``transpose_matmul_dense`` multiplies by the transpose through a
compressed-sparse-column view of the same arrays, so the gradient of a
product with the (not square) sparse features builds no transposed copy of
them; where a transposed matrix itself is wanted, ``transpose`` builds a
new one on each call.

Products with dense matrices run scipy's own kernels, which keep a fixed
summation order. ``matmul_dense_into`` accumulates ``out += self @ b`` by
calling ``scipy.sparse._sparsetools.csr_matvecs``, the kernel that scipy's
own CSR @ dense product calls (``_cs_matrix._matmul_multivector``),
directly: the public product always returns a new zeroed array, and the
private entry point is the one way to add a sparse product into a buffer the
caller already holds, with no temporary and no second pass. Row i adds its
terms ``a_ij b_j`` to ``out_i`` one at a time in ascending column order, so
``matmul_dense``, which is ``np.zeros`` plus that call, equals scipy's
``self @ b`` bit for bit. ``tests/test_sparse.py`` pins both: the product
against ``@`` and the accumulate against a plain loop of that order, so a
scipy that renames the kernel or changes its order fails there, loudly.
The transpose product goes through scipy's public CSC product.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import ShapeError


class CsrMatrix:
    """Sparse rows x cols matrix with sorted, duplicate-free column indices."""

    __slots__ = ("_scipy",)

    def __init__(self, csr: sp.csr_matrix):
        """Wrap a canonical float64 scipy CSR matrix; build through the classmethods."""
        self._scipy = csr

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
        """The nonzeros of a real 2-D array, found through one boolean mask; only
        they are widened to float64, never the whole array."""
        a = np.asarray(a)
        rows, cols = a.shape
        flat = np.flatnonzero(a != 0)  # row-major positions, so each row comes sorted
        indptr = np.searchsorted(flat, np.arange(rows + 1) * cols)
        data = a.reshape(-1)[flat].astype(np.float64)
        return cls(sp.csr_matrix((data, flat % cols, indptr), shape=a.shape))

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        return cls(sp.identity(n, dtype=np.float64, format="csr"))

    def to_dense(self) -> np.ndarray:
        return self._scipy.toarray()

    def transpose(self) -> "CsrMatrix":
        """The transpose, a new matrix in canonical form."""
        t = self._scipy.T.tocsr()
        t.sort_indices()
        return CsrMatrix(t)

    def matmul_dense(self, b: np.ndarray) -> np.ndarray:
        """Sparse @ dense with shape checking; returns a new dense array."""
        b = self._right_operand(b)
        return self.matmul_dense_into(b, np.zeros((self.rows, b.shape[1])))

    def matmul_dense_into(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out += self @ b`` in place; returns out.

        Row i of out adds ``a_ij * b_j`` for each stored j in ascending order,
        one term at a time, so from zeros it holds ``self @ b`` bit for bit.
        out must be a writeable C-contiguous float64 array of the product's
        shape that shares no memory with b: the kernel writes through a flat
        view of it, so a copy would silently drop the sum. b is copied when it
        is not C-contiguous float64.
        """
        b = self._right_operand(b)
        if (not isinstance(out, np.ndarray) or out.shape != (self.rows, b.shape[1])
                or out.dtype != np.float64 or not out.flags.c_contiguous
                or not out.flags.writeable):
            raise ShapeError(f"the {self.rows}x{b.shape[1]} product accumulates only into a "
                             f"writeable C-contiguous float64 array of that shape")
        if np.may_share_memory(out, b):
            raise ShapeError("the product's output overlaps its dense operand")
        s = self._scipy
        _sparsetools.csr_matvecs(self.rows, self.cols, b.shape[1], s.indptr, s.indices,
                                 s.data, b.ravel(), out.ravel())
        return out

    def _right_operand(self, b) -> np.ndarray:
        """b as a C-contiguous float64 matrix with this matrix's column count."""
        b = np.ascontiguousarray(b, dtype=np.float64)
        if b.ndim != 2 or self.cols != b.shape[0]:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} CSR by {b.shape}")
        return b

    def transpose_matmul_dense(self, b: np.ndarray) -> np.ndarray:
        """``self^T @ b`` through the CSC view of this matrix's arrays, no transpose built.

        Each output row sums its terms in ascending order of this matrix's row
        index, as the product with the sorted ``transpose()`` does, so the two
        are equal bit for bit.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 2 or self.rows != b.shape[0]:
            raise ShapeError(f"cannot multiply the transpose of {self.rows}x{self.cols} CSR "
                             f"by {b.shape}")
        return np.asarray(self._scipy.T @ b)

    def with_values(self, values: np.ndarray) -> "CsrMatrix":
        """The matrix with this one's sparsity pattern and the stored ``values``."""
        s = self._scipy
        return CsrMatrix(sp.csr_matrix((values, s.indices, s.indptr), shape=s.shape))

    def scale_rows(self, d: np.ndarray) -> "CsrMatrix":
        """Return diag(d) @ self."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.rows,):
            raise ShapeError("row scaling vector length mismatch")
        return self.with_values(self.values * np.repeat(d, np.diff(self.row_offsets)))

    def scale_cols(self, d: np.ndarray) -> "CsrMatrix":
        """Return self @ diag(d)."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.cols,):
            raise ShapeError("column scaling vector length mismatch")
        return self.with_values(self.values * d[self.col_indices])

    def add(self, other: "CsrMatrix") -> "CsrMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("CSR addition shape mismatch")
        s = self._scipy + other._scipy
        s.sum_duplicates()
        return CsrMatrix(s)

    def __repr__(self):
        return f"CsrMatrix({self.rows}x{self.cols}, nnz={self.nnz})"
