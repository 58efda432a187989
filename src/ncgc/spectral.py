"""Spectral clustering baseline and verification targets.

Subspace iteration with QR orthonormalization approximates the invariant
subspace of the k largest-magnitude eigenvalues of a symmetric operator;
Lloyd's algorithm with k-means++ seeding rounds the basis to a hard
partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ContractError, RankError, ShapeError
from .rng import RngState
from .sparse import CsrMatrix


@dataclass(frozen=True)
class EigenBasis:
    """Orthonormal basis q (n x k) with Ritz values sorted descending."""

    q: np.ndarray
    ritz_values: np.ndarray
    iterations_used: int
    converged: bool


@dataclass(frozen=True)
class ClusterIndicator:
    """Hard assignments plus the normalized cluster indicator matrix.

    Row i holds a single nonzero 1/sqrt(|cluster|) in the column of its
    cluster; with every cluster non-empty the columns are orthonormal.
    """

    assignments: np.ndarray
    c: np.ndarray


def qr_orthonormalize(m: np.ndarray) -> np.ndarray:
    """Orthonormalize columns by modified Gram-Schmidt with one reorthogonalization.

    Preserves the column span. Raises RankError when a column's residual norm
    falls below 1e-12 during elimination.
    """
    m = np.array(m, dtype=np.float64)
    n, k = m.shape
    if n < k:
        raise ContractError(f"need rows >= cols, got {n} x {k}")
    q = np.zeros_like(m)
    for j in range(k):
        v = m[:, j].copy()
        for _ in range(2):
            if j:
                v -= q[:, :j] @ (q[:, :j].T @ v)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise RankError(f"column {j} is numerically dependent on earlier columns")
        q[:, j] = v / norm
    return q


def _projector_distance(q_new: np.ndarray, q_old: np.ndarray) -> float:
    # ||QQ^T - PP^T||_F with orthonormal Q, P equals sqrt(2k - 2||Q^T P||_F^2);
    # never forms the n x n projectors.
    k = q_new.shape[1]
    cross = q_new.T @ q_old
    return float(np.sqrt(max(0.0, 2.0 * k - 2.0 * (cross * cross).sum())))


def subspace_iteration(
    a_tilde: CsrMatrix,
    k: int,
    tol: float = 1e-8,
    max_iter: int = 1000,
    rng: RngState | None = None,
) -> EigenBasis:
    """Block power iteration toward the dominant invariant subspace.

    Convergence is declared when the Frobenius distance between successive
    column-space projectors drops below ``tol``; hitting ``max_iter`` returns
    the best iterate with ``converged=False``. On return the basis is rotated
    to Ritz vectors and ``ritz_values`` holds the Rayleigh-Ritz eigenvalue
    estimates in descending order.
    """
    n = a_tilde.rows
    if a_tilde.cols != n:
        raise ContractError("operator must be square")
    if not a_tilde.is_symmetric(1e-10):
        raise ContractError("operator must be symmetric")
    if not 1 <= k <= n:
        raise ContractError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = rng or RngState(0)
    q = qr_orthonormalize(rng.normal((n, k)))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        z = a_tilde.matmul_dense(q)
        q_new = qr_orthonormalize(z)
        delta = _projector_distance(q_new, q)
        q = q_new
        if delta < tol:
            converged = True
            break
    m = q.T @ a_tilde.matmul_dense(q)
    m = 0.5 * (m + m.T)
    w, u = np.linalg.eigh(m)
    order = np.argsort(-w)
    return EigenBasis(q=q @ u[:, order], ritz_values=w[order],
                      iterations_used=iterations, converged=converged)


def ratiocut_trace(h: np.ndarray, l_tilde: CsrMatrix) -> float:
    """Tr(H^T L~ H), the graph smoothness of the columns of H."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape[0] != l_tilde.rows:
        raise ShapeError(f"H has {h.shape[0]} rows but the operator has {l_tilde.rows}")
    return float((h * l_tilde.matmul_dense(h)).sum())


# ---------------------------------------------------------------------------
# k-means rounding


def kmeans_pp_init(x: np.ndarray, k: int, rng: RngState) -> np.ndarray:
    """k-means++ seeding: centroids drawn with probability proportional to D^2."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(0, n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = rng.integers(0, n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centroids[c] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _sqdist(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    d = (x * x).sum(axis=1, keepdims=True) + (c * c).sum(axis=1) - 2.0 * (x @ c.T)
    np.maximum(d, 0.0, out=d)
    return d


def lloyd(
    x: np.ndarray,
    centroids: np.ndarray,
    max_iter: int = 300,
):
    """Lloyd iterations until the assignment is a fixed point.

    An emptied cluster is reseeded at the point farthest from its currently
    assigned centroid. Returns (centroids, assignments, wcss).
    """
    centroids = np.array(centroids, dtype=np.float64)
    k = centroids.shape[0]
    assignments = np.full(x.shape[0], -1, dtype=np.int64)
    for _ in range(max_iter):
        d = _sqdist(x, centroids)
        new_assign = d.argmin(axis=1)
        point_cost = d[np.arange(x.shape[0]), new_assign]
        for c in range(k):
            if not np.any(new_assign == c):
                far = int(point_cost.argmax())
                new_assign[far] = c
                centroids[c] = x[far]
                point_cost[far] = 0.0
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for c in range(k):
            members = x[assignments == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    wcss = float(_sqdist(x, centroids)[np.arange(x.shape[0]), assignments].sum())
    return centroids, assignments, wcss


def kmeans(x: np.ndarray, k: int, rng: RngState, restarts: int = 10):
    """Best of several seeded Lloyd runs by WCSS; ties keep the earliest restart."""
    best = None
    for _ in range(restarts):
        init = kmeans_pp_init(x, k, rng)
        centroids, assign, wcss = lloyd(x, init)
        if best is None or wcss < best[2]:
            best = (centroids, assign, wcss)
    return best


def indicator_matrix(assignments: np.ndarray, k: int) -> np.ndarray:
    """Normalized cluster indicator: one entry 1/sqrt(|cluster|) per row."""
    n = len(assignments)
    c = np.zeros((n, k))
    for cl in range(k):
        members = assignments == cl
        cnt = members.sum()
        if cnt:
            c[members, cl] = 1.0 / np.sqrt(cnt)
    return c


def kmeans_round(q: np.ndarray, k: int, rng: RngState, restarts: int = 10) -> ClusterIndicator:
    """Round an embedding to a hard partition and its normalized indicator."""
    q = np.asarray(q, dtype=np.float64)
    _, assignments, _ = kmeans(q, k, rng, restarts=restarts)
    return ClusterIndicator(assignments=assignments, c=indicator_matrix(assignments, k))


def clustering_accuracy(assignments: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Agreement of cluster ids with labels under the best one-to-one matching
    (Hungarian); with k unequal to the class count, unmatched nodes are wrong.
    Only labeled nodes (label >= 0) count, and there must be at least one."""
    mask = labels >= 0
    if not mask.any():
        raise ContractError("clustering accuracy needs at least one labeled node")
    a, y = assignments[mask], labels[mask]
    confusion = np.zeros((k, int(y.max()) + 1))
    np.add.at(confusion, (a, y), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / len(a))


def spectral_cluster(
    a_tilde: CsrMatrix,
    k: int,
    rng: RngState,
    tol: float = 1e-8,
    max_iter: int = 1000,
    restarts: int = 10,
) -> tuple[ClusterIndicator, EigenBasis]:
    """Full baseline: dominant eigenbasis of the operator, then k-means rounding."""
    basis = subspace_iteration(a_tilde, k, tol=tol, max_iter=max_iter, rng=rng.derive("eigs"))
    indicator = kmeans_round(basis.q, k, rng.derive("round"), restarts=restarts)
    return indicator, basis
