"""Spectral clustering baseline and verification targets.

Subspace iteration with QR orthonormalization approximates the invariant
subspace of the k largest-magnitude eigenvalues of a symmetric operator;
Lloyd's algorithm with k-means++ seeding rounds the basis to a hard
partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError, RankError, ShapeError
from .rng import RngState
from .sparse import CsrMatrix

KMEANS_RESTARTS = 10  # seeded Lloyd runs per k-means rounding


@dataclass(frozen=True)
class EigenBasis:
    """Orthonormal basis q (n x k) with Ritz values sorted descending."""

    q: np.ndarray
    ritz_values: np.ndarray
    iterations_used: int
    converged: bool


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
    rng: RngState,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> EigenBasis:
    """Block power iteration from a Gaussian start drawn from ``rng`` toward
    the dominant invariant subspace.

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


def ratiocut_trace(h: np.ndarray, a_tilde: CsrMatrix) -> float:
    """Tr(H^T L~ H) with L~ = I - A~, the graph smoothness of the columns of H,
    summed as Tr(H^T (H - A~ H)) so that L~ is never built."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape[0] != a_tilde.rows:
        raise ShapeError(f"H has {h.shape[0]} rows but the operator has {a_tilde.rows}")
    return float((h * (h - a_tilde.matmul_dense(h))).sum())


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


def lloyd(
    x: np.ndarray,
    centroids: np.ndarray,
    max_iter: int = 300,
):
    """Lloyd iterations until the assignment is a fixed point.

    An emptied cluster is reseeded at the point farthest from its centroid in a
    cluster with a member to spare, so no cluster stays empty when n >= k.
    Returns (centroids, assignments, wcss).
    """
    centroids = np.array(centroids, dtype=np.float64)
    k = centroids.shape[0]
    assignments = np.full(x.shape[0], -1, dtype=np.int64)
    for _ in range(max_iter):
        d = nm.sqdist(x, centroids)
        new_assign = d.argmin(axis=1)
        point_cost = d[np.arange(x.shape[0]), new_assign]
        sizes = np.bincount(new_assign, minlength=k)
        for c in np.flatnonzero(sizes == 0):
            # costs are >= 0, so -1 rules out the last member of a cluster
            far = int(np.where(sizes[new_assign] > 1, point_cost, -1.0).argmax())
            sizes[new_assign[far]] -= 1
            sizes[c] = 1
            new_assign[far] = c
            centroids[c] = x[far]
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for c in range(k):
            members = x[assignments == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    wcss = float(nm.sqdist(x, centroids)[np.arange(x.shape[0]), assignments].sum())
    return centroids, assignments, wcss


def kmeans(x: np.ndarray, k: int, rng: RngState):
    """Best of ``KMEANS_RESTARTS`` seeded Lloyd runs by WCSS; ties keep the
    earliest restart."""
    best = None
    for _ in range(KMEANS_RESTARTS):
        init = kmeans_pp_init(x, k, rng)
        centroids, assign, wcss = lloyd(x, init)
        if best is None or wcss < best[2]:
            best = (centroids, assign, wcss)
    return best


def clustering_accuracy(assignments: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Agreement of cluster ids with labels under the best one-to-one matching
    (Hungarian); with k unequal to the class count, unmatched nodes are wrong.
    Only labeled nodes (label >= 0) count, and there must be at least one."""
    mask = labels >= 0
    if not mask.any():
        raise ContractError("clustering accuracy needs at least one labeled node")
    # imported here: scipy.optimize adds about 27 MiB to every process that imports ncgc
    from scipy.optimize import linear_sum_assignment

    a, y = assignments[mask], labels[mask]
    confusion = np.zeros((k, int(y.max()) + 1))
    np.add.at(confusion, (a, y), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / len(a))


def spectral_cluster(
    a_tilde: CsrMatrix, k: int, rng: RngState,
) -> tuple[np.ndarray, EigenBasis]:
    """Full baseline: dominant eigenbasis of the operator at ``subspace_iteration``'s
    default tolerance and iteration cap, rounded to hard cluster assignments by
    ``kmeans``. Returns the assignments and the basis."""
    basis = subspace_iteration(a_tilde, k, rng.derive("eigs"))
    _, assignments, _ = kmeans(basis.q, k, rng.derive("round"))
    return assignments, basis
