"""Spectral clustering baseline and verification targets.

The baseline is AGC's low-pass filter (Zhang et al. 2019, *Attributed Graph
Clustering via Adaptive Graph Convolution*) at a fixed power: the features are
filtered ``FILTER_POWER`` times with (I + A~)/2, the principal basis of the
filtered features comes from one LAPACK ``eigh`` of their d x d or n x n Gram
matrix, whichever is smaller, and Lloyd's algorithm with k-means++ seeding
rounds it to a hard partition.
The graph alone would not do: eigenvalue 1 of A~ has one eigenvector per
connected component, so on a graph with more components than k its dominant
eigenvectors say nothing about the classes.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .errors import ContractError, ShapeError
from .rng import RngState
from .sparse import CsrMatrix

KMEANS_RESTARTS = 10  # seeded Lloyd runs per k-means rounding
# Hops of the low-pass filter (I + A~)/2. Fixed at 4, the smallest power after
# which accuracy stopped rising on the Cora- and PubMed-shaped benchmark
# graphs (p = 0, 1, 2, 4, 8), the only graphs it was chosen on.
FILTER_POWER = 4


def principal_basis(x: np.ndarray, k: int) -> np.ndarray:
    """The top-k left singular vectors of the n x d matrix X, each column's sign
    as LAPACK returns it, from one ``eigh`` of the smaller Gram matrix: with V
    the top-k eigenvectors of X^T X (n >= d), column-normalized X V; with U
    those of X X^T (n < d), column-normalized X (X^T U), which is U. With k
    above min(n, d), min(n, d) columns are returned; a column that X maps to
    zero stays zero."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < x.shape[1]:
        _, u = np.linalg.eigh(x @ x.T)  # ascending eigenvalues
        return nm.column_l2_normalize(x @ (x.T @ u[:, ::-1][:, :k])).value
    _, v = np.linalg.eigh(x.T @ x)
    return nm.column_l2_normalize(x @ v[:, ::-1][:, :k]).value


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
    a_tilde: CsrMatrix, features: CsrMatrix, k: int, rng: RngState,
) -> np.ndarray:
    """Full baseline: the n x d ``features``, densified and filtered
    ``FILTER_POWER`` times with (I + A~)/2, their ``principal_basis`` rounded to
    hard cluster assignments by ``kmeans``. Returns the assignments."""
    x = features.to_dense()
    for _ in range(FILTER_POWER):
        x += a_tilde.matmul_dense(x)
        x *= 0.5
    _, assignments, _ = kmeans(principal_basis(x, k), k, rng.derive("round"))
    return assignments
