"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain loops or brute force, kept
separate from the library code paths it checks.
"""

from __future__ import annotations

import itertools

import numpy as np

from ncgc.sparse import CsrMatrix


def loop_matmul(a, b):
    a, b = np.asarray(a), np.asarray(b)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def finite_difference_grads(f, arrays, step=1e-5):
    """Central finite differences of scalar f(list of arrays) w.r.t. every entry."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        for idx in np.ndindex(a.shape):
            orig = a[idx]
            a[idx] = orig + step
            fp = f(arrays)
            a[idx] = orig - step
            fm = f(arrays)
            a[idx] = orig
            g[idx] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads


def rel_error(a, b, floor=1e-6):
    a, b = np.asarray(a), np.asarray(b)
    denom = max(floor, np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return np.abs(a - b).max(initial=0.0) / denom


def loop_soc_penalty(h):
    """||H^T H - I||_F^2 by explicit loops."""
    h = np.asarray(h)
    d = h.shape[1]
    acc = 0.0
    for i in range(d):
        for j in range(d):
            dot = 0.0
            for r in range(h.shape[0]):
                dot += h[r, i] * h[r, j]
            target = 1.0 if i == j else 0.0
            acc += (dot - target) ** 2
    return acc


def loop_target_distribution(q):
    q = np.asarray(q)
    n, k = q.shape
    f = [sum(q[j, c] for j in range(n)) for c in range(k)]
    p = np.zeros_like(q)
    for i in range(n):
        denom = sum(q[i, c] ** 2 / f[c] for c in range(k))
        for c in range(k):
            p[i, c] = (q[i, c] ** 2 / f[c]) / denom
    return p


def loop_kl(p, q, rows):
    """Sum over given rows of sum_k p log(p/q), mean-reduced over rows."""
    acc = 0.0
    for i in rows:
        for c in range(p.shape[1]):
            if p[i, c] > 0:
                acc += p[i, c] * (np.log(p[i, c]) - np.log(q[i, c]))
    return acc / len(rows)


def loop_cross_entropy(targets, preds):
    """-mean_i sum_k t_ik log(pred_ik)."""
    acc = 0.0
    n = targets.shape[0]
    for i in range(n):
        for c in range(targets.shape[1]):
            if targets[i, c] != 0.0:
                acc -= targets[i, c] * np.log(preds[i, c])
    return acc / n


def loop_label_cross_entropy(y_prime, labels, rows):
    acc = 0.0
    for i in rows:
        acc -= np.log(y_prime[i, labels[i]])
    return acc / len(rows)


def sinkhorn_loop(psi_prime, eps, iters):
    """Straight-loop alternating rescale of exp(psi_prime/eps); final exact row normalize.

    One iteration is a row pass (row sums -> 1/n) followed by a column pass
    (column sums -> 1/K), scalings applied sequentially.
    """
    psi = np.exp(np.asarray(psi_prime, dtype=np.float64) / eps)
    n, k = psi.shape
    for _ in range(iters):
        for i in range(n):
            s = psi[i].sum()
            for c in range(k):
                psi[i, c] *= (1.0 / n) / s
        for c in range(k):
            s = psi[:, c].sum()
            for i in range(n):
                psi[i, c] *= (1.0 / k) / s
    for i in range(n):
        psi[i] /= psi[i].sum()
    return psi


def best_partition_wcss(points, k):
    """Exhaustive minimum within-cluster sum of squares over all k-assignments."""
    points = np.asarray(points)
    n = points.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        assign = np.asarray(assign)
        wcss = 0.0
        for c in range(k):
            members = points[assign == c]
            if len(members) == 0:
                continue
            centroid = members.mean(axis=0)
            wcss += ((members - centroid) ** 2).sum()
        best = min(best, wcss)
    return best


def edge_sum_smoothness(h, edges, degrees):
    """Sum over undirected edges of ||h_i/sqrt(d_i) - h_j/sqrt(d_j)||^2.

    Equals Tr(H^T L~ H) up to the ||H_i||^2 contribution of isolated nodes,
    which the caller adds when a fixture contains any.
    """
    h = np.asarray(h)
    acc = 0.0
    for i, j in edges:
        diff = h[i] / np.sqrt(degrees[i]) - h[j] / np.sqrt(degrees[j])
        acc += float(diff @ diff)
    return acc


def random_symmetric_with_gap(n, k, rng, gap=1.2):
    """Random symmetric matrix whose top-k magnitude eigenvalues are separated.

    The spectrum (magnitudes and signs) is random but a relative gap of at
    least ``gap`` is enforced at and above position k, so block power
    iterations can meet tight tolerances within a bounded iteration budget.
    """
    mags = np.sort(rng.uniform((n,), 0.1, 1.0))[::-1]
    for i in range(1, n):
        mags[i] = min(mags[i], mags[i - 1] / (gap if i <= k else 1.0))
    signs = np.where(rng.uniform((n,)) < 0.5, -1.0, 1.0)
    q = np.linalg.qr(rng.normal((n, n)))[0]
    return q @ np.diag(mags * signs) @ q.T


def dense_top_k_by_magnitude(a, k):
    """Top-k eigenpairs of a symmetric matrix by |eigenvalue| via numpy."""
    w, v = np.linalg.eigh(np.asarray(a))
    order = np.argsort(-np.abs(w))[:k]
    return w[order], v[:, order]


def subspace_angle(q, v):
    """Sine of the largest principal angle between the column spans of q and v."""
    su = np.linalg.svd(np.asarray(q).T @ np.asarray(v), compute_uv=False)
    return float(np.sqrt(max(0.0, 1.0 - min(su) ** 2)))


def transition_matrix(g, add_self_loops: bool = False):
    """Row-stochastic D^-1 A as a CsrMatrix (rows of isolated nodes stay zero)."""
    a = g.adjacency
    if add_self_loops:
        a = a.add(CsrMatrix.identity(g.n))
    deg = a.matmul_dense(np.ones((g.n, 1)))[:, 0]
    dinv = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
    return a.scale_rows(dinv)
