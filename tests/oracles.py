"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain loops or brute force, kept
separate from the library code paths it checks.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

import ncgc.numerics as nm
from ncgc.errors import ContractError
from ncgc.model import (
    _soft_orthogonal, _soft_orthogonal_vjp, backbone_propagate, load_checkpoint,
)
from ncgc.sparse import CsrMatrix
from ncgc.trainer import HyperParams


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


def appnp_propagate(s, z, alpha, hops):
    """APPNP propagation as one tape node: ``model.backbone_propagate`` forward,
    and the same recurrence with the transpose of s as its VJP."""
    cfg = HyperParams(backbone="appnp", appnp_alpha=alpha, appnp_hops=hops)
    out = nm.Tensor(backbone_propagate(s, nm._as_value(z), cfg))
    return nm._record(out, (z,), lambda g: (backbone_propagate(s.transpose(), g, cfg),))


def appnp_chain(s, z, alpha, hops):
    """APPNP propagation unrolled into primitives: sparse matmul, two scales
    and an add per hop, four tape nodes each (what ``appnp_propagate`` fuses)."""
    h = z
    for _ in range(hops):
        h = nm.add(nm.scale(nm.sparse_dense_matmul(s, h), 1.0 - alpha), nm.scale(z, alpha))
    return h


def soft_orthogonal(z, beta):
    """The correction beta * Zn (Zn^T Z) as one tape node, from the layer's
    Gram-form helpers ``model._soft_orthogonal`` and ``model._soft_orthogonal_vjp``."""
    v, beta = nm._as_value(z), float(beta)
    m, s, active = _soft_orthogonal(v, beta)
    out = nm.Tensor(v @ m)
    return nm._record(out, (z,),
                      lambda g: (_soft_orthogonal_vjp(v, m, s, active, beta, g),))


def soft_orth_chain(z, beta):
    """The soft-orthogonal correction beta * Zn (Zn^T Z) as the primitive chain
    column_l2_normalize, transpose, two matmuls and a scale, five tape nodes
    (what ``soft_orthogonal`` fuses)."""
    zn = nm.column_l2_normalize(z)
    return nm.scale(nm.matmul(zn, nm.matmul(nm.transpose(zn), z)), beta)


def sogn_chain(h, w, a_tilde, config, rng, training, activation=True):
    """``model.sogn_layer`` as the chain of tape nodes that its one node
    fuses: dropout, matmul, propagation (``sparse_dense_matmul`` or
    ``appnp_propagate``), ``soft_orthogonal``, sub and relu. Same signature,
    so it can stand in for the layer in a whole run."""
    x = nm.dropout(h, config.dropout, rng, training)
    z = nm.matmul(x, w)
    if config.backbone == "gcn":
        out = nm.sparse_dense_matmul(a_tilde, z)
    else:
        out = appnp_propagate(a_tilde, z, config.appnp_alpha, config.appnp_hops)
    if config.beta != 0.0:
        out = nm.sub(out, soft_orthogonal(z, config.beta))
    return nm.relu(out) if activation else out


def input_chain(x, w, b):
    """One ReLU affine map of ``model.input_transform`` as the chain of tape
    nodes ``nm.affine_relu`` fuses: ``sparse_dense_matmul`` for a CSR x (or
    ``matmul`` for a dense one), ``add_bias`` and ``relu``."""
    prod = nm.sparse_dense_matmul(x, w) if isinstance(x, CsrMatrix) else nm.matmul(x, w)
    return nm.relu(nm.add_bias(prod, b))


def sbm_pairs_loop(block_sizes, p_in, p_out, feature_dim, rng, feature_shift=2.0,
                   feature_noise=1.0):
    """The stochastic block model sampled pair by pair: one ``rng.uniform()``
    draw per pair i < j in row-major order, then the block means and the
    features (what ``synth.make_sbm`` draws as one vector). Returns the list of
    edges (i, j) and the feature matrix."""
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    n = len(labels)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if labels[i] == labels[j] else p_out
            if rng.uniform() < p:
                pairs.append((i, j))
    means = rng.normal((len(block_sizes), feature_dim))
    means *= feature_shift / np.maximum(np.linalg.norm(means, axis=1, keepdims=True), 1e-12)
    return pairs, means[labels] + feature_noise * rng.normal((n, feature_dim))


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


def dense_eigh_oracle(m: np.ndarray, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition by cyclic Jacobi rotations.

    Intended as a small-scale test oracle (n <= 64). Returns eigenvalues in
    ascending order and the matching orthonormal eigenvector columns, with
    residual ||MV - V diag(w)||_F below 1e-10.
    """
    a = np.array(m, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ContractError("matrix must be square")
    if n > 64:
        raise ContractError("oracle limited to n <= 64")
    if np.abs(a - a.T).max(initial=0.0) > 1e-12:
        raise ContractError("matrix must be symmetric within 1e-12")
    a = 0.5 * (a + a.T)
    v = np.eye(n)
    scale = max(np.abs(a).max(initial=0.0), 1.0)
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        off = np.linalg.norm(a[off_mask])
        if off <= 1e-14 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-16 * scale:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    w = np.diag(a).copy()
    order = np.argsort(w)
    return w[order], v[:, order]


# Two runs that differ only by floating-point rounding (another BLAS thread
# count, or a change that reorders sums) agree within
#     |a - b| <= RUN_RTOL * max(|a|, |b|, RUN_FLOOR)
# for every checkpoint weight and every float in report.json; the floor turns
# the bound into an absolute one (3e-14) for values near zero. Measured
# between 1 and 2 OpenBLAS threads on a 2-core x86 VM, with this floor: at
# most 6.5e-12 on the 8-epoch Cora shape (hidden 512, 3 layers) and 7.9e-13
# on the 8-epoch PubMed shape. A weight moved by 1e6 ulp is 1.1e-10 to
# 2.2e-10 off, well outside the bound.
RUN_RTOL = 3e-11
RUN_FLOOR = 1e-3


def _beyond_rounding(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    bound = RUN_RTOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), RUN_FLOOR)
    return ~(np.abs(a - b) <= bound)  # NaN is beyond any bound


def _json_differences(a, b, where: str, out: list) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            out.append(f"{where}: keys {sorted(a)} vs {sorted(b)}")
            return
        for k in a:
            _json_differences(a[k], b[k], f"{where}.{k}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{where}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _json_differences(x, y, f"{where}[{i}]", out)
    elif type(a) is float and type(b) is float:
        if _beyond_rounding(a, b):
            out.append(f"{where}: {a!r} vs {b!r}")
    elif type(a) is not type(b) or a != b:  # integers (epochs, counts) must be equal
        out.append(f"{where}: {a!r} vs {b!r}")


def run_differences(dir_a, dir_b) -> list[str]:
    """What two ``ncgc train`` output directories differ in beyond rounding.

    Integers in ``report.json`` (``best_epoch``, ``epochs_run``, the epoch
    numbers) must be equal; its floats and the ``checkpoint.bin`` weights must
    agree within ``RUN_RTOL``; keys, lengths, parameter names and shapes must
    match. Returns one line per difference: an empty list means the runs agree.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    out: list[str] = []
    reports = [json.loads((d / "report.json").read_text(encoding="utf-8"))
               for d in (dir_a, dir_b)]
    _json_differences(*reports, "report.json", out)
    ca, cb = (load_checkpoint(d / "checkpoint.bin") for d in (dir_a, dir_b))
    if list(ca) != list(cb):
        return out + [f"checkpoint parameters {list(ca)} vs {list(cb)}"]
    for name in ca:
        if ca[name].shape != cb[name].shape:
            out.append(f"checkpoint {name}: shape {ca[name].shape} vs {cb[name].shape}")
            continue
        bad = np.argwhere(_beyond_rounding(ca[name], cb[name]))
        if len(bad):
            i = tuple(bad[0])
            out.append(f"checkpoint {name}: {len(bad)} weights beyond rounding, first at "
                       f"{i}: {ca[name][i]!r} vs {cb[name][i]!r}")
    return out
