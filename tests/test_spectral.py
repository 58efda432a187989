import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncgc
from ncgc.errors import ContractError, RankError
from ncgc.graph import Graph, normalized_adjacency
from ncgc.rng import RngState
from ncgc.sparse import CsrMatrix
from ncgc.spectral import (
    KMEANS_RESTARTS, clustering_accuracy, kmeans, lloyd, qr_orthonormalize, ratiocut_trace,
    spectral_cluster, subspace_iteration,
)
from ncgc.synth import make_sbm
from oracles import (
    best_partition_wcss, dense_eigh_oracle, dense_top_k_by_magnitude, edge_sum_smoothness,
    indicator_matrix, loop_free_adjacency, random_symmetric_with_gap, subspace_angle,
)


def triangle_graph():
    adj = CsrMatrix.from_coo(3, 3, [0, 1, 0, 2, 1, 2], [1, 0, 2, 0, 2, 1], np.ones(6))
    feats = np.zeros((3, 1))
    return Graph(n=3, m=3, adjacency=adj, features=CsrMatrix.from_dense(feats),
                 labels=np.full(3, -1), class_count=2)


def two_triangles():
    e = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    rows = [i for i, j in e] + [j for i, j in e]
    cols = [j for i, j in e] + [i for i, j in e]
    adj = CsrMatrix.from_coo(6, 6, rows, cols, np.ones(12))
    feats = np.zeros((6, 1))
    return Graph(n=6, m=6, adjacency=adj, features=CsrMatrix.from_dense(feats),
                 labels=np.array([0, 0, 0, 1, 1, 1]), class_count=2)


def random_symmetric_csr(n, k, rng, gap=1.2):
    return CsrMatrix.from_dense(random_symmetric_with_gap(n, k, rng, gap=gap))


# ---------------------------------------------------------------------------
# QR


def test_qr_idempotent_up_to_sign():
    for n, k in ((6, 3), (4, 4)):  # a square matrix is tall enough
        q0 = qr_orthonormalize(RngState(0).normal((n, k)))
        q1 = qr_orthonormalize(q0)
        assert np.allclose(np.abs(q1.T @ q0), np.eye(k), atol=1e-12)


def test_qr_hand_case():
    m = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    q = qr_orthonormalize(m)
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)
    # same span: first column e1, second column e2
    assert np.allclose(np.abs(q[:, 0]), [1, 0, 0], atol=1e-12)
    assert np.allclose(np.abs(q[:, 1]), [0, 1, 0], atol=1e-12)


def test_qr_duplicate_column_rank_error():
    m = RngState(1).normal((5, 1))
    with pytest.raises(RankError):
        qr_orthonormalize(np.hstack([m, m]))


def test_qr_requires_tall_matrix():
    with pytest.raises(ContractError):
        qr_orthonormalize(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Jacobi oracle


def test_jacobi_identity_and_diagonal():
    w, v = dense_eigh_oracle(np.eye(4))
    assert np.allclose(w, 1.0)
    w, v = dense_eigh_oracle(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_jacobi_triangle_spectrum():
    at = loop_free_adjacency(triangle_graph()).to_dense()
    w, _ = dense_eigh_oracle(at)
    assert np.allclose(w, [-0.5, -0.5, 1.0], atol=1e-12)


def test_jacobi_residual_and_numpy_agreement():
    for seed in range(8):
        rng = RngState(200 + seed)
        a = rng.normal((10, 10))
        a = 0.5 * (a + a.T)
        w, v = dense_eigh_oracle(a)
        assert np.linalg.norm(a @ v - v @ np.diag(w)) < 1e-10
        assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-10)


def test_jacobi_contract_errors():
    with pytest.raises(ContractError):
        dense_eigh_oracle(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ContractError):
        dense_eigh_oracle(np.zeros((65, 65)))


# ---------------------------------------------------------------------------
# subspace iteration


def test_subspace_triangle_dominant_eigenvector():
    at = loop_free_adjacency(triangle_graph())
    basis = subspace_iteration(at, 1, rng=RngState(2))
    assert basis.converged
    assert basis.ritz_values[0] == pytest.approx(1.0, abs=1e-9)
    target = np.full((3, 1), 1.0 / np.sqrt(3.0))
    assert subspace_angle(basis.q, target) < 1e-7


def test_subspace_two_components():
    at = loop_free_adjacency(two_triangles())
    basis = subspace_iteration(at, 2, rng=RngState(3))
    assert np.allclose(basis.ritz_values, [1.0, 1.0], atol=1e-8)
    ind = np.zeros((6, 2))
    ind[:3, 0] = ind[3:, 1] = 1.0 / np.sqrt(3.0)
    assert subspace_angle(basis.q, ind) < 1e-6


def test_subspace_matches_oracle_on_random_symmetric():
    for seed in range(5):
        rng = RngState(300 + seed)
        s = random_symmetric_csr(8, 3, rng)
        basis = subspace_iteration(s, 3, rng=rng.derive("init"))
        w, v = dense_top_k_by_magnitude(s.to_dense(), 3)
        order = np.argsort(-w)
        assert np.allclose(basis.ritz_values, w[order], atol=1e-6)
        assert subspace_angle(basis.q, v) < 1e-6


def test_subspace_orthonormal_and_max_iter_flag():
    rng = RngState(4)
    s = random_symmetric_csr(12, 4, rng)
    basis = subspace_iteration(s, 4, rng=rng.derive("init"))
    assert np.linalg.norm(basis.q.T @ basis.q - np.eye(4)) < 1e-8
    capped = subspace_iteration(s, 4, max_iter=1, tol=1e-16, rng=rng.derive("x"))
    assert not capped.converged
    assert capped.iterations_used == 1


def test_top_adjacency_subspace_equals_bottom_laplacian():
    # on graph operators the dominant adjacency subspace and the smallest
    # Laplacian subspace coincide, and algebraic vs magnitude order agree
    for seed in range(4):
        g = make_sbm([5, 5], 0.8, 0.1, feature_dim=2, rng=RngState(500 + seed))
        at = normalized_adjacency(g)
        basis = subspace_iteration(at, 2, rng=RngState(seed))
        w_a = np.linalg.eigvalsh(at.to_dense())
        top_alg = np.sort(w_a)[::-1][:2]
        top_mag = w_a[np.argsort(-np.abs(w_a))[:2]]
        assert np.allclose(np.sort(top_alg), np.sort(top_mag), atol=1e-12)
        lt = np.eye(g.n) - at.to_dense()
        w_l, v_l = np.linalg.eigh(lt)
        assert subspace_angle(basis.q, v_l[:, :2]) < 1e-6


def test_subspace_contract_checks():
    asym = CsrMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ContractError):
        subspace_iteration(asym, 1, rng=RngState(5))
    sym = CsrMatrix.identity(3)
    with pytest.raises(ContractError):
        subspace_iteration(sym, 4, rng=RngState(5))


# ---------------------------------------------------------------------------
# ratiocut


def test_ratiocut_disconnected_indicator_is_zero():
    g = two_triangles()
    at = loop_free_adjacency(g)
    ind = indicator_matrix(np.array([0, 0, 0, 1, 1, 1]), 2)
    assert abs(ratiocut_trace(ind, at)) < 1e-12
    assert abs(ratiocut_trace(ind, normalized_adjacency(g))) < 1e-12


def test_ratiocut_constant_scaled_by_degree_root():
    g = triangle_graph()
    at = loop_free_adjacency(g)
    # sqrt-degree-scaled constant vector is the zero-smoothness direction
    h = np.full((3, 1), np.sqrt(2.0))
    assert abs(ratiocut_trace(h, at)) < 1e-12
    ones = np.ones((3, 1))
    assert ratiocut_trace(ones, at) >= -1e-12


def test_ratiocut_shape_mismatch():
    from ncgc.errors import ShapeError
    with pytest.raises(ShapeError):
        ratiocut_trace(np.ones((4, 2)), CsrMatrix.identity(3))


def test_ratiocut_matches_edge_sum_oracle():
    for seed in range(10):
        rng = RngState(400 + seed)
        g = make_sbm([3, 3], 0.9, 0.4, feature_dim=2, rng=rng)
        at = loop_free_adjacency(g)
        h = rng.normal((g.n, 3))
        deg = g.adjacency.to_dense().sum(axis=1)
        edges = [(i, j) for i in range(g.n)
                 for j in g.adjacency.col_indices[
                     g.adjacency.row_offsets[i]:g.adjacency.row_offsets[i + 1]]
                 if i < j]
        expected = edge_sum_smoothness(h, edges, deg)
        expected += sum(float(h[i] @ h[i]) for i in range(g.n) if deg[i] == 0)
        assert abs(ratiocut_trace(h, at) - expected) < 1e-10


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_separated_clouds():
    rng = RngState(6)
    x = np.vstack([rng.normal((10, 2)) * 0.05 + [0, 0],
                   rng.normal((10, 2)) * 0.05 + [10, 10]])
    _, assignments, _ = kmeans(x, 2, rng)
    assert len(set(assignments[:10])) == 1
    assert len(set(assignments[10:])) == 1
    assert assignments[0] != assignments[10]
    assert np.bincount(assignments, minlength=2).min() > 0


def test_kmeans_identical_rows_degenerate():
    x = np.ones((6, 2))
    _, assignments, wcss = kmeans(x, 3, RngState(7))
    assert len(assignments) == 6
    # all points coincide: each emptied cluster still takes a point of its own
    assert (np.bincount(assignments, minlength=3) > 0).all()
    assert wcss == 0.0


def test_kmeans_matches_brute_force_on_8_points():
    rng = RngState(8)
    x = rng.normal((8, 2))
    assert KMEANS_RESTARTS == 10  # the restarts this bound is known to hold with
    _, _, wcss = kmeans(x, 3, rng)
    assert wcss <= best_partition_wcss(x, 3) + 1e-9


def test_lloyd_wcss_monotone():
    rng = RngState(9)
    x = rng.normal((40, 3))
    init = x[rng.choice(40, size=4, replace=False)]
    history = [lloyd(x, init, max_iter=i)[2] for i in range(1, 31)]
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-9)


def test_clustering_accuracy_hungarian():
    labels = np.array([0, 0, 1, 1, 2, 2])
    perm = np.array([2, 2, 0, 0, 1, 1])  # same partition, permuted names
    assert clustering_accuracy(perm, labels, 3) == 1.0
    noisy = perm.copy()
    noisy[0] = 1
    assert clustering_accuracy(noisy, labels, 3) == pytest.approx(5 / 6)
    many = np.arange(42) % 21
    assert clustering_accuracy((many + 5) % 21, many, 21) == 1.0
    # fewer clusters than classes: the unmatched class counts as wrong
    assert clustering_accuracy(np.array([1, 1, 0, 0, 0, 0]), labels, 2) == pytest.approx(4 / 6)
    # more clusters than classes: the unmatched cluster counts as wrong
    assert clustering_accuracy(np.array([0, 0, 1, 1, 2, 3]), labels, 4) == pytest.approx(5 / 6)


def test_clustering_accuracy_rejects_no_labeled_node():
    with pytest.raises(ContractError, match="labeled node"):
        clustering_accuracy(np.array([0, 1, 1]), np.full(3, -1), 2)
    # unlabeled nodes (-1) do not count
    assert clustering_accuracy(np.array([0, 1, 1]), np.array([-1, 0, 0]), 2) == 1.0


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    # only clustering_accuracy needs linear_sum_assignment; training must not
    # pay for scipy.optimize and what it pulls in; the child imports the same
    # ncgc as this process, from the checkout or from an installed package
    home = str(Path(ncgc.__file__).resolve().parent.parent)
    path = os.pathsep.join([home] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ncgc, ncgc.cli; sys.exit('scipy.optimize' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:] or "scipy.optimize was imported"


def test_spectral_cluster_two_components():
    g = two_triangles()
    at = normalized_adjacency(g)
    assignments, basis = spectral_cluster(at, 2, RngState(10))
    assert basis.converged
    assert clustering_accuracy(assignments, g.labels, 2) == 1.0
