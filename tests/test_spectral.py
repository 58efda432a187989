import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from conftest import child_pythonpath
from ncgc.errors import ContractError
from ncgc.graph import Graph, normalized_adjacency
from ncgc.rng import RngState
from ncgc.sparse import CsrMatrix
from ncgc.spectral import (
    KMEANS_RESTARTS, clustering_accuracy, kmeans, lloyd, principal_basis, ratiocut_trace,
    spectral_cluster,
)
from ncgc.synth import make_sbm
from oracles import (
    best_partition_wcss, dense_eigh_oracle, edge_sum_smoothness,
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
# principal basis


def test_subspace_triangle_dominant_eigenvector():
    # the loop-free triangle's spectrum is 1, -1/2, -1/2; its top singular
    # vector is the constant one
    at = loop_free_adjacency(triangle_graph()).to_dense()
    u = principal_basis(at, 1)
    assert (u.T @ at @ u)[0, 0] == pytest.approx(1.0, abs=1e-12)
    target = np.full((3, 1), 1.0 / np.sqrt(3.0))
    assert subspace_angle(u, target) < 1e-7


def test_subspace_two_components():
    at = loop_free_adjacency(two_triangles()).to_dense()
    u = principal_basis(at, 2)
    assert np.allclose(np.diag(u.T @ at @ u), [1.0, 1.0], atol=1e-12)
    ind = np.zeros((6, 2))
    ind[:3, 0] = ind[3:, 1] = 1.0 / np.sqrt(3.0)
    assert subspace_angle(u, ind) < 1e-6


def test_subspace_matches_oracle_on_random_symmetric():
    # for symmetric S the Gram matrix is S^2, so the basis is S's eigenvectors
    # of largest |eigenvalue|, in that order, and orthonormal
    for seed in range(5):
        rng = RngState(300 + seed)
        s = random_symmetric_with_gap(8, 3, rng)
        u = principal_basis(s, 3)
        w, v = dense_eigh_oracle(s)
        order = np.argsort(-np.abs(w))[:3]
        assert np.allclose(np.diag(u.T @ s @ u), w[order], atol=1e-10)
        assert subspace_angle(u, v[:, order]) < 1e-6
        assert np.linalg.norm(u.T @ u - np.eye(3)) < 1e-10


def test_top_adjacency_subspace_equals_bottom_laplacian():
    # on graph operators the dominant adjacency subspace and the smallest
    # Laplacian subspace coincide, and algebraic vs magnitude order agree
    for seed in range(4):
        g = make_sbm([5, 5], 0.8, 0.1, feature_dim=2, rng=RngState(500 + seed))
        at = normalized_adjacency(g)
        u = principal_basis(at.to_dense(), 2)
        w_a = np.linalg.eigvalsh(at.to_dense())
        top_alg = np.sort(w_a)[::-1][:2]
        top_mag = w_a[np.argsort(-np.abs(w_a))[:2]]
        assert np.allclose(np.sort(top_alg), np.sort(top_mag), atol=1e-12)
        lt = np.eye(g.n) - at.to_dense()
        w_l, v_l = np.linalg.eigh(lt)
        assert subspace_angle(u, v_l[:, :2]) < 1e-6


def test_principal_basis_of_zero_features_and_k_above_d():
    # all-zero columns pass the normalization unscaled, and k above d gives
    # all d columns
    assert np.array_equal(principal_basis(np.zeros((5, 3)), 2), np.zeros((5, 2)))
    x = RngState(11).normal((7, 2))
    u = principal_basis(x, 4)
    assert u.shape == (7, 2)
    assert np.allclose(u.T @ u, np.eye(2), atol=1e-12)


def test_principal_basis_of_a_wide_matrix_decomposes_its_n_x_n_gram(monkeypatch):
    # with n < d the one eigh is of X X^T, so d never sizes a Gram matrix, and
    # the basis is its top-k eigenvectors up to column sign
    x = RngState(12).normal((5, 40))
    shapes = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape) or real_eigh(m))
    u = principal_basis(x, 3)
    assert shapes == [(5, 5)]
    _, v = dense_eigh_oracle(x @ x.T)  # ascending eigenvalues
    expected = v[:, ::-1][:, :3]
    assert np.allclose(u * np.sign((u * expected).sum(axis=0)), expected, atol=1e-10)
    assert np.array_equal(principal_basis(np.zeros((3, 5)), 2), np.zeros((3, 2)))


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
    # pay for scipy.optimize and what it pulls in
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ncgc, ncgc.cli; sys.exit('scipy.optimize' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": child_pythonpath()},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:] or "scipy.optimize was imported"


def test_spectral_cluster_two_components():
    # two components, k = 2 and features with no class signal: the filter
    # averages each triangle toward its own mean, so the triangles are
    # recovered exactly
    g = two_triangles()
    at = normalized_adjacency(g)
    for seed in range(3):
        feats = CsrMatrix.from_dense(RngState(seed).normal((6, 4)))
        assignments = spectral_cluster(at, feats, 2, RngState(10))
        assert clustering_accuracy(assignments, g.labels, 2) == 1.0


def test_spectral_cluster_rounds_the_dense_filter():
    # the features filtered by the dense ((I + A~)/2)^4, the documented power,
    # give the same assignments through the same rounding
    for seed in range(4):
        g = make_sbm([8, 8, 8], 0.3, 0.1, feature_dim=5, rng=RngState(600 + seed),
                     feature_shift=1.0)
        at = normalized_adjacency(g)
        f = np.linalg.matrix_power((np.eye(g.n) + at.to_dense()) / 2, 4)
        _, expected, _ = kmeans(principal_basis(f @ g.features.to_dense(), 3), 3,
                                RngState(seed).derive("round"))
        assert np.array_equal(spectral_cluster(at, g.features, 3, RngState(seed)), expected)


def test_spectral_cluster_recovers_classes_split_over_many_components():
    # edges join only nodes of one class and are too sparse to connect it: the
    # graph has 29 to 40 components for k = 3, each of one class, and only the
    # features say which components share a class. The k dominant eigenvectors
    # of A~ are then a random mix of component indicators: clustering them
    # scored 0.400 to 0.533 (mean 0.453) on these ten graphs, where the
    # filtered features score 0.817 to 1 (mean 0.918).
    accs = []
    for seed in range(10):
        g = make_sbm([20, 20, 20], 0.05, 0.0, feature_dim=4, rng=RngState(seed),
                     feature_shift=4.0)
        assert connected_components(g.adjacency.to_dense())[0] > 3 * g.class_count
        assignments = spectral_cluster(normalized_adjacency(g), g.features, 3, RngState(1))
        accs.append(clustering_accuracy(assignments, g.labels, 3))
    assert min(accs) >= 0.75 and np.mean(accs) >= 0.85, accs


@pytest.mark.parametrize("d, k, zero", [(3, 3, True), (2, 4, False), (2, 4, True)],
                         ids=["zero-features", "k-above-d", "zero-features-k-above-d"])
def test_spectral_cluster_degenerate_features(d, k, zero):
    # deterministic assignments in [0, k), every cluster non-empty, and no
    # RuntimeWarning (pyproject.toml makes one an error)
    g = make_sbm([6, 6, 8], 0.6, 0.05, feature_dim=d, rng=RngState(12))
    feats = CsrMatrix.from_dense(np.zeros((g.n, d))) if zero else g.features
    at = normalized_adjacency(g)
    runs = [spectral_cluster(at, feats, k, RngState(4)) for _ in range(2)]
    assert runs[0].tobytes() == runs[1].tobytes()
    assert runs[0].min() >= 0 and runs[0].max() < k
    assert (np.bincount(runs[0], minlength=k) > 0).all()


def test_kmeans_ignores_the_sign_of_each_basis_column():
    # eigh fixes no sign, so negating any column of the basis must leave the
    # rounding byte-identical: squared distances and means commute with it
    g = make_sbm([10, 10, 10], 0.5, 0.02, feature_dim=5, rng=RngState(13))
    u = principal_basis(g.features.to_dense(), 3)
    _, ref, _ = kmeans(u, 3, RngState(8))
    for j in range(3):
        flipped = u.copy()
        flipped[:, j] = -flipped[:, j]
        _, assignments, _ = kmeans(flipped, 3, RngState(8))
        assert assignments.tobytes() == ref.tobytes()
