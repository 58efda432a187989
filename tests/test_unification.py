"""The GNN and spectral objectives on the package's own operator.

With A~ = ``normalized_adjacency(g)`` and L~ = I - A~:

- APPNP's hops approach X_inf = alpha (I - (1 - alpha) A~)^-1 Z, the
  minimiser of ||H - Z||_F^2 + (1/alpha - 1) Tr(H^T L~ H), and a GCN hop
  A~ H = H - L~ H is a gradient step of size 1/2 on Tr(H^T L~ H) (Zhu et al.
  2021, *Interpreting and Unifying Graph Neural Networks with An
  Optimization Framework*);
- the RatioCut relaxation min Tr(H^T L~ H) over orthonormal H is the sum of
  the k smallest eigenvalues of L~, reached on their eigenvectors (Fan 1949).

Each test checks one of these through ``model.backbone_propagate`` and
``spectral.ratiocut_trace`` against a dense oracle.
"""

import numpy as np
import pytest

from ncgc.graph import normalized_adjacency
from ncgc.model import backbone_propagate
from ncgc.rng import RngState
from ncgc.spectral import ratiocut_trace
from ncgc.synth import make_sbm
from ncgc.trainer import HyperParams
from oracles import appnp_fixed_point, dense_eigh_oracle, finite_difference_grads


def _graph(seed, sizes=(6, 5, 4)):
    """A 3-block SBM sparse enough to leave isolated nodes at some seeds."""
    return make_sbm(list(sizes), 0.5, 0.05, feature_dim=2, rng=RngState(seed))


@pytest.mark.parametrize("alpha, hops", [(0.1, 1), (0.1, 10), (0.2, 4), (0.5, 3), (0.1, 300)])
def test_appnp_hops_approach_the_denoising_fixed_point(alpha, hops):
    # the error after K hops is ((1 - alpha) A~)^K (Z - X_inf), and the
    # eigenvalues of A~ lie in [-1, 1]
    cfg = HyperParams(backbone="appnp", appnp_alpha=alpha, appnp_hops=hops)
    for seed in range(4):
        g = _graph(600 + seed)
        at = normalized_adjacency(g)
        z = RngState(seed).normal((g.n, 3))
        x_inf = appnp_fixed_point(at, z, alpha)
        x_k = backbone_propagate(at, z.copy(), cfg)
        error = np.linalg.norm(x_k - x_inf)
        bound = (1.0 - alpha) ** hops * np.linalg.norm(z - x_inf)
        assert error <= bound * (1.0 + 1e-9) + 1e-12, (seed, error, bound)
        assert np.linalg.norm(z - x_inf) > 0.1  # the bound is not vacuous


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.9])
def test_appnp_fixed_point_minimises_the_denoising_objective(alpha):
    # the gradient 2 (H - Z) + 2 (1/alpha - 1) L~ H vanishes at X_inf, and
    # since the objective is strictly convex every other H scores higher
    lam = 1.0 / alpha - 1.0
    for seed in range(4):
        g = _graph(700 + seed)
        at = normalized_adjacency(g)
        rng = RngState(seed)
        z = rng.normal((g.n, 2))
        x = appnp_fixed_point(at, z, alpha)
        grad = 2.0 * (x - z) + 2.0 * lam * (x - at.matmul_dense(x))
        assert np.abs(grad).max() <= 1e-12 * max(1.0, np.abs(z).max())

        def objective(h):
            return float(((h - z) ** 2).sum()) + lam * ratiocut_trace(h, at)

        best = objective(x)
        for _ in range(5):
            e = rng.normal(x.shape)
            assert objective(x + 1e-3 * e) > best
            assert objective(x + e) > best


def test_gcn_hop_is_a_gradient_step_on_the_smoothness():
    # central differences of Tr(H^T L~ H) through ratiocut_trace give 2 L~ H,
    # so H - (1/2) grad is the GCN hop A~ H
    for seed in range(3):
        g = _graph(800 + seed, sizes=(4, 3))
        at = normalized_adjacency(g)
        h = RngState(seed).normal((g.n, 2))
        (grad,) = finite_difference_grads(lambda arrs: ratiocut_trace(arrs[0], at), [h.copy()])
        hop = backbone_propagate(at, h.copy(), HyperParams(backbone="gcn"))
        assert np.abs((h - 0.5 * grad) - hop).max() < 1e-8


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_ky_fan_bound_on_the_run_operator(k):
    # for orthonormal H, Tr(H^T L~ H) >= the sum of the k smallest eigenvalues
    # of L~ = I - A~, with equality on their eigenvectors; the eigenpairs come
    # from the cyclic-Jacobi oracle
    for seed in range(4):
        g = _graph(900 + seed)
        at = normalized_adjacency(g)
        w, v = dense_eigh_oracle(np.eye(g.n) - at.to_dense())
        floor = w[:k].sum()
        assert abs(ratiocut_trace(v[:, :k], at) - floor) < 1e-10
        rng = RngState(seed)
        for _ in range(10):
            h = np.linalg.qr(rng.normal((g.n, k)))[0]
            assert ratiocut_trace(h, at) >= floor - 1e-10
