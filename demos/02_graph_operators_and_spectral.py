"""Graph operators and the spectral-clustering baseline.

Builds a three-community SBM, forms the normalized adjacency A~ (its
Laplacian is L~ = I - A~, never built), runs subspace iteration toward the
dominant eigenbasis, cross-checks it against a dense eigendecomposition, and
rounds the basis to clusters.
"""

import numpy as np

from ncgc.graph import normalized_adjacency
from ncgc.rng import RngState
from ncgc.spectral import (
    clustering_accuracy, kmeans, ratiocut_trace, subspace_iteration,
)
from ncgc.synth import make_sbm

rng = RngState(3)
g = make_sbm([12, 12, 12], 0.5, 0.02, feature_dim=4, rng=rng)
print(f"SBM: n={g.n} m={g.m} k={g.class_count}")

a_tilde = normalized_adjacency(g)
print("A~ symmetric bit for bit:", a_tilde.is_symmetric())

# dominant invariant subspace by block power iteration
basis = subspace_iteration(a_tilde, k=3, rng=rng.derive("eigs"))
print(f"subspace iteration: converged={basis.converged} in "
      f"{basis.iterations_used} iterations, ritz values {np.round(basis.ritz_values, 4)}")

# a dense eigendecomposition agrees
w, v = np.linalg.eigh(a_tilde.to_dense())
top3 = np.sort(w)[::-1][:3]
print("dense top-3 eigenvalues:", np.round(top3, 4))
print(f"max |ritz - dense| = {np.abs(basis.ritz_values - top3).max():.2e}")

# smoothness of the basis vs a random matrix of the same shape: the top
# eigenvectors of A~ are the bottom ones of L~, so the basis reaches the
# Ky Fan minimum, the sum of the 3 smallest eigenvalues of L~
print(f"Tr(Q^T L~ Q) = {ratiocut_trace(basis.q, a_tilde):.4f} (eigenbasis; "
      f"Ky Fan minimum {(1.0 - top3).sum():.4f})")
print(f"Tr(R^T L~ R) = {ratiocut_trace(np.linalg.qr(rng.normal((g.n, 3)))[0], a_tilde):.4f} "
      "(random)")

# round to a hard partition and score it against the planted labels
_, assignments, _ = kmeans(basis.q, 3, rng.derive("round"))
acc = clustering_accuracy(assignments, g.labels, 3)
print(f"clustering accuracy after k-means rounding: {acc:.4f}")
