"""Graph operators and the spectral-clustering baseline.

Builds a three-community SBM, forms the normalized adjacency A~ (its
Laplacian is L~ = I - A~, never built), checks the Ky Fan equality on the
eigenvectors of one dense ``eigh``, and clusters the graph-filtered features
with the package's baseline.
"""

import numpy as np

from ncgc.graph import normalized_adjacency
from ncgc.rng import RngState
from ncgc.spectral import FILTER_POWER, clustering_accuracy, ratiocut_trace, spectral_cluster
from ncgc.synth import make_sbm

rng = RngState(3)
g = make_sbm([12, 12, 12], 0.5, 0.02, feature_dim=4, rng=rng)
print(f"SBM: n={g.n} m={g.m} k={g.class_count}")

a_tilde = normalized_adjacency(g)
dense = a_tilde.to_dense()
print("A~ symmetric bit for bit:", np.array_equal(dense, dense.T))

# the top eigenvectors of A~ are the bottom ones of L~, so they reach the Ky
# Fan minimum of Tr(H^T L~ H) over orthonormal H: the sum of the 3 smallest
# eigenvalues of L~; a random orthonormal H scores higher
w, v = np.linalg.eigh(dense)
top3, q = w[::-1][:3], v[:, ::-1][:, :3]
print("top-3 eigenvalues of A~:", np.round(top3, 4))
print(f"Tr(Q^T L~ Q) = {ratiocut_trace(q, a_tilde):.4f} (eigenvectors; "
      f"Ky Fan minimum {(1.0 - top3).sum():.4f})")
print(f"Tr(R^T L~ R) = {ratiocut_trace(np.linalg.qr(rng.normal((g.n, 3)))[0], a_tilde):.4f} "
      "(random)")

# the baseline: the features low-pass filtered with (I + A~)/2, the principal
# basis of the result, rounded by k-means and scored against the planted labels
assignments = spectral_cluster(a_tilde, g.features, 3, rng)
acc = clustering_accuracy(assignments, g.labels, 3)
print(f"clustering accuracy of the filtered features (p = {FILTER_POWER}): {acc:.4f}")
