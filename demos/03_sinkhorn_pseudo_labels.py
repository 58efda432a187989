"""Balanced pseudo-labels via entropy-regularized transport.

Starts from deliberately imbalanced, overconfident predictions and shows how
the alternating row/column rescaling pulls cluster usage back to uniform
while the entropy knob trades sharpness against smoothness.
"""

import numpy as np

from ncgc.clustering import sinkhorn_pseudo_labels, sinkhorn_transport_plan
from ncgc.rng import RngState


def softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


rng = RngState(1)
n, k = 12, 3

# overconfident predictions that dump almost everything into cluster 0
logits = rng.normal((n, k))
logits[:, 0] += 2.5
preds = softmax(logits)
print("raw cluster usage:", np.round(preds.sum(axis=0) / n, 3))

psi = sinkhorn_pseudo_labels(preds, epsilon=0.05, iterations=50)
print("balanced usage:   ", np.round(psi.sum(axis=0) / n, 3))
print("rows are distributions:", np.abs(psi.sum(axis=1) - 1).max() < 1e-12)

# the transport plan itself sits (approximately) on the polytope
plan = sinkhorn_transport_plan(preds, epsilon=0.05, iterations=200)
print(f"plan row-sum error:    {np.abs(plan.sum(1) - 1 / n).max():.2e}")
print(f"plan column-sum error: {np.abs(plan.sum(0) - 1 / k).max():.2e}")

# epsilon controls the sharpness of the targets
print("\n  epsilon   mean row entropy (log k = %.3f)" % np.log(k))
for eps in (0.01, 0.04, 0.1, 1.0):
    p = sinkhorn_pseudo_labels(preds, eps, 100)
    ent = float(-(p * np.log(p + 1e-300)).sum(axis=1).mean())
    print(f"  {eps:7.2f}   {ent:.4f}")

# the log-domain solver survives a regime where exp(psi/eps) would overflow
tiny = sinkhorn_pseudo_labels(softmax(rng.normal((n, k)) * 30), 0.003, 5)
print("tiny-epsilon run finite:", np.isfinite(tiny).all())
