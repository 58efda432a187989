"""Tour of the numerics core: tensors, the tape, gradients, and Adam.

Every model in this package is built from the handful of primitives shown
here. The demo records a small classifier built from the ops training uses
(a fused affine + ReLU layer, a linear head, log-softmax and the mean
cross-entropy), pulls gradients off the tape, confirms one of them against
central finite differences, and runs a few Adam steps on the toy problem.
"""

import numpy as np

import ncgc.numerics as nm
from ncgc.clustering import mean_cross_entropy
from ncgc.rng import RngState

rng = RngState(0)

# --- record a computation on a tape ---------------------------------------
x = rng.normal((8, 3))
targets = np.eye(2)[(x[:, 0] > 0).astype(int)]  # one-hot class of each row
w = nm.Parameter(rng.normal((3, 4)), name="w")
b = nm.Parameter(np.zeros((1, 4)), name="b")
w_out = nm.Parameter(rng.normal((4, 2)), name="w_out")


def loss_fn():
    """Mean cross-entropy of the one-hidden-layer classifier on ``targets``."""
    logits = nm.matmul(nm.affine_relu(x, w, b), w_out)
    return mean_cross_entropy(nm.log_softmax_rows(logits), targets)


tape = nm.Tape()
with tape:
    loss = loss_fn()
print(f"loss = {loss.item():.6f} (tape recorded {len(tape)} ops)")

grads = nm.backward(tape, loss)  # {parameter: gradient} for each one the loss reaches
print("dL/dw:\n", grads[w])

# --- sanity: finite differences agree --------------------------------------
step = 1e-5
fd = np.zeros_like(w.value)
for idx in np.ndindex(w.value.shape):
    orig = w.value[idx]
    for sign in (+1, -1):
        w.value[idx] = orig + sign * step
        fd[idx] += sign * loss_fn().item() / (2 * step)
    w.value[idx] = orig
print(f"max |tape grad - finite diff| = {np.abs(grads[w] - fd).max():.2e}")

# --- a few Adam steps -------------------------------------------------------
params = [w, b, w_out]
state = nm.AdamState()  # moments are created per parameter on its first step
for it in range(200):
    tape = nm.Tape()
    with tape:
        loss = loss_fn()
    nm.adam_step(params, nm.backward(tape, loss), state, lr=0.05, weight_decay=0.0)
    if it % 50 == 0 or it == 199:
        print(f"step {it:3d}  loss = {loss.item():.6f}")

# --- the probability toolbox ------------------------------------------------
logits = nm.Tensor([[2.0, 0.0, -1.0]])
probs = nm.softmax_rows(logits)
print("softmax:", np.round(probs.value, 5))
print("log-softmax (stable):", np.round(nm.log_softmax_rows(logits).value, 5))
