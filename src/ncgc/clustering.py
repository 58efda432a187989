"""Self-supervised clustering signals, as plain values.

The centroids are one ``(K, d)`` ``Parameter`` named ``"centroids"``; soft
assignments follow a Student's-t kernel around them. The sharpened target
distribution and the balanced ``(n, K)`` pseudo-labels are plain numpy
arrays, never tape tensors, so no gradient can reach the target branch by
construction, and ``pseudo_label_loss`` rejects a ``Tensor`` target. The
Sinkhorn normalization runs in the log domain, since small epsilon with
confident predictions overflows the direct exponential; with zero iterations
it is a row softmax of psi/epsilon, sharpened but not balanced.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .errors import ContractError, ParameterError, ShapeError
from .rng import RngState
from .spectral import kmeans_pp_init, lloyd

LLOYD_ITERS = 20


def soft_assign(h, centroids):
    """Row-stochastic Student's-t similarities between embeddings and centroids.

    Q_ik = (1 + ||h_i - c_k||^2)^-1, normalized per row; differentiable in
    both the embeddings and the centroids.
    """
    d = nm.pairwise_sqdist(h, centroids)
    return nm.row_normalize(nm.reciprocal(nm.add_scalar(d, 1.0)))


def target_distribution(q: np.ndarray) -> np.ndarray:
    """Sharpened target: square the assignments, normalize by cluster frequency.

    Operates on and returns plain arrays; the result is meant to be held
    fixed for an epoch.
    """
    q = np.asarray(q, dtype=np.float64)
    freq = q.sum(axis=0, keepdims=True)
    w = (q * q) / freq
    return w / w.sum(axis=1, keepdims=True)


def mean_cross_entropy(log_p, targets: np.ndarray) -> "nm.Tensor":
    """Mean over rows of -sum_k targets * log_p, the targets a fixed plain array."""
    return nm.scale(nm.sum_all(nm.mul(log_p, targets)), -1.0 / targets.shape[0])


def kl_loss(p: np.ndarray, q, scope) -> "nm.Tensor":
    """Mean over ``scope`` rows of KL(p_i || q_i); gradients flow into q only."""
    scope = np.asarray(scope, dtype=np.int64)
    if scope.size == 0:
        raise ContractError("empty scope for the divergence")
    p = np.asarray(p, dtype=np.float64)
    p_s = p[scope]
    log_q = nm.log_elementwise(nm.take_rows(q, scope))
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p_s > 0, p_s * np.log(np.where(p_s > 0, p_s, 1.0)), 0.0).sum()
    return nm.add_scalar(mean_cross_entropy(log_q, p_s), plogp / len(scope))


def _check_sinkhorn_args(psi_prime, epsilon: float, iterations: int) -> np.ndarray:
    if isinstance(psi_prime, nm.Tensor):
        raise ContractError("sinkhorn input must be detached (a plain array)")
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if iterations < 0:
        raise ParameterError(f"iterations must be non-negative, got {iterations}")
    psi = np.asarray(psi_prime, dtype=np.float64)
    if psi.ndim != 2:
        raise ShapeError("predictions must be a 2-D matrix")
    return psi


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, shifted by the maximum so exp cannot overflow."""
    m = a.max(axis=axis)
    return m + np.log(np.exp(a - np.expand_dims(m, axis)).sum(axis=axis))


def sinkhorn_transport_plan(
    psi_prime: np.ndarray,
    epsilon: float,
    iterations: int,
) -> np.ndarray:
    """Approximate projection of exp(psi_prime/eps) onto the transport polytope.

    Runs ``iterations`` alternating rescale passes toward uniform marginals,
    a row pass (row sums 1/n) followed by a column pass (column sums 1/K)
    each time; zero iterations is one row pass alone, with no balancing.
    Returns the plan itself, before any per-row rescaling.
    """
    psi = _check_sinkhorn_args(psi_prime, epsilon, iterations)
    n, k = psi.shape
    log_k = psi / epsilon
    la, lb = -np.log(n), -np.log(k)
    u = la - _logsumexp(log_k, axis=1) if iterations == 0 else np.zeros(n)
    v = np.zeros(k)
    for _ in range(iterations):
        u = la - _logsumexp(log_k + v[None, :], axis=1)
        v = lb - _logsumexp(log_k + u[:, None], axis=0)
    return np.exp(log_k + u[:, None] + v[None, :])


def sinkhorn_pseudo_labels(
    psi_prime: np.ndarray,
    epsilon: float,
    iterations: int,
) -> np.ndarray:
    """Balanced pseudo-labels: Sinkhorn plan rescaled so every row is a distribution.

    The final row rescale makes each row an exact probability vector (at
    convergence this coincides with multiplying the plan by n). Zero
    iterations gives each row softmax(psi_prime/eps): sharpened, not balanced.
    """
    plan = sinkhorn_transport_plan(psi_prime, epsilon, iterations)
    return plan / plan.sum(axis=1, keepdims=True)


def pseudo_label_loss(targets: np.ndarray, live_logits) -> "nm.Tensor":
    """Cross-entropy of the softmax of live logits against fixed pseudo-label targets.

    ``targets`` is a non-negative plain array (detached: a ``Tensor`` is
    rejected); ``live_logits`` are the prototype-head logits of the unlabeled
    rows, and the log-probabilities come from their row-wise log-softmax.
    Mean-reduced over those rows; gradients flow only into the prediction
    branch.
    """
    if isinstance(targets, nm.Tensor):
        raise ContractError("pseudo-label targets must be detached (a plain array)")
    if (targets < 0).any():
        raise ContractError("pseudo-labels must be non-negative")
    if targets.shape != live_logits.value.shape:
        raise ShapeError(
            f"targets {targets.shape} vs predictions {live_logits.value.shape}")
    return mean_cross_entropy(nm.log_softmax_rows(live_logits), targets)


def init_centroids(h: np.ndarray, k: int, rng: RngState) -> nm.Parameter:
    """The ``(k, d)`` parameter named ``"centroids"``, seeded on the embeddings.

    Seeding is k-means++ followed by ``LLOYD_ITERS`` Lloyd refinements. With
    fewer than k distinct rows, k-means++ draws uniformly once no row is away
    from a seed, and Lloyd reseeds each cluster left empty at a data point.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape[0] < k:
        raise ContractError(f"need at least k={k} rows, got {h.shape[0]}")
    centroids, _, _ = lloyd(h, kmeans_pp_init(h, k, rng), max_iter=LLOYD_ITERS)
    return nm.Parameter(centroids, name="centroids")
