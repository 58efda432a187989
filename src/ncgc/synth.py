"""Synthetic stochastic block model graphs for demos and tests."""

from __future__ import annotations

import numpy as np

from .graph import Graph, _symmetrize
from .rng import RngState
from .sparse import CsrMatrix


def make_sbm(
    block_sizes,
    p_in: float,
    p_out: float,
    feature_dim: int,
    rng: RngState,
    feature_shift: float = 2.0,
    feature_noise: float = 1.0,
    name: str = "sbm",
) -> Graph:
    """Sample a stochastic block model with Gaussian block-mean features.

    Nodes in block b get label b and features drawn around a block-specific
    mean vector, so classes are separable both structurally and by attribute
    when ``p_in >> p_out`` and ``feature_shift`` is large.
    """
    block_sizes = list(block_sizes)
    k = len(block_sizes)
    n = sum(block_sizes)
    labels = np.concatenate([np.full(s, b, dtype=np.int64) for b, s in enumerate(block_sizes)])

    # one uniform draw per pair i < j, in row-major order
    i, j = np.triu_indices(n, 1)
    keep = rng.uniform(i.size) < np.where(labels[i] == labels[j], p_in, p_out)
    edges = np.column_stack((i[keep], j[keep]))
    adjacency = _symmetrize(n, edges)

    means = rng.normal((k, feature_dim))
    means *= feature_shift / np.maximum(np.linalg.norm(means, axis=1, keepdims=True), 1e-12)
    feats = means[labels] + feature_noise * rng.normal((n, feature_dim))

    return Graph(n=n, m=len(edges), adjacency=adjacency, features=CsrMatrix.from_dense(feats),
                 labels=labels, class_count=k, name=name)
