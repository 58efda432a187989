"""Semi-supervised node classification with self-supervised graph clustering.

The package layers a soft-orthogonal message-passing model, deep embedded
clustering signals, and Sinkhorn-balanced pseudo-labels on top of a small
tape-based reverse-mode numpy core, plus a spectral-clustering baseline on
graph-filtered features.
"""
