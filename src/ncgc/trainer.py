"""Multi-task training loop.

Joins supervised classification on the labeled nodes with self-supervised
clustering on everything else: after a classification-only warmup, each epoch
refreshes the sharpened target distribution and the balanced pseudo-labels
from the current predictions (both detached), assembles the weighted total
loss, and takes one Adam step. Model selection is the checkpoint at the best
validation accuracy; training stops early after ``patience`` epochs without
improvement.

A run is its graph, its split and its ``HyperParams``: ``train`` builds the
normalized adjacency (with or without self-loops, as ``hp.self_loops`` says)
itself; the model takes ``Graph.features`` as it is. Its ``ModelParams`` carry
every trainable parameter, the centroids included once seeded, so one snapshot
and one restore of ``named_values()`` select the best-validation checkpoint.
``predict`` is the one evaluation-mode pass.

``HyperParams`` is the one configuration of a run, model settings and
ablation switches included: its constructor rejects every out-of-range value,
and the same object is passed whole from the CLI down to each model layer.
Each ablation variant is a set of field overrides (``VARIANTS``), so
``ablate`` and ``sweep`` both run one ``HyperParams`` per row.
``sinkhorn=False``, the paper's "w/o SKN", feeds the detached predictions
back as the pseudo-label targets in place of their Sinkhorn balancing.

Independent random streams are derived per consumer (init, dropout,
centroids), so switching a clustering component on or off never perturbs the
draws seen by the rest of the run; with both loss weights at zero and beta
zero the loop is exactly a plain-backbone classifier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .clustering import (
    init_centroids, kl_loss, mean_cross_entropy, pseudo_label_loss, sinkhorn_pseudo_labels,
    soft_assign, target_distribution,
)
from .errors import ContractError, NumericError, ParameterError
from .graph import Graph, Split, make_split, normalized_adjacency
from .model import BACKBONES, ModelParams, forward, init_params, soc_penalty
from .rng import RngState

# ablation variant -> the HyperParams fields it overrides. no_skn trains like
# no_pl up to rounding: its targets are the live softmax of the same forward,
# so the pseudo-label gradient (softmax minus target) vanishes and only the
# logged l_pl differs (demo 04: both 0.6889 +/- 0.0852)
VARIANTS = {"full": {}, "no_soc": {"beta": 0.0}, "no_kl": {"lambda_kl": 0.0},
            "no_pl": {"lambda_pl": 0.0}, "no_skn": {"sinkhorn": False}}


@dataclass(frozen=True)
class HyperParams:
    seed: int = 0
    backbone: str = "gcn"
    layers: int = 2
    hidden_dim: int = 64
    beta: float = 0.005
    epsilon: float = 0.04
    sinkhorn_t: int = 3
    lr: float = 0.001
    weight_decay: float = 5e-4
    dropout: float = 0.5
    epochs: int = 1000
    patience: int = 100
    warmup_epochs: int = 20
    lambda_kl: float = 1.0
    lambda_pl: float = 1.0
    kl_scope: str = "all"  # all | unlabeled
    self_loops: bool = True
    appnp_alpha: float = 0.1
    appnp_hops: int = 10
    input_transform: str = "auto"  # auto | linear | mlp
    sinkhorn: bool = True  # False: the detached predictions are the pseudo-labels

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.patience < 1:
            raise ParameterError("patience must be at least 1")
        if self.patience > self.epochs:
            raise ParameterError("patience must not exceed epochs")
        if self.lambda_kl < 0 or self.lambda_pl < 0:
            raise ParameterError("loss weights must be non-negative")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ParameterError("warmup_epochs must lie in [0, epochs)")
        if self.kl_scope not in ("all", "unlabeled"):
            raise ParameterError(f"unknown kl_scope {self.kl_scope!r}")
        if self.epsilon <= 0:
            raise ParameterError("epsilon must be positive")
        if self.sinkhorn_t < 1:
            raise ParameterError("need at least one sinkhorn iteration")
        if self.lr <= 0:
            raise ParameterError("lr must be positive")
        if self.weight_decay < 0:
            raise ParameterError("weight_decay must be non-negative")
        if self.backbone not in BACKBONES:
            raise ParameterError(f"unknown backbone {self.backbone!r}")
        if self.layers < 1:
            raise ParameterError("need at least one layer")
        if self.hidden_dim < 2:
            raise ParameterError("hidden_dim must be at least 2")
        if self.beta < 0:
            raise ParameterError("beta must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError("dropout must lie in [0, 1)")
        if not 0.0 < self.appnp_alpha <= 1.0:
            raise ParameterError("appnp_alpha must lie in (0, 1]")
        if self.appnp_hops < 1:
            raise ParameterError("appnp_hops must be at least 1")
        if self.input_transform not in ("auto", "linear", "mlp"):
            raise ParameterError(f"unknown input transform {self.input_transform!r}")

    def resolved_input_transform(self) -> str:
        if self.input_transform != "auto":
            return self.input_transform
        return "linear" if self.layers <= 3 else "mlp"


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    l_class: float
    l_kl: float
    l_pl: float
    total: float
    val_acc: float
    test_acc: float
    soc: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = -1.0
    test_at_best_val: float = 0.0
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        """Stable serialization; the volatile wall time is excluded."""
        return {
            "summary": {
                "best_epoch": self.best_epoch,
                "best_val": self.best_val,
                "test_at_best_val": self.test_at_best_val,
                "epochs_run": len(self.epochs),
            },
            "epochs": [vars(r) for r in self.epochs],
        }


def class_loss(logits, labels, train_idx) -> "nm.Tensor":
    """Mean cross-entropy of softmax(logits) against ground-truth labels, via log-softmax."""
    train_idx = np.asarray(train_idx, dtype=np.int64)
    if train_idx.size == 0:
        raise ContractError("empty training index set")
    labels = np.asarray(labels)
    picked = labels[train_idx]
    k = logits.value.shape[1]
    if picked.min() < 0 or picked.max() >= k:
        raise ContractError("label out of range [0, K) in the training set")
    one_hot = np.zeros((len(train_idx), k))
    one_hot[np.arange(len(train_idx)), picked] = 1.0
    return mean_cross_entropy(nm.take_rows(nm.log_softmax_rows(logits), train_idx), one_hot)


def total_loss(l_class, l_kl, l_pl, hp: HyperParams, in_warmup: bool) -> "nm.Tensor":
    """Weighted sum of the loss components; clustering terms vanish in warmup."""
    total = l_class
    if in_warmup:
        return total
    if l_kl is not None and hp.lambda_kl > 0:
        total = nm.add(total, nm.scale(l_kl, hp.lambda_kl))
    if l_pl is not None and hp.lambda_pl > 0:
        total = nm.add(total, nm.scale(l_pl, hp.lambda_pl))
    return total


def predict(x, a_tilde, params: ModelParams, hp: HyperParams) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation-mode forward (no dropout): the embedding H and the predictions Y'.

    ``x`` is the CSR feature matrix ``Graph.features``; Y' is the row-wise
    softmax of the logits. Both are plain arrays.
    """
    h, logits = forward(x, a_tilde, params, hp, RngState(0), training=False)
    return h.value, nm.softmax_rows(logits.value).value


def accuracy(y_values: np.ndarray, labels, idx) -> float:
    """Share of ``idx`` whose argmax over ``y_values`` rows equals the label."""
    idx = np.asarray(idx, dtype=np.int64)
    preds = y_values[idx].argmax(axis=1)
    return float((preds == np.asarray(labels)[idx]).mean())


def train(g: Graph, split: Split,
          hp: HyperParams) -> tuple[ModelParams, nm.Parameter | None, TrainReport]:
    """Run one seeded training job and return the best-validation checkpoint.

    Returns ``(params, params.centroids, report)``: the parameters at the best
    validation epoch, their centroids (None when the KL loss never ran; when
    the best epoch comes before the centroids are seeded, they keep their last
    values) and the per-epoch report. A split that names a node outside the
    graph or an unlabeled one is a ``SplitError`` (``Split.check``).
    """
    split.check(g)
    t0 = time.perf_counter()
    rng = RngState(hp.seed)
    params = init_params(hp, g.feature_dim, g.class_count, rng.derive("init"))
    drop_rng = rng.derive("dropout")
    centroid_rng = rng.derive("centroids")

    adam = nm.AdamState()
    clustering_wanted = hp.lambda_kl > 0 or hp.lambda_pl > 0
    # both operands are distinct (a Split is disjoint), so no np.unique pass is needed
    u_idx = np.setdiff1d(np.arange(g.n), split.train_idx, assume_unique=True)
    kl_scope_idx = np.arange(g.n) if hp.kl_scope == "all" else u_idx

    report = TrainReport()
    best_values: dict[str, np.ndarray] = {}
    since_improve = 0
    a_tilde = normalized_adjacency(g, add_self_loops=hp.self_loops)

    # The two passes of an epoch are functions so that their n x d arrays
    # (the embedding and logits, then the eval-mode ones) die when they
    # return: before backward, and before the next epoch's step.
    def losses(in_warmup: bool, clustering_on: bool):
        """The training forward on the active tape: the total and its components."""
        l_kl = l_pl = None
        h, logits = forward(g.features, a_tilde, params, hp, drop_rng, training=True)
        l_class = class_loss(logits, g.labels, split.train_idx)
        if clustering_on:
            if hp.lambda_kl > 0:
                q = soft_assign(h, params.centroids)
                p_target = target_distribution(q.value)
                l_kl = kl_loss(p_target, q, kl_scope_idx)
            if hp.lambda_pl > 0:
                psi_detached = nm.softmax_rows(logits.value).value[u_idx]
                psi = (sinkhorn_pseudo_labels(psi_detached, hp.epsilon, hp.sinkhorn_t)
                       if hp.sinkhorn else psi_detached)
                l_pl = pseudo_label_loss(psi, nm.take_rows(logits, u_idx))
        return total_loss(l_class, l_kl, l_pl, hp, in_warmup), l_class, l_kl, l_pl

    def evaluation(keep_embedding: bool):
        """Validation and test accuracy, and the soc penalty, of the eval-mode pass,
        and its embedding when ``keep_embedding`` (else None)."""
        h_ev, y_ev = predict(g.features, a_tilde, params, hp)
        return (accuracy(y_ev, g.labels, split.val_idx),
                accuracy(y_ev, g.labels, split.test_idx),
                soc_penalty(nm.column_l2_normalize(h_ev).value),
                h_ev if keep_embedding else None)

    # The centroids are seeded on the eval embedding at the first clustering
    # epoch. The previous epoch's eval pass ran with exactly these parameters,
    # so its embedding is kept across that one epoch boundary and never through
    # a training step; with no warmup there is no previous pass.
    seed_epoch = hp.warmup_epochs if hp.lambda_kl > 0 else None
    h_seed = None
    for epoch in range(hp.epochs):
        in_warmup = epoch < hp.warmup_epochs
        clustering_on = clustering_wanted and not in_warmup

        if epoch == seed_epoch:
            if h_seed is None:
                h_seed = predict(g.features, a_tilde, params, hp)[0]
            params.centroids = init_centroids(h_seed, g.class_count, centroid_rng)
            h_seed = None

        tape = nm.Tape()
        with tape:
            total, l_class, l_kl, l_pl = losses(in_warmup, clustering_on)

        if not np.isfinite(total.value).all():
            raise NumericError(
                f"non-finite loss at epoch {epoch}: class={l_class.item()!r} "
                f"kl={None if l_kl is None else l_kl.item()!r} "
                f"pl={None if l_pl is None else l_pl.item()!r}")
        # the gradients are bound to no name, so they are freed before the eval pass
        nm.adam_step(params.all_parameters(), nm.backward(tape, total), adam, hp.lr,
                     hp.weight_decay)

        val_acc, test_acc, soc, h_seed = evaluation(keep_embedding=epoch + 1 == seed_epoch)
        report.epochs.append(EpochRecord(
            epoch=epoch,
            l_class=l_class.item(),
            l_kl=0.0 if l_kl is None else l_kl.item(),
            l_pl=0.0 if l_pl is None else l_pl.item(),
            total=total.item(),
            val_acc=val_acc,
            test_acc=test_acc,
            soc=soc,
        ))

        if val_acc > report.best_val:
            report.best_val = val_acc
            report.best_epoch = epoch
            report.test_at_best_val = test_acc
            best_values = params.named_values()
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= hp.patience:
                break

    if params.centroids is not None:
        best_values.setdefault("centroids", params.centroids.value)
    params.load_values(best_values)
    report.wall_time = time.perf_counter() - t0
    return params, params.centroids, report


@dataclass
class SeedStats:
    """Aggregate of repeated seeded runs; ``params`` are run 0's best-validation
    parameters, which ``ncgc train`` writes as ``checkpoint.bin``."""

    mean: float
    std: float
    reports: list[TrainReport]
    params: ModelParams


def seed_splits(
    g: Graph,
    seed: int,
    split_policy: str,
    n_runs: int,
    split: Split | None = None,
    split_counts: dict | None = None,
) -> list[Split]:
    """The splits of ``n_runs`` seeded runs for ``run_seeds``: ``split`` for
    every run when given, else one ``make_split`` per run seed ``seed + i``."""
    if split is not None:
        return [split] * n_runs
    return [make_split(g, split_policy, RngState(seed + run).derive("split"),
                       **(split_counts or {})) for run in range(n_runs)]


def run_seeds(g: Graph, hp: HyperParams, splits: list[Split]) -> SeedStats:
    """Train once on each of ``splits``, run i with seed hp.seed + i (``seed_splits``
    builds them); the sample std uses the n-1 denominator."""
    if not splits:
        raise ParameterError("need at least one run")
    reports = []
    for run, split_run in enumerate(splits):
        params, _, report = train(g, split_run, replace(hp, seed=hp.seed + run))
        reports.append(report)
        if run == 0:
            params0 = params
    accs = [r.test_at_best_val for r in reports]
    mean = float(np.mean(accs))
    std = float(np.std(accs, ddof=1)) if len(splits) > 1 else 0.0
    return SeedStats(mean=mean, std=std, reports=reports, params=params0)

