"""Multi-task training loop.

Joins supervised classification on the labeled nodes with self-supervised
clustering on everything else: after a classification-only warmup, each epoch
refreshes the sharpened target distribution and the balanced pseudo-labels
from the current predictions (both detached), assembles the weighted total
loss, and takes one Adam step. Model selection is the checkpoint at the best
validation accuracy; training stops early after ``patience`` epochs without
improvement.

``HyperParams`` is the one configuration of a run, model settings included:
its constructor rejects every out-of-range value, and the same object is
passed whole from the CLI down to each model layer.

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
    init_centroids, kl_loss, pseudo_label_loss, sinkhorn_pseudo_labels, soft_assign,
    target_distribution,
)
from .errors import ContractError, NumericError, ParameterError, SplitError
from .graph import Graph, Split, make_split, normalized_adjacency
from .model import BACKBONES, ModelParams, feature_operator, forward, init_params, soc_penalty
from .rng import RngState
from .sparse import CsrMatrix

VARIANTS = ("full", "no_soc", "no_kl", "no_pl", "no_skn")


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

    def __post_init__(self):
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
    log_pred = nm.take_rows(nm.log_softmax_rows(logits), train_idx)
    return nm.scale(nm.sum_all(nm.mul(log_pred, one_hot)), -1.0 / len(train_idx))


def _as_tensor(x):
    return x if isinstance(x, nm.Tensor) else nm.Tensor(np.array([[float(x)]]))


def total_loss(l_class, l_kl, l_pl, hp: HyperParams, in_warmup: bool) -> "nm.Tensor":
    """Weighted sum of the loss components; clustering terms vanish in warmup."""
    total = _as_tensor(l_class)
    if in_warmup:
        return total
    if l_kl is not None and hp.lambda_kl > 0:
        total = nm.add(total, nm.scale(_as_tensor(l_kl), hp.lambda_kl))
    if l_pl is not None and hp.lambda_pl > 0:
        total = nm.add(total, nm.scale(_as_tensor(l_pl), hp.lambda_pl))
    return total


def evaluate(params: ModelParams, g: Graph, a_tilde: CsrMatrix, idx,
             hp: HyperParams) -> float:
    """Accuracy of argmax predictions on the given nodes (ties pick lowest class)."""
    x = feature_operator(g.features)
    _, logits = forward(x, a_tilde, params, hp, RngState(0), training=False)
    return accuracy(nm.softmax_rows(logits.value).value, g.labels, idx)


def accuracy(y_values: np.ndarray, labels, idx) -> float:
    """Share of ``idx`` whose argmax over ``y_values`` rows equals the label."""
    idx = np.asarray(idx, dtype=np.int64)
    preds = y_values[idx].argmax(axis=1)
    return float((preds == np.asarray(labels)[idx]).mean())


def _soc_diagnostic(h: np.ndarray) -> float:
    norms = np.linalg.norm(h, axis=0, keepdims=True)
    hn = h / np.where(norms < 1e-12, 1.0, norms)
    return soc_penalty(hn)


def train(
    g: Graph,
    a_tilde: CsrMatrix,
    split: Split,
    hp: HyperParams,
    pseudo_label_mode: str = "sinkhorn",
) -> tuple[ModelParams, nm.Parameter | None, TrainReport]:
    """Run one seeded training job and return the best-validation checkpoint.

    Returns ``(params, centroids, report)``: the model parameters and the
    ``"centroids"`` parameter at the best validation epoch (``centroids`` is
    None when the KL loss never ran), and the per-epoch report.
    ``pseudo_label_mode`` is ``"sinkhorn"`` or ``"raw"`` (the latter feeds the
    detached predictions straight back as targets, used by the normalization
    ablation). A split that leaves no unlabeled node for a clustering loss
    that needs one is a ``SplitError``.
    """
    if g.labels is None:
        raise ContractError("training requires node labels")
    if pseudo_label_mode not in ("sinkhorn", "raw"):
        raise ParameterError(f"unknown pseudo_label_mode {pseudo_label_mode!r}")
    split.check_against(g.n)
    t0 = time.perf_counter()
    rng = RngState(hp.seed)
    params = init_params(hp, g.feature_dim, g.class_count, rng.derive("init"))
    drop_rng = rng.derive("dropout")
    centroid_rng = rng.derive("centroids")

    adam = nm.AdamState(params.all_parameters())
    centroids: nm.Parameter | None = None
    clustering_wanted = hp.lambda_kl > 0 or hp.lambda_pl > 0
    u_idx = np.setdiff1d(np.arange(g.n), split.train_idx)
    kl_scope_idx = np.arange(g.n) if hp.kl_scope == "all" else u_idx
    if (hp.lambda_pl > 0 and u_idx.size == 0) or (hp.lambda_kl > 0 and kl_scope_idx.size == 0):
        raise SplitError(f"the training split covers all {g.n} nodes, leaving no unlabeled "
                         f"node for the clustering loss")

    report = TrainReport()
    best_values: dict[str, np.ndarray] | None = None
    best_centroids: np.ndarray | None = None
    since_improve = 0
    x = feature_operator(g.features)

    for epoch in range(hp.epochs):
        in_warmup = epoch < hp.warmup_epochs
        clustering_on = clustering_wanted and not in_warmup

        if clustering_on and hp.lambda_kl > 0 and centroids is None:
            h_now, _ = forward(x, a_tilde, params, hp, RngState(0), training=False)
            centroids = init_centroids(h_now.value, g.class_count, centroid_rng)

        trainable = list(params.all_parameters())
        if centroids is not None:
            trainable.append(centroids)
        for p in trainable:
            p.zero_grad()

        l_kl = l_pl = None
        tape = nm.Tape()
        with tape:
            h, logits = forward(x, a_tilde, params, hp, drop_rng, training=True)
            l_class = class_loss(logits, g.labels, split.train_idx)
            if clustering_on:
                if hp.lambda_kl > 0:
                    q = soft_assign(h, centroids)
                    p_target = target_distribution(q.value)
                    l_kl = kl_loss(p_target, q, kl_scope_idx)
                if hp.lambda_pl > 0:
                    psi_detached = nm.softmax_rows(logits.value).value[u_idx]
                    psi = (sinkhorn_pseudo_labels(psi_detached, hp.epsilon, hp.sinkhorn_t)
                           if pseudo_label_mode == "sinkhorn" else psi_detached)
                    l_pl = pseudo_label_loss(psi, nm.take_rows(logits, u_idx))
            total = total_loss(l_class, l_kl, l_pl, hp, in_warmup)

        if not np.isfinite(total.value).all():
            raise NumericError(
                f"non-finite loss at epoch {epoch}: class={l_class.item()!r} "
                f"kl={None if l_kl is None else l_kl.item()!r} "
                f"pl={None if l_pl is None else l_pl.item()!r}")
        nm.backward(tape, total)
        nm.adam_step(trainable, adam, hp.lr, hp.weight_decay)

        h_ev, logits_ev = forward(x, a_tilde, params, hp, RngState(0), training=False)
        y_ev = nm.softmax_rows(logits_ev.value).value
        val_acc = accuracy(y_ev, g.labels, split.val_idx)
        test_acc = accuracy(y_ev, g.labels, split.test_idx)
        report.epochs.append(EpochRecord(
            epoch=epoch,
            l_class=l_class.item(),
            l_kl=0.0 if l_kl is None else l_kl.item(),
            l_pl=0.0 if l_pl is None else l_pl.item(),
            total=total.item(),
            val_acc=val_acc,
            test_acc=test_acc,
            soc=_soc_diagnostic(h_ev.value),
        ))

        if val_acc > report.best_val:
            report.best_val = val_acc
            report.best_epoch = epoch
            report.test_at_best_val = test_acc
            best_values = params.named_values()
            best_centroids = centroids.value.copy() if centroids is not None else None
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= hp.patience:
                break

    if best_values is not None:
        params.load_values(best_values)
    if centroids is not None and best_centroids is not None:
        centroids.value = best_centroids
    report.wall_time = time.perf_counter() - t0
    return params, centroids, report


@dataclass
class SeedStats:
    """Aggregate of repeated seeded runs."""

    mean: float
    std: float
    reports: list[TrainReport]
    artifacts: list[tuple[ModelParams, nm.Parameter | None, Split]]


def run_seeds(
    g: Graph,
    hp: HyperParams,
    split_policy: str,
    n_runs: int,
    split: Split | None = None,
    split_counts: dict | None = None,
    pseudo_label_mode: str = "sinkhorn",
) -> SeedStats:
    """Repeat training over seeds hp.seed + i; sample std uses the n-1 denominator.

    A fresh split is sampled per run unless a fixed one is supplied.
    """
    if n_runs < 1:
        raise ParameterError("need at least one run")
    a_tilde = normalized_adjacency(g, add_self_loops=hp.self_loops)
    accs, reports, artifacts = [], [], []
    for run in range(n_runs):
        hp_run = replace(hp, seed=hp.seed + run)
        if split is not None:
            split_run = split
        else:
            split_rng = RngState(hp_run.seed).derive("split")
            split_run = make_split(g, split_policy, split_rng, **(split_counts or {}))
        params, cs, report = train(g, a_tilde, split_run, hp_run,
                                   pseudo_label_mode=pseudo_label_mode)
        accs.append(report.test_at_best_val)
        reports.append(report)
        artifacts.append((params, cs, split_run))
    mean = float(np.mean(accs))
    std = float(np.std(accs, ddof=1)) if n_runs > 1 else 0.0
    return SeedStats(mean=mean, std=std, reports=reports, artifacts=artifacts)


def apply_variant(hp: HyperParams, variant: str) -> tuple[HyperParams, str]:
    """Translate an ablation variant into hyperparameters and pseudo-label mode."""
    if variant not in VARIANTS:
        raise ParameterError(f"unknown ablation variant {variant!r}")
    mode = "sinkhorn"
    if variant == "no_soc":
        hp = replace(hp, beta=0.0)
    elif variant == "no_kl":
        hp = replace(hp, lambda_kl=0.0)
    elif variant == "no_pl":
        hp = replace(hp, lambda_pl=0.0)
    elif variant == "no_skn":
        mode = "raw"
    return hp, mode


def ablate(g: Graph, a_tilde: CsrMatrix, split: Split, hp: HyperParams,
           variant: str) -> TrainReport:
    """Train one ablation variant: full, no_soc, no_kl, no_pl, or no_skn."""
    hp_v, mode = apply_variant(hp, variant)
    _, _, report = train(g, a_tilde, split, hp_v, pseudo_label_mode=mode)
    return report
