import numpy as np
import pytest

import ncgc.numerics as nm
from ncgc import trainer
from ncgc.clustering import pseudo_label_loss
from ncgc.errors import ContractError, NumericError, ParameterError
from ncgc.graph import make_split, normalized_adjacency
from ncgc.model import feature_operator, forward, init_params
from ncgc.rng import RngState
from ncgc.synth import make_sbm
from ncgc.trainer import (
    HyperParams, ablate, apply_variant, class_loss, evaluate, run_seeds,
    total_loss, train,
)
from oracles import loop_label_cross_entropy


def sbm_setup(seed=0, n_per=10, k=2, p_in=0.6, p_out=0.05, d=6,
              train_per_class=3, val_per_class=3):
    g = make_sbm([n_per] * k, p_in, p_out, feature_dim=d, rng=RngState(seed),
                 feature_shift=2.5, feature_noise=0.6)
    split = make_split(g, "per_class", RngState(seed + 1000),
                       per_class_train=train_per_class, per_class_val=val_per_class)
    return g, normalized_adjacency(g), split


FAST = dict(hidden_dim=16, layers=2, dropout=0.2, lr=0.01, weight_decay=5e-4,
            epochs=120, patience=120, warmup_epochs=10, epsilon=0.05, sinkhorn_t=3)


# ---------------------------------------------------------------------------
# loss pieces


def test_class_loss_perfect_predictions():
    one_hot = np.eye(3)[[0, 1, 2, 1]]
    logits = nm.Tensor(one_hot * 60.0)
    loss = class_loss(logits, np.array([0, 1, 2, 1]), np.arange(4))
    assert loss.item() < 1e-12


def test_class_loss_uniform_is_log_k():
    logits = nm.Tensor(np.zeros((5, 7)))
    loss = class_loss(logits, np.array([3, 0, 6, 2, 5]), np.arange(5))
    assert loss.item() == pytest.approx(np.log(7.0), abs=1e-12)


def test_class_loss_matches_loop_oracle():
    rng = RngState(0)
    logits = rng.normal((8, 4))
    labels = rng.integers(0, 4, size=8)
    idx = np.array([0, 2, 3, 7])
    y = nm.softmax_rows(nm.Tensor(logits))
    got = class_loss(nm.Tensor(logits), labels, idx).item()
    assert abs(got - loop_label_cross_entropy(y.value, labels, idx)) < 1e-12


def test_class_loss_finite_when_probability_underflows():
    # exp(-800) underflows to zero; the log-softmax of the logits does not
    loss = class_loss(nm.Tensor([[0.0, -800.0]]), np.array([1]), np.arange(1))
    assert np.isfinite(loss.value).all()
    assert abs(loss.item() - 800.0) < 1e-9


def test_class_loss_rejects_bad_labels():
    logits = nm.Tensor(np.zeros((3, 2)))
    with pytest.raises(ContractError):
        class_loss(logits, np.array([0, 1, 5]), np.arange(3))
    with pytest.raises(ContractError):
        class_loss(logits, np.array([0, 1, 1]), np.array([], dtype=np.int64))


def test_total_loss_reductions_and_arithmetic():
    hp = HyperParams(lambda_kl=0.0, lambda_pl=0.0)
    lc = nm.Tensor([[1.0]])
    assert total_loss(lc, nm.Tensor([[9.0]]), nm.Tensor([[9.0]]), hp, in_warmup=False).item() == 1.0
    hp = HyperParams(lambda_kl=1.0, lambda_pl=1.0)
    assert total_loss(lc, nm.Tensor([[0.5]]), nm.Tensor([[0.25]]), hp, in_warmup=True).item() == 1.0
    got = total_loss(1.0, 0.5, 0.25, hp, in_warmup=False)
    assert got.item() == pytest.approx(1.75)


def test_evaluate_and_complement_identity():
    g, at, split = sbm_setup(seed=1)
    hp = HyperParams(seed=0, **{**FAST, "lambda_kl": 0.0, "lambda_pl": 0.0, "beta": 0.0,
                                "epochs": 30, "patience": 30, "warmup_epochs": 0})
    params, _, _ = train(g, at, split, hp)
    acc = evaluate(params, g, at, split.test_idx, hp)
    _, logits = forward(feature_operator(g.features), at, params, hp,
                        RngState(0), training=False)
    y = nm.softmax_rows(logits)
    preds = y.value[split.test_idx].argmax(axis=1)
    err = float((preds != g.labels[split.test_idx]).mean())
    assert acc + err == pytest.approx(1.0)


def test_evaluate_hand_built_three_of_four():
    g, at, _ = sbm_setup(seed=2)
    cfg = HyperParams()
    params = init_params(cfg, g.feature_dim, g.class_count, RngState(3))
    _, logits = forward(feature_operator(g.features), at, params, cfg, RngState(0),
                        training=False)
    preds = nm.softmax_rows(logits).value.argmax(axis=1)
    idx = np.arange(4)
    labels = g.labels.copy()
    labels[idx] = preds[idx]
    labels[idx[0]] = 1 - preds[idx[0]]  # exactly one wrong
    object.__setattr__(g, "labels", labels)
    assert evaluate(params, g, at, idx, cfg) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# training loop


def test_training_reaches_full_accuracy_on_separable_sbm():
    g, at, split = sbm_setup(seed=4, n_per=10)
    hp = HyperParams(seed=0, **{**FAST, "epochs": 200, "patience": 200})
    params, cs, report = train(g, at, split, hp)
    assert report.best_val == max(r.val_acc for r in report.epochs)
    assert report.test_at_best_val == 1.0
    assert len(report.epochs) <= 200
    assert cs is not None and cs.name == "centroids"


def test_clustering_losses_switch_on_after_warmup():
    g, at, split = sbm_setup(seed=5)
    hp = HyperParams(seed=0, **{**FAST, "warmup_epochs": 8, "epochs": 12, "patience": 12})
    _, _, report = train(g, at, split, hp)
    assert report.epochs[7].l_kl == 0.0 and report.epochs[7].l_pl == 0.0
    assert report.epochs[8].l_kl > 0.0 and report.epochs[8].l_pl > 0.0
    assert report.epochs[7].total == pytest.approx(report.epochs[7].l_class)


def test_reduction_contract_clustering_machinery_off_vs_never_on():
    g, at, split = sbm_setup(seed=6)
    base = {**FAST, "lambda_kl": 0.0, "lambda_pl": 0.0, "beta": 0.0,
            "epochs": 25, "patience": 25}
    hp_a = HyperParams(seed=3, **{**base, "warmup_epochs": 0})
    hp_b = HyperParams(seed=3, **{**base, "warmup_epochs": 24})
    _, _, ra = train(g, at, split, hp_a)
    _, _, rb = train(g, at, split, hp_b)
    for a, b in zip(ra.epochs, rb.epochs):
        assert a.l_class == b.l_class
        assert a.val_acc == b.val_acc


def test_reduction_matches_plain_gcn_oracle():
    # flat reimplementation of the beta=0, lambdas=0 loop with the same streams
    g, at, split = sbm_setup(seed=7)
    hp = HyperParams(seed=11, **{**FAST, "lambda_kl": 0.0, "lambda_pl": 0.0, "beta": 0.0,
                                 "epochs": 15, "patience": 15, "warmup_epochs": 0})
    _, _, report = train(g, at, split, hp)

    rng = RngState(hp.seed)
    params = init_params(hp, g.feature_dim, g.class_count, rng.derive("init"))
    drop_rng = rng.derive("dropout")
    adam = nm.AdamState(params.all_parameters())
    x = feature_operator(g.features)
    losses = []
    for _ in range(15):
        params.zero_grads()
        tape = nm.Tape()
        with tape:
            _, logits = forward(x, at, params, hp, drop_rng, training=True)
            loss = class_loss(logits, g.labels, split.train_idx)
        losses.append(loss.item())
        nm.backward(tape, loss)
        nm.adam_step(params.all_parameters(), adam, hp.lr, hp.weight_decay)
        forward(x, at, params, hp, RngState(0), training=False)
    got = [r.l_class for r in report.epochs]
    assert np.allclose(got, losses, atol=1e-10)


def test_early_stop_fires_exactly_patience_after_last_improvement():
    g, at, split = sbm_setup(seed=8)
    hp = HyperParams(seed=1, **{**FAST, "epochs": 400, "patience": 12})
    _, _, report = train(g, at, split, hp)
    assert len(report.epochs) < 400  # actually stopped early
    assert len(report.epochs) == report.best_epoch + hp.patience + 1
    vals = [r.val_acc for r in report.epochs]
    assert report.best_val == max(vals)
    assert all(v <= report.best_val for v in vals[report.best_epoch + 1:])


def test_best_checkpoint_is_returned():
    g, at, split = sbm_setup(seed=9)
    hp = HyperParams(seed=2, **{**FAST, "epochs": 60, "patience": 60})
    params, _, report = train(g, at, split, hp)
    acc = evaluate(params, g, at, split.val_idx, hp)
    assert acc == pytest.approx(report.best_val)


def test_determinism_identical_reports():
    g, at, split = sbm_setup(seed=10)
    hp = HyperParams(seed=5, **{**FAST, "epochs": 30, "patience": 30})
    _, _, r1 = train(g, at, split, hp)
    _, _, r2 = train(g, at, split, hp)
    assert r1.to_json_dict() == r2.to_json_dict()


def test_non_finite_loss_aborts_with_diagnostic():
    g, at, split = sbm_setup(seed=11)
    hp = HyperParams(seed=0, **{**FAST, "lr": 1e18, "epochs": 30, "patience": 30,
                                "warmup_epochs": 0})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            train(g, at, split, hp)


def test_no_target_leakage_stored_vs_recomputed_targets():
    # the loss sees P and psi only as fixed arrays: recomputing them (or
    # copying them) must leave every parameter gradient bitwise unchanged
    from ncgc.clustering import (
        init_centroids, kl_loss, pseudo_label_loss, sinkhorn_pseudo_labels, soft_assign,
        target_distribution,
    )
    from ncgc.model import init_params

    g, at, split = sbm_setup(seed=18)
    hp = HyperParams(seed=9, **FAST)
    params = init_params(hp, g.feature_dim, g.class_count, RngState(9).derive("init"))
    u_idx = np.setdiff1d(np.arange(g.n), split.train_idx)
    x = feature_operator(g.features)
    h0, logits0 = forward(x, at, params, hp, RngState(0), training=False)
    y0 = nm.softmax_rows(logits0)
    cstate = init_centroids(h0.value, g.class_count, RngState(9).derive("centroids"))

    def grads_with(targets_builder):
        p_target, psi = targets_builder()
        for p in params.all_parameters():
            p.zero_grad()
        cstate.zero_grad()
        tape = nm.Tape()
        with tape:
            h, logits = forward(x, at, params, hp, RngState(0), training=False)
            q = soft_assign(h, cstate)
            loss = total_loss(
                class_loss(logits, g.labels, split.train_idx),
                kl_loss(p_target, q, np.arange(g.n)),
                pseudo_label_loss(psi, nm.take_rows(logits, u_idx)),
                hp, in_warmup=False)
        nm.backward(tape, loss)
        return [p.grad.copy() for p in params.all_parameters()]

    def fresh_targets():
        q0 = soft_assign(h0, cstate).value
        p_target = target_distribution(q0)
        psi = sinkhorn_pseudo_labels(y0.value[u_idx], hp.epsilon, hp.sinkhorn_t)
        return p_target, psi

    stored_p, stored_psi = fresh_targets()
    g1 = grads_with(lambda: (stored_p, stored_psi))
    g2 = grads_with(fresh_targets)
    g3 = grads_with(lambda: (stored_p.copy(), stored_psi.copy()))
    for a, b, c in zip(g1, g2, g3):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


def test_soc_effect_reduces_column_correlation():
    # statistical claim: training with the orthogonality correction leaves the
    # column-normalized embedding gram matrix closer to diagonal
    def mean_offdiag(beta, seed):
        g, at, split = sbm_setup(seed=20 + seed)
        hp = HyperParams(seed=seed, **{**FAST, "beta": beta, "epochs": 60,
                                       "patience": 60, "hidden_dim": 8})
        params, _, _ = train(g, at, split, hp)
        h, _ = forward(feature_operator(g.features), at, params, hp,
                       RngState(0), training=False)
        hv = h.value
        norms = np.linalg.norm(hv, axis=0, keepdims=True)
        hn = hv / np.where(norms < 1e-12, 1.0, norms)
        gram = np.abs(hn.T @ hn)
        d = gram.shape[0]
        return (gram.sum() - np.trace(gram)) / (d * (d - 1))

    with_soc = np.mean([mean_offdiag(0.02, s) for s in range(5)])
    without = np.mean([mean_offdiag(0.0, s) for s in range(5)])
    assert with_soc < without


# ---------------------------------------------------------------------------
# seeds and ablations


def test_run_seeds_single_run_std_zero():
    g, _, split = sbm_setup(seed=12)
    hp = HyperParams(seed=0, **{**FAST, "epochs": 25, "patience": 25})
    stats = run_seeds(g, hp, "per_class", 1, split=split)
    assert stats.std == 0.0
    assert stats.mean == stats.reports[0].test_at_best_val


def test_run_seeds_mean_std_formula():
    assert float(np.std([0.8, 0.9], ddof=1)) == pytest.approx(0.0707106781, abs=1e-9)
    g, _, split = sbm_setup(seed=13)
    hp = HyperParams(seed=0, **{**FAST, "epochs": 20, "patience": 20})
    stats = run_seeds(g, hp, "per_class", 2, split=split,
                      split_counts=dict(per_class_train=3, per_class_val=3))
    accs = [r.test_at_best_val for r in stats.reports]
    assert stats.mean == pytest.approx(float(np.mean(accs)))
    assert stats.std == pytest.approx(float(np.std(accs, ddof=1)))


def test_run_seeds_fresh_splits_per_run():
    g, _, _ = sbm_setup(seed=14)
    hp = HyperParams(seed=0, **{**FAST, "epochs": 15, "patience": 15})
    stats = run_seeds(g, hp, "per_class", 2,
                      split_counts=dict(per_class_train=3, per_class_val=3))
    s0, s1 = stats.artifacts[0][2], stats.artifacts[1][2]
    assert not np.array_equal(s0.val_idx, s1.val_idx) or not np.array_equal(
        s0.train_idx, s1.train_idx)


def test_ablate_full_equals_train():
    g, at, split = sbm_setup(seed=15)
    hp = HyperParams(seed=4, **{**FAST, "epochs": 25, "patience": 25})
    _, _, direct = train(g, at, split, hp)
    via_ablate = ablate(g, at, split, hp, "full")
    assert direct.to_json_dict() == via_ablate.to_json_dict()


def test_ablate_no_soc_equals_beta_zero_run():
    g, at, split = sbm_setup(seed=16)
    hp = HyperParams(seed=4, **{**FAST, "epochs": 25, "patience": 25})
    no_soc = ablate(g, at, split, hp, "no_soc")
    hp0 = HyperParams(**{**vars(hp), "beta": 0.0})
    _, _, beta0 = train(g, at, split, hp0)
    assert no_soc.to_json_dict() == beta0.to_json_dict()


def test_ablate_variants_and_modes():
    hp = HyperParams()
    assert apply_variant(hp, "no_kl")[0].lambda_kl == 0.0
    assert apply_variant(hp, "no_pl")[0].lambda_pl == 0.0
    assert apply_variant(hp, "no_skn")[1] == "raw"
    assert apply_variant(hp, "full") == (hp, "sinkhorn")
    with pytest.raises(ParameterError):
        apply_variant(hp, "no_everything")


def test_no_skn_feeds_raw_predictions(monkeypatch):
    g, at, split = sbm_setup(seed=17)
    hp = HyperParams(seed=6, **{**FAST, "epochs": 14, "patience": 14,
                                "warmup_epochs": 4})
    seen = []

    def spy(targets, live_logits):
        seen.append(targets)
        return pseudo_label_loss(targets, live_logits)

    monkeypatch.setattr(trainer, "pseudo_label_loss", spy)
    train(g, at, split, hp, pseudo_label_mode="raw")
    # raw targets equal the detached predictions: cross-entropy is the
    # prediction entropy, strictly positive but free of sinkhorn balancing
    assert seen
    assert np.abs(seen[-1].sum(axis=1) - 1.0).max() < 1e-9


def test_hyperparams_validation():
    with pytest.raises(ParameterError):
        HyperParams(patience=11, epochs=10)
    with pytest.raises(ParameterError):
        HyperParams(lambda_kl=-1.0)
    with pytest.raises(ParameterError):
        HyperParams(warmup_epochs=1000, epochs=1000)
    with pytest.raises(ParameterError):
        HyperParams(kl_scope="train")
