import numpy as np
import pytest

import ncgc.numerics as nm
from ncgc.clustering import (
    init_centroids, kl_loss, pseudo_label_loss, sinkhorn_pseudo_labels,
    sinkhorn_transport_plan, soft_assign, target_distribution,
)
from ncgc.errors import ContractError, ParameterError
from ncgc.rng import RngState
from oracles import (
    best_partition_wcss, finite_difference_grads, loop_cross_entropy, loop_kl,
    loop_target_distribution, rel_error, sinkhorn_loop,
)


def make_state(centroids):
    return nm.Parameter(np.asarray(centroids, dtype=float), name="centroids")


# ---------------------------------------------------------------------------
# soft assignments


def test_soft_assign_equidistant_is_uniform():
    state = make_state([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    q = soft_assign(nm.Tensor(np.zeros((1, 2))), state)
    assert np.allclose(q.value, 0.25, atol=1e-15)


def test_soft_assign_kernel_values():
    state = make_state([[0.0, 0.0], [1.0, 0.0]])
    q = soft_assign(nm.Tensor([[0.0, 0.0]]), state)
    # kernels 1/(1+0)=1 and 1/(1+1)=1/2 normalize to [2/3, 1/3]
    assert np.allclose(q.value, [[2 / 3, 1 / 3]], atol=1e-12)


def test_soft_assign_rows_sum_to_one_and_positive():
    rng = RngState(0)
    state = make_state(rng.normal((4, 3)))
    q = soft_assign(nm.Tensor(rng.normal((10, 3)) * 5), state)
    assert np.abs(q.value.sum(axis=1) - 1.0).max() < 1e-10
    assert q.value.min() > 0


def test_soft_assign_gradient_wrt_embeddings_and_centroids():
    rng = RngState(1)
    h0 = rng.normal((3, 2))
    c0 = rng.normal((2, 2))
    w = rng.normal((3, 2))

    def build(h, c):
        state = c
        return nm.sum_all(nm.mul(soft_assign(h, state), w))

    params = [nm.Parameter(h0.copy(), name="h"), nm.Parameter(c0.copy(), name="c")]
    tape = nm.Tape()
    with tape:
        loss = build(*params)
    nm.backward(tape, loss)

    def value(arrays):
        t = [nm.Tensor(a) for a in arrays]
        state = nm.Parameter(arrays[1], name="c")
        return nm.sum_all(nm.mul(soft_assign(t[0], state), w)).item()

    fd = finite_difference_grads(value, [h0.copy(), c0.copy()])
    assert rel_error(params[0].grad, fd[0]) < 1e-4
    assert rel_error(params[1].grad, fd[1]) < 1e-4


# ---------------------------------------------------------------------------
# target distribution


def test_target_uniform_fixed_point():
    q = np.full((5, 4), 0.25)
    assert np.allclose(target_distribution(q), 0.25, atol=1e-15)


def test_target_one_hot_fixed_point():
    q = np.eye(3)[[0, 1, 2, 0]]
    assert np.allclose(target_distribution(q), q, atol=1e-15)


def test_target_matches_loop_oracle():
    for seed in range(5):
        rng = RngState(10 + seed)
        q = rng.uniform((4, 3), 0.05, 1.0)
        q /= q.sum(axis=1, keepdims=True)
        assert np.allclose(target_distribution(q), loop_target_distribution(q), atol=1e-12)


def test_target_rows_sum_to_one():
    rng = RngState(20)
    q = rng.uniform((30, 6), 1e-4, 1.0)
    q /= q.sum(axis=1, keepdims=True)
    p = target_distribution(q)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-10


# ---------------------------------------------------------------------------
# KL loss


def test_kl_zero_when_equal():
    rng = RngState(30)
    q_val = rng.uniform((6, 3), 0.1, 1.0)
    q_val /= q_val.sum(axis=1, keepdims=True)
    loss = kl_loss(q_val.copy(), nm.Tensor(q_val), np.arange(6))
    assert abs(loss.item()) < 1e-12


def test_kl_one_hot_vs_uniform_is_log_k():
    p = np.array([[1.0, 0.0, 0.0, 0.0]])
    q = nm.Tensor(np.full((1, 4), 0.25))
    assert kl_loss(p, q, [0]).item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_kl_matches_loop_oracle_and_scope():
    rng = RngState(31)
    q_val = rng.uniform((8, 4), 0.05, 1.0)
    q_val /= q_val.sum(axis=1, keepdims=True)
    p = target_distribution(q_val)
    scope = np.array([1, 3, 4, 6])
    loss = kl_loss(p, nm.Tensor(q_val), scope)
    assert abs(loss.item() - loop_kl(p, q_val, scope)) < 1e-12
    assert loss.item() >= -1e-12


def test_kl_gradient_flows_into_q_only():
    rng = RngState(32)
    q0 = rng.uniform((4, 3), 0.1, 1.0)
    q0 /= q0.sum(axis=1, keepdims=True)
    p = target_distribution(q0) + 0.0
    qp = nm.Parameter(q0.copy(), name="q")
    tape = nm.Tape()
    with tape:
        loss = kl_loss(p, qp, np.arange(4))
    nm.backward(tape, loss)
    assert np.abs(qp.grad).max() > 0

    def value(arrays):
        return kl_loss(p, nm.Tensor(arrays[0]), np.arange(4)).item()

    fd = finite_difference_grads(value, [q0.copy()])
    assert rel_error(qp.grad, fd[0]) < 1e-4


# ---------------------------------------------------------------------------
# Sinkhorn


def softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_sinkhorn_constant_input_gives_uniform():
    psi = sinkhorn_pseudo_labels(np.full((6, 4), 0.25), 0.05, 3)
    assert np.abs(psi - 0.25).max() < 1e-12


def test_sinkhorn_large_epsilon_limit():
    rng = RngState(40)
    preds = softmax(rng.normal((10, 5)))
    psi = sinkhorn_pseudo_labels(preds, 1e6, 10)
    assert np.abs(psi - 0.2).max() < 1e-6


def test_sinkhorn_matches_straight_loop_oracle():
    preds = np.array([[0.9, 0.1], [0.2, 0.8]])
    expected = sinkhorn_loop(preds, 0.04, 50)
    psi = sinkhorn_pseudo_labels(preds, 0.04, 50)
    assert np.abs(psi - expected).max() < 1e-8


def test_sinkhorn_row_shift_invariance():
    rng = RngState(41)
    preds = softmax(rng.normal((8, 3)))
    shifted = preds + rng.normal((8, 1))  # per-row constant on the inputs
    a = sinkhorn_pseudo_labels(preds, 0.05, 200)
    b = sinkhorn_pseudo_labels(shifted, 0.05, 200)
    assert np.abs(a - b).max() < 1e-8


def test_sinkhorn_marginal_convergence():
    rng = RngState(42)
    preds = softmax(rng.normal((16, 4)))
    plan = sinkhorn_transport_plan(preds, 0.05, 200)
    assert np.abs(plan.sum(axis=1) - 1 / 16).max() < 1e-6
    assert np.abs(plan.sum(axis=0) - 1 / 4).max() < 1e-6


def test_sinkhorn_log_and_direct_domains_agree():
    rng = RngState(43)
    for _ in range(10):
        preds = softmax(rng.normal((12, 4)))
        a = sinkhorn_pseudo_labels(preds, 0.05, 30)
        b = sinkhorn_loop(preds, 0.05, 30)
        assert np.abs(a - b).max() < 1e-8


def test_sinkhorn_log_domain_survives_tiny_epsilon():
    rng = RngState(44)
    preds = softmax(rng.normal((10, 4)) * 10)
    psi = sinkhorn_pseudo_labels(preds, 0.003, 5)
    assert np.isfinite(psi).all()
    assert np.abs(psi.sum(axis=1) - 1.0).max() < 1e-8


def test_sinkhorn_entropy_grows_with_epsilon():
    rng = RngState(45)
    preds = softmax(rng.normal((12, 4)) * 3)
    entropies = []
    for eps in (0.01, 0.04, 0.1, 1.0):
        psi = sinkhorn_pseudo_labels(preds, eps, 100)
        entropies.append(float(-(psi * np.log(psi + 1e-300)).sum(axis=1).mean()))
    assert all(a < b + 1e-12 for a, b in zip(entropies, entropies[1:]))


def test_sinkhorn_rejects_bad_arguments():
    preds = np.full((2, 2), 0.5)
    with pytest.raises(ParameterError):
        sinkhorn_pseudo_labels(preds, 0.0, 3)
    with pytest.raises(ParameterError):
        sinkhorn_pseudo_labels(preds, 0.05, 0)
    with pytest.raises(ContractError):
        sinkhorn_pseudo_labels(nm.Tensor(preds), 0.05, 3)


def test_sinkhorn_row_sums_exact_even_at_small_t():
    rng = RngState(46)
    preds = softmax(rng.normal((9, 3)))
    psi = sinkhorn_pseudo_labels(preds, 0.04, 3)
    assert np.abs(psi.sum(axis=1) - 1.0).max() < 1e-12


# ---------------------------------------------------------------------------
# pseudo-label loss


def test_pseudo_label_loss_perfect_match_is_zero():
    one_hot = np.eye(3)[[0, 2, 1]]
    psi = one_hot
    # live predictions nearly one-hot via softmax of strong logits
    logits = nm.Tensor(one_hot * 50.0)
    assert pseudo_label_loss(psi, logits).item() < 1e-12


def test_pseudo_label_loss_one_hot_vs_uniform():
    psi = np.array([[0.0, 1.0, 0.0, 0.0]])
    logits = nm.Tensor(np.zeros((1, 4)))
    assert pseudo_label_loss(psi, logits).item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_pseudo_label_loss_finite_when_probability_underflows():
    # exp(-800) underflows to zero; the log-softmax of the logits does not
    psi = np.array([[0.0, 1.0]])
    loss = pseudo_label_loss(psi, nm.Tensor([[0.0, -800.0]]))
    assert np.isfinite(loss.value).all()
    assert abs(loss.item() - 800.0) < 1e-9


def test_pseudo_label_loss_rejects_attached_or_negative_targets():
    logits = nm.Tensor(np.zeros((1, 2)))
    with pytest.raises(ContractError, match="detached"):
        pseudo_label_loss(nm.Tensor([[0.5, 0.5]]), logits)
    with pytest.raises(ContractError, match="non-negative"):
        pseudo_label_loss(np.array([[1.5, -0.5]]), logits)


def test_pseudo_label_loss_matches_loop_oracle():
    rng = RngState(50)
    targets = rng.uniform((5, 3), 0.0, 1.0)
    targets /= targets.sum(axis=1, keepdims=True)
    logits = rng.normal((5, 3))
    live = nm.softmax_rows(nm.Tensor(logits))
    psi = targets
    got = pseudo_label_loss(psi, nm.Tensor(logits)).item()
    expected = loop_cross_entropy(targets, live.value)
    assert abs(got - expected) < 1e-12


def test_pseudo_label_loss_gradient_reaches_logits_only():
    rng = RngState(51)
    logits0 = rng.normal((4, 3))
    targets = sinkhorn_pseudo_labels(softmax(logits0), 0.1, 20)
    w = nm.Parameter(logits0.copy(), name="logits")
    tape = nm.Tape()
    with tape:
        nodes_before_targets = len(tape)
        # recomputing targets must add nothing to the tape
        _ = sinkhorn_pseudo_labels(softmax(logits0), 0.1, 20)
        _ = target_distribution(softmax(logits0))
        assert len(tape) == nodes_before_targets
        loss = pseudo_label_loss(targets, w)
    nm.backward(tape, loss)
    assert np.abs(w.grad).max() > 0

    def value(arrays):
        return pseudo_label_loss(targets, nm.Tensor(arrays[0])).item()

    fd = finite_difference_grads(value, [logits0.copy()])
    assert rel_error(w.grad, fd[0]) < 1e-4


# ---------------------------------------------------------------------------
# centroid initialization


def test_init_centroids_recovers_distinct_repeated_rows():
    base = np.array([[0.0, 0.0], [5.0, 5.0], [-4.0, 3.0]])
    h = np.repeat(base, 4, axis=0)
    state = init_centroids(h, 3, RngState(60))
    assert state.name == "centroids"
    got = state.value[np.lexsort(state.value.T)]
    want = base[np.lexsort(base.T)]
    assert np.allclose(got, want, atol=1e-12)


def test_init_centroids_seed_contract():
    rng_h = RngState(61)
    h = rng_h.normal((20, 3))
    a = init_centroids(h, 4, RngState(1))
    b = init_centroids(h, 4, RngState(2))
    assert a.value.shape == b.value.shape == (4, 3)
    c = init_centroids(h, 4, RngState(1))
    assert np.array_equal(a.value, c.value)


def test_init_centroids_wcss_matches_brute_force_on_separable():
    rng = RngState(62)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    h = np.vstack([c + 0.05 * rng.normal((3, 2)) for c in centers])
    state = init_centroids(h, 3, RngState(63))
    d = ((h[:, None, :] - state.value[None, :, :]) ** 2).sum(-1)
    wcss = d.min(axis=1).sum()
    assert wcss <= best_partition_wcss(h, 3) + 1e-9


def test_init_centroids_pads_when_fewer_distinct_rows():
    h = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
    state = init_centroids(h, 4, RngState(64))
    assert state.value.shape == (4, 2)
    assert np.isfinite(state.value).all()


def test_init_centroids_requires_enough_rows():
    with pytest.raises(ContractError):
        init_centroids(np.zeros((2, 2)), 3, RngState(65))
