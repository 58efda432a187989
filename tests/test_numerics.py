import weakref

import numpy as np
import pytest

import ncgc.numerics as nm
from ncgc.errors import ContractError, NumericError, ParameterError, ShapeError
from ncgc.model import sogn_layer
from ncgc.rng import RngState
from ncgc.sparse import CsrMatrix
from ncgc.trainer import HyperParams
from gradcheck import OPS, check_gradients, trial_rng
from oracles import (
    appnp_chain, appnp_propagate, loop_matmul, rel_error, soft_orth_chain, soft_orthogonal,
)

E = np.e



# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity_and_zero():
    rng = RngState(0)
    m = rng.normal((3, 4))
    assert np.array_equal(nm.matmul(np.eye(3), nm.Tensor(m)).value, m)
    out = nm.matmul(np.zeros((2, 3)), nm.Tensor(rng.normal((3, 4))))
    assert np.array_equal(out.value, np.zeros((2, 4)))


def test_matmul_hand_case_and_loop_oracle():
    out = nm.matmul(nm.Tensor([[1.0, 2.0], [3.0, 4.0]]), nm.Tensor([[5.0], [6.0]]))
    assert np.array_equal(out.value, [[17.0], [39.0]])
    rng = RngState(1)
    for _ in range(5):
        a, b = rng.normal((4, 3)), rng.normal((3, 5))
        assert np.allclose(nm.matmul(nm.Tensor(a), nm.Tensor(b)).value,
                           loop_matmul(a, b), atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.matmul(nm.Tensor(np.ones((2, 3))), nm.Tensor(np.ones((2, 3))))


def test_sparse_dense_matmul_identity_empty_and_oracle():
    rng = RngState(2)
    m = rng.normal((5, 3))
    assert np.array_equal(nm.sparse_dense_matmul(CsrMatrix.identity(5), nm.Tensor(m)).value, m)
    zero = CsrMatrix.from_dense(np.zeros((4, 5)))
    assert np.array_equal(nm.sparse_dense_matmul(zero, nm.Tensor(m)).value, np.zeros((4, 3)))
    for _ in range(5):
        dense = rng.normal((5, 5)) * (rng.uniform((5, 5)) < 0.4)
        s = CsrMatrix.from_dense(dense)
        b = rng.normal((5, 4))
        assert np.allclose(nm.sparse_dense_matmul(s, nm.Tensor(b)).value, dense @ b, atol=1e-12)


@pytest.mark.parametrize("alpha, hops", [(0.1, 1), (0.1, 10), (0.37, 3), (1.0, 2)])
def test_appnp_propagate_forward_bitwise_equals_chain(alpha, hops):
    rng = RngState(3)
    dense = rng.normal((30, 30)) * (rng.uniform((30, 30)) < 0.2)
    s = CsrMatrix.from_dense(dense)
    assert not np.array_equal(s.to_dense(), s.to_dense().T)
    z = nm.Tensor(rng.normal((30, 6)))
    fused = appnp_propagate(s, z, alpha, hops)
    assert np.array_equal(fused.value, appnp_chain(s, z, alpha, hops).value)

    # the fused adjoint matches the chain's backward up to summation order
    c = rng.normal((30, 6))
    grads = []
    for prop in (appnp_propagate, appnp_chain):
        zp = nm.Parameter(z.value, name="z")
        tape = nm.Tape()
        with tape:
            loss = nm.sum_all(nm.mul(prop(s, zp, alpha, hops), c))
        grads.append(nm.backward(tape, loss)[zp])
    assert rel_error(*grads) < 1e-13


@pytest.mark.parametrize("n,d,zero_col", [(7, 3, None), (40, 8, 2), (200, 16, 0), (5, 4, 3)])
def test_soft_orthogonal_matches_the_primitive_chain(n, d, zero_col):
    rng = RngState(n + d)
    zv = rng.normal((n, d))
    if zero_col is not None:
        zv[:, zero_col] = 0.0  # the guard path: the column passes through unnormalized
    beta = 0.37
    c = rng.normal((n, d))
    values, grads = [], []
    for corr in (soft_orthogonal, soft_orth_chain):
        z = nm.Parameter(zv, name="z")
        tape = nm.Tape()
        with tape:
            out = corr(z, beta)
            loss = nm.sum_all(nm.mul(out, c))
        grads.append(nm.backward(tape, loss)[z])
        values.append(out.value)
    assert rel_error(*values) < 1e-13
    assert rel_error(*grads) < 1e-13
    if zero_col is not None:
        assert np.array_equal(values[0][:, zero_col], np.zeros(n))
        assert np.all(np.isfinite(grads[0]))


def test_softmax_rows_uniform_and_hand_value():
    out = nm.softmax_rows(nm.Tensor(np.full((2, 5), 3.7)))
    assert np.allclose(out.value, 0.2, atol=1e-15)
    out = nm.softmax_rows(nm.Tensor([[1.0, 0.0]]))
    expected = np.array([[E / (E + 1.0), 1.0 / (E + 1.0)]])
    assert np.allclose(out.value, expected, atol=1e-12)
    assert np.allclose(out.value, [[0.73106, 0.26894]], atol=1e-5)


def test_softmax_rows_sum_and_shift_invariance():
    rng = RngState(3)
    x = rng.normal((6, 4)) * 10
    p = nm.softmax_rows(nm.Tensor(x)).value
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    shifted = x + rng.normal((6, 1))
    assert np.allclose(nm.softmax_rows(nm.Tensor(shifted)).value, p, atol=1e-12)


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        nm.softmax_rows(nm.Tensor([[np.inf, 0.0]]))


def test_log_elementwise_generic_and_fused():
    x = np.array([[0.5, 2.0], [1.0, 4.0]])
    assert np.allclose(nm.log_elementwise(nm.Tensor(x)).value, np.log(x), atol=1e-15)
    with pytest.raises(NumericError):
        nm.log_elementwise(nm.Tensor([[1.0, 0.0]]))


def test_dropout_identity_eval_and_p0():
    rng = RngState(4)
    x = nm.Tensor(rng.normal((3, 3)))
    assert nm.dropout(x, 0.5, rng, training=False) is x
    assert nm.dropout(x, 0.0, rng, training=True) is x
    with pytest.raises(ParameterError):
        nm.dropout(x, 1.0, rng, training=True)
    with pytest.raises(ParameterError):
        nm.dropout(x, -0.1, rng, training=True)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
def test_dropout_preserves_expectation(p):
    # 1e5 seeded survive/drop trials; inverted scaling keeps the mean at 1
    rng = RngState(5)
    x = np.ones((100, 1000))
    out = nm.dropout(nm.Tensor(x), p, rng, training=True).value
    assert abs(out.mean() - 1.0) < 0.02


def test_column_l2_normalize_orthonormal_zero_and_idempotent():
    q = np.linalg.qr(RngState(6).normal((5, 3)))[0]
    assert np.allclose(nm.column_l2_normalize(nm.Tensor(q)).value, q, atol=1e-12)
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    out = nm.column_l2_normalize(nm.Tensor(x)).value
    assert np.allclose(out[:, 0], [np.sqrt(0.5), np.sqrt(0.5)])
    assert np.array_equal(out[:, 1], [0.0, 0.0])
    # norm 5e-12 lies between NORM_GUARD (1e-12) and ten times it: scaled
    tiny = nm.column_l2_normalize(nm.Tensor(np.array([[3e-12], [4e-12]]))).value
    assert np.allclose(tiny[:, 0], [0.6, 0.8], rtol=0, atol=1e-12)
    y = nm.column_l2_normalize(nm.Tensor(RngState(7).normal((4, 4)))).value
    assert np.allclose(nm.column_l2_normalize(nm.Tensor(y)).value, y, atol=1e-14)


def test_frobenius_sq_diff_value():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([[0.0, 2.0], [3.0, 2.0]])
    assert nm.frobenius_sq_diff(nm.Tensor(x), nm.Tensor(y)).item() == pytest.approx(5.0)


def test_pairwise_sqdist_value():
    h = np.array([[0.0, 0.0], [1.0, 1.0]])
    c = np.array([[0.0, 0.0], [3.0, 4.0]])
    d = nm.pairwise_sqdist(nm.Tensor(h), nm.Tensor(c)).value
    assert np.allclose(d, [[0.0, 25.0], [2.0, 13.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    w = nm.Parameter(RngState(8).normal((3, 4)), name="w")
    tape = nm.Tape()
    with tape:
        loss = nm.sum_all(w)
    assert np.array_equal(nm.backward(tape, loss)[w], np.ones((3, 4)))


def test_backward_frobenius_gives_2w():
    w0 = RngState(9).normal((4, 2))
    w = nm.Parameter(w0, name="w")
    tape = nm.Tape()
    with tape:
        loss = nm.frobenius_sq_diff(w, np.zeros((4, 2)))
    assert np.allclose(nm.backward(tape, loss)[w], 2.0 * w0, atol=1e-12)


def test_backward_requires_scalar_loss():
    w = nm.Parameter(np.ones((2, 2)), name="w")
    tape = nm.Tape()
    with tape:
        out = nm.relu(w)
    with pytest.raises(ContractError):
        nm.backward(tape, out)


def test_backward_three_layer_composition_matches_fd():
    rng = RngState(10)
    x = rng.normal((4, 3))
    c = rng.normal((4, 2))

    def build(w1, w2, w3):
        h1 = nm.relu(nm.add_scalar(nm.matmul(x, w1), 0.1))
        h2 = nm.softmax_rows(nm.matmul(h1, w2))
        h3 = nm.matmul(h2, w3)
        return nm.sum_all(nm.mul(h3, c))

    arrays = [rng.normal((3, 5)), rng.normal((5, 4)), rng.normal((4, 2))]
    check_gradients(build, arrays)


def test_gradient_accumulates_over_reuse():
    w = nm.Parameter(np.array([[2.0]]), name="w")
    tape = nm.Tape()
    with tape:
        loss = nm.sum_all(nm.mul(w, w))  # w^2
    assert np.allclose(nm.backward(tape, loss)[w], [[4.0]])


@pytest.mark.usefixtures("tape_guard")
def test_add_operand_gradients_do_not_alias():
    # a feeds add and, before it on the tape, a scale; the sweep reaches the
    # add first, so a's gradient is accumulated into after b's is set
    x = nm.Parameter(np.array([[1.0]]), name="x")
    y = nm.Parameter(np.array([[1.0]]), name="y")
    tape = nm.Tape()
    with tape:
        a, b = nm.scale(x, 1.0), nm.scale(y, 1.0)
        d = nm.scale(a, 3.0)
        loss = nm.sum_all(nm.add(nm.add(a, b), d))
    grads = nm.backward(tape, loss)
    assert np.array_equal(grads[x], [[4.0]]) and np.array_equal(grads[y], [[1.0]])


def _aliased_add(a, b):
    # an add whose VJP hands one array to both operands
    out = nm.Tensor(nm._as_value(a) + nm._as_value(b))
    return nm._record(out, (a, b), lambda g: (g, g))


def _returns_saved_factor(a, b):
    # a scale whose VJP returns the array it saved instead of a new one
    factor = np.full_like(nm._as_value(a), 2.0)
    out = nm.Tensor(nm._as_value(a) * factor)
    return nm._record(out, (a, b), lambda g: (factor, None))


@pytest.mark.parametrize("op, message", [
    (_aliased_add, "two gradients of one VJP share memory"),
    (_returns_saved_factor, "a VJP returned a read-only array"),
])
def test_tape_guard_fires_on_a_planted_aliasing_op(tape_guard, op, message):
    x = nm.Parameter(np.array([[1.0]]), name="x")
    y = nm.Parameter(np.array([[1.0]]), name="y")
    tape = nm.Tape()
    with tape:
        a, b = nm.scale(x, 1.0), nm.scale(y, 1.0)
        loss = nm.sum_all(nm.add(op(a, b), nm.scale(a, 3.0)))
    with pytest.raises(AssertionError, match=message):
        nm.backward(tape, loss)
    # the guard froze the operands while the tape was live and gave them back
    assert a.value.flags.writeable and b.value.flags.writeable


def test_backward_returns_exactly_the_parameters_the_loss_reaches():
    rng = RngState(14)
    w = nm.Parameter(rng.normal((3, 2)), name="w")
    dead = nm.Parameter(rng.normal((3, 2)), name="dead")
    unused = nm.Parameter(rng.normal((3, 2)), name="unused")
    k = nm.Tensor(rng.normal((4, 3)))  # a constant leaf that receives a gradient

    def run():
        tape = nm.Tape()
        with tape:
            nm.scale(dead, 2.0)  # recorded, but its output never reaches the loss
            h = nm.matmul(k, w)
            loss = nm.sum_all(nm.mul(h, h))
        return nm.backward(tape, loss)

    first = run()
    assert list(first) == [w]
    assert unused not in first and dead not in first
    expected = k.value.T @ (2.0 * (k.value @ w.value))
    assert np.array_equal(first[w], expected)
    kept = first[w].copy()
    second = run()
    assert list(second) == [w]
    assert second[w] is not first[w]
    assert np.array_equal(second[w], expected)  # nothing carried over from the first
    assert np.array_equal(first[w], kept)


@pytest.mark.parametrize("name", sorted(OPS))
def test_gradcheck_every_op(name):
    # acceptance gradient suite: >= 20 random small instances per operation
    for trial in range(20):
        build, arrays = OPS[name](trial_rng(name, trial))
        check_gradients(build, arrays)


# ---------------------------------------------------------------------------
# optimizer


def make_param(seed=11, shape=(3, 2)):
    return nm.Parameter(RngState(seed).normal(shape), name="w")


def test_adam_zero_gradient_is_noop():
    p = make_param()
    before = p.value.copy()
    state = nm.AdamState()
    nm.adam_step([p], {p: np.zeros_like(p.value)}, state, lr=0.1, weight_decay=0.0)
    assert np.array_equal(p.value, before)


def test_adam_first_step_magnitude():
    p = nm.Parameter(np.zeros((2, 2)), name="w")
    g = np.array([[3.0, -0.5], [10.0, 0.2]])
    state = nm.AdamState()
    nm.adam_step([p], {p: g}, state, lr=0.05, weight_decay=0.0)
    # first Adam step moves by ~lr in the direction opposite the gradient
    assert np.allclose(np.abs(p.value), 0.05, rtol=1e-6)
    assert np.all(np.sign(p.value) == -np.sign(g))


def test_adam_decoupled_weight_decay():
    p = nm.Parameter(np.full((1, 1), 2.0), name="w")
    state = nm.AdamState()
    nm.adam_step([p], {p: np.zeros((1, 1))}, state, lr=0.1, weight_decay=0.5)
    # zero gradient: only the decay factor (1 - lr*wd) applies
    assert p.value[0, 0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5))


def test_adam_rejects_non_finite_gradient():
    p = make_param()
    state = nm.AdamState()
    with pytest.raises(NumericError):
        nm.adam_step([p], {p: np.full_like(p.value, np.nan)}, state, lr=0.1)


def test_adam_parameter_missing_from_grads_decays_only():
    # a parameter absent from the mapping: its moments decay and weight decay
    # applies, bit for bit as with an explicit zero gradient
    grads = [RngState(13).normal((3, 2)), None, None]
    runs = []
    for explicit_zero in (True, False):
        p = make_param()
        state = nm.AdamState()
        for g in grads:
            if g is None:
                g = {p: np.zeros_like(p.value)} if explicit_zero else {}
            else:
                g = {p: g}
            nm.adam_step([p], g, state, lr=0.1, weight_decay=0.3)
        runs.append((p.value, state.m[p], state.v[p]))
    for a, b in zip(*runs):
        assert np.array_equal(a, b)
    m1 = (1 - nm.ADAM_BETA1) * grads[0]
    assert np.array_equal(runs[1][1], m1 * nm.ADAM_BETA1 * nm.ADAM_BETA1)


def test_adam_keys_moments_by_parameter_not_name():
    a = nm.Parameter(np.zeros((1, 2)), name="twin")
    b = nm.Parameter(np.zeros((1, 2)), name="twin")
    state = nm.AdamState()
    nm.adam_step([a, b], {a: np.array([[1.0, 2.0]]), b: np.array([[-3.0, 0.5]])}, state,
                 lr=0.1)
    assert set(state.m) == {a, b} and set(state.v) == {a, b}
    assert state.m[a] is not state.m[b]
    assert np.array_equal(state.m[a], (1 - nm.ADAM_BETA1) * np.array([[1.0, 2.0]]))
    assert np.array_equal(state.m[b], (1 - nm.ADAM_BETA1) * np.array([[-3.0, 0.5]]))
    # each moved against its own gradient
    assert np.array_equal(np.sign(a.value), [[-1.0, -1.0]])
    assert np.array_equal(np.sign(b.value), [[1.0, -1.0]])


def test_adam_late_parameter_gets_zero_moments_and_shared_step():
    w = make_param()
    state = nm.AdamState()
    nm.adam_step([w], {}, state, lr=0.1)
    nm.adam_step([w], {}, state, lr=0.1)
    late = nm.Parameter(np.zeros((1, 2)), name="late")
    nm.adam_step([w, late], {late: np.array([[2.0, -4.0]])}, state, lr=0.1)
    # zero moments, then one update: m = (1-b1) g, v = (1-b2) g^2, bias-corrected
    # with the shared step count t = 3, not with the late parameter's first step
    b1, b2, t = nm.ADAM_BETA1, nm.ADAM_BETA2, 3
    g = np.array([[2.0, -4.0]])
    mhat = (1 - b1) * g / (1 - b1 ** t)
    vhat = (1 - b2) * g * g / (1 - b2 ** t)
    assert np.allclose(state.m[late], (1 - b1) * g, rtol=0, atol=1e-15)
    assert np.allclose(state.v[late], (1 - b2) * g * g, rtol=0, atol=1e-15)
    assert np.allclose(late.value, -0.1 * mhat / (np.sqrt(vhat) + nm.ADAM_EPS),
                       rtol=1e-14, atol=0)


def run_training_steps(seed, n_steps=10):
    rng = RngState(seed)
    x = rng.normal((6, 4))
    target = rng.normal((6, 3))
    w = nm.Parameter(rng.derive("init").normal((4, 3), scale=0.3), name="w")
    state = nm.AdamState()
    drop_rng = rng.derive("dropout")
    for _ in range(n_steps):
        tape = nm.Tape()
        with tape:
            h = nm.dropout(nm.matmul(x, w), 0.3, drop_rng, training=True)
            loss = nm.frobenius_sq_diff(h, target)
        nm.adam_step([w], nm.backward(tape, loss), state, lr=0.01, weight_decay=1e-3)
    return w.value


def test_determinism_bitwise_over_ten_steps():
    a = run_training_steps(123)
    b = run_training_steps(123)
    assert np.array_equal(a, b)
    c = run_training_steps(124)
    assert not np.array_equal(a, c)


def test_tape_cleared_after_backward():
    w = make_param()
    tape = nm.Tape()
    with tape:
        loss = nm.sum_all(nm.relu(w))
    assert len(tape) > 0
    nm.backward(tape, loss)
    assert len(tape) == 0


def test_backward_pops_each_node_and_frees_what_it_saved():
    # node i scales by an array that only its VJP keeps; while node i's VJP
    # runs, the tape holds exactly the nodes before it, and the arrays of the
    # nodes after it (already processed) are gone
    w = nm.Parameter(RngState(12).normal((3, 2)), name="w")
    tape = nm.Tape()
    refs, seen = [], []

    def scaled(x, i):
        factor = np.full((3, 2), i + 2.0)
        refs.append(weakref.ref(factor))

        def vjp(g):
            seen.append((i, len(tape.nodes), [r() is None for r in refs[i + 1:]]))
            return (g * factor,)

        return nm._record(nm.Tensor(nm._as_value(x) * factor), (x,), vjp)

    with tape:
        x = w
        for i in range(4):
            x = scaled(x, i)
        loss = nm.sum_all(x)
    del x
    grads = nm.backward(tape, loss)
    assert [(i, n) for i, n, _ in seen] == [(i, i) for i in (3, 2, 1, 0)]
    assert all(all(dead) for _, _, dead in seen)
    assert len(tape) == 0 and all(r() is None for r in refs)
    assert np.array_equal(grads[w], np.full((3, 2), 2.0 * 3.0 * 4.0 * 5.0))


def _small_layer(x, w, activation):
    rng = RngState(14)
    at = CsrMatrix.from_dense(rng.normal((5, 5)) * (rng.uniform((5, 5)) < 0.5))
    return sogn_layer(x, w, at, HyperParams(beta=0.3, dropout=0.5), RngState(15), True,
                      activation=activation)


@pytest.mark.parametrize("make, reads_output", [
    (lambda x, w: nm.scale(nm.matmul(x, w), 2.0), False),
    (lambda x, w: _small_layer(x, w, activation=False), False),
    (lambda x, w: _small_layer(x, w, activation=True), True),  # the ReLU mask
], ids=["scale", "layer", "layer_relu"])
@pytest.mark.usefixtures("tape_guard")
def test_backward_frees_a_node_output_before_a_vjp_that_does_not_read_it(make, reads_output):
    rng = RngState(13)
    x, w = nm.Parameter(rng.normal((5, 4)), "x"), nm.Parameter(rng.normal((4, 3)), "w")
    c = rng.normal((5, 3))
    tape = nm.Tape()
    seen = []
    with tape:
        out = make(x, w)
        ref, node = weakref.ref(out.value), tape.nodes[-1]
        real_vjp = node.vjp

        def vjp(g):
            seen.append(ref() is None)
            return real_vjp(g)

        node.vjp = vjp
        del node
        loss = nm.sum_all(nm.mul(out, c))
    del out  # the next node, mul, keeps it until its VJP has run
    grads = nm.backward(tape, loss)
    assert seen == [not reads_output]
    assert set(grads) == {x, w}
