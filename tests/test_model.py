import tracemalloc

import numpy as np
import pytest

import ncgc.numerics as nm
from ncgc.errors import ContractError, IngestionError, ParameterError, ShapeError
from ncgc.graph import Graph, normalized_adjacency
from ncgc.model import (
    backbone_propagate, forward, init_params, input_transform,
    load_checkpoint, save_checkpoint, soc_penalty, sogn_layer,
)
from ncgc.rng import RngState
from ncgc.sparse import CsrMatrix
from ncgc.synth import make_sbm
from ncgc.trainer import HyperParams
from gradcheck import check_gradients, tape_value_and_grads, trial_rng
from oracles import input_chain, loop_free_adjacency, loop_soc_penalty, rel_error, sogn_chain


def small_graph(seed=0, n_per=3, k=2, d=4):
    g = make_sbm([n_per] * k, 0.8, 0.2, feature_dim=d, rng=RngState(seed))
    return g, normalized_adjacency(g)


def forward_probs(g, at, params, cfg, rng, training):
    """Embedding H and predictions Y', the row-wise softmax of the logits."""
    h, logits = forward(g.features, at, params, cfg, rng, training=training)
    return h, nm.softmax_rows(logits)


def dense_layer_oracle(h, w, at_dense, beta, activation=True):
    z = h @ w
    norms = np.sqrt((z * z).sum(axis=0, keepdims=True))
    zn = z / np.where(norms < 1e-12, 1.0, norms)
    out = at_dense @ z - beta * (zn @ (zn.T @ z))
    return np.maximum(out, 0.0) if activation else out


# ---------------------------------------------------------------------------
# initialization


def test_init_params_deterministic_and_glorot_bounded():
    cfg = HyperParams(layers=2, hidden=8)
    a = init_params(cfg, input_dim=5, class_count=3, rng=RngState(42))
    b = init_params(cfg, input_dim=5, class_count=3, rng=RngState(42))
    for pa, pb in zip(a.all_parameters(), b.all_parameters()):
        assert np.array_equal(pa.value, pb.value)
    w0 = a.input_weights[0][0].value
    bound = np.sqrt(6.0 / (5 + 8))
    assert np.abs(w0).max() <= bound
    assert np.abs(w0).max() > 0.5 * bound  # actually spread out
    assert np.array_equal(a.input_weights[0][1].value, np.zeros((1, 8)))


def test_proto_head_shape():
    cfg = HyperParams(layers=3, hidden=512)
    params = init_params(cfg, input_dim=1433, class_count=7, rng=RngState(0))
    assert params.w_proto.value.shape == (512, 7)


def test_input_transform_variants():
    # one map (linear) up to 3 layers, two (mlp) beyond
    for layers, maps in ((1, 1), (2, 1), (3, 1), (4, 2), (5, 2)):
        cfg = HyperParams(layers=layers, hidden=6)
        params = init_params(cfg, input_dim=5, class_count=2, rng=RngState(1))
        assert len(params.input_weights) == maps, layers


def test_config_validation():
    with pytest.raises(ParameterError):
        HyperParams(backbone="gat")
    with pytest.raises(ParameterError):
        HyperParams(layers=0)
    with pytest.raises(ParameterError):
        HyperParams(dropout=1.0)
    with pytest.raises(ParameterError):
        HyperParams(appnp_alpha=0.0)


# ---------------------------------------------------------------------------
# backbone propagation


def test_gcn_on_identity_adjacency_is_identity():
    z = RngState(2).normal((4, 3))
    out = backbone_propagate(CsrMatrix.identity(4), z, HyperParams(backbone="gcn"))
    assert np.array_equal(out, z)


def test_appnp_alpha_one_is_identity():
    g, at = small_graph()
    z = RngState(3).normal((g.n, 3))
    out = backbone_propagate(at, z.copy(), HyperParams(backbone="appnp", appnp_alpha=1.0,
                                                       appnp_hops=5))
    assert np.allclose(out, z, atol=1e-15)


def test_appnp_two_hops_matches_polynomial():
    # triangle graph, alpha=0.2: coefficients a, a(1-a), (1-a)^2 on A^0, A^1, A^2
    adj = CsrMatrix.from_coo(3, 3, [0, 1, 0, 2, 1, 2], [1, 0, 2, 0, 2, 1], np.ones(6))
    feats = np.zeros((3, 1))
    g = Graph(n=3, m=3, adjacency=adj, features=CsrMatrix.from_dense(feats),
              labels=np.full(3, -1), class_count=2)
    at = loop_free_adjacency(g)
    a_dense = at.to_dense()
    z = RngState(4).normal((3, 2))
    alpha = 0.2
    expected = (alpha * z
                + alpha * (1 - alpha) * a_dense @ z
                + (1 - alpha) ** 2 * a_dense @ a_dense @ z)
    out = backbone_propagate(at, z, HyperParams(backbone="appnp",
                                                appnp_alpha=alpha, appnp_hops=2))
    assert np.allclose(out, expected, atol=1e-12)


def test_appnp_layer_tape_nodes_do_not_grow_with_hops():
    g, at = small_graph(seed=4)
    rng = RngState(5)
    h = nm.Tensor(rng.normal((g.n, 4)))
    w = nm.Parameter(rng.normal((4, 4)), name="w")
    counts = []
    for hops in (1, 10):
        tape = nm.Tape()
        with tape:
            sogn_layer(h, w, at, HyperParams(backbone="appnp", appnp_hops=hops),
                       RngState(6), training=True)
        counts.append(len(tape))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("backbone", ["gcn", "appnp"])
@pytest.mark.parametrize("beta", [0.0, 0.01])
@pytest.mark.parametrize("training", [False, True])
def test_sogn_layer_records_one_tape_node(backbone, beta, training):
    g, at = small_graph(seed=4)
    rng = RngState(5)
    h = nm.Tensor(rng.normal((g.n, 4)))
    w = nm.Parameter(rng.normal((4, 4)), name="w")
    cfg = HyperParams(backbone=backbone, beta=beta, dropout=0.3, appnp_hops=3)

    def tape_nodes(layer):
        tape = nm.Tape()
        with tape:
            layer(h, w, at, cfg, RngState(6), training=training)
        return len(tape)

    assert tape_nodes(sogn_layer) == 1
    # the chain it fuses: dropout (when training), matmul, propagation,
    # correction and sub (when beta > 0), relu
    assert tape_nodes(sogn_chain) == 3 + training + 2 * (beta > 0)


# ---------------------------------------------------------------------------
# layer


def test_layer_beta_zero_reduces_to_plain_gcn():
    g, at = small_graph(seed=5)
    rng = RngState(6)
    h = nm.Tensor(rng.normal((g.n, 4)))
    w = nm.Parameter(rng.normal((4, 4)), name="w")
    out = sogn_layer(h, w, at, HyperParams(beta=0.0), rng, training=False)
    expected = np.maximum(at.to_dense() @ h.value @ w.value, 0.0)
    assert np.allclose(out.value, expected, atol=1e-14)


def test_layer_orthonormal_z_correction_is_beta_z():
    g, at = small_graph(seed=7)
    q = np.linalg.qr(RngState(8).normal((g.n, 3)))[0]
    w = nm.Parameter(np.eye(3), name="w")  # Z = H W = Q, already orthonormal columns
    beta = 0.37
    out = sogn_layer(nm.Tensor(q), w, at, HyperParams(beta=beta),
                     RngState(9), training=False, activation=False)
    expected = at.to_dense() @ q - beta * q
    assert np.allclose(out.value, expected, atol=1e-12)


def test_layer_matches_dense_oracle():
    g, at = small_graph(seed=10, n_per=3, k=2)  # 5-node-scale instance
    rng = RngState(11)
    h = rng.normal((g.n, 4))
    w = nm.Parameter(rng.normal((4, 4)), name="w")
    out = sogn_layer(nm.Tensor(h), w, at, HyperParams(beta=0.005),
                     rng, training=False)
    expected = dense_layer_oracle(h, w.value, at.to_dense(), 0.005)
    assert np.allclose(out.value, expected, atol=1e-12)


def test_correction_term_associativity():
    rng = RngState(12)
    for _ in range(5):
        z = rng.normal((7, 3))
        norms = np.linalg.norm(z, axis=0, keepdims=True)
        zn = z / norms
        assert np.allclose(zn @ (zn.T @ z), (zn @ zn.T) @ z, atol=1e-10)


@pytest.mark.parametrize("backbone", ["gcn", "appnp"])
@pytest.mark.parametrize("beta", [0.0, 0.3])
@pytest.mark.parametrize("dropout", [0.0, 0.4])
@pytest.mark.parametrize("activation", [False, True])
@pytest.mark.usefixtures("tape_guard")
def test_fused_layer_gradcheck_and_chain_on_normalized_adjacency(backbone, beta, dropout,
                                                                 activation):
    # the layer's VJP propagates with A~ itself, the adjoint only because
    # normalized_adjacency builds A~ symmetric; the chain's VJPs use the transpose
    cfg = HyperParams(backbone=backbone, beta=beta, dropout=dropout,
                      appnp_alpha=0.3, appnp_hops=3)
    for trial in range(5):
        rng = trial_rng(f"sogn_layer-{backbone}-{beta}-{dropout}-{activation}", trial)
        at = normalized_adjacency(make_sbm([3, 3], 0.6, 0.3, feature_dim=1, rng=rng))
        c = rng.normal((6, 3))
        seed = int(rng.integers(0, 2 ** 31))
        arrays = [rng.normal((6, 4)), rng.normal((4, 3))]

        def build(layer):
            return lambda h, w: nm.sum_all(nm.mul(
                layer(h, w, at, cfg, RngState(seed), True, activation), c))

        check_gradients(build(sogn_layer), arrays)
        fused, chain = (tape_value_and_grads(build(layer), arrays)
                        for layer in (sogn_layer, sogn_chain))
        assert fused[0] == chain[0]
        for g_fused, g_chain in zip(fused[1], chain[1]):
            assert np.array_equal(g_fused, g_chain)
        outputs = [layer(nm.Tensor(arrays[0]), arrays[1], at, cfg, RngState(seed), True,
                         activation).value for layer in (sogn_layer, sogn_chain)]
        assert np.array_equal(*outputs)


@pytest.mark.parametrize("layers, transform", [(2, "linear"), (4, "mlp")])
def test_input_transform_one_node_per_map_equals_chain(layers, transform):
    # linear: the sparse map alone; mlp: the sparse map, then the dense one
    g, _ = small_graph(seed=27, n_per=5, k=2, d=6)
    cfg = HyperParams(layers=layers, hidden=5)
    params = init_params(cfg, g.feature_dim, g.class_count, RngState(28))
    maps = len(params.input_weights)
    assert maps == (1 if transform == "linear" else 2)
    rng = RngState(29)
    for _, b in params.input_weights:
        b.value = rng.normal(b.value.shape)
    c = rng.normal((g.n, 5))

    def chain(x, p):
        for w, b in p.input_weights:
            x = input_chain(x, w, b)
        return x

    def run(transform_fn):
        tape = nm.Tape()
        with tape:
            h = transform_fn(g.features, params)
            nodes = len(tape)
            loss = nm.sum_all(nm.mul(h, c))
        grads = nm.backward(tape, loss)
        return h.value, nodes, [grads[p] for w_b in params.input_weights for p in w_b]

    fused, chained = run(input_transform), run(chain)
    assert (fused[1], chained[1]) == (maps, 3 * maps)
    assert (fused[0] == 0.0).any() and (fused[0] > 0.0).any()  # the ReLU bites
    assert np.array_equal(fused[0], chained[0])
    for g_fused, g_chain in zip(fused[2], chained[2]):
        assert np.array_equal(g_fused, g_chain)
    assert all(np.any(g != 0.0) for g in fused[2])


def _ring_operator(n: int, rng: RngState) -> CsrMatrix:
    """An n x n operator with three stored entries a row, at offsets 0, 1 and 7."""
    ring = np.arange(n)
    rows = np.repeat(ring, 3)
    cols = np.stack([ring, (ring + 1) % n, (ring + 7) % n], axis=1).reshape(-1)
    return CsrMatrix.from_coo(n, n, rows, cols, rng.uniform((3 * n,), 0.1, 0.4))


def _layer_vjp_high_water(backbone, beta, activation=True, n=4000, d=32):
    """Peak bytes the VJP of one training-mode layer with dropout 0.5 allocates
    above its entry, in n x d float64 arrays, the returned gradients included."""
    rng = RngState(21)
    at = _ring_operator(n, rng)
    cfg = HyperParams(backbone=backbone, beta=beta, dropout=0.5, appnp_hops=10)
    h = nm.Tensor(rng.normal((n, d)))
    w = nm.Parameter(rng.normal((d, d)) * 0.2, name="w")
    tape = nm.Tape()
    with tape:
        sogn_layer(h, w, at, cfg, RngState(22), training=True, activation=activation)
    (node,) = tape.nodes
    g = rng.normal((n, d))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = node.vjp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads[0].shape == (n, d) and grads[1].shape == (d, d)
    return (peak - entry) / (n * d * 8)


@pytest.mark.parametrize("hops, arrays", [(1, 1), (10, 2)])
def test_appnp_propagate_allocates_no_array_per_hop(hops, arrays):
    # the first hop writes one new n x d array and later hops alternate
    # between it and one more; the step operator's values, nnz floats, are
    # the only other allocation, whatever the hop count
    n, d = 4000, 32
    rng = RngState(23)
    at = _ring_operator(n, rng)
    z = rng.normal((n, d))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = backbone_propagate(at, z, HyperParams(backbone="appnp", appnp_hops=hops))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, d)
    assert peak - entry <= arrays * n * d * 8 + at.nnz * 8 + 16 * 1024


@pytest.mark.parametrize("beta, bound", [(0.0, 2.5), (0.3, 3.5)], ids=["0.0", "0.3"])
@pytest.mark.usefixtures("tape_guard")
def test_appnp_layer_vjp_high_water_mark(beta, bound):
    # 10 hops, dropout 0.5: the ReLU masks the gradient in place, the adjoint
    # scales the gradient in place into its alpha term, so a hop holds two
    # n x d arrays (2.07); with the correction, the recomputed Z is freed
    # before the hops start and the correction's gradient lives through them
    # (3.00); no negated copy of the gradient
    assert _layer_vjp_high_water("appnp", beta) <= bound


@pytest.mark.parametrize("beta, activation, bound", [
    (0.3, True, 2.5), (0.3, False, 2.5), (0.0, True, 2.5), (0.0, False, 2.5)])
@pytest.mark.usefixtures("tape_guard")
def test_gcn_layer_vjp_high_water_mark(beta, activation, bound):
    # Z is recomputed, its term Z (Gbar + Gbar^T) built and Z freed before
    # g M^T is added, then comes the one adjoint product; the ReLU and dropout
    # apply their boolean masks in place, with no float copy of either: two
    # n x d arrays at once (2.07)
    assert _layer_vjp_high_water("gcn", beta, activation) <= bound


@pytest.mark.parametrize("backbone", ["gcn", "appnp"])
@pytest.mark.parametrize("beta", [0.0, 0.3])
@pytest.mark.parametrize("activation", [False, True])
def test_layer_node_keeps_no_z(backbone, beta, activation):
    # the VJP recomputes Z where the correction's gradient reads it, so at
    # every beta it holds no n x d float array but h's value and, with the
    # ReLU, the output
    n, d = 40, 6
    rng = RngState(44)
    at = CsrMatrix.from_dense(rng.normal((n, n)) * (rng.uniform((n, n)) < 0.2))
    h = nm.Tensor(rng.normal((n, d)))
    w = nm.Parameter(rng.normal((d, d)), name="w")
    cfg = HyperParams(backbone=backbone, beta=beta, dropout=0.5, appnp_hops=3)
    tape = nm.Tape()
    with tape:
        out = sogn_layer(h, w, at, cfg, RngState(45), training=True, activation=activation)
    (node,) = tape.nodes
    held = [cell.cell_contents for cell in node.vjp.__closure__]
    held += [t.value for t in held if isinstance(t, nm.Tensor)]
    float_nd = {id(v) for v in held
                if isinstance(v, np.ndarray) and v.shape == (n, d) and v.dtype.kind == "f"}
    assert float_nd == {id(h.value)} | ({id(out.value)} if activation else set())


def _training_step_peak(n=4000, d=32, layers=3):
    """Peak bytes one training step allocates above its entry, in n x d float64
    arrays: the forward of a gcn with beta 0.3 and dropout 0.5 on a ring graph,
    ``nm.backward`` and ``nm.adam_step``."""
    rng = RngState(51)
    ring = np.arange(n)
    rows = np.repeat(ring, 3)
    cols = np.stack([ring, (ring + 1) % n, (ring + 7) % n], axis=1).reshape(-1)
    at = CsrMatrix.from_coo(n, n, rows, cols, rng.uniform((3 * n,), 0.1, 0.4))
    x = CsrMatrix.from_dense(rng.normal((n, 16)) * (rng.uniform((n, 16)) < 0.2))
    cfg = HyperParams(layers=layers, hidden=d, beta=0.3, dropout=0.5)
    params = init_params(cfg, 16, 3, RngState(52))
    c = rng.normal((n, 3))
    adam = nm.AdamState()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape = nm.Tape()
        with tape:
            _, logits = forward(x, at, params, cfg, RngState(53), training=True)
            loss = nm.sum_all(nm.mul(logits, c))
        nm.adam_step(params.all_parameters(), nm.backward(tape, loss), adam, 0.01, 5e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert adam.step == 1 and np.isfinite(params.w_proto.value).all()
    return (peak - entry) / (n * d * 8)


@pytest.mark.usefixtures("tape_guard")
def test_training_step_high_water_mark():
    # the peak comes in the first layer VJP the backward runs: the tape still
    # holds the input transform's and every layer's output (4.6 arrays after
    # the forward, with the masks and the head) and that VJP adds about 3
    # (7.58); a tape that also kept each layer's Z peaked 3 arrays higher (10.58)
    assert _training_step_peak() <= 9.0


@pytest.mark.parametrize("backbone", ["gcn", "appnp"])
@pytest.mark.parametrize("activation", [False, True])
def test_fused_layer_dropout_keeps_the_chain_bits_on_special_values(backbone, activation):
    # The layer applies the boolean mask before the 1/(1-p) scale, so a dropped
    # entry is v * 0.0 as in the chain's v * (mask / (1 - p)): -0.0 stays -0.0,
    # +-inf and NaN give NaN, and 1.7e308 gives 0 where scaling it first would
    # overflow to inf. np.array_equal would miss signed zeros and NaN, so the
    # bytes are compared. With beta 0 and a diagonal propagation the rows stay
    # apart; the correction's Gram matrix would spread a NaN over every entry.
    specials = [-0.0, np.inf, -np.inf, np.nan, 1.7e308, -1.7e308]
    n, seed = 48, 5
    rng = RngState(43)
    h, w, c = rng.normal((n, 3)), rng.normal((3, 4)), rng.normal((n, 4))
    h[:n // 2, 0] = np.resize(specials, n // 2)  # in the input, one per row
    c[n // 2:, 0] = np.resize(specials, n // 2)  # in the gradient of the output
    mask = RngState(seed).uniform(h.shape) >= 0.5
    big = np.abs(h) == 1.7e308
    assert (big & mask).any() and (big & ~mask).any()
    at = CsrMatrix.from_dense(np.diag(rng.uniform((n,), 0.5, 1.5)))
    cfg = HyperParams(backbone=backbone, beta=0.0, dropout=0.5, appnp_hops=3)
    results = []
    for layer in (sogn_layer, sogn_chain):
        params = [nm.Parameter(h.copy(), name="h"), nm.Parameter(w.copy(), name="w")]
        tape = nm.Tape()
        with np.errstate(all="ignore"):
            with tape:
                out = layer(*params, at, cfg, RngState(seed), True, activation)
                loss = nm.sum_all(nm.mul(out, c))
            grads = nm.backward(tape, loss)
        results.append([out.value.tobytes()] + [grads[p].tobytes() for p in params])
        assert np.isfinite(out.value[(big & ~mask).any(axis=1)]).all()
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# forward


def test_forward_rows_sum_to_one_and_shapes():
    for layers, backbone in [(1, "gcn"), (2, "gcn"), (4, "appnp")]:
        cfg = HyperParams(layers=layers, hidden=6, backbone=backbone,
                         dropout=0.3, appnp_hops=3)
        g, at = small_graph(seed=13)
        params = init_params(cfg, g.feature_dim, g.class_count, RngState(14))
        h, y = forward_probs(g, at, params, cfg, RngState(15), training=True)
        assert h.value.shape == (g.n, 6)
        assert y.value.shape == (g.n, g.class_count)
        assert np.abs(y.value.sum(axis=1) - 1.0).max() < 1e-12


def test_forward_eval_mode_deterministic():
    cfg = HyperParams(layers=2, hidden=5, dropout=0.8)
    g, at = small_graph(seed=16)
    params = init_params(cfg, g.feature_dim, g.class_count, RngState(17))
    h1, y1 = forward_probs(g, at, params, cfg, RngState(1), training=False)
    h2, y2 = forward_probs(g, at, params, cfg, RngState(2), training=False)
    assert np.array_equal(h1.value, h2.value)
    assert np.array_equal(y1.value, y2.value)


def test_forward_one_layer_composition_oracle():
    # identity-like input transform: square weight = I, zero bias, nonneg features
    g0, at = small_graph(seed=18, d=5)
    feats = np.abs(g0.features.to_dense())
    g = Graph(n=g0.n, m=g0.m, adjacency=g0.adjacency, features=CsrMatrix.from_dense(feats),
              labels=g0.labels, class_count=g0.class_count)
    cfg = HyperParams(layers=1, hidden=5, beta=0.0, dropout=0.0)
    params = init_params(cfg, 5, g.class_count, RngState(19))
    params.input_weights[0][0].value = np.eye(5)
    h, y = forward_probs(g, at, params, cfg, RngState(20), training=False)
    # final layer carries no activation, so H = A X W and Y' = softmax(H Wp)
    h_expected = at.to_dense() @ feats @ params.layer_weights[0].value
    logits = h_expected @ params.w_proto.value
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.allclose(h.value, h_expected, atol=1e-12)
    assert np.allclose(y.value, e / e.sum(axis=1, keepdims=True), atol=1e-12)


def test_forward_beta_zero_equivalence_any_config():
    for seed in range(3):
        g, at = small_graph(seed=21 + seed)
        cfg = HyperParams(layers=2, hidden=4, beta=0.0, dropout=0.0)
        params = init_params(cfg, g.feature_dim, g.class_count, RngState(seed))
        h, _ = forward_probs(g, at, params, cfg, RngState(0), training=False)
        # plain-backbone composition without any correction-term code path
        x = g.features.to_dense()
        w0, b0 = params.input_weights[0]
        h_ref = np.maximum(x @ w0.value + b0.value, 0.0)
        a_dense = at.to_dense()
        h_ref = np.maximum(a_dense @ h_ref @ params.layer_weights[0].value, 0.0)
        h_ref = a_dense @ h_ref @ params.layer_weights[1].value
        assert np.allclose(h.value, h_ref, atol=1e-12)


def test_forward_gradients_match_finite_differences():
    g, at = small_graph(seed=24, n_per=4, k=2, d=3)
    cfg = HyperParams(layers=2, hidden=4, beta=0.01, dropout=0.0)
    params = init_params(cfg, g.feature_dim, g.class_count, RngState(25))
    rng = RngState(26)
    cy = rng.normal((g.n, g.class_count))
    ch = rng.normal((g.n, 4))

    def loss_value():
        h, y = forward_probs(g, at, params, cfg, RngState(0), training=False)
        return float((y.value * cy).sum() + (h.value * ch).sum())

    tape = nm.Tape()
    with tape:
        h, y = forward_probs(g, at, params, cfg, RngState(0), training=False)
        loss = nm.add(nm.sum_all(nm.mul(y, cy)), nm.sum_all(nm.mul(h, ch)))
    grads = nm.backward(tape, loss)

    step = 1e-5
    for p in params.all_parameters():
        fd = np.zeros_like(p.value)
        for idx in np.ndindex(p.value.shape):
            orig = p.value[idx]
            p.value[idx] = orig + step
            fp = loss_value()
            p.value[idx] = orig - step
            fm = loss_value()
            p.value[idx] = orig
            fd[idx] = (fp - fm) / (2 * step)
        assert rel_error(grads[p], fd) < 1e-4, p.name


def test_sparse_feature_path_matches_dense_composition():
    # wide sparse attributes, as real datasets have, through the CSR input product
    rng = RngState(70)
    n, d = 300, 400
    feats = rng.normal((n, d)) * (rng.uniform((n, d)) < 0.02)
    g0 = make_sbm([n // 2, n // 2], 0.05, 0.01, feature_dim=1, rng=RngState(71))
    x = CsrMatrix.from_dense(feats)
    g = Graph(n=n, m=g0.m, adjacency=g0.adjacency, features=x,
              labels=g0.labels, class_count=2)
    at = normalized_adjacency(g)
    cfg = HyperParams(layers=1, hidden=8, beta=0.0, dropout=0.0)
    params = init_params(cfg, d, 2, RngState(72))
    h, _ = forward(x, at, params, cfg, RngState(0), training=False)
    w0, b0 = params.input_weights[0]
    h_ref = np.maximum(feats @ w0.value + b0.value, 0.0)
    h_ref = at.to_dense() @ h_ref @ params.layer_weights[0].value
    assert np.allclose(h.value, h_ref, atol=1e-12)


# ---------------------------------------------------------------------------
# SOC penalty


def test_soc_penalty_orthonormal_and_scaled():
    q = np.linalg.qr(RngState(27).normal((8, 3)))[0]
    assert soc_penalty(q) < 1e-24
    assert soc_penalty(2.0 * q) == pytest.approx(9.0 * 3, rel=1e-12)


def test_soc_penalty_matches_loop_oracle():
    for seed in range(5):
        h = RngState(28 + seed).normal((4, 3))
        assert abs(soc_penalty(h) - loop_soc_penalty(h)) < 1e-12


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    cfg = HyperParams(layers=2, hidden=6)
    params = init_params(cfg, input_dim=4, class_count=3, rng=RngState(29))
    path = tmp_path / "ck.bin"
    save_checkpoint(path, params.named_values())
    loaded = load_checkpoint(path)
    fresh = init_params(cfg, input_dim=4, class_count=3, rng=RngState(999))
    fresh.load_values(loaded)
    for a, b in zip(params.all_parameters(), fresh.all_parameters()):
        assert np.array_equal(a.value, b.value)


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(IngestionError, match="magic"):
        load_checkpoint(p)
    ck = tmp_path / "ok.bin"
    save_checkpoint(ck, {"w": np.ones((2, 2)), "v": np.ones((1, 3))})
    data = ck.read_bytes()
    # a cut anywhere after the magic, inside the header, a name length, a
    # name, a shape or the values, names the end of the file
    for cut in range(4, len(data)):
        ck.write_bytes(data[:cut])
        with pytest.raises(IngestionError, match=f": truncated at byte offset {cut}$"):
            load_checkpoint(ck)


def test_load_values_shape_check(tmp_path):
    cfg = HyperParams(layers=1, hidden=4)
    params = init_params(cfg, input_dim=3, class_count=2, rng=RngState(30))
    bad = params.named_values()
    bad["proto.w"] = np.ones((4, 5))
    with pytest.raises(ShapeError):
        params.load_values(bad)


def test_load_values_rejects_extra_parameter():
    cfg = HyperParams(layers=1, hidden=4)
    params = init_params(cfg, input_dim=3, class_count=2, rng=RngState(30))
    named = params.named_values()
    named["centroids"] = np.zeros((2, 4))  # seeded later; a model without them accepts it
    params.load_values(named)
    named["layer1.w"] = np.zeros((4, 4))
    with pytest.raises(ContractError, match="'layer1.w'"):
        params.load_values(named)
