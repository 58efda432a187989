"""Dense matrix arithmetic with reverse-mode differentiation.

Values are 2-D float64 numpy arrays (scalars are 1x1). A ``Tensor`` wraps one
value and nothing else, so what a primitive computes depends only on its
operands' values, never on how they were produced. Primitive operations
compute eagerly and, when a ``Tape`` is active, record a node with the saved
values its backward rule needs. ``backward`` replays the tape once in reverse
and accumulates gradients into every ``Parameter`` reached from the loss.
Without an active tape the same functions run as plain numpy, which is how
evaluation-mode passes avoid the recording cost.

Targets that must not receive gradients (sharpened distributions,
pseudo-labels) are passed around as raw numpy arrays; only ``Tensor``
operands ever join the tape, so detachment is structural rather than
policed.

Tapes and Parameters belong to one training thread; plain values (and the
CSR operators) are immutable after construction and safe to share read-only.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError, ParameterError, ShapeError
from .rng import RngState
from .sparse import CsrMatrix

Array = np.ndarray


def _as_value(x) -> Array:
    if isinstance(x, Tensor):
        return x.value
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1, 1)
    if v.ndim != 2:
        raise ShapeError(f"expected a 2-D value, got shape {v.shape}")
    return v


def _require_finite(v: Array, what: str) -> None:
    if not np.all(np.isfinite(v)):
        raise NumericError(f"non-finite values in {what}")


class Tensor:
    """A 2-D float64 value, possibly tracked on the active tape."""

    __slots__ = ("value",)

    def __init__(self, value):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        if v.ndim != 2:
            raise ShapeError(f"Tensor must be 2-D, got shape {v.shape}")
        self.value = np.ascontiguousarray(v)

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ContractError(f"item() on non-scalar tensor of shape {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


class Parameter(Tensor):
    """Trainable leaf tensor with a persistent gradient buffer."""

    __slots__ = ("grad", "name")

    def __init__(self, value, name: str):
        super().__init__(value)
        self.name = name
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.value.shape})"


class _Node:
    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out, inputs, vjp):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


_ACTIVE_TAPE = None


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Use as a context manager; operations executed inside the block are
    recorded in topological order. ``backward`` consumes the tape: after the
    sweep the node list is cleared and intermediate values are released.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self):
        return len(self.nodes)


def _record(out: Tensor, inputs: tuple, vjp) -> Tensor:
    tape = _ACTIVE_TAPE
    if tape is not None and any(isinstance(t, Tensor) for t in inputs):
        tape.nodes.append(_Node(out, inputs, vjp))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(parameter) into every Parameter on the tape.

    The loss must be a 1x1 tensor. Each node is visited exactly once in
    reverse topological order; gradients of non-parameter intermediates are
    dropped as soon as their node is processed.
    """
    if loss.value.shape != (1, 1):
        raise ContractError(f"loss must be scalar (1x1), got shape {loss.value.shape}")
    grads: dict[int, Array] = {id(loss): np.ones((1, 1))}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        for t, gt in zip(node.inputs, node.vjp(g)):
            if gt is None or not isinstance(t, Tensor):
                continue
            if isinstance(t, Parameter):
                t.grad += gt
            else:
                key = id(t)
                if key in grads:
                    grads[key] += gt
                else:
                    grads[key] = gt
    tape.nodes.clear()


# ---------------------------------------------------------------------------
# primitive operations


def matmul(a, b) -> Tensor:
    va, vb = _as_value(a), _as_value(b)
    if va.shape[1] != vb.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {va.shape} @ {vb.shape}")
    out = Tensor(va @ vb)

    def vjp(g):
        return (g @ vb.T if isinstance(a, Tensor) else None,
                va.T @ g if isinstance(b, Tensor) else None)

    return _record(out, (a, b), vjp)


def sparse_dense_matmul(s: CsrMatrix, b) -> Tensor:
    """Product of a constant CSR left operand with a dense right operand."""
    vb = _as_value(b)
    out = Tensor(s.matmul_dense(vb))

    def vjp(g):
        return (s.transpose().matmul_dense(g) if isinstance(b, Tensor) else None,)

    return _record(out, (b,), vjp)


def appnp_propagate(s: CsrMatrix, z, alpha: float, hops: int) -> Tensor:
    """``hops`` steps of h <- (1-alpha) s h + alpha z from h = z, as one tape node.

    Each step computes ``s h * (1-alpha) + z * alpha``, the same expression
    as the unrolled ``sparse_dense_matmul``/``scale``/``add`` chain, so the
    value is bitwise equal to it. The result is linear in z, and its VJP runs
    the same recurrence on the incoming gradient with the transpose of s:
    u <- (1-alpha) s^T u + alpha g from u = g. The node keeps only s and z.
    """
    vz = _as_value(z)
    c, a = 1.0 - float(alpha), float(alpha)
    az = vz * a
    h = vz
    for _ in range(hops):
        h = s.matmul_dense(h) * c + az
    out = Tensor(h)

    def vjp(g):
        st, ag = s.transpose(), g * a
        u = g
        for _ in range(hops):
            u = st.matmul_dense(u) * c + ag
        return (u,)

    return _record(out, (z,), vjp)


def transpose(x) -> Tensor:
    v = _as_value(x)
    out = Tensor(v.T)
    return _record(out, (x,), lambda g: (g.T,))


def add(a, b) -> Tensor:
    va, vb = _as_value(a), _as_value(b)
    if va.shape != vb.shape:
        raise ShapeError(f"add shape mismatch: {va.shape} vs {vb.shape}")
    out = Tensor(va + vb)
    return _record(out, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    va, vb = _as_value(a), _as_value(b)
    if va.shape != vb.shape:
        raise ShapeError(f"sub shape mismatch: {va.shape} vs {vb.shape}")
    out = Tensor(va - vb)
    return _record(out, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    """Elementwise product; either operand may be a constant array."""
    va, vb = _as_value(a), _as_value(b)
    if va.shape != vb.shape:
        raise ShapeError(f"mul shape mismatch: {va.shape} vs {vb.shape}")
    out = Tensor(va * vb)
    return _record(out, (a, b), lambda g: (g * vb, g * va))


def scale(x, c: float) -> Tensor:
    v = _as_value(x)
    c = float(c)
    out = Tensor(v * c)
    return _record(out, (x,), lambda g: (g * c,))


def add_scalar(x, c: float) -> Tensor:
    v = _as_value(x)
    out = Tensor(v + float(c))
    return _record(out, (x,), lambda g: (g,))


def add_bias(x, bias) -> Tensor:
    """Add a 1 x d row vector to every row of x."""
    v, vb = _as_value(x), _as_value(bias)
    if vb.shape != (1, v.shape[1]):
        raise ShapeError(f"bias shape {vb.shape} does not broadcast over {v.shape}")
    out = Tensor(v + vb)
    return _record(out, (x, bias), lambda g: (g, g.sum(axis=0, keepdims=True)))


def relu(x) -> Tensor:
    v = _as_value(x)
    out = Tensor(np.maximum(v, 0.0))
    mask = v > 0.0
    return _record(out, (x,), lambda g: (g * mask,))


def softmax_rows(x) -> Tensor:
    """Row-wise softmax, stabilized by subtracting the per-row maximum."""
    v = _as_value(x)
    _require_finite(v, "softmax_rows input")
    shifted = v - v.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return _record(out, (x,), vjp)


def log_softmax_rows(x) -> Tensor:
    v = _as_value(x)
    _require_finite(v, "log_softmax_rows input")
    shifted = v - v.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Tensor(shifted - lse)
    p = np.exp(out.value)

    def vjp(g):
        return (g - p * g.sum(axis=1, keepdims=True),)

    return _record(out, (x,), vjp)


def log_elementwise(x) -> Tensor:
    """Elementwise natural log; entries must be strictly positive.

    Log-probabilities of a categorical head come from ``log_softmax_rows`` of
    its logits, which never sees an underflowed zero probability.
    """
    v = _as_value(x)
    if v.size and v.min() <= 0.0:
        raise NumericError("log_elementwise requires strictly positive entries")
    out = Tensor(np.log(v))
    return _record(out, (x,), lambda g: (g / v,))


def dropout(x, p: float, rng: RngState, training: bool) -> Tensor:
    """Inverted dropout: zero entries with probability p, scale survivors by 1/(1-p)."""
    if not (0.0 <= p < 1.0):
        raise ParameterError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x if isinstance(x, Tensor) else Tensor(_as_value(x))
    v = _as_value(x)
    keep = (rng.uniform(v.shape) >= p) / (1.0 - p)
    out = Tensor(v * keep)
    return _record(out, (x,), lambda g: (g * keep,))


def column_l2_normalize(x, guard: float = 1e-12) -> Tensor:
    """Scale every column to unit Euclidean norm; all-zero columns pass through."""
    v = _as_value(x)
    norms = np.sqrt((v * v).sum(axis=0, keepdims=True))
    active = norms >= guard
    safe = np.where(active, norms, 1.0)
    y = v / safe
    out = Tensor(y)

    def vjp(g):
        coef = (y * g).sum(axis=0, keepdims=True)
        return ((g - y * coef * active) / safe,)

    return _record(out, (x,), vjp)


def frobenius_sq_diff(x, y) -> Tensor:
    """Scalar squared Frobenius norm of (x - y)."""
    vx, vy = _as_value(x), _as_value(y)
    if vx.shape != vy.shape:
        raise ShapeError(f"frobenius_sq_diff shape mismatch: {vx.shape} vs {vy.shape}")
    d = vx - vy
    out = Tensor(np.array([[float((d * d).sum())]]))

    def vjp(g):
        gs = g[0, 0]
        return (2.0 * gs * d if isinstance(x, Tensor) else None,
                -2.0 * gs * d if isinstance(y, Tensor) else None)

    return _record(out, (x, y), vjp)


def pairwise_sqdist(h, c) -> Tensor:
    """n x K matrix of squared Euclidean distances between rows of h and rows of c."""
    vh, vc = _as_value(h), _as_value(c)
    if vh.shape[1] != vc.shape[1]:
        raise ShapeError(f"pairwise_sqdist dimension mismatch: {vh.shape} vs {vc.shape}")
    d = (vh * vh).sum(axis=1, keepdims=True) + (vc * vc).sum(axis=1) - 2.0 * (vh @ vc.T)
    np.maximum(d, 0.0, out=d)
    out = Tensor(d)

    def vjp(g):
        gh = 2.0 * (vh * g.sum(axis=1, keepdims=True) - g @ vc) if isinstance(h, Tensor) else None
        gc = 2.0 * (vc * g.sum(axis=0)[:, None] - g.T @ vh) if isinstance(c, Tensor) else None
        return (gh, gc)

    return _record(out, (h, c), vjp)


def reciprocal(x) -> Tensor:
    v = _as_value(x)
    if v.size and np.abs(v).min() == 0.0:
        raise NumericError("reciprocal of zero entry")
    out = Tensor(1.0 / v)
    return _record(out, (x,), lambda g: (-g / (v * v),))


def row_normalize(x) -> Tensor:
    """Divide every row by its sum; rows must have positive sums."""
    v = _as_value(x)
    s = v.sum(axis=1, keepdims=True)
    if v.size and s.min() <= 0.0:
        raise NumericError("row_normalize requires positive row sums")
    y = v / s
    out = Tensor(y)

    def vjp(g):
        return ((g - (g * y).sum(axis=1, keepdims=True)) / s,)

    return _record(out, (x,), vjp)


def take_rows(x, idx) -> Tensor:
    """Gather rows by index; backward scatter-adds into the source rows."""
    v = _as_value(x)
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(v[idx])

    def vjp(g):
        gx = np.zeros_like(v)
        np.add.at(gx, idx, g)
        return (gx,)

    return _record(out, (x,), vjp)


def sum_all(x) -> Tensor:
    v = _as_value(x)
    out = Tensor(np.array([[float(v.sum())]]))
    return _record(out, (x,), lambda g: (np.full_like(v, g[0, 0]),))


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    """First/second moment buffers and the step counter for a parameter set.

    The constructor rejects duplicate parameter names. A parameter that joins
    later (the centroids, seeded after warmup) gets zero moments the first
    time ``adam_step`` sees it, and its update is bias-corrected with the
    shared step count.
    """

    def __init__(self, params, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        params = list(params)
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ContractError("parameter names must be unique")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}


def adam_step(params, state: AdamState, lr: float, weight_decay: float = 0.0) -> None:
    """One Adam update with decoupled weight decay, applied in place.

    Weight decay shrinks the value before the moment-based step, so it does
    not enter the moment estimates.
    """
    params = list(params)
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p in params:
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {p.name!r} at step {t}")
        if weight_decay:
            p.value *= 1.0 - lr * weight_decay
        if p.name not in state.m:
            state.m[p.name] = np.zeros_like(p.value)
            state.v[p.name] = np.zeros_like(p.value)
        m, v = state.m[p.name], state.v[p.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        p.value -= lr * mhat / (np.sqrt(vhat) + state.eps)
