"""Dense matrix arithmetic with reverse-mode differentiation.

Values are 2-D float64 numpy arrays (scalars are 1x1). A ``Tensor`` wraps one
value and nothing else, so what a primitive computes depends only on its
operands' values, never on how they were produced. Primitive operations
compute eagerly and, when a ``Tape`` is active, record a node with the saved
values its backward rule needs. ``backward`` replays the tape once in reverse
and returns the gradients of the ``Parameter``s reached from the loss, keyed by
the Parameter, for ``adam_step``; no tensor holds a gradient. It takes each
node off the tape and drops it before it runs that node's rule, keeping only
the node's inputs and rule: while a rule runs, the node's output is alive only
if the rule itself saved it, and what processed nodes saved is freed. Rules
save as little as they can; ``affine_relu`` keeps only its output. The model
layer, ``model.sogn_layer``, records its own one-node rule through
``_record``; this module keeps no layer-specific code. Without an active
tape the same functions run as plain numpy, which is how evaluation-mode
passes avoid the recording cost.

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

NORM_GUARD = 1e-12  # columns with a smaller norm are not normalized


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
    """Trainable leaf tensor; ``backward`` returns its gradient, keyed by the object."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(value)
        self.name = name

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
    recorded in topological order. ``backward`` consumes the tape from its
    end, one node at a time, and leaves it empty.
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


def backward(tape: Tape, loss: Tensor) -> dict[Parameter, Array]:
    """d(loss)/d(parameter) for every Parameter the loss reaches, keyed by the Parameter.

    The loss must be a 1x1 tensor. Each node is visited exactly once in
    reverse topological order. It is popped off the tape, its gradient is
    taken out of the working mapping, and the node itself is dropped before
    its VJP runs: only its inputs and its VJP are kept. So while a node's VJP
    runs, what stays alive is the nodes still on the tape (with their outputs
    and saved arrays), the gradients pending for their outputs and the
    Parameters, this node's incoming gradient, and what this VJP closes over;
    the node's own output lives on only if the VJP keeps it or the caller
    holds it. The processed nodes and everything only they saved are gone.
    A VJP owns the gradient it is given and may overwrite it: no other
    gradient and no saved array shares its memory. A Parameter whose node
    gets no gradient has no entry.
    """
    if loss.value.shape != (1, 1):
        raise ContractError(f"loss must be scalar (1x1), got shape {loss.value.shape}")
    grads: dict[Tensor, Array] = {loss: np.ones((1, 1))}
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        g, inputs, vjp = grads.pop(node.out, None), node.inputs, node.vjp
        del node  # and with it the output, unless the VJP keeps it
        if g is not None:
            _accumulate(grads, inputs, vjp(g))
    return {t: g for t, g in grads.items() if isinstance(t, Parameter)}


def _accumulate(grads: dict, inputs: tuple, input_grads) -> None:
    """Add each input's gradient to its entry in ``grads``; the first one is stored as is.

    A function of its own so that the VJP's outputs and the loop variables
    die when it returns, not during the next node's VJP.
    """
    for t, gt in zip(inputs, input_grads):
        if gt is None or not isinstance(t, Tensor):
            continue
        if t in grads:
            grads[t] += gt
        else:
            grads[t] = gt


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
        return (s.transpose_matmul_dense(g) if isinstance(b, Tensor) else None,)

    return _record(out, (b,), vjp)


def transpose(x) -> Tensor:
    v = _as_value(x)
    out = Tensor(v.T)
    return _record(out, (x,), lambda g: (g.T,))


def add(a, b) -> Tensor:
    va, vb = _as_value(a), _as_value(b)
    if va.shape != vb.shape:
        raise ShapeError(f"add shape mismatch: {va.shape} vs {vb.shape}")
    out = Tensor(va + vb)
    # two arrays: backward adds into a gradient in place, so the operands'
    # gradients must not share one
    return _record(out, (a, b), lambda g: (g, g.copy()))


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


def affine_relu(x, w, b) -> Tensor:
    """``relu(x w + b)`` as one tape node; x is a constant CSR matrix or a dense operand.

    Every value and gradient equals that of the ``sparse_dense_matmul`` (or
    ``matmul``), ``add_bias`` and ``relu`` chain, bit for bit. The bias and
    the ReLU run in place on the product, and the node keeps only its
    output: the VJP recomputes the ReLU mask from it and applies it to the
    gradient in place.
    """
    sparse = isinstance(x, CsrMatrix)
    vx = None if sparse else _as_value(x)
    vw, vb = _as_value(w), _as_value(b)
    if not sparse and vx.shape[1] != vw.shape[0]:
        raise ShapeError(f"affine_relu shape mismatch: {vx.shape} @ {vw.shape}")
    y = x.matmul_dense(vw) if sparse else vx @ vw
    if vb.shape != (1, y.shape[1]):
        raise ShapeError(f"bias shape {vb.shape} does not broadcast over {y.shape}")
    y += vb
    np.maximum(y, 0.0, out=y)
    out = Tensor(y)

    def vjp(g):
        np.multiply(g, out.value > 0.0, out=g)
        gx = g @ vw.T if isinstance(x, Tensor) else None
        gw = None
        if isinstance(w, Tensor):
            gw = x.transpose_matmul_dense(g) if sparse else vx.T @ g
        gb = g.sum(axis=0, keepdims=True) if isinstance(b, Tensor) else None
        return gx, gw, gb

    return _record(out, (x, w, b), vjp)


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


def column_l2_normalize(x) -> Tensor:
    """Scale every column to unit Euclidean norm; columns under ``NORM_GUARD`` pass through."""
    v = _as_value(x)
    norms = np.sqrt((v * v).sum(axis=0, keepdims=True))
    active = norms >= NORM_GUARD
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


def sqdist(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """n x K squared Euclidean distances between the rows of arrays x and c,
    clipped at 0 against cancellation; records nothing."""
    d = (x * x).sum(axis=1, keepdims=True) + (c * c).sum(axis=1) - 2.0 * (x @ c.T)
    np.maximum(d, 0.0, out=d)
    return d


def pairwise_sqdist(h, c) -> Tensor:
    """n x K matrix of squared Euclidean distances between rows of h and rows of c."""
    vh, vc = _as_value(h), _as_value(c)
    if vh.shape[1] != vc.shape[1]:
        raise ShapeError(f"pairwise_sqdist dimension mismatch: {vh.shape} vs {vc.shape}")
    out = Tensor(sqdist(vh, vc))

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
    """First/second moment buffers, keyed by the Parameter object, and the step counter.

    A parameter gets zero moments the first time ``adam_step`` sees it, so
    one that joins late (the centroids, seeded after warmup) has its update
    bias-corrected with the shared step count.
    """

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m: dict[Parameter, Array] = {}
        self.v: dict[Parameter, Array] = {}


def adam_step(params, grads: dict[Parameter, Array], state: AdamState, lr: float,
              weight_decay: float = 0.0) -> None:
    """One Adam update with decoupled weight decay, applied in place.

    ``grads`` is ``backward``'s mapping; a parameter missing from it takes
    the zero-gradient step. Weight decay shrinks the value before the
    moment-based step, so it does not enter the moment estimates.
    """
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p in params:
        g = grads.get(p, 0.0)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {p.name!r} at step {t}")
        if weight_decay:
            p.value *= 1.0 - lr * weight_decay
        if p not in state.m:
            state.m[p] = np.zeros_like(p.value)
            state.v[p] = np.zeros_like(p.value)
        m, v = state.m[p], state.v[p]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        p.value -= lr * mhat / (np.sqrt(vhat) + state.eps)
