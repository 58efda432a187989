"""Message-passing model with a soft orthogonality correction.

Each layer computes ``sigma(prop(Z) - beta * Zn (Zn^T Z))`` where
``Z = dropout(H) W``, ``Zn`` is the column-L2-normalized ``Z`` and ``prop``
is a pluggable propagation backbone (one-hop normalized adjacency, or a
truncated personalized-propagation polynomial). A layer is one function,
``sogn_layer``, and records one tape node whatever its backbone, hop count
or correction. The correction uses ``Zn (Zn^T Z) = Z M`` with
``M = beta S^-2 Z^T Z`` and ``S^2`` the squared column norms, so it needs
only the d x d Gram matrix, never the n x n outer product or a normalized
copy of Z. The node keeps the layer input and a boolean dropout mask; M
and ``S^2`` (d x d and d) when beta > 0; and the output only when a ReLU
follows; never Z. When beta > 0 its VJP recomputes Z from the input and the
mask (one n x d x d GEMM more per layer and step, with the forward's bits)
and builds the correction's gradient: the term in Z, after which Z is
freed, plus g M^T. It then runs the backbone's adjoint, the same
recurrence with products by the transpose of the adjacency, which
``CsrMatrix.transpose_matmul_dense`` computes without building that
transpose; the adjoint consumes the gradient. ``beta = 0`` skips the
correction and reduces the layer to the plain backbone exactly.

The input transform maps the features to the hidden width with one or two
ReLU affine maps (``linear`` or ``mlp``), the first from the sparse features.
Each map is one tape node, ``nm.affine_relu``, which keeps only its output.

A shared bias-free prototype head maps the final embedding to class/cluster
logits, the model's one prediction output: losses take their row-wise
log-softmax, and detached probabilities are their row-wise softmax.

The model's settings (backbone, depth, width, beta, dropout, the APPNP
knobs, the input transform) are read from a ``trainer.HyperParams``, which
validates them; every function here that takes a ``config`` takes one.

``ModelParams`` holds every trainable parameter of a run, the clustering
centroids included once they are seeded; a checkpoint is its
``named_values()``.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm
from .errors import ContractError, IngestionError, ParameterError, ShapeError
from .rng import RngState
from .sparse import CsrMatrix

if TYPE_CHECKING:
    from .trainer import HyperParams

BACKBONES = ("gcn", "appnp")


class ModelParams:
    """Trainable weights: input transform, per-layer matrices, prototype head.

    ``centroids`` is the clustering head's ``"centroids"`` parameter, None
    until it is seeded; once set it comes last in ``all_parameters()``.
    ``forward`` does not read it.
    """

    def __init__(self, input_weights, layer_weights, w_proto):
        self.input_weights = list(input_weights)  # [(w, b), ...]
        self.layer_weights = list(layer_weights)
        self.w_proto = w_proto
        self.centroids: nm.Parameter | None = None

    def all_parameters(self) -> list[nm.Parameter]:
        out = []
        for w, b in self.input_weights:
            out += [w, b]
        out += self.layer_weights
        out.append(self.w_proto)
        if self.centroids is not None:
            out.append(self.centroids)
        return out

    def named_values(self) -> dict[str, np.ndarray]:
        return {p.name: p.value.copy() for p in self.all_parameters()}

    def load_values(self, named: dict[str, np.ndarray]) -> None:
        """Copy in a checkpoint, which must hold exactly this model's parameters
        (plus ``centroids`` when the model has none yet)."""
        params = self.all_parameters()
        extra = sorted(set(named) - {p.name for p in params} - {"centroids"})
        if extra:
            raise ContractError(f"checkpoint has unexpected parameter {extra[0]!r}")
        for p in params:
            if p.name not in named:
                raise ContractError(f"checkpoint missing parameter {p.name!r}")
            v = np.asarray(named[p.name], dtype=np.float64)
            if v.shape != p.value.shape:
                raise ShapeError(
                    f"checkpoint shape {v.shape} for {p.name!r}, expected {p.value.shape}")
            p.value = v.copy()


def glorot(shape, rng: RngState) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(shape, -limit, limit)


def init_params(config: HyperParams, input_dim: int, class_count: int,
                rng: RngState) -> ModelParams:
    """Glorot-uniform weights and zero biases, deterministic given the seed."""
    d = config.hidden_dim
    input_weights = []
    dims = [input_dim, d] if config.resolved_input_transform() == "linear" else [input_dim, d, d]
    for i in range(len(dims) - 1):
        w = nm.Parameter(glorot((dims[i], dims[i + 1]), rng), name=f"input.w{i}")
        b = nm.Parameter(np.zeros((1, dims[i + 1])), name=f"input.b{i}")
        input_weights.append((w, b))
    layer_weights = [
        nm.Parameter(glorot((d, d), rng), name=f"layer{i}.w") for i in range(config.layers)
    ]
    w_proto = nm.Parameter(glorot((d, class_count), rng), name="proto.w")
    return ModelParams(input_weights, layer_weights, w_proto)


def backbone_propagate(a_tilde: CsrMatrix, z: np.ndarray, config: HyperParams,
                       adjoint: bool = False) -> np.ndarray:
    """Apply ``config.backbone`` to the n x d array z and return a new array.

    ``gcn`` is a single normalized-adjacency hop. ``appnp`` runs the
    personalized-propagation recurrence x <- (1-a) A x + a z from x = z with
    a = ``config.appnp_alpha`` for ``config.appnp_hops`` hops; each step
    computes ``A x``, scales it by 1-a and adds ``z * a`` in place, and the
    hop coefficients sum to one. Both are linear in z, and the adjoint of
    each is the same map with the transpose of A: ``adjoint=True`` runs it
    with ``a_tilde.transpose_matmul_dense``, which is how ``sogn_layer``'s
    VJP runs without keeping any hop or building the transpose. The forward
    map leaves z alone. The adjoint consumes z, a gradient the VJP owns: the
    APPNP adjoint scales it in place into its ``z * a`` term after the first
    product.
    """
    product = a_tilde.transpose_matmul_dense if adjoint else a_tilde.matmul_dense
    if config.backbone == "gcn":
        return product(z)
    if config.backbone == "appnp":
        c, a = 1.0 - config.appnp_alpha, config.appnp_alpha
        x = product(z)
        az = np.multiply(z, a, out=z if adjoint else None)
        for hop in range(config.appnp_hops):
            if hop:
                x = product(x)
            x *= c
            x += az
        return x
    raise ParameterError(f"unknown backbone {config.backbone!r}")


def _soft_orthogonal(z: np.ndarray, beta: float):
    """The d x d factor M of the correction ``beta * Zn (Zn^T Z) = Z M``.

    Zn is the ``nm.column_l2_normalize`` of z. With G = Z^T Z and S^2 =
    diag(G) on the columns whose norm reaches ``nm.NORM_GUARD`` (1 on the
    rest, which pass through unnormalized), M = beta S^-2 G: a Gram product,
    never an n x n matrix or a normalized copy of z. Returns M, S^2 as a
    column and the mask of the active columns.
    """
    gram = z.T @ z
    sq = np.diag(gram)
    active = np.sqrt(sq) >= nm.NORM_GUARD
    s = np.where(active, sq, 1.0)[:, None]
    return gram * (beta / s), s, active


def _soft_orthogonal_z_term(z, m, s, active, beta: float, g: np.ndarray) -> np.ndarray:
    """Z (Gbar + Gbar^T), the term of ``_soft_orthogonal_vjp`` that reads Z.

    With Mbar = Z^T g, Gbar_ij = Mbar_ij beta / s_i, less sum_j Mbar_ij M_ij
    / s_i on the diagonal of active columns. Z is read only here, so a Z
    passed as a temporary is freed when this returns, before g M^T is built.
    """
    mbar = z.T @ g
    gbar = mbar * (beta / s)
    gbar[np.diag_indices_from(gbar)] -= active * (mbar * m).sum(axis=1) / s[:, 0]
    return z @ (gbar + gbar.T)


def _soft_orthogonal_vjp(z, m, s, active, beta: float, g: np.ndarray) -> np.ndarray:
    """The gradient in z of <g, Z M>, with M, S^2 and the mask from ``_soft_orthogonal``:
    ``Z (Gbar + Gbar^T) + g M^T``, the Z term first (``_soft_orthogonal_z_term``)."""
    gz = _soft_orthogonal_z_term(z, m, s, active, beta, g)
    gz += g @ m.T
    return gz


def _dropped(v: np.ndarray, mask: np.ndarray | None, scale: float, out=None) -> np.ndarray:
    """Inverted dropout of v by the boolean keep mask: the mask first, then the scale.

    In that order every entry has the bits of ``v * (mask / (1 - p))``, signed
    zeros, infinities, NaN and values near the float64 maximum included,
    without an n x d float copy of the mask; scaling first would turn a
    dropped entry whose scaled value overflows into NaN instead of a zero.
    ``out=v`` runs it in place. Without a mask (no dropout) it returns v.
    """
    if mask is None:
        return v
    x = np.multiply(v, mask, out=out)
    x *= scale
    return x


def sogn_layer(
    h,
    w: nm.Parameter,
    a_tilde: CsrMatrix,
    config: HyperParams,
    rng: RngState,
    training: bool,
    activation: bool = True,
):
    """``sigma(prop(Z) - beta * Zn (Zn^T Z))`` with ``Z = dropout(h) w``, as one tape node.

    prop is ``backbone_propagate`` and beta, the dropout probability p and
    the backbone come from ``config``. Dropout is inverted and acts only
    when training: it keeps the entries where ``rng.uniform`` over h's shape
    is at least p, as a boolean mask, and scales them by 1/(1-p) after the
    mask is applied (``_dropped``). The correction is Z M from
    ``_soft_orthogonal``, built from the d x d Gram matrix of Z, so the cost
    per layer stays O(n d^2 + nnz d); ``beta = 0`` skips it. sigma is ReLU,
    or the identity without ``activation``. Every value equals that of the
    dropout, matmul, propagation, correction, sub and relu chain, bit for
    bit, and so does every gradient up to the sign of a NaN.

    The node keeps h and the boolean keep mask; M and S^2 only when
    beta > 0, since only the correction's gradient reads them; and the
    output only with the ReLU, whose mask the VJP recomputes from it; no
    other n x d array, and never Z. Without the ReLU, ``backward`` has freed
    the output before the VJP runs. The VJP masks its gradient with the ReLU
    in place. When beta > 0 it recomputes Z by the forward's expression on
    the same operands, so with the same bits, at the cost of one n x d x d
    GEMM; takes Mbar = Z^T g; builds Z (Gbar + Gbar^T); frees Z; and adds
    g M^T in place, which is the correction's gradient (the sum in the other
    order, bit for bit, since IEEE addition commutes). It then runs the
    backbone's adjoint, which consumes the gradient, subtracts the
    correction's gradient in place, and ends with the matmul and dropout
    rules, recomputing the dropped-out input from h and the mask.
    """
    vh, vw = nm._as_value(h), nm._as_value(w)
    if vh.shape[1] != vw.shape[0]:
        raise ShapeError(f"layer shape mismatch: {vh.shape} @ {vw.shape}")
    p, beta = config.dropout, float(config.beta)
    mask = rng.uniform(vh.shape) >= p if training and p > 0.0 else None
    scale = 1.0 / (1.0 - p)
    z = _dropped(vh, mask, scale) @ vw
    y = backbone_propagate(a_tilde, z, config)
    m = s = active = None
    if beta != 0.0:
        m, s, active = _soft_orthogonal(z, beta)
        y -= z @ m
    if activation:
        np.maximum(y, 0.0, out=y)
    relu_out = y if activation else None
    out = nm.Tensor(y)

    # The VJP must not close over a name the forward deletes: that leaves an
    # empty closure cell, which tape sizing that reads the cells
    # (perfbench/layertrace.py) cannot read. Every name it closes over keeps
    # its array on the tape until the VJP runs, so it recomputes Z instead.
    def vjp(g):
        if relu_out is not None:
            np.multiply(g, relu_out > 0.0, out=g)
        corr = None
        if m is not None:
            # Z again, from the same operands by the same expression as the
            # forward, so with the same bits; as a call argument it is freed
            # before g M^T is built and never meets the adjoint's arrays
            corr = _soft_orthogonal_z_term(_dropped(vh, mask, scale) @ vw,
                                           m, s, active, beta, g)
            corr += g @ m.T
        # the correction enters with a minus sign; negation is exact (a NaN's
        # sign aside), so gz equals the chain's sum of the propagation's
        # gradient and the correction's gradient of -g, bit for bit, with one
        # n x d array fewer
        gz = backbone_propagate(a_tilde, g, config, adjoint=True)
        if corr is not None:
            gz -= corr
        del g, corr  # free them before the input-side temporaries
        gw = gh = None
        if isinstance(w, nm.Tensor):
            gw = _dropped(vh, mask, scale).T @ gz
        if isinstance(h, nm.Tensor):
            gh = gz @ vw.T
            _dropped(gh, mask, scale, out=gh)
        return gh, gw

    return nm._record(out, (h, w), vjp)


def input_transform(x: CsrMatrix, params: ModelParams):
    """Map the CSR features to the hidden width: ReLU affine maps, the first
    sparse, each one tape node (``nm.affine_relu``)."""
    h = x
    for w, b in params.input_weights:
        h = nm.affine_relu(h, w, b)
    return h


def forward(
    x: CsrMatrix,
    a_tilde: CsrMatrix,
    params: ModelParams,
    config: HyperParams,
    rng: RngState,
    training: bool,
):
    """Full pass: input transform, layer stack, prototype head.

    ``x`` is the CSR ``Graph.features``. Returns the final embedding H (no
    activation on the last layer, so the clustering geometry keeps the full
    space) and the prototype-head logits H W_p; the predictions Y' are their
    row-wise softmax. Evaluation mode disables dropout.
    """
    h = input_transform(x, params)
    n_layers = len(params.layer_weights)
    for i, w in enumerate(params.layer_weights):
        h = sogn_layer(h, w, a_tilde, config, rng, training, activation=i < n_layers - 1)
    return h, nm.matmul(h, params.w_proto)


def soc_penalty(h: np.ndarray) -> float:
    """||H^T H - I||_F^2; zero iff the columns are orthonormal."""
    h = np.asarray(h, dtype=np.float64)
    gram = h.T @ h
    gram[np.diag_indices_from(gram)] -= 1.0
    return float((gram * gram).sum())


# ---------------------------------------------------------------------------
# checkpoints

_MAGIC = b"NCGC"
_VERSION = 1


def save_checkpoint(path, named_values: dict[str, np.ndarray]) -> None:
    """Versioned binary checkpoint of named float64 matrices."""
    path = Path(path)
    with path.open("wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<I", len(named_values)))
        for name, value in named_values.items():
            raw = name.encode("utf-8")
            v = np.ascontiguousarray(value, dtype="<f8")
            if v.ndim != 2:
                raise ShapeError(f"checkpoint value {name!r} must be 2-D")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<QQ", v.shape[0], v.shape[1]))
            f.write(v.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a ``save_checkpoint`` file; malformed bytes, a repeated parameter name,
    bytes after the last parameter or non-finite weights are rejected."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise IngestionError(f"{path}: cannot read ({e.strerror or e})") from e
    if data[:4] != _MAGIC:
        raise IngestionError(f"{path}: bad magic bytes, not a checkpoint")
    out: dict[str, np.ndarray] = {}
    try:
        version, count = struct.unpack_from("<II", data, 4)
        if version != _VERSION:
            raise IngestionError(f"{path}: unsupported checkpoint version {version}")
        pos = 12
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", data, pos)
            pos += 4
            name = data[pos:pos + name_len].decode("utf-8")
            if name in out:
                raise IngestionError(f"{path}: repeated parameter {name!r} at byte offset {pos}")
            pos += name_len
            rows, cols = struct.unpack_from("<QQ", data, pos)
            pos += 16
            nbytes = rows * cols * 8
            if pos + nbytes > len(data):
                raise IngestionError(f"{path}: truncated at byte offset {len(data)}")
            value = np.frombuffer(data[pos:pos + nbytes], dtype="<f8").reshape(rows, cols).copy()
            if not np.all(np.isfinite(value)):
                raise IngestionError(f"{path}: non-finite values in parameter {name!r}")
            out[name] = value
            pos += nbytes
    except struct.error as e:
        raise IngestionError(f"{path}: truncated checkpoint ({e})") from e
    except UnicodeDecodeError as e:
        raise IngestionError(f"{path}: parameter name at byte offset {pos} is not UTF-8") from e
    if pos != len(data):
        raise IngestionError(f"{path}: {len(data) - pos} extra bytes from byte offset {pos}")
    return out
