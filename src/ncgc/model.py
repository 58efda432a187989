"""Message-passing model with a soft orthogonality correction.

Each layer computes ``sigma(prop(Z) - beta * Zn (Zn^T Z))`` where
``Z = dropout(H) W``, ``Zn`` is the column-L2-normalized ``Z`` and ``prop``
is a pluggable propagation backbone (one-hop normalized adjacency, or a
truncated personalized-propagation polynomial). APPNP propagation is one
primitive, ``nm.appnp_propagate``: it records one tape node whatever its hop
count, keeps only A and Z for backward, and its VJP runs the adjoint
recurrence. The correction is realized as two skinny products, so the n x n
outer product is never materialized and ``beta = 0`` reduces the layer to
the plain backbone exactly.

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

    def zero_grads(self) -> None:
        for p in self.all_parameters():
            p.zero_grad()


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


def backbone_propagate(a_tilde: CsrMatrix, z, config: HyperParams):
    """Apply ``config.backbone`` to z; linear and differentiable in z.

    ``gcn`` is a single normalized-adjacency hop. ``appnp`` runs the
    personalized-propagation recurrence x <- (1-a) A x + a z with
    a = ``config.appnp_alpha`` for ``config.appnp_hops`` hops, whose hop
    coefficients sum to one, as the one primitive ``nm.appnp_propagate``:
    one tape node per layer at any hop count, whose VJP runs the adjoint
    recurrence with the transpose of A.
    """
    if config.backbone == "gcn":
        return nm.sparse_dense_matmul(a_tilde, z)
    if config.backbone == "appnp":
        return nm.appnp_propagate(a_tilde, z, config.appnp_alpha, config.appnp_hops)
    raise ParameterError(f"unknown backbone {config.backbone!r}")


def sogn_layer(
    h,
    w: nm.Parameter,
    a_tilde: CsrMatrix,
    config: HyperParams,
    rng: RngState,
    training: bool,
    activation: bool = True,
):
    """One soft-orthogonal message-passing layer with the settings of ``config``.

    The correction term is computed as Zn (Zn^T Z), two products of skinny
    matrices; cost per layer stays O(n d^2 + nnz d).
    """
    x = nm.dropout(h, config.dropout, rng, training)
    z = nm.matmul(x, w)
    out = backbone_propagate(a_tilde, z, config)
    if config.beta != 0.0:
        zn = nm.column_l2_normalize(z)
        corr = nm.matmul(zn, nm.matmul(nm.transpose(zn), z))
        out = nm.sub(out, nm.scale(corr, config.beta))
    return nm.relu(out) if activation else out


def feature_operator(features: np.ndarray):
    """The features as ``forward`` takes them: CSR when large and sparse, else as given."""
    density = np.count_nonzero(features) / max(features.size, 1)
    if features.size > 100_000 and density < 0.25:
        return CsrMatrix.from_dense(features)
    return features


def input_transform(x, params: ModelParams):
    """Map ``feature_operator`` output to the width of the hidden layers (with activation)."""
    h = None
    for w, b in params.input_weights:
        if h is None:
            prod = (nm.sparse_dense_matmul(x, w) if isinstance(x, CsrMatrix)
                    else nm.matmul(x, w))
        else:
            prod = nm.matmul(h, w)
        h = nm.relu(nm.add_bias(prod, b))
    return h


def forward(
    x,
    a_tilde: CsrMatrix,
    params: ModelParams,
    config: HyperParams,
    rng: RngState,
    training: bool,
):
    """Full pass: input transform, layer stack, prototype head.

    ``x`` is the output of ``feature_operator``. Returns the final embedding H
    (no activation on the last layer, so the clustering geometry keeps the
    full space) and the prototype-head logits H W_p; the predictions Y' are
    their row-wise softmax. Evaluation mode disables dropout.
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
    """Read a ``save_checkpoint`` file; malformed bytes or non-finite weights are rejected."""
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
    return out
