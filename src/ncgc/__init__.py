"""Semi-supervised node classification with self-supervised graph clustering.

The package layers a soft-orthogonal message-passing model, deep embedded
clustering signals, and Sinkhorn-balanced pseudo-labels on top of a small
tape-based reverse-mode numpy core, plus a spectral-clustering baseline.
"""

from . import clustering, graph, model, numerics, spectral, synth, trainer
from .errors import (
    ContractError, IngestionError, NcgcError, NumericError, ParameterError,
    RankError, ShapeError, SplitError,
)
from .graph import (
    Graph, Split, load_dataset, load_split, make_split, normalized_adjacency,
    normalized_laplacian, write_dataset, write_split,
)
from .model import ModelParams, forward, init_params, soc_penalty
from .rng import RngState
from .sparse import CsrMatrix
from .trainer import HyperParams, TrainReport, predict, run_seeds, seed_splits, train

__version__ = "0.1.0"
