"""Graph data model, dataset ingestion, normalized operators, and splits.

The on-disk dataset layout is a directory of five files (plus optional split
index files):

``meta.json``
    UTF-8 JSON object with integer fields ``n``, ``m``, ``d``, ``k`` and a
    string field ``name``.
``features.bin``
    Little-endian 32-bit floats, row-major, exactly n*d finite values.
    Widened to float64 on load.
``edges.tsv``
    One undirected edge per line: two 0-based decimal node ids separated by
    a single tab. Each edge appears exactly once; duplicate lines are
    tolerated and deduplicated.
``labels.tsv``
    One line per labeled node: node id, tab, class id in [0, k).
``train.idx`` / ``val.idx`` / ``test.idx`` (optional, all three or none)
    One decimal node id per line. When present they define the split and
    ``make_split`` is bypassed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IngestionError, ShapeError, SplitError
from .rng import RngState
from .sparse import CsrMatrix

SPLIT_POLICIES = ("planetoid_style", "per_class")


@dataclass(frozen=True)
class Graph:
    """Undirected attributed graph with optional node labels.

    ``features`` is the one feature matrix, the one handed to models and the
    one serialization writes: row-L1-normalized when the loader was asked to,
    so a load/write/load round trip is exact for loads without normalization.
    """

    n: int
    m: int
    adjacency: CsrMatrix
    features: np.ndarray
    labels: np.ndarray | None
    class_count: int
    name: str = "graph"

    def __post_init__(self):
        if self.adjacency.rows != self.n or self.adjacency.cols != self.n:
            raise ShapeError("adjacency must be n x n")
        if self.features.shape[0] != self.n:
            raise ShapeError("features must have one row per node")
        if self.labels is not None:
            lab = self.labels
            if lab.shape != (self.n,):
                raise ShapeError("labels must have length n")
            present = lab[lab >= 0]
            if present.size and present.max() >= self.class_count:
                raise ShapeError("label out of range [0, K)")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def labeled_nodes(self) -> np.ndarray:
        if self.labels is None:
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(self.labels >= 0)[0]


@dataclass(frozen=True)
class Split:
    """Disjoint train/validation/test node index sets."""

    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        for name in ("train_idx", "val_idx", "test_idx"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
        if self.train_idx.size == 0:
            raise SplitError("train split is empty")
        all_idx = np.concatenate([self.train_idx, self.val_idx, self.test_idx])
        if all_idx.size and all_idx.min() < 0:
            raise SplitError("negative node index in split")
        if len(np.unique(all_idx)) != all_idx.size:
            raise SplitError("split index sets are not pairwise disjoint")

    def check_against(self, n: int) -> None:
        top = max(int(a.max(initial=-1)) for a in (self.train_idx, self.val_idx, self.test_idx))
        if top >= n:
            raise SplitError(f"split references node {top} but graph has {n} nodes")


def _symmetrize(n: int, pairs) -> CsrMatrix:
    """0/1 adjacency with both A[i, j] and A[j, i] set for each pair (i, j)."""
    if not pairs:
        return CsrMatrix.zeros(n, n)
    p = np.array(list(pairs), dtype=np.int64)
    off = p[p[:, 0] != p[:, 1]]
    rows = np.concatenate([p[:, 0], off[:, 1]])
    cols = np.concatenate([p[:, 1], off[:, 0]])
    return CsrMatrix.from_coo(n, n, rows, cols, np.ones(rows.size))


def _read_bytes(f: Path) -> bytes:
    """Contents of an input file; a missing or unreadable file is an IngestionError."""
    try:
        return f.read_bytes()
    except FileNotFoundError as e:
        raise IngestionError(f"{f}: file missing") from e
    except OSError as e:
        raise IngestionError(f"{f}: cannot read ({e.strerror or e})") from e


def read_text(f: Path) -> str:
    """UTF-8 text of an input file with universal newlines; bytes that are not
    UTF-8 are an IngestionError naming the file and the byte offset."""
    try:
        text = _read_bytes(f).decode("utf-8")
    except UnicodeDecodeError as e:
        raise IngestionError(f"{f}: invalid UTF-8 at byte offset {e.start}") from e
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_meta(path: Path) -> dict:
    f = path / "meta.json"
    try:
        meta = json.loads(read_text(f))
    except json.JSONDecodeError as e:
        raise IngestionError(f"{f}: invalid JSON ({e})") from e
    if not isinstance(meta, dict):
        raise IngestionError(f"{f}: expected a JSON object")
    for key in ("n", "m", "d", "k"):
        value = meta.get(key)
        # bool is a subclass of int, but true/false are not counts
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise IngestionError(f"{f}: missing or invalid integer field {key!r}")
    if not isinstance(meta.get("name"), str):
        raise IngestionError(f"{f}: missing string field 'name'")
    return meta


def _read_features(path: Path, n: int, d: int) -> np.ndarray:
    f = path / "features.bin"
    raw = _read_bytes(f)
    expected = n * d * 4
    if len(raw) != expected:
        raise IngestionError(
            f"{f}: expected {expected} bytes for {n}x{d} float32 values, "
            f"found {len(raw)} (truncated at byte offset {len(raw)})")
    feats = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(n, d)
    finite = np.isfinite(feats)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise IngestionError(f"{f}: non-finite value at node {i}, column {j}")
    return feats


def _read_edges(path: Path, n: int) -> set[tuple[int, int]]:
    f = path / "edges.tsv"
    pairs: set[tuple[int, int]] = set()
    for lineno, line in enumerate(read_text(f).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IngestionError(f"{f}:{lineno}: expected two tab-separated ids")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise IngestionError(f"{f}:{lineno}: non-integer node id") from e
        if not (0 <= i < n and 0 <= j < n):
            raise IngestionError(f"{f}:{lineno}: node id out of range [0, {n})")
        pairs.add((min(i, j), max(i, j)))
    return pairs


def _read_labels(path: Path, n: int, k: int) -> np.ndarray | None:
    f = path / "labels.tsv"
    if not f.exists():
        return None
    labels = np.full(n, -1, dtype=np.int64)
    for lineno, line in enumerate(read_text(f).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IngestionError(f"{f}:{lineno}: expected 'node<TAB>class'")
        try:
            i, c = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise IngestionError(f"{f}:{lineno}: non-integer field") from e
        if not 0 <= i < n:
            raise IngestionError(f"{f}:{lineno}: node id {i} out of range")
        if not 0 <= c < k:
            raise IngestionError(f"{f}:{lineno}: class id {c} out of range [0, {k})")
        if labels[i] != -1:
            raise IngestionError(f"{f}:{lineno}: node {i} labeled twice")
        labels[i] = c
    return labels


def row_l1_normalize(x: np.ndarray) -> np.ndarray:
    """Divide each row by its L1 norm; all-zero rows pass through."""
    norms = np.abs(x).sum(axis=1, keepdims=True)
    return x / np.where(norms > 0, norms, 1.0)


def load_dataset(path, row_normalize: bool = True) -> Graph:
    """Read a canonical dataset directory into a Graph.

    The adjacency is symmetrized and deduplicated; isolated nodes are
    permitted. ``m`` is the number of distinct undirected edges found in
    ``edges.tsv`` and must agree with ``meta.json``.
    """
    path = Path(path)
    meta = _read_meta(path)
    n, d, k = meta["n"], meta["d"], meta["k"]
    feats = _read_features(path, n, d)
    pairs = _read_edges(path, n)
    if len(pairs) != meta["m"]:
        raise IngestionError(
            f"{path / 'meta.json'}: m={meta['m']} but edges.tsv holds "
            f"{len(pairs)} distinct undirected edges")
    labels = _read_labels(path, n, k)
    adjacency = _symmetrize(n, pairs)
    if row_normalize:
        feats = row_l1_normalize(feats)
    return Graph(n=n, m=len(pairs), adjacency=adjacency, features=feats,
                 labels=labels, class_count=k, name=meta["name"])


def _read_idx(f: Path, n: int) -> np.ndarray:
    out = []
    for lineno, line in enumerate(read_text(f).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            i = int(line)
        except ValueError as e:
            raise IngestionError(f"{f}:{lineno}: non-integer node id") from e
        if not 0 <= i < n:
            raise IngestionError(f"{f}:{lineno}: node id {i} out of range")
        out.append(i)
    return np.asarray(out, dtype=np.int64)


def load_split(path, n: int) -> Split | None:
    """Read train/val/test index files; None when absent, error when partial."""
    path = Path(path)
    files = [path / "train.idx", path / "val.idx", path / "test.idx"]
    present = [f.exists() for f in files]
    if not any(present):
        return None
    if not all(present):
        missing = [f.name for f, p in zip(files, present) if not p]
        raise IngestionError(f"{path}: split files are partial, missing {missing}")
    split = Split(*[_read_idx(f, n) for f in files])
    split.check_against(n)
    return split


def write_dataset(g: Graph, path, split: Split | None = None) -> None:
    """Serialize a Graph (and optionally a Split) into the canonical layout."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {"n": g.n, "m": g.m, "d": g.feature_dim, "k": g.class_count, "name": g.name}
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    (path / "features.bin").write_bytes(
        np.ascontiguousarray(g.features, dtype="<f4").tobytes())
    lines = []
    off, idx = g.adjacency.row_offsets, g.adjacency.col_indices
    for i in range(g.n):
        for j in idx[off[i]:off[i + 1]]:
            if i <= j:
                lines.append(f"{i}\t{j}\n")
    (path / "edges.tsv").write_text("".join(lines), encoding="utf-8")
    if g.labels is not None:
        lab_lines = [f"{i}\t{g.labels[i]}\n" for i in range(g.n) if g.labels[i] >= 0]
        (path / "labels.tsv").write_text("".join(lab_lines), encoding="utf-8")
    if split is not None:
        write_split(split, path)


def write_split(split: Split, path) -> None:
    """Write the three index files of the canonical split layout."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for name, arr in (("train.idx", split.train_idx),
                      ("val.idx", split.val_idx),
                      ("test.idx", split.test_idx)):
        (path / name).write_text("".join(f"{i}\n" for i in arr), encoding="utf-8")


def normalized_adjacency(g: Graph, add_self_loops: bool = True) -> CsrMatrix:
    """Symmetrically degree-normalized adjacency D^-1/2 A D^-1/2.

    With ``add_self_loops`` the identity is added first and degrees are
    recomputed. Zero-degree nodes produce zero rows (their inverse degree is
    taken as 0).
    """
    a = g.adjacency
    if add_self_loops:
        a = a.add(CsrMatrix.identity(g.n))
    deg = a.matmul_dense(np.ones((g.n, 1)))[:, 0]
    dinv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return a.scale_rows(dinv).scale_cols(dinv)


def normalized_laplacian(g: Graph) -> CsrMatrix:
    """I minus the (self-loop-free) normalized adjacency; symmetric PSD."""
    at = normalized_adjacency(g, add_self_loops=False)
    return CsrMatrix.identity(g.n).add(at.scale_rows(np.full(g.n, -1.0)))


def _class_pools(g: Graph, rng: RngState) -> dict[int, np.ndarray]:
    if g.labels is None:
        raise SplitError("cannot split an unlabeled graph")
    pools = {}
    for c in range(g.class_count):
        members = np.nonzero(g.labels == c)[0]
        pools[c] = rng.permutation(members)
    return pools


def make_split(
    g: Graph,
    policy: str,
    rng: RngState,
    per_class_train: int = 20,
    per_class_val: int = 30,
    val_total: int = 500,
    test_total: int = 1000,
) -> Split:
    """Sample a train/val/test split.

    ``planetoid_style`` takes ``per_class_train`` labeled nodes per class for
    training, then ``val_total`` validation and ``test_total`` test nodes
    sampled without replacement from the remaining labeled nodes.
    ``per_class`` takes ``per_class_train`` and ``per_class_val`` nodes per
    class, everything else labeled becomes test.
    """
    if policy not in SPLIT_POLICIES:
        raise SplitError(f"unknown split policy {policy!r}")
    pools = _class_pools(g, rng)
    need_val = per_class_val if policy == "per_class" else 0
    deficient = [c for c, pool in pools.items() if len(pool) < per_class_train + need_val]
    if deficient:
        raise SplitError(f"classes with too few labeled nodes for the split: {deficient}")

    train = np.concatenate([pools[c][:per_class_train] for c in sorted(pools)])
    if policy == "per_class":
        val = np.concatenate(
            [pools[c][per_class_train:per_class_train + per_class_val] for c in sorted(pools)])
        test = np.concatenate(
            [pools[c][per_class_train + per_class_val:] for c in sorted(pools)])
    else:
        rest = np.setdiff1d(g.labeled_nodes(), train)
        if len(rest) < val_total + test_total:
            raise SplitError(
                f"need {val_total + test_total} labeled nodes beyond training, "
                f"have {len(rest)}")
        rest = rng.permutation(rest)
        val = rest[:val_total]
        test = rest[val_total:val_total + test_total]
    return Split(np.sort(train), np.sort(val), np.sort(test))
