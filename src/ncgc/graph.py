"""Graph data model, dataset ingestion, the normalized adjacency, and splits.

A dataset is a directory holding ``meta.json`` (UTF-8 JSON object with
integer fields ``n``, ``m``, ``d``, ``k`` and a string field ``name``),
``features.bin`` (n*d finite little-endian float32 values, row-major,
loaded as a float64 ``CsrMatrix``), ``edges.tsv`` (one undirected edge ``i j`` per
line; duplicate lines are deduplicated), an optional ``labels.tsv`` (one
``node class`` line per labeled node, class in [0, k); a missing file and an
empty one both label no node) and optional
``train.idx``, ``val.idx`` and ``test.idx`` (all three or none: one node id
per line, defining the split instead of ``make_split``).

The text files share one format: each non-blank line holds a fixed number of
fields ``-?[0-9]{1,18}`` separated by single tabs, node ids in [0, n). A line
is blank when it is empty or holds only ASCII whitespace (space, tab, vertical
tab, form feed); blank lines are skipped. A rejected line is reported as
``file:line``. ``meta.json`` must have ``d >= 1`` when ``n > 0`` (so the
length of ``features.bin`` bounds n), ``d <= MAX_FEATURE_DIM`` (which bounds
d when n = 0) and ``k <= n``.
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
# validation and test sizes of the Planetoid protocol (Yang et al. 2016)
PLANETOID_VAL, PLANETOID_TEST = 500, 1000
MAX_FEATURE_DIM = np.iinfo(np.intp).max // 4  # numpy's widest float32 row


@dataclass(frozen=True)
class Graph:
    """Undirected attributed graph with node labels.

    ``labels`` is an int64 array of length n holding each node's class in
    [0, k), or -1 for an unlabeled node; a graph may label no node at all.
    ``features`` is the one feature matrix, in CSR, that models take and
    serialization writes: row-L1-normalized when the loader was asked to, so a
    load/write/load round trip is exact for loads without normalization.
    """

    n: int
    m: int
    adjacency: CsrMatrix
    features: CsrMatrix
    labels: np.ndarray
    class_count: int
    name: str = "graph"

    def __post_init__(self):
        if self.adjacency.rows != self.n or self.adjacency.cols != self.n:
            raise ShapeError("adjacency must be n x n")
        if self.features.rows != self.n:
            raise ShapeError("features must have one row per node")
        if np.shape(self.labels) != (self.n,):
            raise ShapeError("labels must be an array of length n")
        if self.labels.max(initial=-1) >= self.class_count:
            raise ShapeError("label out of range [0, K)")

    @property
    def feature_dim(self) -> int:
        return self.features.cols

    def labeled_nodes(self) -> np.ndarray:
        return np.nonzero(self.labels >= 0)[0]


@dataclass(frozen=True)
class Split:
    """Disjoint train/validation/test node index sets, none of them empty."""

    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        for name in ("train_idx", "val_idx", "test_idx"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
        if self.train_idx.size == 0:
            raise SplitError("train split is empty")
        for name, idx in (("validation", self.val_idx), ("test", self.test_idx)):
            if idx.size == 0:
                raise SplitError(f"the {name} set is empty")
        all_idx = np.concatenate([self.train_idx, self.val_idx, self.test_idx])
        if all_idx.size and all_idx.min() < 0:
            raise SplitError("negative node index in split")
        if len(np.unique(all_idx)) != all_idx.size:
            raise SplitError("split index sets are not pairwise disjoint")

    def check(self, g: Graph) -> None:
        """Reject, as a ``SplitError``, a split that ``g`` cannot train on: one
        naming a node outside the graph or an unlabeled one. The validation and
        test sets are non-empty, so the clustering losses always have nodes
        outside training."""
        top = max(int(a.max(initial=-1)) for a in (self.train_idx, self.val_idx, self.test_idx))
        if top >= g.n:
            raise SplitError(f"split references node {top} but graph has {g.n} nodes")
        for name, idx in (("train", self.train_idx), ("validation", self.val_idx),
                          ("test", self.test_idx)):
            unlabeled = idx[g.labels[idx] < 0]
            if unlabeled.size:
                raise SplitError(f"the {name} set names unlabeled node {unlabeled[0]}")


def _symmetrize(n: int, edges: np.ndarray) -> CsrMatrix:
    """0/1 adjacency with A[i, j] and A[j, i] set for each distinct edge row (i, j)."""
    off = edges[edges[:, 0] != edges[:, 1]]
    rows = np.concatenate([edges[:, 0], off[:, 1]])
    cols = np.concatenate([edges[:, 1], off[:, 0]])
    return CsrMatrix.from_coo(n, n, rows, cols, np.ones(rows.size))


def read_bytes(f: Path) -> bytes:
    """Contents of an input file; a missing or unreadable file is an IngestionError."""
    try:
        return f.read_bytes()
    except FileNotFoundError as e:
        raise IngestionError(f"{f}: file missing") from e
    except OSError as e:
        raise IngestionError(f"{f}: cannot read ({e.strerror or e})") from e


def _read_utf8(f: Path) -> bytes:
    """Bytes of an input file with CRLF and CR line ends made LF; bytes that are
    not UTF-8 are an IngestionError naming the file and the byte offset."""
    raw = read_bytes(f)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise IngestionError(f"{f}: invalid UTF-8 at byte offset {e.start}") from e
    # CR and LF never occur inside a multi-byte UTF-8 sequence
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def read_text(f: Path) -> str:
    """UTF-8 text of an input file with universal newlines (see ``_read_utf8``)."""
    return _read_utf8(f).decode("utf-8")


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
    if meta["d"] == 0 and meta["n"] > 0:
        raise IngestionError(f"{f}: field 'd' must be at least 1 when n > 0")
    if meta["d"] > MAX_FEATURE_DIM:
        raise IngestionError(f"{f}: field 'd' must be at most {MAX_FEATURE_DIM}")
    if meta["k"] > meta["n"]:
        raise IngestionError(f"{f}: field 'k' must be at most n ({meta['n']})")
    if not isinstance(meta.get("name"), str):
        raise IngestionError(f"{f}: missing string field 'name'")
    return meta


def _read_features(path: Path, n: int, d: int) -> CsrMatrix:
    """The nonzeros of ``features.bin``, read from its float32 bytes in place."""
    f = path / "features.bin"
    raw = read_bytes(f)
    expected = n * d * 4
    if len(raw) != expected:
        where = "truncated at" if len(raw) < expected else "extra bytes from"
        raise IngestionError(
            f"{f}: expected {expected} bytes for {n}x{d} float32 values, "
            f"found {len(raw)} ({where} byte offset {min(len(raw), expected)})")
    feats = CsrMatrix.from_dense(np.frombuffer(raw, dtype="<f4").reshape(n, d))
    # NaN and +-inf are nonzero, so the first of them in row-major order is stored
    bad = np.flatnonzero(~np.isfinite(feats.values))
    if bad.size:
        i = np.searchsorted(feats.row_offsets, bad[0], side="right") - 1
        raise IngestionError(
            f"{f}: non-finite value at node {i}, column {feats.col_indices[bad[0]]}")
    return feats


def _read_int_rows(f: Path, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The (r, width) int64 array of the integers on each non-blank line of ``f``,
    and those lines' 1-based numbers.

    A line is blank when it is empty or holds only ASCII spaces, tabs, vertical
    tabs and form feeds. Every other line must be ``width`` fields
    ``-?[0-9]{1,18}`` (so each fits in int64) separated by single tabs; the
    first line that is not is an IngestionError. Lines and fields are found,
    checked and converted by array operations over the file's bytes.
    """
    b = np.frombuffer(_read_utf8(f) + b"\n", dtype=np.uint8)  # every line ends in LF
    ends = np.flatnonzero((b == 9) | (b == 10))  # field i is b[starts[i]:ends[i]]
    starts = np.concatenate(([0], ends[:-1] + 1))
    eol = b[ends] == 10
    line_first = np.flatnonzero(np.concatenate(([True], eol[:-1])))  # first field of each line
    space = (b == 32) | ((b >= 9) & (b <= 13))  # bytes.isspace
    kept = np.logical_or.reduceat(~space, starts[line_first])

    digits = np.add.reduceat((b >= 48) & (b <= 57), starts, dtype=np.int64)
    neg = b[starts] == 45  # an empty field starts at its own separator
    good = (digits == ends - starts - neg) & (digits >= 1) & (digits <= 18)
    fields = np.diff(np.append(line_first, len(ends)))
    bad = kept & ((fields != width) | ~np.logical_and.reduceat(good, line_first))
    if bad.any():
        raise IngestionError(f"{f}:{np.argmax(bad) + 1}: expected {width} "
                             "tab-separated integers")

    take = np.repeat(kept, fields)
    end, first, neg = ends[take], (starts + neg)[take], neg[take]
    values = np.zeros(len(end), dtype=np.int64)
    # Horner's rule over the last `back` bytes of every field at once, masked to its digits
    for back in range(int(digits[take].max(initial=0)), 0, -1):
        at = end - back
        values = values * 10 + np.where(at >= first, b[np.maximum(at, 0)] - 48, 0)
    return np.where(neg, -values, values).reshape(-1, width), np.flatnonzero(kept) + 1


def _reject(f: Path, lineno: np.ndarray, rows: np.ndarray, bad: np.ndarray,
            message: str) -> None:
    """IngestionError for the first row in ``bad``; ``message`` formats its fields."""
    if bad.any():
        r = np.argmax(bad)
        raise IngestionError(f"{f}:{lineno[r]}: " + message.format(*rows[r]))


def _read_edges(path: Path, n: int) -> np.ndarray:
    """The distinct undirected edges as an (m, 2) int64 array of rows i <= j."""
    f = path / "edges.tsv"
    rows, lineno = _read_int_rows(f, 2)
    _reject(f, lineno, rows, ((rows < 0) | (rows >= n)).any(axis=1),
            f"node id out of range [0, {n})")
    # one key i * n + j per edge: below 2**63 for every n that fits in memory
    key = np.sort(rows.min(axis=1) * n + rows.max(axis=1))
    # the distinct keys, as np.unique gives them; its hash table (numpy >= 2.3)
    # took ~30x the time of this sort on 44k PubMed-shaped keys
    key = key[np.diff(key, prepend=-1) != 0]
    return np.column_stack(np.divmod(key, n))


def _read_labels(path: Path, n: int, k: int) -> np.ndarray:
    """Each node's class, -1 for a node ``labels.tsv`` does not name; a missing
    file names no node."""
    labels = np.full(n, -1, dtype=np.int64)
    f = path / "labels.tsv"
    if not f.exists():
        return labels
    rows, lineno = _read_int_rows(f, 2)
    node, cls = rows[:, 0], rows[:, 1]
    _reject(f, lineno, rows, (node < 0) | (node >= n), "node id {0} out of range")
    _reject(f, lineno, rows, (cls < 0) | (cls >= k), "class id {1} out of range [0, %d)" % k)
    repeated = np.ones(len(node), dtype=bool)
    repeated[np.unique(node, return_index=True)[1]] = False
    _reject(f, lineno, rows, repeated, "node {0} labeled twice")
    labels[node] = cls
    return labels


def row_l1_normalize(x: CsrMatrix) -> CsrMatrix:
    """Divide each row by its L1 norm; all-zero rows pass through."""
    row = np.repeat(np.arange(x.rows), np.diff(x.row_offsets))
    norms = np.bincount(row, weights=np.abs(x.values), minlength=x.rows)
    return x.with_values(x.values / np.where(norms > 0, norms, 1.0)[row])


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
    edges = _read_edges(path, n)
    if len(edges) != meta["m"]:
        raise IngestionError(
            f"{path / 'meta.json'}: m={meta['m']} but {path / 'edges.tsv'} holds "
            f"{len(edges)} distinct undirected edges")
    labels = _read_labels(path, n, k)
    adjacency = _symmetrize(n, edges)
    if row_normalize:
        feats = row_l1_normalize(feats)
    return Graph(n=n, m=len(edges), adjacency=adjacency, features=feats,
                 labels=labels, class_count=k, name=meta["name"])


def _read_idx(f: Path, n: int) -> np.ndarray:
    rows, lineno = _read_int_rows(f, 1)
    _reject(f, lineno, rows, (rows[:, 0] < 0) | (rows[:, 0] >= n), "node id {0} out of range")
    return rows[:, 0]


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
    try:
        return Split(*[_read_idx(f, n) for f in files])
    except SplitError as e:
        raise SplitError(f"{', '.join(map(str, files))}: {e}") from e


def write_dataset(g: Graph, path, split: Split | None = None) -> None:
    """Serialize a Graph (and optionally a Split) into the canonical layout;
    ``labels.tsv`` is empty when no node is labeled."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {"n": g.n, "m": g.m, "d": g.feature_dim, "k": g.class_count, "name": g.name}
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    (path / "features.bin").write_bytes(g.features.to_dense().astype("<f4").tobytes())
    a = g.adjacency
    rows = np.repeat(np.arange(g.n), np.diff(a.row_offsets))
    upper = rows <= a.col_indices
    np.savetxt(path / "edges.tsv", np.column_stack((rows[upper], a.col_indices[upper])),
               fmt="%d", delimiter="\t")
    labeled = g.labeled_nodes()
    np.savetxt(path / "labels.tsv", np.column_stack((labeled, g.labels[labeled])),
               fmt="%d", delimiter="\t")
    if split is not None:
        write_split(split, path)


def write_split(split: Split, path) -> None:
    """Write the three index files of the canonical split layout."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for name, arr in (("train.idx", split.train_idx),
                      ("val.idx", split.val_idx),
                      ("test.idx", split.test_idx)):
        np.savetxt(path / name, arr, fmt="%d")


def normalized_adjacency(g: Graph) -> CsrMatrix:
    """A~ = D^-1/2 (A + I) D^-1/2, the degrees D taken with the self-loops.

    Every degree is at least 1. A is 0/1, so an off-diagonal value is
    dinv_i * dinv_j, the same product as its mirror's: A~ is symmetric bit
    for bit, its own adjoint, which ``model.sogn_layer``'s gradient relies
    on. The graph Laplacian is L~ = I - A~ (``spectral.ratiocut_trace``),
    never built.
    """
    a = g.adjacency.add(CsrMatrix.identity(g.n))
    dinv = 1.0 / np.sqrt(a.matmul_dense(np.ones((g.n, 1)))[:, 0])
    return a.scale_rows(dinv).scale_cols(dinv)


def make_split(
    g: Graph,
    policy: str,
    rng: RngState,
    train_per_class: int,
    val_per_class: int,
) -> Split:
    """Sample a train/val/test split.

    ``planetoid_style`` takes ``train_per_class`` labeled nodes per class for
    training, then ``PLANETOID_VAL`` (500) validation and ``PLANETOID_TEST``
    (1000) test nodes sampled without replacement from the remaining labeled
    nodes; it ignores ``val_per_class``.
    ``per_class`` takes ``train_per_class`` and ``val_per_class`` nodes per
    class, everything else labeled becomes test. The CLI holds the defaults.
    A graph with no labeled node is a ``SplitError``.
    """
    if policy not in SPLIT_POLICIES:
        raise SplitError(f"unknown split policy {policy!r}")
    if not g.labeled_nodes().size:
        raise SplitError(f"{g.name}: no labeled node to split")
    pools = {c: rng.permutation(np.nonzero(g.labels == c)[0]) for c in range(g.class_count)}
    need_val = val_per_class if policy == "per_class" else 0
    deficient = [c for c, pool in pools.items() if len(pool) < train_per_class + need_val]
    if deficient:
        raise SplitError(f"classes with too few labeled nodes for the split: {deficient}")

    train = np.concatenate([pools[c][:train_per_class] for c in sorted(pools)])
    if policy == "per_class":
        val = np.concatenate(
            [pools[c][train_per_class:train_per_class + val_per_class] for c in sorted(pools)])
        test = np.concatenate(
            [pools[c][train_per_class + val_per_class:] for c in sorted(pools)])
    else:
        # both are distinct and labeled_nodes() is sorted, so no np.unique pass is needed
        rest = np.setdiff1d(g.labeled_nodes(), train, assume_unique=True)
        if len(rest) < PLANETOID_VAL + PLANETOID_TEST:
            raise SplitError(
                f"need {PLANETOID_VAL + PLANETOID_TEST} labeled nodes beyond training, "
                f"have {len(rest)}")
        rest = rng.permutation(rest)
        val = rest[:PLANETOID_VAL]
        test = rest[PLANETOID_VAL:PLANETOID_VAL + PLANETOID_TEST]
    return Split(np.sort(train), np.sort(val), np.sort(test))
