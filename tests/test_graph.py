import json
from dataclasses import replace

import numpy as np
import pytest

from ncgc.errors import IngestionError, ShapeError, SplitError
from ncgc.graph import (
    Graph, Split, _read_int_rows, load_dataset, load_split, make_split, normalized_adjacency,
    row_l1_normalize, write_dataset, write_split,
)
from ncgc.rng import RngState
from ncgc.sparse import CsrMatrix
from ncgc.spectral import ratiocut_trace
from ncgc.synth import make_sbm
from oracles import int_rows_loop, loop_free_adjacency, sbm_pairs_loop, transition_matrix


def write_triangle(path, n=3, m=3, d=2, k=2, edges="0\t1\n0\t2\n1\t2\n",
                   labels="0\t0\n1\t1\n2\t1\n", feat_bytes=None):
    path.mkdir(parents=True, exist_ok=True)
    meta = {"n": n, "m": m, "d": d, "k": k, "name": "triangle"}
    (path / "meta.json").write_text(json.dumps(meta))
    if feat_bytes is None:
        feat_bytes = np.arange(n * d, dtype="<f4").tobytes()
    (path / "features.bin").write_bytes(feat_bytes)
    (path / "edges.tsv").write_text(edges)
    (path / "labels.tsv").write_text(labels)
    return path


def triangle_graph(features=None):
    adj = CsrMatrix.from_coo(3, 3, [0, 1, 0, 2, 1, 2], [1, 0, 2, 0, 2, 1], np.ones(6))
    feats = np.eye(3, 2) if features is None else features
    return Graph(n=3, m=3, adjacency=adj, features=CsrMatrix.from_dense(feats),
                 labels=np.array([0, 1, 1]), class_count=2, name="triangle")


# ---------------------------------------------------------------------------
# ingestion


def test_load_triangle_fixture(tmp_path):
    g = load_dataset(write_triangle(tmp_path / "tri"))
    assert g.n == 3 and g.m == 3
    assert g.adjacency.nnz == 6
    assert g.feature_dim == 2 and g.class_count == 2
    assert np.array_equal(g.adjacency.to_dense(), g.adjacency.to_dense().T)
    assert list(g.labels) == [0, 1, 1]


def test_duplicate_edge_lines_are_deduplicated(tmp_path):
    g = load_dataset(write_triangle(
        tmp_path / "dup", edges="0\t1\n0\t2\n1\t2\n1\t0\n0\t2\n"))
    assert g.m == 3
    assert g.adjacency.nnz == 6


def test_missing_file_and_bad_records(tmp_path):
    d = write_triangle(tmp_path / "t1")
    (d / "edges.tsv").unlink()
    with pytest.raises(IngestionError, match="edges.tsv"):
        load_dataset(d)

    d = write_triangle(tmp_path / "t2", edges="0\t1\n0\t9\n1\t2\n")
    with pytest.raises(IngestionError, match="edges.tsv:2"):
        load_dataset(d)

    d = write_triangle(tmp_path / "t3", labels="0\t0\n1\t5\n")
    with pytest.raises(IngestionError, match="labels.tsv:2"):
        load_dataset(d)


def test_whitespace_only_lines_are_skipped(tmp_path):
    d = write_triangle(tmp_path / "ws", edges=" \n0\t1\n\t\n0\t2\n  \t \n1\t2\n",
                       labels="\t\n0\t0\n \n1\t1\n2\t1\n\t \n")
    write_split(Split(np.array([0]), np.array([1]), np.array([2])), d)
    (d / "train.idx").write_text(" \n0\n\t\n")
    g, ref = load_dataset(d), load_dataset(write_triangle(tmp_path / "ref"))
    assert g.m == ref.m == 3
    assert np.array_equal(g.adjacency.to_dense(), ref.adjacency.to_dense())
    assert np.array_equal(g.labels, ref.labels)
    split = load_split(d, g.n)
    assert [list(a) for a in (split.train_idx, split.val_idx, split.test_idx)] == [[0], [1], [2]]


# fields that break the grammar, or sit at its edges, and blank-looking lines
NEAR_MISSES = ["1_0", "+1", " 1", "1 ", "\u0661", "\u00a0", "-", "", "x", "--1", "1-",
               "-0", "999999999999999999", "1000000000000000000", " \t\v\f"]


def _random_rows_file(rng: RngState) -> bytes:
    lines = []
    for _ in range(int(rng.integers(0, 8))):
        fields = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.uniform() < 0.15:
                fields.append(NEAR_MISSES[int(rng.integers(0, len(NEAR_MISSES)))])
            else:
                digits = int(rng.integers(1, 19))
                fields.append("-" * int(rng.integers(0, 2)) + str(rng.integers(0, 10 ** digits)))
        lines.append("\t".join(fields))
    ending = ("\n", "\r\n", "\r")[int(rng.integers(0, 3))]
    return (ending.join(lines) + ending * int(rng.integers(0, 2))).encode()


@pytest.mark.parametrize("seed", range(3))
def test_int_rows_reader_matches_the_line_loop(tmp_path, seed):
    rng, f = RngState(seed), tmp_path / "rows.tsv"
    for _ in range(300):
        f.write_bytes(_random_rows_file(rng))
        for width in (1, 2):
            expected = int_rows_loop(f.read_bytes(), width)
            if isinstance(expected, int):
                with pytest.raises(IngestionError,
                                   match=f"rows.tsv:{expected}: expected {width} tab-sep"):
                    _read_int_rows(f, width)
            else:
                rows, lineno = _read_int_rows(f, width)
                assert rows.dtype == np.int64 and rows.shape == expected[0].shape
                assert np.array_equal(rows, expected[0]) and list(lineno) == expected[1]


def test_first_non_finite_feature_is_named(tmp_path):
    feats = np.zeros((3, 2), dtype="<f4")
    feats[1, 1], feats[2, 0] = np.inf, np.nan
    d = write_triangle(tmp_path / "inf", feat_bytes=feats.tobytes())
    with pytest.raises(IngestionError, match="non-finite value at node 1, column 1"):
        load_dataset(d)


def test_truncated_features_names_byte_offset(tmp_path):
    full = np.arange(6, dtype="<f4").tobytes()
    d = write_triangle(tmp_path / "t4", feat_bytes=full[:-3])
    with pytest.raises(IngestionError, match=r"byte offset 21"):
        load_dataset(d)


def test_meta_edge_count_mismatch(tmp_path):
    d = write_triangle(tmp_path / "t5", m=7)
    with pytest.raises(IngestionError, match="meta.json"):
        load_dataset(d)


def test_row_normalization_default_and_off(tmp_path):
    d = write_triangle(tmp_path / "t6")
    g = load_dataset(d)
    g_raw = load_dataset(d, row_normalize=False)
    sums = np.abs(g.features.to_dense()).sum(axis=1)
    nz = np.abs(g_raw.features.to_dense()).sum(axis=1) > 0
    assert np.allclose(sums[nz], 1.0)
    assert np.array_equal(g.features.to_dense(), row_l1_normalize(g_raw.features).to_dense())


def test_round_trip_is_identical(tmp_path):
    rng = RngState(0)
    g = make_sbm([5, 4], 0.8, 0.1, feature_dim=3, rng=rng)
    split = make_split(g, "per_class", RngState(1), train_per_class=2, val_per_class=1)
    write_dataset(g, tmp_path / "a", split)
    g1 = load_dataset(tmp_path / "a", row_normalize=False)
    s1 = load_split(tmp_path / "a", g1.n)
    write_dataset(g1, tmp_path / "b", s1)
    g2 = load_dataset(tmp_path / "b", row_normalize=False)
    s2 = load_split(tmp_path / "b", g2.n)
    assert g1.n == g2.n and g1.m == g2.m
    assert np.array_equal(g1.features.to_dense(), g2.features.to_dense())
    assert np.array_equal(g1.labels, g2.labels)
    assert np.array_equal(g1.adjacency.col_indices, g2.adjacency.col_indices)
    assert np.array_equal(g1.adjacency.row_offsets, g2.adjacency.row_offsets)
    assert np.array_equal(g1.adjacency.values, g2.adjacency.values)
    for name in ("train_idx", "val_idx", "test_idx"):
        assert np.array_equal(getattr(s1, name), getattr(s2, name))


def _unlabeled_forms(path):
    """The triangle with no labeled node, written three ways: without
    ``labels.tsv``, with an empty one, and with ``k = 0`` and an empty one."""
    missing = write_triangle(path / "missing")
    (missing / "labels.tsv").unlink()
    return (missing, write_triangle(path / "empty", labels=""),
            write_triangle(path / "no_classes", k=0, labels=""))


def test_missing_and_empty_labels_file_load_one_graph(tmp_path):
    missing, empty, no_classes = map(load_dataset, _unlabeled_forms(tmp_path))
    for g in (missing, empty, no_classes):
        assert g.labels.dtype == np.int64 and list(g.labels) == [-1, -1, -1]
        assert g.labeled_nodes().size == 0
        assert np.array_equal(g.features.to_dense(), missing.features.to_dense())
        assert np.array_equal(g.adjacency.to_dense(), missing.adjacency.to_dense())
    assert (missing.n, missing.m, missing.class_count) == (empty.n, empty.m, empty.class_count)
    assert no_classes.class_count == 0


def test_round_trip_of_an_unlabeled_graph(tmp_path):
    g = replace(triangle_graph(), labels=np.full(3, -1))
    write_dataset(g, tmp_path / "a")
    assert (tmp_path / "a" / "labels.tsv").read_bytes() == b""
    g1 = load_dataset(tmp_path / "a", row_normalize=False)
    assert np.array_equal(g1.labels, g.labels) and g1.class_count == g.class_count
    assert np.array_equal(g1.features.to_dense(), g.features.to_dense())


@pytest.mark.parametrize("sizes, p_in, p_out, seed", [
    ([10, 10], 0.6, 0.05, 0), ([5, 4], 0.8, 0.1, 3), ([30, 20, 7], 0.3, 0.05, 11),
    ([6, 0, 3], 1.0, 0.0, 12), ([1], 0.5, 0.5, 4), ([40] * 6, 0.10, 0.004, 7),
])
def test_make_sbm_matches_the_pair_loop(sizes, p_in, p_out, seed):
    g = make_sbm(sizes, p_in, p_out, feature_dim=3, rng=RngState(seed))
    pairs, feats = sbm_pairs_loop(sizes, p_in, p_out, 3, RngState(seed))
    dense = np.zeros((g.n, g.n))
    for i, j in pairs:
        dense[i, j] = dense[j, i] = 1.0
    assert g.m == len(pairs)
    assert np.array_equal(g.adjacency.to_dense(), dense)
    assert np.array_equal(g.features.to_dense(), feats)


def test_cora_fixture_statistics():
    from test_acceptance import dataset_dir
    g = load_dataset(dataset_dir("cora"))  # skips when not converted locally
    assert (g.n, g.m, g.feature_dim, g.class_count) == (2708, 5278, 1433, 7)
    assert np.array_equal(g.adjacency.to_dense(), g.adjacency.to_dense().T)


def test_partial_split_files_error(tmp_path):
    g = make_sbm([4, 4], 0.9, 0.1, feature_dim=2, rng=RngState(2))
    write_dataset(g, tmp_path / "p")
    assert load_split(tmp_path / "p", g.n) is None
    (tmp_path / "p" / "train.idx").write_text("0\n1\n")
    with pytest.raises(IngestionError, match="partial"):
        load_split(tmp_path / "p", g.n)


# ---------------------------------------------------------------------------
# operators


def test_normalized_adjacency_triangle():
    # every degree is 3 with the self-loop, so every entry is 1/3; the
    # loop-free oracle that the triangle eigen tests use has 1/2 off the diagonal
    g = triangle_graph()
    assert np.allclose(normalized_adjacency(g).to_dense(), np.ones((3, 3)) / 3.0, atol=1e-15)
    expected = (np.ones((3, 3)) - np.eye(3)) / 2.0
    assert np.allclose(loop_free_adjacency(g).to_dense(), expected, atol=1e-15)


def test_normalized_adjacency_isolated_node():
    adj = CsrMatrix.from_dense(np.zeros((1, 1)))
    feats = np.zeros((1, 1))
    g = Graph(n=1, m=0, adjacency=adj, features=CsrMatrix.from_dense(feats),
              labels=np.full(1, -1), class_count=1)
    assert normalized_adjacency(g).to_dense() == pytest.approx(1.0)


def test_normalized_laplacian_triangle_and_edgeless():
    # L~ = I - A~, read through ratiocut_trace: on the triangle L~ = I - 1/3,
    # so its trace is 2 and the constant vector is in its kernel; with no
    # edge A~ = I, so L~ = 0
    at = normalized_adjacency(triangle_graph())
    assert ratiocut_trace(np.eye(3), at) == pytest.approx(2.0, abs=1e-15)
    assert ratiocut_trace(np.ones((3, 1)), at) == pytest.approx(0.0, abs=1e-15)
    adj = CsrMatrix.from_dense(np.zeros((4, 4)))
    feats = np.zeros((4, 1))
    g = Graph(n=4, m=0, adjacency=adj, features=CsrMatrix.from_dense(feats),
              labels=np.full(4, -1), class_count=1)
    assert np.array_equal(normalized_adjacency(g).to_dense(), np.eye(4))
    assert ratiocut_trace(RngState(7).normal((4, 2)), normalized_adjacency(g)) == 0.0


def test_laplacian_eigenvalues_in_0_2():
    # the spectrum of L~ = I - A~ lies in [0, 2] exactly when that of A~ lies
    # in [-1, 1], the bound under which APPNP's hops contract; 1 is the top
    # eigenvalue of A~ (eigenvector D^1/2 1)
    for seed in range(6):
        sizes = [4, 4] if seed % 2 else [8, 8]
        g = make_sbm(sizes, 0.7, 0.3, feature_dim=2, rng=RngState(seed))
        w = np.linalg.eigvalsh(normalized_adjacency(g).to_dense())
        assert w.min() >= -1.0 - 1e-10
        assert w.max() == pytest.approx(1.0, abs=1e-10)


def test_operators_are_symmetric_and_transition_rows_sum_to_one(tmp_path):
    # A~ equals its transpose bit for bit: sogn_layer's gradient propagates
    # with A~ itself. The file-built graph has a self-loop edge (2 2), an edge
    # given three times (0 1, 0 1, 1 0) and an isolated node (4)
    graphs = [make_sbm([6, 5], 0.6, 0.2, feature_dim=2, rng=RngState(100 + seed))
              for seed in range(5)]
    edges = "0\t1\n0\t1\n1\t0\n2\t2\n1\t2\n3\t1\n"
    graphs.append(load_dataset(write_triangle(tmp_path / "loops", n=5, m=4, edges=edges)))
    assert np.array_equal(graphs[-1].adjacency.to_dense().sum(axis=1), [1, 3, 2, 1, 0])
    for g in graphs:
        at = normalized_adjacency(g).to_dense()
        assert np.array_equal(at, at.T)
        p = transition_matrix(g).to_dense()
        deg = g.adjacency.to_dense().sum(axis=1)
        sums = p.sum(axis=1)
        assert np.allclose(sums[deg > 0], 1.0, atol=1e-12)
        assert np.allclose(sums[deg == 0], 0.0)


def test_row_l1_normalize_keeps_zero_rows():
    x = CsrMatrix.from_dense(np.array([[2.0, -2.0], [0.0, 0.0]]))
    out = row_l1_normalize(x).to_dense()
    assert np.allclose(out, [[0.5, -0.5], [0.0, 0.0]])


def test_row_l1_normalize_matches_the_dense_formula():
    d = 40
    a = RngState(8).normal((7, d)) * (RngState(9).uniform((7, d)) < 0.4)
    a[[0, 6]] = 0.0
    out = row_l1_normalize(CsrMatrix.from_dense(a)).to_dense()
    norms = np.abs(a).sum(axis=1, keepdims=True)
    # the row sums differ only in summation order: d roundings each at most
    rtol = 2 * d * np.finfo(np.float64).eps
    assert np.allclose(out, a / np.where(norms > 0, norms, 1.0), rtol=rtol, atol=0.0)
    assert not out[[0, 6]].any()


# ---------------------------------------------------------------------------
# splits


def labeled_graph(n_per_class, k, seed=0):
    return make_sbm([n_per_class] * k, 0.5, 0.1, feature_dim=2, rng=RngState(seed))


def planetoid_graph(seed):
    """Seven classes of 250 nodes: 1610 labeled nodes beyond 20 per class,
    enough for the Planetoid protocol's 500 validation and 1000 test nodes."""
    return make_sbm([250] * 7, 0.02, 0.002, feature_dim=2, rng=RngState(seed))


def test_planetoid_style_split_sizes():
    g = planetoid_graph(seed=3)
    split = make_split(g, "planetoid_style", RngState(4), train_per_class=20, val_per_class=30)
    assert len(split.train_idx) == 140
    assert len(split.val_idx) == 500
    assert len(split.test_idx) == 1000
    for c in range(7):
        assert (g.labels[split.train_idx] == c).sum() == 20


def test_per_class_split_sizes():
    g = labeled_graph(60, 10, seed=5)
    split = make_split(g, "per_class", RngState(6), train_per_class=20, val_per_class=30)
    assert len(split.train_idx) == 200
    assert len(split.val_idx) == 300
    assert len(split.test_idx) == g.n - 500


def test_two_seeds_differ_but_sizes_match():
    g = planetoid_graph(seed=7)
    a = make_split(g, "planetoid_style", RngState(1), 20, 30)
    b = make_split(g, "planetoid_style", RngState(2), 20, 30)
    assert len(a.val_idx) == len(b.val_idx)
    assert len(a.test_idx) == len(b.test_idx)
    assert not (np.array_equal(a.val_idx, b.val_idx) and np.array_equal(a.test_idx, b.test_idx))


def test_infeasible_split_lists_deficient_classes():
    g = labeled_graph(10, 3, seed=8)
    with pytest.raises(SplitError, match=r"\[0, 1, 2\]"):
        make_split(g, "per_class", RngState(9), train_per_class=20, val_per_class=30)


@pytest.mark.parametrize("policy", ["planetoid_style", "per_class"])
def test_split_of_a_graph_with_no_labeled_node(tmp_path, policy):
    for path in _unlabeled_forms(tmp_path / policy):
        with pytest.raises(SplitError, match="triangle: no labeled node to split"):
            make_split(load_dataset(path), policy, RngState(0), train_per_class=0,
                       val_per_class=0)


def test_split_validation():
    with pytest.raises(SplitError):
        Split(np.array([0, 1]), np.array([1]), np.array([2]))
    with pytest.raises(SplitError):
        Split(np.array([], dtype=np.int64), np.array([1]), np.array([2]))
    s = Split(np.array([0]), np.array([1]), np.array([2]))
    g = labeled_graph(1, 2)
    with pytest.raises(SplitError, match="references node 2 but graph has 2 nodes"):
        s.check(g)
    g = labeled_graph(2, 2)
    s.check(g)
    with pytest.raises(SplitError, match="the train set names unlabeled node 0"):
        s.check(replace(g, labels=np.full(4, -1)))
    with pytest.raises(SplitError, match="the test set names unlabeled node 2"):
        s.check(replace(g, labels=np.array([0, 0, -1, 1])))


@pytest.mark.parametrize("empty", ["validation", "test"])
def test_split_rejects_empty_validation_or_test_set(empty):
    val, test = ([], [2]) if empty == "validation" else ([1], [])
    with pytest.raises(SplitError, match=f"the {empty} set is empty"):
        Split(np.array([0]), np.array(val, dtype=np.int64), np.array(test, dtype=np.int64))


def test_graph_invariant_checks():
    adj = CsrMatrix.from_dense(np.zeros((2, 2)))
    feats = np.zeros((2, 2))
    # "no label" is a -1 entry, never a missing array
    for labels in (np.array([0, 3]), np.array([0]), None):
        with pytest.raises(ShapeError):
            Graph(n=2, m=0, adjacency=adj, features=CsrMatrix.from_dense(feats),
                  labels=labels, class_count=2)
