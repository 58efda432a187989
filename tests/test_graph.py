import json

import numpy as np
import pytest

from ncgc.errors import IngestionError, ShapeError, SplitError
from ncgc.graph import (
    Graph, Split, load_dataset, load_split, make_split, normalized_adjacency,
    normalized_laplacian, row_l1_normalize, write_dataset,
)
from ncgc.rng import RngState
from ncgc.sparse import CsrMatrix
from ncgc.synth import make_sbm
from oracles import transition_matrix


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
    return Graph(n=3, m=3, adjacency=adj, features=feats, features_raw=feats,
                 labels=np.array([0, 1, 1]), class_count=2, name="triangle")


# ---------------------------------------------------------------------------
# ingestion


def test_load_triangle_fixture(tmp_path):
    g = load_dataset(write_triangle(tmp_path / "tri"))
    assert g.n == 3 and g.m == 3
    assert g.adjacency.nnz == 6
    assert g.feature_dim == 2 and g.class_count == 2
    assert g.adjacency.is_symmetric()
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
    sums = np.abs(g.features).sum(axis=1)
    nz = np.abs(g.features_raw).sum(axis=1) > 0
    assert np.allclose(sums[nz], 1.0)
    g_raw = load_dataset(d, row_normalize=False)
    assert np.array_equal(g_raw.features, g_raw.features_raw)


def test_round_trip_is_identical(tmp_path):
    rng = RngState(0)
    g = make_sbm([5, 4], 0.8, 0.1, feature_dim=3, rng=rng)
    split = make_split(g, "per_class", RngState(1), per_class_train=2, per_class_val=1)
    write_dataset(g, tmp_path / "a", split)
    g1 = load_dataset(tmp_path / "a")
    s1 = load_split(tmp_path / "a", g1.n)
    write_dataset(g1, tmp_path / "b", s1)
    g2 = load_dataset(tmp_path / "b")
    s2 = load_split(tmp_path / "b", g2.n)
    assert g1.n == g2.n and g1.m == g2.m
    assert np.array_equal(g1.features, g2.features)
    assert np.array_equal(g1.features_raw, g2.features_raw)
    assert np.array_equal(g1.labels, g2.labels)
    assert np.array_equal(g1.adjacency.col_indices, g2.adjacency.col_indices)
    assert np.array_equal(g1.adjacency.row_offsets, g2.adjacency.row_offsets)
    assert np.array_equal(g1.adjacency.values, g2.adjacency.values)
    for name in ("train_idx", "val_idx", "test_idx"):
        assert np.array_equal(getattr(s1, name), getattr(s2, name))


def test_cora_fixture_statistics():
    from test_acceptance import dataset_dir
    g = load_dataset(dataset_dir("cora"))  # skips when not converted locally
    assert (g.n, g.m, g.feature_dim, g.class_count) == (2708, 5278, 1433, 7)
    assert g.adjacency.is_symmetric()


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
    g = triangle_graph()
    at = normalized_adjacency(g, add_self_loops=False).to_dense()
    expected = (np.ones((3, 3)) - np.eye(3)) / 2.0
    assert np.allclose(at, expected, atol=1e-15)
    at_loops = normalized_adjacency(g, add_self_loops=True).to_dense()
    assert np.allclose(at_loops, np.ones((3, 3)) / 3.0, atol=1e-15)


def test_normalized_adjacency_isolated_node():
    adj = CsrMatrix.zeros(1, 1)
    feats = np.zeros((1, 1))
    g = Graph(n=1, m=0, adjacency=adj, features=feats, features_raw=feats,
              labels=None, class_count=1)
    assert normalized_adjacency(g, add_self_loops=False).to_dense() == pytest.approx(0.0)
    assert normalized_adjacency(g, add_self_loops=True).to_dense() == pytest.approx(1.0)


def test_normalized_laplacian_triangle_and_edgeless():
    lt = normalized_laplacian(triangle_graph()).to_dense()
    assert np.allclose(lt, np.eye(3) * 1.5 - 0.5, atol=1e-15)
    adj = CsrMatrix.zeros(4, 4)
    feats = np.zeros((4, 1))
    g = Graph(n=4, m=0, adjacency=adj, features=feats, features_raw=feats,
              labels=None, class_count=1)
    assert np.allclose(normalized_laplacian(g).to_dense(), np.eye(4))


def test_laplacian_eigenvalues_in_0_2():
    for seed in range(6):
        sizes = [4, 4] if seed % 2 else [8, 8]
        g = make_sbm(sizes, 0.7, 0.3, feature_dim=2, rng=RngState(seed))
        w = np.linalg.eigvalsh(normalized_laplacian(g).to_dense())
        assert w.min() >= -1e-10
        assert w.max() <= 2.0 + 1e-10


def test_operators_are_symmetric_and_transition_rows_sum_to_one():
    for seed in range(5):
        g = make_sbm([6, 5], 0.6, 0.2, feature_dim=2, rng=RngState(100 + seed))
        at = normalized_adjacency(g).to_dense()
        lt = normalized_laplacian(g).to_dense()
        assert np.allclose(at, at.T, atol=1e-14)
        assert np.allclose(lt, lt.T, atol=1e-14)
        p = transition_matrix(g).to_dense()
        deg = g.adjacency.to_dense().sum(axis=1)
        sums = p.sum(axis=1)
        assert np.allclose(sums[deg > 0], 1.0, atol=1e-12)
        assert np.allclose(sums[deg == 0], 0.0)


def test_row_l1_normalize_keeps_zero_rows():
    x = np.array([[2.0, -2.0], [0.0, 0.0]])
    out = row_l1_normalize(x)
    assert np.allclose(out, [[0.5, -0.5], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# splits


def labeled_graph(n_per_class, k, seed=0):
    return make_sbm([n_per_class] * k, 0.5, 0.1, feature_dim=2, rng=RngState(seed))


def test_planetoid_style_split_sizes():
    g = labeled_graph(120, 7, seed=3)
    split = make_split(g, "planetoid_style", RngState(4),
                       per_class_train=20, val_total=200, test_total=400)
    assert len(split.train_idx) == 140
    assert len(split.val_idx) == 200
    assert len(split.test_idx) == 400
    for c in range(7):
        assert (g.labels[split.train_idx] == c).sum() == 20


def test_per_class_split_sizes():
    g = labeled_graph(60, 10, seed=5)
    split = make_split(g, "per_class", RngState(6), per_class_train=20, per_class_val=30)
    assert len(split.train_idx) == 200
    assert len(split.val_idx) == 300
    assert len(split.test_idx) == g.n - 500


def test_two_seeds_differ_but_sizes_match():
    g = labeled_graph(80, 4, seed=7)
    a = make_split(g, "planetoid_style", RngState(1), val_total=60, test_total=100)
    b = make_split(g, "planetoid_style", RngState(2), val_total=60, test_total=100)
    assert len(a.val_idx) == len(b.val_idx)
    assert len(a.test_idx) == len(b.test_idx)
    assert not (np.array_equal(a.val_idx, b.val_idx) and np.array_equal(a.test_idx, b.test_idx))


def test_infeasible_split_lists_deficient_classes():
    g = labeled_graph(10, 3, seed=8)
    with pytest.raises(SplitError, match=r"\[0, 1, 2\]"):
        make_split(g, "per_class", RngState(9), per_class_train=20, per_class_val=30)


def test_split_validation():
    with pytest.raises(SplitError):
        Split(np.array([0, 1]), np.array([1]), np.array([2]))
    with pytest.raises(SplitError):
        Split(np.array([], dtype=np.int64), np.array([1]), np.array([2]))
    s = Split(np.array([0]), np.array([1]), np.array([2]))
    with pytest.raises(SplitError):
        s.check_against(2)


def test_graph_invariant_checks():
    adj = CsrMatrix.zeros(2, 2)
    feats = np.zeros((2, 2))
    with pytest.raises(ShapeError):
        Graph(n=2, m=0, adjacency=adj, features=feats, features_raw=feats,
              labels=np.array([0, 3]), class_count=2)
