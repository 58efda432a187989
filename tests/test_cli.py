import json
import shutil
import struct
from dataclasses import replace

import numpy as np
import pytest

import ncgc.cli as cli
from ncgc import trainer
from ncgc.cli import main, read_config_file
from ncgc.graph import write_dataset
from ncgc.rng import RngState
from ncgc.synth import make_sbm
from ncgc.trainer import run_seeds


@pytest.fixture()
def sbm_dir(tmp_path):
    g = make_sbm([10, 10], 0.6, 0.05, feature_dim=6, rng=RngState(0),
                 feature_shift=2.5, feature_noise=0.6)
    d = tmp_path / "sbm"
    write_dataset(g, d)
    return d


@pytest.fixture()
def triangle_dir(tmp_path):
    g = make_sbm([2, 2], 1.0, 1.0, feature_dim=2, rng=RngState(1))
    d = tmp_path / "tri"
    write_dataset(g, d)
    return d


FAST_FLAGS = [
    "--hidden", "16", "--layers", "2", "--dropout", "0.2", "--lr", "0.01",
    "--epochs", "60", "--patience", "60", "--warmup", "10",
    "--train-per-class", "3", "--val-per-class", "3", "--split-policy", "per_class",
    "--row-normalize", "off",
]


def test_validate_triangle(capsys, tmp_path):
    import json as _json
    d = tmp_path / "triangle"
    d.mkdir()
    (d / "meta.json").write_text(_json.dumps(
        {"n": 3, "m": 3, "d": 2, "k": 2, "name": "triangle"}))
    (d / "features.bin").write_bytes(np.zeros(6, dtype="<f4").tobytes())
    (d / "edges.tsv").write_text("0\t1\n0\t2\n1\t2\n")
    (d / "labels.tsv").write_text("0\t0\n1\t1\n2\t1\n")
    assert main(["validate", "--dataset", str(d)]) == 0
    out = capsys.readouterr().out
    assert "n=3 m=3 d=2 k=2" in out


def test_validate_fixture(capsys, sbm_dir):
    assert main(["validate", "--dataset", str(sbm_dir)]) == 0
    out = capsys.readouterr().out
    assert "n=20" in out and "m=" in out and "k=2" in out
    assert "labels: 0:10 1:10" in out


def test_validate_truncated_features_exit_2(capsys, sbm_dir):
    blob = (sbm_dir / "features.bin").read_bytes()
    (sbm_dir / "features.bin").write_bytes(blob[:-5])
    assert main(["validate", "--dataset", str(sbm_dir)]) == 2
    err = capsys.readouterr().err
    assert "byte offset" in err


def _bool_class_count(d):
    meta = json.loads((d / "meta.json").read_text())
    meta["k"] = True  # bool is a subclass of int in Python, but not a count
    (d / "meta.json").write_text(json.dumps(meta))


def _idx_not_utf8(d):
    for f in ("train.idx", "val.idx", "test.idx"):
        (d / f).write_bytes(b"\xfe0\n")


def _nan_feature(d):
    feats = np.fromfile(d / "features.bin", dtype="<f4")
    feats[13] = np.nan
    feats.tofile(d / "features.bin")


def _write(name, data):
    return lambda d: (d / name).write_bytes(data)


def _append(name, data):
    def corrupt(d):
        with (d / name).open("ab") as f:
            f.write(data)
    return corrupt


def _train_idx(data):
    """A split whose val.idx and test.idx are valid and whose train.idx is ``data``."""
    def corrupt(d):
        (d / "train.idx").write_bytes(data)
        (d / "val.idx").write_bytes(b"18\n")
        (d / "test.idx").write_bytes(b"19\n")
    return corrupt


@pytest.mark.parametrize("name, corrupt", [
    pytest.param("meta.json", lambda d: (d / "meta.json").write_bytes(b'{"name": "\xff"}'),
                 id="meta-not-utf8"),
    pytest.param("meta.json", _bool_class_count, id="meta-bool-count"),
    pytest.param("meta.json", lambda d: (d / "meta.json").write_text('["n", "m", "d", "k"]'),
                 id="meta-not-object"),
    pytest.param("edges.tsv", lambda d: (d / "edges.tsv").write_bytes(b"0\t1\n\xff\t2\n"),
                 id="edges-not-utf8"),
    pytest.param("edges.tsv", lambda d: ((d / "edges.tsv").unlink(), (d / "edges.tsv").mkdir()),
                 id="edges-is-directory"),
    pytest.param("labels.tsv", lambda d: (d / "labels.tsv").write_bytes(b"0\t\xc3\n"),
                 id="labels-not-utf8"),
    pytest.param("train.idx", _idx_not_utf8, id="idx-not-utf8"),
    pytest.param("features.bin", _nan_feature, id="features-non-finite"),
    pytest.param("features.bin: expected 480 bytes for 20x6 float32 values, found 484 "
                 "(extra bytes from byte offset 480)",
                 _append("features.bin", bytes(4)),
                 id="features-too-long"),
    pytest.param("edges.tsv:2", _write("edges.tsv", b"0\t1\n0\t1\t2\n"), id="edges-field-count"),
    pytest.param("edges.tsv:2", _write("edges.tsv", b"0\t1\n0\tx\n"), id="edges-non-integer"),
    pytest.param("edges.tsv:2", _write("edges.tsv", b"0\t1\n0\t20\n"), id="edges-node-range"),
    pytest.param("labels.tsv:2", _write("labels.tsv", b"0\t0\n1\n"), id="labels-field-count"),
    pytest.param("labels.tsv:2", _write("labels.tsv", b"0\t0\n1\t1.0\n"),
                 id="labels-non-integer"),
    pytest.param("labels.tsv:2", _write("labels.tsv", b"0\t0\n-1\t0\n"), id="labels-node-range"),
    pytest.param("labels.tsv:2", _write("labels.tsv", b"0\t0\n1\t2\n"), id="labels-class-range"),
    pytest.param("labels.tsv:3", _write("labels.tsv", b"0\t0\n1\t1\n0\t1\n"),
                 id="labels-twice"),
    pytest.param("train.idx:2", _train_idx(b"0\n1\t2\n"), id="idx-field-count"),
    pytest.param("train.idx:2", _train_idx(b"0\nx\n"), id="idx-non-integer"),
    pytest.param("train.idx:2", _train_idx(b"0\n20\n"), id="idx-node-range"),
])
def test_validate_malformed_dataset_bytes_exit_2(capsys, sbm_dir, name, corrupt):
    corrupt(sbm_dir)
    assert main(["validate", "--dataset", str(sbm_dir)]) == 2
    assert name in capsys.readouterr().err


def test_non_utf8_config_exit_2(capsys, sbm_dir, tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_bytes(b"beta = 0.1 # \xff\n")
    assert main(["train", "--config", str(cfg), "--dataset", str(sbm_dir),
                 "--out", str(tmp_path / "o"), "--seed", "1"]) == 2
    assert "bad.conf" in capsys.readouterr().err


def _nan_weight(path):
    from ncgc.model import load_checkpoint, save_checkpoint
    named = load_checkpoint(path)
    named["proto.w"][0, 0] = np.nan
    save_checkpoint(path, named)


def _repeat_first_parameter(path):
    # append a second copy of the first entry and count it in the header
    data = path.read_bytes()
    (count,) = struct.unpack_from("<I", data, 8)
    (name_len,) = struct.unpack_from("<I", data, 12)
    rows, cols = struct.unpack_from("<QQ", data, 16 + name_len)
    end = 32 + name_len + rows * cols * 8
    path.write_bytes(data[:8] + struct.pack("<I", count + 1) + data[12:] + data[12:end])


@pytest.mark.parametrize("corrupt, reason", [
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:10]), "truncated",
                 id="short-header"),
    pytest.param(lambda p: p.write_bytes(p.read_bytes().replace(b"input.w0", b"input.w\xff")),
                 "not UTF-8", id="name-not-utf8"),
    pytest.param(_nan_weight, "non-finite", id="nan-weight"),
    pytest.param(lambda p: p.write_bytes(p.read_bytes() + b"\0"), "extra bytes from byte offset",
                 id="trailing-bytes"),
    pytest.param(_repeat_first_parameter, "repeated parameter 'input.w0'", id="repeated-name"),
])
def test_evaluate_malformed_checkpoint_exit_2(capsys, sbm_dir, tmp_path, corrupt, reason):
    out = tmp_path / "ck"
    assert main(["train", "--dataset", str(sbm_dir), "--out", str(out),
                 "--seed", "1"] + FAST_FLAGS) == 0
    corrupt(out / "checkpoint.bin")
    capsys.readouterr()
    assert main(["evaluate", "--dataset", str(sbm_dir),
                 "--checkpoint", str(out / "checkpoint.bin"),
                 "--config", str(out / "config.resolved")]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.bin" in err and reason in err


def test_determinism_off_exit_4(capsys, sbm_dir, tmp_path):
    assert main(["train", "--dataset", str(sbm_dir), "--out", str(tmp_path / "o"),
                 "--seed", "1", "--determinism", "off"] + FAST_FLAGS) == 4
    assert "--determinism off" in capsys.readouterr().err


def test_numeric_blowup_exit_3(capsys, sbm_dir, tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--dataset", str(sbm_dir), "--out", str(tmp_path / "o"),
                   "--seed", "1", "--lr", "1e18", "--epochs", "20", "--patience", "20",
                   "--warmup", "10", "--hidden", "16"] + FAST_FLAGS[14:])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err


def test_missing_required_flags_exit_4(capsys, sbm_dir, tmp_path):
    assert main(["train", "--dataset", str(sbm_dir), "--out", str(tmp_path / "o")]) == 4
    assert main(["nonsense"]) == 4
    assert main(["sweep", "--dataset", str(sbm_dir), "--out", str(tmp_path / "o"),
                 "--seed", "1", "--values", "0.1", "--axis", "bogus"]) == 4


def test_train_writes_artifacts_and_summary(capsys, sbm_dir, tmp_path):
    out = tmp_path / "run"
    rc = main(["train", "--dataset", str(sbm_dir), "--out", str(out),
               "--seed", "7", "--runs", "1"] + FAST_FLAGS)
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "acc_mean=" in stdout and "acc_std=0.0000" in stdout and "runs=1" in stdout
    for name in ("report.json", "epochs.csv", "checkpoint.bin", "config.resolved",
                 "train.idx", "val.idx", "test.idx"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["runs"] == 1
    assert len(report["per_run"]) == 1
    assert "wall_time" not in json.dumps(report)


def test_train_reaches_full_accuracy_on_separable_fixture(capsys, sbm_dir, tmp_path):
    rc = main(["train", "--dataset", str(sbm_dir), "--out", str(tmp_path / "acc"),
               "--seed", "0", "--runs", "1", "--epochs", "200", "--patience", "200"]
              + FAST_FLAGS[:-4] + ["--train-per-class", "3", "--val-per-class", "3",
                                   "--split-policy", "per_class",
                                   "--row-normalize", "off"])
    assert rc == 0
    assert "acc_mean=1.0000" in capsys.readouterr().out


def test_rerun_from_resolved_config_is_byte_identical(capsys, sbm_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["train", "--dataset", str(sbm_dir), "--out", str(out1),
            "--seed", "3", "--runs", "2"] + FAST_FLAGS
    assert main(args) == 0
    assert main(["train", "--config", str(out1 / "config.resolved"),
                 "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "epochs.csv").read_bytes() == (out2 / "epochs.csv").read_bytes()
    assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()
    # resolved configs agree except for the overridden output directory
    c1 = read_config_file(out1 / "config.resolved")
    c2 = read_config_file(out2 / "config.resolved")
    c1.pop("out"), c2.pop("out")
    assert c1 == c2


def test_evaluate_from_checkpoint(capsys, sbm_dir, tmp_path):
    out = tmp_path / "ev"
    assert main(["train", "--dataset", str(sbm_dir), "--out", str(out),
                 "--seed", "5", "--runs", "1", "--epochs", "120", "--patience", "120"]
                + FAST_FLAGS[:-4] + ["--train-per-class", "3", "--val-per-class", "3",
                                     "--split-policy", "per_class",
                                     "--row-normalize", "off"]) == 0
    train_out = capsys.readouterr().out
    acc_mean = float(train_out.split("acc_mean=")[1].split()[0])
    rc = main(["evaluate", "--dataset", str(sbm_dir),
               "--checkpoint", str(out / "checkpoint.bin"),
               "--config", str(out / "config.resolved")])
    assert rc == 0
    eval_out = capsys.readouterr().out
    test_acc = float(eval_out.split("test_acc=")[1].split()[0])
    assert test_acc == pytest.approx(acc_mean, abs=1e-9)


def test_evaluate_checkpoint_with_extra_layer_exit_3(capsys, sbm_dir, tmp_path):
    out = tmp_path / "deep"
    assert main(["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 "--layers", "3", "--hidden", "8", "--epochs", "2", "--patience", "2",
                 "--warmup", "1", "--train-per-class", "3", "--val-per-class", "3",
                 "--split-policy", "per_class"]) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--config", str(out / "config.resolved"), "--layers", "2",
               "--checkpoint", str(out / "checkpoint.bin")])
    assert rc == 3
    assert "layer2.w" in capsys.readouterr().err


def test_evaluate_on_dataset_without_labels_exit_2(capsys, sbm_dir, tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 "--epochs", "2", "--patience", "2", "--warmup", "1"] + FAST_FLAGS[14:]) == 0
    unlabeled = tmp_path / "unlabeled"
    shutil.copytree(sbm_dir, unlabeled)
    (unlabeled / "labels.tsv").unlink()

    def never(path):
        raise AssertionError("the checkpoint was read")

    monkeypatch.setattr(cli, "load_checkpoint", never)
    capsys.readouterr()
    rc = main(["evaluate", "--config", str(out / "config.resolved"),
               "--checkpoint", str(out / "checkpoint.bin"), "--dataset", str(unlabeled)])
    assert rc == 2
    assert "evaluation needs node labels" in capsys.readouterr().err


def test_evaluate_with_empty_labels_file_exit_2(capsys, sbm_dir, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 "--epochs", "2", "--patience", "2", "--warmup", "1"] + FAST_FLAGS[14:]) == 0
    unlabeled = tmp_path / "unlabeled"
    shutil.copytree(sbm_dir, unlabeled)
    (unlabeled / "labels.tsv").write_bytes(b"")
    capsys.readouterr()
    rc = main(["evaluate", "--config", str(out / "config.resolved"),
               "--checkpoint", str(out / "checkpoint.bin"), "--dataset", str(unlabeled)])
    assert rc == 2
    assert "the train set names unlabeled node" in capsys.readouterr().err


@pytest.mark.parametrize("empty, name", [("val", "validation"), ("test", "test")])
def test_evaluate_split_with_empty_set_exit_2(capsys, sbm_dir, tmp_path, empty, name):
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 "--epochs", "2", "--patience", "2", "--warmup", "1"] + FAST_FLAGS[14:]) == 0
    (out / f"{empty}.idx").write_bytes(b"")
    capsys.readouterr()
    rc = main(["evaluate", "--config", str(out / "config.resolved"),
               "--checkpoint", str(out / "checkpoint.bin")])
    assert rc == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and f"the {name} set is empty" in errors[0]
    assert all(str(out / f) in errors[0] for f in ("train.idx", "val.idx", "test.idx"))


@pytest.mark.parametrize("empty, name", [("val", "validation"), ("test", "test")])
def test_validate_split_with_empty_set_exit_2(capsys, sbm_dir, empty, name):
    for f, ids in (("train", "0\n10\n"), ("val", "1\n11\n"), ("test", "2\n12\n")):
        (sbm_dir / f"{f}.idx").write_text("" if f == empty else ids)
    assert main(["validate", "--dataset", str(sbm_dir)]) == 2
    assert f"the {name} set is empty" in capsys.readouterr().err


def test_train_fixed_split_naming_unlabeled_node_exit_2(capsys, sbm_dir, tmp_path):
    lines = (sbm_dir / "labels.tsv").read_text().splitlines(keepends=True)
    (sbm_dir / "labels.tsv").write_text("".join(line for line in lines
                                                if not line.startswith("19\t")))
    (sbm_dir / "train.idx").write_text("0\n1\n2\n10\n11\n12\n")
    (sbm_dir / "val.idx").write_text("3\n13\n19\n")
    (sbm_dir / "test.idx").write_text("4\n5\n14\n15\n")
    out = tmp_path / "o"
    rc = main(["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
               "--epochs", "2", "--patience", "2", "--warmup", "1"] + FAST_FLAGS[14:])
    assert rc == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == ["error: the validation set names unlabeled node 19"]
    assert not out.exists()


def _fixed_split_without_labels(d):
    (d / "labels.tsv").unlink()
    for name, ids in (("train.idx", "0\n10\n"), ("val.idx", "1\n11\n"), ("test.idx", "2\n12\n")):
        (d / name).write_text(ids)


def _unchanged(d):
    pass


@pytest.mark.parametrize("command, extra", [
    ("train", []), ("ablate", []), ("sweep", ["--axis", "beta", "--values", "0,0.01"]),
])
@pytest.mark.parametrize("corrupt, split_flags, message", [
    pytest.param(_append("edges.tsv", b"0\tx\n"), [], "edges.tsv:", id="edges-malformed"),
    pytest.param(_fixed_split_without_labels, [], "no labels.tsv", id="fixed-split-no-labels"),
    # the 20-node SBM has 10 nodes per class
    pytest.param(_unchanged, ["--train-per-class", "9", "--val-per-class", "3"],
                 "classes with too few labeled nodes", id="split-too-few-labeled"),
    pytest.param(_unchanged, ["--train-per-class", "7"], "the test set is empty",
                 id="split-empty-test"),
    pytest.param(_unchanged, ["--val-per-class", "0"], "the validation set is empty",
                 id="split-empty-validation"),
    pytest.param(_unchanged, ["--split-policy", "planetoid_style", "--train-per-class", "10",
                              "--val-total", "0", "--test-total", "0"],
                 "the validation set is empty", id="split-covers-every-node"),
])
def test_input_error_exits_2_before_creating_out(capsys, sbm_dir, tmp_path, command, extra,
                                                 corrupt, split_flags, message):
    corrupt(sbm_dir)
    out = tmp_path / "o"
    rc = main([command, "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
               "--epochs", "2", "--patience", "2", "--warmup", "1"] + extra + FAST_FLAGS[14:]
              + split_flags)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.usefixtures("tape_guard")
def test_ablate_emits_five_rows(capsys, sbm_dir, tmp_path):
    out = tmp_path / "ab"
    rc = main(["ablate", "--dataset", str(sbm_dir), "--out", str(out),
               "--seed", "2", "--runs", "1", "--epochs", "40", "--patience", "40"]
              + FAST_FLAGS[:-4] + ["--train-per-class", "3", "--val-per-class", "3",
                                   "--split-policy", "per_class",
                                   "--row-normalize", "off"])
    assert rc == 0
    stdout = capsys.readouterr().out
    for variant in ("full", "no_soc", "no_kl", "no_pl", "no_skn"):
        assert f"variant={variant}" in stdout
    table = json.loads((out / "report.json").read_text())["variants"]
    assert sorted(table) == ["full", "no_kl", "no_pl", "no_skn", "no_soc"]
    lines = (out / "ablate.csv").read_text().strip().splitlines()
    assert len(lines) == 6


@pytest.mark.usefixtures("tape_guard")
def test_ablate_no_skn_row_is_a_sinkhorn_off_run(sbm_dir, tmp_path, monkeypatch):
    argv = ["ablate", "--dataset", str(sbm_dir), "--out", str(tmp_path / "ab"), "--seed", "3",
            "--runs", "2"] + FAST_FLAGS
    hps = []
    real_train = trainer.train
    monkeypatch.setattr(trainer, "train",
                        lambda g, split, hp: hps.append(hp) or real_train(g, split, hp))
    assert main(argv) == 0
    # two runs per variant, in VARIANTS order; only no_skn switches Sinkhorn off
    assert [hp.sinkhorn for hp in hps] == [True] * 8 + [False] * 2
    table = json.loads((tmp_path / "ab" / "report.json").read_text())["variants"]
    resolved = cli.resolve_options(cli.build_parser().parse_args(argv), cli.COMMANDS["ablate"][1])
    g, splits, _ = cli._prepare_runs(resolved)
    hp = cli.hyperparams_from(resolved)
    assert table["no_skn"]["acc_mean"] == run_seeds(g, replace(hp, sinkhorn=False), splits).mean


def test_sweep_csv_row_count_and_single_value_matches_train(capsys, sbm_dir, tmp_path):
    common = ["--dataset", str(sbm_dir), "--seed", "4", "--runs", "1",
              "--epochs", "40", "--patience", "40"] + FAST_FLAGS[:-4] + [
              "--train-per-class", "3", "--val-per-class", "3",
              "--split-policy", "per_class", "--row-normalize", "off"]
    out_t = tmp_path / "t"
    assert main(["train", "--out", str(out_t)] + common) == 0
    train_mean = float(capsys.readouterr().out.split("acc_mean=")[1].split()[0])
    out_s = tmp_path / "s"
    rc = main(["sweep", "--out", str(out_s), "--axis", "epsilon",
               "--values", "0.04"] + common)
    assert rc == 0
    sweep_out = capsys.readouterr().out
    sweep_mean = float(sweep_out.split("acc_mean=")[1].split()[0])
    assert sweep_mean == pytest.approx(train_mean, abs=1e-12)
    lines = (out_s / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    rc = main(["sweep", "--out", str(out_s), "--axis", "epsilon",
               "--values", "0.01,0.04,0.1"] + common)
    assert rc == 0
    capsys.readouterr()
    assert len((out_s / "sweep.csv").read_text().strip().splitlines()) == 4


def test_spectral_two_disjoint_triangles(capsys, tmp_path):
    # two components: cluster recovery must be exact
    import ncgc.sparse as sp
    from ncgc.graph import Graph
    e = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    rows = [i for i, j in e] + [j for i, j in e]
    cols = [j for i, j in e] + [i for i, j in e]
    adj = sp.CsrMatrix.from_coo(6, 6, rows, cols, np.ones(12))
    feats = np.zeros((6, 2), dtype=np.float64)
    g = Graph(n=6, m=6, adjacency=adj, features=sp.CsrMatrix.from_dense(feats),
              labels=np.array([0, 0, 0, 1, 1, 1]), class_count=2, name="twotri")
    d = tmp_path / "twotri"
    write_dataset(g, d)
    out = tmp_path / "sp"
    rc = main(["spectral", "--dataset", str(d), "--out", str(out), "--seed", "1"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "clustering_acc=1.0000" in stdout
    lines = (out / "assignments.tsv").read_text().strip().splitlines()
    assert len(lines) == 6


def test_spectral_deterministic(capsys, sbm_dir, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["spectral", "--dataset", str(sbm_dir), "--out", str(out1),
                 "--seed", "9"]) == 0
    assert main(["spectral", "--dataset", str(sbm_dir), "--out", str(out2),
                 "--seed", "9"]) == 0
    capsys.readouterr()
    assert (out1 / "assignments.tsv").read_bytes() == (out2 / "assignments.tsv").read_bytes()


def test_spectral_three_block_sbm_accuracy(capsys, tmp_path):
    g = make_sbm([10, 10, 10], 0.5, 0.02, feature_dim=2, rng=RngState(12),
                 name="sbm3")
    d = tmp_path / "sbm3"
    write_dataset(g, d)
    rc = main(["spectral", "--dataset", str(d), "--out", str(tmp_path / "o"),
               "--seed", "0"])
    assert rc == 0
    acc = float(capsys.readouterr().out.split("clustering_acc=")[1].split()[0])
    assert acc >= 0.9


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "c.conf"
    cfg.write_text("# comment\nbeta = 0.003\nlayers = 3\nself-loops = on\n\n")
    parsed = read_config_file(cfg)
    assert parsed == {"beta": 0.003, "layers": 3, "self-loops": True}
    bad = tmp_path / "bad.conf"
    bad.write_text("nonsense_key = 1\n")
    from ncgc.errors import IngestionError
    with pytest.raises(IngestionError):
        read_config_file(bad)


def test_dump_cluster_signals(capsys, sbm_dir, tmp_path):
    out = tmp_path / "dump"
    rc = main(["train", "--dataset", str(sbm_dir), "--out", str(out),
               "--seed", "1", "--runs", "1", "--dump-cluster-signals", "on",
               "--epochs", "30", "--patience", "30"] + FAST_FLAGS[:-4] + [
               "--train-per-class", "3", "--val-per-class", "3",
               "--split-policy", "per_class", "--row-normalize", "off"])
    assert rc == 0
    capsys.readouterr()
    q = np.loadtxt(out / "q.tsv")
    psi = np.loadtxt(out / "psi.tsv")
    assert q.shape[1] == 2 and psi.shape[1] == 2
    assert np.abs(q.sum(axis=1) - 1).max() < 1e-8
    assert np.abs(psi.sum(axis=1) - 1).max() < 1e-8


_HP_FLAGS = {
    "--backbone", "--layers", "--hidden", "--beta", "--epsilon", "--sinkhorn-iters", "--lr",
    "--weight-decay", "--dropout", "--epochs", "--patience", "--warmup", "--lambda-kl",
    "--lambda-pl", "--kl-scope", "--self-loops", "--appnp-alpha", "--appnp-hops",
    "--input-transform", "--determinism",
}
_TRAIN_FLAGS = _HP_FLAGS | {
    "--config", "--dataset", "--out", "--seed", "--runs", "--row-normalize", "--split-policy",
    "--train-per-class", "--val-per-class", "--val-total", "--test-total",
    "--dump-cluster-signals",
}


def test_cli_surface_is_pinned(capsys, sbm_dir, tmp_path):
    import argparse
    from ncgc.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: {s for a in p._actions for s in a.option_strings if s != "-h"} - {"--help"}
             for name, p in sub.choices.items()}
    assert flags == {
        "validate": {"--config", "--dataset"},
        "train": _TRAIN_FLAGS,
        "evaluate": _HP_FLAGS | {"--config", "--dataset", "--checkpoint", "--split-dir",
                                 "--row-normalize", "--seed"},
        "ablate": _TRAIN_FLAGS - {"--dump-cluster-signals"},
        "sweep": _TRAIN_FLAGS - {"--dump-cluster-signals"} | {"--axis", "--values"},
        "spectral": {"--config", "--dataset", "--out", "--seed", "--k", "--self-loops"},
    }
    out = tmp_path / "o"
    assert main(["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 "--epochs", "2", "--patience", "2", "--warmup", "1"] + FAST_FLAGS[14:]) == 0
    keys = [line.split(" = ")[0]
            for line in (out / "config.resolved").read_text().splitlines()]
    assert keys == [
        "dataset", "out", "seed", "runs", "row-normalize", "split-policy", "train-per-class",
        "val-per-class", "val-total", "test-total", "dump-cluster-signals", "backbone",
        "layers", "hidden", "beta", "epsilon", "sinkhorn-iters", "lr", "weight-decay",
        "dropout", "epochs", "patience", "warmup", "lambda-kl", "lambda-pl", "kl-scope",
        "self-loops", "appnp-alpha", "appnp-hops", "input-transform", "determinism",
    ]


def test_ablate_rejects_dump_cluster_signals_exit_4(capsys, sbm_dir, tmp_path):
    out = tmp_path / "ab"
    assert main(["ablate", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 "--dump-cluster-signals", "on"]) == 4
    assert "--dump-cluster-signals" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra, field", [
    pytest.param("train", ["--backbone", "foo"], "backbone", id="train-backbone"),
    pytest.param("train", ["--dropout", "1.5"], "dropout", id="train-dropout"),
    pytest.param("train", ["--epochs", "5", "--patience", "10"], "patience",
                 id="train-patience-over-epochs"),
    pytest.param("train", ["--appnp-hops", "-1"], "appnp_hops", id="train-appnp-hops"),
    pytest.param("train", ["--lr", "-1"], "lr", id="train-lr"),
    pytest.param("sweep", ["--axis", "dropout", "--values", "0.5,1.5"], "dropout",
                 id="sweep-second-value"),
    pytest.param("evaluate", ["--backbone", "foo"], "backbone", id="evaluate-backbone"),
    pytest.param("train", ["--split-policy", "bogus"], "split-policy", id="train-split-policy"),
    pytest.param("train", ["--runs", "0"], "runs", id="train-runs-0"),
    pytest.param("ablate", ["--runs", "0"], "runs", id="ablate-runs-0"),
    pytest.param("sweep", ["--axis", "lr", "--values", "0.01", "--split-policy", "bogus"],
                 "split-policy", id="sweep-split-policy"),
    *[pytest.param("train", [f"--{flag}", "-1"], f"--{flag} must be non-negative",
                   id=f"train-{flag}-negative")
      for flag in ("train-per-class", "val-per-class", "val-total", "test-total")],
    pytest.param("ablate", ["--train-per-class", "-1"], "--train-per-class must be non-negative",
                 id="ablate-train-per-class-negative"),
    pytest.param("sweep", ["--values", "0.01", "--test-total", "-1"],
                 "--test-total must be non-negative", id="sweep-test-total-negative"),
    pytest.param("spectral", ["--k", "-1"], "--k must be non-negative", id="spectral-k-negative"),
    *[pytest.param(command, ["--seed", "-1", *extra], "--seed must be non-negative",
                   id=f"{command}-seed-negative")
      for command, extra in (("train", []), ("ablate", []), ("sweep", ["--values", "0.01"]),
                             ("spectral", []), ("evaluate", []))],
])
def test_invalid_hyperparameter_exit_4_writes_nothing(capsys, sbm_dir, tmp_path,
                                                      command, extra, field):
    out = tmp_path / "o"
    if command == "evaluate":
        args = ["evaluate", "--dataset", str(sbm_dir),
                "--checkpoint", str(tmp_path / "checkpoint.bin")]
    elif command == "spectral":
        args = ["spectral", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1"]
    else:
        args = [command, "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                "--epochs", "5", "--patience", "5", "--warmup", "1"] + FAST_FLAGS[14:]
    assert main(args + extra) == 4
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and field in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag, value", [
    ("lambda-kl", "nan"), ("lambda-pl", "nan"), ("epsilon", "inf"), ("epsilon", "nan"),
    ("lr", "nan"), ("lr", "inf"), ("beta", "nan"), ("beta", "inf"),
    ("weight-decay", "nan"), ("weight-decay", "inf"),
])
def test_non_finite_hyperparameter_exit_4_writes_nothing(capsys, sbm_dir, tmp_path,
                                                         source, flag, value):
    out = tmp_path / "o"
    args = ["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
            "--epochs", "5", "--patience", "5", "--warmup", "1"] + FAST_FLAGS[14:]
    if source == "flag":
        args += [f"--{flag}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        args += ["--config", str(cfg)]
    assert main(args) == 4
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and f"{flag.replace('-', '_')} must be finite" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "spectral"])
def test_row_normalize_is_not_a_flag_of_validate_or_spectral_exit_4(capsys, sbm_dir,
                                                                     tmp_path, command):
    out = tmp_path / "o"
    args = [command, "--dataset", str(sbm_dir), "--row-normalize", "off"]
    if command == "spectral":
        args += ["--out", str(out), "--seed", "1"]
    assert main(args) == 4
    assert "--row-normalize" in capsys.readouterr().err
    assert not out.exists()


def test_validate_from_train_config_resolved(capsys, sbm_dir, tmp_path):
    # a train run's config.resolved carries row-normalize and other keys that
    # validate does not take; they are skipped
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 "--epochs", "2", "--patience", "2", "--warmup", "1"] + FAST_FLAGS[14:]) == 0
    assert "row-normalize = off" in (out / "config.resolved").read_text()
    capsys.readouterr()
    assert main(["validate", "--config", str(out / "config.resolved")]) == 0
    assert "n=20" in capsys.readouterr().out


@pytest.mark.parametrize("k", [1, 2])
def test_spectral_cluster_count_other_than_class_count(capsys, tmp_path, k):
    g = make_sbm([10, 10, 10], 0.5, 0.02, feature_dim=2, rng=RngState(12), name="sbm3")
    d = tmp_path / "sbm3"
    write_dataset(g, d)
    out = tmp_path / "o"
    assert main(["spectral", "--dataset", str(d), "--out", str(out), "--seed", "1",
                 "--k", str(k)]) == 0
    acc = float(capsys.readouterr().out.split("clustering_acc=")[1].split()[0])
    assert set(np.loadtxt(out / "assignments.tsv", dtype=int)[:, 1]) <= set(range(k))
    # k clusters can match at most k of the three equal-size classes, and a
    # single cluster matches exactly one
    assert acc <= k / 3 + 1e-12
    if k == 1:
        assert acc == pytest.approx(1 / 3, abs=1e-4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectral_with_no_labeled_node_omits_accuracy(capsys, sbm_dir, tmp_path):
    (sbm_dir / "labels.tsv").write_text("")
    out = tmp_path / "o"
    assert main(["spectral", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("dataset=sbm k=2 ") and "clustering_acc" not in stdout
    assert (out / "assignments.tsv").exists()


def test_spectral_k_above_node_count_exit_4_writes_nothing(capsys, sbm_dir, tmp_path):
    out = tmp_path / "o"
    assert main(["spectral", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 "--k", "25"]) == 4
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and "--k must be at most the node count 20" in errors[0]
    assert not out.exists()


def test_train_split_covering_every_node_exit_2(capsys, sbm_dir, tmp_path):
    # 10 training nodes per class on a 2 x 10 SBM leave no node for the
    # validation set
    out = tmp_path / "o"
    args = ["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
            "--epochs", "5", "--patience", "5", "--warmup", "1"] + FAST_FLAGS[14:]
    assert main(args + ["--train-per-class", "10", "--val-per-class", "0"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and "the validation set is empty" in errors[0]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("val_per_class, empty", [("0", "validation"), ("7", "test")])
def test_train_empty_validation_or_test_set_exit_2(capsys, sbm_dir, tmp_path,
                                                   val_per_class, empty):
    # 3 training nodes per class on a 2 x 10 SBM; 0 validation nodes per class
    # leave the validation set empty, 7 leave no node for the test set
    out = tmp_path / "o"
    args = ["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
            "--epochs", "5", "--patience", "5", "--warmup", "1"] + FAST_FLAGS[14:]
    assert main(args + ["--train-per-class", "3", "--val-per-class", val_per_class]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and f"{empty} set is empty" in errors[0]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("axis, values, header", [
    ("lr", "0.01,0.02", "lr"),
    ("hidden", "8,16", "hidden_dim"),
    ("sinkhorn-iters", "2", "sinkhorn_t"),
])
def test_sweep_any_numeric_axis(capsys, sbm_dir, tmp_path, axis, values, header):
    out = tmp_path / "s"
    assert main(["sweep", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 "--axis", axis, "--values", values, "--epochs", "12", "--patience", "12"]
                + FAST_FLAGS[:6] + FAST_FLAGS[12:]) == 0
    capsys.readouterr()
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == f"{header},acc_mean,acc_std"
    assert [r.split(",")[0] for r in rows[1:]] == values.split(",")


@pytest.mark.parametrize("axis", ["backbone", "seed"])
def test_sweep_rejects_non_hyperparameter_axis_exit_4(capsys, sbm_dir, tmp_path, axis):
    out = tmp_path / "s"
    assert main(["sweep", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 "--axis", axis, "--values", "1"]) == 4
    assert "sweep axis" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "spectral"])
def test_out_naming_a_file_exit_2(capsys, sbm_dir, tmp_path, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    # a split the graph can hold, so that --out is the only bad input
    split = FAST_FLAGS[14:-2] if command == "train" else []
    assert main([command, "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1"]
                + split) == 2
    assert str(out) in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_evaluate_runs_one_forward(capsys, sbm_dir, tmp_path, monkeypatch):
    import ncgc.trainer as trainer
    out = tmp_path / "ev"
    assert main(["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 "--epochs", "3", "--patience", "3", "--warmup", "1"] + FAST_FLAGS[14:]) == 0
    calls = []
    real_forward = trainer.forward
    monkeypatch.setattr(trainer, "forward",
                        lambda *a, **kw: calls.append(1) or real_forward(*a, **kw))
    capsys.readouterr()
    assert main(["evaluate", "--dataset", str(sbm_dir),
                 "--checkpoint", str(out / "checkpoint.bin"),
                 "--config", str(out / "config.resolved")]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("dataset=sbm train_acc=")
