"""The ``ncgc`` command line, run in process through ``cli.main``.

``CONTRACTS`` holds the single exit-code contracts folded into it so far;
six single-case tests, named in ROADMAP item 8, still stand beside it, and
CI does not run those against the installed package. Each row runs one argv from a fresh working directory that holds the CI SBM as ``sbm`` and
a run of the CI gcn line as ``run``, after at most one mutation of one of
them, and pins the exit code. A nonzero exit must print exactly one
``error:`` line, holding the row's substring, and no traceback, and must
leave no ``--out`` behind; an exit 0 prints no ``error:`` line.
``test_contract`` runs every row. CI runs it once more, with the golden runs,
from outside the checkout after ``pip install .``, so the same table checks
the installed package.

The parametrized tests below pin whole families of rejections case by case
(malformed dataset bytes, checkpoints and run configs, out-of-range and
non-finite hyperparameters, unlabeled datasets); the other tests pin what a
row cannot hold: outputs, accuracies, and scenarios of more than one command.
"""

import json
import shutil
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import ncgc.cli as cli
from golden.regenerate import CI_FLAGS, TRAIN_LINES, run_lines
from ncgc import trainer
from ncgc.cli import main, read_config_file
from ncgc.graph import write_dataset
from ncgc.rng import RngState
from ncgc.synth import make_sbm
from ncgc.trainer import run_seeds


@pytest.fixture(scope="module")
def ci_base(tmp_path_factory):
    """The CI SBM in ``sbm``, the separable SBM in ``sbm_separable`` and the
    CI gcn line's run in ``run``, trained once per module."""
    base = tmp_path_factory.mktemp("ci")
    run_lines(base, {"run": TRAIN_LINES["gcn"]})
    return base


@pytest.fixture()
def ci_dir(ci_base, tmp_path, monkeypatch):
    """A copy of ``ci_base`` in ``tmp_path``, made the working directory, so
    that the run's ``dataset = sbm`` names the copied SBM."""
    shutil.copytree(ci_base, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture()
def sbm_dir(ci_base, tmp_path):
    """A copy of the CI SBM with shifted, less noisy features, whose classes
    training can tell apart, as ``tmp_path/sbm`` and nothing else."""
    return Path(shutil.copytree(ci_base / "sbm_separable", tmp_path / "sbm"))


@pytest.fixture()
def run_dir(ci_dir):
    return ci_dir / "run"


FAST_FLAGS = [
    "--hidden", "16", "--layers", "2", "--dropout", "0.2", "--lr", "0.01",
    "--epochs", "60", "--patience", "60", "--warmup", "10",
    "--train-per-class", "3", "--val-per-class", "3", "--split-policy", "per_class",
    "--row-normalize", "off",
]
SHORT_FLAGS = ["--epochs", "2", "--patience", "2", "--warmup", "1", *FAST_FLAGS[14:]]


def _error_line(capsys) -> str:
    """The one ``error:`` line on stderr, which holds no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, errors
    return errors[0]


def test_validate_triangle(capsys, tmp_path):
    d = tmp_path / "triangle"
    d.mkdir()
    (d / "meta.json").write_text(json.dumps(
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
    assert "byte offset" in _error_line(capsys)


def _meta(**fields):
    """Overwrite ``fields`` in the fixture's meta.json."""
    def corrupt(d):
        meta = json.loads((d / "meta.json").read_text())
        meta.update(fields)
        (d / "meta.json").write_text(json.dumps(meta))
    return corrupt


def _empty_files(**fields):
    """``_meta(**fields)`` with empty features, edges and labels files."""
    def corrupt(d):
        _meta(**fields)(d)
        for name in ("features.bin", "edges.tsv", "labels.tsv"):
            (d / name).write_bytes(b"")
    return corrupt


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


def _edit_line(key, value):
    def edit(cfg):
        text = cfg.read_text()
        line = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
        cfg.write_text(text.replace(f"{line}\n", f"{key} = {value}\n"))
    return edit


def _no_labeled_node(form):
    """Make the dataset label no node: no labels.tsv, an empty one, or k = 0 and
    an empty one."""
    def corrupt(d):
        if form == "missing":
            (d / "labels.tsv").unlink()
        else:
            (d / "labels.tsv").write_bytes(b"")
        if form == "no-classes":
            _meta(k=0)(d)
    return corrupt


_UNLABELED_FORMS = ("missing", "empty", "no-classes")


_RUN = ["--dataset", "sbm", "--out", "o", "--seed", "1"]
# id: (setup, argv, exit code, the one error: substring); a setup is a path in
# the working directory, under ``sbm`` or ``run``, and the mutation applied to it
CONTRACTS = {
    # a setting that is a constant, or a deleted feature, has no flag whatever its value
    "train-determinism": (None, ["train", *_RUN, "--determinism", "off"], 4,
                          "unrecognized arguments: --determinism off"),
    "spectral-self-loops": (None, ["spectral", *_RUN, "--self-loops", "off"], 4,
                            "unrecognized arguments: --self-loops off"),
    "train-dump-cluster-signals": (None, ["train", *_RUN, "--dump-cluster-signals", "on"], 4,
                                   "unrecognized arguments: --dump-cluster-signals on"),
    "ablate-dump-cluster-signals": (None, ["ablate", *_RUN, "--dump-cluster-signals", "on"], 4,
                                    "unrecognized arguments: --dump-cluster-signals on"),
    "train-without-seed": (None, ["train", "--dataset", "sbm", "--out", "o"], 4,
                           "train requires --seed"),
    "unknown-command": (None, ["nonsense"], 4, "invalid choice: 'nonsense'"),
    "sweep-unknown-axis": (None, ["sweep", *_RUN, "--axis", "bogus", "--values", "0.1"], 4,
                           "sweep axis must be a numeric hyperparameter"),
    "spectral-k-above-node-count": (None, ["spectral", *_RUN, "--k", "25"], 4,
                                    "--k must be at most the node count 20"),
    "spectral-no-classes-needs-k": (("sbm", _no_labeled_node("no-classes")),
                                    ["spectral", *_RUN], 4,
                                    "sbm has no classes (k = 0 in meta.json); pass --k"),
    "spectral-no-classes-with-k": (("sbm", _no_labeled_node("no-classes")),
                                   ["spectral", *_RUN, "--k", "2"], 0, None),
    "train-edges-digit-separator": (("sbm", _append("edges.tsv", b"0\t1_0\n")),
                                    ["train", *_RUN], 2,
                                    "sbm/edges.tsv:54: expected 2 tab-separated integers"),
    # the 2-layer run's checkpoint holds a layer that a 1-layer model lacks
    "evaluate-checkpoint-with-extra-layer": (("run/config.resolved", _edit_line("layers", "1")),
                                             ["evaluate", "--checkpoint", "run/checkpoint.bin"],
                                             3, "checkpoint has unexpected parameter 'layer1.w'"),
    # no balancing at an epsilon where exp(1/epsilon) overflows float64
    "sweep-no-balancing-at-small-epsilon": (
        None, ["sweep", "--out", "o", "--axis", "sinkhorn-iters", "--values", "0,1",
               "--epsilon", "0.001", *CI_FLAGS, "--runs", "2"], 0, None),
}


@pytest.mark.parametrize("setup, argv, code, error", CONTRACTS.values(), ids=list(CONTRACTS))
def test_contract(capsys, ci_dir, setup, argv, code, error):
    if setup is not None:
        path, mutate = setup
        mutate(ci_dir / path)
    assert main(argv) == code
    if code == 0:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not any(line.startswith("error:") for line in err.splitlines()), err
    else:
        assert error in _error_line(capsys)
        assert "--out" not in argv or not Path(argv[argv.index("--out") + 1]).exists()


@pytest.mark.parametrize("name, corrupt", [
    pytest.param("meta.json", lambda d: (d / "meta.json").write_bytes(b'{"name": "\xff"}'),
                 id="meta-not-utf8"),
    # bool is a subclass of int in Python, but not a count
    pytest.param("meta.json", _meta(k=True), id="meta-bool-count"),
    # with d = 0 an empty features.bin matches any n, so n would bound nothing
    pytest.param("meta.json: field 'd'", _empty_files(n=10**12, d=0, m=0), id="meta-d-zero"),
    # with n = 0 an empty features.bin matches any d, and numpy cannot shape (0, d)
    *[pytest.param("meta.json: field 'd' must be at most", _empty_files(n=0, d=d, m=0, k=0),
                   id=f"meta-d-{d}-without-nodes") for d in (10**20, 2**61)],
    pytest.param("meta.json: field 'k'", _meta(k=21), id="meta-k-above-n"),
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
    pytest.param("edges.tsv:2", _write("edges.tsv", b"0\t1\n0\t1_0\n"), id="edges-underscore"),
    pytest.param("edges.tsv:2", _write("edges.tsv", b"0\t1\n0\t 1\n"), id="edges-leading-space"),
    pytest.param("edges.tsv:2", _write("edges.tsv", b"0\t1\n0\t+1\n"), id="edges-plus-sign"),
    pytest.param("edges.tsv:2: expected 2 tab-separated integers",
                 _write("edges.tsv", b"0\t1\n0\t1000000000000000001\n"), id="edges-19-digits"),
    pytest.param("labels.tsv:2", _write("labels.tsv", b"0\t0\n1\n"), id="labels-field-count"),
    pytest.param("labels.tsv:2", _write("labels.tsv", b"0\t0\n1\t1.0\n"),
                 id="labels-non-integer"),
    pytest.param("labels.tsv:2", _write("labels.tsv", b"0\t0\n1\t1 \n"),
                 id="labels-trailing-space"),
    pytest.param("labels.tsv:2", _write("labels.tsv", "0\t0\n1\t\u0661\n".encode()),
                 id="labels-arabic-digit"),
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
    assert name in _error_line(capsys)


def test_non_utf8_config_exit_2(capsys, sbm_dir, tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_bytes(b"beta = 0.1 # \xff\n")
    assert main(["train", "--config", str(cfg), "--dataset", str(sbm_dir),
                 "--out", str(tmp_path / "o"), "--seed", "1"]) == 2
    assert "bad.conf" in _error_line(capsys)


def test_config_value_that_does_not_parse_names_file_and_line_exit_4(capsys, sbm_dir,
                                                                     tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("# comment\nlr = abc\n")
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--dataset", str(sbm_dir), "--out", str(out),
                 "--seed", "1"]) == 4
    assert f"{cfg}:2: bad value for 'lr': 'abc'" in _error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "validate", "evaluate"])
def test_nul_byte_in_config_line_exit_2(capsys, run_dir, tmp_path, command):
    out = tmp_path / "o"
    if command == "evaluate":
        cfg = run_dir / "config.resolved"
        cfg.write_text(cfg.read_text().replace("dataset = sbm\n", "dataset = sb\0m\n"))
        args = ["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin")]
    else:
        cfg = tmp_path / "run.conf"
        cfg.write_text("dataset = sb\0m\n")
        args = [command, "--config", str(cfg)]
        if command == "train":
            args += ["--out", str(out), "--seed", "1"]
    assert main(args) == 2
    assert f"{cfg}:1: NUL byte" in _error_line(capsys)
    assert not out.exists()


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


def _reshape_first_parameter(rows, cols):
    """Give the first entry the shape ``rows x cols`` and drop its values."""
    def corrupt(path):
        data = path.read_bytes()
        (name_len,) = struct.unpack_from("<I", data, 12)
        old_rows, old_cols = struct.unpack_from("<QQ", data, 16 + name_len)
        values_end = 32 + name_len + old_rows * old_cols * 8
        path.write_bytes(data[:16 + name_len] + struct.pack("<QQ", rows, cols)
                         + data[values_end:])
    return corrupt


@pytest.mark.parametrize("corrupt, reason", [
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:10]), "truncated",
                 id="short-header"),
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:4] + struct.pack("<I", 2)
                                         + p.read_bytes()[8:]),
                 "unsupported checkpoint version 2", id="version-2"),
    # zero values, so no length check rejects a shape numpy cannot make
    *[pytest.param(_reshape_first_parameter(rows, cols),
                   f"parameter 'input.w0' has zero size {rows} x {cols}",
                   id=f"zero-size-{rows}x{cols}") for rows, cols in ((0, 2**63), (2**62, 0))],
    pytest.param(lambda p: p.write_bytes(p.read_bytes().replace(b"input.w0", b"input.w\xff")),
                 "not UTF-8", id="name-not-utf8"),
    pytest.param(_nan_weight, "non-finite", id="nan-weight"),
    pytest.param(lambda p: p.write_bytes(p.read_bytes() + b"\0"), "extra bytes from byte offset",
                 id="trailing-bytes"),
    pytest.param(_repeat_first_parameter, "repeated parameter 'input.w0'", id="repeated-name"),
])
def test_evaluate_malformed_checkpoint_exit_2(capsys, run_dir, corrupt, reason):
    corrupt(run_dir / "checkpoint.bin")
    assert main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin")]) == 2
    line = _error_line(capsys)
    assert "checkpoint.bin" in line and reason in line


def test_numeric_blowup_exit_3(capsys, sbm_dir, tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--dataset", str(sbm_dir), "--out", str(tmp_path / "o"),
                   "--seed", "1", "--lr", "1e18", "--epochs", "20", "--patience", "20",
                   "--warmup", "10", "--hidden", "16"] + FAST_FLAGS[14:])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err


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
               "--seed", "0", "--runs", "1"] + FAST_FLAGS)
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
                 "--seed", "5", "--runs", "1"] + FAST_FLAGS) == 0
    train_out = capsys.readouterr().out
    acc_mean = float(train_out.split("acc_mean=")[1].split()[0])
    rc = main(["evaluate", "--checkpoint", str(out / "checkpoint.bin")])
    assert rc == 0
    eval_out = capsys.readouterr().out
    test_acc = float(eval_out.split("test_acc=")[1].split()[0])
    assert test_acc == pytest.approx(acc_mean, abs=1e-9)


def test_evaluate_on_dataset_without_labels_exit_2(capsys, ci_dir, run_dir, monkeypatch):
    unlabeled = ci_dir / "unlabeled"
    shutil.copytree(ci_dir / "sbm", unlabeled)
    (unlabeled / "labels.tsv").unlink()

    def never(path):
        raise AssertionError("the checkpoint was read")

    monkeypatch.setattr(cli, "load_checkpoint", never)
    rc = main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"),
               "--dataset", str(unlabeled)])
    assert rc == 2
    assert "evaluation needs node labels" in _error_line(capsys)


def test_evaluate_with_empty_labels_file_exit_2(capsys, ci_dir, run_dir):
    unlabeled = ci_dir / "unlabeled"
    # an empty labels.tsv, with k = 0 or not, labels no node, as a missing one does
    for form in _UNLABELED_FORMS:
        shutil.rmtree(unlabeled, ignore_errors=True)
        shutil.copytree(ci_dir / "sbm", unlabeled)
        _no_labeled_node(form)(unlabeled)
        assert main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--dataset", str(unlabeled)]) == 2
        assert _error_line(capsys) == (f"error: {unlabeled}: no labeled node; "
                                       "evaluation needs node labels")


@pytest.mark.parametrize("form", _UNLABELED_FORMS)
@pytest.mark.parametrize("command, extra", [
    pytest.param(command, extra + ["--split-policy", policy], id=f"{command}-{policy}")
    for command, extra in (("train", []), ("ablate", []),
                           ("sweep", ["--axis", "beta", "--values", "0,0.01"]))
    for policy in ("planetoid_style", "per_class")
])
def test_no_labeled_node_exit_2_writes_nothing(capsys, sbm_dir, tmp_path, command, extra,
                                               form):
    _no_labeled_node(form)(sbm_dir)
    out = tmp_path / "o"
    assert main([command, "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 *SHORT_FLAGS, *extra]) == 2
    assert _error_line(capsys) == f"error: {sbm_dir}: no labeled node; training needs node labels"
    assert not out.exists()


@pytest.mark.parametrize("form", _UNLABELED_FORMS)
def test_validate_dataset_with_no_labeled_node(capsys, sbm_dir, form):
    _no_labeled_node(form)(sbm_dir)
    assert main(["validate", "--dataset", str(sbm_dir)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["labels: none"]


@pytest.mark.parametrize("empty, name", [("val", "validation"), ("test", "test")])
def test_evaluate_split_with_empty_set_exit_2(capsys, run_dir, empty, name):
    (run_dir / f"{empty}.idx").write_bytes(b"")
    assert main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin")]) == 2
    line = _error_line(capsys)
    assert f"the {name} set is empty" in line
    assert all(str(run_dir / f) in line for f in ("train.idx", "val.idx", "test.idx"))


def test_evaluate_run_without_split_files_exit_2(capsys, run_dir):
    for name in ("train.idx", "val.idx", "test.idx"):
        (run_dir / name).unlink()
    assert main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin")]) == 2
    assert _error_line(capsys) == f"error: {run_dir}: no split files found for evaluation"


@pytest.mark.parametrize("empty, name", [("val", "validation"), ("test", "test")])
def test_validate_split_with_empty_set_exit_2(capsys, sbm_dir, empty, name):
    for f, ids in (("train", "0\n10\n"), ("val", "1\n11\n"), ("test", "2\n12\n")):
        (sbm_dir / f"{f}.idx").write_text("" if f == empty else ids)
    assert main(["validate", "--dataset", str(sbm_dir)]) == 2
    assert f"the {name} set is empty" in _error_line(capsys)


def test_train_fixed_split_naming_unlabeled_node_exit_2(capsys, sbm_dir, tmp_path):
    lines = (sbm_dir / "labels.tsv").read_text().splitlines(keepends=True)
    (sbm_dir / "labels.tsv").write_text("".join(line for line in lines
                                                if not line.startswith("19\t")))
    (sbm_dir / "train.idx").write_text("0\n1\n2\n10\n11\n12\n")
    (sbm_dir / "val.idx").write_text("3\n13\n19\n")
    (sbm_dir / "test.idx").write_text("4\n5\n14\n15\n")
    out = tmp_path / "o"
    rc = main(["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
               *SHORT_FLAGS])
    assert rc == 2
    assert _error_line(capsys) == "error: the validation set names unlabeled node 19"
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
    pytest.param(_fixed_split_without_labels, [], "no labeled node", id="fixed-split-no-labels"),
    # the 20-node SBM has 10 nodes per class
    pytest.param(_unchanged, ["--train-per-class", "9", "--val-per-class", "3"],
                 "classes with too few labeled nodes", id="split-too-few-labeled"),
    pytest.param(_unchanged, ["--split-policy", "planetoid_style", "--train-per-class", "2"],
                 "need 1500 labeled nodes beyond training, have 16",
                 id="planetoid-too-few-labeled"),
    pytest.param(_unchanged, ["--train-per-class", "7"], "the test set is empty",
                 id="split-empty-test"),
    pytest.param(_unchanged, ["--val-per-class", "0"], "the validation set is empty",
                 id="split-empty-validation"),
])
def test_input_error_exits_2_before_creating_out(capsys, sbm_dir, tmp_path, command, extra,
                                                 corrupt, split_flags, message):
    corrupt(sbm_dir)
    out = tmp_path / "o"
    rc = main([command, "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
               *SHORT_FLAGS, *extra, *split_flags])
    assert rc == 2
    assert message in _error_line(capsys)
    assert not out.exists()


@pytest.mark.usefixtures("tape_guard")
def test_ablate_emits_five_rows(capsys, sbm_dir, tmp_path):
    out = tmp_path / "ab"
    rc = main(["ablate", "--dataset", str(sbm_dir), "--out", str(out),
               "--seed", "2", "--runs", "1"] + FAST_FLAGS)
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
    # two runs per variant, in VARIANTS order; only no_skn runs no Sinkhorn iteration
    assert [hp.sinkhorn_iters for hp in hps] == [3] * 8 + [0] * 2
    table = json.loads((tmp_path / "ab" / "report.json").read_text())["variants"]
    resolved = cli.resolve_options(cli.build_parser().parse_args(argv), cli.COMMANDS["ablate"][1])
    g, splits, _ = cli._prepare_runs(resolved)
    hp = cli.hyperparams_from(resolved)
    assert table["no_skn"]["acc_mean"] == run_seeds(g, replace(hp, sinkhorn_iters=0), splits).mean


@pytest.mark.usefixtures("tape_guard")
def test_sweep_zero_sinkhorn_iters_row_is_the_ablate_no_skn_row(capsys, sbm_dir, tmp_path):
    # a one-epoch warmup, so that the pseudo-labels move these rows' accuracy
    common = ["--dataset", str(sbm_dir), "--seed", "3", "--runs", "2", *FAST_FLAGS,
              "--warmup", "1"]
    assert main(["ablate", "--out", str(tmp_path / "ab")] + common) == 0
    assert main(["sweep", "--out", str(tmp_path / "sw"), "--axis", "sinkhorn-iters",
                 "--values", "0,1"] + common) == 0
    capsys.readouterr()
    variants = json.loads((tmp_path / "ab" / "report.json").read_text())["variants"]
    rows = json.loads((tmp_path / "sw" / "report.json").read_text())["rows"]
    assert [row["value"] for row in rows] == [0, 1]
    assert rows[0]["acc_mean"] == variants["no_skn"]["acc_mean"]
    assert rows[0]["acc_mean"] not in (rows[1]["acc_mean"], variants["no_pl"]["acc_mean"])


def test_sweep_csv_row_count_and_single_value_matches_train(capsys, sbm_dir, tmp_path):
    common = ["--dataset", str(sbm_dir), "--seed", "4", "--runs", "1", *FAST_FLAGS]
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
    cfg.write_text("# comment\nbeta = 0.003\nlayers = 3\nrow-normalize = off\n\n")
    parsed = read_config_file(cfg)
    assert parsed == {"beta": 0.003, "layers": 3, "row-normalize": False}
    bad = tmp_path / "bad.conf"
    bad.write_text("nonsense_key = 1\n")
    from ncgc.errors import IngestionError
    with pytest.raises(IngestionError):
        read_config_file(bad)


@pytest.mark.parametrize("command", ["train", "ablate", "sweep", "spectral"])
@pytest.mark.parametrize("option, value", [
    ("dataset", "d#1"), ("out", "run#2"), ("out", "run\nx"), ("out", "run "), ("dataset", " sbm"),
])
def test_text_value_config_resolved_cannot_hold_exit_4(capsys, sbm_dir, tmp_path, monkeypatch,
                                                       command, option, value):
    """config.resolved reads '#' as a comment and strips each line, so a run
    that wrote such a value could not be scored or rerun from its own file."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(sbm_dir, "d#1")
    paths = {"dataset": "sbm", "out": "run", option: value}
    before = sorted(tmp_path.rglob("*"))
    extra = ["--axis", "lr", "--values", "0.01"] if command == "sweep" else []
    assert main([command, "--dataset", paths["dataset"], "--out", paths["out"], "--seed", "1",
                 *extra]) == 4
    assert f"--{option} {value!r}" in _error_line(capsys)
    assert sorted(tmp_path.rglob("*")) == before


_HP_FLAGS = {
    "--backbone", "--layers", "--hidden", "--beta", "--epsilon", "--sinkhorn-iters", "--lr",
    "--weight-decay", "--dropout", "--epochs", "--patience", "--warmup", "--lambda-kl",
    "--lambda-pl", "--kl-scope", "--appnp-alpha", "--appnp-hops",
}
_TRAIN_FLAGS = _HP_FLAGS | {
    "--config", "--dataset", "--out", "--seed", "--runs", "--row-normalize", "--split-policy",
    "--train-per-class", "--val-per-class",
}


def test_every_hyperparameter_flag_is_its_field_name_with_dashes():
    names = [f.name for f in fields(trainer.HyperParams) if f.name != "seed"]
    assert {"--" + name.replace("_", "-") for name in names} == _HP_FLAGS


def test_cli_surface_is_pinned(run_dir):
    import argparse
    from ncgc.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: {s for a in p._actions for s in a.option_strings if s != "-h"} - {"--help"}
             for name, p in sub.choices.items()}
    assert flags == {
        "validate": {"--config", "--dataset"},
        "train": _TRAIN_FLAGS,
        "evaluate": {"--checkpoint", "--dataset"},
        "ablate": _TRAIN_FLAGS,
        "sweep": _TRAIN_FLAGS | {"--axis", "--values"},
        "spectral": {"--config", "--dataset", "--out", "--seed", "--k"},
    }
    keys = [line.split(" = ")[0]
            for line in (run_dir / "config.resolved").read_text().splitlines()]
    assert keys == [
        "dataset", "out", "seed", "runs", "row-normalize", "split-policy", "train-per-class",
        "val-per-class", "backbone", "layers", "hidden", "beta",
        "epsilon", "sinkhorn-iters", "lr", "weight-decay", "dropout", "epochs", "patience",
        "warmup", "lambda-kl", "lambda-pl", "kl-scope", "appnp-alpha", "appnp-hops",
    ]


@pytest.mark.parametrize("command, extra, field", [
    pytest.param("train", ["--backbone", "foo"], "backbone", id="train-backbone"),
    pytest.param("train", ["--dropout", "1.5"], "dropout", id="train-dropout"),
    pytest.param("train", ["--epochs", "5", "--patience", "10"], "patience",
                 id="train-patience-over-epochs"),
    *[pytest.param("train", ["--patience", value], "patience must be at least 1",
                   id=f"train-patience-{value}") for value in ("0", "-3")],
    pytest.param("train", ["--appnp-hops", "-1"], "appnp_hops", id="train-appnp-hops"),
    # each rejection names the setting by its one name
    pytest.param("train", ["--hidden", "1"], "hidden must be at least 2", id="train-hidden"),
    pytest.param("train", ["--layers", "0"], "layers must be at least 1", id="train-layers"),
    pytest.param("train", ["--sinkhorn-iters", "-1"], "sinkhorn_iters must be at least 0",
                 id="train-sinkhorn-iters"),
    pytest.param("train", ["--warmup", "5"], "warmup must lie in [0, epochs)",
                 id="train-warmup"),
    pytest.param("train", ["--lambda-kl", "-1"], "lambda_kl must be non-negative",
                 id="train-lambda-kl"),
    # on and off are the only spellings of a switch
    *[pytest.param("train", ["--row-normalize", value], f"expected on/off, got {value!r}",
                   id=f"train-row-normalize-{value}") for value in ("true", "1")],
    pytest.param("train", ["--lr", "-1"], "lr", id="train-lr"),
    pytest.param("train", ["--epsilon", "0"], "epsilon must be positive", id="train-epsilon-0"),
    pytest.param("sweep", ["--axis", "hidden", "--values", "8,x"], "bad --values list",
                 id="sweep-value-not-a-number"),
    pytest.param("sweep", ["--axis", "hidden", "--values", ","], "empty --values list",
                 id="sweep-no-value"),
    pytest.param("sweep", ["--axis", "dropout", "--values", "0.5,1.5"], "dropout",
                 id="sweep-second-value"),
    pytest.param("evaluate", ["--backbone", "foo"], "backbone", id="evaluate-backbone"),
    pytest.param("train", ["--split-policy", "bogus"], "split-policy", id="train-split-policy"),
    pytest.param("train", ["--runs", "0"], "runs", id="train-runs-0"),
    pytest.param("ablate", ["--runs", "0"], "runs", id="ablate-runs-0"),
    pytest.param("sweep", ["--axis", "lr", "--values", "0.01", "--split-policy", "bogus"],
                 "split-policy", id="sweep-split-policy"),
    *[pytest.param("train", [f"--{flag}", "-1"], f"--{flag} must be non-negative",
                   id=f"train-{flag}-negative") for flag in ("train-per-class", "val-per-class")],
    # the Planetoid sizes are constants: their old flags are unknown, whatever the value
    *[pytest.param("train", [f"--{flag}", "-1"], f"unrecognized arguments: --{flag} -1",
                   id=f"train-{flag}-negative") for flag in ("val-total", "test-total")],
    pytest.param("ablate", ["--train-per-class", "-1"], "--train-per-class must be non-negative",
                 id="ablate-train-per-class-negative"),
    pytest.param("sweep", ["--values", "0.01", "--test-total", "-1"],
                 "unrecognized arguments: --test-total -1", id="sweep-test-total-negative"),
    pytest.param("spectral", ["--k", "-1"], "--k must be non-negative", id="spectral-k-negative"),
    *[pytest.param(command, ["--seed", "-1", *extra], "--seed must be non-negative",
                   id=f"{command}-seed-negative")
      for command, extra in (("train", []), ("ablate", []), ("sweep", ["--values", "0.01"]),
                             ("spectral", []))],
    pytest.param("evaluate", ["--seed", "1"], "unrecognized arguments: --seed 1",
                 id="evaluate-seed-unknown"),
    pytest.param("evaluate", ["--config", "run/config.resolved"],
                 "unrecognized arguments: --config", id="evaluate-config-unknown"),
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
    assert field in _error_line(capsys)
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
    assert f"{flag.replace('-', '_')} must be finite" in _error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "spectral"])
def test_row_normalize_is_not_a_flag_of_validate_or_spectral_exit_4(capsys, sbm_dir,
                                                                     tmp_path, command):
    out = tmp_path / "o"
    args = [command, "--dataset", str(sbm_dir), "--row-normalize", "off"]
    if command == "spectral":
        args += ["--out", str(out), "--seed", "1"]
    assert main(args) == 4
    assert "--row-normalize" in _error_line(capsys)
    assert not out.exists()


def test_validate_from_train_config_resolved(capsys, run_dir):
    # a train run's config.resolved carries row-normalize and other keys that
    # validate does not take; they are skipped
    assert "row-normalize = on" in (run_dir / "config.resolved").read_text()
    assert main(["validate", "--config", str(run_dir / "config.resolved")]) == 0
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


def test_train_split_covering_every_node_exit_2(capsys, sbm_dir, tmp_path):
    # 10 training nodes per class on a 2 x 10 SBM leave no node for the
    # validation set
    out = tmp_path / "o"
    args = ["train", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
            "--epochs", "5", "--patience", "5", "--warmup", "1"] + FAST_FLAGS[14:]
    assert main(args + ["--train-per-class", "10", "--val-per-class", "0"]) == 2
    assert "the validation set is empty" in _error_line(capsys)
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
    assert f"{empty} set is empty" in _error_line(capsys)
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("axis, values, header", [
    ("lr", "0.01,0.02", "lr"),
    ("hidden", "8,16", "hidden"),
    ("sinkhorn-iters", "2", "sinkhorn_iters"),
    ("warmup", "0,3", "warmup"),
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


# the last three are the field names before each field took its flag's name
@pytest.mark.parametrize("axis", ["backbone", "seed", "hidden_dim", "sinkhorn_t",
                                  "warmup_epochs"])
def test_sweep_rejects_non_hyperparameter_axis_exit_4(capsys, sbm_dir, tmp_path, axis):
    out = tmp_path / "s"
    assert main(["sweep", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1",
                 "--axis", axis, "--values", "1"]) == 4
    assert "sweep axis" in _error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "spectral"])
def test_out_naming_a_file_exit_2(capsys, sbm_dir, tmp_path, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    # a split the graph can hold, so that --out is the only bad input
    split = FAST_FLAGS[14:-2] if command == "train" else []
    assert main([command, "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1"]
                + split) == 2
    assert str(out) in _error_line(capsys)
    assert out.read_text() == "not a directory\n"


# a run whose accuracies move when a forward setting changes: APPNP at beta 0.3
# after 5 epochs leaves the fixture's classes only partly separated
_EVAL_FLAGS = ["--backbone", "appnp", "--appnp-hops", "3", "--hidden", "8", "--beta", "0.3",
               "--lr", "0.01", "--dropout", "0.2", "--epochs", "5", "--patience", "5",
               "--warmup", "1"] + FAST_FLAGS[14:]


def _predict_line(dataset, run, hp) -> str:
    """The line ``evaluate`` must print for ``run``: ``trainer.predict`` of its
    checkpoint under ``hp`` on the raw features, scored on its split files."""
    from ncgc.graph import load_dataset, load_split, normalized_adjacency
    from ncgc.model import init_params, load_checkpoint
    g = load_dataset(dataset, row_normalize=False)
    split = load_split(run, g.n)
    params = init_params(hp, g.feature_dim, g.class_count, RngState(0))
    params.load_values(load_checkpoint(run / "checkpoint.bin"))
    _, y = trainer.predict(g.features, normalized_adjacency(g), params, hp)
    train, val, test = (trainer.accuracy(y, g.labels, idx)
                        for idx in (split.train_idx, split.val_idx, split.test_idx))
    return f"dataset={g.name} train_acc={train:.4f} val_acc={val:.4f} test_acc={test:.4f}\n"


def test_evaluate_takes_exactly_the_fields_its_forward_reads(capsys, sbm_dir, tmp_path):
    """evaluate scores a checkpoint under its run's own settings: a forward key
    edited in config.resolved moves the line, a training-only key does not."""
    for backbone in ("gcn", "appnp"):
        run = tmp_path / backbone
        assert main(["train", "--dataset", str(sbm_dir), "--out", str(run), "--seed", "1"]
                    + _EVAL_FLAGS + ["--backbone", backbone]) == 0
        hp = trainer.HyperParams(backbone=backbone, appnp_hops=3, hidden=8, beta=0.3)
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(run / "checkpoint.bin")]) == 0
        assert capsys.readouterr().out == _predict_line(sbm_dir, run, hp)
    # run is the APPNP run
    cfg, base = run / "config.resolved", (run / "config.resolved").read_text()
    scored = {}
    for key, value in (("appnp-hops", "1"), ("lr", "0.5")):
        line = next(line for line in base.splitlines() if line.startswith(f"{key} = "))
        cfg.write_text(base.replace(f"{line}\n", f"{key} = {value}\n"))
        assert main(["evaluate", "--checkpoint", str(run / "checkpoint.bin")]) == 0
        scored[key] = capsys.readouterr().out
    assert scored["appnp-hops"] == _predict_line(sbm_dir, run, replace(hp, appnp_hops=1))
    assert scored["appnp-hops"] != _predict_line(sbm_dir, run, hp)
    assert scored["lr"] == _predict_line(sbm_dir, run, hp)


def test_evaluate_needs_only_the_checkpoint(capsys, sbm_dir, tmp_path):
    # an APPNP run at hidden 8: no flag but --checkpoint says so
    run = tmp_path / "appnp"
    assert main(["train", "--dataset", str(sbm_dir), "--out", str(run), "--seed", "2"]
                + _EVAL_FLAGS) == 0
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(run / "checkpoint.bin")]) == 0
    test_acc = float(capsys.readouterr().out.split("test_acc=")[1])
    report = json.loads((run / "report.json").read_text())
    assert test_acc == round(report["per_run"][0]["summary"]["test_at_best_val"], 4)


def _drop_lines(*keys):
    def drop(cfg):
        lines = cfg.read_text().splitlines(keepends=True)
        cfg.write_text("".join(line for line in lines if line.split(" = ")[0] not in keys))
    return drop


@pytest.mark.parametrize("corrupt, code, reason", [
    pytest.param(lambda cfg: cfg.unlink(), 2, "config.resolved: file missing", id="missing"),
    pytest.param(lambda cfg: cfg.write_text(cfg.read_text() + "hidden 8\n"), 2,
                 ":26: expected 'key = value'", id="malformed"),
    pytest.param(lambda cfg: cfg.write_text(cfg.read_text() + "split-dir = x\n"), 2,
                 ":26: unknown key 'split-dir'", id="unknown-key"),
    # a run written before the five constant settings lost their keys
    pytest.param(lambda cfg: cfg.write_text(cfg.read_text() + "determinism = on\n"), 2,
                 ":26: unknown key 'determinism'", id="removed-key"),
    # a run written before the cluster-signal dump was removed
    pytest.param(lambda cfg: cfg.write_text(cfg.read_text() + "dump-cluster-signals = off\n"),
                 2, ":26: unknown key 'dump-cluster-signals'", id="removed-dump-key"),
    # every key evaluate reads must be in the run's file: none falls back to a default
    pytest.param(_drop_lines("appnp-hops", "row-normalize"), 2,
                 "missing 'appnp-hops', 'row-normalize'", id="keys-missing"),
    pytest.param(_drop_lines("hidden"), 2, "missing 'hidden'", id="hidden-missing"),
    pytest.param(_edit_line("hidden", "x"), 4, ":11: bad value for 'hidden'",
                 id="bad-value"),
    pytest.param(_edit_line("hidden", "1"), 4, "hidden must be at least 2",
                 id="hidden-rejected"),
    pytest.param(_edit_line("patience", "9"), 4, "patience must not exceed epochs",
                 id="training-value-rejected"),
])
def test_evaluate_run_config_errors(capsys, run_dir, corrupt, code, reason):
    corrupt(run_dir / "config.resolved")
    assert main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin")]) == code
    line = _error_line(capsys)
    assert reason in line
    if code == 2:
        assert str(run_dir / "config.resolved") in line


def test_evaluate_runs_one_forward(capsys, run_dir, monkeypatch):
    calls = []
    real_forward = trainer.forward
    monkeypatch.setattr(trainer, "forward",
                        lambda *a, **kw: calls.append(1) or real_forward(*a, **kw))
    assert main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin")]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("dataset=sbm train_acc=")
