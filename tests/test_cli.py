"""The ``ncgc`` command line, run in process through ``cli.main``.

``CONTRACTS`` holds every exit-code contract of the command line but one, the
exit 3 of a training run whose loss turns non-finite (``test_numeric_blowup_exit_3``,
which writes ``config.resolved`` before it fails). Each row runs one argv
from a fresh working directory that holds the CI SBM as ``sbm`` and a run of
the CI gcn line as ``run``, after at most one setup step, and pins the exit
code. A nonzero exit must print exactly one ``error:`` line, holding the
row's substring (or equal to it, if the substring starts with ``error:``),
and no traceback, and must leave every path and byte of the working
directory as the setup left them; an exit 0 prints no ``error:`` line, and
its row's substring, if any, on stdout. ``_check`` runs one row; five families
run theirs under the test names and ids they had before they were rows, and
``test_contract`` runs every other row. CI runs these six tests and
``test_numeric_blowup_exit_3`` once more, with the golden runs, from outside
the checkout after ``pip install .``, so the same table checks the installed
package.

The other tests pin what a row cannot hold: outputs, accuracies, and
scenarios of more than one command.
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
from ncgc.spectral import clustering_accuracy
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


def _tree(root: Path) -> dict:
    """Every path under ``root``, relative to it, with a file's bytes."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


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


def _to_directory(path):
    """Put an empty directory in place of the file ``path``."""
    path.unlink()
    path.mkdir()


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


def _split_with_empty(empty):
    """A fixed split of two nodes per set, but with an empty ``<empty>.idx``."""
    def corrupt(d):
        for f, ids in (("train", "0\n10\n"), ("val", "1\n11\n"), ("test", "2\n12\n")):
            (d / f"{f}.idx").write_text("" if f == empty else ids)
    return corrupt


def _edit_line(key, value):
    def edit(cfg):
        text = cfg.read_text()
        line = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
        cfg.write_text(text.replace(f"{line}\n", f"{key} = {value}\n"))
    return edit


def _drop_lines(*keys):
    def drop(cfg):
        lines = cfg.read_text().splitlines(keepends=True)
        cfg.write_text("".join(line for line in lines if line.split(" = ")[0] not in keys))
    return drop


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


def _unlabeled_with_corrupt_checkpoint(d):
    # evaluate must turn down the unlabeled dataset before it reads the
    # checkpoint: reading this one first would print a checkpoint error
    _no_labeled_node("missing")(d / "sbm")
    (d / "run" / "checkpoint.bin").write_bytes(b"")


def _split_naming_unlabeled_node(d):
    lines = (d / "labels.tsv").read_text().splitlines(keepends=True)
    (d / "labels.tsv").write_text("".join(line for line in lines if not line.startswith("19\t")))
    (d / "train.idx").write_text("0\n1\n2\n10\n11\n12\n")
    (d / "val.idx").write_text("3\n13\n19\n")
    (d / "test.idx").write_text("4\n5\n14\n15\n")


def _fixed_split_without_labels(d):
    (d / "labels.tsv").unlink()
    for name, ids in (("train.idx", "0\n10\n"), ("val.idx", "1\n11\n"), ("test.idx", "2\n12\n")):
        (d / name).write_text(ids)


def _without_split_files(run):
    for name in ("train.idx", "val.idx", "test.idx"):
        (run / name).unlink()


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


_RUN = ["--dataset", "sbm", "--out", "o", "--seed", "1"]
_VALIDATE = ["validate", "--dataset", "sbm"]
_EVALUATE = ["evaluate", "--checkpoint", "run/checkpoint.bin"]
# five epochs and a split the 20-node SBM can hold, so that a row's own flag is
# the only bad input
_FIVE_EPOCHS = ["--epochs", "5", "--patience", "5", "--warmup", "1", *FAST_FLAGS[14:]]
_TRAINING = {"train": [], "ablate": [], "sweep": ["--axis", "beta", "--values", "0,0.01"]}

# id: (mutation of the sbm dataset, the substring of its validate error)
_MALFORMED_DATASETS = {
    "meta-not-utf8": (_write("meta.json", b'{"name": "\xff"}'), "sbm/meta.json"),
    # bool is a subclass of int in Python, but not a count
    "meta-bool-count": (_meta(k=True), "sbm/meta.json"),
    # with d = 0 an empty features.bin matches any n, so n would bound nothing
    "meta-d-zero": (_empty_files(n=10**12, d=0, m=0), "meta.json: field 'd'"),
    # with n = 0 an empty features.bin matches any d, and numpy cannot shape (0, d)
    **{f"meta-d-{d}-without-nodes": (_empty_files(n=0, d=d, m=0, k=0),
                                     "meta.json: field 'd' must be at most")
       for d in (10**20, 2**61)},
    "meta-k-above-n": (_meta(k=21), "meta.json: field 'k'"),
    "meta-not-object": (_write("meta.json", b'["n", "m", "d", "k"]'), "sbm/meta.json"),
    "edges-not-utf8": (_write("edges.tsv", b"0\t1\n\xff\t2\n"), "sbm/edges.tsv"),
    **{f"{name.split('.')[0]}-is-directory": (lambda d, name=name: _to_directory(d / name),
                                              f"error: sbm/{name}: cannot read (Is a directory)")
       for name in ("edges.tsv", "features.bin")},
    "labels-not-utf8": (_write("labels.tsv", b"0\t\xc3\n"), "sbm/labels.tsv"),
    "idx-not-utf8": (_idx_not_utf8, "sbm/train.idx"),
    "features-non-finite": (_nan_feature, "sbm/features.bin"),
    "features-too-long": (_append("features.bin", bytes(4)),
                          "features.bin: expected 480 bytes for 20x6 float32 values, found 484 "
                          "(extra bytes from byte offset 480)"),
    "features-truncated": (lambda d: (d / "features.bin").write_bytes(
                               (d / "features.bin").read_bytes()[:-5]),
                           "found 475 (truncated at byte offset 475)"),
    "edges-field-count": (_write("edges.tsv", b"0\t1\n0\t1\t2\n"), "sbm/edges.tsv:2"),
    "edges-non-integer": (_write("edges.tsv", b"0\t1\n0\tx\n"), "sbm/edges.tsv:2"),
    "edges-node-range": (_write("edges.tsv", b"0\t1\n0\t20\n"), "sbm/edges.tsv:2"),
    "edges-underscore": (_write("edges.tsv", b"0\t1\n0\t1_0\n"), "sbm/edges.tsv:2"),
    "edges-leading-space": (_write("edges.tsv", b"0\t1\n0\t 1\n"), "sbm/edges.tsv:2"),
    "edges-plus-sign": (_write("edges.tsv", b"0\t1\n0\t+1\n"), "sbm/edges.tsv:2"),
    "edges-19-digits": (_write("edges.tsv", b"0\t1\n0\t1000000000000000001\n"),
                        "edges.tsv:2: expected 2 tab-separated integers"),
    "labels-field-count": (_write("labels.tsv", b"0\t0\n1\n"), "sbm/labels.tsv:2"),
    "labels-non-integer": (_write("labels.tsv", b"0\t0\n1\t1.0\n"), "sbm/labels.tsv:2"),
    "labels-trailing-space": (_write("labels.tsv", b"0\t0\n1\t1 \n"), "sbm/labels.tsv:2"),
    "labels-arabic-digit": (_write("labels.tsv", "0\t0\n1\t\u0661\n".encode()),
                            "sbm/labels.tsv:2"),
    "labels-node-range": (_write("labels.tsv", b"0\t0\n-1\t0\n"), "sbm/labels.tsv:2"),
    "labels-class-range": (_write("labels.tsv", b"0\t0\n1\t2\n"), "sbm/labels.tsv:2"),
    "labels-twice": (_write("labels.tsv", b"0\t0\n1\t1\n0\t1\n"), "sbm/labels.tsv:3"),
    "idx-field-count": (_train_idx(b"0\n1\t2\n"), "sbm/train.idx:2"),
    "idx-non-integer": (_train_idx(b"0\nx\n"), "sbm/train.idx:2"),
    "idx-node-range": (_train_idx(b"0\n20\n"), "sbm/train.idx:2"),
    **{f"split-empty-{name}": (_split_with_empty(empty), f"the {name} set is empty")
       for empty, name in (("val", "validation"), ("test", "test"))},
}
# id: (mutation of run/checkpoint.bin, what its evaluate error says after the path)
_MALFORMED_CHECKPOINTS = {
    "is-directory": (_to_directory, "cannot read (Is a directory)"),
    # cut inside the 12-byte header, the first record's name length (bytes
    # 12-16) and its shape (bytes 24-40, after the 8-byte name 'input.w0')
    **{f"short-{field}": (lambda p, at=at: p.write_bytes(p.read_bytes()[:at]),
                          f"truncated at byte offset {at}")
       for field, at in (("header", 10), ("first-name-length", 14), ("first-shape", 30))},
    "version-2": (lambda p: p.write_bytes(p.read_bytes()[:4] + struct.pack("<I", 2)
                                          + p.read_bytes()[8:]),
                  "unsupported checkpoint version 2"),
    # zero values, so no length check rejects a shape numpy cannot make
    **{f"zero-size-{rows}x{cols}": (_reshape_first_parameter(rows, cols),
                                    f"parameter 'input.w0' has zero size {rows} x {cols}")
       for rows, cols in ((0, 2**63), (2**62, 0))},
    "name-not-utf8": (lambda p: p.write_bytes(p.read_bytes().replace(b"input.w0",
                                                                     b"input.w\xff")),
                      "parameter name at byte offset 16 is not UTF-8"),
    "nan-weight": (_nan_weight, "non-finite values in parameter 'proto.w'"),
    "trailing-bytes": (lambda p: p.write_bytes(p.read_bytes() + b"\0"),
                       "1 extra bytes from byte offset 1908"),
    "repeated-name": (_repeat_first_parameter,
                      "repeated parameter 'input.w0' at byte offset 1912"),
}
# id: (mutation of run/config.resolved, evaluate's exit code, its error substring)
_RUN_CONFIG_ERRORS = {
    "missing": (lambda cfg: cfg.unlink(), 2, "run/config.resolved: file missing"),
    "malformed": (lambda cfg: cfg.write_text(cfg.read_text() + "hidden 8\n"), 2,
                  "run/config.resolved:26: expected 'key = value'"),
    "unknown-key": (lambda cfg: cfg.write_text(cfg.read_text() + "split-dir = x\n"), 2,
                    "run/config.resolved:26: unknown key 'split-dir'"),
    # a run written before the five constant settings lost their keys
    "removed-key": (lambda cfg: cfg.write_text(cfg.read_text() + "determinism = on\n"), 2,
                    "run/config.resolved:26: unknown key 'determinism'"),
    # a run written before the cluster-signal dump was removed
    "removed-dump-key": (lambda cfg: cfg.write_text(cfg.read_text()
                                                    + "dump-cluster-signals = off\n"),
                         2, "run/config.resolved:26: unknown key 'dump-cluster-signals'"),
    # every key evaluate reads must be in the run's file: none falls back to a default
    "keys-missing": (_drop_lines("appnp-hops", "row-normalize"), 2,
                     "run/config.resolved: missing 'appnp-hops', 'row-normalize'"),
    "hidden-missing": (_drop_lines("hidden"), 2, "run/config.resolved: missing 'hidden'"),
    "bad-value": (_edit_line("hidden", "x"), 4, "run/config.resolved:11: bad value for 'hidden'"),
    "hidden-rejected": (_edit_line("hidden", "1"), 4, "hidden must be at least 2"),
    "training-value-rejected": (_edit_line("patience", "9"), 4,
                                "patience must not exceed epochs"),
}
# id: (setup, flags after a training command's own, its error substring)
_INPUT_ERRORS = {
    "edges-malformed": (("sbm", _append("edges.tsv", b"0\tx\n")), [], "sbm/edges.tsv:"),
    "fixed-split-no-labels": (("sbm", _fixed_split_without_labels), [], "no labeled node"),
    # the 20-node SBM has 10 nodes per class
    "split-too-few-labeled": (None, ["--train-per-class", "9", "--val-per-class", "3"],
                              "classes with too few labeled nodes"),
    "planetoid-too-few-labeled": (None, ["--split-policy", "planetoid_style",
                                         "--train-per-class", "2"],
                                  "need 1500 labeled nodes beyond training, have 16"),
    "split-empty-test": (None, ["--train-per-class", "7"], "the test set is empty"),
    "split-empty-validation": (None, ["--val-per-class", "0"], "the validation set is empty"),
}
# id: (command, flags, the substring of its exit-4 error)
_BAD_FLAGS = {
    "train-backbone": ("train", ["--backbone", "foo"], "unknown backbone 'foo'"),
    "train-dropout": ("train", ["--dropout", "1.5"], "dropout must lie in [0, 1)"),
    "train-patience-over-epochs": ("train", ["--epochs", "5", "--patience", "10"],
                                   "patience must not exceed epochs"),
    **{f"train-patience-{value}": ("train", ["--patience", value], "patience must be at least 1")
       for value in ("0", "-3")},
    "train-appnp-hops": ("train", ["--appnp-hops", "-1"], "appnp_hops must be at least 1"),
    # each rejection names the setting by its one name
    "train-hidden": ("train", ["--hidden", "1"], "hidden must be at least 2"),
    "train-layers": ("train", ["--layers", "0"], "layers must be at least 1"),
    "train-sinkhorn-iters": ("train", ["--sinkhorn-iters", "-1"],
                             "sinkhorn_iters must be at least 0"),
    "train-warmup": ("train", ["--warmup", "5"], "warmup must lie in [0, epochs)"),
    "train-lambda-kl": ("train", ["--lambda-kl", "-1"], "lambda_kl must be non-negative"),
    # on and off are the only spellings of a switch
    **{f"train-row-normalize-{value}": ("train", ["--row-normalize", value],
                                        f"expected on/off, got {value!r}")
       for value in ("true", "1")},
    "train-lr": ("train", ["--lr", "-1"], "lr must be positive"),
    "train-epsilon-0": ("train", ["--epsilon", "0"], "epsilon must be positive"),
    "sweep-value-not-a-number": ("sweep", ["--axis", "hidden", "--values", "8,x"],
                                 "bad --values list"),
    "sweep-no-value": ("sweep", ["--axis", "hidden", "--values", ","], "empty --values list"),
    "sweep-second-value": ("sweep", ["--axis", "dropout", "--values", "0.5,1.5"],
                           "dropout must lie in [0, 1)"),
    "evaluate-backbone": ("evaluate", ["--backbone", "foo"],
                          "unrecognized arguments: --backbone foo"),
    "train-split-policy": ("train", ["--split-policy", "bogus"], "unknown --split-policy 'bogus'"),
    **{f"{command}-runs-0": (command, ["--runs", "0"], "--runs must be at least 1, got 0")
       for command in ("train", "ablate")},
    "sweep-split-policy": ("sweep", ["--axis", "lr", "--values", "0.01", "--split-policy",
                                     "bogus"], "unknown --split-policy 'bogus'"),
    **{f"train-{flag}-negative": ("train", [f"--{flag}", "-1"], f"--{flag} must be non-negative")
       for flag in ("train-per-class", "val-per-class")},
    # the Planetoid sizes are constants: their old flags are unknown, whatever the value
    **{f"train-{flag}-negative": ("train", [f"--{flag}", "-1"],
                                  f"unrecognized arguments: --{flag} -1")
       for flag in ("val-total", "test-total")},
    "ablate-train-per-class-negative": ("ablate", ["--train-per-class", "-1"],
                                        "--train-per-class must be non-negative"),
    "sweep-test-total-negative": ("sweep", ["--values", "0.01", "--test-total", "-1"],
                                  "unrecognized arguments: --test-total -1"),
    "spectral-k-negative": ("spectral", ["--k", "-1"], "--k must be non-negative"),
    **{f"{command}-seed-negative": (command, ["--seed", "-1", *extra],
                                    "--seed must be non-negative")
       for command, extra in (("train", []), ("ablate", []), ("sweep", ["--values", "0.01"]),
                              ("spectral", []))},
    "evaluate-seed-unknown": ("evaluate", ["--seed", "1"], "unrecognized arguments: --seed 1"),
    "evaluate-config-unknown": ("evaluate", ["--config", "run/config.resolved"],
                                "unrecognized arguments: --config"),
}
# the argv each _BAD_FLAGS command's flags follow
_BAD_FLAGS_BASE = {
    "evaluate": ["evaluate", "--dataset", "sbm", "--checkpoint", "run/checkpoint.bin"],
    "spectral": ["spectral", *_RUN],
    **{command: [command, *_RUN, *_FIVE_EPOCHS] for command in _TRAINING},
}
_NON_FINITE = [("lambda-kl", "nan"), ("lambda-pl", "nan"), ("epsilon", "inf"), ("epsilon", "nan"),
               ("lr", "nan"), ("lr", "inf"), ("beta", "nan"), ("beta", "inf"),
               ("weight-decay", "nan"), ("weight-decay", "inf")]
# id: (option, a value config.resolved reads back as another: '#' starts a
# comment there, and each line is split and stripped)
_TEXT_VALUES = {"dataset-hash": ("dataset", "d#1"), "out-hash": ("out", "run#2"),
                "out-line-break": ("out", "run\nx"), "out-trailing-space": ("out", "run "),
                "dataset-leading-space": ("dataset", " sbm")}


def _text_value_argv(command, option, value):
    paths = {"dataset": "sbm", "out": "o", option: value}
    extra = ["--axis", "lr", "--values", "0.01"] if command == "sweep" else []
    return [command, "--dataset", paths["dataset"], "--out", paths["out"], "--seed", "1", *extra]


# id: (setup, argv, exit code, substring); the setup is None or a path in the
# working directory and the mutation applied to it. The substring is of the
# one error: line (the whole line if it starts with "error:"), or for exit 0
# of stdout.
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
    **{f"{command}-row-normalize": (None, argv, 4, "unrecognized arguments: --row-normalize off")
       for command, argv in (("validate", [*_VALIDATE, "--row-normalize", "off"]),
                             ("spectral", ["spectral", "--dataset", "sbm", "--row-normalize",
                                           "off", "--out", "o", "--seed", "1"]))},
    "train-without-seed": (None, ["train", "--dataset", "sbm", "--out", "o"], 4,
                           "train requires --seed"),
    "unknown-command": (None, ["nonsense"], 4, "invalid choice: 'nonsense'"),
    "sweep-unknown-axis": (None, ["sweep", *_RUN, "--axis", "bogus", "--values", "0.1"], 4,
                           "sweep axis must be a numeric hyperparameter"),
    # the last three are the field names before each field took its flag's name
    **{f"sweep-axis-{axis}": (None, ["sweep", *_RUN, "--axis", axis, "--values", "1"], 4,
                              "sweep axis must be a numeric hyperparameter")
       for axis in ("backbone", "seed", "hidden_dim", "sinkhorn_t", "warmup_epochs")},
    "spectral-k-0-is-the-class-count": (None, ["spectral", *_RUN, "--k", "0"], 0,
                                        "dataset=sbm k=2 "),
    "spectral-k-above-node-count": (None, ["spectral", *_RUN, "--k", "25"], 4,
                                    "--k must be at most the node count 20"),
    "spectral-no-classes-needs-k": (("sbm", _no_labeled_node("no-classes")),
                                    ["spectral", *_RUN], 4,
                                    "sbm has no classes (k = 0 in meta.json); pass --k"),
    "spectral-no-classes-with-k": (("sbm", _no_labeled_node("no-classes")),
                                   ["spectral", *_RUN, "--k", "2"], 0, None),
    **{f"train-{flag}-{value}": (None, ["train", *_RUN, *_FIVE_EPOCHS, f"--{flag}", value], 4,
                                 f"{flag.replace('-', '_')} must be finite")
       for flag, value in _NON_FINITE},
    # the same values from a config file
    **{f"train-config-{flag}-{value}": ((".", _write("run.conf", f"{flag} = {value}\n".encode())),
                                        ["train", *_RUN, *_FIVE_EPOCHS, "--config", "run.conf"],
                                        4, f"{flag.replace('-', '_')} must be finite")
       for flag, value in _NON_FINITE},
    **{name: (None, _BAD_FLAGS_BASE[command] + flags, 4, message)
       for name, (command, flags, message) in _BAD_FLAGS.items()},
    # config.resolved could not hold the value, so the run could not be scored
    # or rerun from its own file
    **{f"{command}-{name}": (("d#1", lambda p: shutil.copytree(p.parent / "sbm", p)),
                             _text_value_argv(command, option, value), 4, f"--{option} {value!r}")
       for command in ("train", "ablate", "sweep", "spectral")
       for name, (option, value) in _TEXT_VALUES.items()},
    "train-config-not-utf8": ((".", _write("bad.conf", b"beta = 0.1 # \xff\n")),
                              ["train", "--config", "bad.conf", *_RUN], 2,
                              "bad.conf: invalid UTF-8 at byte offset 13"),
    "train-config-bad-value": ((".", _write("run.conf", b"# comment\nlr = abc\n")),
                               ["train", "--config", "run.conf", *_RUN], 4,
                               "run.conf:2: bad value for 'lr': 'abc'"),
    **{f"{argv[0]}-config-nul-byte": ((".", _write("run.conf", b"dataset = sb\0m\n")), argv, 2,
                                      "run.conf:1: NUL byte")
       for argv in (["train", "--config", "run.conf", "--out", "o", "--seed", "1"],
                    ["validate", "--config", "run.conf"])},
    "evaluate-config-nul-byte": (("run/config.resolved", _edit_line("dataset", "sb\0m")),
                                 _EVALUATE, 2, "run/config.resolved:1: NUL byte"),
    **{f"validate-{name}": (("sbm", corrupt), _VALIDATE, 2, message)
       for name, (corrupt, message) in _MALFORMED_DATASETS.items()},
    "train-edges-digit-separator": (("sbm", _append("edges.tsv", b"0\t1_0\n")),
                                    ["train", *_RUN], 2,
                                    "sbm/edges.tsv:54: expected 2 tab-separated integers"),
    **{f"{command}-{name}": (setup, [command, *_RUN, *SHORT_FLAGS, *extra, *flags], 2, message)
       for command, extra in _TRAINING.items()
       for name, (setup, flags, message) in _INPUT_ERRORS.items()},
    **{f"{command}-{policy}-no-labeled-node-{form}": (
        ("sbm", _no_labeled_node(form)),
        [command, *_RUN, *SHORT_FLAGS, *extra, "--split-policy", policy], 2,
        "error: sbm: no labeled node; training needs node labels")
       for command, extra in _TRAINING.items() for policy in ("planetoid_style", "per_class")
       for form in _UNLABELED_FORMS},
    "train-fixed-split-naming-unlabeled-node": (
        ("sbm", _split_naming_unlabeled_node), ["train", *_RUN, *SHORT_FLAGS], 2,
        "error: the validation set names unlabeled node 19"),
    # 10 training nodes per class on a 2 x 10 SBM leave no node for the validation set
    "train-split-covering-every-node": (
        None, ["train", *_RUN, *_FIVE_EPOCHS, "--train-per-class", "10", "--val-per-class", "0"],
        2, "the validation set is empty"),
    # 3 training nodes per class: 0 validation nodes per class leave the
    # validation set empty, 7 leave no node for the test set
    **{f"train-val-per-class-{count}-empties-{name}": (
        None, ["train", *_RUN, *_FIVE_EPOCHS, "--train-per-class", "3", "--val-per-class", count],
        2, f"the {name} set is empty")
       for count, name in (("0", "validation"), ("7", "test"))},
    **{f"{command}-out-names-a-file": ((".", _write("taken", b"not a directory\n")),
                                       [command, "--dataset", "sbm", "--out", "taken", "--seed",
                                        "1", *split], 2, "taken: cannot create output directory")
       # a split the graph can hold, so that --out is the only bad input
       for command, split in (("train", FAST_FLAGS[14:-2]), ("spectral", []))},
    **{f"evaluate-checkpoint-{name}": (("run/checkpoint.bin", corrupt), _EVALUATE, 2,
                                       f"error: run/checkpoint.bin: {reason}")
       for name, (corrupt, reason) in _MALFORMED_CHECKPOINTS.items()},
    # the 2-layer run's checkpoint holds a layer that a 1-layer model lacks
    "evaluate-checkpoint-with-extra-layer": (("run/config.resolved", _edit_line("layers", "1")),
                                             _EVALUATE, 3,
                                             "checkpoint has unexpected parameter 'layer1.w'"),
    "evaluate-dataset-without-labels-reads-no-checkpoint": (
        (".", _unlabeled_with_corrupt_checkpoint), [*_EVALUATE, "--dataset", "sbm"], 2,
        "error: sbm: no labeled node; evaluation needs node labels"),
    # an empty labels.tsv, with k = 0 or not, labels no node, as a missing one does
    **{f"evaluate-no-labeled-node-{form}": (("sbm", _no_labeled_node(form)),
                                            [*_EVALUATE, "--dataset", "sbm"], 2,
                                            "error: sbm: no labeled node; "
                                            "evaluation needs node labels")
       for form in _UNLABELED_FORMS},
    **{f"evaluate-split-empty-{name}": (("run", _write(f"{empty}.idx", b"")), _EVALUATE, 2,
                                        "error: run/train.idx, run/val.idx, run/test.idx: "
                                        f"the {name} set is empty")
       for empty, name in (("val", "validation"), ("test", "test"))},
    "evaluate-run-without-split-files": (("run", _without_split_files), _EVALUATE, 2,
                                         "error: run: no split files found for evaluation"),
    **{f"evaluate-run-config-{name}": (("run/config.resolved", corrupt), _EVALUATE, code, message)
       for name, (corrupt, code, message) in _RUN_CONFIG_ERRORS.items()},
    # no balancing at an epsilon where exp(1/epsilon) overflows float64
    "sweep-no-balancing-at-small-epsilon": (
        None, ["sweep", "--out", "o", "--axis", "sinkhorn-iters", "--values", "0,1",
               "--epsilon", "0.001", *CI_FLAGS, "--runs", "2"], 0, None),
}


def _check(capsys, ci_dir, row):
    """Run the ``CONTRACTS`` row ``row`` and check what the table pins."""
    setup, argv, code, message = CONTRACTS[row]
    if setup is not None:
        path, mutate = setup
        mutate(ci_dir / path)
    before = _tree(ci_dir)
    assert main(argv) == code
    if code == 0:
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert not any(line.startswith("error:") for line in captured.err.splitlines()), \
            captured.err
        assert message is None or message in captured.out
    else:
        line = _error_line(capsys)
        assert line == message if message.startswith("error:") else message in line
        assert _tree(ci_dir) == before


_TAKEN_ROWS = set()


def _rows_test(ids):
    """A test that runs, under each of its test ids, the row that ``ids`` maps
    it to; no other such test runs that row."""
    assert _TAKEN_ROWS.isdisjoint(ids.values())
    _TAKEN_ROWS.update(ids.values())

    @pytest.mark.parametrize("row", ids.values(), ids=list(ids))
    def test(capsys, ci_dir, row):
        _check(capsys, ci_dir, row)
    return test


# Five families keep the test names and ids their cases had before they were rows
test_invalid_hyperparameter_exit_4_writes_nothing = _rows_test({name: name for name in _BAD_FLAGS})
test_validate_malformed_dataset_bytes_exit_2 = _rows_test({
    name: f"validate-{name}" for name in _MALFORMED_DATASETS
    if name != "features-truncated" and not name.startswith("split-empty-")})
test_non_finite_hyperparameter_exit_4_writes_nothing = _rows_test({
    f"{flag}-{value}-{source}": f"train-{prefix}{flag}-{value}"
    for flag, value in _NON_FINITE for source, prefix in (("flag", ""), ("config", "config-"))})
test_text_value_config_resolved_cannot_hold_exit_4 = _rows_test({
    f"{option}-{value}-{command}": f"{command}-{name}"
    for command in ("train", "ablate", "sweep", "spectral")
    for name, (option, value) in _TEXT_VALUES.items()})
test_no_labeled_node_exit_2_writes_nothing = _rows_test({
    f"{command}-{policy}-{form}": f"{command}-{policy}-no-labeled-node-{form}"
    for command in _TRAINING for policy in ("planetoid_style", "per_class")
    for form in _UNLABELED_FORMS})
# every other row, under its own id
test_contract = _rows_test({row: row for row in CONTRACTS if row not in _TAKEN_ROWS})
assert _TAKEN_ROWS == set(CONTRACTS)


def test_numeric_blowup_exit_3(capsys, sbm_dir, tmp_path):
    # not a row: training writes --out/config.resolved before the loss turns non-finite
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--dataset", str(sbm_dir), "--out", str(out),
                   "--seed", "1", "--lr", "1e18", "--epochs", "20", "--patience", "20",
                   "--warmup", "10", "--hidden", "16"] + FAST_FLAGS[14:])
    assert rc == 3
    assert "non-finite" in _error_line(capsys)
    assert [p.name for p in out.iterdir()] == ["config.resolved"]


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


@pytest.mark.parametrize("form", _UNLABELED_FORMS)
def test_validate_dataset_with_no_labeled_node(capsys, sbm_dir, form):
    _no_labeled_node(form)(sbm_dir)
    assert main(["validate", "--dataset", str(sbm_dir)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["labels: none"]


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
    feats = RngState(0).normal((6, 4))  # no class signal: the filter separates the triangles
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
    assignments = np.loadtxt(out / "assignments.tsv", dtype=int)[:, 1]
    assert set(assignments) <= set(range(k))
    # the printed accuracy is rounded, so the bounds take the exact one
    acc = clustering_accuracy(assignments, g.labels, k)
    assert capsys.readouterr().out.endswith(f" clustering_acc={acc:.4f}\n")
    # k clusters can match at most k of the three equal-size classes, and a
    # single cluster matches exactly one
    assert acc <= k / 3 + 1e-12
    if k == 1:
        assert acc == pytest.approx(1 / 3, abs=1e-12)


def test_spectral_with_no_labeled_node_omits_accuracy(capsys, sbm_dir, tmp_path):
    (sbm_dir / "labels.tsv").write_text("")
    out = tmp_path / "o"
    assert main(["spectral", "--dataset", str(sbm_dir), "--out", str(out), "--seed", "1"]) == 0
    assert capsys.readouterr().out == "dataset=sbm k=2\n"
    assert (out / "assignments.tsv").exists()


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


def test_evaluate_runs_one_forward(capsys, run_dir, monkeypatch):
    calls = []
    real_forward = trainer.forward
    monkeypatch.setattr(trainer, "forward",
                        lambda *a, **kw: calls.append(1) or real_forward(*a, **kw))
    assert main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin")]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("dataset=sbm train_acc=")
