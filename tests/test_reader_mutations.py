"""Seeded mutation test of the dataset and run-directory readers.

Each dataset mutant is the 20-node SBM fixture, with its split files, after one
mutation of one file: truncation, a byte flip, an inserted invalid UTF-8 byte,
or a directory in place of the file. ``ncgc validate`` must accept it (exit 0)
or reject it with exit 2 and one ``error:`` line naming the file at fault,
and never raise; the normalized adjacency of a mutant it accepts must equal
its transpose bit for bit, as training's gradient assumes. Each run mutant
is a trained run directory after one of the first three mutations of its
``config.resolved`` or ``checkpoint.bin``:
``ncgc evaluate --checkpoint`` must exit 0, 2, 3 or 4, print one ``error:``
line when it fails (naming the mutated file when that exits 2), write
nothing and never raise; a truncated ``config.resolved`` that lost a whole
line exits 2 or 4, never 0 or 3. Every mutant is drawn from a ``zlib.crc32``
seed, so a failing case replays from its test id. The run is trained, and
each run mutant scored, from the directory that holds the dataset as ``sbm``
and the run as ``run``, so ``config.resolved`` holds no temporary path and a
mutant's bytes and outcome are the same wherever the test runs.
"""

import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest

from golden.regenerate import write_datasets
from ncgc.cli import main
from ncgc.graph import load_dataset, make_split, normalized_adjacency, write_split
from ncgc.rng import RngState

FILES = ("meta.json", "features.bin", "edges.tsv", "labels.tsv",
         "train.idx", "val.idx", "test.idx")
RUN_FILES = ("config.resolved", "checkpoint.bin")
TRIALS = 6


def _truncate(data: bytes, rng: RngState) -> bytes:
    return data[:int(rng.integers(0, len(data)))]


def _flip(data: bytes, rng: RngState) -> bytes:
    at = int(rng.integers(0, len(data)))
    return data[:at] + bytes([data[at] ^ int(rng.integers(1, 256))]) + data[at + 1:]


def _invalid_utf8(data: bytes, rng: RngState) -> bytes:
    at = int(rng.integers(0, len(data) + 1))
    return data[:at] + (b"\xff", b"\xc3", b"\x80")[int(rng.integers(0, 3))] + data[at:]


MUTATIONS = {"truncate": _truncate, "flip": _flip, "invalid-utf8": _invalid_utf8}
CASES = [(name, kind, trial) for name in FILES for kind in MUTATIONS for trial in range(TRIALS)]
RUN_CASES = [(name, kind, trial)
             for name in RUN_FILES for kind in MUTATIONS for trial in range(TRIALS)]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The CI SBM as ``sbm``, with a per-class split of 3 + 3 nodes per class."""
    base = tmp_path_factory.mktemp("pristine")
    write_datasets(base)
    d = base / "sbm"
    write_split(make_split(load_dataset(d), "per_class", RngState(1), train_per_class=3,
                           val_per_class=3), d)
    return d


@pytest.fixture(scope="module")
def trained(pristine, tmp_path_factory):
    """A directory holding the pristine dataset as ``sbm`` and a run of it as
    ``run`` (checkpoint, config and split), trained from that directory."""
    base = tmp_path_factory.mktemp("trained")
    shutil.copytree(pristine, base / "sbm")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        assert main(["train", "--dataset", "sbm", "--out", "run", "--seed", "1",
                     "--epochs", "2", "--patience", "2", "--warmup", "1", "--hidden", "8"]) == 0
    return base


def _validate(capsys, d, name) -> int:
    """Exit code of ``ncgc validate`` on ``d``, checking the error line of an exit 2
    and the symmetry of the normalized adjacency of an accepted dataset."""
    rc = main(["validate", "--dataset", str(d)])
    err = capsys.readouterr().err
    assert rc in (0, 2)
    if rc == 0:
        at = normalized_adjacency(load_dataset(d)).to_dense()
        assert np.array_equal(at, at.T)
    if rc == 2:
        errors = [line for line in err.splitlines() if not line.startswith("config:")]
        assert len(errors) == 1 and errors[0].startswith("error:"), err
        assert str(d / name) in errors[0], errors[0]
    return rc


@pytest.mark.parametrize("name, kind, trial", CASES,
                         ids=[f"{name}-{kind}-{trial}" for name, kind, trial in CASES])
def test_mutated_file_exits_0_or_2_naming_it(capsys, tmp_path, pristine, name, kind, trial):
    d = tmp_path / "sbm"
    shutil.copytree(pristine, d)
    rng = RngState(zlib.crc32(f"{name}:{kind}:{trial}".encode()))
    f = d / name
    f.write_bytes(MUTATIONS[kind](f.read_bytes(), rng))
    _validate(capsys, d, name)


@pytest.mark.parametrize("name", FILES)
def test_directory_in_place_of_file_exit_2(capsys, tmp_path, pristine, name):
    d = tmp_path / "sbm"
    shutil.copytree(pristine, d)
    (d / name).unlink()
    (d / name).mkdir()
    assert _validate(capsys, d, name) == 2


@pytest.mark.parametrize("name, kind, trial", RUN_CASES,
                         ids=[f"{name}-{kind}-{trial}" for name, kind, trial in RUN_CASES])
def test_mutated_run_file_exits_0_2_3_or_4(capsys, tmp_path, monkeypatch, trained, name,
                                           kind, trial):
    shutil.copytree(trained, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    rng = RngState(zlib.crc32(f"{name}:{kind}:{trial}".encode()))
    f = Path("run", name)
    data = f.read_bytes()
    mutated = MUTATIONS[kind](data, rng)
    f.write_bytes(mutated)
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    rc = main(["evaluate", "--checkpoint", "run/checkpoint.bin"])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4)
    errors = [line for line in err.splitlines() if not line.startswith("config:")]
    if rc == 0:
        assert errors == [], err
    else:
        assert len(errors) == 1 and errors[0].startswith("error:"), err
    if rc == 2:
        assert str(f) in errors[0], errors[0]
    if kind == "truncate" and name == "config.resolved" and data.count(b"\n", len(mutated)) > 1:
        # a whole key line is gone, and evaluate fills in no default: the missing
        # key exits 2, unless the cut leaves a `key =` line with no value (4)
        assert rc in (2, 4), err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files
