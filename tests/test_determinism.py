"""Runs agree across BLAS thread counts within the rounding comparator's bound.

Byte identity of ``report.json`` and ``checkpoint.bin`` holds only for one
numpy, scipy and BLAS build at one thread count (criterion 9 checks it);
across thread counts the runs must agree within ``oracles.RUN_RTOL``. A run
through the fused layer op and one through the chain of primitives it
replaces (``oracles.sogn_chain``) must agree byte for byte.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncgc.model as model
from conftest import child_pythonpath
from golden.regenerate import TRAIN_LINES, write_datasets
from ncgc.cli import main
from ncgc.model import load_checkpoint, save_checkpoint
from oracles import run_differences, sogn_chain


def train_with_blas_threads(datasets: Path, out: Path, threads: int) -> None:
    """The criterion-9 line, run from ``datasets`` into ``out`` by a child process."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": child_pythonpath()}
    proc = subprocess.run(
        [sys.executable, "-m", "ncgc", *TRAIN_LINES["criterion9"], "--out", str(out)],
        env=env, cwd=datasets, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """A directory holding the CI SBM as ``sbm`` and the separable SBM, which
    the criterion-9 line trains on, as ``sbm_separable``."""
    base = tmp_path_factory.mktemp("data")
    write_datasets(base)
    return base


@pytest.fixture(scope="module")
def thread_runs(datasets, tmp_path_factory):
    base = tmp_path_factory.mktemp("threads")
    for threads in (1, 2):
        train_with_blas_threads(datasets, base / f"t{threads}", threads)
    return base / "t1", base / "t2"


def test_runs_agree_across_blas_thread_counts(thread_runs):
    assert run_differences(*thread_runs) == []


def test_comparator_rejects_a_weight_moved_by_1e6_ulp(thread_runs, tmp_path):
    run, _ = thread_runs
    moved = tmp_path / "moved"
    shutil.copytree(run, moved)
    named = load_checkpoint(moved / "checkpoint.bin")
    w = named["proto.w"]
    i = np.unravel_index(np.abs(w).argmax(), w.shape)  # above the comparator's floor
    w[i] += 1e6 * np.spacing(w[i])
    save_checkpoint(moved / "checkpoint.bin", named)
    diffs = run_differences(run, moved)
    assert len(diffs) == 1 and diffs[0].startswith("checkpoint proto.w: 1 weights")


def test_comparator_requires_equal_epoch_numbers(thread_runs, tmp_path):
    run, _ = thread_runs
    moved = tmp_path / "moved"
    shutil.copytree(run, moved)
    report = json.loads((moved / "report.json").read_text())
    report["per_run"][0]["summary"]["best_epoch"] += 1
    (moved / "report.json").write_text(json.dumps(report))
    diffs = run_differences(run, moved)
    assert len(diffs) == 1 and "best_epoch" in diffs[0]


@pytest.mark.parametrize("backbone", ["gcn", "appnp"])
def test_fused_layer_run_agrees_with_the_unrolled_layer(datasets, tmp_path, monkeypatch,
                                                        capsys, backbone):
    monkeypatch.chdir(datasets)
    args = [*TRAIN_LINES["criterion9"], "--backbone", backbone]
    assert main(args + ["--out", str(tmp_path / "fused")]) == 0
    configs = []

    def chain(h, w, a_tilde, config, rng, training, activation=True):
        configs.append((config.backbone, config.beta, config.appnp_hops))
        return sogn_chain(h, w, a_tilde, config, rng, training, activation)

    monkeypatch.setattr(model, "sogn_layer", chain)
    assert main(args + ["--out", str(tmp_path / "chain")]) == 0
    capsys.readouterr()
    assert configs and set(configs) == {(backbone, 0.005, 10)}
    assert run_differences(tmp_path / "fused", tmp_path / "chain") == []
    for name in ("report.json", "checkpoint.bin", "epochs.csv"):
        assert (tmp_path / "fused" / name).read_bytes() == (tmp_path / "chain" / name).read_bytes()
