"""Runs agree across BLAS thread counts within the rounding comparator's bound.

Byte identity of ``report.json`` and ``checkpoint.bin`` holds only for one
numpy, scipy and BLAS build at one thread count (criterion 9 checks it);
across thread counts the runs must agree within ``oracles.RUN_RTOL``, and so
must a fused APPNP run and one through the unrolled primitive chain.
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
from ncgc.cli import main
from ncgc.graph import write_dataset
from ncgc.model import load_checkpoint, save_checkpoint
from ncgc.rng import RngState
from ncgc.synth import make_sbm
from oracles import appnp_chain, run_differences

SRC = Path(__file__).resolve().parent.parent / "src"

# the criterion-9 fixture and its training flags
CRITERION_9_FLAGS = [
    "--seed", "3", "--runs", "2", "--hidden", "16", "--layers", "2", "--dropout", "0.2",
    "--lr", "0.01", "--epochs", "50", "--patience", "50", "--warmup", "10",
    "--split-policy", "per_class", "--train-per-class", "3", "--val-per-class", "3",
    "--row-normalize", "off", "--determinism", "on",
]


def train_with_blas_threads(data: Path, out: Path, threads: int) -> None:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": str(SRC) if not path else str(SRC) + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-m", "ncgc", "train", "--dataset", str(data), "--out", str(out),
         *CRITERION_9_FLAGS], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.fixture(scope="module")
def sbm(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "sbm"
    g = make_sbm([10, 10], 0.6, 0.05, feature_dim=6, rng=RngState(0),
                 feature_shift=2.5, feature_noise=0.6)
    write_dataset(g, d)
    return d


@pytest.fixture(scope="module")
def thread_runs(sbm, tmp_path_factory):
    base = tmp_path_factory.mktemp("threads")
    for threads in (1, 2):
        train_with_blas_threads(sbm, base / f"t{threads}", threads)
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


def test_fused_appnp_run_agrees_with_the_unrolled_chain(sbm, tmp_path, monkeypatch, capsys):
    args = ["train", "--dataset", str(sbm), "--backbone", "appnp", *CRITERION_9_FLAGS]
    assert main(args + ["--out", str(tmp_path / "fused")]) == 0
    hops = []

    def chain_propagate(a_tilde, z, config):
        hops.append(config.appnp_hops)
        return appnp_chain(a_tilde, z, config.appnp_alpha, config.appnp_hops)

    monkeypatch.setattr(model, "backbone_propagate", chain_propagate)
    assert main(args + ["--out", str(tmp_path / "chain")]) == 0
    capsys.readouterr()
    assert hops and set(hops) == {10}
    assert run_differences(tmp_path / "fused", tmp_path / "chain") == []
