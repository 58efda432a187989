"""Write the golden runs that ``tests/test_golden.py`` compares against.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/golden/regenerate.py

Writes two datasets and runs each line from the directory that holds them, so
every path a line records is relative: the CI SBM (``make_sbm([10, 10], 0.6,
0.05, feature_dim=6, rng=RngState(0))``) in ``sbm``, which the CI workflow's
lines run on, and the criterion-9 fixture of ``tests/test_acceptance.py`` (the
same SBM with ``feature_shift=2.5, feature_noise=0.6``) in ``sbm_separable``,
whose classes training can tell apart. Each ``ncgc train`` line (the CI gcn
line, the CI APPNP line with 3 hops, and the criterion-9 line) has its
``report.json``, ``checkpoint.bin`` and ``epochs.csv`` copied to
``tests/golden/<line>/``, with the stdout of ``ncgc evaluate`` on its
checkpoint as ``evaluate.txt``; each ``ablate``, ``sweep`` and ``spectral``
line (the CI ones, and an ``ablate`` line on ``sbm_separable``) has every file
it writes copied to ``tests/golden/<line>/``. The build that wrote them goes
to ``tests/golden/build.json``. Regenerate only with a change that is meant
to move the outputs, and say why in its description.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np
import scipy

GOLDEN = Path(__file__).resolve().parent
ARTIFACTS = ("report.json", "checkpoint.bin", "epochs.csv", "evaluate.txt")
CI_FLAGS = ["--dataset", "sbm", "--seed", "1", "--epochs", "4", "--patience", "4",
            "--warmup", "1", "--hidden", "8", "--split-policy", "per_class",
            "--train-per-class", "3", "--val-per-class", "3"]
APPNP_FLAGS = ["--backbone", "appnp", "--appnp-hops", "3"]
# line -> its ncgc command and flags; run_lines adds --out
# the train lines: their ARTIFACTS are golden
TRAIN_LINES = {
    "gcn": ["train", *CI_FLAGS],
    "appnp": ["train", *CI_FLAGS, *APPNP_FLAGS],
    "criterion9": ["train", "--dataset", "sbm_separable", "--seed", "3", "--runs", "2",
                   "--hidden", "16", "--layers", "2", "--dropout", "0.2", "--lr", "0.01",
                   "--epochs", "50", "--patience", "50", "--warmup", "10",
                   "--split-policy", "per_class", "--train-per-class", "3",
                   "--val-per-class", "3", "--row-normalize", "off"],
}
# lines that write no checkpoint: every file they write is golden
OUTPUT_LINES = {
    "ablate": ["ablate", *CI_FLAGS, *APPNP_FLAGS, "--runs", "2"],
    "sweep": ["sweep", "--axis", "sinkhorn-iters", "--values", "1,2", *CI_FLAGS, *APPNP_FLAGS,
              "--runs", "2"],
    "spectral": ["spectral", "--dataset", "sbm", "--seed", "1"],
    "spectral_k1": ["spectral", "--dataset", "sbm", "--seed", "1", "--k", "1"],
    # the criterion-9 settings at 20 epochs: rows that differ (no_soc), so the
    # variant overrides are pinned, not only the plumbing
    "ablate_separable": ["ablate", "--dataset", "sbm_separable", "--seed", "3", "--runs", "2",
                         "--hidden", "16", "--layers", "2", "--dropout", "0.2", "--lr", "0.01",
                         "--epochs", "20", "--patience", "20", "--warmup", "10",
                         "--split-policy", "per_class", "--train-per-class", "3",
                         "--val-per-class", "3", "--row-normalize", "off"],
}


def _cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        lines = []
    models = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    return models[0] if models else platform.machine()


def build_record() -> dict:
    """What the bytes of a run depend on besides the code: Python, numpy,
    scipy, numpy's BLAS, the BLAS thread count (OpenBLAS's environment
    variables, else the CPUs this process may run on) and the CPU model, from
    which OpenBLAS picks its kernels."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(threads) if threads else cpus, "cpu_model": _cpu_model(),
    }


def _stdout_of(args: list[str]) -> str:
    """What ``ncgc <args>`` prints to stdout; raises unless it exits 0."""
    from ncgc.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(args)
    if rc != 0:
        raise RuntimeError(f"ncgc {' '.join(args)} failed")
    return stdout.getvalue()


def run_lines(base: Path, lines: dict) -> None:
    """Write the two datasets to ``base/sbm`` and ``base/sbm_separable`` and run
    each line from ``base`` into ``base/<line>``; a train line's checkpoint is
    then scored by ``ncgc evaluate``, whose stdout goes to ``evaluate.txt``."""
    from ncgc.graph import write_dataset
    from ncgc.rng import RngState
    from ncgc.synth import make_sbm

    write_dataset(make_sbm([10, 10], 0.6, 0.05, feature_dim=6, rng=RngState(0)), base / "sbm")
    write_dataset(make_sbm([10, 10], 0.6, 0.05, feature_dim=6, rng=RngState(0),
                           feature_shift=2.5, feature_noise=0.6), base / "sbm_separable")
    cwd = os.getcwd()
    os.chdir(base)
    try:
        for name, (command, *flags) in lines.items():
            _stdout_of([command, "--out", name, *flags])
            if command == "train":
                scores = _stdout_of(["evaluate", "--checkpoint", f"{name}/checkpoint.bin"])
                Path(name, "evaluate.txt").write_text(scores, encoding="utf-8")
    finally:
        os.chdir(cwd)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run_lines(Path(tmp), {**TRAIN_LINES, **OUTPUT_LINES})
        for name in TRAIN_LINES:
            (GOLDEN / name).mkdir(exist_ok=True)
            for artifact in ARTIFACTS:
                shutil.copyfile(Path(tmp) / name / artifact, GOLDEN / name / artifact)
        for name in OUTPUT_LINES:
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            shutil.copytree(Path(tmp) / name, GOLDEN / name)
    (GOLDEN / "build.json").write_text(
        json.dumps(build_record(), indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
