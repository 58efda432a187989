"""Write the golden runs that ``tests/test_golden.py`` compares against.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/golden/regenerate.py

Writes the CI SBM (``make_sbm([10, 10], 0.6, 0.05, feature_dim=6,
rng=RngState(0))``), trains it under the two ``ncgc train`` lines of the CI
workflow (gcn, and APPNP with 3 hops) and copies each run's ``report.json``,
``checkpoint.bin`` and ``epochs.csv`` to ``tests/golden/<line>/``. The build
that wrote them goes to ``tests/golden/build.json``. Regenerate only with a
change that is meant to move the outputs, and say why in its description.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np
import scipy

GOLDEN = Path(__file__).resolve().parent
ARTIFACTS = ("report.json", "checkpoint.bin", "epochs.csv")
CI_FLAGS = ["--seed", "1", "--epochs", "4", "--patience", "4", "--warmup", "1", "--hidden", "8",
            "--split-policy", "per_class", "--train-per-class", "3", "--val-per-class", "3"]
LINES = {"gcn": CI_FLAGS, "appnp": CI_FLAGS + ["--backbone", "appnp", "--appnp-hops", "3"]}


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


def train_lines(base: Path) -> None:
    """Write the CI SBM to ``base/sbm`` and train each line into ``base/<line>``."""
    from ncgc.cli import main
    from ncgc.graph import write_dataset
    from ncgc.rng import RngState
    from ncgc.synth import make_sbm

    write_dataset(make_sbm([10, 10], 0.6, 0.05, feature_dim=6, rng=RngState(0)), base / "sbm")
    for name, flags in LINES.items():
        args = ["train", "--dataset", str(base / "sbm"), "--out", str(base / name), *flags]
        if main(args) != 0:
            raise RuntimeError(f"ncgc {' '.join(args)} failed")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        train_lines(Path(tmp))
        for name in LINES:
            (GOLDEN / name).mkdir(exist_ok=True)
            for artifact in ARTIFACTS:
                shutil.copyfile(Path(tmp) / name / artifact, GOLDEN / name / artifact)
    (GOLDEN / "build.json").write_text(
        json.dumps(build_record(), indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
