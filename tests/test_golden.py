"""Golden runs: the CI ``train`` lines against their committed outputs.

``tests/golden/<line>/`` holds ``report.json``, ``checkpoint.bin`` and
``epochs.csv`` of the two ``ncgc train`` lines of the CI workflow on the CI
SBM, and ``tests/golden/build.json`` the build that wrote them
(``tests/golden/regenerate.py`` writes all of it). On that build a rerun must
match byte for byte. On another build the bytes may differ by rounding, so
the rerun must agree through ``oracles.run_differences`` (``report.json`` and
``checkpoint.bin``), and a warning says the comparison was the weaker one.
"""

import json
import shutil
import warnings

import numpy as np

from golden.regenerate import ARTIFACTS, GOLDEN, LINES, build_record, train_lines
from ncgc.model import load_checkpoint, save_checkpoint
from oracles import run_differences


def byte_differences(dir_a, dir_b) -> list[str]:
    """The artifacts whose bytes differ between two run directories."""
    return [name for name in ARTIFACTS if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()]


def test_ci_train_lines_reproduce_the_golden_runs(tmp_path, capsys):
    train_lines(tmp_path)
    capsys.readouterr()
    build, recorded = build_record(), json.loads((GOLDEN / "build.json").read_text())
    if build == recorded:
        mode, compare = "byte", byte_differences
    else:
        mode, compare = "rounding", run_differences
        changed = {key: (recorded.get(key), value) for key, value in build.items()
                   if recorded.get(key) != value}
        warnings.warn(f"golden runs compared within rounding only: this build differs from "
                      f"tests/golden/build.json in {changed}")
    for name in LINES:
        diffs = compare(GOLDEN / name, tmp_path / name)
        assert diffs == [], f"{name} in {mode} mode: {diffs}"
    print(f"golden runs compared in {mode} mode")


def test_byte_mode_fails_on_a_one_ulp_weight_flip(tmp_path):
    run = tmp_path / "gcn"
    shutil.copytree(GOLDEN / "gcn", run)
    named = load_checkpoint(run / "checkpoint.bin")
    w = named["proto.w"]
    w[0, 0] = np.nextafter(w[0, 0], np.inf)
    save_checkpoint(run / "checkpoint.bin", named)
    assert byte_differences(GOLDEN / "gcn", run) == ["checkpoint.bin"]
    assert run_differences(GOLDEN / "gcn", run) == []  # within rounding: only bytes see it
