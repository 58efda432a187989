"""Golden runs: the CI ``train``, ``ablate``, ``sweep`` and ``spectral`` lines
and the criterion-9 ``train`` line against their committed outputs.

``tests/golden/<line>/`` holds ``report.json``, ``checkpoint.bin`` and
``epochs.csv`` of each ``ncgc train`` line, with the stdout of ``ncgc
evaluate`` on its checkpoint as ``evaluate.txt``, and every file that each
``ablate``, ``sweep`` and ``spectral`` line writes; ``tests/golden/build.json``
records the build that wrote them (``tests/golden/regenerate.py`` writes all
of it). On that build a rerun must match byte for byte. On another build the
bytes may differ by rounding, so a train line must agree through
``oracles.run_differences`` (``report.json`` and ``checkpoint.bin``) and any
other line through its ``report.json`` alone (``oracles._json_differences``),
and a warning says the comparison was the weaker one.
"""

import json
import shutil
import warnings

import numpy as np

from golden.regenerate import (
    ARTIFACTS, GOLDEN, OUTPUT_LINES, TRAIN_LINES, build_record, run_lines,
)
from ncgc.model import load_checkpoint, save_checkpoint
from oracles import _json_differences, run_differences


def byte_differences(dir_a, dir_b, names=ARTIFACTS) -> list[str]:
    """The files among ``names`` whose bytes differ between two run directories."""
    return [name for name in names if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()]


def _byte_mode() -> bool:
    """True on the build that wrote the goldens; elsewhere warn that the
    comparison is within rounding only."""
    build, recorded = build_record(), json.loads((GOLDEN / "build.json").read_text())
    if build == recorded:
        return True
    changed = {key: (recorded.get(key), value) for key, value in build.items()
               if recorded.get(key) != value}
    warnings.warn(f"golden runs compared within rounding only: this build differs from "
                  f"tests/golden/build.json in {changed}")
    return False


def test_ci_train_lines_reproduce_the_golden_runs(tmp_path, capsys):
    run_lines(tmp_path, TRAIN_LINES)
    capsys.readouterr()
    byte_mode = _byte_mode()
    compare = byte_differences if byte_mode else run_differences
    for name in TRAIN_LINES:
        diffs = compare(GOLDEN / name, tmp_path / name)
        assert diffs == [], f"{name} in {'byte' if byte_mode else 'rounding'} mode: {diffs}"


def test_ci_output_lines_reproduce_the_golden_files(tmp_path, capsys):
    run_lines(tmp_path, OUTPUT_LINES)
    capsys.readouterr()
    byte_mode = _byte_mode()
    for name in OUTPUT_LINES:
        golden, run = GOLDEN / name, tmp_path / name
        files = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in run.iterdir()) == files, name
        if byte_mode:
            diffs = byte_differences(golden, run, files)
        else:
            diffs = []
            if "report.json" in files:
                _json_differences(*(json.loads((d / "report.json").read_text())
                                    for d in (golden, run)), "report.json", diffs)
        assert diffs == [], f"{name} in {'byte' if byte_mode else 'rounding'} mode: {diffs}"


def test_byte_mode_fails_on_a_one_ulp_weight_flip(tmp_path):
    run = tmp_path / "gcn"
    shutil.copytree(GOLDEN / "gcn", run)
    named = load_checkpoint(run / "checkpoint.bin")
    w = named["proto.w"]
    w[0, 0] = np.nextafter(w[0, 0], np.inf)
    save_checkpoint(run / "checkpoint.bin", named)
    assert byte_differences(GOLDEN / "gcn", run) == ["checkpoint.bin"]
    assert run_differences(GOLDEN / "gcn", run) == []  # within rounding: only bytes see it
