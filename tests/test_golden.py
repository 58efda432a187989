"""Golden runs: the CI ``train``, ``ablate``, ``sweep`` and ``spectral`` lines,
the criterion-9 ``train`` line and an ``ablate`` line at the criterion-9
settings against their committed outputs.

``tests/golden/<line>/`` holds ``report.json``, ``checkpoint.bin`` and
``epochs.csv`` of each ``ncgc train`` line, with the stdout of ``ncgc
evaluate`` on its checkpoint as ``evaluate.txt``, and every file that each
``ablate``, ``sweep`` and ``spectral`` line writes; ``tests/golden/build.json``
records the build that wrote them (``tests/golden/regenerate.py`` writes all
of it). On that build a rerun must match byte for byte. On another build the
bytes may differ by rounding, and a warning says the comparison was the
weaker one: a train line must agree through ``oracles.run_differences``
(``report.json``, ``epochs.csv`` and ``checkpoint.bin``); any other line
through ``rounding_differences``: its ``config.resolved``, which holds no
computed float, byte for byte, and its ``report.json``, ``ablate.csv`` and
``sweep.csv`` by the same float rule. ``assignments.tsv`` (``spectral``) is
compared in byte mode only.
"""

import json
import shutil
import warnings

import numpy as np

from golden.regenerate import (
    ARTIFACTS, GOLDEN, OUTPUT_LINES, TRAIN_LINES, build_record, run_lines,
)
from ncgc.model import load_checkpoint, save_checkpoint
from oracles import _json_differences, csv_differences, run_differences


def byte_differences(dir_a, dir_b, names=ARTIFACTS) -> list[str]:
    """The files among ``names`` whose bytes differ between two run directories."""
    return [name for name in names if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()]


def rounding_differences(dir_a, dir_b, names) -> list[str]:
    """What the files ``names`` of two output-line directories differ in beyond
    rounding; ``assignments.tsv`` is not compared."""
    diffs = byte_differences(dir_a, dir_b, [n for n in names if n == "config.resolved"])
    for name in names:
        if name == "report.json":
            _json_differences(*(json.loads((d / name).read_text()) for d in (dir_a, dir_b)),
                              name, diffs)
        elif name.endswith(".csv"):
            diffs += csv_differences(dir_a / name, dir_b / name)
    return diffs


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
        compare = byte_differences if byte_mode else rounding_differences
        diffs = compare(golden, run, files)
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


def test_rounding_mode_reads_every_table_and_the_config(tmp_path):
    # a 1-ulp change to a CSV float is rounding; 1e6 ulp, an integer or a
    # config.resolved line is not
    for name, table, col in (("gcn", "epochs.csv", 8), ("ablate", "ablate.csv", 1),
                             ("sweep", "sweep.csv", 1)):
        rows = (GOLDEN / name / table).read_text().splitlines()
        cells = rows[1].split(",")
        x = float(cells[col])
        files = sorted(p.name for p in (GOLDEN / name).iterdir())
        for moved, expected in ((np.nextafter(x, np.inf), 0), (x + 1e6 * np.spacing(x), 1)):
            run = tmp_path / f"{name}-{expected}"
            shutil.copytree(GOLDEN / name, run)
            cells[col] = repr(float(moved))
            (run / table).write_text("\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n")
            diffs = (run_differences(GOLDEN / name, run) if name == "gcn"
                     else rounding_differences(GOLDEN / name, run, files))
            assert len(diffs) == expected, (table, diffs)
            assert byte_differences(GOLDEN / name, run, [table]) == [table]
    run = tmp_path / "gcn-epoch"
    shutil.copytree(GOLDEN / "gcn", run)
    text = (run / "epochs.csv").read_text()
    (run / "epochs.csv").write_text(text.replace("\n0,1,", "\n0,2,", 1))
    assert len(run_differences(GOLDEN / "gcn", run)) == 1
    run = tmp_path / "sweep-config"
    shutil.copytree(GOLDEN / "sweep", run)
    (run / "config.resolved").write_text((run / "config.resolved").read_text() + "k = 0\n")
    assert rounding_differences(GOLDEN / "sweep", run, ["config.resolved"]) == ["config.resolved"]
