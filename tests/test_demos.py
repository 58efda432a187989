import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_pythonpath

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

# 04 trains for about 16 s and is left out; 05 prints a notice and exits when the
# citation datasets are absent, and would run the full benchmark when present.
FAST_DEMOS = ["01_autodiff_core.py", "02_graph_operators_and_spectral.py",
              "03_sinkhorn_pseudo_labels.py", "05_citation_benchmarks.py"]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo):
    if demo.startswith("05") and any((ROOT / "data").glob("*/meta.json")):
        pytest.skip("citation datasets present: the demo runs the full benchmark")
    proc = subprocess.run([sys.executable, str(DEMOS / demo)],
                          env={**os.environ, "PYTHONPATH": child_pythonpath()}, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
