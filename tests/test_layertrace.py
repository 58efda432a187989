"""The benchmark's per-layer tracer still installs over the package and traces a run.

``perfbench/layertrace.py`` wraps package functions by name and reads
``forward``'s ``training`` argument by position, so a rename or a signature
change in ``src`` would break ``perfbench/run.py --trace 1`` without this test.
It also sizes every tape node's saved values, closure cells included, so a
VJP that closes over a name one branch of its op leaves unbound crashes it:
the run goes through each backbone with and without the correction, and
through the ``mlp`` input transform, whose second map is the dense branch of
``nm.affine_relu``. The tracer is only imported, never modified.

The child process imports ``ncgc`` from the checkout's ``src``, not the package
the test process imported: ``perfbench/invoke.py`` imports ``src/`` of its
working directory, so the checkout is what the benchmark traces.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden.regenerate import write_datasets

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from layertrace import Tracer

tracer = Tracer()
tracer.install()

from ncgc import cli

data, out, backbone, beta, *extra = sys.argv[1:]
code = cli.main(["train", "--dataset", data, "--out", out, "--seed", "1",
                 "--epochs", "4", "--patience", "4", "--warmup", "1", "--hidden", "16",
                 "--train-per-class", "3", "--val-per-class", "3",
                 "--split-policy", "per_class", "--row-normalize", "off",
                 "--backbone", backbone, "--beta", beta, *extra])
print(json.dumps({"exit": code, "calls": tracer.summary()["calls"]}))
"""


def _traced_train(tmp_path, backbone, beta, *extra):
    write_datasets(tmp_path)
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]
                           + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "sbm_separable"), str(tmp_path / "run"),
         backbone, beta, *extra],
        env={**os.environ, "PYTHONPATH": path}, cwd=ROOT,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0
    for span in ("model.forward_train", "model.forward_eval", "model.input_transform",
                 "nm.matmul"):
        assert result["calls"].get(span, 0) > 0, span


@pytest.mark.parametrize("backbone", ["gcn", "appnp"])
@pytest.mark.parametrize("beta", ["0", "0.005"])
def test_layertrace_installs_and_traces_train(tmp_path, backbone, beta):
    _traced_train(tmp_path, backbone, beta)


def test_layertrace_traces_mlp_input_transform(tmp_path):
    # four layers resolve the input transform to mlp: a sparse, then a dense map
    _traced_train(tmp_path, "gcn", "0.005", "--layers", "4")
