"""ncgc benchmark: drives the public CLI on generated workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed fixes the generated dataset and the training seed. Generation is
untimed and cached under ``.perfbench/``. For ``--seconds`` seconds the
benchmark repeats one fixed CLI invocation (fixed epochs, early stopping
off, fixed warmup), each in a fresh process, and gates every invocation:
exit code 0, finite losses, test accuracy above a floor over chance, and
``report.json``/``checkpoint.bin`` byte-identical to the first invocation's.

``--trace 0`` reports the end-to-end metrics as medians over invocations.
``--trace 1`` alternates untraced and traced invocations, reports per-layer
metrics as medians over the traced ones, and fails an invocation whose
artifacts differ from the untraced ones. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from layertrace import PRIMITIVE_GROUPS

WORK = Path(".perfbench")
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
FLOOR_OVER_CHANCE = 0.2  # gate: test accuracy must exceed 1/k by this much
INVOKE_TIMEOUT_S = 50  # about 4x the slowest invocation; keeps a run under 180 s
MIN_INVOCATIONS = 3  # medians need three samples; trace runs need both kinds
ARTIFACTS = ("report.json", "checkpoint.bin")  # byte-identical across a run's invocations
# Epochs before clustering starts. Real training runs the clustering path in
# nearly every epoch, so the warmup is kept to one; epoch_s then times only the
# epochs after the first clustering epoch, which also seeds the centroids once.
WARMUP = 1
EPOCHS = 8


CORA_ARGS = ("train", "--runs", "1", "--split-policy", "planetoid_style",
             "--backbone", "gcn", "--layers", "3", "--hidden", "512", "--beta", "0.003",
             "--epsilon", "0.004", "--sinkhorn-iters", "3", "--lr", "0.001",
             "--weight-decay", "5e-4", "--dropout", "0.8",
             "--epochs", str(EPOCHS), "--patience", str(EPOCHS), "--warmup", str(WARMUP))
PUBMED_ARGS = ("train", "--runs", "1", "--split-policy", "planetoid_style",
               "--backbone", "appnp", "--appnp-hops", "10", "--appnp-alpha", "0.1",
               "--layers", "2", "--hidden", "64", "--beta", "0.008", "--epsilon", "0.04",
               "--sinkhorn-iters", "4", "--lr", "0.01", "--weight-decay", "5e-4",
               "--dropout", "0.7", "--epochs", str(EPOCHS), "--patience", str(EPOCHS),
               "--warmup", str(WARMUP),
               "--row-normalize", "off")

WORKLOADS = {  # name -> (generated shape, CLI arguments)
    "cora-gcn": (gen.CORA, CORA_ARGS),
    "pubmed-appnp": (gen.PUBMED, PUBMED_ARGS),
}

END_TO_END_UNITS = {"epoch_s": "s", "run_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB", "test_acc": "fraction"}


# ---------------------------------------------------------------------------
# machine record


def machine_record(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "seed": seed,
    }


# ---------------------------------------------------------------------------
# invocations


def dataset_dir(name: str, shape: gen.CitationShape, seed: int) -> Path:
    # keyed by the generator's source too, so a changed generator never reuses stale data
    version = hashlib.sha256(Path(gen.__file__).read_bytes()).hexdigest()[:12]
    path = WORK / "data" / f"{name}-{seed}-{version}"
    if path.is_dir():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(path.with_name(path.name + ".tmp"), ignore_errors=True)
    gen.write(path, *gen.citation_dataset(shape, seed, name))
    check = subprocess.run(
        [sys.executable, "-m", "ncgc", "validate", "--dataset", str(path)],
        env={**child_env(), "PYTHONPATH": "src"}, capture_output=True, text=True,
        timeout=INVOKE_TIMEOUT_S)
    if check.returncode != 0:
        shutil.rmtree(path)
        raise SystemExit(f"ncgc validate rejected {path}: {check.stderr.strip()}")
    return path


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def invoke(argv: tuple, data: Path, seed: int, out: Path, trace: bool) -> dict:
    """One CLI invocation in a fresh process; returns its record and gate result."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    record_path = out.with_suffix(".record.json")
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, "perfbench/invoke.py", "--record", str(record_path)]
    cmd += ["--trace"] if trace else []
    cmd += ["--", *argv, "--dataset", str(data), "--out", str(out), "--seed", str(seed)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=INVOKE_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        return {"wall": time.perf_counter() - t0, "trace": trace,
                "errors": [f"timed out after {INVOKE_TIMEOUT_S} s"]}
    result = {"wall": time.perf_counter() - t0, "trace": trace, "errors": []}
    if proc.returncode != 0 or not record_path.is_file():
        result["errors"].append(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return result
    rec = json.loads(record_path.read_text(encoding="utf-8"))
    result["record"] = rec
    result["artifacts"] = {}
    for name in ARTIFACTS:
        f = out / name
        if not f.is_file():
            result["errors"].append(f"missing artifact {name}")
        else:
            result["artifacts"][name] = f.read_bytes()
    if not all(c["finite"] for c in rec["train_calls"]):
        result["errors"].append("non-finite loss in a training epoch")
    if "report.json" in result["artifacts"]:
        try:
            report = json.loads(result["artifacts"]["report.json"])
            result["test_acc"] = report["acc_mean"]
        except (ValueError, KeyError, TypeError) as e:
            result["errors"].append(f"unreadable report.json: {e!r}")
            return result
        if not _all_finite(report):
            result["errors"].append("non-finite number in report.json")
    return result


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


def gate(results: list, k: int) -> None:
    """Add the accuracy floor and the byte-identity check to each result's errors."""
    floor = 1.0 / k + FLOOR_OVER_CHANCE
    reference = next((r["artifacts"] for r in results if not r["errors"]), None)
    for r in results:
        if r["errors"]:
            continue
        if r["test_acc"] <= floor:
            r["errors"].append(f"test_acc {r['test_acc']:.4f} not above floor {floor:.4f}")
        for name, data in reference.items():
            if r["artifacts"].get(name) != data:
                r["errors"].append(f"{name} differs from the first invocation's")


# ---------------------------------------------------------------------------
# metrics


def end_to_end(ok: list) -> dict:
    """Medians over passing invocations (test_acc is identical across them)."""
    med = statistics.median
    return {
        "epoch_s": med(_epoch_s(r["record"]) for r in ok),
        "run_s": med(r["wall"] for r in ok),
        "setup_s": med(r["record"]["setup_s"] for r in ok),
        "peak_rss_mb": med(r["record"]["peak_rss_kib"] / 1024.0 for r in ok),
        "test_acc": ok[0]["test_acc"],
    }


def _epoch_s(rec: dict) -> float:
    """Median wall time of the steady clustering epochs: after the warmup and
    after the epoch that seeds the centroids."""
    return statistics.median(t for c in rec["train_calls"] for t in c["epoch_s"][WARMUP + 1:])


def layer_metrics(rec: dict) -> dict:
    """Per-layer metrics of one traced invocation, as (value, unit) pairs."""
    t = rec["trace"]
    self_s, incl_s, calls, counts = t["self_s"], t["incl_s"], t["calls"], t["counts"]
    epochs = sum(c["epochs"] for c in t["train_calls"])

    def group(name, fwd=True, bwd=True):
        return sum(self_s.get("nm." + n, 0.0) * fwd + self_s.get("nm." + n + ":bwd", 0.0) * bwd
                   for n in PRIMITIVE_GROUPS[name])

    per_epoch = {
        "numerics.matmul_fwd_s": group("matmul", bwd=False),
        "numerics.matmul_bwd_s": group("matmul", fwd=False),
        "numerics.transpose_s": group("transpose"),
        "numerics.column_l2_normalize_s": group("column_l2_normalize"),
        "numerics.elementwise_s": group("elementwise"),
        "numerics.softmax_s": group("softmax"),
        "numerics.other_s": group("other") + self_s.get("nm.untagged:bwd", 0.0),
        "numerics.backward_s": self_s.get("nm.backward", 0.0),
        "numerics.adam_step_s": self_s.get("nm.adam_step", 0.0),
        "sparse.matmul_dense_fwd_s": group("sparse_matmul_dense", bwd=False),
        "sparse.matmul_dense_bwd_s": group("sparse_matmul_dense", fwd=False),
        "sparse.transpose_s": self_s.get("sparse.transpose", 0.0),
        "model.forward_train_s": incl_s.get("model.forward_train", 0.0),
        "model.forward_eval_s": incl_s.get("model.forward_eval", 0.0),
        "model.input_transform_s": incl_s.get("model.input_transform", 0.0),
        "model.soc_penalty_s": self_s.get("model.soc_penalty", 0.0),
        "trainer.step_s": sum(c["step"] for c in t["train_calls"]),
        "trainer.eval_s": sum(c["eval"] for c in t["train_calls"]),
        "trainer.unattributed_s": self_s.get("trainer.train", 0.0),
        "trainer.train_s": incl_s.get("trainer.train", 0.0),
    }
    out = {k: (v / epochs, "s/epoch") for k, v in per_epoch.items()}
    out["numerics.matmul_gflop"] = (
        (counts.get("matmul_fwd_flop", 0.0) + counts.get("matmul_bwd_flop", 0.0)) / epochs / 1e9,
        "GFLOP/epoch")
    per_run = {
        "graph.load_dataset_s": self_s.get("graph.load_dataset", 0.0),
        "graph.normalized_adjacency_s": self_s.get("graph.normalized_adjacency", 0.0),
        "graph.make_split_s": self_s.get("graph.make_split", 0.0),
        "clustering.sinkhorn_s": self_s.get("clustering.sinkhorn", 0.0),
        "clustering.soft_assign_s": incl_s.get("clustering.soft_assign", 0.0),
        "clustering.kl_loss_s": incl_s.get("clustering.kl_loss", 0.0),
        "clustering.pseudo_label_loss_s": incl_s.get("clustering.pseudo_label_loss", 0.0),
        "clustering.target_distribution_s": self_s.get("clustering.target_distribution", 0.0),
        "clustering.init_centroids_s": self_s.get("clustering.init_centroids", 0.0),
        "spectral.kmeans_pp_init_s": self_s.get("spectral.kmeans_pp_init", 0.0),
        "spectral.lloyd_s": self_s.get("spectral.lloyd", 0.0),
        "cli.write_artifacts_s": self_s.get("cli.write_artifacts", 0.0),
    }
    out.update({k: (v, "s/run") for k, v in per_run.items()})
    out["sparse.transpose_calls"] = (float(calls.get("sparse.transpose", 0)), "count")
    out["clustering.sinkhorn_calls"] = (float(calls.get("clustering.sinkhorn", 0)), "count")
    out["numerics.tape_nodes"] = (float(counts.get("tape_nodes", 0)), "count")
    out["numerics.tape_mb"] = (counts.get("tape_bytes", 0) / 2**20, "MiB")
    train_s = incl_s.get("trainer.train", 0.0) - self_s.get("bench.tracer", 0.0)
    out["trainer.coverage"] = (1.0 - self_s.get("trainer.train", 0.0) / train_s, "fraction")
    return out


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not Path("src/ncgc/__init__.py").is_file():
        print("error: src/ncgc not found; run from the root of a checkout", file=sys.stderr)
        return 2
    shape, argv = WORKLOADS[args.workload]
    data = dataset_dir(args.workload, shape, args.seed)
    runs = WORK / "runs" / args.workload
    shutil.rmtree(runs, ignore_errors=True)

    deadline = time.perf_counter() + args.seconds
    results = []
    while True:
        trace = bool(args.trace) and len(results) % 2 == 1
        results.append(invoke(argv, data, args.seed, runs / str(len(results)), trace))
        spent = statistics.median(r["wall"] for r in results)
        if len(results) >= MIN_INVOCATIONS and time.perf_counter() + spent > deadline:
            break
    gate(results, shape.k)
    failed = sum(bool(r["errors"]) for r in results)

    print("machine: " + json.dumps(machine_record(args.seed), sort_keys=True))
    for i, r in enumerate(results):
        status = "ok" if not r["errors"] else "FAIL " + "; ".join(r["errors"])
        print(f"invocation {i} trace={int(r['trace'])} wall={r['wall']:.3f}s {status}")
    untraced = [r for r in results if not r["trace"] and not r["errors"]]
    traced = [r for r in results if r["trace"] and not r["errors"]]
    metrics = {}
    if untraced:
        e2e = end_to_end(untraced)
        for name, value in e2e.items():
            print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
        if not args.trace:
            metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in e2e.items()}
    print(f"fail_rate = {failed / len(results):.6g} fraction")
    if args.trace and traced and untraced:
        layers = [layer_metrics(r["record"]) for r in traced]
        for name, (_, unit) in layers[0].items():
            metrics[name] = {"value": statistics.median(m[name][0] for m in layers), "unit": unit}
        overhead = statistics.median(_epoch_s(r["record"]) for r in traced) / e2e["epoch_s"]
        metrics["bench.trace_overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not metrics:
        print("error: no invocation passed the gate", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
