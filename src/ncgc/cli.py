"""Command-line surface.

Subcommands: ``validate``, ``train``, ``evaluate``, ``ablate``, ``sweep``,
``spectral``. Every randomized command requires an explicit ``--seed``.
Options can come from a flat ``key = value`` config file (``#`` comments);
explicit flags win over file values, and the fully resolved configuration is
echoed into the output directory as ``config.resolved`` so any run can be
reproduced bit-for-bit from its own artifacts.

Exit codes: 0 success, 2 input/format error, 3 runtime/numeric error,
4 bad flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import numerics as nm
from .clustering import sinkhorn_pseudo_labels, soft_assign
from .errors import (
    ContractError, IngestionError, NcgcError, NumericError, ParameterError,
    RankError, ShapeError, SplitError,
)
from .graph import load_dataset, load_split, normalized_adjacency, read_text, write_split
from .model import feature_operator, forward, init_params, load_checkpoint, save_checkpoint
from .rng import RngState
from .spectral import clustering_accuracy, spectral_cluster
from .trainer import (
    VARIANTS, HyperParams, apply_variant, evaluate as eval_accuracy, run_seeds,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RUNTIME = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _onoff(value: str) -> bool:
    if value in ("on", "true", "1"):
        return True
    if value in ("off", "false", "0"):
        return False
    raise argparse.ArgumentTypeError(f"expected on/off, got {value!r}")


# name -> (type tag, default); order defines config.resolved layout
OPTION_SPEC = {
    "dataset": ("str", None),
    "out": ("str", None),
    "seed": ("int", None),
    "runs": ("int", 1),
    "determinism": ("bool", True),
    "row-normalize": ("bool", True),
    "split-policy": ("str", "planetoid_style"),
    "train-per-class": ("int", 20),
    "val-per-class": ("int", 30),
    "val-total": ("int", 500),
    "test-total": ("int", 1000),
    "backbone": ("str", "gcn"),
    "layers": ("int", 2),
    "hidden": ("int", 64),
    "beta": ("float", 0.005),
    "epsilon": ("float", 0.04),
    "sinkhorn-iters": ("int", 3),
    "lr": ("float", 0.001),
    "weight-decay": ("float", 5e-4),
    "dropout": ("float", 0.5),
    "epochs": ("int", 1000),
    "patience": ("int", 100),
    "warmup": ("int", 20),
    "lambda-kl": ("float", 1.0),
    "lambda-pl": ("float", 1.0),
    "kl-scope": ("str", "all"),
    "self-loops": ("bool", True),
    "appnp-alpha": ("float", 0.1),
    "appnp-hops": ("int", 10),
    "input-transform": ("str", "auto"),
    "axis": ("str", "epsilon"),
    "values": ("str", ""),
    "k": ("int", 0),
    "checkpoint": ("str", ""),
    "split-dir": ("str", ""),
    "dump-cluster-signals": ("bool", False),
}

_HP_KEYS = (
    "backbone", "layers", "hidden", "beta", "epsilon", "sinkhorn-iters", "lr",
    "weight-decay", "dropout", "epochs", "patience", "warmup", "lambda-kl",
    "lambda-pl", "kl-scope", "self-loops", "appnp-alpha", "appnp-hops",
    "input-transform", "determinism",
)


def _parse_typed(key: str, raw: str):
    kind = OPTION_SPEC[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return _onoff(raw)
        return raw
    except (ValueError, argparse.ArgumentTypeError) as e:
        raise _UsageError(f"bad value for {key!r}: {raw!r} ({e})") from e


def read_config_file(path) -> dict:
    """Flat ``key = value`` lines; blank lines and # comments ignored."""
    out = {}
    path = Path(path)
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise IngestionError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in OPTION_SPEC:
            raise IngestionError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _parse_typed(key, raw)
    return out


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "on" if v else "off"
    if v is None:
        return ""
    return repr(v) if isinstance(v, float) else str(v)


def write_resolved_config(resolved: dict, path: Path) -> None:
    lines = [f"{k} = {_format_value(v)}\n"
             for k, v in resolved.items() if v is not None and v != ""]
    path.write_text("".join(lines), encoding="utf-8")


def resolve_options(args: argparse.Namespace, keys) -> dict:
    """Defaults, then config-file values, then explicit flags."""
    resolved = {k: OPTION_SPEC[k][1] for k in keys}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        file_values = read_config_file(cfg_path)
        for k, v in file_values.items():
            if k in resolved:
                resolved[k] = v
    for k in keys:
        flag_value = getattr(args, k.replace("-", "_"), None)
        if flag_value is not None:
            resolved[k] = flag_value
    return resolved


def hyperparams_from(resolved: dict) -> HyperParams:
    # every run is deterministic; the key stays so existing configs still load
    if resolved.get("determinism") is False:
        raise _UsageError("--determinism off is not supported: runs are always deterministic")
    it = resolved.get("input-transform", "auto")
    return HyperParams(
        seed=resolved["seed"],
        backbone=resolved["backbone"],
        layers=resolved["layers"],
        hidden_dim=resolved["hidden"],
        beta=resolved["beta"],
        epsilon=resolved["epsilon"],
        sinkhorn_t=resolved["sinkhorn-iters"],
        lr=resolved["lr"],
        weight_decay=resolved["weight-decay"],
        dropout=resolved["dropout"],
        epochs=resolved["epochs"],
        patience=resolved["patience"],
        warmup_epochs=resolved["warmup"],
        lambda_kl=resolved["lambda-kl"],
        lambda_pl=resolved["lambda-pl"],
        kl_scope=resolved["kl-scope"],
        self_loops=resolved["self-loops"],
        appnp_alpha=resolved["appnp-alpha"],
        appnp_hops=resolved["appnp-hops"],
        input_transform=None if it in ("auto", "") else it,
    )


def _require(resolved: dict, keys, cmd: str) -> None:
    missing = [k for k in keys if resolved.get(k) in (None, "")]
    if missing:
        raise _UsageError(f"{cmd} requires {', '.join('--' + k for k in missing)}")


def _split_counts(resolved: dict) -> dict:
    return dict(
        per_class_train=resolved["train-per-class"],
        per_class_val=resolved["val-per-class"],
        val_total=resolved["val-total"],
        test_total=resolved["test-total"],
    )


def _load_graph_and_split(resolved: dict):
    g = load_dataset(resolved["dataset"], row_normalize=resolved["row-normalize"])
    fixed = load_split(resolved["dataset"], g.n)
    return g, fixed


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_epochs_csv(path: Path, reports) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["run", "epoch", "l_class", "l_kl", "l_pl", "total",
                         "val_acc", "test_acc", "soc"])
        for run, report in enumerate(reports):
            for r in report.epochs:
                writer.writerow([run, r.epoch, repr(r.l_class), repr(r.l_kl),
                                 repr(r.l_pl), repr(r.total), repr(r.val_acc),
                                 repr(r.test_acc), repr(r.soc)])


def _prepare_out(resolved: dict, keys) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config({k: resolved[k] for k in keys}, out / "config.resolved")
    return out


def _echo_config(resolved: dict, keys) -> None:
    """For commands without an output directory: echo resolution to stderr."""
    for k in keys:
        v = resolved.get(k)
        if v is not None and v != "":
            print(f"config: {k} = {_format_value(v)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    keys = ("dataset", "row-normalize")
    resolved = resolve_options(args, keys)
    _require(resolved, ("dataset",), "validate")
    _echo_config(resolved, keys)
    g = load_dataset(resolved["dataset"], row_normalize=resolved["row-normalize"])
    print(f"n={g.n} m={g.m} d={g.feature_dim} k={g.class_count} name={g.name}")
    if g.labels is not None:
        hist = np.bincount(g.labels[g.labels >= 0], minlength=g.class_count)
        print("labels: " + " ".join(f"{c}:{hist[c]}" for c in range(g.class_count)))
        print(f"unlabeled: {int((g.labels < 0).sum())}")
    else:
        print("labels: none")
    split = load_split(resolved["dataset"], g.n)
    if split is not None:
        print(f"split: train={len(split.train_idx)} val={len(split.val_idx)} "
              f"test={len(split.test_idx)}")
    return EXIT_OK


_TRAIN_KEYS = ("dataset", "out", "seed", "runs", "row-normalize", "split-policy",
               "train-per-class", "val-per-class", "val-total", "test-total",
               "dump-cluster-signals") + _HP_KEYS


def _run_training(resolved: dict, pseudo_label_mode: str = "sinkhorn"):
    g, fixed_split = _load_graph_and_split(resolved)
    hp = hyperparams_from(resolved)
    return g, run_seeds(
        g, hp, resolved["split-policy"], resolved["runs"], split=fixed_split,
        split_counts=_split_counts(resolved), pseudo_label_mode=pseudo_label_mode,
    )


def cmd_train(args) -> int:
    resolved = resolve_options(args, _TRAIN_KEYS)
    _require(resolved, ("dataset", "out", "seed"), "train")
    out = _prepare_out(resolved, _TRAIN_KEYS)
    g, stats = _run_training(resolved)
    _json_dump({
        "acc_mean": stats.mean,
        "acc_std": stats.std,
        "runs": resolved["runs"],
        "per_run": [r.to_json_dict() for r in stats.reports],
    }, out / "report.json")
    _write_epochs_csv(out / "epochs.csv", stats.reports)
    params, cluster_state, split0 = stats.artifacts[0]
    named = params.named_values()
    if cluster_state is not None:
        named["centroids"] = cluster_state.centroids.value.copy()
    save_checkpoint(out / "checkpoint.bin", named)
    write_split(split0, out)
    if resolved["dump-cluster-signals"]:
        _dump_cluster_signals(g, resolved, params, cluster_state, out)
    wall = sum(r.wall_time for r in stats.reports)
    print(f"dataset={g.name} acc_mean={stats.mean:.4f} acc_std={stats.std:.4f} "
          f"runs={resolved['runs']}")
    print(f"wall_time_s={wall:.1f}", file=sys.stderr)
    return EXIT_OK


def _dump_cluster_signals(g, resolved, params, cluster_state, out: Path) -> None:
    hp = hyperparams_from(resolved)
    a_tilde = normalized_adjacency(g, add_self_loops=hp.self_loops)
    h, logits = forward(feature_operator(g.features), a_tilde, params, hp.model_config(),
                        RngState(0), training=False)
    if cluster_state is not None:
        q = soft_assign(h, cluster_state).value
        np.savetxt(out / "q.tsv", q, delimiter="\t")
    y = nm.softmax_rows(logits.value).value
    psi = sinkhorn_pseudo_labels(y, hp.epsilon, hp.sinkhorn_t).psi
    np.savetxt(out / "psi.tsv", psi, delimiter="\t")


def cmd_evaluate(args) -> int:
    keys = ("dataset", "checkpoint", "split-dir", "row-normalize") + _HP_KEYS + ("seed",)
    resolved = resolve_options(args, keys)
    _require(resolved, ("dataset", "checkpoint"), "evaluate")
    _echo_config(resolved, keys)
    g = load_dataset(resolved["dataset"], row_normalize=resolved["row-normalize"])
    split_dir = resolved["split-dir"] or str(Path(resolved["checkpoint"]).parent)
    split = load_split(split_dir, g.n)
    if split is None:
        raise IngestionError(f"{split_dir}: no split files found for evaluation")
    if resolved["seed"] is None:
        resolved["seed"] = 0
    hp = hyperparams_from(resolved)
    params = init_params(hp.model_config(), g.feature_dim, g.class_count,
                         RngState(hp.seed).derive("init"))
    named = load_checkpoint(resolved["checkpoint"])
    named.pop("centroids", None)
    params.load_values(named)
    a_tilde = normalized_adjacency(g, add_self_loops=hp.self_loops)
    accs = {name: eval_accuracy(params, g, a_tilde, idx, hp.model_config())
            for name, idx in (("train", split.train_idx), ("val", split.val_idx),
                              ("test", split.test_idx))}
    print(f"dataset={g.name} train_acc={accs['train']:.4f} "
          f"val_acc={accs['val']:.4f} test_acc={accs['test']:.4f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    resolved = resolve_options(args, _TRAIN_KEYS)
    _require(resolved, ("dataset", "out", "seed"), "ablate")
    out = _prepare_out(resolved, _TRAIN_KEYS)
    g, fixed_split = _load_graph_and_split(resolved)
    base_hp = hyperparams_from(resolved)
    table = {}
    for variant in VARIANTS:
        hp_v, mode = apply_variant(base_hp, variant)
        stats = run_seeds(g, hp_v, resolved["split-policy"], resolved["runs"],
                          split=fixed_split, split_counts=_split_counts(resolved),
                          pseudo_label_mode=mode)
        table[variant] = {"acc_mean": stats.mean, "acc_std": stats.std}
        print(f"variant={variant} acc_mean={stats.mean:.4f} acc_std={stats.std:.4f} "
              f"runs={resolved['runs']}")
    _json_dump({"runs": resolved["runs"], "variants": table}, out / "report.json")
    with (out / "ablate.csv").open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["variant", "acc_mean", "acc_std"])
        for variant in VARIANTS:
            writer.writerow([variant, repr(table[variant]["acc_mean"]),
                             repr(table[variant]["acc_std"])])
    return EXIT_OK


_SWEEP_AXES = {"beta": float, "epsilon": float, "sinkhorn_t": int}


def cmd_sweep(args) -> int:
    keys = _TRAIN_KEYS + ("axis", "values")
    resolved = resolve_options(args, keys)
    _require(resolved, ("dataset", "out", "seed", "values"), "sweep")
    axis = resolved["axis"].replace("-", "_")
    if axis == "sinkhorn_iters":
        axis = "sinkhorn_t"
    if axis not in _SWEEP_AXES:
        raise _UsageError(f"sweep axis must be one of {sorted(_SWEEP_AXES)}")
    cast = _SWEEP_AXES[axis]
    try:
        values = [cast(v) for v in resolved["values"].split(",") if v.strip()]
    except ValueError as e:
        raise _UsageError(f"bad --values list: {e}") from e
    if not values:
        raise _UsageError("empty --values list")
    out = _prepare_out(resolved, keys)
    g, fixed_split = _load_graph_and_split(resolved)
    base_hp = hyperparams_from(resolved)
    rows = []
    for v in values:
        hp = HyperParams(**{**vars(base_hp), axis: v})
        stats = run_seeds(g, hp, resolved["split-policy"], resolved["runs"],
                          split=fixed_split, split_counts=_split_counts(resolved))
        rows.append((v, stats.mean, stats.std))
        print(f"{axis}={v} acc_mean={stats.mean:.4f} acc_std={stats.std:.4f} "
              f"runs={resolved['runs']}")
    with (out / "sweep.csv").open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow([axis, "acc_mean", "acc_std"])
        for v, mean, std in rows:
            writer.writerow([v, repr(mean), repr(std)])
    _json_dump({"axis": axis, "rows": [
        {"value": v, "acc_mean": m, "acc_std": s} for v, m, s in rows]},
        out / "report.json")
    return EXIT_OK


def cmd_spectral(args) -> int:
    keys = ("dataset", "out", "seed", "k", "row-normalize", "self-loops")
    resolved = resolve_options(args, keys)
    _require(resolved, ("dataset", "out", "seed"), "spectral")
    out = _prepare_out(resolved, keys)
    g = load_dataset(resolved["dataset"], row_normalize=resolved["row-normalize"])
    k = resolved["k"] or g.class_count
    a_tilde = normalized_adjacency(g, add_self_loops=resolved["self-loops"])
    indicator, basis = spectral_cluster(a_tilde, k, RngState(resolved["seed"]))
    with (out / "assignments.tsv").open("w", encoding="utf-8") as f:
        for i, c in enumerate(indicator.assignments):
            f.write(f"{i}\t{c}\n")
    msg = (f"dataset={g.name} k={k} converged={str(basis.converged).lower()} "
           f"iterations={basis.iterations_used}")
    if g.labels is not None:
        acc = clustering_accuracy(indicator.assignments, g.labels, k)
        msg += f" clustering_acc={acc:.4f}"
    print(msg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _add_option(parser, key):
    kind = OPTION_SPEC[key][0]
    typ = {"int": int, "float": float, "bool": _onoff, "str": str}[kind]
    parser.add_argument(f"--{key}", type=typ, default=None, dest=key.replace("-", "_"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ncgc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "validate": (cmd_validate, ("dataset", "row-normalize")),
        "train": (cmd_train, _TRAIN_KEYS),
        "evaluate": (cmd_evaluate,
                     ("dataset", "checkpoint", "split-dir", "row-normalize", "seed")
                     + _HP_KEYS),
        "ablate": (cmd_ablate, _TRAIN_KEYS),
        "sweep": (cmd_sweep, _TRAIN_KEYS + ("axis", "values")),
        "spectral": (cmd_spectral, ("dataset", "out", "seed", "k", "row-normalize",
                                    "self-loops")),
    }
    for name, (fn, keys) in specs.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        for key in dict.fromkeys(keys):
            _add_option(p, key)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestionError, SplitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericError, ContractError, ShapeError, RankError, ParameterError,
            NcgcError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
