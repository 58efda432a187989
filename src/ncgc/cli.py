"""Command-line surface.

Subcommands: ``validate``, ``train``, ``evaluate``, ``ablate``, ``sweep``,
``spectral``. Every randomized command requires an explicit ``--seed``.
The hyperparameter flags, their types and defaults are the fields of
``trainer.HyperParams``: ``hidden_dim``, ``sinkhorn_t`` and ``warmup_epochs``
are spelled ``--hidden``, ``--sinkhorn-iters`` and ``--warmup``, every other
field is its name with dashes, except ``seed``, a run option, and
``sinkhorn``, which has no flag: it is an ablation switch, not a setting of the
method, so only ``ablate``'s ``no_skn`` variant turns it off and no config key
or ``config.resolved`` line carries it. ``sweep --axis`` takes any numeric
hyperparameter, by flag or by field name. The resolved values build one
``HyperParams``, the whole run's configuration; ``ablate`` and ``sweep`` build
one per row, with the ``trainer.VARIANTS`` overrides or the swept value. A
value ``HyperParams`` rejects is a bad flag, reported before any dataset is
read or any output is written.

Options can come from a flat ``key = value`` config file (``#`` comments);
explicit flags win over file values, and the fully resolved configuration is
echoed into the output directory as ``config.resolved`` so any run can be
reproduced from its own artifacts.

``train`` writes ``checkpoint.bin``, the ``named_values()`` of the first run's
best-validation ``ModelParams`` (centroids included once seeded); ``evaluate``
loads it into freshly built parameters and scores one ``trainer.predict``
pass, whose normalized adjacency follows ``--self-loops`` as in training.

Exit codes: 0 success, 2 input/format error, 3 runtime/numeric error,
4 bad flags (including out-of-range or non-finite hyperparameter values, an
unknown split policy, a run count below one, a negative count and a
``spectral --k`` above the node count). A command reads and checks all its
input files before it creates ``--out``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .clustering import sinkhorn_pseudo_labels, soft_assign
from .errors import IngestionError, NcgcError, ParameterError, SplitError
from .graph import (
    SPLIT_POLICIES, load_dataset, load_split, normalized_adjacency, read_text, write_split,
)
from .model import init_params, load_checkpoint, save_checkpoint
from .rng import RngState
from .spectral import clustering_accuracy, spectral_cluster
from .trainer import (
    VARIANTS, EpochRecord, HyperParams, accuracy, check_split, predict, run_seeds, seed_splits,
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


# HyperParams fields whose flag is not the field name with dashes
_FLAG_RENAMES = {"hidden_dim": "hidden", "sinkhorn_t": "sinkhorn-iters",
                 "warmup_epochs": "warmup"}
# flag -> HyperParams field, in field order; the seed is a run option and
# sinkhorn an ablation switch, so neither has a flag
_HP_FIELDS = {_FLAG_RENAMES.get(f.name, f.name.replace("_", "-")): f
              for f in fields(HyperParams) if f.name not in ("seed", "sinkhorn")}
_HP_TYPES = get_type_hints(HyperParams)
_HP_KEYS = (*_HP_FIELDS, "determinism")

# name -> (parser of a flag or config-file value, default)
OPTION_SPEC = {
    "dataset": (str, None),
    "out": (str, None),
    "seed": (int, None),
    "runs": (int, 1),
    "determinism": (_onoff, True),
    "row-normalize": (_onoff, True),
    "split-policy": (str, "planetoid_style"),
    "train-per-class": (int, 20),
    "val-per-class": (int, 30),
    "val-total": (int, 500),
    "test-total": (int, 1000),
    **{flag: (_onoff if _HP_TYPES[f.name] is bool else _HP_TYPES[f.name], f.default)
       for flag, f in _HP_FIELDS.items()},
    "axis": (str, "epsilon"),
    "values": (str, ""),
    "k": (int, 0),
    "checkpoint": (str, ""),
    "split-dir": (str, ""),
    "dump-cluster-signals": (_onoff, False),
}


def _parse_typed(key: str, raw: str):
    try:
        return OPTION_SPEC[key][0](raw)
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
    if args.config:
        for k, v in read_config_file(args.config).items():
            if k in resolved:
                resolved[k] = v
    for k in keys:
        if getattr(args, k) is not None:
            resolved[k] = getattr(args, k)
    return resolved


def hyperparams_from(resolved: dict, **overrides) -> HyperParams:
    """The run's ``HyperParams`` from resolved options, with field ``overrides``."""
    # every run is deterministic; the key stays so existing configs still load
    if resolved.get("determinism") is False:
        raise _UsageError("--determinism off is not supported: runs are always deterministic")
    values = {f.name: resolved[flag] for flag, f in _HP_FIELDS.items()}
    try:
        return HyperParams(seed=resolved["seed"], **{**values, **overrides})
    except ParameterError as e:
        raise _UsageError(str(e)) from e


def _check_run_options(resolved: dict) -> None:
    """Reject an unknown split policy, a run count below one or a negative seed
    or count as bad flags; options the command does not take are not checked."""
    if "split-policy" in resolved and resolved["split-policy"] not in SPLIT_POLICIES:
        raise _UsageError(f"unknown --split-policy {resolved['split-policy']!r}, "
                          f"expected one of {', '.join(SPLIT_POLICIES)}")
    if resolved.get("runs", 1) < 1:
        raise _UsageError(f"--runs must be at least 1, got {resolved['runs']}")
    for key in ("seed", "train-per-class", "val-per-class", "val-total", "test-total", "k"):
        if resolved.get(key, 0) < 0:
            raise _UsageError(f"--{key} must be non-negative, got {resolved[key]}")


def _require(resolved: dict, keys, cmd: str) -> None:
    missing = [k for k in keys if resolved.get(k) in (None, "")]
    if missing:
        raise _UsageError(f"{cmd} requires {', '.join('--' + k for k in missing)}")


def _load_labeled(resolved: dict, split_dir: str, purpose: str):
    """The graph, which must have labels, and the split in ``split_dir`` (None
    without split files), which must pass ``check_split``."""
    g = load_dataset(resolved["dataset"], row_normalize=resolved["row-normalize"])
    if g.labels is None:
        raise IngestionError(f"{resolved['dataset']}: no labels.tsv; {purpose} needs node labels")
    split = load_split(split_dir, g.n)
    if split is not None:
        check_split(g, split)
    return g, split


def _prepare_runs(resolved: dict):
    """Check the run options, load the dataset, build every run's split, then
    create ``--out``: so a bad input exits before anything is written. Sampled
    splits are valid by construction. Returns the graph, the splits and ``--out``."""
    _check_run_options(resolved)
    g, fixed_split = _load_labeled(resolved, resolved["dataset"], "training")
    counts = dict(per_class_train=resolved["train-per-class"],
                  per_class_val=resolved["val-per-class"],
                  val_total=resolved["val-total"], test_total=resolved["test-total"])
    splits = seed_splits(g, resolved["seed"], resolved["split-policy"], resolved["runs"],
                         fixed_split, counts)
    return g, splits, _prepare_out(resolved)


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


_EPOCH_COLUMNS = tuple(f.name for f in fields(EpochRecord))


def _write_epochs_csv(path: Path, reports) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["run", *_EPOCH_COLUMNS])
        for run, report in enumerate(reports):
            for r in report.epochs:
                writer.writerow([run, *(repr(getattr(r, c)) for c in _EPOCH_COLUMNS)])


def _prepare_out(resolved: dict) -> Path:
    out = Path(resolved["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IngestionError(f"{out}: cannot create output directory ({e.strerror})") from e
    write_resolved_config(resolved, out / "config.resolved")
    return out


def _echo_config(resolved: dict) -> None:
    """For commands without an output directory: echo resolution to stderr."""
    for k, v in resolved.items():
        if v is not None and v != "":
            print(f"config: {k} = {_format_value(v)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(resolved: dict) -> int:
    _echo_config(resolved)
    g = load_dataset(resolved["dataset"], row_normalize=False)
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


def cmd_train(resolved: dict) -> int:
    hp = hyperparams_from(resolved)
    g, splits, out = _prepare_runs(resolved)
    stats = run_seeds(g, hp, splits)
    _json_dump({
        "acc_mean": stats.mean,
        "acc_std": stats.std,
        "runs": resolved["runs"],
        "per_run": [r.to_json_dict() for r in stats.reports],
    }, out / "report.json")
    _write_epochs_csv(out / "epochs.csv", stats.reports)
    params, split0 = stats.artifacts[0]
    save_checkpoint(out / "checkpoint.bin", params.named_values())
    write_split(split0, out)
    if resolved["dump-cluster-signals"]:
        _dump_cluster_signals(g, hp, params, out)
    wall = sum(r.wall_time for r in stats.reports)
    print(f"dataset={g.name} acc_mean={stats.mean:.4f} acc_std={stats.std:.4f} "
          f"runs={resolved['runs']}")
    print(f"wall_time_s={wall:.1f}", file=sys.stderr)
    return EXIT_OK


def _eval_forward(g, params, hp: HyperParams):
    """``trainer.predict`` over the whole graph, as built for training from ``hp``."""
    a_tilde = normalized_adjacency(g, add_self_loops=hp.self_loops)
    return predict(g.features, a_tilde, params, hp)


def _dump_cluster_signals(g, hp: HyperParams, params, out: Path) -> None:
    h, y = _eval_forward(g, params, hp)
    if params.centroids is not None:
        q = soft_assign(h, params.centroids).value
        np.savetxt(out / "q.tsv", q, delimiter="\t")
    psi = sinkhorn_pseudo_labels(y, hp.epsilon, hp.sinkhorn_t)
    np.savetxt(out / "psi.tsv", psi, delimiter="\t")


def cmd_evaluate(resolved: dict) -> int:
    _echo_config(resolved)
    if resolved["seed"] is None:
        resolved["seed"] = 0
    _check_run_options(resolved)
    hp = hyperparams_from(resolved)
    split_dir = resolved["split-dir"] or str(Path(resolved["checkpoint"]).parent)
    g, split = _load_labeled(resolved, split_dir, "evaluation")
    if split is None:
        raise IngestionError(f"{split_dir}: no split files found for evaluation")
    params = init_params(hp, g.feature_dim, g.class_count, RngState(hp.seed).derive("init"))
    params.load_values(load_checkpoint(resolved["checkpoint"]))
    _, y = _eval_forward(g, params, hp)
    accs = {name: accuracy(y, g.labels, idx)
            for name, idx in (("train", split.train_idx), ("val", split.val_idx),
                              ("test", split.test_idx))}
    print(f"dataset={g.name} train_acc={accs['train']:.4f} "
          f"val_acc={accs['val']:.4f} test_acc={accs['test']:.4f}")
    return EXIT_OK


def _run_table(resolved: dict, name: str, column: str, entries) -> tuple[Path, list]:
    """Train each ``(label, hp)`` entry on the command's splits, print its
    ``column=label`` line and write ``<name>.csv``. Returns ``--out`` and the
    ``(label, acc_mean, acc_std)`` rows."""
    g, splits, out = _prepare_runs(resolved)
    rows = []
    for label, hp in entries:
        stats = run_seeds(g, hp, splits)
        rows.append((label, stats.mean, stats.std))
        print(f"{column}={label} acc_mean={stats.mean:.4f} acc_std={stats.std:.4f} "
              f"runs={resolved['runs']}")
    with (out / f"{name}.csv").open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow([column, "acc_mean", "acc_std"])
        for label, mean, std in rows:
            writer.writerow([label, repr(mean), repr(std)])
    return out, rows


def cmd_ablate(resolved: dict) -> int:
    entries = [(variant, hyperparams_from(resolved, **overrides))
               for variant, overrides in VARIANTS.items()]
    out, rows = _run_table(resolved, "ablate", "variant", entries)
    _json_dump({"runs": resolved["runs"], "variants": {
        variant: {"acc_mean": m, "acc_std": s} for variant, m, s in rows}},
        out / "report.json")
    return EXIT_OK


def cmd_sweep(resolved: dict) -> int:
    numeric = {f.name: OPTION_SPEC[flag][0] for flag, f in _HP_FIELDS.items()
               if OPTION_SPEC[flag][0] in (int, float)}
    flag = resolved["axis"].replace("_", "-")
    axis = _HP_FIELDS[flag].name if flag in _HP_FIELDS else resolved["axis"].replace("-", "_")
    if axis not in numeric:
        raise _UsageError(f"sweep axis must be a numeric hyperparameter, one of {sorted(numeric)}")
    cast = numeric[axis]
    try:
        values = [cast(v) for v in resolved["values"].split(",") if v.strip()]
    except ValueError as e:
        raise _UsageError(f"bad --values list: {e}") from e
    if not values:
        raise _UsageError("empty --values list")
    entries = [(v, hyperparams_from(resolved, **{axis: v})) for v in values]
    out, rows = _run_table(resolved, "sweep", axis, entries)
    _json_dump({"axis": axis, "rows": [
        {"value": v, "acc_mean": m, "acc_std": s} for v, m, s in rows]},
        out / "report.json")
    return EXIT_OK


def cmd_spectral(resolved: dict) -> int:
    _check_run_options(resolved)
    g = load_dataset(resolved["dataset"], row_normalize=False)
    k = resolved["k"] or g.class_count
    if k > g.n:
        raise _UsageError(f"--k must be at most the node count {g.n}, got {k}")
    out = _prepare_out(resolved)
    a_tilde = normalized_adjacency(g, add_self_loops=resolved["self-loops"])
    indicator, basis = spectral_cluster(a_tilde, k, RngState(resolved["seed"]))
    with (out / "assignments.tsv").open("w", encoding="utf-8") as f:
        for i, c in enumerate(indicator.assignments):
            f.write(f"{i}\t{c}\n")
    msg = (f"dataset={g.name} k={k} converged={str(basis.converged).lower()} "
           f"iterations={basis.iterations_used}")
    if g.labeled_nodes().size:
        acc = clustering_accuracy(indicator.assignments, g.labels, k)
        msg += f" clustering_acc={acc:.4f}"
    print(msg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


_RUN_OPTIONS = ("dataset", "out", "seed", "runs", "row-normalize", "split-policy",
                "train-per-class", "val-per-class", "val-total", "test-total")

# name -> (function, options in config.resolved order, required options)
COMMANDS = {
    "validate": (cmd_validate, ("dataset",), ("dataset",)),
    "train": (cmd_train, _RUN_OPTIONS + ("dump-cluster-signals",) + _HP_KEYS,
              ("dataset", "out", "seed")),
    "evaluate": (cmd_evaluate,
                 ("dataset", "checkpoint", "split-dir", "row-normalize") + _HP_KEYS + ("seed",),
                 ("dataset", "checkpoint")),
    "ablate": (cmd_ablate, _RUN_OPTIONS + _HP_KEYS, ("dataset", "out", "seed")),
    "sweep": (cmd_sweep, _RUN_OPTIONS + _HP_KEYS + ("axis", "values"),
              ("dataset", "out", "seed", "values")),
    "spectral": (cmd_spectral, ("dataset", "out", "seed", "k", "self-loops"),
                 ("dataset", "out", "seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ncgc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, _) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config")
        for key in keys:
            p.add_argument(f"--{key}", type=OPTION_SPEC[key][0], dest=key)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        fn, keys, required = COMMANDS[args.command]
        resolved = resolve_options(args, keys)
        _require(resolved, required, args.command)
        return fn(resolved)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestionError, SplitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except NcgcError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
