"""Command-line surface.

Subcommands: ``validate``, ``train``, ``evaluate``, ``ablate``, ``sweep``,
``spectral``. Every randomized command requires an explicit ``--seed``.
The hyperparameter flags, their types and defaults are the fields of
``trainer.HyperParams``. Every setting has one name: its flag, config key
and ``config.resolved`` line are its field's name with dashes, and the
``sweep`` header and every rejection are the field's name; ``seed`` is a run
option. ``--sinkhorn-iters 0`` is ``ablate``'s ``no_skn`` variant, Sinkhorn with
no balancing. ``sweep --axis`` takes any numeric hyperparameter, with dashes or
underscores. The resolved values build one ``HyperParams``, the whole run's
configuration; ``ablate`` and ``sweep`` build one per row, with the
``trainer.VARIANTS`` overrides or the swept value. A value ``HyperParams``
rejects is a bad flag, reported before any dataset is read or any output is
written.

Options can come from a flat ``key = value`` config file (``#`` comments);
explicit flags win over file values, and the fully resolved configuration is
echoed into the output directory as ``config.resolved`` so any run can be
reproduced from its own artifacts.

``train`` writes ``checkpoint.bin``, the ``named_values()`` of the first run's
best-validation ``ModelParams`` (centroids included once seeded). ``evaluate``
scores it under the ``config.resolved`` and split files beside it, so it takes
only ``--checkpoint`` and ``--dataset`` (default: the run's): one
``trainer.predict`` pass of freshly built parameters loaded from it. That
``config.resolved`` must hold every hyperparameter key and ``row-normalize``,
as ``train`` writes them.

Self-loops (GCN's renormalisation), the input transform (one affine map up to
3 layers, two beyond) and the 500/1000 validation/test sizes of
``planetoid_style`` are constants, not options.

Exit codes: 0 success, 2 input/format error (including a config file key
this version does not know, and a run ``config.resolved`` that lacks a key
``evaluate`` reads), 3 runtime/numeric error,
4 bad flags (including a flag the command does not take, such as
``evaluate --seed``, a config value that does not parse, out-of-range or
non-finite hyperparameter values, a ``--patience`` below one, an unknown split
policy, a run count below one, a negative ``--seed`` or count, a text value
with ``#``, a line break or edge whitespace in a command that writes
``config.resolved``, which could not read it back, and a ``spectral --k``
above the node count; ``--k 0``, the default, takes the dataset's class
count). A command reads and checks all its input files before it creates
``--out``.
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

from .errors import IngestionError, NcgcError, ParameterError, SplitError
from .graph import (
    SPLIT_POLICIES, load_dataset, load_split, normalized_adjacency, read_text, write_split,
)
from .model import init_params, load_checkpoint, save_checkpoint
from .rng import RngState
from .spectral import clustering_accuracy, spectral_cluster
from .trainer import (
    VARIANTS, EpochRecord, HyperParams, accuracy, predict, run_seeds, seed_splits,
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
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on/off, got {value!r}")
    return value == "on"


# flag -> HyperParams field, in field order; the seed is a run option
_HP_FIELDS = {f.name.replace("_", "-"): f for f in fields(HyperParams) if f.name != "seed"}
_HP_TYPES = get_type_hints(HyperParams)
_HP_KEYS = tuple(_HP_FIELDS)

# name -> (parser of a flag or config-file value, default)
OPTION_SPEC = {
    "dataset": (str, None),
    "out": (str, None),
    "seed": (int, None),
    "runs": (int, 1),
    "row-normalize": (_onoff, True),
    "split-policy": (str, "planetoid_style"),
    "train-per-class": (int, 20),
    "val-per-class": (int, 30),
    **{flag: (_HP_TYPES[f.name], f.default) for flag, f in _HP_FIELDS.items()},
    "axis": (str, "epsilon"),
    "values": (str, ""),
    "k": (int, 0),
    "checkpoint": (str, ""),
}


def read_config_file(path) -> dict:
    """Flat ``key = value`` lines; blank lines and # comments ignored. Errors
    name ``path:line``; a value that does not parse is a bad flag."""
    out = {}
    path = Path(path)
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if "\0" in line:
            raise IngestionError(f"{path}:{lineno}: NUL byte")
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise IngestionError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in OPTION_SPEC:
            raise IngestionError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = OPTION_SPEC[key][0](raw)
        except (ValueError, argparse.ArgumentTypeError) as e:
            raise _UsageError(f"{path}:{lineno}: bad value for {key!r}: {raw!r} ({e})") from e
    return out


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "on" if v else "off"
    return repr(v) if isinstance(v, float) else str(v)


def write_resolved_config(resolved: dict, path: Path) -> None:
    lines = [f"{k} = {_format_value(v)}\n"
             for k, v in resolved.items() if v is not None and v != ""]
    path.write_text("".join(lines), encoding="utf-8")


def resolve_options(args: argparse.Namespace, keys) -> dict:
    """Defaults, then config-file values, then explicit flags."""
    resolved = {k: OPTION_SPEC[k][1] for k in keys}
    if getattr(args, "config", None):
        for k, v in read_config_file(args.config).items():
            if k in resolved:
                resolved[k] = v
    for k in keys:
        if getattr(args, k) is not None:
            resolved[k] = getattr(args, k)
    return resolved


def hyperparams_from(resolved: dict, **overrides) -> HyperParams:
    """The run's ``HyperParams`` from resolved options, with field ``overrides``;
    a field the command takes no option for keeps its default."""
    values = {f.name: resolved[flag] for flag, f in _HP_FIELDS.items() if flag in resolved}
    if "seed" in resolved:
        values["seed"] = resolved["seed"]
    try:
        return HyperParams(**{**values, **overrides})
    except ParameterError as e:
        raise _UsageError(str(e)) from e


def _check_run_options(resolved: dict) -> None:
    """Reject, as bad flags, an unknown split policy, a run count below one, a
    negative seed or count and a text value ``config.resolved`` cannot hold;
    options the command does not take are not checked."""
    if "out" in resolved:  # the command writes config.resolved, which must read back as is
        for key, v in resolved.items():
            if isinstance(v, str) and ("#" in v or v != v.strip() or len(v.splitlines()) > 1):
                raise _UsageError(f"--{key} {v!r} cannot be written to config.resolved: "
                                  "it holds '#', a line break or edge whitespace")
    if "split-policy" in resolved and resolved["split-policy"] not in SPLIT_POLICIES:
        raise _UsageError(f"unknown --split-policy {resolved['split-policy']!r}, "
                          f"expected one of {', '.join(SPLIT_POLICIES)}")
    if resolved.get("runs", 1) < 1:
        raise _UsageError(f"--runs must be at least 1, got {resolved['runs']}")
    for key in ("seed", "train-per-class", "val-per-class", "k"):
        if key in resolved and resolved[key] < 0:
            raise _UsageError(f"--{key} must be non-negative, got {resolved[key]}")


def _require(resolved: dict, keys, cmd: str) -> None:
    missing = [k for k in keys if resolved.get(k) in (None, "")]
    if missing:
        raise _UsageError(f"{cmd} requires {', '.join('--' + k for k in missing)}")


def _load_labeled(resolved: dict, split_dir: str, purpose: str):
    """The graph, which must label at least one node (with no ``labels.tsv``, an
    empty one or ``k = 0`` it labels none), and the split in ``split_dir`` (None
    without split files), which must pass ``Split.check``."""
    g = load_dataset(resolved["dataset"], row_normalize=resolved["row-normalize"])
    if not g.labeled_nodes().size:
        raise IngestionError(f"{resolved['dataset']}: no labeled node; {purpose} needs node labels")
    split = load_split(split_dir, g.n)
    if split is not None:
        split.check(g)
    return g, split


def _prepare_runs(resolved: dict):
    """Load the dataset, build every run's split, then create ``--out``: so a bad
    input exits before anything is written. Sampled splits are valid by
    construction. Returns the graph, the splits and ``--out``."""
    g, fixed_split = _load_labeled(resolved, resolved["dataset"], "training")
    splits = seed_splits(g, resolved["seed"], resolved["split-policy"], resolved["runs"],
                         fixed_split, train_per_class=resolved["train-per-class"],
                         val_per_class=resolved["val-per-class"])
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
    labeled = g.labels[g.labels >= 0]
    if labeled.size:
        hist = np.bincount(labeled, minlength=g.class_count)
        print("labels: " + " ".join(f"{c}:{hist[c]}" for c in range(g.class_count)))
        print(f"unlabeled: {g.n - labeled.size}")
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
    save_checkpoint(out / "checkpoint.bin", stats.params.named_values())
    write_split(splits[0], out)
    wall = sum(r.wall_time for r in stats.reports)
    print(f"dataset={g.name} acc_mean={stats.mean:.4f} acc_std={stats.std:.4f} "
          f"runs={resolved['runs']}")
    print(f"wall_time_s={wall:.1f}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(resolved: dict) -> int:
    run_dir = Path(resolved["checkpoint"]).parent
    config = run_dir / "config.resolved"
    run = read_config_file(config)
    missing = [k for k in (*_HP_KEYS, "row-normalize") if k not in run]
    if missing:
        raise IngestionError(f"{config}: missing {', '.join(map(repr, missing))}")
    # the run's own settings, with its dataset unless --dataset names another
    run.update({k: v for k, v in resolved.items() if v is not None})
    _require(run, ("dataset",), "evaluate")
    _echo_config({k: run[k] for k in resolved})
    hp = hyperparams_from(run)
    g, split = _load_labeled(run, run_dir, "evaluation")
    if split is None:
        raise IngestionError(f"{run_dir}: no split files found for evaluation")
    # the checkpoint overwrites every value init_params draws
    params = init_params(hp, g.feature_dim, g.class_count, RngState(0))
    params.load_values(load_checkpoint(resolved["checkpoint"]))
    _, y = predict(g.features, normalized_adjacency(g), params, hp)
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
    axis = resolved["axis"].replace("-", "_")
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
    g = load_dataset(resolved["dataset"], row_normalize=False)
    k = resolved["k"] or g.class_count
    if k < 1:
        raise _UsageError(f"{g.name} has no classes (k = 0 in meta.json); pass --k")
    if k > g.n:
        raise _UsageError(f"--k must be at most the node count {g.n}, got {k}")
    out = _prepare_out(resolved)
    assignments = spectral_cluster(normalized_adjacency(g), g.features, k,
                                   RngState(resolved["seed"]))
    with (out / "assignments.tsv").open("w", encoding="utf-8") as f:
        for i, c in enumerate(assignments):
            f.write(f"{i}\t{c}\n")
    msg = f"dataset={g.name} k={k}"
    if g.labeled_nodes().size:
        acc = clustering_accuracy(assignments, g.labels, k)
        msg += f" clustering_acc={acc:.4f}"
    print(msg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


_RUN_OPTIONS = ("dataset", "out", "seed", "runs", "row-normalize", "split-policy",
                "train-per-class", "val-per-class")

# name -> (function, options in config.resolved order, required options)
COMMANDS = {
    "validate": (cmd_validate, ("dataset",), ("dataset",)),
    "train": (cmd_train, _RUN_OPTIONS + _HP_KEYS, ("dataset", "out", "seed")),
    "evaluate": (cmd_evaluate, ("dataset", "checkpoint"), ("checkpoint",)),
    "ablate": (cmd_ablate, _RUN_OPTIONS + _HP_KEYS, ("dataset", "out", "seed")),
    "sweep": (cmd_sweep, _RUN_OPTIONS + _HP_KEYS + ("axis", "values"),
              ("dataset", "out", "seed", "values")),
    "spectral": (cmd_spectral, ("dataset", "out", "seed", "k"), ("dataset", "out", "seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ncgc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, _) in COMMANDS.items():
        p = sub.add_parser(name)
        if name != "evaluate":  # evaluate reads the config.resolved beside its checkpoint
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
        _check_run_options(resolved)
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
