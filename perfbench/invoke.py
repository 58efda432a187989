"""Run one ``ncgc`` CLI invocation and record how long its parts took.

Usage (from the root of a checkout):

    python3 perfbench/invoke.py --record FILE [--trace] -- <ncgc arguments>

Imports the package from ``src/`` of the current directory, calls
``ncgc.cli.main`` with the given arguments and writes a JSON record: the exit
code, the wall time of ``main``, the time before the first training epoch,
the wall time, epoch count and per-epoch wall times of every
``trainer.train`` call, and the peak resident memory of this process. With ``--trace`` the per-layer tracer is
installed first and its totals are added to the record.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--record", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    if not Path("src/ncgc/__init__.py").is_file():
        print("error: src/ncgc not found; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    from ncgc import cli, trainer

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    train_calls = []
    epoch_ends = []
    inner_train = trainer.train
    inner_record = trainer.EpochRecord

    @functools.wraps(inner_train)
    def timed_train(*a, **kw):
        t0 = time.perf_counter()
        epoch_ends.clear()
        out = inner_train(*a, **kw)
        report = out[2]
        ends = [t0, *epoch_ends]
        train_calls.append({
            "start": t0, "wall": time.perf_counter() - t0, "epochs": len(report.epochs),
            "epoch_s": [b - a for a, b in zip(ends, ends[1:])],
            "finite": all(_finite(vars(e)) for e in report.epochs),
        })
        return out

    def timed_record(*a, **kw):  # building an epoch's record ends that epoch
        epoch_ends.append(time.perf_counter())
        return inner_record(*a, **kw)

    trainer.train = timed_train
    trainer.EpochRecord = timed_record
    t_start = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - t_start
    record = {
        "exit_code": code,
        "main_s": main_s,
        "setup_s": train_calls[0]["start"] - t_start if train_calls else None,
        "train_calls": train_calls,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }
    Path(args.record).write_text(json.dumps(record), encoding="utf-8")
    return code


def _finite(fields: dict) -> bool:
    return all(v == v and abs(v) != float("inf") for v in fields.values()
               if isinstance(v, float))


if __name__ == "__main__":
    sys.exit(main())
