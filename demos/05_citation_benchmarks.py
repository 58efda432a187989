"""Benchmark runs on the citation graphs (Cora, CiteSeer, PubMed).

Expects converted datasets under data/<name>/ (see docs/datasets.md for the
byte-exact conversion recipe from the public releases). Each run uses the
per-dataset hyperparameter row and the 20-per-class / 500 / 1000 split
protocol; epsilon is selected from two decades by validation accuracy.

Equivalent CLI:
    ncgc train --dataset data/cora --out runs/cora --seed 0 --runs 5 \
        --beta 0.003 --epsilon 0.04 --sinkhorn-iters 3 --layers 3 \
        --lr 0.001 --hidden 512 --weight-decay 5e-4 --dropout 0.8
"""

import sys
from pathlib import Path

import numpy as np

from ncgc.graph import load_dataset
from ncgc.trainer import HyperParams, run_seeds, seed_splits

DATA = Path(__file__).resolve().parent.parent / "data"

ROWS = {
    "cora": dict(beta=0.003, sinkhorn_iters=3, layers=3, lr=0.001, hidden=512,
                 weight_decay=5e-4, dropout=0.8, eps_grid=(0.004, 0.04)),
    "citeseer": dict(beta=0.008, sinkhorn_iters=3, layers=2, lr=0.001, hidden=512,
                     weight_decay=1e-2, dropout=0.5, eps_grid=(0.003, 0.03)),
    "pubmed": dict(beta=0.008, sinkhorn_iters=4, layers=2, lr=0.001, hidden=256,
                   weight_decay=5e-4, dropout=0.7, eps_grid=(0.004, 0.04)),
}
SPLIT = dict(train_per_class=20, val_per_class=30)

available = [name for name in ROWS if (DATA / name / "meta.json").exists()]
if not available:
    print(f"no converted datasets under {DATA}; see docs/datasets.md")
    sys.exit(0)

for name in available:
    row = dict(ROWS[name])
    eps_grid = row.pop("eps_grid")
    g = load_dataset(DATA / name)
    print(f"\n{name}: n={g.n} m={g.m} d={g.feature_dim} k={g.class_count}")
    best = None
    for eps in eps_grid:
        hp = HyperParams(seed=0, epsilon=eps, **row)
        stats = run_seeds(g, hp, seed_splits(g, hp.seed, "planetoid_style", 5, **SPLIT))
        val = float(np.mean([r.best_val for r in stats.reports]))
        wall = sum(r.wall_time for r in stats.reports)
        print(f"  eps={eps}: test {stats.mean:.4f} +/- {stats.std:.4f} "
              f"(val {val:.4f}, {wall:.0f}s)")
        if best is None or val > best[0]:
            best = (val, eps, stats)
    _, eps, stats = best
    print(f"  selected eps={eps}: test accuracy {stats.mean:.4f} +/- {stats.std:.4f}")
