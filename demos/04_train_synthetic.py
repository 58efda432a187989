"""Full training on a hard synthetic benchmark, with ablations.

The fixture is a six-community SBM with strong structure, weak attributes,
and two labels per class. In this regime the self-supervised clustering
signals carry most of the information, so the gap between the full method
and its ablations is visible within seconds.
"""

from dataclasses import replace

from ncgc.graph import make_split
from ncgc.rng import RngState
from ncgc.synth import make_sbm
from ncgc.trainer import VARIANTS, HyperParams, run_seeds, seed_splits, train

g = make_sbm([40] * 6, 0.10, 0.004, feature_dim=32, rng=RngState(7),
             feature_shift=0.8, feature_noise=1.0, name="hard_sbm")
print(f"benchmark: n={g.n} m={g.m} classes={g.class_count}, 2 labels/class\n")

hp = HyperParams(seed=0, beta=0.005, hidden=32, layers=2, dropout=0.3,
                 lr=0.01, weight_decay=5e-4, epochs=150, patience=50,
                 warmup=20, epsilon=0.05, sinkhorn_iters=3)
counts = dict(train_per_class=2, val_per_class=5)

# one run, with the loss trajectory
split = make_split(g, "per_class", RngState(0).derive("split"), train_per_class=2,
                   val_per_class=5)
params, centroids, report = train(g, split, hp)
print("epoch  l_class  l_kl    l_pl    val    test")
for r in report.epochs[:: max(1, len(report.epochs) // 8)]:
    print(f"{r.epoch:5d}  {r.l_class:.4f}  {r.l_kl:.4f}  {r.l_pl:.4f}  "
          f"{r.val_acc:.3f}  {r.test_acc:.3f}")
print(f"best epoch {report.best_epoch}: val {report.best_val:.3f}, "
      f"test {report.test_at_best_val:.3f} ({report.wall_time:.1f}s)\n")

# five seeds, against the ablations of `ncgc ablate` and the plain backbone
splits = seed_splits(g, hp.seed, "per_class", 5, **counts)
plain = {"beta": 0.0, "lambda_kl": 0.0, "lambda_pl": 0.0}
for label, overrides in {**VARIANTS, "plain backbone": plain}.items():
    stats = run_seeds(g, replace(hp, **overrides), splits)
    print(f"{label:22s} acc = {stats.mean:.4f} +/- {stats.std:.4f}")
