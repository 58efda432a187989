"""Acceptance suite: one test per criterion, printed as one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 1-5 train on the real citation graphs and look for converted
datasets under ``data/<name>`` (override the base directory with the
``NCGC_DATA_DIR`` environment variable). When a dataset is absent the
criterion is reported as skipped with a pointer to ``docs/datasets.md``,
which documents the byte-exact conversion recipe; everything else runs
self-contained.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import ncgc.numerics as nm
from ncgc.clustering import (
    init_centroids, kl_loss, pseudo_label_loss, sinkhorn_pseudo_labels,
    sinkhorn_transport_plan, soft_assign, target_distribution,
)
from ncgc.cli import main as cli_main
from ncgc.graph import load_dataset, normalized_adjacency, normalized_laplacian, write_dataset
from ncgc.model import feature_operator, forward, init_params
from ncgc.rng import RngState
from ncgc.sparse import CsrMatrix
from ncgc.spectral import dense_eigh_oracle, ratiocut_trace, subspace_iteration
from ncgc.synth import make_sbm
from ncgc.trainer import HyperParams, class_loss, run_seeds, total_loss
from gradcheck import OPS, check_gradients
from oracles import (
    edge_sum_smoothness, random_symmetric_with_gap, rel_error, sinkhorn_loop, subspace_angle,
)

# hyperparameter rows for the citation graphs (per-dataset tuned values)
DATASET_ROWS = {
    "cora": dict(beta=0.003, epsilon=0.004, sinkhorn_t=3, layers=3, lr=0.001,
                 hidden_dim=512, weight_decay=5e-4, dropout=0.8),
    "citeseer": dict(beta=0.008, epsilon=0.003, sinkhorn_t=3, layers=2, lr=0.001,
                     hidden_dim=512, weight_decay=1e-2, dropout=0.5),
    "pubmed": dict(beta=0.008, epsilon=0.004, sinkhorn_t=4, layers=2, lr=0.001,
                   hidden_dim=256, weight_decay=5e-4, dropout=0.7),
}
CITATION_SPLIT = dict(per_class_train=20, per_class_val=30,
                      val_total=500, test_total=1000)
N_SEEDS = 5


def dataset_dir(name: str) -> Path:
    base = Path(os.environ.get("NCGC_DATA_DIR",
                               Path(__file__).resolve().parent.parent / "data"))
    d = base / name
    if not (d / "meta.json").exists():
        pytest.skip(
            f"{name} dataset not present at {d}; convert the public release "
            f"into the canonical layout first (see docs/datasets.md)")
    return d


def citation_hp(name: str, seed: int = 0, **overrides) -> HyperParams:
    row = {**DATASET_ROWS[name], **overrides}
    return HyperParams(seed=seed, **row)


def run_citation(name: str, hp: HyperParams, n_runs: int = N_SEEDS,
                 pseudo_label_mode: str = "sinkhorn"):
    g = load_dataset(dataset_dir(name))
    return run_seeds(g, hp, "planetoid_style", n_runs,
                     split_counts=CITATION_SPLIT, pseudo_label_mode=pseudo_label_mode)


def select_by_validation(name: str, epsilons, **overrides):
    """Sweep epsilon candidates, pick by mean validation accuracy."""
    best = None
    for eps in epsilons:
        stats = run_citation(name, citation_hp(name, epsilon=eps, **overrides))
        val = float(np.mean([r.best_val for r in stats.reports]))
        if best is None or val > best[1]:
            best = (eps, val, stats)
    return best


# ---------------------------------------------------------------------------
# criteria 1-5: citation-graph training


def test_criterion_1_cora_headline():
    eps, _, stats = select_by_validation("cora", (0.004, 0.04))
    wall = sum(r.wall_time for r in stats.reports)
    assert stats.mean >= 0.840, f"Cora mean {stats.mean:.4f} below 0.840"
    print(f"ACCEPTANCE 1 (Cora headline): PASS mean={stats.mean:.4f} "
          f"std={stats.std:.4f} eps={eps} wall={wall:.0f}s (gate >= 0.840)")


def test_criterion_2_citeseer_and_pubmed():
    eps_c, _, cite = select_by_validation("citeseer", (0.003, 0.03))
    assert cite.mean >= 0.730, f"CiteSeer mean {cite.mean:.4f} below 0.730"
    eps_p, _, pub = select_by_validation("pubmed", (0.004, 0.04))
    assert pub.mean >= 0.795, f"PubMed mean {pub.mean:.4f} below 0.795"
    print(f"ACCEPTANCE 2 (CiteSeer/PubMed): PASS citeseer={cite.mean:.4f} "
          f"(eps={eps_c}, gate >= 0.730) pubmed={pub.mean:.4f} "
          f"(eps={eps_p}, gate >= 0.795)")


def test_criterion_3_plain_gcn_baseline_sanity():
    hp = citation_hp("cora", beta=0.0, lambda_kl=0.0, lambda_pl=0.0)
    stats = run_citation("cora", hp)
    assert 0.79 <= stats.mean <= 0.83, f"plain GCN mean {stats.mean:.4f} outside [0.79, 0.83]"
    print(f"ACCEPTANCE 3 (plain GCN reduction): PASS mean={stats.mean:.4f} "
          f"std={stats.std:.4f} (gate within [0.79, 0.83])")


def test_criterion_4_ablation_directionality_cora():
    full = run_citation("cora", citation_hp("cora", epsilon=0.04))
    no_pl = run_citation("cora", citation_hp("cora", epsilon=0.04, lambda_pl=0.0))
    no_skn = run_citation("cora", citation_hp("cora", epsilon=0.04),
                          pseudo_label_mode="raw")
    assert full.mean >= no_pl.mean + 0.010, (
        f"full {full.mean:.4f} vs no_pl {no_pl.mean:.4f}: gap below 1 point")
    assert full.mean >= no_skn.mean + 0.010, (
        f"full {full.mean:.4f} vs no_skn {no_skn.mean:.4f}: gap below 1 point")
    print(f"ACCEPTANCE 4 (ablation directionality): PASS full={full.mean:.4f} "
          f"no_pl={no_pl.mean:.4f} no_skn={no_skn.mean:.4f} (gaps >= 0.010)")


def test_criterion_5_epsilon_sweep_shape_cora():
    grid = (0.004, 0.01, 0.02, 0.04, 0.1, 1.0)
    means = []
    for eps in grid:
        stats = run_citation("cora", citation_hp("cora", epsilon=eps), n_runs=3)
        means.append(stats.mean)
    interior_best = max(means[1:-1])
    assert interior_best > means[0] and interior_best > means[-1], (
        f"no interior peak: {dict(zip(grid, means))}")
    print(f"ACCEPTANCE 5 (eps sweep shape): PASS accuracies="
          f"{[round(m, 4) for m in means]} over eps={list(grid)}")


# ---------------------------------------------------------------------------
# criterion 6: oracle equivalence


def test_criterion_6_oracle_equivalence():
    for trial in range(50):
        rng = RngState(5000 + trial)
        n = int(rng.integers(6, 17))
        k = int(rng.integers(1, 5))
        dense = random_symmetric_with_gap(n, k, rng)
        basis = subspace_iteration(CsrMatrix.from_dense(dense), k, rng=rng.derive("init"))
        w_j, v_j = dense_eigh_oracle(dense)
        order = np.argsort(-np.abs(w_j))[:k]
        ref = np.sort(w_j[order])[::-1]
        assert np.abs(basis.ritz_values - ref).max() < 1e-6
        assert subspace_angle(basis.q, v_j[:, order]) < 1e-5

    for trial in range(100):
        rng = RngState(7000 + trial)
        sizes = [int(rng.integers(2, 5)), int(rng.integers(2, 5))]
        g = make_sbm(sizes, 0.8, 0.5, feature_dim=2, rng=rng)
        lt = normalized_laplacian(g)
        h = rng.normal((g.n, int(rng.integers(1, 4))))
        deg = g.adjacency.to_dense().sum(axis=1)
        edges = [(i, j) for i in range(g.n)
                 for j in g.adjacency.col_indices[
                     g.adjacency.row_offsets[i]:g.adjacency.row_offsets[i + 1]]
                 if i < j]
        expected = edge_sum_smoothness(h, edges, deg)
        expected += sum(float(h[i] @ h[i]) for i in range(g.n) if deg[i] == 0)
        assert abs(ratiocut_trace(h, lt) - expected) < 1e-10
    print("ACCEPTANCE 6 (oracle equivalence): PASS 50 eigen instances "
          "(ritz 1e-6, angle 1e-5) + 100 ratiocut instances (1e-10)")


# ---------------------------------------------------------------------------
# criterion 7: sinkhorn property suite


def _softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_criterion_7_sinkhorn_properties():
    for trial in range(100):
        rng = RngState(8000 + trial)
        stochastic = rng.uniform((16, 4), 0.0, 1.0)
        stochastic /= stochastic.sum(axis=1, keepdims=True)
        plan = sinkhorn_transport_plan(stochastic, 0.05, 200)
        assert np.abs(plan.sum(axis=1) - 1.0 / 16).max() < 1e-6
        assert np.abs(plan.sum(axis=0) - 1.0 / 4).max() < 1e-6

        n = int(rng.integers(6, 17))
        k = int(rng.integers(2, 5))
        preds = _softmax(rng.normal((n, k)) * 2)

        shifted = preds + rng.normal((n, 1))
        a = sinkhorn_pseudo_labels(preds, 0.05, 200)
        b = sinkhorn_pseudo_labels(shifted, 0.05, 200)
        assert np.abs(a - b).max() < 1e-8

        const = sinkhorn_pseudo_labels(np.full((n, k), 1.0 / k), 0.05, 5)
        assert np.abs(const - 1.0 / k).max() < 1e-12

        large = sinkhorn_pseudo_labels(preds, 1e6, 10)
        assert np.abs(large - 1.0 / k).max() < 1e-6

        log_dom = sinkhorn_pseudo_labels(preds, 0.05, 30)
        direct = sinkhorn_loop(preds, 0.05, 30)
        assert np.abs(log_dom - direct).max() < 1e-8
    print("ACCEPTANCE 7 (sinkhorn properties): PASS marginals/shift/symmetry/"
          "large-eps/domain-agreement, 100 trials each")


# ---------------------------------------------------------------------------
# criterion 8: gradient suite


def test_criterion_8_gradient_suite():
    for name, case in sorted(OPS.items()):
        for trial in range(20):
            rng = RngState(1000 + 37 * trial + hash(name) % 1000)
            build, arrays = case(rng)
            check_gradients(build, arrays)

    # composed forward + full multi-task loss against finite differences
    for trial in range(20):
        rng = RngState(9000 + trial)
        g = make_sbm([3, 3], 0.8, 0.3, feature_dim=3, rng=rng,
                     feature_shift=1.5, feature_noise=0.8)
        at = normalized_adjacency(g)
        hp = HyperParams(seed=trial, hidden_dim=4, layers=2, beta=0.01,
                         dropout=0.0, epsilon=0.1, sinkhorn_t=5)
        params = init_params(hp, g.feature_dim, g.class_count, rng.derive("init"))
        train_idx = np.array([0, 3])
        u_idx = np.setdiff1d(np.arange(g.n), train_idx)

        x = feature_operator(g.features)
        h0, logits0 = forward(x, at, params, hp, RngState(0), training=False)
        y0 = nm.softmax_rows(logits0)
        cstate = init_centroids(h0.value, g.class_count, rng.derive("centroids"))
        p_target = target_distribution(soft_assign(h0, cstate).value)
        psi = sinkhorn_pseudo_labels(y0.value[u_idx], hp.epsilon, hp.sinkhorn_t)

        def loss_of(params_, cstate_):
            h, logits = forward(x, at, params_, hp, RngState(0), training=False)
            lc = class_loss(logits, g.labels, train_idx)
            lk = kl_loss(p_target, soft_assign(h, cstate_), np.arange(g.n))
            lp = pseudo_label_loss(psi, nm.take_rows(logits, u_idx))
            return total_loss(lc, lk, lp, hp, in_warmup=False)

        trainable = params.all_parameters() + [cstate]
        for p in trainable:
            p.zero_grad()
        tape = nm.Tape()
        with tape:
            loss = loss_of(params, cstate)
        nm.backward(tape, loss)

        step = 1e-5
        for p in trainable:
            fd = np.zeros_like(p.value)
            for idx in np.ndindex(p.value.shape):
                orig = p.value[idx]
                p.value[idx] = orig + step
                fp = loss_of(params, cstate).item()
                p.value[idx] = orig - step
                fm = loss_of(params, cstate).item()
                p.value[idx] = orig
                fd[idx] = (fp - fm) / (2 * step)
            assert rel_error(p.grad, fd) < 1e-4, p.name
    print("ACCEPTANCE 8 (gradient suite): PASS every op x20 + composed "
          "forward+loss x20 (rel err < 1e-4)")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reproduction from the echoed config


def test_criterion_9_determinism_from_resolved_config(tmp_path, capsys):
    g = make_sbm([10, 10], 0.6, 0.05, feature_dim=6, rng=RngState(0),
                 feature_shift=2.5, feature_noise=0.6)
    data = tmp_path / "sbm"
    write_dataset(g, data)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["train", "--dataset", str(data), "--out", str(out1), "--seed", "3",
            "--runs", "2", "--hidden", "16", "--layers", "2", "--dropout", "0.2",
            "--lr", "0.01", "--epochs", "50", "--patience", "50", "--warmup", "10",
            "--split-policy", "per_class", "--train-per-class", "3",
            "--val-per-class", "3", "--row-normalize", "off",
            "--determinism", "on"]
    assert cli_main(args) == 0
    assert cli_main(["train", "--config", str(out1 / "config.resolved"),
                     "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()

    sp1, sp2 = tmp_path / "sp1", tmp_path / "sp2"
    assert cli_main(["spectral", "--dataset", str(data), "--out", str(sp1),
                     "--seed", "5"]) == 0
    assert cli_main(["spectral", "--config", str(sp1 / "config.resolved"),
                     "--out", str(sp2)]) == 0
    assert (sp1 / "assignments.tsv").read_bytes() == (sp2 / "assignments.tsv").read_bytes()
    capsys.readouterr()
    print("ACCEPTANCE 9 (determinism): PASS report.json, checkpoint.bin and "
          "assignments.tsv byte-identical when re-run from config.resolved")
