"""Seeded, vectorised generator of benchmark datasets in the canonical layout.

Writes ``meta.json``, ``features.bin``, ``edges.tsv`` and ``labels.tsv`` as
described in ``docs/datasets.md``. The package's own ``synth.make_sbm`` and
``graph.write_dataset`` are deliberately not used: they are code under test,
and the SBM sampler's per-pair Python loop cannot reach PubMed size.

Citation-shaped graphs match the documented n, m, d, k and feature density.
Class signal comes from two sources, both deliberately imperfect so that
test accuracy sits well above chance and below 1.0: edges join a node of
the same class with probability ``HOMOPHILY``, and a share ``TOPIC_SHARE``
of each node's words come from a ``TOPIC_WORDS``-word topic vocabulary of
its class, while a share ``TOPIC_NOISE`` of nodes draw their topic words
from another class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HOMOPHILY = 0.8
TOPIC_SHARE = 0.6
TOPIC_WORDS = 40
TOPIC_NOISE = 0.15


@dataclass(frozen=True)
class CitationShape:
    n: int
    m: int
    d: int
    k: int
    density: float
    binary: bool  # binary bag-of-words, else TF-IDF-like positive weights


CORA = CitationShape(n=2708, m=5278, d=1433, k=7, density=0.0127, binary=True)
PUBMED = CitationShape(n=19717, m=44324, d=500, k=3, density=0.10, binary=False)


def _edges(rng: np.random.Generator, labels: np.ndarray, m: int) -> np.ndarray:
    """Exactly ``m`` distinct undirected edges (i < j), no self-loops."""
    n = len(labels)
    weight = rng.pareto(2.5, n) + 1.0  # heavy-tailed degrees, as in citation graphs
    weight /= weight.sum()
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=labels.max() + 1)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    keys = np.zeros(0, dtype=np.int64)
    while True:
        batch = 2 * (m - len(keys)) + 64
        u = rng.choice(n, size=batch, p=weight)
        c = labels[u]
        v_same = order[starts[c] + (rng.random(batch) * sizes[c]).astype(np.int64)]
        v_any = rng.choice(n, size=batch, p=weight)
        v = np.where(rng.random(batch) < HOMOPHILY, v_same, v_any)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        cand = np.concatenate([keys, (lo * n + hi)[lo != hi]])
        _, first = np.unique(cand, return_index=True)
        keys = cand[np.sort(first)]  # distinct, in draw order
        if len(keys) >= m:
            keys = keys[:m]
            return np.stack([keys // n, keys % n], axis=1)


def _citation_features(rng: np.random.Generator, labels: np.ndarray,
                       s: CitationShape) -> np.ndarray:
    """Each row draws its words without replacement (Efraimidis-Spirakis keys),
    topic words weighted so that about ``TOPIC_SHARE`` of the draws are topical."""
    n, d, k = len(labels), s.d, s.k
    per_row = np.clip(rng.poisson(s.density * d, n), 1, d)
    topic_of = np.where(rng.random(n) < TOPIC_NOISE, rng.integers(0, k, n), labels)
    vocab = np.stack([rng.choice(d, TOPIC_WORDS, replace=False) for _ in range(k)])
    boost = TOPIC_SHARE * d / ((1.0 - TOPIC_SHARE) * TOPIC_WORDS)
    keys = rng.exponential(size=(n, d)).astype(np.float32)
    keys[np.arange(n)[:, None], vocab[topic_of]] /= boost
    ranks = np.argsort(keys, axis=1)
    take = np.arange(d)[None, :] < per_row[:, None]
    rows = np.broadcast_to(np.arange(n)[:, None], (n, d))[take]
    cols = ranks[take]
    x = np.zeros((n, d), dtype="<f4")
    if s.binary:
        x[rows, cols] = 1.0
    else:
        idf = np.log(1.0 + 1.0 / rng.uniform(0.01, 1.0, d))
        x[rows, cols] = (idf[cols] * rng.gamma(2.0, 0.05, len(cols))).astype("<f4")
    return x


def citation_dataset(s: CitationShape, seed: int, name: str):
    rng = np.random.default_rng(seed)
    props = rng.dirichlet(np.full(s.k, 6.0))
    labels = rng.choice(s.k, size=s.n, p=props)
    while np.bincount(labels, minlength=s.k).min() < 40:  # every class must fill a split
        labels = rng.choice(s.k, size=s.n, p=props)
    edges = _edges(rng, labels, s.m)
    feats = _citation_features(rng, labels, s)
    return name, feats, edges, labels, s.k


def write(path: Path, name: str, feats: np.ndarray, edges: np.ndarray,
          labels: np.ndarray, k: int) -> None:
    """Write the canonical layout; files appear atomically via a final rename."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.mkdir(parents=True, exist_ok=True)
    n, d = feats.shape
    meta = {"n": n, "m": len(edges), "d": d, "k": k, "name": name}
    (tmp / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    (tmp / "features.bin").write_bytes(np.ascontiguousarray(feats, dtype="<f4").tobytes())
    (tmp / "edges.tsv").write_text(
        "".join(f"{a}\t{b}\n" for a, b in edges.tolist()), encoding="utf-8")
    (tmp / "labels.tsv").write_text(
        "".join(f"{i}\t{c}\n" for i, c in enumerate(labels.tolist())), encoding="utf-8")
    tmp.rename(path)
