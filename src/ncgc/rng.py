"""Seeded random streams.

Every randomized routine takes an explicit ``RngState``. Identical seed and
identical call sequence give an identical value sequence, and independently
derived streams do not interfere with each other, so enabling or disabling
one consumer (say, centroid initialization) never shifts the draws seen by
another (say, dropout).
"""

from __future__ import annotations

import zlib

import numpy as np


class RngState:
    """A named, splittable random stream around numpy's PCG64 generator."""

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = _spawn_key
        seq = np.random.SeedSequence(self.seed, spawn_key=_spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def derive(self, label: str) -> "RngState":
        """Return an independent stream keyed by ``label`` (and this stream's key)."""
        key = self._spawn_key + (zlib.crc32(label.encode("utf-8")),)
        return RngState(self.seed, _spawn_key=key)

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def normal(self, shape=None, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size=None, replace: bool = True, p=None):
        return self._gen.choice(n, size=size, replace=replace, p=p)

    def permutation(self, x):
        return self._gen.permutation(x)
