"""Deterministic, splittable random number streams.

Every stochastic routine in the library takes an :class:`RngStream` so that
results are bit-reproducible across platforms and so that independent
substreams can be derived for parallel or nested estimators.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """SplitMix64 finalizer; a bijective 64-bit mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngStream(NamedTuple):
    """A (seed, stream_id) pair identifying one reproducible sample sequence.

    Identical pairs reproduce identical sequences bit-for-bit on all
    platforms (PCG64 seeded through numpy's SeedSequence).
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed & _MASK64, spawn_key=(self.stream_id & _MASK64,)
        )
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RngStream":
        """Derive a statistically independent child stream."""
        child = _splitmix64((self.stream_id & _MASK64) ^ _splitmix64(index & _MASK64))
        return RngStream(self.seed, child)


def as_stream(rng: "RngStream | int") -> RngStream:
    """Coerce a bare integer seed into an RngStream."""
    if isinstance(rng, RngStream):
        return rng
    return RngStream(int(rng))
