"""Named, seeded random streams.

Every stochastic subsystem (sensing, channel, attack, ...) draws from its
own counter-based stream derived from one master seed. Toggling a
subsystem on or off therefore never perturbs the draws seen by another,
which is what makes ablations comparable tick for tick.

A draw the tick loop keeps is a Python float. `uniform` gives
`Generator.uniform(low, high)`'s draw and bits at a fraction of its call
cost, and `Generator.random()` is `uniform()` itself.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(master_seed: int, name: str) -> np.random.Generator:
    """Return the Philox stream registered under `name` for this seed."""
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    name_key = int.from_bytes(digest[:8], "little")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(name_key,))
    return np.random.Generator(np.random.Philox(seq))


class StreamSet:
    """Lazy bundle of named streams sharing one master seed."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            self._streams[name] = stream(self.master_seed, name)
        return self._streams[name]


def uniform(gen: np.random.Generator, low: float, high: float) -> float:
    """`gen.uniform(low, high)`: the same draw from the same stream, with the
    same bits, since numpy computes `low + (high - low) * next_double`."""
    return low + (high - low) * gen.random()
