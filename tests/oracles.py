"""A Monte Carlo hypervolume estimate, the oracle the exact sweeps of
`v2xloop.pareto.hypervolume` are checked against."""

import numpy as np


def mc_hypervolume(points, reference, samples: int = 200_000, seed: int = 0) -> float:
    """Share of `samples` uniform draws in the box from the points' minimum
    to `reference` that some point dominates, times the box's volume. The
    draws come from a Philox generator seeded with `seed`, 50,000 at a time."""
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    lo = pts.min(axis=0)
    box = np.prod(ref - lo)
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    remaining = samples
    while remaining > 0:
        k = min(50_000, remaining)
        sample = rng.uniform(lo, ref, size=(k, pts.shape[1]))
        dominated = np.zeros(k, dtype=bool)
        for p in pts:
            dominated |= np.all(sample >= p, axis=1)
        hits += int(dominated.sum())
        remaining -= k
    return float(box * hits / samples)
