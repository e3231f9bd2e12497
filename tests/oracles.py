"""Slow, plain references the fast paths are checked against: a Monte
Carlo hypervolume estimate for the exact sweeps of
`v2xloop.pareto.hypervolume`, and the whole-grid route deviation for
`v2xloop.planner.route_deviation_field`."""

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


def route_deviation_everywhere(grid, reference_path) -> np.ndarray:
    """Distance from every cell center of `grid` to the reference polyline:
    the all-cells formula `route_deviation_field` computed before it kept
    to the cells a plan reads."""
    ny, nx = grid.cells.shape
    res = grid.cell_size
    cx = (np.arange(nx) + 0.5) * res
    cy = (np.arange(ny) + 0.5) * res
    px, py = np.meshgrid(cx, cy)
    ref = np.asarray(reference_path, dtype=float)
    best = np.full((ny, nx), np.inf)
    for a, b in zip(ref[:-1], ref[1:]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        seg_len2 = dx * dx + dy * dy
        if seg_len2 < 1e-18:
            d = np.hypot(px - a[0], py - a[1])
        else:
            tt = np.clip(((px - a[0]) * dx + (py - a[1]) * dy) / seg_len2, 0.0, 1.0)
            d = np.hypot(px - (a[0] + tt * dx), py - (a[1] + tt * dy))
        np.minimum(best, d, out=best)
    return best
