"""Multi-objective selection: dominance frontier, knee point, hypervolume.

All objectives are minimized. A point dominates another when it is no
worse in every objective and strictly better in one; the frontier is every
point no other point dominates. Equal vectors do not dominate each other,
so duplicates coexist on the frontier.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from itertools import product

import numpy as np


@dataclass(frozen=True)
class Configuration:
    """One operating point theta of the control/replanning stack.

    Its fields after `config_id` are the swept knobs: the grid keys
    `config_grid` accepts and the `sweep.csv` columns, in this order. A knob
    left None keeps the scenario's own setting.
    """

    config_id: str
    look_ahead: float | None = None
    k_p: float | None = None
    tau_risk: float | None = None


@dataclass(frozen=True)
class EvaluatedPoint:
    config_id: str
    objectives: tuple[float, ...]     # raw, minimized
    normalized: tuple[float, ...] | None = None
    collided: bool = False


@dataclass(frozen=True)
class ParetoResult:
    points: tuple[EvaluatedPoint, ...]
    frontier: tuple[EvaluatedPoint, ...]
    knee: EvaluatedPoint | None
    hypervolume: float | None
    discarded_collided: int = 0


def nondominated_set(points) -> list[int]:
    """Indices of the points no point dominates, in index order: one
    comparison of each point against the whole set."""
    pts = np.asarray(points, dtype=float)
    return [i for i, p in enumerate(pts)
            if not ((pts <= p).all(axis=1) & (pts < p).any(axis=1)).any()]


def normalize(points) -> np.ndarray:
    """Min-max per component over the set; degenerate components map to 0."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    span = hi - lo
    out = np.zeros_like(arr)
    ok = span > 0.0
    out[:, ok] = (arr[:, ok] - lo[ok]) / span[ok]
    return out


def knee_point(frontier) -> EvaluatedPoint | None:
    """Collision-free frontier member with minimal normalized L2 norm.

    Ties break lexicographically on the normalized vector, then config_id.
    """
    safe = [p for p in frontier if not p.collided]
    if not safe:
        return None

    def sort_key(p: EvaluatedPoint):
        norm = math.sqrt(sum(v * v for v in p.normalized))
        return (norm, p.normalized, p.config_id)

    return min(safe, key=sort_key)


# ---------------------------------------------------------------------------
# hypervolume


def _hv_2d(pts: np.ndarray, ref) -> float:
    order = np.argsort(pts[:, 0], kind="stable")
    pts = pts[order]
    hv = 0.0
    best_y = math.inf
    xs = list(pts[:, 0]) + [ref[0]]
    for i in range(len(pts)):
        best_y = min(best_y, pts[i, 1])
        hv += (xs[i + 1] - xs[i]) * (ref[1] - best_y)
    return hv


def _hv_3d(pts: np.ndarray, ref) -> float:
    zs = np.unique(pts[:, 2])
    bounds = list(zs) + [ref[2]]
    hv = 0.0
    for i in range(len(zs)):
        height = bounds[i + 1] - bounds[i]
        if height <= 0.0:
            continue
        slab = pts[pts[:, 2] <= zs[i]][:, :2]
        hv += height * _hv_2d(slab, ref[:2])
    return hv


def hypervolume(points, reference) -> float:
    """Dominated hypervolume against `reference` (minimization).

    Exact: a sweep in 2D, slices of 2D sweeps in 3D; any other dimension is
    a ValueError. Every point must strictly dominate the reference.
    """
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need at least one point")
    if pts.shape[1] != ref.shape[0]:
        raise ValueError("dimension mismatch between points and reference")
    if not np.all(pts < ref):
        raise ValueError("every point must strictly dominate the reference")
    d = pts.shape[1]
    if d == 2:
        return float(_hv_2d(pts, ref))
    if d == 3:
        return float(_hv_3d(pts, ref))
    raise ValueError(f"hypervolume is exact for 2 or 3 objectives, got {d}")


# ---------------------------------------------------------------------------
# sweep protocol


def config_grid(grid: dict) -> list[Configuration]:
    """Cartesian product of per-field value lists into Configuration objects.

    `grid` maps Configuration fields to non-empty lists of distinct finite
    numbers; anything else is a ValueError naming `grid.<field>`. Values
    that compare equal (1 and 1.0, 0.0 and -0.0) set the same operating
    point, so they count as a repeat. The knobs it does not name stay None.
    """
    if not isinstance(grid, dict):
        raise ValueError(f"grid: must be an object of value lists, got {grid!r}")
    allowed = {f.name for f in fields(Configuration)} - {"config_id"}
    for name, values in grid.items():
        if name not in allowed:
            raise ValueError(f"grid.{name}: unknown field, expected one of {sorted(allowed)}")
        if not (isinstance(values, list) and values and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and abs(v) <= sys.float_info.max for v in values)):
            raise ValueError(f"grid.{name}: must be a non-empty list of finite "
                             f"numbers, got {values!r}")
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"grid.{name}: repeats the value {v!r}")
    names = sorted(grid)
    combos = list(product(*(grid[n] for n in names)))
    configs = []
    width = max(3, len(str(max(len(combos) - 1, 0))))
    for i, values in enumerate(combos):
        kwargs = dict(zip(names, values))
        configs.append(Configuration(config_id=f"cfg-{i:0{width}d}", **kwargs))
    return configs


def evaluate_grid(configs, episode_runner, seeds, scenario_ids) -> list[EvaluatedPoint]:
    """Run every config over the seed/scenario block and average its objectives.

    episode_runner(config, scenario_id, seed) -> (objective tuple, collided).
    A config is marked collided if any of its episodes collided.
    The episodes run seed by seed: every scenario and config at one seed,
    then the next seed, so the points of one seed run back to back and
    share what their episodes keep per map (a hazard replan's stamped
    cost-to-goal field). Each config's vectors are still averaged in
    scenario-then-seed order, so the means keep their bits.
    """
    results = {}
    for seed in seeds:
        for scenario_id in scenario_ids:
            for i, config in enumerate(configs):
                results[i, scenario_id, seed] = episode_runner(config, scenario_id, seed)
    points: list[EvaluatedPoint] = []
    for i, config in enumerate(configs):
        block = [results[i, scenario_id, seed]
                 for scenario_id in scenario_ids for seed in seeds]
        vectors = np.asarray([vec for vec, _ in block])
        mean_vec = tuple(float(v) for v in np.mean(vectors, axis=0))
        points.append(EvaluatedPoint(config_id=config.config_id, objectives=mean_vec,
                                     collided=any(hit for _, hit in block)))
    return points


# the hypervolume's objectives (tracking, safety, smoothness) and its
# reference point, slightly worse than the worst normalized value of 1
HV_COMPONENTS = (0, 1, 3)
HV_REFERENCE = (1.1, 1.1, 1.1)


def sweep(configs, episode_runner, seeds, scenario_ids) -> ParetoResult:
    """Full protocol: evaluate, discard collided, normalize, frontier, knee, HV.

    The hypervolume is taken over the normalized objectives HV_COMPONENTS
    against HV_REFERENCE, so it is well defined whenever the frontier is
    nonempty.
    """
    raw = evaluate_grid(configs, episode_runner, seeds, scenario_ids)
    safe = [p for p in raw if not p.collided]
    discarded = len(raw) - len(safe)
    if not safe:
        return ParetoResult(points=tuple(raw), frontier=(), knee=None,
                            hypervolume=None, discarded_collided=discarded)

    norm = normalize([p.objectives for p in safe])
    evaluated = [EvaluatedPoint(config_id=p.config_id, objectives=p.objectives,
                                normalized=tuple(float(v) for v in norm[i]),
                                collided=p.collided)
                 for i, p in enumerate(safe)]
    idx = nondominated_set([p.normalized for p in evaluated])
    frontier = tuple(evaluated[i] for i in idx)
    knee = knee_point(frontier)

    # normalized components lie in [0, 1], so every point dominates HV_REFERENCE
    sub = [[p.normalized[c] for c in HV_COMPONENTS] for p in frontier]
    hv = hypervolume(sub, HV_REFERENCE)
    return ParetoResult(points=tuple(raw), frontier=frontier, knee=knee,
                        hypervolume=hv, discarded_collided=discarded)
