"""Kinematically feasible replanning over SE(2) with event-driven triggers.

The search expands forward constant-steer arcs from a continuous state and
closes visited states in a discretized (x, y, heading-bin) table, so every
returned path respects the bicycle curvature bound by construction. Cost is
arc length plus steering-change and route-deviation penalties; the heuristic
is the Euclidean distance to goal scaled by heuristic_weight, so solutions
are within that factor of optimal and the search stays fast even though the
deviation term makes straight-line cost exceed plain distance.

Expanding a node costs one batched grid lookup: all steering primitives are
placed in the world together, and their bounds, occupancy and mean route
deviation come from whole-array operations, so only the surviving arcs pay
per-arc Python work. Nodes keep their parent and steer index instead of
their arc samples; arcs are materialized only for the returned chain.

Replanning is event driven, not periodic: a validated hazard on the route
ahead, a time-to-collision dip on the current plan prefix, or a map version
change each force exactly one replan.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .ldm import LdmState
from .vehicle import VehicleParams, max_curvature
from .world import (MapVersion, OccupancyGrid, Route, is_on_route,
                    planning_occupancy, point_along_polyline,
                    project_to_polyline, wrap_angle)

TWO_PI = 2.0 * math.pi

# collision footprint of an event by kind, before vehicle-radius inflation
EVENT_RADIUS = {
    "stationary_vehicle": 1.0,
    "debris": 0.8,
    "road_closure": 3.0,
}


@dataclass(frozen=True)
class PlannerConfig:
    xy_resolution: float = 0.5            # [m] closed-set bin size
    heading_bins: int = 36
    steering_samples: int = 5             # includes 0 and both extremes
    primitive_arc_length: float = 2.0     # [m]
    goal_xy_tol: float = 1.0              # [m]
    goal_heading_tol: float = math.radians(10.0)
    steering_change_weight: float = 0.5
    lateral_weight: float = 0.3           # [1/m] route-deviation cost per meter
    heuristic_weight: float = 1.2         # >1 trades optimality for speed
    obstacle_margin: float = 0.75         # [m] planning clearance beyond the
                                          # risk-check clearance, so track
                                          # jitter cannot retrigger replans
    event_margin: float = 0.5             # [m] accepted-event padding; fused
                                          # multi-source positions are steadier
                                          # than single-sensor tracks
    max_expansions: int = 200_000
    b_obstacle: float = 0.6               # tracks at or above this block cells
    track_radius: float = 1.0             # [m] assumed footprint of a track
    static_speed_floor: float = 0.75      # [m/s] below this a track is stamped
                                          # in place, not velocity-extrapolated
    cruise_speed: float = 8.0             # [m/s]
    pass_speed: float = 3.0               # [m/s] target alongside a hazard
    comfort_decel: float = 1.0            # [m/s^2] sets the slowdown envelope
    slowdown_margin: float = 1.5          # envelope = margin * v^2 / (2 * decel)
    goal_ramp_distance: float = 10.0      # [m]
    prefix_horizon: float = 3.0           # [s] plan prefix checked for risk

    def __post_init__(self):
        """Reject settings the search cannot run with, naming the field."""
        if self.heading_bins < 1:
            raise ValueError(f"planner.heading_bins must be >= 1, got {self.heading_bins}")
        if self.steering_samples < 3 or self.steering_samples % 2 == 0:
            raise ValueError("planner.steering_samples must be odd and >= 3 (straight "
                             f"plus both locks), got {self.steering_samples}")
        for name in ("xy_resolution", "primitive_arc_length", "goal_xy_tol",
                     "heuristic_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"planner.{name} must be finite and > 0, got {value}")
        if self.max_expansions < 0:
            raise ValueError(f"planner.max_expansions must be >= 0, got {self.max_expansions}")


@dataclass(frozen=True)
class TriggerConfig:
    hazard_lookahead: float = 50.0        # [m]
    hazard_corridor: float = 2.0          # [m]
    tau_risk: float = 2.5                 # [s]


HAZARD_ON_ROUTE = "hazard_on_route"
RISK_THRESHOLD = "risk_threshold"
KNOWLEDGE_CHANGE = "knowledge_change"


@dataclass(frozen=True)
class Trajectory:
    poses: np.ndarray                 # (N, 3) x, y, heading
    target_speeds: np.ndarray         # (N,) [m/s]
    arc_lengths: np.ndarray           # (N,) cumulative [m]
    planned_on_version: int
    planned_at: float

    def __post_init__(self):
        object.__setattr__(self, "poses", np.asarray(self.poses, dtype=float))
        object.__setattr__(self, "target_speeds", np.asarray(self.target_speeds, dtype=float))
        object.__setattr__(self, "arc_lengths", np.asarray(self.arc_lengths, dtype=float))

    @property
    def length(self) -> float:
        return float(self.arc_lengths[-1])

    def project(self, position) -> float:
        s, _, _ = project_to_polyline(position, self.poses[:, :2])
        return s

    def point_at(self, s: float) -> np.ndarray:
        s = float(np.clip(s, 0.0, self.length))
        x = np.interp(s, self.arc_lengths, self.poses[:, 0])
        y = np.interp(s, self.arc_lengths, self.poses[:, 1])
        return np.array([x, y])

    def speed_at(self, s: float) -> float:
        return float(np.interp(s, self.arc_lengths, self.target_speeds))


@dataclass(frozen=True)
class PlanAttempt:
    trajectory: Trajectory | None
    expansions: int
    cpu_ms: float                     # wall-clock, never written into replayable logs
    cause: str
    path_length: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.trajectory is not None


# ---------------------------------------------------------------------------
# obstacle layer


def unexplained_tracks(ldm: LdmState, cfg: PlannerConfig) -> list:
    """Confident tracks not already covered by an accepted event.

    An accepted event is the fused, multi-source estimate of a hazard; the
    ego's own track of the same object is noisier and drifts. Keeping both
    would stamp the hazard twice with independent jitter and can pinch off
    a corridor the plan legitimately uses, so the duplicate sensor view is
    dropped. A genuinely separate object closer than one footprint to an
    event is conflated; at these radii that is the safe direction anyway.
    """
    events = ldm.accepted_events()
    out = []
    for tr in ldm.obstacles(cfg.b_obstacle):
        covered = False
        for ev in events:
            reach = EVENT_RADIUS.get(ev.kind, 1.0) + cfg.track_radius
            if math.hypot(tr.position[0] - ev.position[0],
                          tr.position[1] - ev.position[1]) <= reach:
                covered = True
                break
        if not covered:
            out.append(tr)
    return out


def obstacle_grid(ldm: LdmState, cfg: PlannerConfig, vparams: VehicleParams,
                  base: OccupancyGrid | None = None,
                  start_xy=None) -> OccupancyGrid:
    """Planning grid = inflated static map + confident tracks + accepted events.

    Moving tracks are stamped at their prefix-mean predicted position so a
    mover is blocked where it will be; near-static ones are stamped in place
    so velocity noise cannot walk the stamp around. Stamps are padded with
    obstacle_margin beyond what the risk check uses, which keeps planned
    paths far enough out that estimate jitter cannot flip the risk trigger.
    A disk that already contains start_xy is skipped: the search cannot
    escape a region its own start is buried in, and the right reaction to
    an overlapping estimate is to keep driving the stop ramp, not to fail.
    """
    from .world import mark_disk  # local import keeps module load light

    grid = base if base is not None else planning_occupancy(ldm.active_map,
                                                            vparams.collision_radius)
    cells = grid.cells.copy()
    out = OccupancyGrid(cells=cells, cell_size=grid.cell_size, origin=grid.origin)
    half_prefix = cfg.prefix_horizon / 2.0

    def blocks_start(cx: float, cy: float, radius: float) -> bool:
        if start_xy is None:
            return False
        return math.hypot(cx - start_xy[0], cy - start_xy[1]) <= radius

    for tr in unexplained_tracks(ldm, cfg):
        px, py = tr.position
        if math.hypot(tr.velocity[0], tr.velocity[1]) >= cfg.static_speed_floor:
            px += tr.velocity[0] * half_prefix
            py += tr.velocity[1] * half_prefix
        radius = cfg.track_radius + vparams.collision_radius + cfg.obstacle_margin
        if blocks_start(px, py, radius):
            continue
        mark_disk(cells, out, (px, py), radius)
    for ev in ldm.accepted_events():
        radius = (EVENT_RADIUS.get(ev.kind, 1.0) + vparams.collision_radius
                  + cfg.event_margin)
        if blocks_start(ev.position[0], ev.position[1], radius):
            continue
        mark_disk(cells, out, ev.position, radius)
    return out


def route_deviation_field(grid: OccupancyGrid,
                          reference_path: np.ndarray) -> np.ndarray:
    """Distance from every cell center to the route reference polyline.

    Shaped like the planning grid so the search can price lateral deviation
    with a plain array lookup; without it the shortest corridor path cuts
    curves instead of lane keeping.
    """
    ny, nx = grid.cells.shape
    res = grid.cell_size
    ox, oy = grid.origin
    cx = ox + (np.arange(nx) + 0.5) * res
    cy = oy + (np.arange(ny) + 0.5) * res
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


# ---------------------------------------------------------------------------
# hybrid A*


def _primitives(cfg: PlannerConfig, vparams: VehicleParams):
    """Body-frame arc samples per steering value; reused across expansions."""
    steers = np.linspace(-vparams.max_steer, vparams.max_steer, cfg.steering_samples)
    arc = cfg.primitive_arc_length
    substep = max(2, int(math.ceil(arc / (cfg.xy_resolution * 0.8))))
    s = np.linspace(arc / substep, arc, substep)
    pts = np.zeros((len(steers), substep, 2))
    dthetas = np.zeros((len(steers), substep))
    for i, steer in enumerate(steers):
        kappa = math.tan(steer) / vparams.wheelbase
        if abs(kappa) < 1e-12:
            pts[i, :, 0] = s
        else:
            pts[i, :, 0] = np.sin(kappa * s) / kappa
            pts[i, :, 1] = (1.0 - np.cos(kappa * s)) / kappa
        dthetas[i] = kappa * s
    return steers, pts, dthetas


def _arcs_from(prim_pts: np.ndarray, x: float, y: float, th: float) -> np.ndarray:
    """World-frame samples of every primitive from pose (x, y, th).

    The one place a primitive is placed in the world: the search and the
    path rebuild both call it, so a rebuilt arc has the search's exact bits.
    """
    c, s = math.cos(th), math.sin(th)
    rot = np.array([[c, -s], [s, c]])
    world = prim_pts @ rot.T
    world += (x, y)
    return world


def plan(start_pose, start_speed: float, goal_pose, ldm: LdmState,
         cfg: PlannerConfig, vparams: VehicleParams, cause: str = "initial",
         base_grid: OccupancyGrid | None = None,
         start_steering: float = 0.0,
         deviation_field: np.ndarray | None = None) -> PlanAttempt:
    """Search a drivable path and attach its target speed profile.

    `deviation_field` (from route_deviation_field) prices distance from the
    route reference so the optimum keeps the lane instead of cutting it; it
    must have the planning grid's shape.
    Returns a failed attempt (trajectory None) when the goal is unreachable
    within the expansion budget; the caller is expected to fall back to a
    minimum-safety stop.

    Expanding a node places all steering primitives at once and checks
    them with one batched grid lookup (bounds, occupancy and mean route
    deviation of every arc); only the surviving arcs reach the Python-level
    push. A node stores its parent and steer index, not its arc: arc
    samples are rebuilt only for the nodes of the returned path.
    """
    t0 = time.perf_counter()
    sx, sy, sth = float(start_pose[0]), float(start_pose[1]), float(start_pose[2])
    gx, gy, gth = float(goal_pose[0]), float(goal_pose[1]), float(goal_pose[2])
    grid = obstacle_grid(ldm, cfg, vparams, base=base_grid, start_xy=(sx, sy))
    cells = grid.cells
    ny, nx = cells.shape
    if deviation_field is not None and deviation_field.shape != cells.shape:
        raise ValueError(f"deviation_field shape {deviation_field.shape} != "
                         f"planning grid shape {cells.shape}")
    res = grid.cell_size
    ox, oy = grid.origin
    inv_res = 1.0 / res
    bin_size = TWO_PI / cfg.heading_bins
    n_bins = cfg.heading_bins
    hw = cfg.heuristic_weight
    goal_xy_tol, goal_heading_tol = cfg.goal_xy_tol, cfg.goal_heading_tol

    steers, prim_pts, prim_dth = _primitives(cfg, vparams)
    substep = prim_pts.shape[1]
    arc = cfg.primitive_arc_length
    # per-plan constants, each evaluated in the order the per-push cost is
    # summed: arc + steering change, then + (lateral_weight * arc) * deviation
    step_cost = (arc + cfg.steering_change_weight
                 * np.abs(steers[None, :] - steers[:, None])).tolist()
    lateral_arc = cfg.lateral_weight * arc
    end_dth = prim_dth[:, -1].tolist()
    origin = np.array([ox, oy])
    upper = np.array([nx, ny], dtype=np.uint64)
    flat_stride = np.array([1, nx])
    flat_cells = cells.ravel()
    flat_dev = None if deviation_field is None else deviation_field.ravel()

    # node storage: parallel lists, parent links by index
    xs = [sx]; ys = [sy]; ths = [sth]; gs = [0.0]
    steer_idx = [int(np.argmin(np.abs(steers - start_steering)))]
    parents = [-1]

    open_heap = [(hw * math.hypot(gx - sx, gy - sy), 0, 0)]
    closed: set = set()
    push_count = 1
    expansions = 0
    goal_node = -1
    heappush, heappop, hypot = heapq.heappush, heapq.heappop, math.hypot

    def bin_key(x: float, y: float, th: float):
        return (int(x * inv_res), int(y * inv_res),
                int(((th % TWO_PI) / bin_size)) % n_bins)

    while open_heap:
        _, _, ni = heappop(open_heap)
        x, y, th = xs[ni], ys[ni], ths[ni]
        key = bin_key(x - ox, y - oy, th)
        if key in closed:
            continue
        closed.add(key)

        if (hypot(gx - x, gy - y) <= goal_xy_tol
                and abs(wrap_angle(th - gth)) <= goal_heading_tol):
            goal_node = ni
            break
        expansions += 1
        if expansions > cfg.max_expansions:
            break

        # one lookup for all (steer, substep) samples. Seen as unsigned, a
        # negative cell index is huge, so one comparison checks both bounds;
        # clipped flat indices only ever stand for arcs `inb` rejects
        world = _arcs_from(prim_pts, x, y, th)
        idx = np.floor((world - origin) * inv_res).astype(np.int64)
        inb = (idx.view(np.uint64) < upper).all(axis=(1, 2))
        flat = idx @ flat_stride
        free = inb & ~flat_cells.take(flat, mode="clip").any(axis=1)
        survivors = free.nonzero()[0].tolist()
        if not survivors:
            continue
        ends = world[:, -1].tolist()
        if flat_dev is not None:
            # sum / count is exactly what ndarray.mean computes
            dev = (flat_dev.take(flat, mode="clip").sum(axis=1) / substep).tolist()
        costs = step_cost[steer_idx[ni]]
        g = gs[ni]
        for si in survivors:
            ex, ey = ends[si]
            th_new = th + end_dth[si]
            if bin_key(ex - ox, ey - oy, th_new) in closed:
                continue
            cost = costs[si]
            if flat_dev is not None:
                cost += lateral_arc * dev[si]
            g_new = g + cost
            xs.append(ex); ys.append(ey); ths.append(th_new); gs.append(g_new)
            steer_idx.append(si); parents.append(ni)
            heappush(open_heap, (g_new + hw * hypot(gx - ex, gy - ey),
                                 push_count, len(xs) - 1))
            push_count += 1

    cpu_ms = (time.perf_counter() - t0) * 1000.0
    if goal_node < 0:
        return PlanAttempt(trajectory=None, expansions=expansions,
                           cpu_ms=cpu_ms, cause=cause)

    chain = []
    ni = goal_node
    while ni > 0:
        chain.append(ni)
        ni = parents[ni]
    chain.reverse()

    blocks = [np.array([[sx, sy, sth]])]
    for ni in chain:
        pi, si = parents[ni], steer_idx[ni]
        pts = _arcs_from(prim_pts, xs[pi], ys[pi], ths[pi])[si]
        blocks.append(np.column_stack([pts, ths[pi] + prim_dth[si]]))
    poses = np.concatenate(blocks)
    d = np.diff(poses[:, :2], axis=0)
    seg = np.hypot(d[:, 0], d[:, 1])
    arc_lengths = np.concatenate([[0.0], np.cumsum(seg)])

    traj = Trajectory(poses=poses, target_speeds=np.full(len(poses), cfg.cruise_speed),
                      arc_lengths=arc_lengths,
                      planned_on_version=ldm.active_map.version_id,
                      planned_at=ldm.stamp)
    traj = attach_speed_profile(traj, ldm, cfg, vparams, start_speed)
    cpu_ms = (time.perf_counter() - t0) * 1000.0
    return PlanAttempt(trajectory=traj, expansions=expansions, cpu_ms=cpu_ms,
                       cause=cause, path_length=traj.length)


def attach_speed_profile(traj: Trajectory, ldm: LdmState, cfg: PlannerConfig,
                         vparams: VehicleParams, start_speed: float) -> Trajectory:
    """Cruise profile with a goal ramp and slowdowns at accepted hazards.

    Near an accepted hazard the target dips to pass_speed across a slowdown
    envelope; if the hazard actually sits on the path (closer than the
    summed radii) the target goes to zero instead, since there is nothing
    to pass it by.
    """
    s_axis = traj.arc_lengths
    speeds = np.full(len(s_axis), cfg.cruise_speed)

    total = traj.length
    ramp = np.clip((total - s_axis) / max(cfg.goal_ramp_distance, 1e-6), 0.0, 1.0)
    speeds = np.minimum(speeds, cfg.cruise_speed * ramp)

    envelope = cfg.slowdown_margin * cfg.cruise_speed ** 2 / (2.0 * cfg.comfort_decel)
    xy = traj.poses[:, :2]
    for ev in ldm.accepted_events():
        d = np.hypot(xy[:, 0] - ev.position[0], xy[:, 1] - ev.position[1])
        i_min = int(np.argmin(d))
        d_min = float(d[i_min])
        radius = EVENT_RADIUS.get(ev.kind, 1.0)
        corridor = radius + cfg.track_radius + vparams.collision_radius + 2.0
        if d_min > corridor:
            continue
        blocked = d_min < radius + vparams.collision_radius
        floor = 0.0 if blocked else cfg.pass_speed
        s_h = float(s_axis[i_min])
        local = np.full(len(s_axis), cfg.cruise_speed)
        before = s_axis <= s_h
        frac = np.clip((s_h - s_axis[before]) / max(envelope, 1e-6), 0.0, 1.0)
        local[before] = floor + (cfg.cruise_speed - floor) * frac
        holding = (s_axis > s_h) & (s_axis <= s_h + 2.0 * radius + 4.0)
        local[holding] = floor
        speeds = np.minimum(speeds, local)

    return Trajectory(poses=traj.poses, target_speeds=speeds,
                      arc_lengths=traj.arc_lengths,
                      planned_on_version=traj.planned_on_version,
                      planned_at=traj.planned_at)


# ---------------------------------------------------------------------------
# risk and triggers


def ttc_min(ego_state, traj: Trajectory, tracks, horizon: float,
            collision_radius: float, track_radius: float = 1.0,
            b_obstacle: float = 0.6, dt: float = 0.01) -> float:
    """Earliest collision time under a constant-velocity rollout.

    The ego slides along the plan prefix at its current speed; each track
    extrapolates linearly. Returns inf when no pair closes within the
    horizon.
    """
    obstacles = [t for t in tracks if t.belief >= b_obstacle]
    if not obstacles:
        return math.inf
    v = max(float(ego_state.speed), 0.0)
    s0 = traj.project((ego_state.x, ego_state.y))
    taus = np.arange(0.0, horizon + dt * 0.5, dt)
    s_grid = np.minimum(s0 + v * taus, traj.length)
    ex = np.interp(s_grid, traj.arc_lengths, traj.poses[:, 0])
    ey = np.interp(s_grid, traj.arc_lengths, traj.poses[:, 1])

    best = math.inf
    for tr in obstacles:
        px = tr.position[0] + tr.velocity[0] * taus
        py = tr.position[1] + tr.velocity[1] * taus
        dist = np.hypot(ex - px, ey - py)
        hits = np.nonzero(dist < collision_radius + track_radius + 1e-9)[0]
        if hits.size:
            best = min(best, float(taus[hits[0]]))
    return best


def check_triggers(ldm: LdmState, route: Route, traj: Trajectory | None,
                   ego_state, ego_progress: float, trig: TriggerConfig,
                   cfg: PlannerConfig, vparams: VehicleParams,
                   risk_ttc: float | None = None) -> list[str]:
    """Evaluate the three replan conditions; pure, no side effects.

    hazard_on_route fires only for events accepted after the current plan
    was made, so one acceptance causes one replan rather than one per tick.
    A precomputed rollout TTC can be passed through `risk_ttc` to avoid
    evaluating it twice per tick.
    """
    fired: list[str] = []
    planned_at = traj.planned_at if traj is not None else -math.inf
    planned_version = traj.planned_on_version if traj is not None else -1

    for ev in ldm.accepted_events():
        if ev.accepted_at is None or ev.accepted_at <= planned_at:
            continue
        if is_on_route(ev.position, route, ego_progress,
                       trig.hazard_corridor, trig.hazard_lookahead):
            fired.append(HAZARD_ON_ROUTE)
            break

    if traj is not None:
        risk = risk_ttc if risk_ttc is not None else ttc_min(
            ego_state, traj, ldm.objects, cfg.prefix_horizon,
            vparams.collision_radius, cfg.track_radius, cfg.b_obstacle)
        if risk < trig.tau_risk:
            fired.append(RISK_THRESHOLD)

    if traj is not None and ldm.active_map.version_id != planned_version:
        fired.append(KNOWLEDGE_CHANGE)
    return fired
