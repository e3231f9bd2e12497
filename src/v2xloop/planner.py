"""Kinematically feasible replanning over SE(2) with event-driven triggers.

The search expands forward constant-steer arcs from a continuous state and
closes visited states in a discretized (x, y, heading-bin) table, so every
returned path respects the bicycle curvature bound by construction. Cost is
arc length plus steering-change and route-deviation penalties.

The heuristic is the second one of Dolgov, Thrun, Montemerlo & Diebel
(2008), "Practical Search Techniques in Path Planning for Autonomous
Driving": the larger of the Euclidean distance to the goal and a
cost-to-goal field (`cost_to_goal_field`), an 8-connected Dijkstra from the
goal's cell over the free cells of the planning grid that prices
route deviation as the search does. It sees walls and dead ends, so a
replan round a closure no longer floods the cul-de-sac in front of it, and
a node whose cell cannot reach the goal at all is never pushed.

What bound holds: the field's steps are scaled by cos(pi/8), the least
ratio of straight-line to octile length, so on open ground the field never
exceeds the straight-line distance between the cell centres it joins. A
node reads the field at its cell, and the goal region is GOAL_XY_TOL wide,
so the heuristic may overstate a node's remaining cost by about a cell
diagonal plus GOAL_XY_TOL. HEURISTIC_WEIGHT then inflates it on purpose,
and the closed set keeps only the first state to reach each bin. So the
search returns a feasible path but no proven factor of optimal. The bound
holds with tracks and accepted events too, because the field prices the
very grid the search checks: the static map's field (kept in the map
version's PlanningMaps) when obstacle_grid stamps no cell beyond it, and
otherwise the stamped grid's field, kept beside it in the PlanningMaps
until a plan stamps other cells. So a replan round an accepted
hazard does not flood round its stamp either, and the sweep's operating
points at one seed, which stamp the same hazard, build its field once.

Expanding a node costs one batched grid lookup. Each plan builds a cost
table holding the route deviation on free cells and inf on blocked cells
and on a border past the grid, so one `take` of all arc samples' clamped
cell indices and one row sum give every arc's bounds, occupancy and
deviation at once: an arc is free iff its sum is finite. The primitives
turned to a heading are memoized per plan by that exact heading, so
placing them at a node is one addition, and only the surviving arcs pay
per-arc Python work. Nodes keep their parent and steer index instead of
their arc samples; arcs are materialized only for the returned chain.

Replanning is event driven, not periodic, and every trigger reads the plan
being driven: a validated hazard on the plan ahead, a time-to-collision dip
on the plan prefix, or a map version newer than the plan's each force
exactly one replan.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .ldm import LdmState
from .vehicle import COLLISION_RADIUS, MAX_STEER, WHEELBASE
from .world import (CELL_SIZE, TWO_PI, Polyline, _interp, check_range, inflate,
                    mark_disk, wrap_angle)

# collision footprint of an event by kind, before vehicle-radius inflation
EVENT_RADIUS = {
    "stationary_vehicle": 1.0,
    "debris": 0.8,
    "road_closure": 3.0,
}


# obstacle layer: which tracks block cells, and how wide each stamp is
B_OBSTACLE = 0.6                      # tracks at or above this belief block cells
TRACK_RADIUS = 1.0                    # [m] assumed footprint of a track
OBSTACLE_MARGIN = 0.75                # [m] planning clearance beyond the
                                      # risk-check clearance, so track
                                      # jitter cannot retrigger replans
EVENT_MARGIN = 0.5                    # [m] accepted-event padding; fused
                                      # multi-source positions are steadier
                                      # than single-sensor tracks
STATIC_SPEED_FLOOR = 0.75             # [m/s] below this a track is stamped
                                      # in place, not velocity-extrapolated
PREFIX_HORIZON = 3.0                  # [s] plan prefix checked for risk
# search. world.CELL_SIZE sets the spatial resolution: the closed set bins
# states by grid cell and heading bin, and a primitive is sampled at most
# 0.8 cell apart along its arc
HEADING_BINS = 36
STEERING_SAMPLES = 5                  # odd: straight plus both locks
PRIMITIVE_ARC_LENGTH = 2.0            # [m]
STEERING_CHANGE_WEIGHT = 0.5
LATERAL_WEIGHT = 0.3                  # [1/m] route-deviation cost per meter
HEURISTIC_WEIGHT = 1.2                # >1 trades optimality for speed
MAX_EXPANSIONS = 200_000
# a node ends the search within these of the goal's position and heading
GOAL_XY_TOL = 1.0                     # [m]
GOAL_HEADING_TOL = math.radians(10.0)
# speed profile
CRUISE_SPEED = 8.0                    # [m/s]
PASS_SPEED = 3.0                      # [m/s] target alongside a hazard
COMFORT_DECEL = 1.0                   # [m/s^2] sets the slowdown envelope
SLOWDOWN_MARGIN = 1.5                 # envelope = margin * v^2 / (2 * decel)
GOAL_RAMP_DISTANCE = 10.0             # [m]
# trigger: an accepted hazard counts within this distance ahead along the
# plan and this lateral distance of it
HAZARD_LOOKAHEAD = 50.0               # [m]
HAZARD_CORRIDOR = 2.0                 # [m]


@dataclass(frozen=True)
class TriggerConfig:
    """When to replan. An accepted hazard fires if it lies within
    HAZARD_LOOKAHEAD ahead of the ego along the plan and within
    HAZARD_CORRIDOR of the plan laterally; a rollout TTC below tau_risk
    fires too."""

    tau_risk: float = 2.5                 # [s]

    def __post_init__(self):
        # 0 already switches the trigger off; a negative value would too, quietly
        check_range(self, ("tau_risk",))


HAZARD_ON_ROUTE = "hazard_on_route"
RISK_THRESHOLD = "risk_threshold"
KNOWLEDGE_CHANGE = "knowledge_change"


@dataclass(frozen=True)
class Trajectory:
    poses: np.ndarray                 # (N, 3) x, y, heading; N >= 2
    target_speeds: np.ndarray         # (N,) [m/s]
    planned_on_version: int
    planned_at: float
    # the poses' x, y: every geometric query (length, project, point_at)
    path: Polyline = field(init=False, repr=False)
    # the target speeds as Python floats, for the per-tick speed_at
    _speeds: list = field(init=False, repr=False)

    def __post_init__(self):
        poses = np.asarray(self.poses, dtype=float)
        speeds = np.asarray(self.target_speeds, dtype=float)
        for name, value in (("poses", poses), ("target_speeds", speeds),
                            ("path", Polyline(poses[:, :2])),
                            ("_speeds", speeds.tolist())):
            object.__setattr__(self, name, value)

    def speed_at(self, s: float) -> float:
        return _interp(float(s), self.path._cum, self._speeds)


@dataclass(frozen=True)
class PlanAttempt:
    trajectory: Trajectory | None
    expansions: int
    cpu_ms: float                     # wall-clock, never written into replayable logs
    cause: str
    heuristic_ms: float = 0.0         # the part of cpu_ms spent building a
                                      # cost-to-goal field

    @property
    def succeeded(self) -> bool:
        return self.trajectory is not None


# ---------------------------------------------------------------------------
# obstacle layer


def unexplained_tracks(ldm: LdmState) -> list:
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
    for tr in ldm.obstacles(B_OBSTACLE):
        covered = False
        for ev in events:
            reach = EVENT_RADIUS[ev.kind] + TRACK_RADIUS
            if math.hypot(tr.position[0] - ev.position[0],
                          tr.position[1] - ev.position[1]) <= reach:
                covered = True
                break
        if not covered:
            out.append(tr)
    return out


def obstacle_grid(ldm: LdmState, base: np.ndarray, start_xy) -> np.ndarray:
    """A new planning grid, the cells of `base` (the inflated static map,
    from world.planning_occupancy) + confident tracks + accepted events.

    Moving tracks are stamped at their prefix-mean predicted position so a
    mover is blocked where it will be; near-static ones are stamped in place
    so velocity noise cannot walk the stamp around. Stamps are padded with
    OBSTACLE_MARGIN beyond what the risk check uses, which keeps planned
    paths far enough out that estimate jitter cannot flip the risk trigger.
    An accepted event blocks every cell its disk touches, not only the
    cells whose centre it covers, so every arc sample of a plan keeps the
    full stamped radius from the event: the cost-to-goal field of this
    grid leads hazard replans along the stamp's edge, where a
    centre-in-disk stamp would give up to half a cell diagonal of the
    EVENT_MARGIN away.
    A disk that already contains start_xy is skipped: the search cannot
    escape a region its own start is buried in, and the right reaction to
    an overlapping estimate is to keep driving the stop ramp, not to fail.
    """
    cells = base.copy()
    half_prefix = PREFIX_HORIZON / 2.0

    def blocks_start(cx: float, cy: float, radius: float) -> bool:
        return math.hypot(cx - start_xy[0], cy - start_xy[1]) <= radius

    for tr in unexplained_tracks(ldm):
        px, py = tr.position
        if math.hypot(tr.velocity[0], tr.velocity[1]) >= STATIC_SPEED_FLOOR:
            px += tr.velocity[0] * half_prefix
            py += tr.velocity[1] * half_prefix
        radius = TRACK_RADIUS + COLLISION_RADIUS + OBSTACLE_MARGIN
        if blocks_start(px, py, radius):
            continue
        mark_disk(cells, (px, py), radius)
    for ev in ldm.accepted_events():
        radius = EVENT_RADIUS[ev.kind] + COLLISION_RADIUS + EVENT_MARGIN
        if blocks_start(ev.position[0], ev.position[1], radius):
            continue
        mark_disk(cells, ev.position, radius, touching=True)
    return cells


def route_deviation_field(grid: np.ndarray, route: Polyline) -> np.ndarray:
    """Distance from each readable cell center to the route, and 0 on
    every other cell.

    Shaped like the planning grid so the search can price lateral deviation
    with a plain array lookup; without it the shortest corridor path cuts
    curves instead of lane keeping. The readable cells are the free cells
    of `grid` and their 8-neighbours (the free cells inflated by one cell
    diagonal): `plan`'s cost table reads the free cells of a grid that
    stamps only more cells blocked, and cost_to_goal_field reads those and
    the goal's cell, whose value counts only when a free cell lies next to
    it. Only those cells are computed, each the size of its signed lateral
    from `route.project_many`, with that function's bits.
    """
    readable = inflate(~grid, CELL_SIZE * math.sqrt(2.0))
    iy, ix = np.nonzero(readable)
    _, lateral, _, _ = route.project_many(np.column_stack(((ix + 0.5) * CELL_SIZE,
                                                           (iy + 0.5) * CELL_SIZE)))
    out = np.zeros(grid.shape)
    out[iy, ix] = np.abs(lateral)
    return out


# the least ratio of straight-line to octile length; scaled by it, an
# 8-connected step is never longer than the straight line it stands for
OCTILE_SCALE = math.cos(math.pi / 8.0)


def cost_to_goal_field(grid: np.ndarray, deviation_field: np.ndarray,
                       goal_xy, lateral_weight: float) -> np.ndarray:
    """Cost from every cell to the goal's cell, inf where no 8-connected
    chain of free cells of `grid` reaches it; `deviation_field` is shaped
    like `grid`, as PlanningMaps checks.

    A Dijkstra from the goal's cell (a source even when it is blocked) over
    the free cells; a step between 8-neighbours costs its centre-to-centre
    length times OCTILE_SCALE times (1 + lateral_weight * the mean of the
    two cells' deviations), the search's own price of deviation. Arc
    samples lie at most 0.8 * CELL_SIZE apart (`_primitives`), closer than a
    cell, so every path the search can drive passes through such a chain,
    and a cell at inf cannot reach the goal.
    """
    ny, nx = grid.shape
    # the goal's cell as `plan` finds a node's
    inv_res = 1.0 / CELL_SIZE
    ix, iy = math.floor(goal_xy[0] * inv_res), math.floor(goal_xy[1] * inv_res)
    if not (0 <= ix < nx and 0 <= iy < ny):
        raise ValueError(f"goal {tuple(goal_xy)} lies outside the planning grid")
    # flat indices into the grid padded with one blocked cell all round, so a
    # neighbour is one offset away and never out of bounds
    width = nx + 2
    free = np.zeros((ny + 2, width), dtype=bool)
    free[1:-1, 1:-1] = ~grid
    goal = (iy + 1) * width + ix + 1
    free.flat[goal] = True
    index = np.flatnonzero(free)
    rows, cols = np.divmod(index, width)
    # free cell -> 0.5 * lateral_weight * its deviation: a step between
    # cells i and j costs length * (1 + half_dev[i] + half_dev[j])
    halves = 0.5 * lateral_weight * deviation_field[rows - 1, cols - 1]
    half_dev = dict(zip(index.tolist(), halves.tolist()))
    axial = CELL_SIZE * OCTILE_SCALE
    diagonal = axial * math.sqrt(2.0)
    steps = ([(off, axial) for off in (1, -1, width, -width)]
             + [(off, diagonal) for off in (width + 1, width - 1, 1 - width, -1 - width)])

    cost = {goal: 0.0}
    heap = [(0.0, goal)]
    heappush, heappop, inf = heapq.heappush, heapq.heappop, math.inf
    while heap:
        c, i = heappop(heap)
        if c > cost[i]:
            continue
        weight = 1.0 + half_dev[i]
        for off, length in steps:
            j = i + off
            dev_j = half_dev.get(j)
            if dev_j is None:
                continue
            c_j = c + length * (weight + dev_j)
            if c_j < cost.get(j, inf):
                cost[j] = c_j
                heappush(heap, (c_j, j))

    out = np.full(free.size, inf)
    out[np.fromiter(cost, dtype=np.intp, count=len(cost))] = list(cost.values())
    return out.reshape(free.shape)[1:-1, 1:-1].copy()


@dataclass(frozen=True, eq=False)
class PlanningMaps:
    """The read-only maps every plan on one map version searches: the
    inflated static grid (world.planning_occupancy, a bool array of
    world.CELL_SIZE cells), the route deviation field
    (route_deviation_field) of the same shape, and in `fields` the
    cost-to-goal fields plans searched: the static grid's per (goal x,
    goal y), stored by the first plan that searches it, and at most one
    stamped grid's, the last a plan searched, under (goal x, goal y, the
    bytes of the flat indices where that grid differs from `grid`), the
    inputs it is a pure function of. A plan that stamps other cells
    replaces that entry, so the maps hold one stamped field however many
    seeds stamp their own. `initial_plans` keeps the PlanAttempt of an
    episode's tick-0 plan, which reads no LDM content, per the bits of its
    start pose, start steering and goal; the harness fills and reads it. An
    all-zero deviation field prices no deviation."""

    grid: np.ndarray
    deviation: np.ndarray
    fields: dict = field(init=False, repr=False, default_factory=dict)
    initial_plans: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if self.deviation.shape != self.grid.shape:
            raise ValueError(f"deviation: shape {self.deviation.shape} != "
                             f"planning grid shape {self.grid.shape}")
        # an arc is free iff its summed cost is finite, and a negative
        # deviation would give the cost-to-goal Dijkstra negative steps
        if not (np.isfinite(self.deviation) & (self.deviation >= 0.0)).all():
            raise ValueError("deviation: must be finite and >= 0 everywhere")
        self.grid.setflags(write=False)
        self.deviation.setflags(write=False)


# ---------------------------------------------------------------------------
# hybrid A*


def _primitives():
    """Body-frame arc samples per steering value; reused across expansions.
    Samples lie at most 0.8 * CELL_SIZE apart, closer than one grid cell."""
    steers = np.linspace(-MAX_STEER, MAX_STEER, STEERING_SAMPLES)
    arc = PRIMITIVE_ARC_LENGTH
    substep = max(2, int(math.ceil(arc / (0.8 * CELL_SIZE))))
    s = np.linspace(arc / substep, arc, substep)
    pts = np.zeros((len(steers), substep, 2))
    dthetas = np.zeros((len(steers), substep))
    for i, steer in enumerate(steers):
        kappa = math.tan(steer) / WHEELBASE
        if abs(kappa) < 1e-12:
            pts[i, :, 0] = s
        else:
            pts[i, :, 0] = np.sin(kappa * s) / kappa
            pts[i, :, 1] = (1.0 - np.cos(kappa * s)) / kappa
        dthetas[i] = kappa * s
    return steers, pts, dthetas


def _rotate(prim_pts: np.ndarray, th: float) -> np.ndarray:
    """Body-frame primitives turned to heading `th`, not yet placed."""
    c, s = math.cos(th), math.sin(th)
    rot = np.array([[c, -s], [s, c]])
    return prim_pts @ rot.T


def _arcs_from(rotated: np.ndarray, x: float, y: float) -> np.ndarray:
    """World-frame samples of every primitive from (x, y), given the
    primitives `_rotate`d to the pose's heading.

    The one place a primitive is placed in the world: the search places
    its memoized rotations with it and the path rebuild places a fresh
    `_rotate` of the same heading, so a rebuilt arc has the search's
    exact bits.
    """
    return rotated + (x, y)


def plan(start_pose, goal_pose, ldm: LdmState, cause: str, maps: PlanningMaps,
         start_steering: float) -> PlanAttempt:
    """Search a drivable path and attach its target speed profile.

    obstacle_grid stamps the LDM into `maps.grid`, and `maps.deviation`
    prices distance from the route reference so the optimum keeps the lane
    instead of cutting it. When the stamp blocks no cell beyond
    `maps.grid`, the search reads the static grid's cost-to-goal field
    for the goal from `maps.fields`, building and storing it on the first
    such plan; when tracks or accepted events do block cells, it reads
    cost_to_goal_field of that stamped grid from `maps.fields` if the last
    stamped plan toward this goal blocked the same cells, and otherwise
    builds it there in place of the kept stamped one. Either field is
    read-only. The time of a build is the attempt's heuristic_ms, inside
    its cpu_ms; a hit reads 0. A node is
    pushed with HEURISTIC_WEIGHT * max(its Euclidean distance to the goal,
    the field at its cell), and a node whose cell reads inf is not pushed.
    Returns a failed attempt (trajectory None) when the goal is unreachable
    within MAX_EXPANSIONS expansions, never counting more than it made; the
    caller is expected to fall back to a minimum-safety stop.

    The grid is read through one cost table per plan: the deviation on
    free cells, inf on blocked ones and on a border row and column. An
    arc sample's cell index is clamped onto that border, so one lookup
    and one row sum per node give every arc's bounds, occupancy and
    deviation sum, and an arc is free iff its sum is finite; only a free
    arc's end cell is then read in the field. The primitives turned to a
    heading are memoized by that exact heading, so placing them is one
    addition. A node stores its parent and steer index, not its arc: arc
    samples are rebuilt only for the nodes of the returned path.
    """
    t0 = time.perf_counter()
    sx, sy, sth = float(start_pose[0]), float(start_pose[1]), float(start_pose[2])
    gx, gy, gth = float(goal_pose[0]), float(goal_pose[1]), float(goal_pose[2])
    cells = obstacle_grid(ldm, base=maps.grid, start_xy=(sx, sy))
    ny, nx = cells.shape
    stamp = np.flatnonzero(cells != maps.grid)
    field_key = (gx, gy)
    if stamp.size:
        field_key += (stamp.tobytes(),)
    kept = maps.fields
    cost_to_goal = kept.get(field_key)
    heuristic_ms = 0.0
    if cost_to_goal is None:
        t_field = time.perf_counter()
        cost_to_goal = cost_to_goal_field(cells, maps.deviation, (gx, gy),
                                          LATERAL_WEIGHT)
        heuristic_ms = (time.perf_counter() - t_field) * 1000.0
        cost_to_goal.setflags(write=False)
        if stamp.size:              # one stamped field per PlanningMaps
            for key in [key for key in kept if len(key) == 3]:
                del kept[key]
        kept[field_key] = cost_to_goal
    inv_res = 1.0 / CELL_SIZE
    bin_size = TWO_PI / HEADING_BINS
    n_bins = HEADING_BINS
    hw = HEURISTIC_WEIGHT
    goal_xy_tol, goal_heading_tol = GOAL_XY_TOL, GOAL_HEADING_TOL
    max_expansions = MAX_EXPANSIONS

    steers, prim_pts, prim_dth = _primitives()
    substep = prim_pts.shape[1]
    arc = PRIMITIVE_ARC_LENGTH
    # per-plan constants, each evaluated in the order the per-push cost is
    # summed: arc + steering change, then + (LATERAL_WEIGHT * arc) * deviation
    step_cost = (arc + STEERING_CHANGE_WEIGHT
                 * np.abs(steers[None, :] - steers[:, None])).tolist()
    lateral_arc = LATERAL_WEIGHT * arc
    end_dth = prim_dth[:, -1].tolist()
    # cost table: the deviation on free cells, inf on blocked cells and on
    # one border row and column past the far edges. A cell index clamped
    # into [-1, n] lands on that border: an index of n directly, one of -1
    # by wrapping round, as negative indices do in `take`
    inf = math.inf
    table = np.full((ny + 1, nx + 1), inf)
    table[:ny, :nx] = np.where(cells, inf, maps.deviation)
    flat_table = table.ravel()
    upper = np.array([float(nx), float(ny)])
    flat_stride = np.array([1, nx + 1])
    rotations: dict = {}            # heading -> _rotate(prim_pts, heading)
    # a free arc ends inside the grid, so its end cell reads the field as is
    to_goal_at = cost_to_goal.item

    # node storage: parallel lists, parent links by index. A node's index
    # is also its push order, so heap ties go to the first pushed
    xs = [sx]; ys = [sy]; ths = [sth]; gs = [0.0]
    steer_idx = [int(np.argmin(np.abs(steers - start_steering)))]
    parents = [-1]

    open_heap = [(0.0, 0)]          # the start pops first, whatever its priority
    closed: set = set()
    expansions = 0
    goal_node = -1
    heappush, heappop, hypot, floor = heapq.heappush, heapq.heappop, math.hypot, np.floor
    maximum, minimum, copysign, intp = np.maximum, np.minimum, math.copysign, np.intp

    while open_heap:
        ni = heappop(open_heap)[1]
        x, y, th = xs[ni], ys[ni], ths[ni]
        key = (int(x * inv_res), int(y * inv_res),
               int(((th % TWO_PI) / bin_size)) % n_bins)
        if key in closed:
            continue
        closed.add(key)

        if (hypot(gx - x, gy - y) <= goal_xy_tol
                and abs(wrap_angle(th - gth)) <= goal_heading_tol):
            goal_node = ni
            break
        if expansions >= max_expansions:
            break
        expansions += 1

        # 0.0 and -0.0 are one dict key but turn the primitives to
        # different zero signs, so -0.0 gets a key of its own
        hkey = th if th or copysign(1.0, th) > 0.0 else "-0.0"
        rotated = rotations.get(hkey)
        if rotated is None:
            rotated = rotations[hkey] = _rotate(prim_pts, th)
        world = _arcs_from(rotated, x, y)
        idx = world * inv_res
        floor(idx, out=idx)
        maximum(idx, -1.0, out=idx)
        minimum(idx, upper, out=idx)
        # the row sum adds each arc's deviations in the order
        # ndarray.mean does
        sums = flat_table.take(idx.astype(intp) @ flat_stride).sum(axis=1).tolist()
        ends = world[:, -1].tolist()
        costs = step_cost[steer_idx[ni]]
        g = gs[ni]
        for si, total in enumerate(sums):
            if total == inf:
                continue
            ex, ey = ends[si]
            th_new = th + end_dth[si]
            cx, cy = int(ex * inv_res), int(ey * inv_res)
            if (cx, cy, int(((th_new % TWO_PI) / bin_size)) % n_bins) in closed:
                continue
            h = to_goal_at(cy, cx)
            if h == inf:                # the end cannot reach the goal
                continue
            g_new = g + (costs[si] + lateral_arc * (total / substep))
            e = hypot(gx - ex, gy - ey)
            heappush(open_heap, (g_new + hw * (h if h > e else e), len(xs)))
            xs.append(ex); ys.append(ey); ths.append(th_new); gs.append(g_new)
            steer_idx.append(si); parents.append(ni)

    cpu_ms = (time.perf_counter() - t0) * 1000.0
    if goal_node < 0:
        return PlanAttempt(trajectory=None, expansions=expansions,
                           cpu_ms=cpu_ms, cause=cause, heuristic_ms=heuristic_ms)

    chain = []
    ni = goal_node
    while ni > 0:
        chain.append(ni)
        ni = parents[ni]
    chain.reverse()

    blocks = [np.array([[sx, sy, sth]])]
    if not chain:    # the start meets the goal: the zero-length path to itself
        blocks *= 2
    for ni in chain:
        pi, si = parents[ni], steer_idx[ni]
        pts = _arcs_from(_rotate(prim_pts, ths[pi]), xs[pi], ys[pi])[si]
        blocks.append(np.column_stack([pts, ths[pi] + prim_dth[si]]))
    poses = np.concatenate(blocks)
    traj = Trajectory(poses=poses, target_speeds=np.full(len(poses), CRUISE_SPEED),
                      planned_on_version=ldm.active_map.version_id,
                      planned_at=ldm.stamp)
    traj = attach_speed_profile(traj, ldm)
    cpu_ms = (time.perf_counter() - t0) * 1000.0
    return PlanAttempt(trajectory=traj, expansions=expansions, cpu_ms=cpu_ms,
                       cause=cause, heuristic_ms=heuristic_ms)


def attach_speed_profile(traj: Trajectory, ldm: LdmState) -> Trajectory:
    """Cruise profile with a goal ramp and slowdowns at accepted hazards.

    Near an accepted hazard the target dips to PASS_SPEED across a slowdown
    envelope; if the hazard actually sits on the path (closer than the
    summed radii) the target goes to zero instead, since there is nothing
    to pass it by.
    """
    s_axis = traj.path.cumlength
    speeds = np.full(len(s_axis), CRUISE_SPEED)

    total = traj.path.length
    ramp = np.clip((total - s_axis) / GOAL_RAMP_DISTANCE, 0.0, 1.0)
    speeds = np.minimum(speeds, CRUISE_SPEED * ramp)

    envelope = SLOWDOWN_MARGIN * CRUISE_SPEED ** 2 / (2.0 * COMFORT_DECEL)
    xy = traj.poses[:, :2]
    for ev in ldm.accepted_events():
        d = np.hypot(xy[:, 0] - ev.position[0], xy[:, 1] - ev.position[1])
        i_min = int(np.argmin(d))
        d_min = float(d[i_min])
        radius = EVENT_RADIUS[ev.kind]
        corridor = radius + TRACK_RADIUS + COLLISION_RADIUS + 2.0
        if d_min > corridor:
            continue
        blocked = d_min < radius + COLLISION_RADIUS
        floor = 0.0 if blocked else PASS_SPEED
        s_h = float(s_axis[i_min])
        local = np.full(len(s_axis), CRUISE_SPEED)
        before = s_axis <= s_h
        frac = np.clip((s_h - s_axis[before]) / envelope, 0.0, 1.0)
        local[before] = floor + (CRUISE_SPEED - floor) * frac
        holding = (s_axis > s_h) & (s_axis <= s_h + 2.0 * radius + 4.0)
        local[holding] = floor
        speeds = np.minimum(speeds, local)

    return replace(traj, target_speeds=speeds)


# ---------------------------------------------------------------------------
# risk and triggers


ROLLOUT_DT = 0.01                     # [s] the risk rollout's time step


@functools.lru_cache(maxsize=8)
def _rollout_times(horizon: float) -> np.ndarray:
    """The rollout's sample times, 0 to horizon every ROLLOUT_DT; read-only,
    and built once per horizon rather than on every tick."""
    taus = np.arange(0.0, horizon + ROLLOUT_DT * 0.5, ROLLOUT_DT)
    taus.setflags(write=False)
    return taus


def ttc_min(ego_state, traj: Trajectory, s_plan: float, tracks, horizon: float,
            collision_radius: float, track_radius: float) -> float:
    """Earliest collision time under a constant-velocity rollout.

    The ego slides along the plan prefix at its current speed from `s_plan`,
    its arc length along `traj`; each of `tracks` (the episode loop passes
    unexplained_tracks, the confident ones) extrapolates linearly. Returns
    inf when no pair closes within the horizon. A track that cannot come
    within reach of the ego's path is not rolled out: it could not hit.
    """
    if not tracks:
        return math.inf
    v = max(float(ego_state.speed), 0.0)
    taus = _rollout_times(horizon)
    reach = collision_radius + track_radius + 1e-9
    cum, length, t_end = traj.path.cumlength, traj.path.length, float(taus[-1])

    # The ego's samples stay in the box of the poses around its arc lengths
    # [s_plan, s_plan + v * t_end], and a track's on the segment from its
    # first sample to its last. A track whose segment lies farther than
    # `reach` from the box along x or y cannot hit (the slack is far above
    # the rounding of np.interp and of the samples), so only the others
    # are rolled out.
    # np.searchsorted(cum, ...) over the Python copy of cum
    knots = traj.path._cum
    first = bisect.bisect_left(knots, min(s_plan, length))
    last = bisect.bisect_left(knots, min(s_plan + v * t_end, length))
    box = slice(max(first - 2, 0), last + 2)
    xs, ys = traj.path._xs[box], traj.path._ys[box]
    bx0, by0, bx1, by1 = min(xs), min(ys), max(xs), max(ys)
    scale = 1.0 + max(abs(bx0), abs(by0), abs(bx1), abs(by1))
    near = []
    for tr in tracks:
        (x0, y0), (vx, vy) = tr.position, tr.velocity
        x1, y1 = x0 + vx * t_end, y0 + vy * t_end
        gap = max(bx0 - max(x0, x1), min(x0, x1) - bx1, by0 - max(y0, y1), min(y0, y1) - by1)
        if not gap > reach + 1e-9 * (scale + abs(x0) + abs(y0) + abs(x1) + abs(y1)):
            near.append(tr)
    if not near:
        return math.inf

    s_grid = np.minimum(s_plan + v * taus, length)
    ex = np.interp(s_grid, cum, traj.poses[:, 0])
    ey = np.interp(s_grid, cum, traj.poses[:, 1])
    best = math.inf
    for tr in near:
        px = tr.position[0] + tr.velocity[0] * taus
        py = tr.position[1] + tr.velocity[1] * taus
        dist = np.hypot(ex - px, ey - py)
        hits = np.nonzero(dist < reach)[0]
        if hits.size:
            best = min(best, float(taus[hits[0]]))
    return best


def check_triggers(ldm: LdmState, traj: Trajectory, s_plan: float,
                   trig: TriggerConfig, risk_ttc: float) -> list[str]:
    """Evaluate the three replan conditions on the plan being driven; pure,
    no side effects.

    hazard_on_route fires for an event that projects onto `traj` within
    [s_plan, s_plan + HAZARD_LOOKAHEAD] of arc length and HAZARD_CORRIDOR
    of it laterally, `s_plan` being the ego's arc length along `traj`. It
    fires only for events accepted after the plan was made, so one
    acceptance causes one replan rather than one per tick. `risk_ttc` is
    the tick's rollout TTC (ttc_min over the unexplained tracks), which the
    caller also logs.
    """
    fired: list[str] = []
    for ev in ldm.accepted_events():
        if ev.accepted_at is None or ev.accepted_at <= traj.planned_at:
            continue
        s, lateral, _ = traj.path.project(ev.position)
        if s_plan <= s <= s_plan + HAZARD_LOOKAHEAD and abs(lateral) <= HAZARD_CORRIDOR:
            fired.append(HAZARD_ON_ROUTE)
            break
    if risk_ttc < trig.tau_risk:
        fired.append(RISK_THRESHOLD)
    if ldm.active_map.version_id != traj.planned_on_version:
        fired.append(KNOWLEDGE_CHANGE)
    return fired
