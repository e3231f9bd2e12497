"""Arc-expansion search, obstacle stamping, risk rollout, replan triggers."""

import heapq
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grids import corridor_map, empty_grid, occupied_at
from oracles import route_deviation_everywhere
from v2xloop import planner, world
from v2xloop.ldm import ACCEPTED, EventHypothesis, Track, initial_state
from v2xloop.planner import (EVENT_RADIUS, HAZARD_ON_ROUTE, KNOWLEDGE_CHANGE,
                             OCTILE_SCALE, PlanAttempt,
                             PlanningMaps,
                             RISK_THRESHOLD, TWO_PI, Trajectory, TriggerConfig,
                             _primitives,
                             attach_speed_profile, check_triggers,
                             cost_to_goal_field, obstacle_grid, plan,
                             route_deviation_field, ttc_min, unexplained_tracks)
from v2xloop.scenarios import (SCENARIO_IDS, build_s1, build_scenario, spec_from_dict,
                                spec_to_dict)
from v2xloop.vehicle import COLLISION_RADIUS, MAX_CURVATURE, VehicleState
from v2xloop.world import (CELL_SIZE, LaneSegment, MapVersion, Polyline, Route, inflate,
                           planning_occupancy, wrap_angle)

TRIG = TriggerConfig()

ROAD_MAP = corridor_map(
    [LaneSegment("r", [[0.0, 10.0], [100.0, 10.0]], half_width=5.0)], 100.0, 20.0)
ROAD = ROAD_MAP.initial()
# the static planning grid the episode loop passes to `plan` on ROAD
ROAD_BASE = planning_occupancy(ROAD_MAP, ROAD, COLLISION_RADIUS)
ROUTE = Route(reference_path=np.array([[2.0, 10.0], [95.0, 10.0]]),
              goal_pose=(95.0, 10.0, 0.0))


def _ldm(tracks=(), events=()):
    state = initial_state(ROAD)
    state.objects.extend(tracks)
    state.events.extend(events)
    return state


def _track(tid, pos, vel=(0.0, 0.0), belief=0.8):
    return Track(track_id=tid, position=pos, velocity=vel, belief=belief,
                 last_update=0.0)


def _event(pos, kind="stationary_vehicle", accepted_at=1.0):
    return EventHypothesis(event_id="E1", kind=kind, position=pos,
                           first_seen=0.5, status=ACCEPTED,
                           accepted_at=accepted_at)


def _ego(x=2.0, y=10.0, heading=0.0, speed=8.0):
    return VehicleState(x=x, y=y, heading=heading, speed=speed)


def _maps(base=ROAD_BASE, deviation_field=None):
    """Fresh PlanningMaps over the static grid `base`; no deviation field
    prices no deviation."""
    if deviation_field is None:
        deviation_field = np.zeros(base.shape)
    return PlanningMaps(base, deviation_field)


def _plan(start, ldm, cause="initial", start_steering=0.0,
          deviation_field=None, goal=ROUTE.goal_pose, maps=None):
    """`plan` with `maps`, or with fresh `_maps` of ROAD."""
    if maps is None:
        maps = _maps(ROAD_BASE, deviation_field)
    return plan(start, goal, ldm, cause, maps, start_steering)


def _static(maps):
    """The static grid's cost-to-goal fields among `maps.fields`."""
    return {key: f for key, f in maps.fields.items() if len(key) == 2}


def _stamped(maps):
    """The stamped grids' cost-to-goal fields among `maps.fields`."""
    return {key: f for key, f in maps.fields.items() if len(key) == 3}


def _grid(ldm, start_xy=ROUTE.reference_path.points[0], base=ROAD_BASE):
    return obstacle_grid(ldm, base, start_xy)


def _check_plan(attempt, goal):
    assert attempt.succeeded
    traj = attempt.trajectory
    end = traj.poses[-1]
    assert math.hypot(end[0] - goal[0], end[1] - goal[1]) <= planner.GOAL_XY_TOL + 1e-9
    return traj


# ---------------------------------------------------------------------------
# search


def test_plan_straight_corridor():
    attempt = _plan((2.0, 10.0, 0.0), _ldm())
    traj = _check_plan(attempt, (95.0, 10.0))
    assert attempt.cause == "initial"
    assert attempt.expansions < 500     # weighted heuristic keeps this tight
    # stays near the centerline the whole way
    assert float(np.max(np.abs(traj.poses[:, 1] - 10.0))) < 1.5


def test_plan_respects_curvature_bound():
    attempt = _plan((2.0, 10.0, 0.0), _ldm())
    poses = attempt.trajectory.poses
    d = np.diff(poses[:, :2], axis=0)
    ds = np.hypot(d[:, 0], d[:, 1])
    dh = np.abs(np.diff(np.unwrap(poses[:, 2])))
    mask = ds > 1e-9
    assert np.all(dh[mask] / ds[mask] <= MAX_CURVATURE * (1.0 + 1e-6))


def test_plan_poses_collision_free():
    ldm = _ldm(tracks=[_track("T1", (40.0, 10.0))])
    attempt = _plan((2.0, 10.0, 0.0), ldm)
    traj = _check_plan(attempt, (95.0, 10.0))
    grid = _grid(ldm, start_xy=(2.0, 10.0))
    for x, y, _ in traj.poses:
        assert not occupied_at(grid, x, y)
    # the path actually deviates around the stamped track
    d = np.hypot(traj.poses[:, 0] - 40.0, traj.poses[:, 1] - 10.0)
    assert float(d.min()) >= planner.TRACK_RADIUS + COLLISION_RADIUS - 0.5


def test_plan_reports_failure_when_goal_unreachable():
    # a wall of confident tracks seals the corridor
    wall = [_track(f"T{i}", (50.0, 5.5 + i * 1.5)) for i in range(7)]
    attempt = _plan((2.0, 10.0, 0.0), _ldm(tracks=wall), cause="risk_threshold")
    assert not attempt.succeeded
    assert attempt.trajectory is None
    assert attempt.cause == "risk_threshold"


def test_plan_arc_lengths_monotone_and_consistent():
    attempt = _plan((2.0, 10.0, 0.0), _ldm())
    traj = attempt.trajectory
    assert np.all(np.diff(traj.path.cumlength) >= 0.0)
    seg = np.hypot(*np.diff(traj.poses[:, :2], axis=0).T)
    assert np.allclose(np.diff(traj.path.cumlength), seg)
    assert traj.path.length == pytest.approx(float(seg.sum()))


def test_planning_maps_reject_a_deviation_field_of_another_shape():
    with pytest.raises(ValueError, match="^deviation: shape"):
        PlanningMaps(ROAD_BASE, np.zeros((3, 3)))


def test_planning_maps_reject_a_negative_or_non_finite_deviation_field():
    # an arc is free iff its summed cost is finite, so the field must be;
    # a negative deviation would give the cost-to-goal field negative steps
    base = ROAD_BASE
    for bad in (math.inf, math.nan, -1.0):
        field = np.zeros(base.shape)
        field[3, 4] = bad
        with pytest.raises(ValueError, match="^deviation: must be finite"):
            PlanningMaps(base, field)


def test_plan_pushes_no_node_the_static_map_cuts_off_from_the_goal():
    # a wall across the whole road: every free cell on the start's side
    # reads inf, so the start's arcs are all dropped and the search ends
    # after expanding the start alone
    ldm, base = _open_ldm([(14.0, 16.0, 0.0, 20.0)])
    goal = (25.0, 10.0, 0.0)
    maps = _maps(base)
    attempt = _plan((5.0, 10.0, 0.0), ldm, goal=goal, maps=maps)
    to_goal = maps.fields[goal[:2]]
    assert math.isinf(to_goal[20, 10]) and to_goal[20, 50] == 0.0
    assert not attempt.succeeded
    assert attempt.expansions == 1


def _counting_field_builds(monkeypatch):
    """Rebind the `cost_to_goal_field` that `plan` calls so that each call
    records the field it returns, and return that record."""
    built = []

    def counted(*args):
        built.append(cost_to_goal_field(*args))
        return built[-1]

    monkeypatch.setattr(planner, "cost_to_goal_field", counted)
    return built


def test_only_a_stamped_plan_builds_a_field_of_its_own(monkeypatch):
    maps = _maps()
    key = ROUTE.goal_pose[:2]
    built = _counting_field_builds(monkeypatch)

    def stored():
        # the memo holds exactly the first unstamped plan's static field
        return list(_static(maps)) == [key] and maps.fields[key] is built[0]

    # the first unstamped plan builds the static field and stores it
    first = _plan((2.0, 10.0, 0.0), _ldm(), maps=maps)
    assert first.succeeded and len(built) == 1 and stored()
    assert 0.0 < first.heuristic_ms <= first.cpu_ms
    with pytest.raises(ValueError, match="read-only"):
        built[0][0, 0] = 0.0
    # the next one reads it
    second = _plan((2.0, 10.0, 0.0), _ldm(), maps=maps)
    assert len(built) == 1 and second.heuristic_ms == 0.0
    assert second.trajectory.poses.tobytes() == first.trajectory.poses.tobytes()
    # a stamped plan builds a field of its own and keeps it under its
    # stamp, never under a static field's key
    stamped = _plan((2.0, 10.0, 0.0), _ldm(events=[_event((40.0, 10.0))]),
                    maps=maps)
    assert stamped.succeeded and len(built) == 2 and stored()
    assert 0.0 < stamped.heuristic_ms <= stamped.cpu_ms
    assert list(_stamped(maps).values()) == [built[1]]
    # a stamp that blocks only cells the static map already blocks is no
    # stamp: this track's disk lies wholly off the road, below y = 5
    edge = _ldm(tracks=[_track("T1", (40.0, 1.0))])
    assert occupied_at(_grid(edge), 40.0, 1.0)
    assert np.array_equal(_grid(edge), ROAD_BASE)
    on_edge = _plan((2.0, 10.0, 0.0), edge, maps=maps)
    assert on_edge.succeeded and on_edge.heuristic_ms == 0.0
    assert len(built) == 2 and stored()
    assert list(_stamped(maps).values()) == [built[1]]


def _stamp_key(ldm, start_xy=(2.0, 10.0), goal=ROUTE.goal_pose):
    """The key a stamped plan on `_maps()` keeps its field under."""
    stamp = np.flatnonzero(_grid(ldm, start_xy) != ROAD_BASE)
    return (*goal[:2], stamp.tobytes())


def test_plans_that_stamp_the_same_cells_share_one_field(monkeypatch):
    maps = _maps()
    built = _counting_field_builds(monkeypatch)
    hazard = _ldm(events=[_event((40.0, 10.0))])
    first = _plan((2.0, 10.0, 0.0), hazard, maps=maps)
    assert first.succeeded and first.heuristic_ms > 0.0
    assert len(built) == 1 and not _static(maps)    # no static field is built
    assert set(maps.fields) == {_stamp_key(hazard)}
    # the same stamp from another start and another LDM object: one build
    again = _plan((6.0, 10.4, 0.05), _ldm(events=[_event((40.0, 10.0))]), maps=maps)
    assert len(built) == 1 and again.heuristic_ms == 0.0
    assert maps.fields[_stamp_key(hazard)] is built[0]
    with pytest.raises(ValueError, match="read-only"):
        built[0][0, 0] = 0.0
    # a hit searches exactly as a rebuild would
    cold = _plan((6.0, 10.4, 0.05), hazard)
    assert cold.heuristic_ms > 0.0
    assert again.trajectory.poses.tobytes() == cold.trajectory.poses.tobytes()
    assert again.trajectory.target_speeds.tobytes() == \
        cold.trajectory.target_speeds.tobytes()
    assert again.expansions == cold.expansions


def test_another_stamp_replaces_the_kept_field(monkeypatch):
    maps = _maps()
    assert _plan((2.0, 10.0, 0.0), _ldm(), maps=maps).succeeded
    static = _static(maps)
    built = _counting_field_builds(monkeypatch)
    for x in (40.0, 60.0, 40.0):
        ldm = _ldm(events=[_event((x, 10.0))])
        attempt = _plan((2.0, 10.0, 0.0), ldm, maps=maps)
        # each stamp differs from the one kept before it, so each builds,
        # and the maps hold only the newest stamped field
        assert attempt.heuristic_ms > 0.0
        assert _stamped(maps) == {_stamp_key(ldm): built[-1]}
    # another goal over the same stamp is another field
    goal = (90.0, 10.0, 0.0)
    _plan((2.0, 10.0, 0.0), ldm, goal=goal, maps=maps)
    assert _stamped(maps) == {_stamp_key(ldm, goal=goal): built[-1]}
    assert len(built) == 4
    # the static fields are untouched throughout
    assert _static(maps) == static and all(maps.fields[k] is v for k, v in static.items())


@settings(max_examples=40, deadline=None)
@given(events=st.lists(st.tuples(st.sampled_from(sorted(EVENT_RADIUS)),
                                 st.floats(5.0, 95.0), st.floats(0.0, 20.0)),
                       max_size=2),
       tracks=st.lists(st.tuples(st.floats(5.0, 95.0), st.floats(0.0, 20.0),
                                 st.floats(0.3, 0.9)), max_size=2),
       start_x=st.floats(2.0, 60.0))
def test_a_stamped_plan_searches_the_field_of_the_stamped_grid(events, tracks,
                                                               start_x):
    ldm = _ldm(tracks=[_track(f"T{i}", (x, y), belief=b)
                       for i, (x, y, b) in enumerate(tracks)],
               events=[replace(_event((x, y), kind), event_id=f"E{i}")
                       for i, (kind, x, y) in enumerate(events)])
    base = ROAD_BASE
    deviation = route_deviation_field(base, ROUTE.reference_path)
    start = (start_x, 10.0, 0.0)
    grid = obstacle_grid(ldm, base, start[:2])
    want = cost_to_goal_field(grid, deviation, ROUTE.goal_pose[:2], planner.LATERAL_WEIGHT)
    maps = PlanningMaps(base, deviation)
    with pytest.MonkeyPatch.context() as mp:
        built = _counting_field_builds(mp)
        mp.setattr(planner, "MAX_EXPANSIONS", 30)
        _plan(start, ldm, maps=maps)
    # one field, stored under the goal when it is the static grid's and
    # under the goal and the stamp otherwise
    assert len(built) == 1
    assert bool(_static(maps)) == np.array_equal(grid, base)
    assert bool(_stamped(maps)) != bool(_static(maps))
    got = built[0]
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# bit-identity against the per-steer search loop


def _reference_plan(start_pose, goal_pose, ldm, cause, base_grid, start_steering,
                    cost_to_goal, deviation_field=None):
    """The search as first written: one lookup per steering sample and one
    stored arc per pushed node, with the heuristic read at each arc's end
    cell from `cost_to_goal`, the field of the grid obstacle_grid returns.
    It reads the planner's search settings when it runs, as `plan` does.
    `plan` must reproduce it bit for bit; with no deviation field it must
    equal `plan` given an all-zero one."""
    sx, sy, sth = float(start_pose[0]), float(start_pose[1]), float(start_pose[2])
    gx, gy, gth = float(goal_pose[0]), float(goal_pose[1]), float(goal_pose[2])
    cells = obstacle_grid(ldm, base=base_grid, start_xy=(sx, sy))
    ny, nx = cells.shape
    inv_res = 1.0 / CELL_SIZE
    bin_size = TWO_PI / planner.HEADING_BINS
    hw = planner.HEURISTIC_WEIGHT

    steers, prim_pts, prim_dth = _primitives()
    n_steer = len(steers)
    arc = planner.PRIMITIVE_ARC_LENGTH

    xs = [sx]; ys = [sy]; ths = [sth]; gs = [0.0]
    steer_idx = [int(np.argmin(np.abs(steers - start_steering)))]
    parents = [-1]
    arcs: list = [None]

    open_heap = [(hw * math.hypot(gx - sx, gy - sy), 0, 0)]
    closed: set = set()
    push_count = 1
    expansions = 0
    goal_node = -1

    def bin_key(x, y, th):
        return (int(x * inv_res), int(y * inv_res),
                int(((th % TWO_PI) / bin_size)) % planner.HEADING_BINS)

    while open_heap:
        f, _, ni = heapq.heappop(open_heap)
        x, y, th = xs[ni], ys[ni], ths[ni]
        key = bin_key(x, y, th)
        if key in closed:
            continue
        closed.add(key)

        if (math.hypot(gx - x, gy - y) <= planner.GOAL_XY_TOL
                and abs(wrap_angle(th - gth)) <= planner.GOAL_HEADING_TOL):
            goal_node = ni
            break
        if expansions >= planner.MAX_EXPANSIONS:
            break
        expansions += 1

        c, s = math.cos(th), math.sin(th)
        rot = np.array([[c, -s], [s, c]])
        world = prim_pts @ rot.T
        world[:, :, 0] += x
        world[:, :, 1] += y
        ix = np.floor(world[:, :, 0] * inv_res).astype(np.int64)
        iy = np.floor(world[:, :, 1] * inv_res).astype(np.int64)
        inb = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)

        for si in range(n_steer):
            if not inb[si].all():
                continue
            if cells[iy[si], ix[si]].any():
                continue
            end = world[si, -1]
            th_new = th + prim_dth[si, -1]
            cost = arc + planner.STEERING_CHANGE_WEIGHT * abs(steers[si] - steers[steer_idx[ni]])
            if deviation_field is not None:
                cost += planner.LATERAL_WEIGHT * arc * \
                    float(deviation_field[iy[si], ix[si]].mean())
            g_new = gs[ni] + cost
            if bin_key(end[0], end[1], th_new) in closed:
                continue
            to_goal = float(cost_to_goal[iy[si, -1], ix[si, -1]])
            if to_goal == math.inf:         # the end cannot reach the goal
                continue
            xs.append(float(end[0])); ys.append(float(end[1]))
            ths.append(float(th_new)); gs.append(g_new)
            steer_idx.append(si); parents.append(ni)
            arcs.append((world[si].copy(), th + prim_dth[si]))
            h = max(math.hypot(gx - end[0], gy - end[1]), to_goal)
            heapq.heappush(open_heap, (g_new + hw * h, push_count, len(xs) - 1))
            push_count += 1

    if goal_node < 0:
        return PlanAttempt(trajectory=None, expansions=expansions, cpu_ms=0.0,
                           cause=cause)

    chain = []
    ni = goal_node
    while ni >= 0:
        chain.append(ni)
        ni = parents[ni]
    chain.reverse()

    pose_rows = [(sx, sy, sth)]
    for ni in chain[1:]:
        pts, dth = arcs[ni]
        for j in range(pts.shape[0]):
            pose_rows.append((float(pts[j, 0]), float(pts[j, 1]), float(dth[j])))
    if len(pose_rows) == 1:    # the start meets the goal
        pose_rows *= 2
    poses = np.array(pose_rows)
    traj = Trajectory(poses=poses, target_speeds=np.full(len(poses), planner.CRUISE_SPEED),
                      planned_on_version=ldm.active_map.version_id,
                      planned_at=ldm.stamp)
    traj = attach_speed_profile(traj, ldm)
    return PlanAttempt(trajectory=traj, expansions=expansions, cpu_ms=0.0,
                       cause=cause)


def _random_corridor(rng, near_edge: bool):
    """Random S-bend on a 100 x 100 m map with up to two parked tracks, built
    like the acceptance planner instances, and its static planning grid.
    With `near_edge` the lane starts on the map's left edge, whose cells it
    leaves free, and the start sits within 2 m of it, so some arcs leave the
    grid through free cells."""
    y0 = float(rng.uniform(20.0, 80.0))
    amp = float(rng.uniform(0.0, 6.0))
    xs = np.arange(0.0 if near_edge else 4.0, 96.0 + 1e-9, 2.0)
    ys = y0 + amp * np.sin(2.0 * math.pi * (xs - 4.0) / 92.0)
    line = np.column_stack([xs, ys])
    vmap = corridor_map([LaneSegment("lane", line.tolist(), half_width=5.0)], 100.0, 100.0)

    def pose_at(i):
        dx, dy = line[i + 1] - line[i]
        return float(xs[i]), float(ys[i]), math.atan2(dy, dx)

    if near_edge:
        x = float(rng.uniform(0.2, 2.0))
        start = (x, float(np.interp(x, xs, ys)), float(rng.uniform(-2.0, 2.0)))
    else:
        start = pose_at(1)
    goal = pose_at(len(xs) - 2)
    ldm = initial_state(vmap.initial())
    slots = [(25.0, 45.0), (57.0, 77.0)]
    for j in range(int(rng.integers(0, 3))):
        tx = float(rng.uniform(*slots[j]))
        ty = float(np.interp(tx, xs, ys)) + (2.0 if j % 2 == 0 else -2.0)
        ldm.objects.append(_track(f"T{j}", (tx, ty), belief=0.9))
    base = planning_occupancy(vmap, vmap.initial(), COLLISION_RADIUS)
    return start, goal, line, ldm, base


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), with_field=st.booleans(),
       near_edge=st.booleans(),
       budget=st.sampled_from([20, 300, 4000]),
       arc=st.sampled_from([1.7, 2.0, 3.3, 5.0]),
       start_steering=st.sampled_from([0.0, -0.6, 0.3]))
def test_plan_matches_reference_search_bit_for_bit(seed, with_field, near_edge,
                                                    budget, arc, start_steering):
    start, goal, line, ldm, base = _random_corridor(np.random.default_rng(seed), near_edge)
    # on 0.5 m cells these arcs take 5, 5, 9 and 13 samples, on both sides
    # of the 8-element block where numpy's pairwise summation changes form
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "PRIMITIVE_ARC_LENGTH", arc)
        _assert_plan_matches_reference(start, goal, ldm, base, budget, start_steering,
                                       line if with_field else None)


def _assert_plan_matches_reference(start, goal, ldm, base, budget, start_steering=0.0,
                                   line=None):
    """`plan` and `_reference_plan` agree bit for bit on the static grid
    `base`, each with `budget` expansions; a `line` prices the deviation
    from it, no line prices none. `plan` gets fresh planning maps and the
    oracle the field of the stamped grid it searches. Returns `plan`'s
    attempt."""
    field = None if line is None else route_deviation_field(base, Polyline(line))
    deviation = np.zeros(base.shape) if field is None else field
    stamped = obstacle_grid(ldm, base, start[:2])
    searched = cost_to_goal_field(stamped, deviation, goal[:2], planner.LATERAL_WEIGHT)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "MAX_EXPANSIONS", budget)
        got = plan(start, goal, ldm, "initial", PlanningMaps(base, deviation),
                   start_steering)
        want = _reference_plan(start, goal, ldm, "initial", base, start_steering,
                               searched, deviation_field=field)
    assert got.expansions == want.expansions
    assert got.succeeded == want.succeeded
    if want.succeeded:
        assert got.trajectory.poses.tobytes() == want.trajectory.poses.tobytes()
        assert (got.trajectory.target_speeds.tobytes()
                == want.trajectory.target_speeds.tobytes())
        # the arc lengths the trajectory derives are the ones `plan` once
        # computed inline from its poses
        d = np.diff(want.trajectory.poses[:, :2], axis=0)
        arc = np.concatenate([[0.0], np.cumsum(np.hypot(d[:, 0], d[:, 1]))])
        assert got.trajectory.path.cumlength.tobytes() == arc.tobytes()
    return got


def test_reference_oracle_covers_failure_edge_and_success(monkeypatch):
    """The random instances reach every branch the oracle test relies on."""
    rng = np.random.default_rng(7)
    start, goal, line, ldm, base = _random_corridor(rng, near_edge=True)
    monkeypatch.setattr(planner, "MAX_EXPANSIONS", 20)
    assert not _plan(start, ldm, goal=goal, maps=_maps(base)).succeeded
    grid = _grid(ldm, start_xy=start[:2], base=base)
    assert not occupied_at(grid, 0.1, start[1])      # free up to the map edge
    monkeypatch.setattr(planner, "MAX_EXPANSIONS", 4000)
    ok = _plan(start, ldm, goal=goal,
               maps=_maps(base, route_deviation_field(grid, Polyline(line))))
    assert ok.succeeded


# an open 30 x 20 m map, and its middle line
OPEN_MID = np.array([[0.0, 10.0], [30.0, 10.0]])
OPEN_GOAL = (15.0, 10.0, 0.0)


def _open_ldm(blocked=()):
    """`initial_state` of a lane-less version, and the open map with
    `blocked` (x0, x1, y0, y1) boxes, their corners on the 0.5 m cell
    lattice, inflated as its static planning grid."""
    grid = empty_grid(30.0, 20.0)
    for x0, x1, y0, y1 in blocked:
        grid[int(y0 / 0.5):int(y1 / 0.5), int(x0 / 0.5):int(x1 / 0.5)] = True
    return initial_state(MapVersion(0, ())), inflate(grid, COLLISION_RADIUS)


# (x, y, outward heading) 0.4 m inside each side of the open map
NEAR_SIDES = {"left": (0.4, 10.0, math.pi), "right": (29.6, 6.0, 0.0),
              "bottom": (13.0, 0.4, -math.pi / 2), "top": (19.0, 19.6, math.pi / 2)}


@pytest.mark.parametrize("side", NEAR_SIDES)
@pytest.mark.parametrize("turn", [0.0, 1.3, -1.3])
def test_plan_matches_reference_leaving_every_side(side, turn):
    # heading outward, or turned 1.3 rad off it so the search runs along the
    # side: arcs leave the grid through each of its four borders
    x, y, out = NEAR_SIDES[side]
    got = _assert_plan_matches_reference(
        (x, y, out + turn), OPEN_GOAL, *_open_ldm(), 3000, line=OPEN_MID)
    # no cell is blocked, so straight out every arc leaves the grid at
    # once; turned, the straight arc leaves and the inward ones run on
    assert (got.expansions == 1) == (turn == 0.0)


def test_plan_matches_reference_beside_blocked_cells_on_the_border():
    # a wall from each side inward, each touching the grid's edge cells
    walls = [(0.0, 6.0, 4.0, 5.0), (24.0, 30.0, 13.0, 14.0),
             (11.0, 12.0, 0.0, 6.0), (18.0, 19.0, 14.0, 20.0)]
    ldm, base = _open_ldm(walls)
    assert base[:, 0].any() and base[:, -1].any()
    assert base[0].any() and base[-1].any()
    for x, y, out in NEAR_SIDES.values():
        for turn in (0.5, -0.5):
            _assert_plan_matches_reference(
                (x, y, out + turn), OPEN_GOAL, ldm, base, 300, line=OPEN_MID)


@pytest.mark.parametrize("steer", [0.0, 0.3])
def test_plan_matches_reference_from_both_signed_zero_headings(steer):
    for heading in (0.0, -0.0):
        got = _assert_plan_matches_reference(
            (2.0, 10.0, heading), ROUTE.goal_pose, _ldm(), ROAD_BASE, 300, steer,
            ROUTE.reference_path.points)
        assert got.succeeded
        assert math.copysign(1.0, got.trajectory.poses[0, 2]) == \
            math.copysign(1.0, heading)


# ---------------------------------------------------------------------------
# deviation field


def test_route_deviation_field_measures_distance():
    grid = planning_occupancy(ROAD_MAP, ROAD, 0.0)     # the corridor
    fld = route_deviation_field(grid, ROUTE.reference_path)
    assert fld.shape == grid.shape
    assert CELL_SIZE == 0.5
    assert fld[20, 100] < CELL_SIZE                    # the cell of (50, 10)
    assert fld[28, 100] == pytest.approx(4.0, abs=CELL_SIZE)   # of (50, 14)


def _readable(cells):
    """The cells a plan may read the deviation of: the free cells and
    their 8-neighbours, dilated by padded shifts."""
    ny, nx = cells.shape
    padded = np.pad(~cells, 1)
    return np.logical_or.reduce([padded[dy:dy + ny, dx:dx + nx]
                                 for dy in range(3) for dx in range(3)])


def _assert_deviation_matches_the_oracle(grid, line):
    got = route_deviation_field(grid, Polyline(line))
    want = route_deviation_everywhere(grid, line)
    readable = _readable(grid)
    assert got.shape == want.shape
    assert got[readable].tobytes() == want[readable].tobytes()
    assert not got[~readable].any()
    return got, want


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_route_deviation_field_matches_the_whole_grid_formula_where_read(scenario_id):
    spec = build_scenario(scenario_id)
    for version in spec.vmap.versions:
        grid = planning_occupancy(spec.vmap, version, COLLISION_RADIUS)
        _assert_deviation_matches_the_oracle(grid, spec.route.reference_path.points)


def test_a_blocked_goal_reads_the_deviation_the_whole_grid_formula_gives():
    # the goal's cell is blocked and free cells lie next to it: the Dijkstra
    # reads its deviation for the first steps out of it
    _, base = _open_ldm([(14.0, 15.0, 9.5, 10.5)])
    iy = 20
    ix = int(np.argmax(base[iy]))               # the first blocked cell of its row
    assert base[iy, ix] and not base[iy, ix - 1]
    goal = ((ix + 0.5) * CELL_SIZE, (iy + 0.5) * CELL_SIZE)
    line = np.array([[0.0, 12.0], [30.0, 8.0]])
    got, want = _assert_deviation_matches_the_oracle(base, line)
    assert got[iy, ix] > 0.0
    for weight in (0.3, 1.0):
        assert cost_to_goal_field(base, got, goal, weight).tobytes() == \
            cost_to_goal_field(base, want, goal, weight).tobytes()


@settings(max_examples=200, deadline=None)
@given(ny=st.integers(1, 11), nx=st.integers(1, 11), data=st.data())
def test_route_deviation_field_reads_the_free_cells_and_their_8_neighbours(ny, nx, data):
    # a route far below the grid is a positive distance from every cell, so
    # the nonzero cells are the ones the field computes
    blocked = data.draw(st.lists(st.booleans(), min_size=ny * nx, max_size=ny * nx))
    grid = np.array(blocked, dtype=bool).reshape(ny, nx)
    far = Polyline(np.array([[0.0, -100.0], [50.0, -100.0]]))
    assert np.array_equal(route_deviation_field(grid, far) > 0.0, _readable(grid))


@settings(max_examples=40, deadline=None)
@given(blocked=st.lists(st.booleans(), min_size=48, max_size=48),
       line=st.lists(st.tuples(st.floats(-2.0, 8.0), st.floats(-2.0, 8.0)),
                     min_size=2, max_size=5))
def test_route_deviation_field_matches_the_whole_grid_formula_on_any_grid(blocked, line):
    grid = np.array(blocked, dtype=bool).reshape(6, 8)
    _assert_deviation_matches_the_oracle(grid, np.array(line))


# ---------------------------------------------------------------------------
# cost-to-goal field


def _bellman_ford_to_goal(cells, deviation, cell_size, goal, lateral_weight):
    """The cost-to-goal fixpoint by whole-grid relaxation: every free cell
    (and the goal's, blocked or not) takes the cheapest of its 8
    neighbours' costs plus the step, until nothing changes."""
    ny, nx = cells.shape
    free = ~cells
    free[goal] = True
    cost = np.full((ny, nx), math.inf)
    cost[goal] = 0.0
    pad_cost = np.full((ny + 2, nx + 2), math.inf)
    pad_dev = np.zeros((ny + 2, nx + 2))
    pad_dev[1:-1, 1:-1] = deviation
    while True:
        pad_cost[1:-1, 1:-1] = cost
        best = cost.copy()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == dy == 0:
                    continue
                length = cell_size * math.hypot(dx, dy) * math.cos(math.pi / 8.0)
                near = (slice(1 + dy, ny + 1 + dy), slice(1 + dx, nx + 1 + dx))
                step = length * (1.0 + lateral_weight * (deviation + pad_dev[near]) / 2.0)
                best = np.minimum(best, np.where(free, pad_cost[near] + step, math.inf))
        best[goal] = 0.0
        if np.array_equal(best, cost):
            return cost
        cost = best


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ny=st.integers(1, 7), nx=st.integers(1, 7),
       lateral_weight=st.sampled_from([0.0, 0.3, 2.0]))
def test_cost_to_goal_field_is_the_relaxation_fixpoint(data, ny, nx, lateral_weight):
    cells = np.array(data.draw(st.lists(st.booleans(), min_size=ny * nx,
                                        max_size=ny * nx), label="blocked"),
                     dtype=bool).reshape(ny, nx)
    deviation = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=ny * nx,
                                            max_size=ny * nx), label="deviation")
                         ).reshape(ny, nx)
    iy = data.draw(st.integers(0, ny - 1), label="goal row")
    ix = data.draw(st.integers(0, nx - 1), label="goal column")
    goal_xy = ((ix + 0.5) * CELL_SIZE, (iy + 0.5) * CELL_SIZE)
    got = cost_to_goal_field(cells, deviation, goal_xy, lateral_weight)
    want = _bellman_ford_to_goal(cells, deviation, CELL_SIZE, (iy, ix), lateral_weight)
    assert got.shape == (ny, nx)
    assert got[iy, ix] == 0.0
    # inf exactly where no 8-connected chain of free cells reaches the goal
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=0.0, atol=1e-9)


def test_cost_to_goal_field_never_exceeds_the_straight_line_on_open_ground():
    # OCTILE_SCALE = cos(pi/8): on an open map with no deviation priced, the
    # field stays at or below the distance between cell centres, and meets
    # it along the axes and diagonals
    grid = empty_grid(20.0, 20.0)
    field = cost_to_goal_field(grid, np.zeros(grid.shape), (10.25, 10.25), 0.3)
    iy, ix = np.indices(field.shape)
    straight = 0.5 * np.hypot(iy - 20, ix - 20)
    assert (field <= straight + 1e-9).all()
    assert field[20, 0] == pytest.approx(straight[20, 0] * OCTILE_SCALE)
    assert field[0, 0] == pytest.approx(straight[0, 0] * OCTILE_SCALE)


def test_cost_to_goal_field_rejects_a_goal_off_the_grid():
    grid = empty_grid(10.0, 10.0)
    with pytest.raises(ValueError, match="outside the planning grid"):
        cost_to_goal_field(grid, np.zeros(grid.shape), (10.0, 5.0), 0.3)


# ---------------------------------------------------------------------------
# obstacle stamping


def test_obstacle_grid_stamps_confident_tracks():
    ldm = _ldm(tracks=[_track("T1", (40.0, 10.0), belief=0.8),
                       _track("T2", (60.0, 10.0), belief=0.55)])
    grid = _grid(ldm)
    pad = planner.TRACK_RADIUS + COLLISION_RADIUS + planner.OBSTACLE_MARGIN
    assert occupied_at(grid, 40.0, 10.0)
    assert occupied_at(grid, 40.0 + pad - 0.3, 10.0)
    # below-threshold track leaves no stamp
    assert not occupied_at(grid, 60.0, 10.0)


def test_obstacle_grid_static_track_stamped_in_place():
    # velocity below the floor: no extrapolation of the stamp
    crawling = _track("T1", (40.0, 10.0), vel=(0.5, 0.0))
    grid = _grid(_ldm(tracks=[crawling]))
    moving = _track("T2", (40.0, 10.0), vel=(4.0, 0.0))
    grid_m = _grid(_ldm(tracks=[moving]))
    ahead = 40.0 + 4.0 * planner.PREFIX_HORIZON / 2.0
    assert occupied_at(grid, 40.0, 10.0)
    assert not occupied_at(grid, ahead + 1.0, 10.0)
    assert occupied_at(grid_m, ahead, 10.0)


def test_obstacle_grid_event_radius_by_kind():
    for kind, r in EVENT_RADIUS.items():
        grid = _grid(_ldm(events=[_event((50.0, 10.0), kind=kind)]))
        pad = r + COLLISION_RADIUS + planner.EVENT_MARGIN
        assert occupied_at(grid, 50.0 + pad - 0.3, 10.0), kind
        assert not occupied_at(grid, 50.0 + pad + 1.0, 10.0), kind


@settings(max_examples=100, deadline=None)
@given(events=st.lists(st.tuples(st.sampled_from(sorted(EVENT_RADIUS)),
                                 st.floats(10.0, 85.0), st.floats(4.0, 16.0)),
                       min_size=1, max_size=2),
       start_x=st.floats(2.0, 40.0))
def test_a_plan_keeps_the_stamped_radius_from_every_accepted_event(events,
                                                                   start_x):
    ldm = _ldm(events=[replace(_event((x, y), kind), event_id=f"E{i}")
                       for i, (kind, x, y) in enumerate(events)])
    start = (start_x, 10.0, 0.0)
    attempt = _plan(start, ldm)
    if not attempt.succeeded:
        return
    poses = attempt.trajectory.poses[1:, :2]        # every arc sample
    for ev in ldm.accepted_events():
        radius = EVENT_RADIUS[ev.kind] + COLLISION_RADIUS + planner.EVENT_MARGIN
        gap = np.hypot(poses[:, 0] - ev.position[0], poses[:, 1] - ev.position[1])
        if math.hypot(start[0] - ev.position[0], start[1] - ev.position[1]) > radius:
            assert gap.min() >= radius, ev


def test_obstacle_grid_skips_disk_over_start():
    ldm = _ldm(tracks=[_track("T1", (2.5, 10.0))])
    trapped = _grid(ldm, start_xy=(95.0, 10.0))     # start far from the track
    freed = _grid(ldm, start_xy=(2.0, 10.0))
    assert occupied_at(trapped, 2.0, 10.0)
    assert not occupied_at(freed, 2.0, 10.0)


def test_unexplained_tracks_suppressed_near_events():
    ev = _event((50.0, 10.0), kind="stationary_vehicle")
    explained = _track("T1", (50.8, 10.0))          # inside radius + track_radius
    separate = _track("T2", (70.0, 10.0))
    weak = _track("T3", (20.0, 10.0), belief=0.3)
    ldm = _ldm(tracks=[explained, separate, weak], events=[ev])
    kept = unexplained_tracks(ldm)
    assert [t.track_id for t in kept] == ["T2"]
    # and the grid contains no double stamp around the event
    grid = _grid(ldm)
    track_pad = planner.TRACK_RADIUS + COLLISION_RADIUS + planner.OBSTACLE_MARGIN
    event_pad = EVENT_RADIUS["stationary_vehicle"] + COLLISION_RADIUS + planner.EVENT_MARGIN
    assert not occupied_at(grid, 50.8 + track_pad - 0.2, 10.0)
    assert occupied_at(grid, 50.0 + event_pad - 0.2, 10.0)


# ---------------------------------------------------------------------------
# speed profile


def _plain_traj():
    return _plan((2.0, 10.0, 0.0), _ldm()).trajectory


def test_speed_profile_cruise_and_goal_ramp():
    traj = _plain_traj()
    assert float(traj.target_speeds.max()) == planner.CRUISE_SPEED
    assert traj.speed_at(traj.path.length) == pytest.approx(0.0, abs=0.3)
    mid = traj.speed_at(traj.path.length / 2.0)
    assert mid == planner.CRUISE_SPEED


def test_speed_profile_dips_to_pass_speed_near_hazard():
    ev = _event((50.0, 12.5))    # beside the path, within the slow corridor
    ldm = _ldm(events=[ev])
    traj = attach_speed_profile(_plain_traj(), ldm)
    s_h = traj.path.project((50.0, 10.0))[0]
    assert traj.speed_at(s_h) == pytest.approx(planner.PASS_SPEED, abs=0.3)
    # comfort-decel envelope: monotone ramp down into the hazard
    ramp = traj.target_speeds[traj.path.cumlength <= s_h]
    assert np.all(np.diff(ramp) <= 1e-9)
    assert ramp[0] == planner.CRUISE_SPEED


def test_speed_profile_zeroes_when_hazard_on_path():
    ev = _event((50.0, 10.0))    # dead on the path
    traj = attach_speed_profile(_plain_traj(), _ldm(events=[ev]))
    s_h = traj.path.project((50.0, 10.0))[0]
    assert traj.speed_at(s_h) == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# risk rollout


def test_ttc_exact_head_on_oracle():
    traj = _plain_traj()
    ego = _ego(x=2.0, speed=5.0)
    # closing distance 27 - (1 + 1) = 25 m at 5 m/s -> 5.0 s
    tracks = [_track("T1", (29.0, 10.0))]
    t = ttc_min(ego, traj, traj.path.project(ego.position)[0], tracks, horizon=10.0,
                collision_radius=COLLISION_RADIUS,
                track_radius=planner.TRACK_RADIUS)
    assert t == pytest.approx(5.0, abs=0.02)


def test_ttc_converging_track():
    traj = _plain_traj()
    ego = _ego(x=2.0, speed=5.0)
    # obstacle drives toward the ego at 5 m/s: closing speed 10 m/s
    tracks = [_track("T1", (52.0, 10.0), vel=(-5.0, 0.0))]
    t = ttc_min(ego, traj, traj.path.project(ego.position)[0], tracks, horizon=10.0,
                collision_radius=COLLISION_RADIUS,
                track_radius=planner.TRACK_RADIUS)
    assert t == pytest.approx(4.8, abs=0.02)


def test_ttc_ignores_weak_and_clear_tracks():
    # a weak track never reaches ttc_min: unexplained_tracks drops it
    traj = _plain_traj()
    ego = _ego(x=2.0, speed=5.0)
    s_plan = traj.path.project(ego.position)[0]
    assert ttc_min(ego, traj, s_plan, [], 10.0, 1.0, 1.0) == math.inf
    offside = [_track("T1", (20.0, 16.0))]
    assert ttc_min(ego, traj, s_plan, offside, 10.0, 1.0, 1.0) == math.inf


def test_ttc_horizon_cutoff():
    traj = _plain_traj()
    ego = _ego(x=2.0, speed=5.0)
    tracks = [_track("T1", (80.0, 10.0))]    # collision at ~15.2 s
    assert ttc_min(ego, traj, traj.path.project(ego.position)[0], tracks, horizon=3.0,
                   collision_radius=1.0, track_radius=1.0) == math.inf


def _old_ttc_min(ego_state, traj, s_plan, tracks, horizon, collision_radius,
                 track_radius, dt=0.01):
    """ttc_min as it rolled out every track, kept as the oracle."""
    if not tracks:
        return math.inf
    v = max(float(ego_state.speed), 0.0)
    taus = np.arange(0.0, horizon + dt * 0.5, dt)
    s_grid = np.minimum(s_plan + v * taus, traj.path.length)
    ex = np.interp(s_grid, traj.path.cumlength, traj.poses[:, 0])
    ey = np.interp(s_grid, traj.path.cumlength, traj.poses[:, 1])
    best = math.inf
    for tr in tracks:
        px = tr.position[0] + tr.velocity[0] * taus
        py = tr.position[1] + tr.velocity[1] * taus
        dist = np.hypot(ex - px, ey - py)
        hits = np.nonzero(dist < collision_radius + track_radius + 1e-9)[0]
        if hits.size:
            best = min(best, float(taus[hits[0]]))
    return best


@st.composite
def _rollout_cases(draw):
    """A plan with bends and repeated poses, the ego somewhere on it, and
    tracks placed at the rollout's reach from a plan pose, give or take."""
    n = draw(st.integers(2, 12))
    steps = draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                          min_size=n, max_size=n))
    xy = np.cumsum(np.array([(10.0, 10.0)] + steps), axis=0)
    poses = np.column_stack([xy, np.zeros(len(xy))])
    traj = Trajectory(poses=poses, target_speeds=np.full(len(xy), 5.0),
                      planned_on_version=1, planned_at=0.0)
    # the ego on a pose, or anywhere along the plan
    k = draw(st.integers(0, n))
    s_plan = draw(st.one_of(st.just(float(traj.path.cumlength[k])),
                            st.floats(0.0, 1.0).map(lambda u: u * traj.path.length)))
    speed = draw(st.sampled_from([0.0, 0.5, 3.0, 8.0]))
    horizon = draw(st.sampled_from([0.5, 1.0, 3.0]))
    reach = planner.TRACK_RADIUS + COLLISION_RADIUS + 1e-9
    tracks = []
    for i in range(draw(st.integers(1, 3))):
        ax, ay = xy[draw(st.one_of(st.just(k), st.integers(0, n)))]
        # along an axis from the pose, the box's edge can be that pose
        bearing = draw(st.one_of(st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]),
                                 st.floats(0.0, 2.0 * math.pi)))
        r = reach * draw(st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-12, 2.0, 0.5, 4.0]))
        pos = (ax + r * math.cos(bearing), ay + r * math.sin(bearing))
        vel = draw(st.sampled_from([(0.0, 0.0), (2.0, 0.0), (-3.0, 1.0), (0.0, -4.0)]))
        tracks.append(_track(f"T{i}", pos, vel=vel, belief=draw(st.sampled_from([0.9, 0.3]))))
    return traj, s_plan, speed, horizon, tracks


@settings(max_examples=400, deadline=None)
@given(case=_rollout_cases())
def test_ttc_min_matches_the_full_rollout(case):
    traj, s_plan, speed, horizon, tracks = case
    args = (_ego(speed=speed), traj, s_plan, tracks, horizon, COLLISION_RADIUS,
            planner.TRACK_RADIUS)
    assert repr(ttc_min(*args)) == repr(_old_ttc_min(*args))


# ---------------------------------------------------------------------------
# triggers


def test_trigger_hazard_on_route_only_after_plan():
    traj = _plain_traj()   # planned_at 0.0
    before = _event((40.0, 10.0), accepted_at=-1.0)
    ldm = _ldm(events=[before])
    fired = check_triggers(ldm, traj, 0.0, TRIG, risk_ttc=math.inf)
    assert HAZARD_ON_ROUTE not in fired
    after = _event((40.0, 10.0), accepted_at=1.0)
    fired = check_triggers(_ldm(events=[after]), traj, 0.0, TRIG, risk_ttc=math.inf)
    assert fired == [HAZARD_ON_ROUTE]


def test_trigger_hazard_respects_corridor_and_window():
    traj = _plain_traj()
    wide = _event((40.0, 10.0 + planner.HAZARD_CORRIDOR + 0.5), accepted_at=1.0)
    fired = check_triggers(_ldm(events=[wide]), traj, 0.0, TRIG, risk_ttc=math.inf)
    assert HAZARD_ON_ROUTE not in fired
    behind = _event((10.0, 10.0), accepted_at=1.0)
    s_plan = traj.path.project((30.0, 10.0))[0]
    assert s_plan == pytest.approx(28.0, abs=0.1)
    fired = check_triggers(_ldm(events=[behind]), traj, s_plan, TRIG, risk_ttc=math.inf)
    assert HAZARD_ON_ROUTE not in fired
    past_window = _event((95.0, 10.0), accepted_at=1.0)
    fired = check_triggers(_ldm(events=[past_window]), traj, 0.0, TRIG,
                           risk_ttc=math.inf)
    assert HAZARD_ON_ROUTE not in fired


def _detour_traj():
    """A plan that leaves ROUTE (y = 10) at x = 20, runs along y = 40 and
    rejoins it at x = 80."""
    xy = np.array([[2.0, 10.0], [20.0, 10.0], [20.0, 40.0], [80.0, 40.0],
                   [80.0, 10.0], [95.0, 10.0]])
    step = np.diff(xy, axis=0)
    heading = np.append(np.arctan2(step[:, 1], step[:, 0]), 0.0)
    return Trajectory(np.column_stack([xy, heading]), np.full(len(xy), 8.0),
                      planned_on_version=0, planned_at=0.0)


def test_trigger_hazard_reads_the_plan_not_the_route():
    traj = _detour_traj()
    s_plan = traj.path.project((20.0, 40.0))[0]   # the ego has turned onto y = 40
    assert s_plan == 48.0
    on_plan = _event((50.0, 40.0), accepted_at=1.0)
    assert abs(ROUTE.reference_path.project(on_plan.position)[1]) == 30.0
    fired = check_triggers(_ldm(events=[on_plan]), traj, s_plan, TRIG, risk_ttc=math.inf)
    assert fired == [HAZARD_ON_ROUTE]


def test_trigger_hazard_on_the_route_but_off_the_plan_stays_silent():
    traj = _detour_traj()
    s_plan = traj.path.project((20.0, 40.0))[0]
    on_route = _event((50.0, 10.0), accepted_at=1.0)
    assert ROUTE.reference_path.project(on_route.position)[1] == 0.0
    fired = check_triggers(_ldm(events=[on_route]), traj, s_plan, TRIG, risk_ttc=math.inf)
    assert fired == []


def test_trigger_risk_threshold():
    traj = _plain_traj()
    fired = check_triggers(_ldm(), traj, 0.0, TRIG, risk_ttc=TRIG.tau_risk - 0.1)
    assert fired == [RISK_THRESHOLD]
    fired = check_triggers(_ldm(), traj, 0.0, TRIG, risk_ttc=TRIG.tau_risk + 0.1)
    assert fired == []


def test_trigger_knowledge_change():
    traj = _plain_traj()   # planned on version 0
    ldm = initial_state(MapVersion(1, ROAD.lane_graph))
    fired = check_triggers(ldm, traj, 0.0, TRIG, risk_ttc=math.inf)
    assert fired == [KNOWLEDGE_CHANGE]


# ---------------------------------------------------------------------------
# search settings


# the values the search can run with, per search setting; each setting is
# the planner constant of its name in capitals
RUNNABLE = {
    "heading_bins": lambda v: v >= 1,
    # straight plus both locks
    "steering_samples": lambda v: v >= 3 and v % 2 == 1,
    "primitive_arc_length": lambda v: 0.0 < v < math.inf,
    "goal_xy_tol": lambda v: 0.0 < v < math.inf,
    "heuristic_weight": lambda v: 0.0 < v < math.inf,
    "max_expansions": lambda v: v >= 0,
    # a negative weight makes a step cost negative, and the cost-to-goal
    # Dijkstra would relax round a negative cycle without end
    "lateral_weight": lambda v: 0.0 <= v < math.inf,
    "steering_change_weight": lambda v: 0.0 <= v < math.inf,
}


@pytest.mark.parametrize("field_name, bad", [
    ("heading_bins", 0),
    ("steering_samples", 1),
    ("steering_samples", 4),
    ("primitive_arc_length", -2.0),
    ("primitive_arc_length", math.inf),
    ("goal_xy_tol", 0.0),
    ("heuristic_weight", 0.0),
    ("heuristic_weight", math.inf),
    ("max_expansions", -1),
    ("lateral_weight", -1.0),
    ("steering_change_weight", -0.5),
])
def test_planner_config_rejects_unrunnable_values(field_name, bad):
    # the setting is a constant the search can run with, and a document that
    # still sets it, to this value or any other, is refused at load
    assert RUNNABLE[field_name](getattr(planner, field_name.upper()))
    assert not RUNNABLE[field_name](bad)
    d = spec_to_dict(build_s1())
    d["planner"] = {field_name: bad}
    with pytest.raises(ValueError, match="^scenario\\.planner: unknown key"):
        spec_from_dict(d)


def test_planner_config_accepts_edge_values(monkeypatch):
    # the least settings the search runs with: one heading bin, straight
    # plus both locks, and no expansion past the start
    edges = {"heading_bins": 1, "steering_samples": 3, "max_expansions": 0}
    for name, edge in edges.items():
        assert RUNNABLE[name](edge)
        monkeypatch.setattr(planner, name.upper(), edge)
    attempt = _plan((2.0, 10.0, 0.0), _ldm())
    assert not attempt.succeeded and attempt.expansions == 0


def test_a_plan_counts_no_expansion_past_its_budget(monkeypatch):
    """A search that runs out of MAX_EXPANSIONS reports the expansions it
    made, never one more; a budget that just suffices finds the plan the
    default budget does."""
    needed = _plan((2.0, 10.0, 0.0), _ldm()).expansions
    assert needed > 2
    for budget in (0, 1, needed // 2, needed - 1, needed):
        monkeypatch.setattr(planner, "MAX_EXPANSIONS", budget)
        attempt = _plan((2.0, 10.0, 0.0), _ldm())
        assert attempt.expansions == budget
        assert attempt.succeeded == (budget == needed)


def _bits(x) -> str:
    return float(x).hex()


_coord = st.floats(-200.0, 200.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), knots=st.lists(_coord, min_size=2, max_size=10))
def test_interp_equals_np_interp_bit_for_bit(data, knots):
    # non-decreasing knots, some repeated
    xp = sorted(knots + data.draw(st.lists(st.sampled_from(knots), max_size=4)))
    fp = data.draw(st.lists(st.floats(-1e4, 1e4, allow_nan=False),
                            min_size=len(xp), max_size=len(xp)))
    queries = xp + [xp[0] - 1.0, xp[-1] + 1.0, data.draw(_coord)]
    for x in queries:
        assert _bits(world._interp(x, xp, fp)) == _bits(np.interp(x, xp, fp)), x


@settings(max_examples=100, deadline=None)
@given(data=st.data(), points=st.lists(st.tuples(_coord, _coord), min_size=2, max_size=8))
def test_trajectory_point_and_speed_equal_np_interp_bit_for_bit(data, points):
    # repeated points are zero-length segments: repeated arc-length knots
    repeats = data.draw(st.lists(st.integers(0, 2), min_size=len(points),
                                 max_size=len(points)))
    xy = np.array([p for p, n in zip(points, repeats) for _ in range(n + 1)])
    speeds = data.draw(st.lists(st.floats(0.0, 20.0), min_size=len(xy), max_size=len(xy)))
    traj = Trajectory(np.column_stack([xy, np.zeros(len(xy))]), speeds, 0, 0.0)
    path = traj.path
    cum = path.cumlength
    # every knot, below the start and past the end: np.interp's own clamp
    queries = cum.tolist() + [-1.0, path.length + 1.0,
                              data.draw(st.floats(-10.0, path.length + 10.0))]
    for s in queries:
        x, y = path.point_at(s)
        assert _bits(x) == _bits(np.interp(s, cum, xy[:, 0])), s
        assert _bits(y) == _bits(np.interp(s, cum, xy[:, 1])), s
        assert _bits(traj.speed_at(s)) == _bits(np.interp(s, cum, speeds)), s
        assert type(x) is float and type(traj.speed_at(s)) is float
