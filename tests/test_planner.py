"""Arc-expansion search, obstacle stamping, risk rollout, replan triggers."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v2xloop.ldm import ACCEPTED, EventHypothesis, Track, initial_state
from v2xloop.planner import (EVENT_RADIUS, HAZARD_ON_ROUTE, KNOWLEDGE_CHANGE,
                             PlannerConfig, PlanAttempt, RISK_THRESHOLD,
                             TWO_PI, Trajectory, TriggerConfig, _primitives,
                             attach_speed_profile, check_triggers,
                             obstacle_grid, plan, route_deviation_field,
                             ttc_min, unexplained_tracks)
from v2xloop.scenarios import build_s1, spec_from_dict, spec_to_dict
from v2xloop.vehicle import VehicleParams, VehicleState, max_curvature
from v2xloop.world import LaneSegment, Route, build_corridor_map, wrap_angle

CFG = PlannerConfig()
TRIG = TriggerConfig()
VP = VehicleParams()

ROAD = build_corridor_map(
    0, [LaneSegment("r", [[0.0, 10.0], [100.0, 10.0]], half_width=5.0)],
    100.0, 20.0)
ROUTE = Route(reference_path=np.array([[2.0, 10.0], [95.0, 10.0]]),
              goal_pose=(95.0, 10.0, 0.0))


def _ldm(tracks=(), events=()):
    state = initial_state(ROAD)
    state.objects.extend(tracks)
    state.events.extend(events)
    return state


def _track(tid, pos, vel=(0.0, 0.0), belief=0.8):
    return Track(track_id=tid, position=pos, velocity=vel, belief=belief,
                 last_update=0.0, born_at=0.0)


def _event(pos, kind="stationary_vehicle", accepted_at=1.0):
    return EventHypothesis(event_id="E1", kind=kind, position=pos,
                           first_seen=0.5, status=ACCEPTED,
                           accepted_at=accepted_at)


def _ego(x=2.0, y=10.0, heading=0.0, speed=8.0):
    return VehicleState(x=x, y=y, heading=heading, speed=speed)


def _check_plan(attempt, goal):
    assert attempt.succeeded
    traj = attempt.trajectory
    end = traj.poses[-1]
    assert math.hypot(end[0] - goal[0], end[1] - goal[1]) <= CFG.goal_xy_tol + 1e-9
    return traj


# ---------------------------------------------------------------------------
# search


def test_plan_straight_corridor():
    attempt = plan((2.0, 10.0, 0.0), 0.0, ROUTE.goal_pose, _ldm(), CFG, VP)
    traj = _check_plan(attempt, (95.0, 10.0))
    assert attempt.cause == "initial"
    assert attempt.expansions < 500     # weighted heuristic keeps this tight
    # stays near the centerline the whole way
    assert float(np.max(np.abs(traj.poses[:, 1] - 10.0))) < 1.5


def test_plan_respects_curvature_bound():
    attempt = plan((2.0, 10.0, 0.0), 0.0, ROUTE.goal_pose, _ldm(), CFG, VP)
    poses = attempt.trajectory.poses
    k_max = max_curvature(VP)
    d = np.diff(poses[:, :2], axis=0)
    ds = np.hypot(d[:, 0], d[:, 1])
    dh = np.abs(np.diff(np.unwrap(poses[:, 2])))
    mask = ds > 1e-9
    assert np.all(dh[mask] / ds[mask] <= k_max * (1.0 + 1e-6))


def test_plan_poses_collision_free():
    ldm = _ldm(tracks=[_track("T1", (40.0, 10.0))])
    attempt = plan((2.0, 10.0, 0.0), 0.0, ROUTE.goal_pose, ldm, CFG, VP)
    traj = _check_plan(attempt, (95.0, 10.0))
    grid = obstacle_grid(ldm, CFG, VP, start_xy=(2.0, 10.0))
    for x, y, _ in traj.poses:
        assert not grid.occupied_at(x, y)
    # the path actually deviates around the stamped track
    d = np.hypot(traj.poses[:, 0] - 40.0, traj.poses[:, 1] - 10.0)
    assert float(d.min()) >= CFG.track_radius + VP.collision_radius - 0.5


def test_plan_reports_failure_when_goal_unreachable():
    # a wall of confident tracks seals the corridor
    wall = [_track(f"T{i}", (50.0, 5.5 + i * 1.5)) for i in range(7)]
    attempt = plan((2.0, 10.0, 0.0), 0.0, ROUTE.goal_pose, _ldm(tracks=wall),
                   CFG, VP, cause="risk_threshold")
    assert not attempt.succeeded
    assert attempt.trajectory is None
    assert attempt.cause == "risk_threshold"


def test_plan_arc_lengths_monotone_and_consistent():
    attempt = plan((2.0, 10.0, 0.0), 0.0, ROUTE.goal_pose, _ldm(), CFG, VP)
    traj = attempt.trajectory
    assert np.all(np.diff(traj.arc_lengths) >= 0.0)
    seg = np.hypot(*np.diff(traj.poses[:, :2], axis=0).T)
    assert np.allclose(np.diff(traj.arc_lengths), seg)
    assert attempt.path_length == pytest.approx(traj.length)


def test_plan_rejects_deviation_field_of_another_shape():
    with pytest.raises(ValueError, match="deviation_field"):
        plan((2.0, 10.0, 0.0), 0.0, ROUTE.goal_pose, _ldm(), CFG, VP,
             deviation_field=np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# bit-identity against the per-steer search loop


def _reference_plan(start_pose, start_speed, goal_pose, ldm, cfg, vparams,
                    cause="initial", base_grid=None, start_steering=0.0,
                    deviation_field=None):
    """The search as first written: one lookup per steering sample and one
    stored arc per pushed node. `plan` must reproduce it bit for bit."""
    sx, sy, sth = float(start_pose[0]), float(start_pose[1]), float(start_pose[2])
    gx, gy, gth = float(goal_pose[0]), float(goal_pose[1]), float(goal_pose[2])
    grid = obstacle_grid(ldm, cfg, vparams, base=base_grid, start_xy=(sx, sy))
    cells = grid.cells
    ny, nx = cells.shape
    res = grid.cell_size
    ox, oy = grid.origin
    inv_res = 1.0 / res
    bin_size = TWO_PI / cfg.heading_bins
    hw = cfg.heuristic_weight

    steers, prim_pts, prim_dth = _primitives(cfg, vparams)
    n_steer = len(steers)
    arc = cfg.primitive_arc_length

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
                int(((th % TWO_PI) / bin_size)) % cfg.heading_bins)

    while open_heap:
        f, _, ni = heapq.heappop(open_heap)
        x, y, th = xs[ni], ys[ni], ths[ni]
        key = bin_key(x - ox, y - oy, th)
        if key in closed:
            continue
        closed.add(key)

        if (math.hypot(gx - x, gy - y) <= cfg.goal_xy_tol
                and abs(wrap_angle(th - gth)) <= cfg.goal_heading_tol):
            goal_node = ni
            break
        expansions += 1
        if expansions > cfg.max_expansions:
            break

        c, s = math.cos(th), math.sin(th)
        rot = np.array([[c, -s], [s, c]])
        world = prim_pts @ rot.T
        world[:, :, 0] += x
        world[:, :, 1] += y
        ix = np.floor((world[:, :, 0] - ox) * inv_res).astype(np.int64)
        iy = np.floor((world[:, :, 1] - oy) * inv_res).astype(np.int64)
        inb = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)

        for si in range(n_steer):
            if not inb[si].all():
                continue
            if cells[iy[si], ix[si]].any():
                continue
            end = world[si, -1]
            th_new = th + prim_dth[si, -1]
            cost = arc + cfg.steering_change_weight * abs(steers[si] - steers[steer_idx[ni]])
            if deviation_field is not None:
                cost += cfg.lateral_weight * arc * \
                    float(deviation_field[iy[si], ix[si]].mean())
            g_new = gs[ni] + cost
            kx, kyy = end[0] - ox, end[1] - oy
            if bin_key(kx, kyy, th_new) in closed:
                continue
            xs.append(float(end[0])); ys.append(float(end[1]))
            ths.append(float(th_new)); gs.append(g_new)
            steer_idx.append(si); parents.append(ni)
            arcs.append((world[si].copy(), th + prim_dth[si]))
            h = math.hypot(gx - end[0], gy - end[1])
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
    poses = np.array(pose_rows)
    d = np.diff(poses[:, :2], axis=0)
    seg = np.hypot(d[:, 0], d[:, 1])
    arc_lengths = np.concatenate([[0.0], np.cumsum(seg)])
    traj = Trajectory(poses=poses, target_speeds=np.full(len(poses), cfg.cruise_speed),
                      arc_lengths=arc_lengths,
                      planned_on_version=ldm.active_map.version_id,
                      planned_at=ldm.stamp)
    traj = attach_speed_profile(traj, ldm, cfg, vparams, start_speed)
    return PlanAttempt(trajectory=traj, expansions=expansions, cpu_ms=0.0,
                       cause=cause, path_length=traj.length)


def _random_corridor(rng, near_edge: bool):
    """Random S-bend on a 100 x 100 m map with up to two parked tracks, built
    like the acceptance planner instances. With `near_edge` the lane runs off
    the map's left edge and the start sits within 2 m of it, so some arcs
    leave the grid through free cells."""
    y0 = float(rng.uniform(20.0, 80.0))
    amp = float(rng.uniform(0.0, 6.0))
    xs = np.arange(-4.0 if near_edge else 4.0, 96.0 + 1e-9, 2.0)
    ys = y0 + amp * np.sin(2.0 * math.pi * (xs - 4.0) / 92.0)
    line = np.column_stack([xs, ys])
    mapv = build_corridor_map(
        0, [LaneSegment("lane", line.tolist(), half_width=5.0)], 100.0, 100.0)

    def pose_at(i):
        dx, dy = line[i + 1] - line[i]
        return float(xs[i]), float(ys[i]), math.atan2(dy, dx)

    if near_edge:
        x = float(rng.uniform(0.2, 2.0))
        start = (x, float(np.interp(x, xs, ys)), float(rng.uniform(-2.0, 2.0)))
    else:
        start = pose_at(1)
    goal = pose_at(len(xs) - 2)
    ldm = initial_state(mapv)
    slots = [(25.0, 45.0), (57.0, 77.0)]
    for j in range(int(rng.integers(0, 3))):
        tx = float(rng.uniform(*slots[j]))
        ty = float(np.interp(tx, xs, ys)) + (2.0 if j % 2 == 0 else -2.0)
        ldm.objects.append(_track(f"T{j}", (tx, ty), belief=0.9))
    return start, goal, line, ldm


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), with_field=st.booleans(),
       near_edge=st.booleans(),
       budget=st.sampled_from([20, 300, 4000]),
       xy_resolution=st.sampled_from([0.5, 0.3, 0.2]),
       arc=st.sampled_from([2.0, 1.7]),
       start_steering=st.sampled_from([0.0, -0.6, 0.3]))
def test_plan_matches_reference_search_bit_for_bit(seed, with_field, near_edge,
                                                    budget, xy_resolution, arc,
                                                    start_steering):
    start, goal, line, ldm = _random_corridor(np.random.default_rng(seed), near_edge)
    # xy_resolution and arc give 5 to 13 samples per arc, on both sides of
    # the 8-element block where numpy's pairwise summation changes form
    cfg = PlannerConfig(max_expansions=budget, xy_resolution=xy_resolution,
                        primitive_arc_length=arc)
    field = None
    if with_field:
        field = route_deviation_field(obstacle_grid(ldm, cfg, VP), line)
    got = plan(start, 0.0, goal, ldm, cfg, VP, start_steering=start_steering,
               deviation_field=field)
    want = _reference_plan(start, 0.0, goal, ldm, cfg, VP,
                           start_steering=start_steering, deviation_field=field)
    assert got.expansions == want.expansions
    assert got.succeeded == want.succeeded
    if want.succeeded:
        assert got.trajectory.poses.tobytes() == want.trajectory.poses.tobytes()
        assert (got.trajectory.arc_lengths.tobytes()
                == want.trajectory.arc_lengths.tobytes())


def test_reference_oracle_covers_failure_edge_and_success():
    """The random instances reach every branch the oracle test relies on."""
    rng = np.random.default_rng(7)
    start, goal, line, ldm = _random_corridor(rng, near_edge=True)
    tight = PlannerConfig(max_expansions=20)
    assert not plan(start, 0.0, goal, ldm, tight, VP).succeeded
    grid = obstacle_grid(ldm, CFG, VP)
    assert not grid.occupied_at(0.1, start[1])      # free up to the map edge
    ok = plan(start, 0.0, goal, ldm, PlannerConfig(max_expansions=4000), VP,
              deviation_field=route_deviation_field(grid, line))
    assert ok.succeeded


# ---------------------------------------------------------------------------
# deviation field


def test_route_deviation_field_measures_distance():
    grid = ROAD.occupancy
    fld = route_deviation_field(grid, ROUTE.reference_path)
    assert fld.shape == grid.cells.shape
    ix, iy = grid.index_of(50.0, 10.0)
    assert fld[iy, ix] < grid.cell_size
    ix2, iy2 = grid.index_of(50.0, 14.0)
    assert fld[iy2, ix2] == pytest.approx(4.0, abs=grid.cell_size)


# ---------------------------------------------------------------------------
# obstacle stamping


def test_obstacle_grid_stamps_confident_tracks():
    ldm = _ldm(tracks=[_track("T1", (40.0, 10.0), belief=0.8),
                       _track("T2", (60.0, 10.0), belief=0.55)])
    grid = obstacle_grid(ldm, CFG, VP)
    pad = CFG.track_radius + VP.collision_radius + CFG.obstacle_margin
    assert grid.occupied_at(40.0, 10.0)
    assert grid.occupied_at(40.0 + pad - 0.3, 10.0)
    # below-threshold track leaves no stamp
    assert not grid.occupied_at(60.0, 10.0)


def test_obstacle_grid_static_track_stamped_in_place():
    # velocity below the floor: no extrapolation of the stamp
    crawling = _track("T1", (40.0, 10.0), vel=(0.5, 0.0))
    grid = obstacle_grid(_ldm(tracks=[crawling]), CFG, VP)
    moving = _track("T2", (40.0, 10.0), vel=(4.0, 0.0))
    grid_m = obstacle_grid(_ldm(tracks=[moving]), CFG, VP)
    ahead = 40.0 + 4.0 * CFG.prefix_horizon / 2.0
    assert grid.occupied_at(40.0, 10.0)
    assert not grid.occupied_at(ahead + 1.0, 10.0)
    assert grid_m.occupied_at(ahead, 10.0)


def test_obstacle_grid_event_radius_by_kind():
    for kind, r in EVENT_RADIUS.items():
        grid = obstacle_grid(_ldm(events=[_event((50.0, 10.0), kind=kind)]),
                             CFG, VP)
        pad = r + VP.collision_radius + CFG.event_margin
        assert grid.occupied_at(50.0 + pad - 0.3, 10.0), kind
        assert not grid.occupied_at(50.0 + pad + 1.0, 10.0), kind


def test_obstacle_grid_skips_disk_over_start():
    ldm = _ldm(tracks=[_track("T1", (2.5, 10.0))])
    trapped = obstacle_grid(ldm, CFG, VP)
    freed = obstacle_grid(ldm, CFG, VP, start_xy=(2.0, 10.0))
    assert trapped.occupied_at(2.0, 10.0)
    assert not freed.occupied_at(2.0, 10.0)


def test_unexplained_tracks_suppressed_near_events():
    ev = _event((50.0, 10.0), kind="stationary_vehicle")
    explained = _track("T1", (50.8, 10.0))          # inside radius + track_radius
    separate = _track("T2", (70.0, 10.0))
    ldm = _ldm(tracks=[explained, separate], events=[ev])
    kept = unexplained_tracks(ldm, CFG)
    assert [t.track_id for t in kept] == ["T2"]
    # and the grid contains no double stamp around the event
    grid = obstacle_grid(ldm, CFG, VP)
    track_pad = CFG.track_radius + VP.collision_radius + CFG.obstacle_margin
    event_pad = EVENT_RADIUS["stationary_vehicle"] + VP.collision_radius + CFG.event_margin
    assert not grid.occupied_at(50.8 + track_pad - 0.2, 10.0)
    assert grid.occupied_at(50.0 + event_pad - 0.2, 10.0)


# ---------------------------------------------------------------------------
# speed profile


def _plain_traj():
    return plan((2.0, 10.0, 0.0), 0.0, ROUTE.goal_pose, _ldm(), CFG, VP).trajectory


def test_speed_profile_cruise_and_goal_ramp():
    traj = _plain_traj()
    assert float(traj.target_speeds.max()) == CFG.cruise_speed
    assert traj.speed_at(traj.length) == pytest.approx(0.0, abs=0.3)
    mid = traj.speed_at(traj.length / 2.0)
    assert mid == CFG.cruise_speed


def test_speed_profile_dips_to_pass_speed_near_hazard():
    ev = _event((50.0, 12.5))    # beside the path, within the slow corridor
    ldm = _ldm(events=[ev])
    traj = attach_speed_profile(_plain_traj(), ldm, CFG, VP, 8.0)
    s_h = traj.project((50.0, 10.0))
    assert traj.speed_at(s_h) == pytest.approx(CFG.pass_speed, abs=0.3)
    # comfort-decel envelope: monotone ramp down into the hazard
    ramp = traj.target_speeds[traj.arc_lengths <= s_h]
    assert np.all(np.diff(ramp) <= 1e-9)
    assert ramp[0] == CFG.cruise_speed


def test_speed_profile_zeroes_when_hazard_on_path():
    ev = _event((50.0, 10.0))    # dead on the path
    traj = attach_speed_profile(_plain_traj(), _ldm(events=[ev]), CFG, VP, 8.0)
    s_h = traj.project((50.0, 10.0))
    assert traj.speed_at(s_h) == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# risk rollout


def test_ttc_exact_head_on_oracle():
    traj = _plain_traj()
    ego = _ego(x=2.0, speed=5.0)
    # closing distance 27 - (1 + 1) = 25 m at 5 m/s -> 5.0 s
    tracks = [_track("T1", (29.0, 10.0))]
    t = ttc_min(ego, traj, tracks, horizon=10.0,
                collision_radius=VP.collision_radius)
    assert t == pytest.approx(5.0, abs=0.02)


def test_ttc_converging_track():
    traj = _plain_traj()
    ego = _ego(x=2.0, speed=5.0)
    # obstacle drives toward the ego at 5 m/s: closing speed 10 m/s
    tracks = [_track("T1", (52.0, 10.0), vel=(-5.0, 0.0))]
    t = ttc_min(ego, traj, tracks, horizon=10.0,
                collision_radius=VP.collision_radius)
    assert t == pytest.approx(4.8, abs=0.02)


def test_ttc_ignores_weak_and_clear_tracks():
    traj = _plain_traj()
    ego = _ego(x=2.0, speed=5.0)
    assert ttc_min(ego, traj, [], 10.0, 1.0) == math.inf
    weak = [_track("T1", (20.0, 10.0), belief=0.3)]
    assert ttc_min(ego, traj, weak, 10.0, 1.0) == math.inf
    offside = [_track("T1", (20.0, 16.0))]
    assert ttc_min(ego, traj, offside, 10.0, 1.0) == math.inf


def test_ttc_horizon_cutoff():
    traj = _plain_traj()
    ego = _ego(x=2.0, speed=5.0)
    tracks = [_track("T1", (80.0, 10.0))]    # collision at ~15.2 s
    assert ttc_min(ego, traj, tracks, horizon=3.0, collision_radius=1.0) == math.inf


# ---------------------------------------------------------------------------
# triggers


def test_trigger_hazard_on_route_only_after_plan():
    traj = _plain_traj()   # planned_at 0.0
    before = _event((40.0, 10.0), accepted_at=-1.0)
    ldm = _ldm(events=[before])
    fired = check_triggers(ldm, ROUTE, traj, _ego(), 0.0, TRIG, CFG, VP,
                           risk_ttc=math.inf)
    assert HAZARD_ON_ROUTE not in fired
    after = _event((40.0, 10.0), accepted_at=1.0)
    fired = check_triggers(_ldm(events=[after]), ROUTE, traj, _ego(), 0.0,
                           TRIG, CFG, VP, risk_ttc=math.inf)
    assert fired == [HAZARD_ON_ROUTE]


def test_trigger_hazard_respects_corridor_and_window():
    traj = _plain_traj()
    wide = _event((40.0, 10.0 + TRIG.hazard_corridor + 0.5), accepted_at=1.0)
    fired = check_triggers(_ldm(events=[wide]), ROUTE, traj, _ego(), 0.0,
                           TRIG, CFG, VP, risk_ttc=math.inf)
    assert HAZARD_ON_ROUTE not in fired
    behind = _event((10.0, 10.0), accepted_at=1.0)
    fired = check_triggers(_ldm(events=[behind]), ROUTE, traj, _ego(x=30.0),
                           28.0, TRIG, CFG, VP, risk_ttc=math.inf)
    assert HAZARD_ON_ROUTE not in fired
    past_window = _event((95.0, 10.0), accepted_at=1.0)
    fired = check_triggers(_ldm(events=[past_window]), ROUTE, traj, _ego(),
                           0.0, TRIG, CFG, VP, risk_ttc=math.inf)
    assert HAZARD_ON_ROUTE not in fired


def test_trigger_risk_threshold():
    traj = _plain_traj()
    fired = check_triggers(_ldm(), ROUTE, traj, _ego(), 0.0, TRIG, CFG, VP,
                           risk_ttc=TRIG.tau_risk - 0.1)
    assert fired == [RISK_THRESHOLD]
    fired = check_triggers(_ldm(), ROUTE, traj, _ego(), 0.0, TRIG, CFG, VP,
                           risk_ttc=TRIG.tau_risk + 0.1)
    assert fired == []


def test_trigger_knowledge_change():
    traj = _plain_traj()   # planned on version 0
    new_map = build_corridor_map(
        1, [LaneSegment("r", [[0.0, 10.0], [100.0, 10.0]], half_width=5.0)],
        100.0, 20.0)
    ldm = initial_state(new_map)
    fired = check_triggers(ldm, ROUTE, traj, _ego(), 0.0, TRIG, CFG, VP,
                           risk_ttc=math.inf)
    assert fired == [KNOWLEDGE_CHANGE]


def test_trigger_nothing_without_trajectory():
    fired = check_triggers(_ldm(), ROUTE, None, _ego(), 0.0, TRIG, CFG, VP)
    assert fired == []


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize("field_name, bad", [
    ("heading_bins", 0),
    ("steering_samples", 1),
    ("steering_samples", 4),
    ("xy_resolution", 0.0),
    ("xy_resolution", math.nan),
    ("primitive_arc_length", -2.0),
    ("primitive_arc_length", math.inf),
    ("goal_xy_tol", 0.0),
    ("heuristic_weight", 0.0),
    ("heuristic_weight", math.inf),
    ("max_expansions", -1),
])
def test_planner_config_rejects_unrunnable_values(field_name, bad):
    with pytest.raises(ValueError, match=f"planner.{field_name}"):
        PlannerConfig(**{field_name: bad})
    d = spec_to_dict(build_s1())
    d["planner"][field_name] = bad
    with pytest.raises(ValueError, match=f"planner.{field_name}"):
        spec_from_dict(d)


def test_planner_config_accepts_edge_values():
    PlannerConfig(heading_bins=1, steering_samples=3, max_expansions=0)
