"""Ten end-to-end acceptance checks, one printed verdict line each.

Every test measures first, records a single numbered PASS/FAIL line (echoed
in the terminal summary by conftest), and only then asserts, so a red run
still reports every verdict. The scenario banks run 30 seeds per arm and are
built once per module; expect a few minutes of wall time.
"""

import itertools
import math
import time
from statistics import mean

import numpy as np
import pytest

from grids import corridor_map, occupied_at
from oracles import mc_hypervolume
from v2xloop.control import (INTEGRAL_CLAMP, ControlCommand, ControllerConfig,
                             PidState, follow_tick, pid_longitudinal, pure_pursuit)
from v2xloop.gate import evaluate, support
from v2xloop.harness import LOG_COLUMNS, make_episode_runner, replay, run_episode
from v2xloop.ldm import EventHypothesis, Track, initial_state
from v2xloop.logio import read_csv, rows
from v2xloop.metrics import clear_mot, command_variance, lateral_rmse
from v2xloop.pareto import (config_grid, evaluate_grid, hypervolume,
                            nondominated_set, normalize)
from v2xloop.planner import (PREFIX_HORIZON, PlanningMaps,
                             Trajectory, obstacle_grid, plan, ttc_min)
from v2xloop.scenarios import build_s2, build_s3, build_s4
from v2xloop.vehicle import (COLLISION_RADIUS, MAX_CURVATURE, WHEELBASE, VehicleState,
                             step)
from v2xloop.world import LaneSegment, Route, planning_occupancy

SEEDS = tuple(range(1, 31))


def _verdict(config, num, label, ok, detail):
    line = f"[{num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    lines = getattr(config, "_acceptance_lines", None)
    if lines is None:
        lines = []
        config._acceptance_lines = lines
    lines.append(line)


def _traj_from_path(path, speed):
    path = np.asarray(path, dtype=float)
    d = np.diff(path, axis=0)
    headings = np.arctan2(d[:, 1], d[:, 0])
    headings = np.append(headings, headings[-1])
    poses = np.column_stack([path, headings])
    return Trajectory(poses=poses, target_speeds=np.full(len(path), speed),
                      planned_on_version=0, planned_at=0.0)


# ---------------------------------------------------------------------------
# episode banks, one run per arm and seed


@pytest.fixture(scope="module")
def s2_bank():
    on = [run_episode(build_s2(True), s).metrics for s in SEEDS]
    off = [run_episode(build_s2(False), s).metrics for s in SEEDS]
    return on, off


@pytest.fixture(scope="module")
def s3_bank(tmp_path_factory):
    root = tmp_path_factory.mktemp("s3-updates")
    dirs = [root / f"seed-{s:04d}" for s in SEEDS]
    on = [run_episode(build_s3(True), s, d).metrics for s, d in zip(SEEDS, dirs)]
    off = [run_episode(build_s3(False), s).metrics for s in SEEDS]
    return on, off, dirs


@pytest.fixture(scope="module")
def s4_bank():
    t0 = time.perf_counter()
    on = [run_episode(build_s4(True), s).metrics for s in SEEDS]
    off = [run_episode(build_s4(False), s).metrics for s in SEEDS]
    return on, off, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. frontier extraction agrees with the quadratic oracle and stays fast


def _pairwise_frontier(pts):
    a = pts[:, None, :]
    b = pts[None, :, :]
    dom = (a <= b).all(axis=2) & (a < b).any(axis=2)
    return np.flatnonzero(~dom.any(axis=0)).tolist()


def test_01_frontier_matches_pairwise_oracle(pytestconfig):
    rng = np.random.default_rng(101)
    sweep_time = 0.0
    mismatches = 0
    for i in range(200):
        d = (2, 3, 5)[i % 3]
        n = int(rng.integers(1, 501))
        pts = rng.random((n, d))
        if i % 3 == 0:
            pts = np.round(pts, 1)  # coarse values force ties and duplicates
        t0 = time.perf_counter()
        got = nondominated_set(pts)
        sweep_time += time.perf_counter() - t0
        if sorted(got) != _pairwise_frontier(pts):
            mismatches += 1
    ok = mismatches == 0 and sweep_time < 5.0
    _verdict(pytestconfig, 1, "nondominated set vs pairwise oracle", ok,
             f"200 sets (N<=500, d in 2/3/5), {mismatches} mismatches, "
             f"sweep time {sweep_time:.2f}s < 5s")
    assert ok


# ---------------------------------------------------------------------------
# 2. exact hypervolume against a million-sample estimate


def test_02_hypervolume_exact_vs_monte_carlo(pytestconfig):
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        m = int(rng.integers(3, 25))
        pts = 0.05 + 0.9 * rng.random((m, d))
        pts = pts[nondominated_set(pts)]
        ref = np.ones(d)
        exact = hypervolume(pts, ref)
        est = mc_hypervolume(pts, ref, samples=1_000_000,
                             seed=int(rng.integers(1 << 31)))
        worst = max(worst, abs(exact - est))
    x = rng.random(2) * 0.9
    ref2 = x + 0.1 + rng.random(2)
    rect_exact = hypervolume([x], ref2) == \
        (ref2[0] - x[0]) * (ref2[1] - x[1])
    ok = worst <= 0.01 and rect_exact
    _verdict(pytestconfig, 2, "hypervolume exact vs 1e6-sample MC", ok,
             f"worst |exact-mc| {worst:.4f} <= 0.01 over 50 frontiers, "
             f"single-point rectangle exact: {rect_exact}")
    assert ok


# ---------------------------------------------------------------------------
# 3. quorum gate: clean rates over 30 seeds and no minority coalition wins


def test_03_gate_blocks_minority_attacks(pytestconfig, s4_bank):
    on, off, bank_wall = s4_bank
    spec = build_s4(True)
    t0 = time.perf_counter()
    ids = [st.station_id for st in spec.stations.stations]
    breaches = 0
    tried = 0
    for k in range(1, spec.gate.f + 1):
        for subset in itertools.combinations(ids, k):
            hyp = EventHypothesis(
                event_id="forged", kind="road_closure", position=(60.0, 50.0),
                first_seen=1.0,
                support={sid: (1.0, (60.0, 50.0)) for sid in subset})
            w = support(hyp, spec.gate, now=1.05)
            decision = evaluate(hyp, spec.gate, sensor_likelihood=1.0, now=1.05)
            tried += 1
            if decision.accepted or w >= spec.gate.threshold():
                breaches += 1
    wall = bank_wall + (time.perf_counter() - t0)
    fpr_on = [m.false_positive_rate for m in on]
    fnr_on = [m.false_negative_rate for m in on]
    fpr_off = [m.false_positive_rate for m in off]
    rates_ok = (all(v == 0.0 for v in fpr_on) and all(v == 0.0 for v in fnr_on)
                and all(v == 1.0 for v in fpr_off))
    ok = rates_ok and breaches == 0 and wall < 120.0
    _verdict(pytestconfig, 3, "quorum gate attack envelope", ok,
             f"gated FPR/FNR all 0.00, ungated FPR all 1.00 over 30 seeds: "
             f"{rates_ok}; {tried} coalitions of <= f stations, {breaches} "
             f"reached quorum; wall {wall:.0f}s < 120s")
    assert ok


# ---------------------------------------------------------------------------
# 4. shared hazard claims: fewer collisions, earlier braking, larger margins


def test_04_v2x_hazard_response(pytestconfig, s2_bank):
    on, off = s2_bank
    spec = build_s2(True)
    cap = PREFIX_HORIZON  # rollout window; inf means "never closed in"
    coll_on = sum(1 for m in on if m.collisions > 0)
    coll_off = sum(1 for m in off if m.collisions > 0)
    ttc_on = mean(min(m.ttc_min, cap) for m in on)
    ttc_off = mean(min(m.ttc_min, cap) for m in off)
    reacts = [m.v2x_reaction_ms for m in on if m.v2x_reaction_ms is not None]
    mu = spec.channel.latency_mean * 1000.0
    band = 3.0 * spec.channel.latency_jitter * 1000.0
    react_mean = mean(reacts) if reacts else math.inf
    ok = (coll_on < coll_off and ttc_on > ttc_off
          and abs(react_mean - mu) <= band)
    _verdict(pytestconfig, 4, "hazard response with shared claims", ok,
             f"collision episodes {coll_on} < {coll_off}, mean min-TTC "
             f"{ttc_on:.2f}s > {ttc_off:.2f}s (capped at {cap:.1f}s), reaction "
             f"{react_mean:.0f}ms within {mu:.0f}+/-{band:.0f}ms over "
             f"n={len(reacts)}")
    assert ok


# ---------------------------------------------------------------------------
# 5. map updates: completion gap, activation timing, replan on activation


def test_05_map_update_reroute(pytestconfig, s3_bank):
    on, off, dirs = s3_bank
    rate_on = mean(1.0 if m.completion else 0.0 for m in on)
    rate_off = mean(1.0 if m.completion else 0.0 for m in off)
    latency_ok = True
    replan_ok = True
    worst_slack = 0.0
    dt = 0.05
    for d in dirs:
        ups = rows(read_csv(d / "logs" / "updates.csv", LOG_COLUMNS["updates"]))
        plans = rows(read_csv(d / "logs" / "plans.csv", LOG_COLUMNS["plans"]))
        veh = rows(read_csv(d / "logs" / "vehicle.csv", LOG_COLUMNS["vehicle"]))
        dt = veh[1]["t"] - veh[0]["t"]
        acts = [r for r in ups if r["action"] == "activate"]
        if not acts:
            latency_ok = False
            continue
        for act in acts:
            polls = [r for r in ups if r["action"] == "poll"
                     and r["version_id"] == act["version_id"]
                     and r["t"] <= act["t"] + 1e-9]
            if not polls:
                latency_ok = False
                continue
            drawn = polls[-1]["value"] - polls[-1]["t"]  # download latency draw
            slack = (act["t"] - polls[-1]["t"]) - drawn  # tick-boundary rounding
            worst_slack = max(worst_slack, slack)
            if not -1e-9 <= slack <= dt + 1e-9:
                latency_ok = False
            if not any(r["tick"] == act["tick"]
                       and "knowledge_change" in r["cause"] for r in plans):
                replan_ok = False
    gap = rate_on - rate_off
    ok = gap >= 0.20 and latency_ok and replan_ok
    _verdict(pytestconfig, 5, "versioned map reroute", ok,
             f"completion {rate_on:.2f} vs {rate_off:.2f} (gap {100*gap:.0f}pp "
             f">= 20pp), activation = download draw + at most one tick (worst "
             f"slack {1000*worst_slack:.0f}ms of {1000*dt:.0f}ms): {latency_ok}, "
             f"replan logged on the activation tick: {replan_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 6. planner envelope on randomized corridor instances


def _corridor_instance(rng):
    """Gentle random S-bend with up to two parked obstructions; always solvable:
    each stamped disk leaves at least a 3 m slot against the corridor edge."""
    y0 = float(rng.uniform(20.0, 80.0))
    amp = float(rng.uniform(0.0, 6.0))
    xs = np.arange(4.0, 96.0 + 1e-9, 2.0)
    ys = y0 + amp * np.sin(2.0 * math.pi * (xs - 4.0) / 92.0)
    line = np.column_stack([xs, ys])
    vmap = corridor_map([LaneSegment("lane", line.tolist(), half_width=5.0)], 100.0, 100.0)

    def pose_at(i):
        dx, dy = line[i + 1] - line[i]
        return float(xs[i]), float(ys[i]), math.atan2(dy, dx)

    start = pose_at(1)
    goal = pose_at(len(xs) - 2)
    route = Route(reference_path=line, goal_pose=goal)

    tracks = []
    n_obs = int(rng.integers(0, 3))
    slots = [(25.0, 45.0), (57.0, 77.0)]
    for j in range(n_obs):
        ox = float(rng.uniform(*slots[j]))
        oy = float(np.interp(ox, xs, ys)) + (2.0 if j % 2 == 0 else -2.0)
        tracks.append(Track(track_id=f"T{j}", position=(ox, oy),
                            velocity=(0.0, 0.0), belief=0.9,
                            last_update=0.0))
    ldm = initial_state(vmap.initial())
    ldm.objects.extend(tracks)
    return start, goal, route, vmap, ldm


def test_06_planner_success_rate_and_bounds(pytestconfig):
    rng = np.random.default_rng(606)
    failures = 0
    worst_ratio = 0.0
    collisions = 0
    times_ms = []
    for _ in range(30):
        start, goal, route, vmap, ldm = _corridor_instance(rng)
        # each instance is its own map version, so its first plan builds
        # the static field inside its cpu_ms, as an episode's first plan
        # does; no deviation field prices none
        base = planning_occupancy(vmap, ldm.active_map, COLLISION_RADIUS)
        maps = PlanningMaps(base, np.zeros(base.cells.shape))
        attempt = plan(start, goal, ldm, "initial", maps, 0.0)
        if not attempt.succeeded:
            failures += 1
            continue
        times_ms.append(attempt.cpu_ms)
        poses = attempt.trajectory.poses
        d = np.diff(poses[:, :2], axis=0)
        chord = np.hypot(d[:, 0], d[:, 1])
        dh = np.abs(np.diff(np.unwrap(poses[:, 2])))
        m = chord > 1e-9
        # samples are exact constant-curvature arcs; recover each step's
        # curvature from heading change and chord (chord = 2 sin(dh/2) / k)
        # instead of dividing by the chord, which overstates k by (k ds)^2/24
        kappa = 2.0 * np.sin(dh[m] / 2.0) / chord[m]
        worst_ratio = max(worst_ratio, float(np.max(kappa) / MAX_CURVATURE))
        grid = obstacle_grid(ldm, base, start[:2])
        if any(occupied_at(grid, x, y) for x, y, _ in poses):
            collisions += 1
    mean_ms = mean(times_ms) if times_ms else math.inf
    ok = (failures == 0 and collisions == 0
          and worst_ratio <= 1.0 + 1e-9 and mean_ms < 100.0)
    _verdict(pytestconfig, 6, "planner envelope", ok,
             f"30/30 solvable instances on a 200x200 grid: {30 - failures} "
             f"succeeded, {collisions} grid collisions, max implied-arc "
             f"|k|/k_max {worst_ratio:.12f} <= 1+1e-9, mean plan "
             f"{mean_ms:.1f}ms < 100ms")
    assert ok


# ---------------------------------------------------------------------------
# 7. operating-point sweep dominates without shared claims


def _arm_hypervolume(norm_pts):
    if len(norm_pts) == 0:
        return 0.0
    idx = nondominated_set(norm_pts)
    sub = norm_pts[idx][:, (0, 1, 3)]  # tracking, safety, smoothness
    ref = np.array([1.1, 1.1, 1.1])
    mask = np.all(sub < ref, axis=1)
    return float(hypervolume(sub[mask], ref)) if mask.any() else 0.0


def test_07_sweep_hypervolume_ordering(pytestconfig):
    grid = {"look_ahead": [3.0, 4.0, 5.0, 6.0, 8.0],
            "k_p": [0.4, 0.6, 0.8],
            "tau_risk": [2.0, 2.5, 3.0, 3.5]}
    configs = config_grid(grid)
    pts_on = evaluate_grid(configs, make_episode_runner({"s2": build_s2(True)}),
                           [1], ["s2"])
    pts_off = evaluate_grid(configs, make_episode_runner({"s2": build_s2(False)}),
                            [1], ["s2"])
    safe_on = [p.objectives for p in pts_on if not p.collided]
    safe_off = [p.objectives for p in pts_off if not p.collided]
    # one normalization across both arms so the volumes are comparable
    joint = normalize(safe_on + safe_off) if safe_on + safe_off else np.empty((0, 5))
    hv_on = _arm_hypervolume(joint[:len(safe_on)])
    hv_off = _arm_hypervolume(joint[len(safe_on):])
    ok = hv_on > hv_off
    _verdict(pytestconfig, 7, "sweep hypervolume ordering", ok,
             f"{len(configs)} operating points per arm, safe {len(safe_on)} vs "
             f"{len(safe_off)}, H(with claims) {hv_on:.3f} > H(sensors only) "
             f"{hv_off:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 8. controller and dynamics oracles


def test_08_controller_and_dynamics_oracles(pytestconfig):
    # converged circle steering against atan(L/R)
    radius = 20.0
    ang = np.linspace(0.0, 2.0 * math.pi, 200)
    circle = _traj_from_path(np.column_stack([radius * np.cos(ang),
                                              radius * np.sin(ang)]), 5.0)
    expected = math.atan(WHEELBASE / radius)
    s = VehicleState(x=radius, y=0.0, heading=math.pi / 2, speed=5.0)
    last = 0.0
    for _ in range(400):
        last = pure_pursuit(s.pose, circle, 3.0, circle.project(s.position))
        s = step(s, ControlCommand(steering=last, throttle=0.0, brake=0.0), 0.02)
        s = VehicleState(x=s.x, y=s.y, heading=s.heading, speed=5.0,
                         steering=s.steering)
    steer_err = abs(last - expected) / expected

    # fixed-steer circle radius against L/tan(delta)
    delta = math.radians(20.0)
    expected_r = WHEELBASE / math.tan(delta)
    s = VehicleState(x=0.0, y=0.0, heading=0.0, speed=5.0)
    xs, ys = [], []
    n = int(2.0 * math.pi * expected_r / 5.0 / 0.01) + 10
    for _ in range(n):
        s = step(s, ControlCommand(steering=delta, throttle=0.0, brake=0.0), 0.01)
        s = VehicleState(x=s.x, y=s.y, heading=s.heading, speed=5.0,
                         steering=s.steering)
        xs.append(s.x)
        ys.append(s.y)
    cx, cy = mean(xs), mean(ys)
    radii = [math.hypot(x - cx, y - cy) for x, y in zip(xs, ys)]
    radius_err = abs(mean(radii) - expected_r) / expected_r

    # integral stays inside the clamp through hard saturation both ways
    ccfg = ControllerConfig()
    pid = PidState()
    rng = np.random.default_rng(808)
    worst_integral = 0.0
    for k in range(2000):
        if k < 700:
            err = 6.0
        elif k < 1400:
            err = -6.0
        else:
            err = float(rng.normal(0.0, 2.0))
        _, pid = pid_longitudinal(err, pid, ccfg, 0.05)
        worst_integral = max(worst_integral, abs(pid.integral))
    clamp_ok = worst_integral <= INTEGRAL_CLAMP + 1e-12

    # closed-loop straight tracking from a small offset
    straight = _traj_from_path([[0.0, 0.0], [120.0, 0.0]], 8.0)
    s = VehicleState(x=0.0, y=0.3, heading=0.05, speed=8.0)
    pid = PidState()
    lateral = []
    for _ in range(250):
        cmd, pid, _ = follow_tick(s, straight, straight.project(s.position), ccfg,
                                  pid, 0.05)
        s = step(s, cmd, 0.05)
        if s.x > 20.0:  # settle the initial transient first
            lateral.append(s.y)
        if s.x > 110.0:
            break
    rmse = math.sqrt(sum(v * v for v in lateral) / len(lateral))

    ok = (steer_err <= 0.05 and radius_err <= 0.01 and clamp_ok
          and rmse < 0.05)
    _verdict(pytestconfig, 8, "controller and dynamics oracles", ok,
             f"circle steer err {100*steer_err:.1f}% <= 5%, radius err "
             f"{100*radius_err:.2f}% <= 1%, max |integral| {worst_integral:.3f}"
             f" <= {INTEGRAL_CLAMP}, straight RMSE {rmse:.3f}m < 0.05m")
    assert ok


# ---------------------------------------------------------------------------
# 9. metric hand values, exact


def test_09_metric_hand_values(pytestconfig):
    rmse_ok = lateral_rmse([0.5] * 5 + [-0.5] * 5) == 0.5
    steer_var_ok = command_variance([0.25, -0.25] * 5) == 0.0625
    throttle_var_ok = command_variance([0.0, 1.0] * 5) == 0.25

    # constant-velocity gap closure: (29 - (2 + 1)) / 4 = 6.5 s
    traj = _traj_from_path([[float(x), 0.0] for x in range(41)], 4.0)
    tr = Track(track_id="T", position=(29.0, 0.0), velocity=(0.0, 0.0),
               belief=0.9, last_update=0.0)
    ego = VehicleState(x=0.0, y=0.0, heading=0.0, speed=4.0)
    ttc = ttc_min(ego, traj, traj.project(ego.position), [tr], horizon=8.0,
                  collision_radius=2.0, track_radius=1.0)
    ttc_ok = ttc == 6.5

    # 10-tick tracking log: 8 truth ticks, one miss, one identity switch,
    # every match exactly 0.5 m off: MOTA 1 - 2/8, MOTP 1 - 0.25
    gt = {k: ([("G", 10.0 + k, 5.0)] if k < 8 else []) for k in range(10)}
    trk = {}
    for k in range(10):
        rows = []
        if k < 8 and k != 2:
            rows = [("T1" if k < 5 else "T2", 10.0 + k + 0.5, 5.0)]
        trk[k] = rows
    mota, motp, idsw = clear_mot(gt, trk, match_radius=2.0)
    mot_ok = mota == 0.75 and motp == 0.75 and idsw == 1

    ok = rmse_ok and steer_var_ok and throttle_var_ok and ttc_ok and mot_ok
    _verdict(pytestconfig, 9, "metric hand values", ok,
             f"rmse==0.5: {rmse_ok}, var==0.0625/0.25: "
             f"{steer_var_ok and throttle_var_ok}, ttc==6.5: {ttc_ok}, "
             f"MOTA/MOTP/switches == 0.75/0.75/1: {mot_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 10. bitwise determinism and replay


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_10_deterministic_reruns_and_replay(pytestconfig, tmp_path):
    cases = [("s2-claims", lambda: build_s2(True), 7),
             ("s3-updates", lambda: build_s3(True), 11)]
    logs_same = summary_same = replay_same = True
    for name, build, seed in cases:
        dir_a = tmp_path / f"{name}-a"
        dir_b = tmp_path / f"{name}-b"
        res_a = run_episode(build(), seed, dir_a)
        res_b = run_episode(build(), seed, dir_b)
        logs_same &= _tree_bytes(dir_a / "logs") == _tree_bytes(dir_b / "logs")
        summary_same &= ((dir_a / "summary.json").read_bytes()
                         == (dir_b / "summary.json").read_bytes())
        replay_same &= (replay(dir_a) == res_a.metrics
                        and replay(dir_b) == res_b.metrics)
    ok = logs_same and summary_same and replay_same
    _verdict(pytestconfig, 10, "bitwise determinism and replay", ok,
             f"2 scenario/seed pairs rerun: log trees byte-identical: "
             f"{logs_same}, summaries byte-identical: {summary_same}, replay "
             f"reproduces stored metrics exactly: {replay_same}")
    assert ok
