"""Closed-loop episode execution, logging, and derived metrics.

One episode couples the world, the fused environment model, the acceptance
gate, the replanner, and the tracking controller on a fixed-step clock.
The order inside a tick is always: activate any downloaded map, snapshot
ground truth, check termination, sense, exchange V2X traffic, fuse, poll
the map server (every ego does, every `world.POLL_INTERVAL`), gate
pending event hypotheses, project the ego onto the plan, evaluate replan
triggers, compute the command, log, step the vehicle. The ego is projected
once onto the plan per tick (again onto a plan a replan just made), and
every stage reuses that arc length. No decision reads the ego's place on
the route: `vehicle.csv`'s route columns (`s_route`, `cross_track`,
`heading_err`) are filled in after the last tick, from one
`world.Polyline.project_many` of every logged position, and a forged claim
placed on the route ahead projects the ego only on the ticks it is made
(`v2x.generate_attack_traffic`).

The ego follows its plan and replans when a trigger fires. No plan means a
safety stop: the brake ramps to full, and planning is retried every
RECOVERY_TICKS ticks until a plan is found or the ego stands still.

Work that does not depend on the seed is done once and kept on the object
it derives from, never in `logs/` and never in the scenario document:

- the planning maps (`planner.PlanningMaps`: inflated grid, route
  deviation field, and the cost-to-goal fields the planner stores in
  them per goal), per route, on the map version;
- in those maps, beside the static grid's fields, the last stamped grid's
  cost-to-goal field, which the next plan that stamps the same cells
  toward the same goal reuses, as the sweep's points at one seed do round
  their hazard (`pareto.evaluate_grid` runs them back to back);
- the tick-0 plan, searched on an empty LDM and so the same for every
  seed, per start pose, start steering and goal, on the planning maps
  (`_initial_plan`);
- the objects physically present at each time t (`ScenarioSpec.truth_at`:
  the scripted traffic, and one object per hazard), on the spec;
- the honest and the Byzantine stations in id order, on the population;
- the last full projection scan, on each path (`world.Polyline.project`):
  a plan's serves the ticks that follow it, and the route's, which only
  the attack queries, carries over from one episode to the next. A query
  answers from it only when the triangle inequality proves that no
  segment the scan left out can be as near, so every answer has the bits
  of a scan of every segment, and an episode's logs do not depend on the
  queries before it.

Each lives as long as its object: every episode of a batch or sweep that
runs on the same objects (the seeds of a spec, and the copies
`apply_configuration` makes) reuses it, and a freshly built spec starts
without any. Within a tick, fusion predicts each track once and reads
its measurements in one pass (`ldm.fuse_tick`), and
`planner.ttc_min` rolls out only the tracks that can come within reach of
the ego's rollout box.

A value the tick loop keeps, fuses or logs is a Python float; numpy works
only over arrays (grids, risk rollouts, search batches, polyline scans).
A numpy scalar in a detection, a payload or a track would make every later
scalar operation on it several times dearer. So the per-tick draws use the
exact cheaper forms, which take the same draws from the same stream with
the same bits: `gen.random()` for `gen.uniform()`,
`rng.uniform(gen, low, high)` (numpy's own `low + (high - low) *
next_double`) for `gen.uniform(low, high)`, and
`gen.normal(0.0, s, size=2).tolist()`. `Polyline.point_at` and
`Trajectory.speed_at` do np.interp's scalar arithmetic over Python lists.

Determinism contract: every stochastic draw goes through a named Philox
stream, log rows are kept in an order fixed by the loop itself, and their
cells are formatted to nine significant digits once, at episode end, a
column at a time. Episode metrics are computed from the formatted cells
rather than from simulator internals: an episode parses only the columns
they read (METRIC_COLUMNS), from the cells it wrote when it writes its logs.
Rerunning a seed reproduces the log directory byte for byte (`v2xloop
replay --rerun` checks that from a run directory), and `replay` recovers
the exact metrics from disk, parsing and checking every cell. Wall-clock
planner timings are real measurements and go to a separate timing file
outside the log directory.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

from .control import PidState, follow_tick, safety_stop_command
from .gate import SENSOR_SUPPORT_RADIUS, apply_decision, evaluate
from .ldm import PENDING, LdmState, fuse_tick, initial_state
from .logio import (ANY, NUMBER, CsvLog, _round_floats, read_csv, read_json,
                    roundtrip_rows, write_json)
from .metrics import (EpisodeMetrics, MetricParams, aggregate, brake_energy,
                      clear_mot, command_variance, gate_rates, heading_stats,
                      lateral_rmse, objective_vector, v2x_reaction_ms)
from .pareto import Configuration, ParetoResult, config_grid
from .pareto import sweep as pareto_sweep
from .perception import sense, sensor_likelihood
from .planner import (B_OBSTACLE, PREFIX_HORIZON, TRACK_RADIUS, PlanAttempt,
                      PlanningMaps, check_triggers, plan, route_deviation_field,
                      ttc_min, unexplained_tracks)
from .rng import StreamSet
from .scenarios import DT, ScenarioSpec, apply_configuration, build_scenario
from .v2x import DENM, generate_attack_traffic, generate_honest_traffic, transmit
from .vehicle import COLLISION_RADIUS, VehicleState, step
from .world import (OBJECT_RADIUS, POLL_INTERVAL, MapVersion, Polyline,
                    VersionedMap, download_latency, fires_at, planning_occupancy,
                    poll_update, wrap_angle)

RECOVERY_TICKS = 10               # replan retry cadence during a stop ramp
SENSOR_LIKELIHOOD_WINDOW = 1.0    # [s] of frames the gate's veto reads
EVENT_LABEL_RADIUS = 16.0         # [m] a claim this near a same-kind hazard is true
# [m] the episode ends at the goal within this distance; at least the
# planner's GOAL_XY_TOL, or a plan could end inside the planner's goal
# region but outside the episode's and the ego hold still until timeout
GOAL_TOLERANCE = 2.0

# column name -> kind (logio: int, bool, float, str; "?" allows None)
# the ego's state at the start of each tick, its place on the route and its TTC
VEHICLE_COLS = {"tick": "int", "t": "float", "x": "float", "y": "float",
                "heading": "float", "speed": "float", "s_route": "float",
                "cross_track": "float", "heading_err": "float", "ttc": "float"}
# each tick's command, which the vehicle applies as sent, and the speed it targets
CONTROL_COLS = {"tick": "int", "t": "float", "steering": "float",
                "throttle": "float", "brake": "float", "target_speed": "float"}
# each object present at each tick; every body's radius is meta.json's object_radius
TRUTH_COLS = {"tick": "int", "t": "float", "object_id": "str", "x": "float",
              "y": "float", "vx": "float", "vy": "float", "scored": "bool"}
LDM_COLS = {"tick": "int", "t": "float", "track_id": "str", "x": "float",
            "y": "float", "vx": "float", "vy": "float", "belief": "float"}
# CAM rows carry no event
V2X_COLS = {"tick": "int", "t": "float", "station_id": "str", "msg_kind": "str",
            "seq_no": "int", "gen_time": "float", "recv_time": "float",
            "event_kind": "str?", "event_x": "float?", "event_y": "float?"}
GATE_COLS = {"tick": "int", "t": "float", "event_id": "str", "accepted": "bool",
             "support": "int", "sensor_likelihood": "float",
             "reason": "str"}
EVENTS_COLS = {"t": "float", "event_id": "str", "kind": "str", "status": "str",
               "x": "float", "y": "float", "first_seen": "float",
               "accepted_at": "float?", "n_support": "int", "is_true": "bool",
               "final": "bool"}
PLANS_COLS = {"tick": "int", "t": "float", "cause": "str", "success": "bool",
              "expansions": "int", "path_length": "float", "n_poses": "int",
              "planned_on_version": "int"}
UPDATES_COLS = {"tick": "int", "t": "float", "action": "str",
                "version_id": "int", "value": "float"}
EPISODE_COLS = {"termination": "str", "sim_time": "float", "ticks": "int",
                "collision": "int"}
TIMING_COLS = {"plan_index": "int", "tick": "int", "cause": "str",
               "cpu_ms": "float", "expansions": "int", "heuristic_ms": "float"}
# a knob the grid leaves out keeps each scenario's own setting: an empty cell
SWEEP_COLS = {**{f.name: "str" if f.name == "config_id" else "float?"
                 for f in fields(Configuration)},
              **dict.fromkeys(("j_trk", "j_sfty", "j_resp", "j_smth", "j_eng"), "float"),
              **dict.fromkeys(("collided", "on_frontier", "is_knee"), "bool")}

# every replayable table of logs/, in the order the episode writes them
LOG_COLUMNS = {"vehicle": VEHICLE_COLS, "control": CONTROL_COLS,
               "truth": TRUTH_COLS, "ldm": LDM_COLS, "v2x": V2X_COLS,
               "gate": GATE_COLS, "events": EVENTS_COLS, "plans": PLANS_COLS,
               "updates": UPDATES_COLS, "episode": EPISODE_COLS}
LOG_NAMES = tuple(LOG_COLUMNS)
# the columns of each table compute_episode_metrics reads; an episode formats
# and parses only these to score itself
METRIC_COLUMNS = {
    "vehicle": ("speed", "heading_err", "ttc", "s_route", "cross_track"),
    "control": ("t", "steering", "throttle", "brake"),
    "truth": ("tick", "object_id", "x", "y", "scored"),
    "ldm": ("tick", "track_id", "x", "y", "belief"),
    "v2x": ("gen_time", "msg_kind", "event_kind", "event_x", "event_y"),
    "gate": (),
    "events": ("event_id", "status", "is_true", "accepted_at", "first_seen"),
    "plans": (),
    "updates": ("action", "version_id", "t"),
    "episode": ("termination", "sim_time", "collision"),
}
# the meta.json keys compute_episode_metrics reads, and their shape
# (logio.check_keys); `metrics` holds exactly MetricParams' fields, numbers
METRIC_META_KEYS = {"metrics": {f.name: NUMBER for f in fields(MetricParams)},
                    "dt": NUMBER, "route_length": NUMBER,
                    "hazards": [{"kind": ANY, "x": NUMBER, "y": NUMBER}],
                    "event_label_radius": NUMBER, "mot_belief_min": NUMBER}


@dataclass(frozen=True)
class EpisodeResult:
    scenario_id: str
    seed: int
    metrics: EpisodeMetrics
    summary: dict
    out_dir: Path | None


def _new_logs() -> dict[str, CsvLog]:
    return {name: CsvLog(columns) for name, columns in LOG_COLUMNS.items()}


def _is_true_claim(kind: str, x: float, y: float, hazards, radius: float) -> bool:
    """A claimed event is true iff a same-kind hazard, given as (kind, x, y),
    lies within `radius` of it."""
    return any(hk == kind and math.hypot(x - hx, y - hy) <= radius
               for hk, hx, hy in hazards)


def _planning_maps(vmap: VersionedMap, version: MapVersion,
                   route: Polyline) -> PlanningMaps:
    """The PlanningMaps of `version`, on `vmap`, for `route`, built on
    first use and kept in the version's planning_memo, so every episode of
    a spec (and of specs sharing its map objects) reuses them and the
    cost-to-goal fields its plans store in them."""
    maps = version.planning_memo.get(route)
    if maps is None:
        grid = planning_occupancy(vmap, version, COLLISION_RADIUS)
        maps = version.planning_memo[route] = PlanningMaps(
            grid, route_deviation_field(grid, route))
    return maps


def _initial_plan(maps: PlanningMaps, ego: VehicleState, goal,
                  ldm: LdmState) -> PlanAttempt:
    """The tick-0 plan from `ego` on `maps`. The LDM is still empty then,
    so the search reads no seeded draw: it runs once per start and goal
    pose and start steering, and is kept in `maps.initial_plans`. A hit
    returns the kept attempt with the lookup's wall time as cpu_ms and no
    field build."""
    t0 = time.perf_counter()
    # the bits of each coordinate, so 0.0 and -0.0 stay apart
    key = struct.pack("7d", *ego.pose, ego.steering, *goal)
    attempt = maps.initial_plans.get(key)
    if attempt is None:
        attempt = maps.initial_plans[key] = plan(
            ego.pose, goal, ldm, cause="initial", maps=maps,
            start_steering=ego.steering)
        return attempt
    return replace(attempt, cpu_ms=(time.perf_counter() - t0) * 1000.0,
                   heuristic_ms=0.0)


def _build_meta(spec: ScenarioSpec, seed: int) -> dict:
    meta = {
        "scenario_id": spec.scenario_id,
        "seed": int(seed),
        "dt": DT,
        "time_limit": spec.time_limit,
        "route_length": spec.route.reference_path.length,
        "goal": list(spec.route.goal_pose),
        "goal_tolerance": GOAL_TOLERANCE,
        "collision_radius": COLLISION_RADIUS,
        "object_radius": OBJECT_RADIUS,
        "event_label_radius": EVENT_LABEL_RADIUS,
        "mot_belief_min": B_OBSTACLE,
        "metrics": asdict(MetricParams()),
        "hazards": [{"id": h.hazard_id, "x": h.position[0], "y": h.position[1],
                     "kind": h.kind, "spawn_time": h.spawn_time} for h in spec.hazards],
    }
    # round exactly as the JSON writer would, so in-run metrics see the same
    # numbers a replay reads back from meta.json
    return _round_floats(meta)


def run_episode(spec: ScenarioSpec, seed: int,
                out_dir: str | Path | None = None) -> EpisodeResult:
    """Run one seeded episode; optionally persist logs, summary, and timings."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    streams = StreamSet(seed)
    logs = _new_logs()
    timing = CsvLog(TIMING_COLS)
    meta = _build_meta(spec, seed)

    active = spec.vmap.initial()
    pending_map: tuple | None = None      # (version, activation time)

    ego = VehicleState(*spec.ego_start)
    pid = PidState()
    goal = spec.route.goal_pose
    ref = spec.route.reference_path

    ldm = initial_state(active)
    frames_window: list = []
    # each tick's vehicle row but its route columns, which are filled in
    # after the last tick
    vehicle_rows: list = []
    in_flight: list = []
    seq_counters: dict[str, int] = {}
    denm_started: set = set()
    logged_status: dict[str, str] = {}
    # labels use the hazards as built, not the rounded copy in meta.json
    hazards = [(h.kind, h.position[0], h.position[1]) for h in spec.hazards]
    cam_bound = set()
    if spec.stations is not None:
        cam_bound = {s.bound_object for s in spec.stations.honest()
                     if s.bound_object is not None}

    def replan(cause: str, tick: int, t: float):
        """Plan from the current ego state on the active map, log the attempt
        and return its trajectory, None when the search failed."""
        maps = _planning_maps(spec.vmap, active, ref)
        if cause == "initial":
            attempt = _initial_plan(maps, ego, goal, ldm)
        else:
            attempt = plan(ego.pose, goal, ldm, cause=cause, maps=maps,
                           start_steering=ego.steering)
        traj = attempt.trajectory
        logs["plans"].append(tick, t, attempt.cause, traj is not None, attempt.expansions,
                             0.0 if traj is None else traj.path.length,
                             0 if traj is None else len(traj.poses), active.version_id)
        timing.append(len(timing.rows), tick, attempt.cause, attempt.cpu_ms,
                      attempt.expansions, attempt.heuristic_ms)
        return traj

    def log_event(t: float, ev, final: int) -> None:
        logs["events"].append(t, ev.event_id, ev.kind, ev.status, ev.position[0],
                              ev.position[1], ev.first_seen, ev.accepted_at,
                              len(ev.support),
                              _is_true_claim(ev.kind, *ev.position, hazards,
                                             EVENT_LABEL_RADIUS), final)

    # stop_tick: the last failed plan attempt, which the retries count from
    traj = replan("initial", 0, 0.0)
    stop_tick = 0

    n_ticks = int(round(spec.time_limit / DT))
    for k in range(n_ticks):
        t = k * DT

        if pending_map is not None and t >= pending_map[1] - 1e-9:
            active = pending_map[0]
            logs["updates"].append(k, t, "activate", active.version_id, t)
            pending_map = None

        truth = spec.truth_at(t)

        termination = None
        if any(math.hypot(ego.x - o.position[0], ego.y - o.position[1])
               < COLLISION_RADIUS + OBJECT_RADIUS for o in truth):
            termination = "collision"
        elif math.hypot(ego.x - goal[0], ego.y - goal[1]) <= GOAL_TOLERANCE:
            termination = "goal_reached"
        elif traj is None and ego.speed <= 0.02:
            termination = "safety_stop"
        if termination is not None:
            break

        frame = sense(ego.pose, truth, spec.sensor, streams.get("sense"), t)
        frames_window.append(frame)
        while frames_window[0].timestamp < t - SENSOR_LIKELIHOOD_WINDOW:
            frames_window.pop(0)

        for obj in truth:
            scored = frame.covers(obj.position) or obj.object_id in cam_bound
            logs["truth"].append(k, t, obj.object_id, *obj.position, *obj.velocity,
                                 scored)

        due: list = []
        if spec.stations is not None:
            active_hazards = [h for h in spec.hazards if h.spawn_time <= t]
            outgoing = generate_honest_traffic(
                spec.stations, truth, active_hazards, t, DT, seq_counters,
                streams.get("v2x_honest"), denm_started)
            if spec.attack is not None:
                outgoing += generate_attack_traffic(
                    spec.attack, spec.stations, spec.route, ego.position, t, DT,
                    seq_counters, streams.get("attack"),
                    map_bounds=(0.0, 0.0, spec.vmap.size[0], spec.vmap.size[1]))
            if outgoing:
                in_flight.extend(transmit(outgoing, spec.channel,
                                          streams.get("channel")))
            due = [m for m in in_flight if m.recv_time <= t + 1e-9]
            if due:
                in_flight = [m for m in in_flight if m.recv_time > t + 1e-9]
                # in_flight mixes ticks' deliveries: this sort alone orders them
                due.sort(key=lambda m: (m.recv_time, m.station_id, m.seq_no))
                for m in due:
                    if m.msg_kind == DENM:
                        ek = m.payload.event_kind
                        ex, ey = m.payload.event_position
                    else:
                        ek, ex, ey = None, None, None
                    logs["v2x"].append(k, t, m.station_id, m.msg_kind, m.seq_no,
                                       m.gen_time, m.recv_time, ek, ex, ey)

        ldm = fuse_tick(ldm, t, due, active, [frame])

        if k > 0 and fires_at(t, DT, POLL_INTERVAL):
            newest = active if pending_map is None else pending_map[0]
            polled = poll_update(t, newest.version_id, spec.vmap,
                                 download_latency(streams.get("updates")))
            if polled is not None:
                pending_map = polled
                logs["updates"].append(k, t, "poll", polled[0].version_id, polled[1])

        for ev in sorted((e for e in ldm.events if e.status == PENDING),
                         key=lambda e: e.event_id):
            lhood = sensor_likelihood(ev.position, frames_window, SENSOR_SUPPORT_RADIUS)
            decision = evaluate(ev, spec.gate, lhood, t)
            apply_decision(ev, decision)
            logs["gate"].append(k, t, ev.event_id, decision.accepted,
                                decision.support,
                                decision.sensor_likelihood, decision.reason)

        for ev in sorted(ldm.events, key=lambda e: e.event_id):
            if logged_status.get(ev.event_id) != ev.status:
                logged_status[ev.event_id] = ev.status
                log_event(t, ev, 0)

        # s_plan: the ego's arc length along the plan, again after a replan
        ttc_now = math.inf
        cause = ""
        if traj is not None:
            s_plan = traj.path.project(ego.position)[0]
            ttc_now = ttc_min(ego, traj, s_plan, unexplained_tracks(ldm),
                              PREFIX_HORIZON, COLLISION_RADIUS, TRACK_RADIUS)
            cause = "+".join(check_triggers(ldm, traj, s_plan, spec.triggers,
                                            risk_ttc=ttc_now))
        elif k == stop_tick + RECOVERY_TICKS:
            # retry while the stop ramp still has speed: a stop forced by a
            # transient phantom track should not latch for the whole episode
            cause, pid = "recovery", PidState()
        if cause:
            traj = replan(cause, k, t)
            if traj is None:
                stop_tick = k
            else:
                s_plan = traj.path.project(ego.position)[0]

        if traj is None:
            cmd, target_speed = safety_stop_command(ego.brake, DT), 0.0
        else:
            cmd, pid, target_speed = follow_tick(ego, traj, s_plan, spec.controller,
                                                 pid, DT)

        vehicle_rows.append((k, t, ego.x, ego.y, ego.heading, ego.speed, ttc_now))
        logs["control"].append(k, t, cmd.steering, cmd.throttle, cmd.brake, target_speed)
        for tr in ldm.objects:
            logs["ldm"].append(k, t, tr.track_id, tr.position[0], tr.position[1],
                               tr.velocity[0], tr.velocity[1], tr.belief)

        ego = step(ego, cmd, DT)
    else:
        termination, k = "timeout", n_ticks
    # k ticks ran to completion
    sim_time = k * DT

    # the route columns, from one projection of every logged position
    s_route, cross_track, _, heading_ref = ref.project_many(
        [row[2:4] for row in vehicle_rows])
    for row, s, lateral, heading in zip(vehicle_rows, s_route.tolist(),
                                        cross_track.tolist(), heading_ref.tolist()):
        logs["vehicle"].append(*row[:6], s, lateral, wrap_angle(row[4] - heading),
                               row[6])

    for ev in sorted(ldm.events, key=lambda e: e.event_id):
        log_event(sim_time, ev, 1)
    logs["episode"].append(termination, sim_time, k, int(termination == "collision"))

    # each table's cells are formatted once, and only one table's at a time:
    # written, and its metric columns parsed from the written cells, or with
    # no out_dir only its metric columns formatted and parsed
    out_path = None if out_dir is None else Path(out_dir)
    if out_path is None:
        tables = {name: roundtrip_rows(log, METRIC_COLUMNS[name])
                  for name, log in logs.items()}
    else:
        logs_dir = out_path / "logs"
        tables = {name: roundtrip_rows(log, METRIC_COLUMNS[name],
                                       log.write(logs_dir / f"{name}.csv"))
                  for name, log in logs.items()}
        write_json(logs_dir / "meta.json", meta)
    m = compute_episode_metrics(tables, meta)
    summary = {
        "scenario_id": spec.scenario_id,
        "seed": seed,
        "termination": termination,
        "sim_time": sim_time,
        "metrics": asdict(m),
        "objectives": list(objective_vector(m, MetricParams())),
        "counters": {"plans": len(timing.rows), "ticks": k,
                     "events": len(ldm.events),
                     "tracks_born": ldm.tracks_born},
    }

    if out_path is not None:
        write_json(out_path / "summary.json", summary)
        timing.write(out_path / "timing.csv")

    return EpisodeResult(scenario_id=spec.scenario_id, seed=seed, metrics=m,
                         summary=summary, out_dir=out_path)


# ---------------------------------------------------------------------------
# metrics from logs


def compute_episode_metrics(tables: dict[str, dict[str, list]],
                            meta: dict) -> EpisodeMetrics:
    """Score an episode purely from its parsed log tables ({column: values},
    as read_csv returns them) and meta block."""
    params = MetricParams(**meta["metrics"])
    dt = float(meta["dt"])
    vehicle = tables["vehicle"]
    control = tables["control"]
    ep = tables["episode"]
    termination = ep["termination"][0]
    sim_time = ep["sim_time"][0]
    collisions = ep["collision"][0]

    h_rmse, h_mabs = heading_stats(vehicle["heading_err"])

    ttcs = [ttc for ttc in vehicle["ttc"] if ttc is not None and math.isfinite(ttc)]
    ttc_min_val = min(ttcs) if ttcs else math.inf

    route_length = float(meta["route_length"])
    progress = 0.0
    if vehicle["s_route"] and route_length > 0.0:
        progress = max(vehicle["s_route"]) / route_length
        progress = min(max(progress, 0.0), 1.0)

    hazards = [(hz["kind"], hz["x"], hz["y"]) for hz in meta["hazards"]]
    label_radius = float(meta["event_label_radius"])
    reaction = None
    v2x = tables["v2x"]
    true_denm_times = [gen for gen, kind, ek, ex, ey in zip(
                           v2x["gen_time"], v2x["msg_kind"], v2x["event_kind"],
                           v2x["event_x"], v2x["event_y"])
                       if kind == "DENM" and ex is not None
                       and _is_true_claim(ek, ex, ey, hazards, label_radius)]
    commands = zip(control["t"], control["steering"], control["throttle"],
                   control["brake"])
    if true_denm_times:
        reaction = v2x_reaction_ms(min(true_denm_times), commands, params)

    activation = None
    poll_t: dict[int, float] = {}
    updates = tables["updates"]
    for action, vid, t in zip(updates["action"], updates["version_id"], updates["t"]):
        if action == "poll":
            poll_t.setdefault(vid, t)
        elif action == "activate" and activation is None and vid in poll_t:
            activation = t - poll_t[vid]

    events = tables["events"]
    # each event's last row is its final state
    final = list({eid: i for i, eid in enumerate(events["event_id"])}.values())
    status, is_true = events["status"], events["is_true"]
    accepted_at, first_seen = events["accepted_at"], events["first_seen"]
    latencies = [(accepted_at[i] - first_seen[i]) * 1000.0
                 for i in final
                 if status[i] == "accepted" and is_true[i] == 1
                 and accepted_at[i] is not None]
    trigger_latency = sum(latencies) / len(latencies) if latencies else None

    fpr, fnr = gate_rates((events["event_id"][i], bool(is_true[i]),
                           status[i] == "accepted") for i in final)

    gt_by_tick: dict[int, list] = {}
    truth = tables["truth"]
    for tick, oid, x, y, scored in zip(truth["tick"], truth["object_id"],
                                       truth["x"], truth["y"], truth["scored"]):
        if scored == 1:
            gt_by_tick.setdefault(tick, []).append((oid, x, y))
    tracks_by_tick: dict[int, list] = {}
    belief_min = float(meta["mot_belief_min"])
    ldm = tables["ldm"]
    for tick, tid, x, y, belief in zip(ldm["tick"], ldm["track_id"], ldm["x"],
                                       ldm["y"], ldm["belief"]):
        if belief >= belief_min:
            tracks_by_tick.setdefault(tick, []).append((tid, x, y))
    mota, motp, idsw = clear_mot(gt_by_tick, tracks_by_tick, params.match_radius)

    return EpisodeMetrics(
        lateral_rmse=lateral_rmse(vehicle["cross_track"]),
        heading_rmse_deg=h_rmse,
        heading_mean_abs_deg=h_mabs,
        completion=termination == "goal_reached",
        progress_fraction=progress,
        ttc_min=ttc_min_val,
        collisions=collisions,
        v2x_reaction_ms=reaction,
        update_activation_s=activation,
        trigger_latency_ms=trigger_latency,
        steer_variance=command_variance(control["steering"]),
        throttle_variance=command_variance(control["throttle"]),
        brake_energy=brake_energy(control["brake"], vehicle["speed"], dt),
        mota=mota, motp=motp, id_switches=idsw,
        false_positive_rate=fpr, false_negative_rate=fnr,
        termination=termination, sim_time=sim_time)


def read_meta(path: Path) -> dict:
    """The meta.json at `path`, refused naming the file and the key when
    compute_episode_metrics cannot read it as written: a missing key, a
    value that is not of its METRIC_META_KEYS shape (a `metrics` value
    that is not a number among them), or a `metrics` key that is not a
    MetricParams field."""
    meta = read_json(path, METRIC_META_KEYS)
    unknown = sorted(set(meta["metrics"]) - set(METRIC_META_KEYS["metrics"]))
    if unknown:
        raise ValueError(f"{path}: metrics: unknown key {unknown[0]!r}")
    return meta


def replay(log_dir: str | Path) -> EpisodeMetrics:
    """Recompute metrics from a written log directory. A missing file, a
    table whose header or cells are not its declared columns', an
    episode.csv without its row or a meta.json block the metrics cannot
    read (`read_meta`) is a ValueError naming it."""
    log_dir = Path(log_dir)
    if (log_dir / "logs").is_dir():
        log_dir = log_dir / "logs"
    files = ["meta.json"] + [f"{name}.csv" for name in LOG_NAMES]
    missing = [f for f in files if not (log_dir / f).is_file()]
    if missing:
        raise ValueError(f"{log_dir} is not a complete log directory: "
                         f"missing {', '.join(missing)}")
    meta = read_meta(log_dir / "meta.json")
    tables = {name: read_csv(log_dir / f"{name}.csv", columns)
              for name, columns in LOG_COLUMNS.items()}
    if not tables["episode"]["termination"]:
        raise ValueError(f"{log_dir / 'episode.csv'} holds no episode row")
    return compute_episode_metrics(tables, meta)


# ---------------------------------------------------------------------------
# batch and sweep fronts


def _distinct(name: str, values: list) -> list:
    """`values`, refused when empty or when one repeats."""
    if not values:
        raise ValueError(f"{name} must not be empty")
    if len(set(values)) != len(values):
        raise ValueError(f"{name} must be distinct")
    return values


def _seeds(seeds) -> list[int]:
    """`seeds` as distinct non-negative ints, checked before the first
    episode runs or writes anything."""
    seeds = _distinct("seeds", [int(s) for s in seeds])
    if min(seeds) < 0:
        raise ValueError(f"seeds must be non-negative, got {min(seeds)}")
    return seeds


def run_batch(spec: ScenarioSpec, seeds, out_dir: str | Path | None = None
              ) -> tuple[list[EpisodeResult], dict]:
    """Run one scenario over distinct seeds and aggregate the results."""
    seeds = _seeds(seeds)
    out_path = Path(out_dir) if out_dir is not None else None
    results = []
    for s in seeds:
        sub = out_path / f"seed-{s:04d}" if out_path is not None else None
        results.append(run_episode(spec, s, sub))
    payload = {
        "scenario_id": spec.scenario_id,
        "seeds": seeds,
        "aggregate": aggregate([r.metrics for r in results]),
        "episodes": [{"seed": r.seed,
                      "termination": r.metrics.termination,
                      "metrics": asdict(r.metrics)} for r in results],
    }
    if out_path is not None:
        write_json(out_path / "batch.json", payload)
    return results, payload


def make_episode_runner(base_specs: dict[str, ScenarioSpec]):
    """Adapter giving the sweep protocol its (config, scenario, seed) episode:
    each call runs one episode of the scenario with `config` applied. The
    configurations of one grid apply to distinct specs (config_grid refuses
    a repeated value), so no episode of a sweep runs twice.
    """
    def runner(config, scenario_id: str, seed: int):
        spec = apply_configuration(base_specs[scenario_id], config)
        result = run_episode(spec, seed)
        return (objective_vector(result.metrics, MetricParams()),
                result.metrics.collisions > 0)
    return runner


def run_sweep(grid: dict, scenario_ids, seeds,
              out_dir: str | Path | None = None) -> ParetoResult:
    """Grid-sweep operating points across scenarios; persist frontier artifacts."""
    scenario_ids = _distinct("scenario_ids", list(scenario_ids))
    seeds = _seeds(seeds)
    configs = config_grid(grid)
    base_specs = {sid: build_scenario(sid) for sid in scenario_ids}
    # a value some spec refuses stops the sweep before its first episode
    for name, values in grid.items():
        for value in values:
            for sid, base in base_specs.items():
                try:
                    apply_configuration(base, Configuration("", **{name: value}))
                except ValueError as exc:
                    raise ValueError(f"grid.{name}: {value} on {sid}: {exc}") from None
    result = pareto_sweep(configs, make_episode_runner(base_specs), seeds,
                          scenario_ids)

    if out_dir is not None:
        out_path = Path(out_dir)
        by_id = {c.config_id: c for c in configs}
        frontier_ids = {p.config_id for p in result.frontier}
        knee_id = result.knee.config_id if result.knee is not None else None
        table = CsvLog(SWEEP_COLS)
        for p in result.points:
            table.append(*astuple(by_id[p.config_id]), *p.objectives, p.collided,
                         p.config_id in frontier_ids, p.config_id == knee_id)
        table.write(out_path / "sweep.csv")
        write_json(out_path / "pareto.json", {
            "scenario_ids": scenario_ids,
            "seeds": seeds,
            "grid": grid,
            "frontier": sorted(frontier_ids),
            "knee": None if result.knee is None else {
                "config_id": result.knee.config_id,
                "objectives": list(result.knee.objectives),
                "normalized": list(result.knee.normalized)},
            "hypervolume": result.hypervolume,
            "discarded_collided": result.discarded_collided,
        })
    return result
