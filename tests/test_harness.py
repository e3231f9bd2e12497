"""Episode loop plumbing: outputs, determinism, replay, batch aggregation."""

import json
import math
import re
from dataclasses import asdict, fields, replace
from itertools import product
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fingerprints import BUILT_IN_SPECS
from v2xloop import harness, planner, world
from v2xloop.gate import REASON_VETO
from v2xloop.harness import (LOG_COLUMNS, LOG_NAMES, METRIC_COLUMNS, SWEEP_COLS,
                             V2X_COLS, compute_episode_metrics, read_meta, replay,
                             run_batch, run_episode, run_sweep)
from v2xloop.logio import read_csv, read_json, rows
from v2xloop.metrics import MetricParams, objective_vector
from v2xloop.pareto import Configuration
from v2xloop.perception import SenseFrame
from v2xloop.rng import StreamSet, stream
from v2xloop.scenarios import (DT, apply_configuration, build_s1, build_s2,
                               build_s3, build_s4, build_scenario, spec_from_dict,
                               spec_to_dict)
from v2xloop.v2x import Station, StationPopulation
from v2xloop.world import GroundTruthHazard


@pytest.fixture(scope="module")
def s1_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("s1") / "run"
    return run_episode(build_s1(), 3, out), out


def test_episode_reaches_goal(s1_result):
    result, _ = s1_result
    m = result.metrics
    assert m.termination == "goal_reached"
    assert m.completion
    assert m.collisions == 0
    assert m.progress_fraction > 0.95
    assert m.lateral_rmse < 0.05          # straight road, near-perfect tracking
    assert m.ttc_min == math.inf          # empty road


def test_episode_writes_artifact_tree(s1_result):
    result, out = s1_result
    assert result.out_dir == out
    for name in LOG_NAMES:
        assert (out / "logs" / f"{name}.csv").is_file(), name
    assert (out / "logs" / "meta.json").is_file()
    assert (out / "summary.json").is_file()
    assert (out / "timing.csv").is_file()
    summary = read_json(out / "summary.json")
    assert summary["scenario_id"] == "s1"
    assert summary["seed"] == 3
    assert summary["termination"] == "goal_reached"
    assert len(summary["objectives"]) == 5
    assert summary["counters"]["plans"] >= 1


def test_vehicle_log_structure(s1_result):
    _, out = s1_result
    vehicle = read_csv(out / "logs" / "vehicle.csv", LOG_COLUMNS["vehicle"])
    assert vehicle["tick"][0] == 0
    ts = vehicle["t"]
    assert ts == sorted(ts)
    dt = read_json(out / "logs" / "meta.json")["dt"]
    assert ts[1] - ts[0] == pytest.approx(dt)
    for speed in vehicle["speed"][:50]:
        assert 0.0 <= speed <= 15.0


@pytest.mark.parametrize("name", BUILT_IN_SPECS)
def test_the_vehicle_applies_every_command_unclamped(monkeypatch, name):
    # vehicle.step's clamps leave each command the loop sends as it is, so
    # control.csv's row k-1 is exactly the actuator state at tick k, which
    # vehicle.csv therefore does not repeat
    scenario_id, kwargs = BUILT_IN_SPECS[name]
    commands = []
    harness_step = harness.step

    def step(ego, cmd, dt):
        state = harness_step(ego, cmd, dt)
        assert state.steering.hex() == cmd.steering.hex(), cmd
        assert state.brake.hex() == cmd.brake.hex(), cmd
        assert min(max(cmd.throttle, 0.0), 1.0) == cmd.throttle, cmd
        commands.append(cmd)
        return state

    monkeypatch.setattr(harness, "step", step)
    result = run_episode(build_scenario(scenario_id, **kwargs), 1)
    assert len(commands) == result.summary["counters"]["ticks"] > 0


def test_replay_matches_stored_summary(s1_result):
    result, out = s1_result
    replayed = replay(out)
    stored = result.summary["metrics"]
    for key, value in stored.items():
        got = getattr(replayed, key)
        if isinstance(value, float) and not math.isnan(value):
            assert got == pytest.approx(value), key
        else:
            assert got == value or (value is None and got is None), key


def test_replay_detects_tampering(s1_result, tmp_path):
    _, out = s1_result
    import shutil
    copy = tmp_path / "tampered"
    shutil.copytree(out, copy)
    p = copy / "logs" / "vehicle.csv"
    lines = p.read_text().splitlines()
    head, first = lines[0], lines[1].split(",")
    ct = head.split(",").index("cross_track")
    first[ct] = "5.0"                      # inject a fake half-meter-off tick
    lines[1] = ",".join(first)
    p.write_text("\n".join(lines) + "\n")
    replayed = replay(copy)
    stored = replay(out)
    assert replayed.lateral_rmse != pytest.approx(stored.lateral_rmse)


def test_replay_refuses_an_incomplete_log_directory(s1_result, tmp_path):
    _, out = s1_result
    import shutil
    copy = tmp_path / "partial"
    shutil.copytree(out, copy)
    (copy / "logs" / "vehicle.csv").unlink()
    (copy / "logs" / "episode.csv").unlink()
    with pytest.raises(ValueError, match="missing vehicle.csv, episode.csv$"):
        replay(copy)
    (copy / "logs" / "meta.json").unlink()
    with pytest.raises(ValueError, match="missing meta.json, vehicle.csv"):
        replay(copy / "logs")


def test_replay_refuses_an_episode_csv_without_its_row(s1_result, tmp_path):
    _, out = s1_result
    import shutil
    copy = tmp_path / "cut"
    shutil.copytree(out, copy)
    episode = copy / "logs" / "episode.csv"
    episode.write_text(episode.read_text().splitlines()[0] + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{episode} holds no episode row")):
        replay(copy)


@pytest.mark.parametrize("document, message", [
    (3, "expected an object, got int"),
    ([], "expected an object, got list"),
    ({"hazards": 5}, "hazards: expected a list, got int"),
    ({"hazards": {"kind": "debris"}}, "hazards: expected a list, got dict"),
    ({"hazards": ["hz-0"]}, "hazards[0]: expected an object, got str"),
    ({"dt": "x"}, "dt: expected a number, got 'x'"),
    ({"route_length": "84.0"}, "route_length: expected a number, got '84.0'"),
    ({"event_label_radius": None}, "event_label_radius: expected a number, got None"),
    ({"mot_belief_min": True}, "mot_belief_min: expected a number, got True"),
    ({"hazards": [{"kind": "debris", "x": "abc", "y": 50.0}]},
     "hazards[0].x: expected a number, got 'abc'"),
    ({"hazards": [{"kind": "debris", "x": 62.0, "y": [50.0]}]},
     "hazards[0].y: expected a number, got [50.0]"),
], ids=["int", "list", "hazards-int", "hazards-object", "hazard-text", "dt-text",
        "route-length-text", "label-radius-null", "belief-min-bool", "hazard-x-text",
        "hazard-y-list"])
def test_replay_refuses_a_malformed_meta_json(s1_result, tmp_path, document, message):
    _, out = s1_result
    import shutil
    copy = tmp_path / "meta"
    shutil.copytree(out, copy)
    path = copy / "logs" / "meta.json"
    if isinstance(document, dict):
        document = {**read_json(path), **document}
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}") + "$"):
        replay(copy)


def test_ego_starting_on_the_goal_reaches_it_at_once(tmp_path):
    spec = build_s1()
    spec = replace(spec, ego_start=(*spec.route.goal_pose, 0.0))
    result = run_episode(spec, 1, tmp_path)
    assert result.metrics.termination == "goal_reached"
    assert result.metrics.sim_time == 0.0
    plans = rows(read_csv(tmp_path / "logs" / "plans.csv", LOG_COLUMNS["plans"]))
    assert len(plans) == 1
    assert plans[0]["cause"] == "initial" and plans[0]["success"] == 1
    assert plans[0]["path_length"] == 0.0
    assert replay(tmp_path) == result.metrics


def test_run_episode_rejects_negative_seed():
    with pytest.raises(ValueError):
        run_episode(build_s1(), -1)


def test_same_seed_same_logs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_episode(build_s1(), 11, a)
    run_episode(build_s1(), 11, b)
    for name in LOG_NAMES:
        fa = (a / "logs" / f"{name}.csv").read_bytes()
        fb = (b / "logs" / f"{name}.csv").read_bytes()
        assert fa == fb, name
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def _assert_same_log_trees(a: Path, b: Path) -> None:
    names = sorted(p.name for p in (a / "logs").iterdir())
    assert names == sorted(p.name for p in (b / "logs").iterdir())
    assert len(names) == len(LOG_NAMES) + 1           # the tables and meta.json
    for name in names:
        assert (a / "logs" / name).read_bytes() == (b / "logs" / name).read_bytes(), name


def test_cold_and_warm_memos_give_the_same_logs(tmp_path):
    # the first episode of a spec fills the memos it keeps (planning maps,
    # the tick-0 plan, scripted truth); the next one reads them
    for build in (build_s1, build_s2, build_s3, build_s4):
        spec = build()
        assert not spec.vmap.initial().planning_memo
        cold, warm = tmp_path / f"{spec.scenario_id}-cold", tmp_path / f"{spec.scenario_id}-warm"
        run_episode(spec, 1, cold)
        (maps,) = spec.vmap.initial().planning_memo.values()
        assert len(maps.initial_plans) == 1
        run_episode(spec, 1, warm)
        _assert_same_log_trees(cold, warm)
        # the warm initial plan is the kept search: no field build, the
        # same expansions, and no second entry
        assert len(maps.initial_plans) == 1
        first_cold, first_warm = (
            rows(read_csv(d / "timing.csv", harness.TIMING_COLS))[0] for d in (cold, warm))
        assert first_cold["cause"] == first_warm["cause"] == "initial"
        assert first_cold["heuristic_ms"] > 0.0 and first_warm["heuristic_ms"] == 0.0
        assert first_warm["expansions"] == first_cold["expansions"] > 0
    # the memo keys a start by its bits: a heading of -0.0 turns the
    # primitives otherwise than 0.0, so it is searched and kept apart
    spec = build_s2()
    negative = replace(spec, ego_start=(8.0, 50.0, -0.0, 0.0))
    run_episode(spec, 1)
    run_episode(negative, 1)
    (maps,) = spec.vmap.initial().planning_memo.values()
    assert len(maps.initial_plans) == 2
    # two specs built apart share no memo
    run_episode(build_s2(), 1, tmp_path / "s2-a")
    run_episode(build_s2(), 1, tmp_path / "s2-b")
    _assert_same_log_trees(tmp_path / "s2-a", tmp_path / "s2-b")
    _assert_same_log_trees(tmp_path / "s2-a", tmp_path / "s2-cold")


def test_null_stations_document_runs_the_no_v2x_arm(tmp_path):
    # a section's presence is its switch: `stations: null` is the ablation
    d = spec_to_dict(build_s2())
    d["stations"] = None
    run_episode(spec_from_dict(d), 1, tmp_path / "doc")
    run_episode(build_s2(v2x_enabled=False), 1, tmp_path / "arm")
    files = sorted(p.name for p in (tmp_path / "arm" / "logs").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "doc" / "logs").iterdir())
    for name in files:
        assert ((tmp_path / "doc" / "logs" / name).read_bytes()
                == (tmp_path / "arm" / "logs" / name).read_bytes()), name
    assert not read_csv(tmp_path / "doc" / "logs" / "v2x.csv", LOG_COLUMNS["v2x"])["tick"]


def test_ids_derived_from_the_ldm_have_no_gap(tmp_path):
    # s4 at seed 1, where forged claims expire: event ids are E1..En in
    # order of first_seen, and every track born is logged under its id
    run_episode(build_s4(), 1, tmp_path)
    events = read_csv(tmp_path / "logs" / "events.csv", LOG_COLUMNS["events"])
    assert "expired" in events["status"]
    first_seen = dict(zip(events["event_id"], events["first_seen"]))
    ids = sorted(first_seen, key=lambda eid: int(eid[1:]))
    assert ids == [f"E{n}" for n in range(1, len(ids) + 1)]
    assert [first_seen[eid] for eid in ids] == sorted(first_seen.values())
    ldm = read_csv(tmp_path / "logs" / "ldm.csv", LOG_COLUMNS["ldm"])
    tracks_born = read_json(tmp_path / "summary.json")["counters"]["tracks_born"]
    assert tracks_born == len(set(ldm["track_id"])) > 0


def test_different_seeds_differ(tmp_path):
    # sensing noise must actually vary with the seed
    ra = run_episode(build_s2(), 1)
    rb = run_episode(build_s2(), 2)
    assert ra.summary["metrics"] != rb.summary["metrics"]


def test_run_batch_aggregates(tmp_path):
    out = tmp_path / "batch"
    results, payload = run_batch(build_s1(), [1, 2, 3], out)
    assert len(results) == 3
    assert payload["aggregate"]["episodes"] == 3
    assert (out / "batch.json").is_file()
    for s in (1, 2, 3):
        assert (out / f"seed-{s:04d}" / "summary.json").is_file()
    assert [e["seed"] for e in payload["episodes"]] == [1, 2, 3]


def test_planning_maps_are_built_once_per_map_version(monkeypatch, tmp_path):
    calls = {"deviation": [], "to_goal": []}

    def counted(name, original):
        def call(*args):
            calls[name].append(args)
            return original(*args)
        return call

    monkeypatch.setattr(harness, "route_deviation_field",
                        counted("deviation", harness.route_deviation_field))
    monkeypatch.setattr(planner, "cost_to_goal_field",
                        counted("to_goal", planner.cost_to_goal_field))
    spec = build_s3()
    results, _ = run_batch(spec, [1, 2, 3], tmp_path / "batch")
    assert all(r.summary["counters"]["plans"] >= 2 for r in results)
    # both map versions were planned on, each map and each cost-to-goal
    # field built once for all seeds
    assert len(calls["deviation"]) == len(calls["to_goal"]) == 2
    maps_key = spec.route.reference_path
    field_key = spec.route.goal_pose[:2]
    for version in spec.vmap.versions:
        assert set(version.planning_memo) == {maps_key}
        maps = version.planning_memo[maps_key]
        assert set(maps.fields) == {field_key}
        for array in (maps.grid.cells, maps.deviation, maps.fields[field_key]):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = array[0, 0]
    # the field's build time is on the plan that built it, 0 on a memo hit
    spent = [read_csv(tmp_path / "batch" / f"seed-{seed:04d}" / "timing.csv",
                      harness.TIMING_COLS)["heuristic_ms"] for seed in (1, 2, 3)]
    assert all(ms > 0 for ms in spent[0]) and len(spent[0]) == 2
    assert all(ms == 0 for ms in spent[1] + spent[2])
    # a configured copy shares the map objects, so it starts warm
    run_episode(apply_configuration(spec, Configuration(config_id="c")), 4)
    assert len(calls["deviation"]) == len(calls["to_goal"]) == 2
    # a freshly built spec starts cold, and its document carries no memo
    assert all(not v.planning_memo for v in build_s3().vmap.versions)
    assert "planning_memo" not in str(spec_to_dict(spec))


def test_timing_holds_each_plans_field_builds_inside_its_cpu_ms(tmp_path):
    # a fresh spec builds the static field on its first plan, and the
    # hazard replan builds the field of its own stamped grid
    run_episode(build_s2(), 1, tmp_path)
    timing = rows(read_csv(tmp_path / "timing.csv", harness.TIMING_COLS))
    assert [r["cause"] for r in timing] == ["initial", "hazard_on_route"]
    assert all(0.0 < r["heuristic_ms"] < r["cpu_ms"] for r in timing)


def test_a_hazard_on_the_detour_is_replanned_round_on_its_acceptance_tick(tmp_path):
    # s3 plus seven honest RSUs over the detour lane det_b (y = 62) and a
    # vehicle stalled on it from 7 s: the reference route runs at y = 30,
    # 30 m from the stall, while the plan after the map update runs past it
    base = build_s3()
    stations = tuple(Station(station_id=f"rsu-{i}", position=(50.0 + 6.0 * i, 68.0),
                             sensing_range=20.0) for i in range(7))
    stall = GroundTruthHazard(hazard_id="stall", position=(68.0, 59.5),
                              kind="stationary_vehicle", spawn_time=7.0)
    spec = replace(base, stations=StationPopulation(stations=stations),
                   gate=replace(base.gate, f=1), hazards=base.hazards + (stall,))
    for seed in range(1, 31):
        out = tmp_path / f"seed-{seed}"
        result = run_episode(spec, seed, out)
        assert result.metrics.collisions == 0, seed
        gate = read_csv(out / "logs" / "gate.csv", LOG_COLUMNS["gate"])
        accepted_tick = gate["tick"][gate["accepted"].index(True)]
        plans = read_csv(out / "logs" / "plans.csv", LOG_COLUMNS["plans"])
        assert any(tick == accepted_tick and "hazard_on_route" in cause.split("+")
                   for tick, cause in zip(plans["tick"], plans["cause"])), seed


def test_an_ego_on_a_one_version_map_polls_and_logs_no_update(monkeypatch, tmp_path):
    # every ego polls the map server on the client's schedule, drawing its
    # download time each poll; a map of one version never answers one
    polls = []

    def recorded(rng):
        polls.append(rng)
        return world.download_latency(rng)

    monkeypatch.setattr(harness, "download_latency", recorded)
    specs = {"s1": build_s1(), "s2": build_s2(), "s4": build_s4(),
             "s3-no-updates": build_s3(updates_enabled=False)}
    for name, spec in specs.items():
        assert len(spec.vmap.versions) == 1
        del polls[:]
        result = run_episode(spec, 1, tmp_path / name)
        # every 40 ticks of 0.05 s, from tick 40
        ticks = result.summary["counters"]["ticks"]
        assert len(polls) == len(range(40, ticks, 40)) > 0, name
        updates = read_csv(tmp_path / name / "logs" / "updates.csv", LOG_COLUMNS["updates"])
        assert updates["tick"] == [], name


def test_s3_polls_and_activates_on_its_ticks(tmp_path):
    # the poll at 4 s finds version 2, published then, and the swap waits
    # for the drawn download time
    for seed, activated in ((1, 106), (2, 101)):
        run_episode(build_s3(), seed, tmp_path / str(seed))
        updates = read_csv(tmp_path / str(seed) / "logs" / "updates.csv",
                           LOG_COLUMNS["updates"])
        assert list(zip(updates["tick"], updates["action"], updates["version_id"])) \
            == [(80, "poll", 2), (activated, "activate", 2)]


def test_run_batch_rejects_duplicate_seeds():
    with pytest.raises(ValueError):
        run_batch(build_s1(), [1, 1])


def test_batch_and_sweep_reject_empty_lists():
    with pytest.raises(ValueError, match="seeds must not be empty"):
        run_batch(build_s1(), [])
    with pytest.raises(ValueError, match="seeds must not be empty"):
        run_sweep({"look_ahead": [4.0]}, ["s1"], [])
    with pytest.raises(ValueError, match="scenario_ids must not be empty"):
        run_sweep({"look_ahead": [4.0]}, [], [1])


def test_batch_and_sweep_refuse_a_negative_seed_before_the_first_episode(tmp_path):
    # batch used to run and write seed 1, then stop at seed -2 with no batch.json
    with pytest.raises(ValueError, match="^seeds must be non-negative, got -2$"):
        run_batch(build_s1(), [1, -2], tmp_path / "batch")
    with pytest.raises(ValueError, match="^seeds must be non-negative, got -2$"):
        run_sweep({"k_p": [0.4]}, ["s1"], [1, -2], tmp_path / "sweep")
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_repeated_ids():
    # a repeated scenario would weigh twice in every objective mean
    with pytest.raises(ValueError, match="scenario_ids must be distinct"):
        run_sweep({"k_p": [0.4]}, ["s1", "s1", "s2"], [1])
    with pytest.raises(ValueError, match="seeds must be distinct"):
        run_sweep({"k_p": [0.4]}, ["s1"], [1, 1])


def test_sweep_refuses_a_bad_grid_value_before_its_first_episode(monkeypatch):
    def no_episode(*args):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(harness, "run_episode", no_episode)
    # -1 is a finite number, so config_grid takes it; the spec does not
    with pytest.raises(ValueError, match=re.escape(
            "grid.look_ahead: -1 on s1: look_ahead_min: ")):
        run_sweep({"look_ahead": [4.0, -1]}, ["s1", "s2"], [1])
    # a negative tau_risk used to run, its risk trigger quietly off
    with pytest.raises(ValueError, match=re.escape(
            "grid.tau_risk: -1 on s1: tau_risk: ")):
        run_sweep({"tau_risk": [2.0, -1]}, ["s1"], [1])


def test_stream_independence_and_reproducibility():
    s = StreamSet(123)
    a = s.get("sense").uniform(size=4)
    b = s.get("channel").uniform(size=4)
    assert not (a == b).all()             # named streams are decorrelated
    again = StreamSet(123).get("sense").uniform(size=4)
    assert (a == again).all()
    assert (stream(123, "sense").uniform(size=4) == a).all()
    # the same name under another master seed moves
    other = StreamSet(124).get("sense").uniform(size=4)
    assert not (a == other).all()


def test_run_sweep_outputs(tmp_path):
    out = tmp_path / "sweep"
    res = run_sweep({"look_ahead": [4.0, 6.0]}, ["s2"], [1], out)
    table = read_csv(out / "sweep.csv", SWEEP_COLS)
    assert table["look_ahead"] == [4.0, 6.0]
    # an unswept knob keeps the scenario's setting and leaves its cell empty
    assert table["k_p"] == [None, None]
    header = (out / "sweep.csv").read_text().splitlines()[0].split(",")
    # config_id and the swept knobs are Configuration's fields, in order
    assert header[:4] == [f.name for f in fields(Configuration)]
    assert header == ["config_id", "look_ahead", "k_p", "tau_risk", "j_trk",
                      "j_sfty", "j_resp", "j_smth", "j_eng", "collided",
                      "on_frontier", "is_knee"]
    report = read_json(out / "pareto.json")
    assert report["grid"] == {"look_ahead": [4.0, 6.0]}
    assert report["frontier"]
    assert res.frontier            # someone always survives a 2-point sweep
    assert sorted(p.config_id for p in res.frontier) == report["frontier"]


def test_sweep_points_at_one_seed_share_their_stamped_field(monkeypatch):
    # both k_p points of a seed accept the same hazard and stamp the same
    # cells, and they run back to back: the second reuses the first's field
    builds = []
    seed_now = []
    build_field, episode = planner.cost_to_goal_field, harness.run_episode

    def counted_build(grid, *args):
        builds.append((seed_now[-1], grid.cells))
        return build_field(grid, *args)

    def counted_episode(spec, seed, *args):
        seed_now.append(seed)
        return episode(spec, seed, *args)

    monkeypatch.setattr(planner, "cost_to_goal_field", counted_build)
    monkeypatch.setattr(harness, "run_episode", counted_episode)
    result = run_sweep({"k_p": [0.4, 0.6]}, ["s2"], [1, 2])
    assert seed_now == [1, 1, 2, 2] and len(result.points) == 2
    static = builds[0][1]                  # the first tick-0 plan's grid
    stamped = [(seed, cells) for seed, cells in builds[1:]
               if not np.array_equal(cells, static)]
    assert [seed for seed, _ in builds] == [1, 1, 2]
    assert [seed for seed, _ in stamped] == [1, 2]
    assert not np.array_equal(stamped[0][1], stamped[1][1])


@pytest.mark.parametrize("sid", ["s2", "s3"])
def test_sweep_point_at_the_scenarios_own_knob_is_its_run(sid):
    # k_p 0.6 is the built-in controller's own; every knob the grid leaves
    # out keeps the scenario's setting, so the point is `run`'s episode
    spec = build_scenario(sid)
    assert spec.controller.k_p == 0.6
    (point,) = run_sweep({"k_p": [0.6]}, [sid], [1]).points
    assert point.objectives == objective_vector(run_episode(spec, 1).metrics,
                                                MetricParams())


def test_sweep_runs_each_applied_spec_once(tmp_path, monkeypatch):
    grid = {"tau_risk": [1.0, 2.0, 4.0]}
    original, seen = harness.run_episode, []

    def counted(spec, seed, out_dir=None):
        seen.append((spec.scenario_id, spec.triggers.tau_risk, seed))
        return original(spec, seed, out_dir)

    monkeypatch.setattr(harness, "run_episode", counted)
    run_sweep(grid, ["s1", "s3"], [1], tmp_path / "all")
    # each configuration runs once on each scenario, and no two alike
    assert seen == [(sid, tau, 1) for sid in ("s1", "s3") for tau in grid["tau_risk"]]
    monkeypatch.undo()

    # every config keeps the row a sweep of it alone gives; which points are
    # on the frontier and the knee depends on the other points
    table = read_csv(tmp_path / "all" / "sweep.csv", SWEEP_COLS)
    assert len(table["config_id"]) == 3
    for i, tau in enumerate(grid["tau_risk"]):
        out = tmp_path / f"one-{i}"
        run_sweep({"tau_risk": [tau]}, ["s1", "s3"], [1], out)
        alone = read_csv(out / "sweep.csv", SWEEP_COLS)
        for column in set(SWEEP_COLS) - {"config_id", "on_frontier", "is_knee"}:
            assert alone[column] == [table[column][i]], column


def test_metrics_label_claims_against_meta_hazards():
    meta = {"metrics": asdict(MetricParams()), "dt": 0.05, "route_length": 84.0,
            "event_label_radius": 16.0, "mot_belief_min": 0.6,
            "hazards": [{"id": "hz-0", "x": 62.0, "y": 50.4, "kind": "debris",
                         "spawn_time": 0.0}]}

    def denm(gen, kind, x, y):
        return {"msg_kind": "DENM", "gen_time": gen, "event_kind": kind,
                "event_x": x, "event_y": y}

    def columns(name, rows):
        return {col: [row.get(col) for row in rows] for col in LOG_COLUMNS[name]}

    tables = {
        "vehicle": [{"speed": 5.0, "cross_track": 0.0, "heading_err": 0.0,
                     "ttc": None, "s_route": 84.0}] * 4,
        "control": [{"t": t, "steering": 0.0, "throttle": 0.2, "brake": b}
                    for t, b in ((0.0, 0.0), (1.0, 0.0), (2.0, 0.5), (3.0, 0.5))],
        "episode": [{"termination": "goal_reached", "sim_time": 3.0,
                     "ticks": 60, "collision": 0}],
        "v2x": [{"msg_kind": "CAM", "gen_time": 0.2, "event_kind": None,
                 "event_x": None, "event_y": None},
                denm(0.5, "road_closure", 62.0, 50.0),   # wrong kind
                denm(1.0, "debris", 100.0, 50.0),        # 38 m away
                denm(1.5, "debris", 70.0, 50.0)],        # 8 m away: true
        "events": [{"event_id": "E1", "status": "accepted", "is_true": 1,
                    "first_seen": 1.0, "accepted_at": 1.35},
                   {"event_id": "E2", "status": "accepted", "is_true": 0,
                    "first_seen": 1.0, "accepted_at": 2.0}],
        "truth": [], "ldm": [], "updates": [],
    }
    m = compute_episode_metrics({name: columns(name, rows)
                                 for name, rows in tables.items()}, meta)
    assert m.v2x_reaction_ms == pytest.approx(500.0)   # from the true DENM only
    assert m.trigger_latency_ms == pytest.approx(350.0)  # true events only
    assert m.false_positive_rate == 1.0
    assert m.false_negative_rate == 0.0


@pytest.mark.parametrize("sid, kwargs", [("s1", {}), ("s2", {}), ("s3", {}), ("s4", {}),
                                         ("s4", {"gate_enabled": False})],
                         ids=["s1", "s2", "s3", "s4", "s4-no-gate"])
def test_metric_columns_are_exactly_what_the_metrics_read(tmp_path, sid, kwargs):
    spec = build_scenario(sid, **kwargs)
    in_memory = run_episode(spec, 1)
    written = run_episode(spec, 1, tmp_path)
    replayed = replay(tmp_path)
    # scored in memory from the metric columns alone, from the cells a write
    # returned, and from every column of the files
    assert repr(asdict(in_memory.metrics)) == repr(asdict(written.metrics)) \
        == repr(asdict(replayed))
    assert in_memory.summary == written.summary
    meta = read_meta(tmp_path / "logs" / "meta.json")
    full = {name: read_csv(tmp_path / "logs" / f"{name}.csv", columns)
            for name, columns in LOG_COLUMNS.items()}
    declared = {name: {column: full[name][column] for column in names}
                for name, names in METRIC_COLUMNS.items()}
    assert repr(compute_episode_metrics(declared, meta)) == repr(replayed)
    # and every declared column is read
    for name, names in METRIC_COLUMNS.items():
        for column in names:
            short = {**declared, name: {c: v for c, v in declared[name].items()
                                        if c != column}}
            with pytest.raises(KeyError):
                compute_episode_metrics(short, meta)


harness_sense, harness_transmit = harness.sense, harness.transmit
harness_fuse_tick, harness_likelihood = harness.fuse_tick, harness.sensor_likelihood


def test_each_ticks_deliveries_are_logged_in_receive_order(tmp_path):
    # both channels jitter latency by 25 ms, so a tick's deliveries mix
    # messages sent on several ticks; s2's CAMs, every 0.1 s, arrive out of
    # send order, which no sort inside one transmit call could fix
    for spec, seed in product((build_s2(), build_s4()), (1, 2, 3)):
        out = tmp_path / f"{spec.scenario_id}-{seed}"
        run_episode(spec, seed, out)
        v2x = read_csv(out / "logs" / "v2x.csv", V2X_COLS)
        keys = list(zip(v2x["tick"], v2x["recv_time"], v2x["station_id"],
                        v2x["seq_no"]))
        assert keys == sorted(keys)


def test_the_veto_scores_exactly_the_frames_of_its_window(monkeypatch):
    spec = build_s2()
    window = harness.SENSOR_LIKELIHOOD_WINDOW
    sensed, scored_at = [], []

    def sense(*args):
        sensed.append(harness_sense(*args))
        return sensed[-1]

    def sensor_likelihood(position, frames, support_radius):
        # this tick's frame is the last one sensed
        t = sensed[-1].timestamp
        scored_at.append(t)
        assert frames == [f for f in sensed if t - window <= f.timestamp <= t]
        return harness_likelihood(position, frames, support_radius)

    monkeypatch.setattr(harness, "sense", sense)
    monkeypatch.setattr(harness, "sensor_likelihood", sensor_likelihood)
    run_episode(spec, 1)
    # the window filled up before the gate first scored
    assert scored_at and scored_at[0] > window


def test_s4_at_f_1_decides_the_sensor_veto(tmp_path):
    # at f = 1 the three forging stations reach the 2f + 1 quorum alone, so
    # the onboard sensor is what refuses their closure: the paper's veto
    d = spec_to_dict(build_s4())
    d["gate"]["f"] = 1
    spec = spec_from_dict(d)
    run_episode(spec, 3, tmp_path)
    gate = rows(read_csv(tmp_path / "logs" / "gate.csv", LOG_COLUMNS["gate"]))
    vetoed = [row for row in gate if row["reason"] == REASON_VETO]
    assert vetoed
    for row in vetoed:
        assert row["support"] >= spec.gate.threshold()
        assert row["sensor_likelihood"] < spec.gate.eta


class _WatchedFrame(SenseFrame):
    """A sense frame that notes which fusion calls read its detections.

    `fusing` is shared with the test: {"call": index of the fuse_tick call
    running, or None}; `fused_in` collects those indices.
    """

    def __getattribute__(self, name):
        if name == "detections":
            call = object.__getattribute__(self, "fusing")["call"]
            if call is not None:
                object.__getattribute__(self, "fused_in").add(call)
        return object.__getattribute__(self, name)


@settings(max_examples=4, deadline=None)
@given(latency_mean=st.floats(0.0, 0.3), latency_jitter=st.floats(0.0, 0.05),
       seed=st.integers(1, 50))
def test_every_frame_and_message_is_fused_exactly_once(latency_mean, latency_jitter,
                                                       seed):
    # the drawn latencies deliver messages at every phase of the 0.05 s tick
    for spec in (build_s2(), build_s4()):
        channel = replace(spec.channel, latency_mean=latency_mean,
                          latency_jitter=latency_jitter)
        spec = replace(spec, channel=channel, time_limit=5.0)
        sensed, sent, passed = [], [], []
        fusing = {"call": None}

        def sense(*args):
            frame = harness_sense(*args)
            watched = _WatchedFrame(**{f.name: getattr(frame, f.name)
                                       for f in fields(frame)})
            object.__setattr__(watched, "fusing", fusing)
            object.__setattr__(watched, "fused_in", set())
            sensed.append(watched)
            return watched

        def transmit(*args):
            delivered = harness_transmit(*args)
            sent.extend(delivered)
            return delivered

        def fuse_tick(*args):
            fusing["call"] = len(passed)
            passed.append([(m.station_id, m.seq_no) for m in args[2]])
            try:
                return harness_fuse_tick(*args)
            finally:
                fusing["call"] = None

        with patch.object(harness, "sense", sense), \
                patch.object(harness, "transmit", transmit), \
                patch.object(harness, "fuse_tick", fuse_tick):
            run_episode(spec, seed)

        # one fusion call per tick, and each tick's frame is read by its own
        assert len(passed) == len(sensed)
        for k, frame in enumerate(sensed):
            assert frame.fused_in == {k}, \
                f"{spec.scenario_id}: frame of tick {k} fused in calls {sorted(frame.fused_in)}"
        # every message received by the last tick is fused once, on one tick
        fused = [key for keys in passed for key in keys]
        last_t = sensed[-1].timestamp
        due = {(m.station_id, m.seq_no) for m in sent if m.recv_time <= last_t + 1e-9}
        assert len(fused) == len(set(fused))
        assert set(fused) == due
        assert fused, f"{spec.scenario_id}: no message delivered"


def _all_floats(*values) -> bool:
    return all(type(v) is float for v in values)


def test_the_tick_loop_keeps_python_floats():
    """Sensed truth and detections, delivered CAM/DENM payloads, and LDM
    tracks and events hold Python floats, never numpy scalars."""
    for spec in (build_s2(), build_s3(), build_s4()):
        seen = {"truth": 0, "detections": 0, "payloads": 0, "tracks": 0, "events": 0}

        def sense(ego_pose, truth_objects, *args):
            frame = harness_sense(ego_pose, truth_objects, *args)
            for obj in truth_objects:
                assert _all_floats(*obj.position, *obj.velocity), obj
                seen["truth"] += 1
            for det in frame.detections:
                assert _all_floats(det.confidence, *det.world_position,
                                   *det.world_velocity), det
                seen["detections"] += 1
            return frame

        def transmit(*args):
            delivered = harness_transmit(*args)
            for m in delivered:
                p = m.payload
                coords = p.event_position if m.msg_kind == "DENM" \
                    else (*p.position, *p.velocity)
                assert _all_floats(m.gen_time, m.recv_time, *coords), m
                seen["payloads"] += 1
            return delivered

        def fuse_tick(*args):
            ldm = harness_fuse_tick(*args)
            for tr in ldm.objects:
                assert _all_floats(tr.belief, *tr.position, *tr.velocity), tr
                seen["tracks"] += 1
            for ev in ldm.events:
                assert _all_floats(*ev.position), ev
                seen["events"] += 1
            return ldm

        with patch.object(harness, "sense", sense), \
                patch.object(harness, "transmit", transmit), \
                patch.object(harness, "fuse_tick", fuse_tick):
            run_episode(spec, 1)
        # s3 has no V2X, so it sends nothing and opens no event
        v2x = spec.stations is not None
        assert all(n > 0 for key, n in seen.items()
                   if v2x or key not in ("payloads", "events")), (spec.scenario_id, seen)


@pytest.mark.parametrize("build", [build_s2, build_s3])
def test_the_truth_memo_answers_what_a_fresh_build_does(build):
    # an episode fills the spec's memo; at every tick of the time limit it
    # answers with the objects a newly built spec builds cold, and a copy
    # apply_configuration makes shares it, so it answers with the same ones
    warm, cold = build(), build()
    run_episode(warm, 1)
    copy = apply_configuration(warm, Configuration("c", k_p=0.5))
    hazards = {h.hazard_id: h.spawn_time for h in warm.hazards}
    # s2's hazard spawns at 3.5 s, s3's five posts at 4 s; each is one
    # object at every t it is present at
    objects = {hid: set() for hid in hazards}
    for k in range(round(warm.time_limit / DT)):
        t = k * DT
        truth = warm.truth_at(t)
        assert repr(truth) == repr(cold.truth_at(t))
        assert copy.truth_at(t) is truth
        ids = [o.object_id for o in truth]
        assert ids == [v.vehicle_id for v in warm.traffic] + [
            hid for hid, spawn in hazards.items() if spawn <= t]
        for o in truth[len(warm.traffic):]:
            objects[o.object_id].add(id(o))
    assert all(len(ids) == 1 for ids in objects.values())
    # a copy made before any episode fills the memo its original reads
    fresh = build()
    fresh_copy = apply_configuration(fresh, Configuration("c", k_p=0.5))
    run_episode(fresh_copy, 1)
    assert fresh.truth_at(DT) is fresh_copy.truth_at(DT)


@pytest.mark.parametrize("sid", ["s1", "s2", "s3", "s4"])
def test_the_route_is_projected_after_the_last_tick(sid):
    # s1-s3 project the ego onto the route once, in one batch after the last
    # tick; s4's attack projects it also on each tick it places a claim. A
    # spec's first episode also measures the route deviation field of each
    # map version it plans on (s3's second version mid-episode) with one
    # project_many; the second episode finds those maps memoised
    spec = build_scenario(sid)
    route = spec.route.reference_path
    assert all(not v.planning_memo for v in spec.vmap.versions)
    project, project_many = world.Polyline.project, world.Polyline.project_many

    def record(name, method):
        def wrapped(line, *args):
            if line is route:
                calls.append(name)
            return method(line, *args)
        return wrapped

    attack = harness.generate_attack_traffic

    def generate_attack_traffic(*args, **kwargs):
        msgs = attack(*args, **kwargs)
        # s4's attackers claim at every emission (p_attack 1)
        if msgs:
            emissions.append(args[4])
        return msgs

    episodes = []
    with patch.object(world.Polyline, "project", record("project", project)), \
            patch.object(world.Polyline, "project_many",
                         record("project_many", project_many)), \
            patch.object(harness, "generate_attack_traffic", generate_attack_traffic):
        for _ in range(2):
            calls, emissions = [], []
            run_episode(spec, 1)
            episodes.append((calls, emissions))
    (first, _), (calls, emissions) = episodes
    assert calls == ["project"] * len(emissions) + ["project_many"]
    planned = [v for v in spec.vmap.versions if route in v.planning_memo]
    assert len(planned) == (2 if sid == "s3" else 1)
    assert sorted(first) == sorted(calls + ["project_many"] * len(planned))
    assert bool(emissions) == (sid == "s4")
