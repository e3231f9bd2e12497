"""Scenario builders, ablation switches, and the strict JSON round-trip."""

import copy
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fingerprints import BUILT_IN_SPECS
from v2xloop.gate import GateConfig
from v2xloop.harness import run_episode
from v2xloop.pareto import Configuration
from v2xloop.scenarios import (ScriptedVehicle, UpdateClientConfig, apply_configuration,
                               build_s1, build_s2, build_s3, build_s4,
                               build_scenario, spec_from_dict, spec_to_dict)


def test_build_scenario_dispatch():
    assert build_scenario("s1").scenario_id == "s1"
    assert build_scenario("s2", v2x_enabled=False).stations is None
    with pytest.raises(ValueError):
        build_scenario("s9")


# ---------------------------------------------------------------------------
# builder invariants


def test_s1_variants():
    straight = build_s1("straight")
    curve = build_s1("curve")
    assert straight.route.reference_path.length > 50.0
    # the S-curve is longer
    assert curve.route.reference_path.length > straight.route.reference_path.length
    for spec in (straight, curve):
        assert spec.stations is None and spec.attack is None
        assert spec.update_client is None
        assert spec.hazards == ()
        # ego starts on the route, roughly at its head
        x, y, _, v = spec.ego_start
        assert v == 0.0
        d0 = np.hypot(*(spec.route.reference_path.points[0] - np.array([x, y])))
        assert d0 < 2.0


def test_s2_arms():
    v2x = build_s2(v2x_enabled=True)
    bare = build_s2(v2x_enabled=False)
    assert v2x.stations is not None and bare.stations is None
    # same physical world in both arms
    assert v2x.hazards == bare.hazards
    assert v2x.route.reference_path.length == bare.route.reference_path.length
    assert len(v2x.hazards) == 1
    hz = v2x.hazards[0]
    assert hz.kind == "stationary_vehicle"
    assert hz.spawn_time > 0.0
    # the stall sits near the route but off its centerline
    s_axis = v2x.route.reference_path.points
    lat = np.min(np.hypot(s_axis[:, 0] - hz.position[0],
                          s_axis[:, 1] - hz.position[1]))
    assert lat < 2.0
    # enough stations that the gate quorum is reachable
    assert v2x.stations is not None
    assert len(v2x.stations.stations) >= 2 * v2x.gate.f + 1


def test_s3_arms():
    updates = build_s3(updates_enabled=True)
    frozen = build_s3(updates_enabled=False)
    assert updates.update_client is not None and frozen.update_client is None
    # two map versions exist in both arms; only polling differs
    assert len(updates.vmap.versions) == 2
    assert len(frozen.vmap.versions) == 2
    v1, v2 = updates.vmap.versions
    assert v1.version_id < v2.version_id
    closed_v1 = {s.segment_id for s in v1.lane_graph if s.closed}
    closed_v2 = {s.segment_id for s in v2.lane_graph if s.closed}
    assert closed_v1 and closed_v2
    assert closed_v1 != closed_v2          # the closure moves
    assert updates.vmap.publish_times[1] > 0.0
    # closure hazards are marked not directly sensable
    assert all(not h.observable_by_sensing for h in updates.hazards) is False \
        or any(h.kind == "road_closure" for h in updates.hazards)


def test_s4_arms():
    gated = build_s4(gate_enabled=True)
    naive = build_s4(gate_enabled=False)
    # the ablation is the naive consumer, in the gate's own parameters
    assert naive.gate == GateConfig(f=0, eta=0.0)
    assert gated.gate == GateConfig(f=3, eta=0.5)
    assert gated.attack is not None and naive.attack is not None
    assert gated.stations is not None
    byz = gated.stations.byzantine()
    assert len(byz) == gated.gate.f
    # Byzantine coalition alone cannot reach the quorum
    assert len(byz) < gated.gate.threshold()


def test_scripted_vehicle_motion():
    sv = ScriptedVehicle(vehicle_id="v", path=[[0.0, 0.0], [10.0, 0.0]],
                         speed=2.0, start_time=1.0)
    pos, vel = sv.state_at(0.5)
    assert pos == (0.0, 0.0) and vel == (0.0, 0.0)   # not started yet
    pos, vel = sv.state_at(2.0)
    assert pos[0] == pytest.approx(2.0)
    assert vel == pytest.approx((2.0, 0.0))
    pos, vel = sv.state_at(100.0)
    assert pos[0] == pytest.approx(10.0)             # parked at the end
    assert vel == (0.0, 0.0)


# ---------------------------------------------------------------------------
# configuration overlay


def test_apply_configuration_maps_fields():
    spec = build_s2()
    cfg = Configuration(config_id="cfg-000", look_ahead=6.0, k_p=0.8,
                        tau_risk=3.0, hazard_lookahead=40.0,
                        update_poll_interval=1.0)
    out = apply_configuration(spec, cfg)
    assert out.controller.k_p == 0.8
    assert out.controller.look_ahead_min == 3.0
    assert out.controller.look_ahead_max == 9.0
    # carrot distance at cruise speed equals the swept look_ahead
    assert out.controller.look_ahead(out.planner.cruise_speed) == \
        pytest.approx(6.0)
    assert out.triggers.tau_risk == 3.0
    assert out.triggers.hazard_lookahead == 40.0
    # the poll interval acts only on a spec that polls
    assert out.update_client is None
    assert apply_configuration(build_s3(), cfg).update_client.poll_interval == 1.0
    # everything else untouched
    assert out.hazards == spec.hazards
    assert out.planner == spec.planner


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("spec", [build_s1(), build_s1("curve"), build_s2(),
                                  build_s2(v2x_enabled=False), build_s3(),
                                  build_s3(updates_enabled=False), build_s4(),
                                  build_s4(gate_enabled=False)],
                         ids=["s1", "s1c", "s2", "s2b", "s3", "s3f", "s4", "s4n"])
def test_spec_roundtrip(spec):
    d = spec_to_dict(spec)
    back = spec_from_dict(d)
    # dict-level equality sidesteps array identity in dataclass __eq__
    assert spec_to_dict(back) == d
    assert back.scenario_id == spec.scenario_id
    for section in ("stations", "attack", "update_client"):
        assert (getattr(back, section) is None) == (getattr(spec, section) is None)
    assert len(back.vmap.versions) == len(spec.vmap.versions)
    assert back.route.reference_path.length == pytest.approx(spec.route.reference_path.length)
    # occupancy grids are rebuilt identically from the lane graph
    for a, b in zip(back.vmap.versions, spec.vmap.versions):
        assert np.array_equal(a.occupancy.cells, b.occupancy.cells)


def test_spec_from_dict_rejects_unknown_keys():
    cases = [
        (lambda d: d["gate"], "paranoia", "scenario.gate.paranoia"),
        (lambda d: d["vmap"]["versions"][0]["lane_graph"][0], "paranoia",
         "scenario.vmap.versions[0].lane_graph[0].paranoia"),
        (lambda d: d["stations"]["stations"][0], "paranoia",
         "scenario.stations.stations[0].paranoia"),
        (lambda d: d["hazards"][0], "paranoia", "scenario.hazards[0].paranoia"),
        (lambda d: d["traffic"][0], "paranoia", "scenario.traffic[0].paranoia"),
        # the old capability flags: a section's presence is the switch now
        (lambda d: d, "v2x_enabled", "scenario.v2x_enabled: unknown key"),
        (lambda d: d, "attack_enabled", "scenario.attack_enabled: unknown key"),
        (lambda d: d, "updates_enabled", "scenario.updates_enabled: unknown key"),
    ]
    for section, key, path in cases:
        d = spec_to_dict(build_s2())
        section(d)[key] = 11
        with pytest.raises(ValueError, match=re.escape(path)):
            spec_from_dict(d)
    # deleted settable values are unknown keys like any other, so a
    # scenario.json that still holds one is refused; s4 has every section
    deleted = [
        (lambda d: d["ldm"], "tau_sync", "scenario.ldm.tau_sync: unknown key"),
        (lambda d: d["gate"], "weights", "scenario.gate.weights: unknown key"),
        (lambda d: d["vmap"]["versions"][0], "created_at",
         "scenario.vmap.versions[0].created_at: unknown key"),
        (lambda d: d["gate"], "enabled", "scenario.gate.enabled: unknown key"),
        (lambda d: d["gate"], "quorum", "scenario.gate.quorum: unknown key"),
        (lambda d: d["stations"], "denm_policy",
         "scenario.stations.denm_policy: unknown key"),
        (lambda d: d["attack"], "colluding", "scenario.attack.colluding: unknown key"),
        (lambda d: d["planner"], "xy_resolution",
         "scenario.planner.xy_resolution: unknown key"),
        (lambda d: d["sensor"], "field_of_view",
         "scenario.sensor.field_of_view: unknown key"),
        (lambda d: d["ldm"], "lr_absent_cap", "scenario.ldm.lr_absent_cap: unknown key"),
        (lambda d: d["ldm"], "p_miss_assumed", "scenario.ldm.p_miss_assumed: unknown key"),
        (lambda d: d["ldm"], "clutter_term", "scenario.ldm.clutter_term: unknown key"),
    ]
    for section, key, path in deleted:
        d = spec_to_dict(build_s4())
        section(d)[key] = True
        with pytest.raises(ValueError, match="^" + re.escape(path)):
            spec_from_dict(d)


def test_attack_requires_stations():
    # the attackers are stations: an attack without a population cannot run
    s4 = build_s4()
    with pytest.raises(ValueError, match=re.escape("scenario.attack")):
        replace(s4, stations=None)
    d = spec_to_dict(s4)
    d["stations"] = None
    with pytest.raises(ValueError, match=re.escape("scenario.attack")):
        spec_from_dict(d)


@pytest.mark.parametrize("goal", [[-1.0, 50.0], [92.0, 100.0]],
                         ids=["left-of-map", "on-far-edge"])
def test_spec_from_dict_rejects_a_goal_off_the_map(goal):
    # the planner's cost-to-goal field starts from the goal's cell
    d = spec_to_dict(build_s2())
    d["route"]["goal_pose"][:2] = goal
    with pytest.raises(ValueError, match=re.escape(
            "scenario.route.goal_pose: must lie on the 100 x 100 m map")):
        spec_from_dict(d)


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan], ids=["zero", "negative", "nan"])
def test_spec_from_dict_rejects_bad_map_extent(bad):
    d = spec_to_dict(build_s2())
    d["vmap"]["cell_size"] = bad
    with pytest.raises(ValueError, match=re.escape("scenario.vmap.cell_size")):
        spec_from_dict(d)
    d = spec_to_dict(build_s2())
    d["vmap"]["size"] = [100.0, bad]
    with pytest.raises(ValueError, match=re.escape("scenario.vmap.size")):
        spec_from_dict(d)


@pytest.mark.parametrize("damage, path", [
    (lambda d: d["route"].pop("goal_pose"), "scenario.route.goal_pose"),
    (lambda d: d.update(gate=3), "scenario.gate"),
    (lambda d: d.update(ego_start=[8.0, 50.0]), "scenario.ego_start"),
    (lambda d: d["traffic"][0].update(speed="fast"), "scenario.traffic[0].speed"),
], ids=["missing-field", "section-not-object", "tuple-length", "wrong-type"])
def test_spec_from_dict_rejects_malformed_documents(damage, path):
    d = spec_to_dict(build_s2())
    damage(d)
    with pytest.raises(ValueError, match=re.escape(path)):
        spec_from_dict(d)


@pytest.mark.parametrize("damage, path", [
    (lambda d: d["route"].update(reference_path=[[8.0, 50.0]]),
     "scenario.route.reference_path"),
    (lambda d: d["route"].update(reference_path=[[8.0, 50.0, 0.0], [92.0, 50.0, 0.0]]),
     "scenario.route.reference_path"),
    (lambda d: d["traffic"][0].update(path=[[90.0, 58.0]]), "scenario.traffic[0].path"),
    (lambda d: d["traffic"][1].update(path=[[10.0, 42.0, 0.0], [90.0, 42.0, 0.0]]),
     "scenario.traffic[1].path"),
    (lambda d: d["vmap"]["versions"][0]["lane_graph"][0].update(polyline=[[4.0, 50.0]]),
     "scenario.vmap.versions[0].lane_graph[0].polyline"),
], ids=["route-one-point", "route-three-columns", "traffic-one-point",
        "traffic-three-columns", "lane-one-point"])
def test_spec_from_dict_rejects_bad_paths(damage, path):
    d = spec_to_dict(build_s2())
    damage(d)
    with pytest.raises(ValueError, match=re.escape(path) + ": expected an "):
        spec_from_dict(d)


@pytest.mark.parametrize("damage, path", [
    # a version without a publish time would never be served
    (lambda d: d["vmap"]["publish_times"].pop(), "scenario.vmap.publish_times"),
    (lambda d: d["vmap"]["publish_times"].__setitem__(0, 0.0),
     "scenario.vmap.publish_times"),
    (lambda d: d["vmap"]["publish_times"].__setitem__(1, None),
     "scenario.vmap.publish_times"),
    # an update whose id is not newer would never activate
    (lambda d: d["vmap"]["versions"][1].update(version_id=1), "scenario.vmap.versions"),
], ids=["time-missing", "initial-published", "update-unpublished", "equal-ids"])
def test_spec_from_dict_rejects_bad_publish_schedule(damage, path):
    d = spec_to_dict(build_s3())
    damage(d)
    with pytest.raises(ValueError, match=re.escape(path) + ": "):
        spec_from_dict(d)


def test_gate_population_check():
    # every built-in spec, including the ablations, satisfies n >= 3f + 1
    for sid in ("s1", "s2", "s3", "s4"):
        build_scenario(sid)
    build_s2(v2x_enabled=False)
    build_s4(gate_enabled=False)
    s4 = build_s4()
    with pytest.raises(ValueError, match="gate.f"):
        replace(s4, gate=replace(s4.gate, f=4))     # 13 > 10 stations
    d = spec_to_dict(s4)
    d["gate"]["f"] = 4
    with pytest.raises(ValueError, match=re.escape("scenario: gate.f")):
        spec_from_dict(d)


def test_spec_dict_is_json_ready():
    import json
    text = json.dumps(spec_to_dict(build_s4()), sort_keys=True)
    assert "byzantine_ids" in text


@pytest.mark.parametrize("damage, message", [
    (lambda d: d.update(dt=0.0), "scenario.dt: must be finite and > 0, got 0.0"),
    (lambda d: d.update(dt=-0.05), "scenario.dt: must be finite and > 0"),
    (lambda d: d.update(dt=float("inf")), "scenario.dt: must be finite and > 0"),
    (lambda d: d.update(dt=float("nan")), "scenario.dt: must be finite and > 0"),
    (lambda d: d.update(time_limit=-1.0), "scenario.time_limit: must be finite and >= 0"),
    (lambda d: d.update(time_limit=float("inf")), "scenario.time_limit: must be finite"),
    (lambda d: d["planner"].update(goal_xy_tol=2.5),
     "scenario.planner.goal_xy_tol: must not exceed goal_tolerance=2.0, got 2.5"),
    (lambda d: d.update(goal_tolerance=0.5),
     "scenario.planner.goal_xy_tol: must not exceed goal_tolerance=0.5, got 1.0"),
], ids=["dt-zero", "dt-negative", "dt-inf", "dt-nan", "time-limit-negative",
        "time-limit-inf", "goal-xy-tol-too-wide", "goal-tolerance-too-tight"])
def test_spec_from_dict_rejects_a_clock_or_goal_that_cannot_run(damage, message):
    d = spec_to_dict(build_s2())
    damage(d)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        spec_from_dict(d)


@pytest.mark.parametrize("damage, message", [
    (lambda d: d["vmap"].update(cell_size=1e12),
     "scenario.vmap.cell_size: must divide the 100 x 100 m map into 1 to 4000000 "
     "cells, got 0 x 0"),
    (lambda d: d["vmap"].update(size=[1e12, 100.0]),
     "scenario.vmap.cell_size: must divide the 1e+12 x 100 m map"),
    (lambda d: d["vmap"]["versions"][0]["lane_graph"][0]["polyline"][0].__setitem__(0, 1e12),
     "scenario.vmap.versions[0].lane_graph: segment 'main' leaves the 100 x 100 m map"),
    (lambda d: d["planner"].update(primitive_arc_length=1e12),
     "scenario.planner.primitive_arc_length: must not exceed the map diagonal 141.421"),
    (lambda d: d["planner"].update(prefix_horizon=1e12),
     "scenario.planner.prefix_horizon: must be finite and in [0, 60]"),
    (lambda d: d["planner"].update(comfort_decel=0.0),
     "scenario.planner.comfort_decel: must be finite and > 0"),
    (lambda d: d["sensor"].update(clutter_rate=1e12),
     "scenario.sensor.clutter_rate: must be finite and in [0, 100]"),
    (lambda d: d["attack"].update(ahead_max=0.0),
     "scenario.attack.ahead_min: must not exceed ahead_max=0.0, got 10.0"),
    (lambda d: d["ego_start"].__setitem__(0, math.nan),
     "scenario.ego_start: must be finite, got (nan, 50.0, 0.0, 0.0)"),
    (lambda d: d["route"]["reference_path"][3].__setitem__(1, math.inf),
     "scenario.route.reference_path: expected finite points"),
    (lambda d: d["attack"].update(start_time=math.inf),
     "scenario.attack.start_time: must be finite, got inf"),
], ids=["grid-without-cells", "grid-too-large", "lane-off-map", "primitive-past-map",
        "risk-horizon", "no-deceleration", "clutter-flood", "empty-attack-window",
        "ego-nan", "route-inf", "unchecked-inf"])
def test_spec_from_dict_rejects_values_that_cannot_run(damage, message):
    # each of these used to load, then crash, exhaust memory or never end
    d = spec_to_dict(build_s4())
    damage(d)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        spec_from_dict(d)


def test_spec_limits_admit_the_edges():
    s2 = build_s2()
    replace(s2, time_limit=0.0)
    replace(s2, planner=replace(s2.planner, goal_xy_tol=s2.goal_tolerance))


NOT_FINITE = (float("nan"), float("inf"), -float("inf"))


def _document_with(section, name, value, build=build_s4):
    """`build`'s document with field `name` of `section` (dotted, "" for the
    top level, a list item as `key[i]`) set to `value`."""
    d = spec_to_dict(build())
    fields_of = d
    for key in filter(None, section.split(".")):
        key, _, index = key.partition("[")
        fields_of = fields_of[key]
        if index:
            fields_of = fields_of[int(index.removesuffix("]"))]
    fields_of[name] = value
    return d


def _rejects_out_of_range(section, probabilities, non_negative, build=build_s4,
                          upper=1.0, positive=()):
    """Every named field of the `section` of `build`'s document is rejected at
    load outside its range, naming its dotted path; the edges load.
    `probabilities` lie in [0, upper], `positive` fields are > 0 (no edge)."""
    prefix = f"scenario.{section}." if section else "scenario."
    cases = [(name, bad, f"in [0, {upper:g}]") for name in probabilities
             for bad in (-0.1, upper + 0.5, *NOT_FINITE)]
    cases += [(name, bad, ">= 0") for name in non_negative
              for bad in (-0.01, *NOT_FINITE)]
    cases += [(name, bad, "> 0") for name in positive
              for bad in (0.0, -0.01, *NOT_FINITE)]
    for name, bad, bound in cases:
        message = f"{prefix}{name}: must be finite and {bound}, got {bad}"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            spec_from_dict(_document_with(section, name, bad, build))
    for name, edge in [(n, e) for n in probabilities for e in (0.0, upper)] \
            + [(n, 0.0) for n in non_negative]:
        spec_from_dict(_document_with(section, name, edge, build))


def test_sensor_model_ranges():
    _rejects_out_of_range("sensor", ["p_miss"],
                          ["pos_noise_sigma", "vel_noise_sigma", "clutter_rate"])


def test_channel_model_ranges():
    _rejects_out_of_range("channel", ["drop_prob"], ["latency_mean", "latency_jitter"])


def test_attack_policy_ranges():
    _rejects_out_of_range("attack", ["p_attack"], ["emission_period"])


def test_gate_quorum_must_exceed_f():
    # 2f + 1 exceeds f only for f >= 0: s4 with f = -1 used to load with a
    # quorum of -1, accept every forged closure and end in safety_stop
    d = spec_to_dict(build_s4())
    d["gate"]["f"] = -1
    with pytest.raises(ValueError, match="^" + re.escape(
            "scenario.gate.f: must be finite and >= 0, got -1")):
        spec_from_dict(d)
    d["gate"]["f"] = 0
    assert spec_from_dict(d).gate.threshold() == 1.0


def test_sensor_reach_ranges():
    _rejects_out_of_range("sensor", [], ["max_range"])


def test_station_population_ranges():
    # -1 used to load and crash mid-episode in numpy's normal(scale < 0)
    _rejects_out_of_range("stations", [], ["honest_report_noise_sigma", "cam_period"])


def test_denm_policy_ranges():
    # the DENM emission period lives on the station population as denm_period
    _rejects_out_of_range("stations", [], ["denm_period"])


def test_world_record_ranges():
    # on s2 without V2X at seed 1 each of these used to load: a traffic car
    # at speed -6 drove into the ego, a lane of half width -4 walled the whole
    # map and a hazard of radius -1 could never be hit
    _rejects_out_of_range("traffic[0]", [], ["speed", "radius"], build=build_s2)
    _rejects_out_of_range("hazards[0]", [], ["radius"], build=build_s2)
    _rejects_out_of_range("vmap.versions[0].lane_graph[0]", [], ["half_width"],
                          build=build_s2)
    _rejects_out_of_range("stations.stations[0]", [], ["sensing_range"], build=build_s2)
    with pytest.raises(ValueError, match="^" + re.escape(
            "scenario.traffic[0].speed: must be finite and >= 0, got -6.0")):
        spec_from_dict(_document_with("traffic[0]", "speed", -6, build_s2))


ID_FIELDS = [("stations.stations[0]", "station_id"), ("traffic[0]", "vehicle_id"),
             ("hazards[0]", "hazard_id")]


@pytest.mark.parametrize("text", ["", "a,b", 'say "hi"', "two\nlines", "cr\rhere"],
                         ids=["empty", "comma", "quote", "lf", "cr"])
@pytest.mark.parametrize("section, name", ID_FIELDS, ids=[name for _, name in ID_FIELDS])
def test_ids_a_log_cell_cannot_hold_are_refused(section, name, text):
    # each id is written as a log cell and no log cell is quoted; each of
    # these used to load and be written quoted (or, empty, read back as None)
    message = (f"scenario.{section}.{name}: must be non-empty and hold no comma, "
               f"quote, CR or LF, got {text!r}")
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        spec_from_dict(_document_with(section, name, text, build_s2))


@pytest.mark.parametrize("build, section, name, repeat", [
    (build_s2, "traffic[1]", "vehicle_id", "veh-a"),
    (build_s2, "hazards[0]", "hazard_id", "veh-b"),
    (build_s3, "hazards[3]", "hazard_id", "bar-1"),
    (build_s4, "stations.stations[1]", "station_id", "rsu-1"),
], ids=["vehicle-vehicle", "hazard-vehicle", "hazard-hazard", "station-station"])
def test_repeated_object_ids_are_refused(build, section, name, repeat):
    # traffic and hazard ids both key truth.csv rows and MOT scoring, and a
    # station id keys its v2x.csv rows and its vote at the gate
    message = f"scenario.{section}.{name}: repeats the id {repeat!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        spec_from_dict(_document_with(section, name, repeat, build))


@pytest.mark.parametrize("target", ["veh-z", "hz-0"])
def test_a_station_bound_to_no_traffic_vehicle_is_refused(target):
    # s2's station obu-a bound to veh-z used to load and send CAMs from (0, 0)
    message = (f"scenario.stations.stations[7].bound_object: names no traffic "
               f"vehicle, got {target!r}")
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        spec_from_dict(_document_with("stations.stations[7]", "bound_object", target,
                                      build_s2))


def test_update_client_ranges():
    _rejects_out_of_range("update_client", [], ["poll_interval", "download_latency_mean",
                                                "download_latency_jitter"], build=build_s3)


def test_update_client_schedule_and_latency():
    client = UpdateClientConfig(poll_interval=0.12, download_latency_mean=0.01,
                                download_latency_jitter=0.0)
    # 0.12 s is two 0.05 s ticks; tick 0 never polls
    assert [k for k in range(7) if client.polls_at(k, 0.05)] == [2, 4, 6]
    every_tick = replace(client, poll_interval=0.0)
    assert [k for k in range(4) if every_tick.polls_at(k, 0.05)] == [1, 2, 3]

    class NoDraws:
        def normal(self):
            raise AssertionError("a jitter of 0 draws nothing")

    assert client.download_latency(NoDraws()) == 0.05         # clamped
    jittered = replace(client, download_latency_mean=1.1, download_latency_jitter=0.2)
    draw = float(np.random.default_rng(3).normal())
    assert jittered.download_latency(np.random.default_rng(3)) == max(0.05, 1.1 + 0.2 * draw)


def test_gate_config_ranges():
    _rejects_out_of_range("gate", ["eta"], ["support_radius", "sensor_support_radius",
                                            "tau_bft"])


def test_trigger_config_ranges():
    # a negative value used to load and quietly switch its trigger off
    _rejects_out_of_range("triggers", [], ["hazard_lookahead", "hazard_corridor",
                                           "tau_risk"])


def test_scenario_window_and_label_radius_ranges():
    _rejects_out_of_range("", [], ["sensor_likelihood_window", "event_label_radius"])


def test_vehicle_params_ranges():
    # wheelbase 0 used to load and raise ZeroDivisionError at the first plan;
    # a collision radius of -1 used to load and plan on an uninflated grid
    _rejects_out_of_range("vehicle", [], ["max_accel", "max_decel", "collision_radius",
                                          "v_max"], positive=["wheelbase"])
    for bad in (0.0, math.pi / 2.0, -0.1, *NOT_FINITE):
        with pytest.raises(ValueError, match=r"^scenario\.vehicle\.max_steer: must be "
                                             r"finite and in \(0, 1\.5708\), got "):
            spec_from_dict(_document_with("vehicle", "max_steer", bad))
    spec_from_dict(_document_with("vehicle", "max_steer", 1.57))
    spec_from_dict(_document_with("vehicle", "wheelbase", 1e-3))


def test_controller_config_ranges():
    # look_ahead_min 0 used to load and raise ZeroDivisionError in
    # pure_pursuit on the first tick
    _rejects_out_of_range("controller", [], [], positive=["look_ahead_min",
                                                           "look_ahead_max"])
    with pytest.raises(ValueError, match=r"^scenario\.controller\.look_ahead_min: must "
                                         r"not exceed look_ahead_max=6\.0, got 6\.5"):
        spec_from_dict(_document_with("controller", "look_ahead_min", 6.5))
    spec_from_dict(_document_with("controller", "look_ahead_min", 6.0))


def test_ldm_params_ranges():
    _rejects_out_of_range(
        "ldm", ["b_prune", "b_birth", "conf_birth", "event_position_alpha",
                "position_alpha", "velocity_alpha"],
        ["d_gate", "tau_stale", "tau_event", "event_merge_radius", "event_merge_window"],
        positive=["lr_detect", "lr_cam", "lr_absent"])
    for name in ("belief_floor", "belief_ceiling"):
        for bad in (0.0, 1.0, *NOT_FINITE):
            with pytest.raises(ValueError, match=f"^scenario\\.ldm\\.{name}: must be "
                                                 r"finite and in \(0, 1\), got "):
                spec_from_dict(_document_with("ldm", name, bad))
    with pytest.raises(ValueError, match=r"^scenario\.ldm\.belief_floor: must be below "
                                         r"belief_ceiling=0\.99, got 0\.99"):
        spec_from_dict(_document_with("ldm", "belief_floor", 0.99))
    spec_from_dict(_document_with("ldm", "belief_floor", 0.98))


# ---------------------------------------------------------------------------
# spec-document fuzz


def _numeric_leaves(doc, path=()):
    """The path of every number (not bool) in a document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _numeric_leaves(value, path + (i,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


BUILT_IN_DOCS = {name: spec_to_dict(build_scenario(sid, **kwargs))
                 for name, (sid, kwargs) in BUILT_IN_SPECS.items()}
NUMERIC_LEAVES = [(name, path) for name, doc in BUILT_IN_DOCS.items()
                  for path in _numeric_leaves(doc)]


@settings(max_examples=100, deadline=None)
@given(leaf=st.sampled_from(NUMERIC_LEAVES),
       value=st.sampled_from([0, -1, math.nan, math.inf, 1e12, "1"]))
# a negative route-deviation price once loaded, and the cost-to-goal
# Dijkstra then relaxed round a negative cycle without end
@example(leaf=("s1", ("planner", "lateral_weight")), value=-1)
def test_a_document_with_one_bad_number_is_rejected_at_load_or_runs(leaf, value):
    # a document that cannot run is refused at load, naming its dotted path;
    # one that loads runs to a termination
    name, path = leaf
    d = copy.deepcopy(BUILT_IN_DOCS[name])
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        spec = spec_from_dict(d)
    except ValueError as exc:
        assert str(exc).startswith("scenario."), str(exc)
        return
    result = run_episode(replace(spec, time_limit=min(spec.time_limit, 2.0)), 1)
    assert result.summary["termination"] in ("goal_reached", "collision",
                                             "safety_stop", "timeout")
