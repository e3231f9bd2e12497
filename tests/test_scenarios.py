"""Scenario builders, ablation switches, and the strict JSON round-trip."""

import copy
import math
import re
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fingerprints import BUILT_IN_SPECS
from v2xloop import gate, harness, perception, scenarios, v2x, vehicle, world
from v2xloop.gate import GateConfig
from v2xloop.harness import run_episode
from v2xloop.pareto import Configuration, config_grid
from v2xloop.planner import CRUISE_SPEED, GOAL_XY_TOL
from v2xloop.scenarios import (ScriptedVehicle, apply_configuration,
                               build_s1, build_s2, build_s3, build_s4,
                               build_scenario, spec_from_dict, spec_to_dict)
from v2xloop.world import planning_occupancy


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
    # both egos poll; without updates the server only ever holds version 1
    assert len(updates.vmap.versions) == 2
    assert frozen.vmap.publish_times == (None,)
    v1, v2 = updates.vmap.versions
    (frozen_v1,) = frozen.vmap.versions

    def lanes(version):
        return [(s.segment_id, s.closed, s.polyline.points.tolist())
                for s in version.lane_graph]

    assert frozen_v1.version_id == v1.version_id and lanes(frozen_v1) == lanes(v1)
    assert v1.version_id < v2.version_id
    closed_v1 = {s.segment_id for s in v1.lane_graph if s.closed}
    closed_v2 = {s.segment_id for s in v2.lane_graph if s.closed}
    assert closed_v1 and closed_v2
    assert closed_v1 != closed_v2          # the closure moves
    assert updates.vmap.publish_times[1] > 0.0
    # the closure stands on the road as posts the sensor can see
    assert updates.hazards and all(h.kind == "road_closure" for h in updates.hazards)


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
    sv = ScriptedVehicle(vehicle_id="v", path=[[0.0, 0.0], [10.0, 0.0]], speed=2.0)
    pos, vel = sv.state_at(0.0)
    assert pos == (0.0, 0.0) and vel == (2.0, 0.0)   # moving from t = 0
    pos, vel = sv.state_at(1.0)
    assert pos[0] == pytest.approx(2.0)
    assert vel == pytest.approx((2.0, 0.0))
    pos, vel = sv.state_at(100.0)
    assert pos[0] == pytest.approx(10.0)             # parked at the end
    assert vel == (0.0, 0.0)


# ---------------------------------------------------------------------------
# configuration overlay


def test_apply_configuration_maps_fields():
    spec = build_s2()
    cfg = Configuration(config_id="cfg-000", look_ahead=6.0, k_p=0.8, tau_risk=3.0)
    out = apply_configuration(spec, cfg)
    assert out.controller.k_p == 0.8
    assert out.controller.look_ahead_min == 3.0
    assert out.controller.look_ahead_max == 9.0
    # carrot distance at cruise speed equals the swept look_ahead
    assert out.controller.look_ahead(CRUISE_SPEED) == pytest.approx(6.0)
    assert out.triggers.tau_risk == 3.0
    # everything else untouched
    assert out.hazards == spec.hazards
    assert replace(out, controller=spec.controller, triggers=spec.triggers) == spec


@pytest.mark.parametrize("name", BUILT_IN_SPECS)
def test_a_configuration_without_knobs_leaves_the_spec_as_built(name):
    scenario_id, kwargs = BUILT_IN_SPECS[name]
    spec = build_scenario(scenario_id, **kwargs)
    assert apply_configuration(spec, Configuration("x")) == spec


# knob -> (a value other than s3's own, the spec section it sets, the
# fields of that section it sets)
KNOB_FIELDS = {
    "look_ahead": (7.0, "controller", {"look_ahead_gain", "look_ahead_min",
                                       "look_ahead_max"}),
    "k_p": (0.9, "controller", {"k_p"}),
    "tau_risk": (3.5, "triggers", {"tau_risk"}),
}


@pytest.mark.parametrize("knob", KNOB_FIELDS)
def test_each_knob_alone_sets_only_its_fields(knob):
    spec = build_s3()
    value, section, names = KNOB_FIELDS[knob]
    out = apply_configuration(spec, Configuration("x", **{knob: value}))
    before, after = getattr(spec, section), getattr(out, section)
    assert {f.name for f in fields(before)
            if getattr(after, f.name) != getattr(before, f.name)} == names
    assert replace(out, **{section: before}) == spec


# a knob's values as a sweep grid may list them: finite numbers, no two equal
_KNOB_VALUES = st.lists(st.one_of(st.integers(-10**6, 10**6),
                                  st.floats(allow_nan=False, allow_infinity=False)),
                        min_size=1, max_size=3, unique=True)
_BASE_SPECS = {sid: build_scenario(sid) for sid in ("s1", "s2", "s3", "s4")}


@settings(max_examples=200, deadline=None)
@given(grid=st.dictionaries(st.sampled_from(sorted(KNOB_FIELDS)), _KNOB_VALUES,
                            min_size=1))
def test_the_configurations_of_a_grid_apply_to_distinct_specs(grid):
    # a sweep runs each (configuration, scenario, seed) once, so two
    # configurations of one grid must never apply to equal specs; a value a
    # spec refuses stops the sweep before its first episode
    configs = config_grid(grid)
    for sid, base in _BASE_SPECS.items():
        try:
            specs = [apply_configuration(base, c) for c in configs]
        except ValueError:
            continue
        assert len(set(specs)) == len(configs), sid


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
    for section in ("stations", "attack"):
        assert (getattr(back, section) is None) == (getattr(spec, section) is None)
    assert len(back.vmap.versions) == len(spec.vmap.versions)
    assert back.route.reference_path.length == pytest.approx(spec.route.reference_path.length)
    # the planning grids derived from the lane graphs are identical
    for a, b in zip(back.vmap.versions, spec.vmap.versions):
        assert np.array_equal(planning_occupancy(back.vmap, a, 1.0),
                              planning_occupancy(spec.vmap, b, 1.0))


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
    # scenario.json that still holds one is refused; s4 has every section.
    # The whole ldm section is deleted, so any key in it is refused with it
    deleted = [
        (lambda d: d.setdefault("ldm", {}), "tau_sync", "scenario.ldm: unknown key"),
        (lambda d: d["gate"], "weights", "scenario.gate.weights: unknown key"),
        (lambda d: d["vmap"]["versions"][0], "created_at",
         "scenario.vmap.versions[0].created_at: unknown key"),
        (lambda d: d["gate"], "enabled", "scenario.gate.enabled: unknown key"),
        (lambda d: d["gate"], "quorum", "scenario.gate.quorum: unknown key"),
        (lambda d: d["stations"], "denm_policy",
         "scenario.stations.denm_policy: unknown key"),
        (lambda d: d["attack"], "colluding", "scenario.attack.colluding: unknown key"),
        (lambda d: d.setdefault("planner", {}), "xy_resolution",
         "scenario.planner: unknown key"),
        (lambda d: d["sensor"], "field_of_view",
         "scenario.sensor.field_of_view: unknown key"),
        (lambda d: d.setdefault("ldm", {}), "lr_absent_cap", "scenario.ldm: unknown key"),
        (lambda d: d.setdefault("ldm", {}), "p_miss_assumed", "scenario.ldm: unknown key"),
        (lambda d: d.setdefault("ldm", {}), "clutter_term", "scenario.ldm: unknown key"),
        *[(lambda d: d, name, f"scenario.{name}: unknown key")
          for name in ("ldm", "sensor_likelihood_window", "event_label_radius")],
        # the whole planner section is deleted: its search settings are
        # constants of the planner module
        *[(lambda d: d.setdefault("planner", {}), name, "scenario.planner: unknown key")
          for name in ("goal_heading_tol", "obstacle_margin", "event_margin",
                       "b_obstacle", "track_radius", "static_speed_floor",
                       "cruise_speed", "pass_speed", "comfort_decel",
                       "slowdown_margin", "goal_ramp_distance", "prefix_horizon",
                       "heading_bins", "steering_samples", "primitive_arc_length",
                       "goal_xy_tol", "steering_change_weight", "lateral_weight",
                       "heuristic_weight", "max_expansions")],
        *[(lambda d: d["triggers"], name, f"scenario.triggers.{name}: unknown key")
          for name in ("hazard_corridor", "hazard_lookahead")],
        *[(lambda d: d["controller"], name, f"scenario.controller.{name}: unknown key")
          for name in ("k_i", "k_d")],
        (lambda d: d["gate"], "support_radius", "scenario.gate.support_radius: unknown key"),
        (lambda d: d["gate"], "sensor_support_radius",
         "scenario.gate.sensor_support_radius: unknown key"),
        (lambda d: d["controller"], "integral_clamp",
         "scenario.controller.integral_clamp: unknown key"),
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


@pytest.mark.parametrize("size, goal", [
    ([100.0, 100.0], [-1.0, 50.0]),
    ([100.0, 100.0], [92.0, 100.0]),
    # 100.2 m holds 200 whole 0.5 m cells, so the grid ends at 100 m
    ([100.2, 100.0], [100.1, 50.0]),
], ids=["left-of-map", "on-far-edge", "past-the-last-whole-cell"])
def test_spec_from_dict_rejects_a_goal_off_the_map(size, goal):
    # the planner's cost-to-goal field starts from the goal's cell
    d = spec_to_dict(build_s2())
    d["vmap"]["size"] = size
    d["route"]["goal_pose"][:2] = goal
    with pytest.raises(ValueError, match=re.escape(
            "scenario.route.goal_pose: must lie on the 100 x 100 m map")):
        spec_from_dict(d)


def test_a_map_of_part_cells_is_its_whole_cells_to_every_rule():
    # 100.2 x 99.8 m rounds to 200 x 200 cells of 0.5 m: the grid's shape,
    # the load rule and the on-map bound all read a 100 x 100 m map, so an
    # ego just inside the last cell loads and one on its far edge does not
    size = [100.2, 99.8]
    assert world.grid_shape(size) == (200, 200)
    world.check_grid(size)
    d = spec_to_dict(build_s2())
    d["vmap"]["size"] = size
    d["ego_start"][:2] = [99.99, 99.99]
    spec = spec_from_dict(d)
    for version in spec.vmap.versions:
        assert planning_occupancy(spec.vmap, version, 1.0).shape == (200, 200)
    for far in ([100.0, 50.0], [50.0, 100.0]):
        d["ego_start"][:2] = far
        with pytest.raises(ValueError, match=re.escape(
                "scenario.ego_start: must lie on the 100 x 100 m map, "
                f"got ({far[0]:g}, {far[1]:g})")):
            spec_from_dict(d)


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan], ids=["zero", "negative", "nan"])
def test_spec_from_dict_rejects_bad_map_extent(bad):
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
    # the step is scenarios.DT, so no document sets one, not even one that
    # could not run
    *[(lambda d, dt=dt: d.update(dt=dt), "scenario.dt: unknown key")
      for dt in (0.0, -0.05, float("inf"), float("nan"))],
    (lambda d: d.update(time_limit=-1.0), "scenario.time_limit: must be finite and >= 0"),
    (lambda d: d.update(time_limit=float("inf")), "scenario.time_limit: must be finite"),
    *[(lambda d, dt=dt: d.update(dt=dt), "scenario.dt: unknown key") for dt in (1e-9, 1e6)],
    # a clock of no tick, or of more than MAX_TICKS
    (lambda d: d.update(time_limit=0.0), "scenario.time_limit: must round to 1 to 100000 "
                                         "ticks of 0.05 s, got 0 s = 0"),
    (lambda d: d.update(time_limit=1e9), "scenario.time_limit: must round to 1 to 100000 "
                                         "ticks of 0.05 s, got 1e+09 s = 20000000000"),
    (lambda d: d.update(time_limit=100_001 * 0.05), "scenario.time_limit: must round to "
                                                    "1 to 100000 ticks of 0.05 s, got "
                                                    "5000.05 s = 100001"),
    # the goal tolerance is harness.GOAL_TOLERANCE, so no document sets one
    # inside the planner's goal region, GOAL_XY_TOL = 1 m wide
    (lambda d: d.update(goal_tolerance=0.99), "scenario.goal_tolerance: unknown key"),
    (lambda d: d.update(goal_tolerance=0.5), "scenario.goal_tolerance: unknown key"),
], ids=["dt-zero", "dt-negative", "dt-inf", "dt-nan", "time-limit-negative",
        "time-limit-inf", "dt-too-fine", "dt-over-the-limit", "time-limit-zero",
        "time-limit-too-long", "one-tick-past-max-ticks", "goal-xy-tol-too-wide",
        "goal-tolerance-too-tight"])
def test_spec_from_dict_rejects_a_clock_or_goal_that_cannot_run(damage, message):
    d = spec_to_dict(build_s2())
    damage(d)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        spec_from_dict(d)


@pytest.mark.parametrize("damage, message", [
    (lambda d: d["vmap"].update(size=[0.2, 100.0]),
     "scenario.vmap.size: must span 1 to 4000000 cells of 0.5 m, got 0.2 x 100 m"),
    (lambda d: d["vmap"].update(size=[1e12, 100.0]),
     "scenario.vmap.size: must span 1 to 4000000 cells of 0.5 m, got 1e+12 x 100 m"),
    # 2e308 cells is past the float maximum, which round() cannot convert
    (lambda d: d["vmap"].update(size=[1e308, 100.0]),
     "scenario.vmap.size: must span 1 to 4000000 cells of 0.5 m, got 1e+308 x 100 m"),
    (lambda d: d["vmap"]["versions"][0]["lane_graph"][0]["polyline"][0].__setitem__(0, 1e12),
     "scenario.vmap.versions[0].lane_graph: segment 'main' leaves the 100 x 100 m map"),
    (lambda d: _shrink_map(d, 1.4),
     "scenario.vmap.size: the map diagonal must be at least the planner's "
     "PRIMITIVE_ARC_LENGTH=2.0, got 1.9799"),
    (lambda d: d["sensor"].update(clutter_rate=1e12),
     "scenario.sensor.clutter_rate: must be finite and in [0, 100]"),
    (lambda d: d["attack"].update(ahead_max=0.0),
     "scenario.attack.ahead_min: must not exceed ahead_max=0.0, got 10.0"),
    (lambda d: d["ego_start"].__setitem__(0, math.nan),
     "scenario.ego_start: must be finite, got (nan, 50.0, 0.0, 0.0)"),
    (lambda d: d["ego_start"].__setitem__(0, -3.0),
     "scenario.ego_start: must lie on the 100 x 100 m map, got (-3, 50)"),
    (lambda d: d["ego_start"].__setitem__(1, 130.0),
     "scenario.ego_start: must lie on the 100 x 100 m map, got (8, 130)"),
    (lambda d: d["ego_start"].__setitem__(3, -3.0),
     "scenario.ego_start: speed must be in [0, 15] m/s, got -3"),
    (lambda d: d["ego_start"].__setitem__(3, 40.0),
     "scenario.ego_start: speed must be in [0, 15] m/s, got 40"),
    (lambda d: d["route"]["reference_path"][3].__setitem__(1, math.inf),
     "scenario.route.reference_path: expected finite points"),
    (lambda d: d["route"]["reference_path"][3].__setitem__(0, 1e6),
     "scenario.route.reference_path[3]: must lie on the 100 x 100 m map, "
     "got (1e+06, 50)"),
    (lambda d: d["route"]["reference_path"][-1].__setitem__(1, -0.5),
     "scenario.route.reference_path[23]: must lie on the 100 x 100 m map, "
     "got (92, -0.5)"),
    (lambda d: d["attack"].update(start_time=math.inf),
     "scenario.attack.start_time: must be finite, got inf"),
    (lambda d: d["stations"]["byzantine_ids"].append("byz-9"),
     "scenario.stations.byzantine_ids: names no station, got ['byz-9']"),
    # the cell is world.CELL_SIZE, so no document sets one fine enough that
    # inflating its grid by the collision radius could not finish
    *[(lambda d, cs=cs: d["vmap"].update(cell_size=cs),
       "scenario.vmap.cell_size: unknown key") for cs in (0.001, 0.05)],
], ids=["grid-without-cells", "grid-too-large", "grid-past-the-float-maximum",
        "lane-off-map", "primitive-past-map",
        "clutter-flood", "empty-attack-window",
        "ego-nan", "ego-off-map-x", "ego-off-map-y", "ego-reversing",
        "ego-over-v-max", "route-inf", "route-point-off-map-x",
        "route-point-off-map-y", "unchecked-inf", "byzantine-id-of-no-station",
        "inflation-that-cannot-finish", "collision-radius-over-16-cells"])
def test_spec_from_dict_rejects_values_that_cannot_run(damage, message):
    # each of these used to load, then crash, exhaust memory or never end
    d = spec_to_dict(build_s4())
    damage(d)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        spec_from_dict(d)


def test_the_goal_tolerance_covers_the_planners_goal_region():
    # a plan could otherwise end inside the planner's goal region but
    # outside the episode's, where the ego holds still until timeout
    assert harness.GOAL_TOLERANCE >= GOAL_XY_TOL


def test_spec_limits_admit_the_edges():
    s2 = build_s2()
    # one tick, and MAX_TICKS ticks
    replace(s2, time_limit=scenarios.DT)
    replace(s2, time_limit=scenarios.MAX_TICKS * scenarios.DT)
    # a map whose diagonal is the planner's primitive arc length
    spec_from_dict(_shrink_map(spec_to_dict(s2), math.sqrt(2.0)))
    # a map of MAX_GRID_CELLS cells
    d = spec_to_dict(s2)
    d["vmap"]["size"] = [1000.0, 1000.0]
    spec_from_dict(d)


NOT_FINITE = (float("nan"), float("inf"), -float("inf"))


def _shrink_map(d, side):
    """Document `d` on a `side` x `side` m map: one lane, the route, the ego
    start and the goal along its middle, and the stations and hazards
    where they were."""
    mid, end = side / 2.0, side - 0.2
    d["vmap"]["size"] = [side, side]
    for version in d["vmap"]["versions"]:
        version["lane_graph"] = [{**version["lane_graph"][0],
                                  "polyline": [[0.1, mid], [side - 0.1, mid]]}]
    d["route"] = {"reference_path": [[0.2, mid], [end, mid]], "goal_pose": [end, mid, 0.0]}
    d["ego_start"] = [0.2, mid, 0.0, 0.0]
    return d


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
    _rejects_out_of_range("sensor", ["p_miss"], ["pos_noise_sigma", "clutter_rate"])


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


def test_world_record_ranges():
    # on s2 without V2X at seed 1 each of these used to load: a traffic car
    # at speed -6 drove into the ego and a lane of half width -4 walled the
    # whole map
    _rejects_out_of_range("traffic[0]", [], ["speed"], build=build_s2)
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
    # the map client is part of every ego and its settings are constants of
    # the world module: no document has an update_client section, and one
    # that still holds it, empty or with a setting, is refused at load
    assert all("update_client" not in doc for doc in BUILT_IN_DOCS.values())
    for value in ({}, {"poll_interval": 2.0}, None):
        with pytest.raises(ValueError, match="^" + re.escape(
                "scenario.update_client: unknown key")):
            spec_from_dict(_document_with("", "update_client", value, build_s3))


def test_update_client_schedule_and_latency():
    # every 2 s, 40 ticks of 0.05 s, on the tick grid the episode polls on
    # from the first tick after 0
    def fires(period, ticks):
        return [k for k in range(1, ticks) if world.fires_at(k * 0.05, 0.05, period)]

    assert world.POLL_INTERVAL == 2.0
    assert fires(world.POLL_INTERVAL, 121) == [40, 80, 120]
    # 0.12 s is two 0.05 s ticks, and an interval under a tick fires every tick
    assert fires(0.12, 7) == [2, 4, 6]
    assert fires(0.01, 4) == [1, 2, 3]

    draw = float(np.random.default_rng(3).normal())
    assert world.download_latency(np.random.default_rng(3)) == max(0.05, 1.1 + 0.2 * draw)

    class LowDraw:
        def normal(self):
            return -10.0

    assert world.download_latency(LowDraw()) == 0.05         # clamped


def test_gate_config_ranges():
    _rejects_out_of_range("gate", ["eta"], [])


def test_trigger_config_ranges():
    # a negative value used to load and quietly switch its trigger off
    _rejects_out_of_range("triggers", [], ["tau_risk"])


# the constants that replaced range-checked document fields, each with the
# rule its field checked: (module, name, low, high, whether low is excluded)
RANGED_CONSTANTS = [
    # wheelbase 0 would raise ZeroDivisionError at the first plan, and a
    # collision radius of -1 would plan on an uninflated grid
    (vehicle, "WHEELBASE", 0.0, math.inf, True),
    (vehicle, "MAX_STEER", 0.0, math.pi / 2.0, True),
    (vehicle, "MAX_ACCEL", 0.0, math.inf, False),
    (vehicle, "MAX_DECEL", 0.0, math.inf, False),
    (vehicle, "COLLISION_RADIUS", 0.0, math.inf, False),
    (vehicle, "V_MAX", 0.0, math.inf, False),
    # a noise sigma of -1 would crash mid-episode in numpy's normal(scale < 0)
    (v2x, "HONEST_REPORT_NOISE_SIGMA", 0.0, math.inf, False),
    (v2x, "CAM_PERIOD", 0.0, math.inf, False),
    (v2x, "DENM_PERIOD", 0.0, math.inf, False),
    (perception, "VEL_NOISE_SIGMA", 0.0, math.inf, False),
    # a body of radius -1 could never be hit
    (world, "OBJECT_RADIUS", 0.0, math.inf, False),
    # a step of 0 would never advance the clock, and a cell of 0 would
    # divide the map into no grid
    (scenarios, "DT", 0.0, math.inf, True),
    (world, "CELL_SIZE", 0.0, math.inf, True),
    (gate, "TAU_BFT", 0.0, math.inf, False),
]


@pytest.mark.parametrize("module, name, low, high, strict", RANGED_CONSTANTS,
                         ids=[case[1] for case in RANGED_CONSTANTS])
def test_vehicle_and_station_constants_meet_their_range_rules(module, name, low, high,
                                                              strict):
    """Each constant that replaced a range-checked document field holds a
    value that field's rule accepted: finite, above `low` (strictly when
    `strict`) and below `high`."""
    value = getattr(module, name)
    assert math.isfinite(value)
    assert (value > low if strict else value >= low) and value < high


@pytest.mark.parametrize("section, name, value", [
    ("", "vehicle", {"wheelbase": 2.7}),
    ("", "metrics", {"tau_safety": 2.0}),
    ("stations", "honest_report_noise_sigma", 0.5),
    ("stations", "cam_period", 0.1),
    ("stations", "denm_period", 1.0),
    ("hazards[0]", "observable_by_sensing", True),
    ("", "update_client", {}),
    ("sensor", "vel_noise_sigma", 0.3),
    ("", "goal_tolerance", 2.0),
    ("hazards[0]", "radius", 1.0),
    ("traffic[0]", "radius", 1.0),
    ("traffic[0]", "start_time", 0.0),
    ("", "dt", 0.05),
    ("vmap", "cell_size", 0.5),
    ("gate", "tau_bft", 3.0),
], ids=["vehicle", "metrics", "stations.honest_report_noise_sigma",
        "stations.cam_period", "stations.denm_period",
        "hazards[0].observable_by_sensing", "update_client", "sensor.vel_noise_sigma",
        "goal_tolerance", "hazards[0].radius", "traffic[0].radius",
        "traffic[0].start_time", "dt", "vmap.cell_size", "gate.tau_bft"])
def test_a_document_holding_a_constant_is_refused(section, name, value):
    """A key whose setting became a constant is refused at load as an
    unknown key, at any value (today's default included), naming its path."""
    prefix = f"scenario.{section}." if section else "scenario."
    with pytest.raises(ValueError, match="^" + re.escape(f"{prefix}{name}: unknown key")):
        spec_from_dict(_document_with(section, name, value, build_s2))


def test_controller_config_ranges():
    # look_ahead_min 0 used to load and raise ZeroDivisionError in
    # pure_pursuit on the first tick
    _rejects_out_of_range("controller", [], [], positive=["look_ahead_min",
                                                           "look_ahead_max"])
    with pytest.raises(ValueError, match=r"^scenario\.controller\.look_ahead_min: must "
                                         r"not exceed look_ahead_max=6\.0, got 6\.5"):
        spec_from_dict(_document_with("controller", "look_ahead_min", 6.5))
    spec_from_dict(_document_with("controller", "look_ahead_min", 6.0))


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


def _dotted(path) -> str:
    """A document path as spec_from_dict names it, e.g. `scenario.a.b[3][0]`."""
    return "scenario" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _names_leaf(message: str, leaf: str) -> bool:
    """Whether a load error names `leaf`: its message starts with the leaf's
    dotted path or an ancestor's below `scenario`, or with a sibling field's
    (a cross-field rule) when it also names the leaf's field."""
    where = message.split(": ", 1)[0]
    if where != "scenario" and (where == leaf or leaf.startswith((where + ".", where + "["))):
        return True
    parent, name = re.sub(r"(\[\d+\])+$", "", leaf).rsplit(".", 1)
    return where.rsplit(".", 1)[0] == parent and re.search(rf"\b{name}\b", message) is not None


def _load_or_run(doc: dict, path, value) -> str | None:
    """Set the leaf at `path` of a copy of `doc` to `value`, then load it
    and, if it loads, run it at seed 1 for at most 2 s. A document that
    cannot run must be refused at load, naming the leaf; one that loads
    must run to a termination with no exception and no NaN metric. Returns
    what breaks that, or None."""
    d = copy.deepcopy(doc)
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    leaf = _dotted(path)
    try:
        spec = spec_from_dict(d)
    except ValueError as exc:
        return None if _names_leaf(str(exc), leaf) else f"{leaf}={value}: {exc}"
    result = run_episode(replace(spec, time_limit=min(spec.time_limit, 2.0)), 1)
    nan = [k for k, v in asdict(result.metrics).items()
           if isinstance(v, float) and math.isnan(v)]
    if nan or result.summary["termination"] not in ("goal_reached", "collision",
                                                    "safety_stop", "timeout"):
        return f"{leaf}={value}: NaN {nan}, {result.summary['termination']}"
    return None


@settings(max_examples=100, deadline=None)
@given(leaf=st.sampled_from(NUMERIC_LEAVES),
       value=st.sampled_from([0, -1, math.nan, math.inf, 1e12, "1"]))
def test_a_document_with_one_bad_number_is_rejected_at_load_or_runs(leaf, value):
    name, path = leaf
    assert _load_or_run(BUILT_IN_DOCS[name], path, value) is None


# the load-or-run property over the documents that set every section: each
# numeric leaf of s2, s3 and s4 in turn takes each of these values. The
# full product is 1,965 mutations, about 50 s on two cores, so the test
# takes every FUZZ_STRIDE-th; 3 shares no factor with the five values, so
# every leaf is set to at least one of them
FUZZ_VALUES = (0, -1, 1e-9, 1e6, 1e300)
FUZZ_STRIDE = 3


@pytest.mark.parametrize("sid", ["s2", "s3", "s4"])
def test_every_number_of_a_document_is_refused_naming_it_or_runs_to_its_end(sid):
    doc = BUILT_IN_DOCS[sid]
    mutations = [(path, value) for path in _numeric_leaves(doc)
                 for value in FUZZ_VALUES][::FUZZ_STRIDE]
    broken = list(filter(None, (_load_or_run(doc, path, value) for path, value in mutations)))
    assert not broken, broken[:5]


def test_names_leaf_reads_ancestors_and_cross_field_rules():
    leaf = "scenario.route.reference_path[3][0]"
    assert _names_leaf("scenario.route.reference_path[3]: must lie on the map", leaf)
    assert _names_leaf("scenario.route.reference_path: expected points", leaf)
    assert not _names_leaf("scenario: gate.f=1 needs at least 4 stations", leaf)
    assert not _names_leaf("scenario.route.goal_pose: must lie on the map", leaf)
    assert _names_leaf("scenario.vmap.size: must span 1 to 4000000 cells",
                       "scenario.vmap.size[1]")
    assert _names_leaf("scenario.attack.ahead_min: must not exceed ahead_max=0.0",
                       "scenario.attack.ahead_max")
    assert not _names_leaf("scenario.attack.ahead_min: must not exceed the window",
                           "scenario.attack.ahead_max")


@pytest.mark.parametrize("path, damage", [
    ("scenario.route.reference_path", lambda d: d["route"]["reference_path"][3]),
    ("scenario.vmap.versions[0].lane_graph[0].polyline",
     lambda d: d["vmap"]["versions"][0]["lane_graph"][0]["polyline"][0]),
    ("scenario.traffic[0].path", lambda d: d["traffic"][0]["path"][0]),
], ids=["route", "lane", "traffic"])
def test_a_path_whose_squared_segment_lengths_overflow_is_refused_naming_it(path, damage):
    # 1e300 squared overflows; numpy's warning must not escape before the
    # load rule names the path
    d = spec_to_dict(build_s2())
    damage(d)[0] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{path}: expected points whose squared segment lengths are finite")):
            spec_from_dict(d)
