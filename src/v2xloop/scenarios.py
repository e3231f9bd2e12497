"""Scenario suite and strict configuration round-trip.

Four built-in scenarios exercise the stack:

  s1  lane keeping on an open road, no V2X, no updates
  s2  a stationary hazard appears mid-route; honest roadside units report it
  s3  the map server publishes a topology change that closes the route
  s4  s2 plus Byzantine stations flooding fabricated closure reports

A scenario is a value object; everything an episode needs that some run
varies serializes to JSON and back, and the settings no run varies are
constants of the modules that read them: among them the ego's bicycle model
(`vehicle`), its map client's poll schedule and download latency (`world`),
the bodies of hazards and traffic (`world.OBJECT_RADIUS`), the goal
tolerance (`harness`), the stations' CAM and DENM schedule and report noise
(`v2x`) and the scoring weights (`metrics.MetricParams`' defaults, which
every run records in its meta.json). Unknown keys anywhere in the document
are errors, never silently ignored, so a typo in a config cannot run with
defaults behind the experimenter's back. The optional sections switch their
capability by being present: `stations` (V2X) and `attack` (forged DENMs
from the Byzantine stations). Every ego polls the map server; on a map of
one version a poll never finds an update.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .control import ControllerConfig
from .gate import GateConfig
from .pareto import Configuration
from .perception import SensorModel
from .planner import CRUISE_SPEED, PRIMITIVE_ARC_LENGTH, TriggerConfig
from .v2x import AttackPolicy, ChannelModel, Station, StationPopulation
from .vehicle import COLLISION_RADIUS, V_MAX
# polyline_cumlength is not called here: perfbench/layers.py traces this binding
from .world import (GroundTruthHazard, LaneSegment, MapVersion, Polyline, Route,
                    VersionedMap, WorldObject, as_polyline, check_id, check_range,
                    polyline_cumlength)

SCENARIO_IDS = ("s1", "s2", "s3", "s4")
# the most cells the collision radius may span: inflating the planning grid
# takes about pi * r^2 whole-grid shifts for a radius of r cells, and the
# built-in maps need 2
MAX_INFLATE_CELLS = 16
# the most ticks an episode may run, round(time_limit / dt): its logs and
# per-tick work grow with it, and the built-ins run 800 to 1,200
MAX_TICKS = 100_000


@dataclass(frozen=True)
class ScriptedVehicle:
    """Constant-speed traffic along a fixed polyline from t = 0; parks at
    the end."""

    vehicle_id: str
    path: Polyline
    speed: float

    def __post_init__(self):
        object.__setattr__(self, "path", as_polyline(self.path))
        check_id(self, "vehicle_id")
        check_range(self, ("speed",))

    def state_at(self, t: float):
        """((x, y), (vx, vy)) at time t, a pure function of t."""
        s = self.speed * t
        x, y = self.path.point_at(s)
        if s < self.path.length:
            ax, ay = self.path.point_at(s + 0.5)
            dx, dy = ax - x, ay - y
            norm = math.hypot(dx, dy)
            vel = (self.speed * dx / norm, self.speed * dy / norm) if norm > 1e-9 \
                else (0.0, 0.0)
        else:
            vel = (0.0, 0.0)
        return (x, y), vel


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything an episode needs. Equality and hash go by value, but by
    identity for paths: apply_configuration's copies share those, so two
    separately built specs are never equal."""

    scenario_id: str
    vmap: VersionedMap
    route: Route
    ego_start: tuple[float, float, float, float]   # x, y, heading, speed
    dt: float = 0.05
    time_limit: float = 40.0
    sensor: SensorModel = SensorModel()
    channel: ChannelModel = ChannelModel()
    stations: StationPopulation | None = None
    attack: AttackPolicy | None = None
    gate: GateConfig = GateConfig()
    triggers: TriggerConfig = TriggerConfig()
    controller: ControllerConfig = ControllerConfig()
    hazards: tuple[GroundTruthHazard, ...] = ()
    traffic: tuple[ScriptedVehicle, ...] = ()
    # t -> truth_at(t), filled by the first episode that asks, and each
    # hazard's object, which every t it is present at holds; kept for the
    # life of the spec and shared by apply_configuration's copies
    _truth: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _hazard_objects: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scenario_id not in SCENARIO_IDS:
            raise ValueError(f"scenario_id must be one of {SCENARIO_IDS}")
        object.__setattr__(self, "hazards", tuple(self.hazards))
        object.__setattr__(self, "traffic", tuple(self.traffic))
        object.__setattr__(self, "_hazard_objects", tuple(
            WorldObject(object_id=h.hazard_id, position=h.position, velocity=(0.0, 0.0))
            for h in self.hazards))
        # a message that starts with the field at fault extends the dotted
        # path spec_from_dict reports
        check_range(self, ("dt",), strict=True)
        check_range(self, ("time_limit",))
        ticks = round(self.time_limit / self.dt)
        if not 1 <= ticks <= MAX_TICKS:
            raise ValueError(f"dt: time_limit / dt must round to 1 to {MAX_TICKS} ticks, "
                             f"got {self.time_limit:g} / {self.dt:g} = {ticks}")
        if not all(map(math.isfinite, self.ego_start)):
            raise ValueError(f"ego_start: must be finite, got {self.ego_start}")
        cs = self.vmap.cell_size
        if COLLISION_RADIUS / cs > MAX_INFLATE_CELLS:
            raise ValueError(f"vmap.cell_size: the collision radius "
                             f"COLLISION_RADIUS={COLLISION_RADIUS:g} m may span at most "
                             f"{MAX_INFLATE_CELLS} cells, got {COLLISION_RADIUS / cs:g} "
                             f"at {cs:g}")
        # the planner's cost-to-goal field is a Dijkstra from the goal's cell,
        # on a grid of whole cells; an ego off that grid stops at once; and
        # the route length and progress are measured along the reference path
        width, height = (round(side / cs) * cs for side in self.vmap.size)
        points = self.route.reference_path.points.tolist()
        for name, (x, y) in (("route.goal_pose", self.route.goal_pose[:2]),
                             ("ego_start", self.ego_start[:2]),
                             *((f"route.reference_path[{i}]", xy)
                               for i, xy in enumerate(points))):
            if not (0.0 <= x < width and 0.0 <= y < height):
                raise ValueError(f"{name}: must lie on the {width:g} x {height:g} m "
                                 f"map, got ({x:g}, {y:g})")
        # vehicle.step moves at the start speed before it clamps it to [0, V_MAX]
        speed = self.ego_start[3]
        if not 0.0 <= speed <= V_MAX:
            raise ValueError(f"ego_start: speed must be in [0, {V_MAX:g}] m/s, "
                             f"got {speed:g}")
        # a motion primitive longer than the diagonal leaves the map from
        # anywhere on it
        diagonal = math.hypot(*self.vmap.size)
        if diagonal < PRIMITIVE_ARC_LENGTH:
            raise ValueError(f"vmap.size: the map diagonal must be at least the "
                             f"planner's PRIMITIVE_ARC_LENGTH={PRIMITIVE_ARC_LENGTH}, "
                             f"got {diagonal:g}")
        if self.attack is not None and self.stations is None:
            raise ValueError("scenario.attack needs scenario.stations: "
                             "the attackers are stations")
        # 2f+1 votes outvote f liars only among at least 3f+1 stations
        # (Castro & Liskov, PBFT, 1999)
        f, stations = self.gate.f, self.stations
        if stations is not None and 3 * f + 1 > len(stations.stations):
            raise ValueError(f"gate.f={f} needs at least 3f+1={3 * f + 1} "
                             f"stations, the population has {len(stations.stations)}")
        # traffic and hazard ids both key truth.csv rows and MOT scoring
        vehicles = [v.vehicle_id for v in self.traffic]
        ids = vehicles + [h.hazard_id for h in self.hazards]
        for i, oid in enumerate(ids):
            if oid in ids[:i]:
                where = (f"traffic[{i}].vehicle_id" if i < len(vehicles)
                         else f"hazards[{i - len(vehicles)}].hazard_id")
                raise ValueError(f"{where}: repeats the id {oid!r}")
        for i, station in enumerate(stations.stations if stations is not None else ()):
            if station.bound_object not in (None, *vehicles):
                raise ValueError(f"stations.stations[{i}].bound_object: names no "
                                 f"traffic vehicle, got {station.bound_object!r}")

    def truth_at(self, t: float) -> tuple[WorldObject, ...]:
        """Everything physically present at t: each traffic vehicle, then
        each hazard spawned by t. A pure function of the spec and t, built
        once per t."""
        truth = self._truth.get(t)
        if truth is None:
            truth = self._truth[t] = (
                *(WorldObject(sv.vehicle_id, *sv.state_at(t)) for sv in self.traffic),
                *(obj for h, obj in zip(self.hazards, self._hazard_objects)
                  if h.spawn_time <= t))
        return truth


def apply_configuration(spec: ScenarioSpec, config: Configuration) -> ScenarioSpec:
    """Overlay one swept operating point onto a scenario's controller and
    triggers: only the knobs `config` sets, so `Configuration(id)` leaves
    the spec as it is.

    The swept look_ahead is the carrot distance at cruise speed; the
    speed-scaled bounds stretch around it proportionally.
    """
    controller, triggers = spec.controller, spec.triggers
    if config.k_p is not None:
        controller = replace(controller, k_p=config.k_p)
    la = config.look_ahead
    if la is not None:
        controller = replace(controller, look_ahead_gain=la / CRUISE_SPEED,
                             look_ahead_min=la / 2.0, look_ahead_max=1.5 * la)
    if config.tau_risk is not None:
        triggers = replace(triggers, tau_risk=config.tau_risk)
    copy = replace(spec, controller=controller, triggers=triggers)
    # the copy keeps the traffic and hazards, so it keeps their truth
    for name in ("_truth", "_hazard_objects"):
        object.__setattr__(copy, name, getattr(spec, name))
    return copy


# ---------------------------------------------------------------------------
# builders


def _straight(a, b, n: int = 2) -> np.ndarray:
    return np.linspace(a, b, max(2, n))


def _s_curve(x0: float, x1: float, y_mid: float, amp: float, n: int = 60) -> np.ndarray:
    xs = np.linspace(x0, x1, n)
    ys = y_mid + amp * np.sin((xs - x0) / (x1 - x0) * 2.0 * math.pi)
    return np.column_stack([xs, ys])


def _rsu_row(count: int, x0: float, dx: float, y: float,
             sensing_range: float = 60.0, prefix: str = "rsu") -> list[Station]:
    return [Station(station_id=f"{prefix}-{i + 1}", position=(x0 + i * dx, y),
                    sensing_range=sensing_range) for i in range(count)]


def _map(*lane_graphs, publish_times=(None,)) -> VersionedMap:
    """The 100 m square map at 0.5 m cells of every built-in scenario, with
    one version per lane graph, ids from 1."""
    return VersionedMap(size=(100.0, 100.0), cell_size=0.5,
                        versions=tuple(MapVersion(i + 1, lanes)
                                       for i, lanes in enumerate(lane_graphs)),
                        publish_times=publish_times)


def build_s1(route_shape: str = "straight") -> ScenarioSpec:
    if route_shape == "straight":
        center = _straight((4.0, 50.0), (96.0, 50.0))
        ref = _straight((8.0, 50.0), (92.0, 50.0), n=24)
        heading = 0.0
    elif route_shape == "curve":
        center = _s_curve(4.0, 96.0, 50.0, 6.0)
        ref = _s_curve(8.0, 92.0, 50.0, 5.85)
        d = ref[1] - ref[0]
        heading = math.atan2(d[1], d[0])
    else:
        raise ValueError("route_shape must be 'straight' or 'curve'")
    vmap = _map([LaneSegment("main", center, half_width=4.0)])
    goal = (float(ref[-1, 0]), float(ref[-1, 1]), 0.0)
    return ScenarioSpec(
        scenario_id="s1", vmap=vmap,
        route=Route(reference_path=ref, goal_pose=goal),
        ego_start=(float(ref[0, 0]), float(ref[0, 1]), heading, 0.0),
        sensor=SensorModel(max_range=20.0, p_miss=0.1, clutter_rate=0.0),
        time_limit=40.0)


def _s2_layout():
    vmap = _map([LaneSegment("main", _straight((4.0, 50.0), (96.0, 50.0)), half_width=4.0)])
    ref = _straight((8.0, 50.0), (92.0, 50.0), n=24)
    route = Route(reference_path=ref, goal_pose=(92.0, 50.0, 0.0))
    # off-center stall: blocks the reference line but leaves a gap below it
    hazard = GroundTruthHazard(hazard_id="hz-0", position=(62.0, 50.4),
                               kind="stationary_vehicle", spawn_time=3.5)
    traffic = (
        ScriptedVehicle("veh-a", _straight((90.0, 58.0), (10.0, 58.0)), speed=6.0),
        ScriptedVehicle("veh-b", _straight((10.0, 42.0), (90.0, 42.0)), speed=5.0),
    )
    return vmap, route, hazard, traffic


def build_s2(v2x_enabled: bool = True) -> ScenarioSpec:
    vmap, route, hazard, traffic = _s2_layout()
    rsus = _rsu_row(7, 25.0, 10.0, 56.0)
    vehicle_stations = [Station("obu-a", (0.0, 0.0), sensing_range=40.0,
                                bound_object="veh-a"),
                        Station("obu-b", (0.0, 0.0), sensing_range=40.0,
                                bound_object="veh-b")]
    population = StationPopulation(stations=tuple(rsus + vehicle_stations))
    return ScenarioSpec(
        scenario_id="s2", vmap=vmap, route=route,
        ego_start=(8.0, 50.0, 0.0, 0.0),
        stations=population if v2x_enabled else None,
        sensor=SensorModel(max_range=12.0, p_miss=0.3, pos_noise_sigma=0.6,
                           clutter_rate=0.2),
        gate=GateConfig(f=1, eta=0.5),
        hazards=(hazard,), traffic=traffic, time_limit=40.0)


def build_s3(updates_enabled: bool = True) -> ScenarioSpec:
    hw = 4.0
    # closed variants are pulled back from the junctions: their wall stamp
    # includes a half-width end cap that would otherwise sever the open road
    segs_v1 = [
        LaneSegment("main_w", _straight((4.0, 30.0), (56.0, 30.0)), hw),
        LaneSegment("main_mid", _straight((56.0, 30.0), (80.0, 30.0)), hw),
        LaneSegment("main_e", _straight((80.0, 30.0), (96.0, 30.0)), hw),
        LaneSegment("det_a", _straight((56.0, 38.5), (56.0, 62.0)), hw, closed=True),
        LaneSegment("det_b", _straight((56.0, 62.0), (80.0, 62.0)), hw, closed=True),
        LaneSegment("det_c", _straight((80.0, 38.5), (80.0, 62.0)), hw, closed=True),
    ]
    segs_v2 = [
        LaneSegment("main_w", _straight((4.0, 30.0), (56.0, 30.0)), hw),
        LaneSegment("main_mid", _straight((64.5, 30.0), (71.5, 30.0)), hw, closed=True),
        LaneSegment("main_e", _straight((80.0, 30.0), (96.0, 30.0)), hw),
        LaneSegment("det_a", _straight((56.0, 30.0), (56.0, 62.0)), hw),
        LaneSegment("det_b", _straight((56.0, 62.0), (80.0, 62.0)), hw),
        LaneSegment("det_c", _straight((80.0, 62.0), (80.0, 30.0)), hw),
    ]
    # without updates the map server never publishes version 2
    vmap = (_map(segs_v1, segs_v2, publish_times=(None, 4.0)) if updates_enabled
            else _map(segs_v1))
    ref = _straight((8.0, 30.0), (92.0, 30.0), n=24)
    route = Route(reference_path=ref, goal_pose=(92.0, 30.0, 0.0))
    posts = tuple(
        GroundTruthHazard(hazard_id=f"bar-{i}", position=(70.0, 26.8 + 1.6 * i),
                          kind="road_closure", spawn_time=4.0)
        for i in range(5))
    return ScenarioSpec(
        scenario_id="s3", vmap=vmap, route=route,
        ego_start=(8.0, 30.0, 0.0, 0.0),
        sensor=SensorModel(max_range=20.0, p_miss=0.2, pos_noise_sigma=0.6,
                           clutter_rate=0.1),
        hazards=posts, time_limit=60.0)


def build_s4(gate_enabled: bool = True) -> ScenarioSpec:
    vmap, route, hazard, _traffic = _s2_layout()
    rsus = _rsu_row(7, 20.0, 10.0, 56.0)
    byz = _rsu_row(3, 30.0, 15.0, 44.0, prefix="byz")
    population = StationPopulation(stations=tuple(rsus + byz),
                                   byzantine_ids=frozenset(s.station_id for s in byz))
    return ScenarioSpec(
        scenario_id="s4", vmap=vmap, route=route,
        ego_start=(8.0, 50.0, 0.0, 0.0),
        stations=population,
        attack=AttackPolicy(p_attack=1.0, emission_period=1.0,
                            placement="on_route_ahead",
                            false_event_kind="road_closure", start_time=1.0),
        sensor=SensorModel(max_range=20.0, p_miss=0.2, pos_noise_sigma=0.6,
                           clutter_rate=0.2),
        channel=ChannelModel(drop_prob=0.02, latency_mean=0.14,
                             latency_jitter=0.025),
        # without the gate the ego is the naive consumer: at f = 0 and
        # eta = 0 one fresh claim is a quorum and nothing is vetoed
        gate=GateConfig(f=3, eta=0.5) if gate_enabled else GateConfig(f=0, eta=0.0),
        hazards=(hazard,), time_limit=40.0)


def build_scenario(scenario_id: str, **kwargs) -> ScenarioSpec:
    builders = {"s1": build_s1, "s2": build_s2, "s3": build_s3, "s4": build_s4}
    if scenario_id not in builders:
        raise ValueError(f"unknown scenario {scenario_id!r}; expected one of {SCENARIO_IDS}")
    return builders[scenario_id](**kwargs)


# ---------------------------------------------------------------------------
# strict JSON round-trip: document keys are the dataclass field names


def spec_to_dict(spec: ScenarioSpec) -> dict:
    return _encode(spec)


def spec_from_dict(d: dict) -> ScenarioSpec:
    """Decode a scenario document; a bad key, shape or value raises a
    ValueError naming its dotted path, e.g. `scenario.gate.paranoia`."""
    return _decode(ScenarioSpec, d, "scenario")


def _encode(value):
    if isinstance(value, Polyline):
        return value.points.tolist()
    if is_dataclass(value):
        # non-init fields are derived from the others and not serialized
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


def _decode_fields(cls, d, path: str) -> dict:
    """Constructor arguments for cls from the document object `d`."""
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected an object, got {type(d).__name__}")
    known = [f for f in fields(cls) if f.init]
    unknown = sorted(set(d) - {f.name for f in known})
    if unknown:
        raise ValueError(f"{path}.{unknown[0]}: unknown key")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in known:
        if f.name not in d:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{path}.{f.name}: missing required field")
        else:
            kwargs[f.name] = _decode(hints[f.name], d[f.name], f"{path}.{f.name}")
    return kwargs


# "name: ..." or "name.sub[i].x: ...", a message naming the field at fault
_FIELD_FIRST = re.compile(r"([A-Za-z_]\w*)(\.\w+|\[\d+\])*: ")


def _located(exc: ValueError, path: str, cls) -> ValueError:
    """cls's constructor error under `path`; a message that starts with a
    field of cls extends the dotted path, e.g. `scenario.dt: ...`."""
    field_first = _FIELD_FIRST.match(str(exc))
    if field_first and field_first[1] in {f.name for f in fields(cls)}:
        return ValueError(f"{path}.{exc}")
    return ValueError(f"{path}: {exc}")


def _decode(tp, value, path: str):
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:    # every union in a spec is `X | None`
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _decode(tp, value, path)
    if tp is Polyline:
        try:
            return Polyline(value)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if is_dataclass(tp):
        kwargs = _decode_fields(tp, value, path)
        try:
            decoded = tp(**kwargs)
        except ValueError as exc:
            raise _located(exc, path, tp) from None
        # a number that no rule of the constructor covers must still be finite
        for name, v in kwargs.items():
            if any(type(x) is float and not math.isfinite(x)
                   for x in (v if isinstance(v, tuple) else (v,))):
                raise ValueError(f"{path}.{name}: must be finite, got {v}")
        return decoded
    if origin in (tuple, frozenset):
        if not isinstance(value, list):
            raise ValueError(f"{path}: expected a list, got {type(value).__name__}")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise ValueError(f"{path}: expected {len(args)} items, got {len(value)}")
        else:
            args = (args[0],) * len(value)
        return origin(_decode(a, v, f"{path}[{i}]")
                      for i, (a, v) in enumerate(zip(args, value)))
    if tp in (float, int, bool, str):
        if tp is float and type(value) is int:
            value = float(value)
        if not isinstance(value, tp) or (tp is int and isinstance(value, bool)):
            raise ValueError(f"{path}: expected {tp.__name__}, got {type(value).__name__}")
        return value
    raise TypeError(f"{path}: no codec for {tp!r}")
