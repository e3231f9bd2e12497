"""V2X traffic: CAM/DENM generation, a lossy delayed channel, and attackers.

Stations are either roadside units at fixed positions or transmitters bound
to a scripted vehicle. Byzantine stations hold valid credentials and mount a
content-level attack: authenticated DENMs for hazards that do not exist.
Cryptographic plumbing is out of scope: every message counts as authenticated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import uniform
from .world import HAZARD_KINDS, Route, check_id, check_range

CAM = "CAM"
DENM = "DENM"
# honest stations' schedules and report noise
HONEST_REPORT_NOISE_SIGMA = 0.5       # [m]
CAM_PERIOD = 0.1                      # [s]
DENM_PERIOD = 1.0                     # [s] DENM repeat interval while a hazard persists


@dataclass(frozen=True)
class CamPayload:
    position: tuple[float, float]     # [m] reported station position
    velocity: tuple[float, float]     # [m/s]


@dataclass(frozen=True)
class DenmPayload:
    event_kind: str
    event_position: tuple[float, float]


@dataclass(frozen=True)
class V2xMessage:
    msg_kind: str                     # CAM or DENM
    station_id: str
    seq_no: int
    gen_time: float
    payload: object
    recv_time: float | None = None    # set by transmit()


@dataclass(frozen=True)
class Station:
    station_id: str
    position: tuple[float, float]
    sensing_range: float = 60.0       # [m] hazards inside emit DENMs
    bound_object: str | None = None   # track a scripted vehicle if set

    def __post_init__(self):
        check_id(self, "station_id")
        check_range(self, ("sensing_range",))


@dataclass(frozen=True)
class StationPopulation:
    stations: tuple[Station, ...]
    byzantine_ids: frozenset[str] = frozenset()
    # the honest and the Byzantine stations in id order, the order they
    # transmit in within a tick
    _honest: tuple = field(init=False, repr=False, compare=False)
    _byzantine: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "stations", tuple(self.stations))
        object.__setattr__(self, "byzantine_ids", frozenset(self.byzantine_ids))
        ids = [s.station_id for s in self.stations]
        for i, sid in enumerate(ids):
            if sid in ids[:i]:
                raise ValueError(f"stations[{i}].station_id: repeats the id {sid!r}")
        unknown = self.byzantine_ids - set(ids)
        if unknown:
            raise ValueError(f"byzantine_ids: names no station, got {sorted(unknown)}")
        by_id = sorted(self.stations, key=lambda s: s.station_id)
        object.__setattr__(self, "_honest", tuple(
            s for s in by_id if s.station_id not in self.byzantine_ids))
        object.__setattr__(self, "_byzantine", tuple(
            s for s in by_id if s.station_id in self.byzantine_ids))

    def honest(self) -> tuple[Station, ...]:
        """The honest stations, in id order."""
        return self._honest

    def byzantine(self) -> tuple[Station, ...]:
        """The Byzantine stations, in id order."""
        return self._byzantine


@dataclass(frozen=True)
class ChannelModel:
    drop_prob: float = 0.05
    latency_mean: float = 0.14        # [s]
    latency_jitter: float = 0.025     # [s] Gaussian sigma, clamped at zero latency

    def __post_init__(self):
        check_range(self, ("drop_prob",), hi=1.0)
        check_range(self, ("latency_mean", "latency_jitter"))


ATTACK_PLACEMENTS = ("on_route_ahead", "uniform_in_map")


@dataclass(frozen=True)
class AttackPolicy:
    p_attack: float = 1.0             # per attacker per emission
    emission_period: float = 1.0      # [s]
    placement: str = "on_route_ahead"  # one of ATTACK_PLACEMENTS
    false_event_kind: str = "road_closure"
    start_time: float = 0.0
    ahead_min: float = 10.0           # [m] placement window along the route
    ahead_max: float = 40.0

    def __post_init__(self):
        check_range(self, ("p_attack",), hi=1.0)
        # a period of 0 never emits
        check_range(self, ("emission_period", "ahead_min", "ahead_max"))
        if self.ahead_min > self.ahead_max:
            raise ValueError(f"ahead_min: must not exceed ahead_max={self.ahead_max}, "
                             f"got {self.ahead_min}")
        if self.placement not in ATTACK_PLACEMENTS:
            raise ValueError(f"placement: must be one of {ATTACK_PLACEMENTS}, "
                             f"got {self.placement!r}")
        if self.false_event_kind not in HAZARD_KINDS:
            raise ValueError(f"false_event_kind: must be one of {HAZARD_KINDS}, "
                             f"got {self.false_event_kind!r}")


def _emits_this_tick(t: float, dt: float, period: float, offset: float = 0.0) -> bool:
    """Tick-grid schedule: fires on the first tick at or after each period mark."""
    if period <= 0.0:
        return False
    k = int(round((t - offset) / dt))
    period_ticks = max(1, int(round(period / dt)))
    return k >= 0 and k % period_ticks == 0


def _station_state(station: Station, truth_by_id: dict) -> tuple[tuple[float, float], tuple[float, float]]:
    if station.bound_object is not None and station.bound_object in truth_by_id:
        obj = truth_by_id[station.bound_object]
        return tuple(obj.position), tuple(obj.velocity)
    return station.position, (0.0, 0.0)


def generate_honest_traffic(population: StationPopulation, truth_objects,
                            active_hazards, t: float, dt: float,
                            seq_counters: dict[str, int],
                            rng: np.random.Generator,
                            denm_started: set[tuple[str, str]]) -> list[V2xMessage]:
    """Vehicle CAMs on the beacon schedule plus DENMs for sensed hazards.

    A station emits its first DENM for a hazard on the tick it first sees it
    (event-triggered), then repeats on the DENM period. `denm_started`
    carries that first-seen bookkeeping between ticks.
    """
    truth_by_id = {o.object_id: o for o in truth_objects}
    msgs: list[V2xMessage] = []
    # the schedules are the same for every station
    cam_due = _emits_this_tick(t, dt, CAM_PERIOD)
    denm_due = [_emits_this_tick(t, dt, DENM_PERIOD,
                                 offset=hazard.spawn_time) for hazard in active_hazards]

    for station in population.honest():
        pos, vel = _station_state(station, truth_by_id)
        # CAMs are vehicle presence beacons; fixed roadside units only
        # relay hazard notifications, they are not objects to track
        if station.bound_object is not None and cam_due:
            noise = rng.normal(0.0, HONEST_REPORT_NOISE_SIGMA, size=2).tolist()
            vnoise = rng.normal(0.0, HONEST_REPORT_NOISE_SIGMA * 0.2, size=2).tolist()
            seq = seq_counters.get(station.station_id, 0)
            seq_counters[station.station_id] = seq + 1
            msgs.append(V2xMessage(
                msg_kind=CAM, station_id=station.station_id, seq_no=seq,
                gen_time=t, payload=CamPayload(
                    position=(pos[0] + noise[0], pos[1] + noise[1]),
                    velocity=(vel[0] + vnoise[0], vel[1] + vnoise[1]))))
        for hazard, periodic in zip(active_hazards, denm_due):
            dist = math.hypot(hazard.position[0] - pos[0], hazard.position[1] - pos[1])
            if dist > station.sensing_range:
                continue
            key = (station.station_id, hazard.hazard_id)
            first = key not in denm_started
            if first:
                denm_started.add(key)
            if not (first or periodic):
                continue
            noise = rng.normal(0.0, HONEST_REPORT_NOISE_SIGMA, size=2).tolist()
            seq = seq_counters.get(station.station_id, 0)
            seq_counters[station.station_id] = seq + 1
            msgs.append(V2xMessage(
                msg_kind=DENM, station_id=station.station_id, seq_no=seq,
                gen_time=t, payload=DenmPayload(
                    event_kind=hazard.kind,
                    event_position=(hazard.position[0] + noise[0],
                                    hazard.position[1] + noise[1]))))
    return msgs


def generate_attack_traffic(policy: AttackPolicy, population: StationPopulation,
                            route: Route, ego_progress: float, t: float, dt: float,
                            seq_counters: dict[str, int],
                            rng: np.random.Generator,
                            map_bounds: tuple[float, float, float, float]
                            ) -> list[V2xMessage]:
    """Authenticated false DENMs from the Byzantine subset.

    The attackers collude: they share one fabricated location per emission
    window, drawn before any attacker's p_attack draw. That is the strongest
    play against a quorum: support concentrates on a single hypothesis
    instead of spreading across several.
    """
    attackers = population.byzantine()
    if not attackers or t < policy.start_time:
        return []
    if not _emits_this_tick(t, dt, policy.emission_period, offset=policy.start_time):
        return []

    if policy.placement == "on_route_ahead":
        s = ego_progress + uniform(rng, policy.ahead_min, policy.ahead_max)
        p = route.reference_path.point_at(s)
        pos = (float(p[0]), float(p[1]))
    else:                                # uniform_in_map
        x0, y0, x1, y1 = map_bounds
        pos = (uniform(rng, x0, x1), uniform(rng, y0, y1))
    msgs: list[V2xMessage] = []
    for station in attackers:
        if rng.random() >= policy.p_attack:
            continue
        seq = seq_counters.get(station.station_id, 0)
        seq_counters[station.station_id] = seq + 1
        msgs.append(V2xMessage(
            msg_kind=DENM, station_id=station.station_id, seq_no=seq,
            gen_time=t, payload=DenmPayload(
                event_kind=policy.false_event_kind,
                event_position=pos)))
    return msgs


def transmit(messages, channel: ChannelModel, rng: np.random.Generator) -> list[V2xMessage]:
    """Apply drops and latency; the survivors come back in input order (the
    episode loop orders each tick's deliveries)."""
    delivered: list[V2xMessage] = []
    for msg in messages:
        if rng.random() < channel.drop_prob:
            continue
        latency = channel.latency_mean
        if channel.latency_jitter > 0.0:
            latency += rng.normal(0.0, channel.latency_jitter)
        latency = max(0.0, latency)
        # built directly: dataclasses.replace costs several times as much
        delivered.append(V2xMessage(msg_kind=msg.msg_kind, station_id=msg.station_id,
                                    seq_no=msg.seq_no, gen_time=msg.gen_time,
                                    payload=msg.payload, recv_time=msg.gen_time + latency))
    return delivered
