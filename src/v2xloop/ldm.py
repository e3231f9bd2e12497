"""Local dynamic map: per-tick fusion of detections and V2X messages.

Object tracks carry an existence belief updated in log-odds form; one update
folds in the onboard sensor's likelihood ratio and one `LR_CAM` per
corroborating V2X station. The sensor's ratio is `LR_DETECT` when a
detection lands on the track, `LR_ABSENT` when a frame covered the track
and saw nothing there, and 1 when no frame covered it. That absence
evidence is what lets the ego veto V2X claims about its own surroundings.
DENMs accumulate into event hypotheses that stay pending until the
acceptance gate or expiry decides.
Each tick fuses exactly the sensor frames and messages handed to it, so every
input is fused once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .v2x import CAM, DENM, V2xMessage
from .world import MapVersion

D_GATE = 2.0                  # [m] association gate
B_PRUNE = 0.05                # drop tracks below this belief
TAU_STALE = 1.0               # [s] drop tracks unsupported this long
TAU_EVENT = 5.0               # [s] pending hypotheses expire after this
B_BIRTH = 0.5                 # initial belief: below the planner's obstacle
                              # threshold, so one clutter hit never conjures
                              # a confident obstacle
CONF_BIRTH = 0.5              # min confidence for an item to seed a track
EVENT_POSITION_ALPHA = 0.25   # post-acceptance claim blending rate
LR_DETECT = 3.0               # sensor likelihood ratio, supported
LR_CAM = 2.0                  # per-station V2X likelihood ratio
LOG_LR_CAM = math.log(LR_CAM)
LR_ABSENT = 0.2               # sensor likelihood ratio, covered but unseen
BELIEF_FLOOR = 0.01
BELIEF_CEILING = 0.99
POSITION_ALPHA = 0.35         # EMA gain for track position updates
VELOCITY_ALPHA = 0.3
EVENT_MERGE_RADIUS = 15.0     # [m] DENM-to-hypothesis merge distance
EVENT_MERGE_WINDOW = 3.0      # [s] max report age gap when merging


# ---------------------------------------------------------------------------
# state containers


@dataclass
class Track:
    track_id: str
    position: tuple[float, float]
    velocity: tuple[float, float]
    belief: float
    last_update: float

    def predicted(self, t: float) -> tuple[float, float]:
        dt = max(0.0, t - self.last_update)
        return (self.position[0] + self.velocity[0] * dt,
                self.position[1] + self.velocity[1] * dt)


PENDING = "pending"
ACCEPTED = "accepted"
EXPIRED = "expired"


@dataclass
class EventHypothesis:
    event_id: str
    kind: str
    position: tuple[float, float]
    first_seen: float
    # latest claim per station: id -> (recv_time, claimed position)
    support: dict = field(default_factory=dict)
    status: str = PENDING
    accepted_at: float | None = None

    def refresh_position(self, alpha: float | None = None) -> None:
        """Blend the mean of the stations' latest claims into the location.

        alpha None replaces the location outright (pending spin-up); a
        fraction eases it in, so repeated report rounds average down the
        per-round noise instead of each round resetting the estimate.
        """
        claims = [pos for _, pos in self.support.values()]
        if not claims:
            return
        mx = sum(c[0] for c in claims) / len(claims)
        my = sum(c[1] for c in claims) / len(claims)
        if alpha is None:
            self.position = (mx, my)
        else:
            self.position = (self.position[0] + alpha * (mx - self.position[0]),
                             self.position[1] + alpha * (my - self.position[1]))


@dataclass
class LdmState:
    stamp: float
    objects: list      # list[Track]
    events: list       # list[EventHypothesis]
    active_map: MapVersion
    tracks_born: int = 0     # track ids run T1..T<tracks_born>

    def accepted_events(self):
        return [e for e in self.events if e.status == ACCEPTED]

    def obstacles(self, b_obstacle: float):
        return [t for t in self.objects if t.belief >= b_obstacle]


# ---------------------------------------------------------------------------
# operators


def associate(points, predicted, ids, d_gate: float):
    """Greedy nearest-neighbor assignment inside the gate.

    `points` holds each measurement's (x, y); `predicted` each track's
    position predicted to the fusion time and `ids` its id, by track index.
    Pairs inside the gate are taken nearest first, ties going to the lower
    measurement index, then to the lower track id. Each measurement lands
    on at most one track; a track may collect several (a detection and a
    CAM can both support it in the same tick). Returns (assigned: per
    track index, the indices of its measurements in the order they were
    taken; births: the indices of the measurements no track took, in
    order).
    """
    pairs = []
    for mi, (mx, my) in enumerate(points):
        for ti, (px, py) in enumerate(predicted):
            d = math.hypot(mx - px, my - py)
            if d <= d_gate:
                pairs.append((d, mi, ids[ti], ti))
    pairs.sort()

    assigned: list[list[int]] = [[] for _ in predicted]
    taken = [False] * len(points)
    for _, mi, _, ti in pairs:
        if not taken[mi]:
            taken[mi] = True
            assigned[ti].append(mi)
    return assigned, [mi for mi, hit in enumerate(taken) if not hit]


def update_belief(belief: float, lr_sensor: float, n_stations: int) -> float:
    """Log-odds fusion over `n_stations` corroborating V2X stations:
    logit(b') = logit(b) + ln LR_sensor + n_stations ln LR_CAM."""
    if not math.isfinite(lr_sensor) or lr_sensor <= 0.0:
        raise ValueError("lr_sensor must be finite and positive")
    b = min(max(belief, BELIEF_FLOOR), BELIEF_CEILING)
    logit = math.log(b / (1.0 - b)) + math.log(lr_sensor)
    for _ in range(n_stations):
        logit += LOG_LR_CAM
    b_new = 1.0 / (1.0 + math.exp(-logit))
    return min(max(b_new, BELIEF_FLOOR), BELIEF_CEILING)


def ingest_denm(msg: V2xMessage, events: list) -> EventHypothesis:
    """Fold one DENM into the hypothesis set.

    Merges into the nearest same-kind hypothesis within the merge radius
    whose latest report is recent enough, otherwise opens a new pending
    hypothesis, `E<n>` as the n-th of `events`. Kinds never mix: a closure
    claim next to a stalled-vehicle hypothesis is a different assertion
    about the world, not a corroboration. Returns the touched hypothesis.
    """
    if msg.msg_kind != DENM:
        raise ValueError("ingest_denm expects a DENM")
    claim = tuple(msg.payload.event_position)
    recv = msg.recv_time

    best = None
    best_d = None
    for hyp in events:
        if hyp.status == EXPIRED:
            continue
        if hyp.kind != msg.payload.event_kind:
            continue
        d = math.hypot(claim[0] - hyp.position[0], claim[1] - hyp.position[1])
        if d > EVENT_MERGE_RADIUS:
            continue
        last_report = max((rt for rt, _ in hyp.support.values()), default=hyp.first_seen)
        if recv - last_report > EVENT_MERGE_WINDOW:
            continue
        if best is None or d < best_d:
            best, best_d = hyp, d

    if best is None:
        best = EventHypothesis(event_id=f"E{len(events) + 1}",
                               kind=msg.payload.event_kind, position=claim,
                               first_seen=recv)
        events.append(best)
    best.support[msg.station_id] = (recv, claim)
    if best.status == PENDING:
        best.refresh_position()
    elif best.status == ACCEPTED:
        best.refresh_position(alpha=EVENT_POSITION_ALPHA)
    return best


def fuse_tick(prev: LdmState, now: float, delivered_v2x, active_map: MapVersion,
              frames) -> LdmState:
    """One fusion step over this tick's sensor frames and V2X deliveries.

    Every detection of `frames` and every message of `delivered_v2x` is
    fused here and nowhere else; the frames' coverage is this tick's
    absence evidence.

    The measurements are the detections in frame order, then the CAMs in
    delivery order, each kept as a plain (position, velocity, confidence,
    station) tuple, station None for a detection. An updated track takes
    the mean of its measurements, each coordinate added from 0.0 in the
    order association took them: the operations, in their order, of
    `sum()` on Python 3.11, so the bits of a sum over measurement records.
    One pass over a track's measurements also finds whether a detection
    supports it and how many distinct CAM stations do.
    """
    tracks: list[Track] = prev.objects

    meas = []
    points = []
    for frame in frames:
        for det in frame.detections:
            meas.append((det.world_position, det.world_velocity, det.confidence, None))
            points.append(det.world_position)
    denms = []
    for msg in delivered_v2x:
        if msg.msg_kind == CAM:
            position = tuple(msg.payload.position)
            meas.append((position, tuple(msg.payload.velocity), 1.0, msg.station_id))
            points.append(position)
        elif msg.msg_kind == DENM:
            denms.append(msg)

    # each track's prediction to now, made once: association, the update
    # and (for a track nothing updated) the coverage test all use it
    predicted = [tr.predicted(now) for tr in tracks]
    assigned, births = associate(points, predicted, [tr.track_id for tr in tracks],
                                 D_GATE)

    kept: list[Track] = []
    for tr, at, taken in zip(tracks, predicted, assigned):
        sensed = False
        n_stations = 0
        if taken:
            stations = set()
            sx = sy = svx = svy = 0.0
            for mi in taken:
                (x, y), (vx, vy), _, station = meas[mi]
                sx += x
                sy += y
                svx += vx
                svy += vy
                if station is None:
                    sensed = True
                else:
                    stations.add(station)
            n_stations = len(stations)
            n = len(taken)
            px, py = at
            tr.position = (px + POSITION_ALPHA * (sx / n - px),
                           py + POSITION_ALPHA * (sy / n - py))
            vx, vy = tr.velocity
            tr.velocity = (vx + VELOCITY_ALPHA * (svx / n - vx),
                           vy + VELOCITY_ALPHA * (svy / n - vy))
            tr.last_update = now
            at = tr.predicted(now)

        if sensed:
            lr_sensor = LR_DETECT
        elif any(f.covers(at) for f in frames):
            lr_sensor = LR_ABSENT
        else:
            lr_sensor = 1.0
        tr.belief = update_belief(tr.belief, lr_sensor, n_stations)

        if tr.belief < B_PRUNE:
            continue
        if now - tr.last_update > TAU_STALE:
            continue
        kept.append(tr)

    born = prev.tracks_born
    for mi in births:
        position, velocity, confidence, _ = meas[mi]
        if confidence < CONF_BIRTH:
            continue
        born += 1
        kept.append(Track(track_id=f"T{born}", position=position, velocity=velocity,
                          belief=B_BIRTH, last_update=now))

    events = prev.events
    for msg in denms:
        ingest_denm(msg, events)
    for hyp in events:
        if hyp.status == PENDING and now - hyp.first_seen > TAU_EVENT:
            hyp.status = EXPIRED

    return LdmState(stamp=now, objects=kept, events=events, active_map=active_map,
                    tracks_born=born)


def initial_state(active_map: MapVersion) -> LdmState:
    return LdmState(stamp=0.0, objects=[], events=[], active_map=active_map)
