"""Slow, plain references the fast paths are checked against: pairwise
dominance for `v2xloop.pareto.nondominated_set`, a Monte Carlo hypervolume
estimate for the exact sweeps of `v2xloop.pareto.hypervolume`, the
whole-grid route deviation for `v2xloop.planner.route_deviation_field`, and
the fusion step with one `Measurement` record per detection and CAM for
`v2xloop.ldm.fuse_tick`."""

import math
from dataclasses import dataclass

import numpy as np

from v2xloop.ldm import (B_BIRTH, B_PRUNE, CONF_BIRTH, D_GATE, EXPIRED, LR_ABSENT,
                         LR_DETECT, PENDING, POSITION_ALPHA, TAU_EVENT, TAU_STALE,
                         VELOCITY_ALPHA, LdmState, Track, ingest_denm, update_belief)
from v2xloop.v2x import CAM, DENM
from v2xloop.world import MapVersion


def dominates(a, b) -> bool:
    """True iff a is no worse everywhere and strictly better somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("objective vectors must share a dimension")
    return bool(np.all(a <= b) and np.any(a < b))


def mc_hypervolume(points, reference, samples: int = 200_000, seed: int = 0) -> float:
    """Share of `samples` uniform draws in the box from the points' minimum
    to `reference` that some point dominates, times the box's volume. The
    draws come from a Philox generator seeded with `seed`, 50,000 at a time."""
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    lo = pts.min(axis=0)
    box = np.prod(ref - lo)
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    remaining = samples
    while remaining > 0:
        k = min(50_000, remaining)
        sample = rng.uniform(lo, ref, size=(k, pts.shape[1]))
        dominated = np.zeros(k, dtype=bool)
        for p in pts:
            dominated |= np.all(sample >= p, axis=1)
        hits += int(dominated.sum())
        remaining -= k
    return float(box * hits / samples)


def route_deviation_everywhere(grid, reference_path) -> np.ndarray:
    """Distance from every cell center of `grid` to the reference polyline:
    the all-cells formula `route_deviation_field` computed before it kept
    to the cells a plan reads."""
    ny, nx = grid.cells.shape
    res = grid.cell_size
    cx = (np.arange(nx) + 0.5) * res
    cy = (np.arange(ny) + 0.5) * res
    px, py = np.meshgrid(cx, cy)
    ref = np.asarray(reference_path, dtype=float)
    best = np.full((ny, nx), np.inf)
    for a, b in zip(ref[:-1], ref[1:]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        seg_len2 = dx * dx + dy * dy
        if seg_len2 < 1e-18:
            d = np.hypot(px - a[0], py - a[1])
        else:
            tt = np.clip(((px - a[0]) * dx + (py - a[1]) * dy) / seg_len2, 0.0, 1.0)
            d = np.hypot(px - (a[0] + tt * dx), py - (a[1] + tt * dy))
        np.minimum(best, d, out=best)
    return best


# the fusion step before it became one pass: fuse_tick, associate and
# Measurement as they were, verbatim


@dataclass(frozen=True)
class Measurement:
    """Association input: one detection or one CAM, in world coordinates."""

    position: tuple[float, float]
    velocity: tuple[float, float]
    confidence: float
    source: str                       # "sensor" or "cam:<station_id>"


def associate(measurements, predicted: dict, d_gate: float):
    """Greedy nearest-neighbor assignment inside the gate.

    `predicted` maps each track id, in track order, to the track's position
    predicted to the fusion time. Each measurement lands on at most one
    track; a track may collect several (a detection and a CAM can both
    support it in the same tick). Returns (assigned: track_id ->
    [measurement], births: [measurement]).
    """
    pairs = []
    for mi, m in enumerate(measurements):
        for tid, (px, py) in predicted.items():
            d = math.hypot(m.position[0] - px, m.position[1] - py)
            if d <= d_gate:
                pairs.append((d, mi, tid))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))

    assigned: dict[str, list] = {}
    taken: set[int] = set()
    for d, mi, tid in pairs:
        if mi in taken:
            continue
        taken.add(mi)
        assigned.setdefault(tid, []).append(measurements[mi])
    births = [m for i, m in enumerate(measurements) if i not in taken]
    return assigned, births


def fuse_tick(prev: LdmState, now: float, delivered_v2x, active_map: MapVersion,
              frames) -> LdmState:
    """One fusion step over this tick's sensor frames and V2X deliveries.

    Every detection of `frames` and every message of `delivered_v2x` is
    fused here and nowhere else; the frames' coverage is this tick's
    absence evidence.
    """
    tracks: list[Track] = prev.objects

    measurements: list[Measurement] = []
    for frame in frames:
        for det in frame.detections:
            measurements.append(Measurement(
                position=det.world_position, velocity=det.world_velocity,
                confidence=det.confidence, source="sensor"))
    denms = []
    for msg in delivered_v2x:
        if msg.msg_kind == CAM:
            measurements.append(Measurement(
                position=tuple(msg.payload.position),
                velocity=tuple(msg.payload.velocity),
                confidence=1.0, source=f"cam:{msg.station_id}"))
        elif msg.msg_kind == DENM:
            denms.append(msg)

    # each track's prediction to now, made once: association, the update
    # and (for a track nothing updated) the coverage test all use it
    predicted = {tr.track_id: tr.predicted(now) for tr in tracks}
    assigned, births = associate(measurements, predicted, D_GATE)

    kept: list[Track] = []
    for tr in tracks:
        ms = assigned.get(tr.track_id, ())
        sources = {m.source for m in ms}

        at = predicted[tr.track_id]
        if ms:
            mx = sum(m.position[0] for m in ms) / len(ms)
            my = sum(m.position[1] for m in ms) / len(ms)
            px, py = at
            tr.position = (px + POSITION_ALPHA * (mx - px), py + POSITION_ALPHA * (my - py))
            vx = sum(m.velocity[0] for m in ms) / len(ms)
            vy = sum(m.velocity[1] for m in ms) / len(ms)
            tr.velocity = (tr.velocity[0] + VELOCITY_ALPHA * (vx - tr.velocity[0]),
                           tr.velocity[1] + VELOCITY_ALPHA * (vy - tr.velocity[1]))
            tr.last_update = now
            at = tr.predicted(now)

        if "sensor" in sources:
            lr_sensor = LR_DETECT
        elif any(f.covers(at) for f in frames):
            lr_sensor = LR_ABSENT
        else:
            lr_sensor = 1.0
        n_stations = sum(s.startswith("cam:") for s in sources)
        tr.belief = update_belief(tr.belief, lr_sensor, n_stations)

        if tr.belief < B_PRUNE:
            continue
        if now - tr.last_update > TAU_STALE:
            continue
        kept.append(tr)

    born = prev.tracks_born
    for m in births:
        if m.confidence < CONF_BIRTH:
            continue
        born += 1
        kept.append(Track(track_id=f"T{born}", position=m.position, velocity=m.velocity,
                          belief=B_BIRTH, last_update=now))

    events = prev.events
    for msg in denms:
        ingest_denm(msg, events)
    for hyp in events:
        if hyp.status == PENDING and now - hyp.first_seen > TAU_EVENT:
            hyp.status = EXPIRED

    return LdmState(stamp=now, objects=kept, events=events, active_map=active_map,
                    tracks_born=born)
