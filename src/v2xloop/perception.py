"""Abstract onboard sensor: range-gated detections with misses and clutter.

There is no ray casting; the sensor sees all round, so an object within
`max_range` of the ego is detected unless a miss is drawn. Detections are in
world coordinates, resolved with the ego pose at sensing time, which is what
fusion and the veto consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import uniform
from .world import check_range


@dataclass(frozen=True)
class SensorModel:
    max_range: float = 25.0           # [m] the radius of the covered disc
    pos_noise_sigma: float = 0.5      # [m]
    vel_noise_sigma: float = 0.3      # [m/s]
    p_miss: float = 0.15              # per object per frame
    clutter_rate: float = 0.3         # Poisson mean false detections per frame

    def __post_init__(self):
        check_range(self, ("p_miss",), hi=1.0)
        check_range(self, ("max_range", "pos_noise_sigma", "vel_noise_sigma",
                           "clutter_rate"))
        # every false detection is drawn, fused and may seed a track
        check_range(self, ("clutter_rate",), hi=100.0)


@dataclass(frozen=True)
class Detection:
    confidence: float                 # [0, 1]
    world_position: tuple[float, float]   # [m]
    world_velocity: tuple[float, float]   # [m/s]


@dataclass(frozen=True)
class SenseFrame:
    """One sensing sweep: the detections plus the coverage that produced them."""

    timestamp: float
    ego_pose: tuple[float, float, float]
    detections: tuple[Detection, ...]
    max_range: float

    def covers(self, point) -> bool:
        """Whether `point` lies within `max_range` of the ego."""
        return math.hypot(point[0] - self.ego_pose[0],
                          point[1] - self.ego_pose[1]) <= self.max_range


def sense(ego_pose, truth_objects, model: SensorModel, rng: np.random.Generator,
          timestamp: float) -> SenseFrame:
    """Produce one frame of detections for the visible subset of `truth_objects`.

    Objects are visited in id order so the draw sequence is reproducible.
    """
    ex, ey, eh = ego_pose
    detections: list[Detection] = []

    for obj in sorted(truth_objects, key=lambda o: o.object_id):
        if math.hypot(obj.position[0] - ex, obj.position[1] - ey) > model.max_range:
            continue
        if rng.random() < model.p_miss:
            continue
        nx, ny = rng.normal(0.0, model.pos_noise_sigma, size=2).tolist()
        nvx, nvy = rng.normal(0.0, model.vel_noise_sigma, size=2).tolist()
        wx, wy = obj.position[0] + nx, obj.position[1] + ny
        wvx, wvy = obj.velocity[0] + nvx, obj.velocity[1] + nvy
        conf = uniform(rng, 0.6, 1.0)
        detections.append(Detection(confidence=conf, world_position=(wx, wy),
                                    world_velocity=(wvx, wvy)))

    n_clutter = int(rng.poisson(model.clutter_rate)) if model.clutter_rate > 0 else 0
    for _ in range(n_clutter):
        # uniform over the covered disc
        r = model.max_range * math.sqrt(rng.random())
        b = uniform(rng, -math.pi, math.pi)
        wx = ex + r * math.cos(eh + b)
        wy = ey + r * math.sin(eh + b)
        conf = uniform(rng, 0.1, 0.6)
        detections.append(Detection(confidence=conf, world_position=(wx, wy),
                                    world_velocity=(0.0, 0.0)))

    return SenseFrame(timestamp=timestamp, ego_pose=tuple(ego_pose),
                      detections=tuple(detections),
                      max_range=model.max_range)


# the likelihood of an event no frame in the window covered
NEUTRAL_LIKELIHOOD = 0.5


def sensor_likelihood(event_position, frames, support_radius: float) -> float:
    """Fraction of the `frames` covering an event location that corroborate
    it. The caller picks the frames: the episode loop keeps those of the last
    `harness.SENSOR_LIKELIHOOD_WINDOW` seconds. With no covering frame the result is
    NEUTRAL_LIKELIHOOD, so an event outside sensor reach is neither vetoed
    nor endorsed.
    """
    covering = 0
    supporting = 0
    for frame in frames:
        if not frame.covers(event_position):
            continue
        covering += 1
        for det in frame.detections:
            ddx = det.world_position[0] - event_position[0]
            ddy = det.world_position[1] - event_position[1]
            if math.hypot(ddx, ddy) <= support_radius:
                supporting += 1
                break
    if covering == 0:
        return NEUTRAL_LIKELIHOOD
    return supporting / covering
