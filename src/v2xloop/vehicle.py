"""Kinematic bicycle model with actuator limits.

Forward Euler at the simulation step; position and heading advance with the
speed held at the start of the tick, then speed integrates the longitudinal
command. Deterministic: no hidden state, no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .world import wrap_angle

WHEELBASE = 2.7                       # [m]
MAX_STEER = math.radians(35.0)        # [rad]
MAX_ACCEL = 3.0                       # [m/s^2] full throttle
MAX_DECEL = 6.0                       # [m/s^2] full brake
COLLISION_RADIUS = 1.0                # [m]
V_MAX = 15.0                          # [m/s]
# tightest drivable curvature, tan(MAX_STEER) / WHEELBASE
MAX_CURVATURE = math.tan(MAX_STEER) / WHEELBASE


@dataclass(frozen=True)
class VehicleState:
    x: float
    y: float
    heading: float                    # [rad]
    speed: float                      # [m/s]
    steering: float = 0.0             # [rad] applied at the last step
    throttle: float = 0.0             # [0, 1] applied at the last step
    brake: float = 0.0                # [0, 1] applied at the last step

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)

    @property
    def pose(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.heading)


def step(state: VehicleState, cmd, dt: float) -> VehicleState:
    """Advance one tick under a command with steering/throttle/brake fields."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    for name, value in (("x", state.x), ("y", state.y),
                        ("heading", state.heading), ("speed", state.speed)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite state component {name}")

    steering = min(max(float(cmd.steering), -MAX_STEER), MAX_STEER)
    throttle = min(max(float(cmd.throttle), 0.0), 1.0)
    brake = min(max(float(cmd.brake), 0.0), 1.0)

    v = state.speed
    x = state.x + v * math.cos(state.heading) * dt
    y = state.y + v * math.sin(state.heading) * dt
    heading = wrap_angle(state.heading + (v / WHEELBASE) * math.tan(steering) * dt)

    accel = throttle * MAX_ACCEL - brake * MAX_DECEL
    v_next = min(max(v + accel * dt, 0.0), V_MAX)

    return VehicleState(x=x, y=y, heading=heading, speed=v_next,
                        steering=steering, throttle=throttle, brake=brake)
