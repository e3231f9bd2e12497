"""Kinematic bicycle model with actuator limits.

Forward Euler at the simulation step; position and heading advance with the
speed held at the start of the tick, then speed integrates the longitudinal
command. Deterministic: no hidden state, no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .world import check_range, wrap_angle


@dataclass(frozen=True)
class VehicleParams:
    wheelbase: float = 2.7            # [m]
    max_steer: float = math.radians(35.0)  # [rad]
    max_accel: float = 3.0            # [m/s^2] full throttle
    max_decel: float = 6.0            # [m/s^2] full brake
    collision_radius: float = 1.0     # [m]
    v_max: float = 15.0               # [m/s]

    def __post_init__(self):
        # the bicycle model divides by the wheelbase, and tan(max_steer) is
        # the tightest curvature's numerator
        check_range(self, ("wheelbase",), strict=True)
        check_range(self, ("max_steer",), hi=math.pi / 2.0, strict=True)
        check_range(self, ("max_accel", "max_decel", "collision_radius", "v_max"))


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


def max_curvature(params: VehicleParams) -> float:
    """Tightest drivable curvature, tan(max_steer) / wheelbase."""
    return math.tan(params.max_steer) / params.wheelbase


def step(state: VehicleState, cmd, params: VehicleParams, dt: float) -> VehicleState:
    """Advance one tick under a command with steering/throttle/brake fields."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    for name, value in (("x", state.x), ("y", state.y),
                        ("heading", state.heading), ("speed", state.speed)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite state component {name}")

    steering = min(max(float(cmd.steering), -params.max_steer), params.max_steer)
    throttle = min(max(float(cmd.throttle), 0.0), 1.0)
    brake = min(max(float(cmd.brake), 0.0), 1.0)

    v = state.speed
    x = state.x + v * math.cos(state.heading) * dt
    y = state.y + v * math.sin(state.heading) * dt
    heading = wrap_angle(state.heading + (v / params.wheelbase) * math.tan(steering) * dt)

    accel = throttle * params.max_accel - brake * params.max_decel
    v_next = min(max(v + accel * dt, 0.0), params.v_max)

    return VehicleState(x=x, y=y, heading=heading, speed=v_next,
                        steering=steering, throttle=throttle, brake=brake)
