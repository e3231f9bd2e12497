"""Trajectory following: Pure Pursuit steering plus a PID speed loop.

The steering law chases a fixed look-ahead point on the trajectory; the
longitudinal loop tracks the trajectory's target speed profile and maps its
output to mutually exclusive throttle and brake. Integration freezes while
the output is saturated in the direction of the error (conditional
integration), so the integrator cannot wind up against the actuator limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .planner import Trajectory
from .vehicle import MAX_STEER, WHEELBASE
from .world import check_range, wrap_angle

SAFETY_STOP_RAMP = 0.5                # [s] from no brake to full brake in a safety stop
INTEGRAL_CLAMP = 2.0                  # |integral| bound [m/s * s]
K_I = 0.1                             # speed loop's integral gain
K_D = 0.05                            # and its derivative gain


@dataclass(frozen=True)
class ControllerConfig:
    look_ahead_gain: float = 0.6      # [s] carrot distance per unit speed
    look_ahead_min: float = 2.0       # [m] keeps slow passes from corner cutting
    look_ahead_max: float = 6.0       # [m] keeps fast tracking from oscillating
    k_p: float = 0.6                  # speed loop's proportional gain

    def __post_init__(self):
        # pure pursuit divides by the look-ahead
        check_range(self, ("look_ahead_min", "look_ahead_max"), strict=True)
        if self.look_ahead_min > self.look_ahead_max:
            raise ValueError(f"look_ahead_min: must not exceed look_ahead_max="
                             f"{self.look_ahead_max}, got {self.look_ahead_min}")

    def look_ahead(self, speed: float) -> float:
        return min(self.look_ahead_max,
                   max(self.look_ahead_min, self.look_ahead_gain * speed))


@dataclass(frozen=True)
class ControlCommand:
    steering: float                   # [rad]
    throttle: float                   # [0, 1]
    brake: float                      # [0, 1]


@dataclass(frozen=True)
class PidState:
    integral: float = 0.0
    prev_error: float = 0.0
    initialized: bool = False


def pure_pursuit(pose, traj: Trajectory, look_ahead: float, s_ego: float) -> float:
    """Steering toward the point look_ahead meters down the trajectory.

    Curvature command is 2 sin(alpha) / L_a with alpha the bearing of the
    target in the body frame; past the trajectory end the final pose is
    chased instead. `s_ego` is the pose's arc length along the trajectory.
    """
    x, y, heading = float(pose[0]), float(pose[1]), float(pose[2])
    target = traj.point_at(min(s_ego + look_ahead, traj.length))
    alpha = wrap_angle(math.atan2(target[1] - y, target[0] - x) - heading)
    kappa = 2.0 * math.sin(alpha) / look_ahead
    steer = math.atan(kappa * WHEELBASE)
    return min(max(steer, -MAX_STEER), MAX_STEER)


def pid_longitudinal(error: float, state: PidState, cfg: ControllerConfig,
                     dt: float) -> tuple[float, PidState]:
    """One PID step on speed error; returns (command in [-1, 1], new state).

    Positive commands mean throttle, negative brake. The integral term only
    accumulates when doing so can still move the output, i.e. not while
    saturated in the error's direction.
    """
    derivative = 0.0 if not state.initialized else (error - state.prev_error) / dt
    u_tentative = cfg.k_p * error + K_I * state.integral + K_D * derivative

    integral = state.integral
    saturated_up = u_tentative >= 1.0 and error > 0.0
    saturated_down = u_tentative <= -1.0 and error < 0.0
    if not (saturated_up or saturated_down):
        integral = min(max(integral + error * dt, -INTEGRAL_CLAMP), INTEGRAL_CLAMP)

    u = cfg.k_p * error + K_I * integral + K_D * derivative
    u = min(max(u, -1.0), 1.0)
    return u, PidState(integral=integral, prev_error=error, initialized=True)


def follow_tick(ego_state, traj: Trajectory, s_plan: float, cfg: ControllerConfig,
                pid_state: PidState, dt: float) -> tuple[ControlCommand, PidState, float]:
    """Compute the tick's command from `s_plan`, the ego's arc length along
    `traj`; returns (command, pid_state, target_speed)."""
    target_speed = traj.speed_at(s_plan)
    steering = pure_pursuit(ego_state.pose, traj,
                            cfg.look_ahead(ego_state.speed), s_ego=s_plan)
    u, pid_next = pid_longitudinal(target_speed - ego_state.speed, pid_state,
                                   cfg, dt)
    if u >= 0.0:
        cmd = ControlCommand(steering=steering, throttle=u, brake=0.0)
    else:
        cmd = ControlCommand(steering=steering, throttle=0.0, brake=-u)
    return cmd, pid_next, target_speed


def safety_stop_command(prev_brake: float, dt: float) -> ControlCommand:
    """Straight-line braking ramp to full brake within SAFETY_STOP_RAMP."""
    brake = min(1.0, prev_brake + dt / max(SAFETY_STOP_RAMP, dt))
    return ControlCommand(steering=0.0, throttle=0.0, brake=brake)
