"""Pure Pursuit steering and the longitudinal PID loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v2xloop.control import (INTEGRAL_CLAMP, K_I, ControlCommand, ControllerConfig,
                             PidState, follow_tick, pid_longitudinal, pure_pursuit,
                             safety_stop_command)
from v2xloop.planner import Trajectory
from v2xloop.vehicle import MAX_STEER, WHEELBASE, VehicleState, step

CFG = ControllerConfig()


def _traj_from_path(path, speed=8.0):
    path = np.asarray(path, dtype=float)
    d = np.diff(path, axis=0)
    headings = np.arctan2(d[:, 1], d[:, 0])
    headings = np.append(headings, headings[-1])
    poses = np.column_stack([path, headings])
    return Trajectory(poses=poses, target_speeds=np.full(len(path), speed),
                      planned_on_version=0, planned_at=0.0)


def _steer(pose, traj, look_ahead):
    """Pure Pursuit from the pose's projection, as follow_tick calls it."""
    return pure_pursuit(pose, traj, look_ahead, traj.project(pose[:2]))


def _circle_traj(radius, n=200):
    ang = np.linspace(0.0, 2 * math.pi, n)
    return _traj_from_path(np.column_stack([radius * np.cos(ang),
                                            radius * np.sin(ang)]), speed=5.0)


def test_look_ahead_scales_with_speed():
    assert CFG.look_ahead(0.0) == CFG.look_ahead_min
    assert CFG.look_ahead(5.0) == pytest.approx(3.0)
    assert CFG.look_ahead(100.0) == CFG.look_ahead_max


def test_pure_pursuit_straight_path_zero_steer():
    traj = _traj_from_path([[0.0, 0.0], [50.0, 0.0]])
    assert _steer((5.0, 0.0, 0.0), traj, 4.0) == pytest.approx(0.0)


def test_pure_pursuit_steers_toward_offset_path():
    traj = _traj_from_path([[0.0, 2.0], [50.0, 2.0]])
    left = _steer((5.0, 0.0, 0.0), traj, 4.0)
    assert left > 0.0
    traj_r = _traj_from_path([[0.0, -2.0], [50.0, -2.0]])
    assert _steer((5.0, 0.0, 0.0), traj_r, 4.0) == pytest.approx(-left)


def test_pure_pursuit_circle_matches_geometry():
    """On a circle the converged steering must be near atan(L/R) (within 5%)."""
    radius = 20.0
    traj = _circle_traj(radius)
    expected = math.atan(WHEELBASE / radius)
    # place the ego on the circle, tangent heading, and read the command
    s = VehicleState(x=radius, y=0.0, heading=math.pi / 2, speed=5.0)
    dt = 0.02
    last = 0.0
    for _ in range(400):
        steer = _steer(s.pose, traj, 3.0)
        s = step(s, ControlCommand(steering=steer, throttle=0.0, brake=0.0), dt)
        s = VehicleState(x=s.x, y=s.y, heading=s.heading, speed=5.0,
                         steering=s.steering)
        last = steer
    assert last == pytest.approx(expected, rel=0.05)
    # and the vehicle stayed near the circle while converging
    assert math.hypot(s.x, s.y) == pytest.approx(radius, rel=0.05)


def test_pure_pursuit_chases_final_pose_past_end():
    traj = _traj_from_path([[0.0, 0.0], [10.0, 0.0]])
    # ego beyond the goal, pointing away: command saturates back toward it
    steer = _steer((12.0, 1.0, 0.0), traj, 4.0)
    assert abs(steer) <= MAX_STEER
    assert steer != 0.0


def test_pid_proportional_only_first_step():
    u, st1 = pid_longitudinal(1.0, PidState(), CFG, dt=0.05)
    # first step: no derivative kick, integral contributes one dt
    expected = CFG.k_p * 1.0 + K_I * (1.0 * 0.05)
    assert u == pytest.approx(expected)
    assert st1.initialized
    assert st1.prev_error == 1.0


def test_pid_output_clamped_and_antiwindup():
    state = PidState()
    # large persistent error: output saturates at 1, integral must not run away
    for _ in range(200):
        u, state = pid_longitudinal(10.0, state, CFG, dt=0.05)
    assert u == 1.0
    first_integral = state.integral
    for _ in range(200):
        u, state = pid_longitudinal(10.0, state, CFG, dt=0.05)
    # conditional integration freezes the integral while saturated
    assert state.integral == pytest.approx(first_integral)
    assert abs(state.integral) <= INTEGRAL_CLAMP


@settings(max_examples=150, deadline=None)
@given(errors=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=60))
def test_pid_integral_never_exceeds_clamp(errors):
    state = PidState()
    for e in errors:
        u, state = pid_longitudinal(e, state, CFG, dt=0.05)
        assert -1.0 <= u <= 1.0
        assert abs(state.integral) <= INTEGRAL_CLAMP + 1e-12


def test_closed_loop_straight_tracking_rmse():
    """Full follow_tick loop on a straight line: lateral RMSE below 5 cm."""
    traj = _traj_from_path([[0.0, 0.0], [120.0, 0.0]], speed=8.0)
    s = VehicleState(x=0.0, y=0.3, heading=0.05, speed=8.0)  # small offset
    pid = PidState()
    dt = 0.05
    lateral = []
    for _ in range(250):
        cmd, pid, _ = follow_tick(s, traj, traj.project(s.position), CFG, pid, dt)
        s = step(s, cmd, dt)
        if s.x > 20.0:   # skip the initial transient
            lateral.append(s.y)
        if s.x > 110.0:
            break
    rmse = math.sqrt(sum(v * v for v in lateral) / len(lateral))
    assert rmse < 0.05


def test_follow_tick_splits_throttle_and_brake():
    traj = _traj_from_path([[0.0, 0.0], [50.0, 0.0]], speed=8.0)
    slow = VehicleState(x=1.0, y=0.0, heading=0.0, speed=2.0)
    cmd, _, target = follow_tick(slow, traj, traj.project(slow.position), CFG,
                                 PidState(), 0.05)
    assert target == 8.0
    assert cmd.throttle > 0.0 and cmd.brake == 0.0
    fast = VehicleState(x=1.0, y=0.0, heading=0.0, speed=14.0)
    cmd, _, _ = follow_tick(fast, traj, traj.project(fast.position), CFG,
                            PidState(), 0.05)
    assert cmd.brake > 0.0 and cmd.throttle == 0.0


def test_safety_stop_ramps_to_full_brake():
    brake = 0.0
    values = []
    for _ in range(8):
        cmd = safety_stop_command(brake, dt=0.1)
        assert cmd.throttle == 0.0 and cmd.steering == 0.0
        assert cmd.brake >= brake    # monotone ramp
        brake = cmd.brake
        values.append(brake)
    assert values[4] == pytest.approx(1.0)   # full brake after SAFETY_STOP_RAMP
    assert values[-1] == 1.0
