"""Kinematic bicycle model: turning geometry, actuator limits, state safety."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from v2xloop.control import ControlCommand
from v2xloop.vehicle import (MAX_ACCEL, MAX_CURVATURE, MAX_DECEL, MAX_STEER, V_MAX,
                             WHEELBASE, VehicleState, step)


def _cmd(steering=0.0, throttle=0.0, brake=0.0):
    return ControlCommand(steering=steering, throttle=throttle, brake=brake)


def _state(x=0.0, y=0.0, heading=0.0, speed=0.0):
    return VehicleState(x=x, y=y, heading=heading, speed=speed)


def test_max_curvature_matches_geometry():
    # kappa_max = tan(delta_max) / L
    assert MAX_CURVATURE == pytest.approx(math.tan(MAX_STEER) / WHEELBASE)


def test_constant_steer_traces_circle_radius():
    """At fixed steering the model must trace R = L / tan(delta) within 1%."""
    delta = math.radians(20.0)
    expected_r = WHEELBASE / math.tan(delta)
    speed, dt = 5.0, 0.01
    s = _state(speed=speed)
    xs, ys = [], []
    n = int(2 * math.pi * expected_r / speed / dt) + 10
    for _ in range(n):
        s = step(s, _cmd(steering=delta), dt)
        s = VehicleState(x=s.x, y=s.y, heading=s.heading, speed=speed,
                         steering=s.steering)  # hold speed, pure turn
        xs.append(s.x)
        ys.append(s.y)
    cx = sum(xs) / len(xs)
    cy = sum(ys) / len(ys)
    radii = [math.hypot(x - cx, y - cy) for x, y in zip(xs, ys)]
    mean_r = sum(radii) / len(radii)
    assert mean_r == pytest.approx(expected_r, rel=0.01)
    # forward Euler spirals outward by about (w*dt)^2/2 per step, ~2% per lap
    assert max(radii) - min(radii) < 0.03 * expected_r


def test_straight_line_integration():
    s = _state(speed=10.0)
    for _ in range(20):
        s = step(s, _cmd(), dt=0.05)
    assert s.x == pytest.approx(10.0)
    assert s.y == pytest.approx(0.0)
    assert s.speed == pytest.approx(10.0)


def test_throttle_and_brake_accelerations():
    s = step(_state(speed=5.0), _cmd(throttle=1.0), dt=1.0)
    assert s.speed == pytest.approx(5.0 + MAX_ACCEL)
    s = step(_state(speed=5.0), _cmd(brake=0.5), dt=0.5)
    assert s.speed == pytest.approx(5.0 - 0.5 * MAX_DECEL * 0.5)


def test_speed_clamped_to_limits():
    s = step(_state(speed=V_MAX), _cmd(throttle=1.0), dt=5.0)
    assert s.speed == V_MAX
    s = step(_state(speed=0.3), _cmd(brake=1.0), dt=1.0)
    assert s.speed == 0.0


def test_steering_clamped_to_max():
    start = _state(speed=5.0)
    clamped = step(start, _cmd(steering=2.0), dt=0.05)
    legal = step(start, _cmd(steering=MAX_STEER), dt=0.05)
    assert clamped.heading == pytest.approx(legal.heading)
    assert clamped.steering == pytest.approx(MAX_STEER)


def test_commands_clamped_to_unit_range():
    s = step(_state(speed=5.0), _cmd(throttle=7.0, brake=-3.0), dt=0.1)
    assert s.throttle == 1.0
    assert s.brake == 0.0


def test_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        step(_state(), _cmd(), dt=0.0)
    with pytest.raises(ValueError):
        step(VehicleState(x=float("nan"), y=0.0, heading=0.0, speed=0.0),
             _cmd(), dt=0.05)


def test_pose_and_position_accessors():
    s = _state(x=1.0, y=2.0, heading=0.5, speed=3.0)
    assert s.position == (1.0, 2.0)
    assert s.pose == (1.0, 2.0, 0.5)


@settings(max_examples=200, deadline=None)
@given(speed=st.floats(0.0, 15.0),
       steer=st.floats(-2.0, 2.0),
       throttle=st.floats(-1.0, 2.0),
       brake=st.floats(-1.0, 2.0),
       dt=st.floats(0.001, 0.2))
def test_step_invariants(speed, steer, throttle, brake, dt):
    s = step(_state(speed=speed), _cmd(steer, throttle, brake), dt)
    assert 0.0 <= s.speed <= V_MAX
    assert -math.pi - 1e-12 <= s.heading < math.pi + 1e-12
    assert abs(s.steering) <= MAX_STEER
    assert 0.0 <= s.throttle <= 1.0
    assert 0.0 <= s.brake <= 1.0
    assert math.isfinite(s.x) and math.isfinite(s.y)
    # displacement bounded by the speed at the start of the tick
    assert math.hypot(s.x, s.y) <= speed * dt + 1e-9
