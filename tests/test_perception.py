"""Sensing: noisy detections, coverage discs, and the corroboration score."""

import math

import numpy as np
import pytest

from v2xloop.perception import (NEUTRAL_LIKELIHOOD, Detection, SenseFrame,
                                SensorModel, sense, sensor_likelihood)
from v2xloop.rng import stream
from v2xloop.world import WorldObject


def _frame(timestamp=0.0, ego=(0.0, 0.0, 0.0), detections=(), max_range=25.0):
    return SenseFrame(timestamp=timestamp, ego_pose=ego,
                      detections=tuple(detections), max_range=max_range)


def _det(wx, wy):
    return Detection(confidence=0.9, world_position=(wx, wy),
                     world_velocity=(0.0, 0.0))


# ---------------------------------------------------------------------------
# coverage


def test_covers_range_limit():
    f = _frame(max_range=10.0)
    assert f.covers((9.9, 0.0))
    assert not f.covers((10.1, 0.0))
    # the covered disc does not turn with the heading: behind is covered too
    for heading in (0.0, math.pi / 2, math.pi):
        f = _frame(ego=(1.0, 2.0, heading), max_range=10.0)
        assert f.covers((-8.9, 2.0)) and f.covers((1.0, 11.9))
        assert not f.covers((-9.1, 2.0))


# ---------------------------------------------------------------------------
# sense()


def test_sense_is_deterministic_per_stream():
    objs = [WorldObject("a", (5.0, 1.0), (1.0, 0.0)),
            WorldObject("b", (8.0, -2.0), (0.0, 0.0))]
    model = SensorModel()
    f1 = sense((0.0, 0.0, 0.0), objs, model, stream(7, "sense"), 0.0)
    f2 = sense((0.0, 0.0, 0.0), objs, model, stream(7, "sense"), 0.0)
    assert f1 == f2
    f3 = sense((0.0, 0.0, 0.0), objs, model, stream(8, "sense"), 0.0)
    assert f1 != f3   # different seed, different noise


def test_sense_filters_by_range():
    objs = [WorldObject("near", (5.0, 0.0), (0.0, 0.0)),
            WorldObject("far", (60.0, 0.0), (0.0, 0.0))]
    model = SensorModel(max_range=20.0, p_miss=0.0, clutter_rate=0.0)
    frame = sense((0.0, 0.0, 0.0), objs, model, stream(1, "sense"), 0.0)
    assert len(frame.detections) == 1
    d = frame.detections[0]
    assert math.hypot(d.world_position[0] - 5.0, d.world_position[1]) < 3.0


def test_sense_noise_statistics():
    """Position noise should match the configured sigma over many draws."""
    objs = [WorldObject("a", (10.0, 0.0), (0.0, 0.0))]
    model = SensorModel(pos_noise_sigma=0.5, p_miss=0.0, clutter_rate=0.0)
    rng = stream(3, "sense")
    xs = []
    for k in range(2000):
        frame = sense((0.0, 0.0, 0.0), objs, model, rng, k * 0.05)
        xs.append(frame.detections[0].world_position[0] - 10.0)
    assert abs(float(np.mean(xs))) < 0.05
    assert float(np.std(xs)) == pytest.approx(0.5, rel=0.1)


def test_sense_miss_rate():
    objs = [WorldObject("a", (10.0, 0.0), (0.0, 0.0))]
    model = SensorModel(p_miss=0.3, clutter_rate=0.0)
    rng = stream(4, "sense")
    hits = sum(
        1 for k in range(2000)
        if sense((0.0, 0.0, 0.0), objs, model, rng, k * 0.05).detections)
    assert hits / 2000 == pytest.approx(0.7, abs=0.03)


def test_sense_clutter_rate_and_bounds():
    model = SensorModel(max_range=15.0, clutter_rate=0.5)
    rng = stream(5, "sense")
    count = 0
    for k in range(2000):
        frame = sense((0.0, 0.0, 0.0), [], model, rng, k * 0.05)
        for det in frame.detections:
            assert 0.1 <= det.confidence < 0.6     # clutter's confidence band
            assert math.hypot(*det.world_position) <= 15.0 + 1e-9
            count += 1
    assert count / 2000 == pytest.approx(0.5, abs=0.06)


def test_sense_ego_frame_conversion():
    objs = [WorldObject("a", (0.0, 10.0), (0.0, 0.0))]
    model = SensorModel(pos_noise_sigma=0.0, vel_noise_sigma=0.0, p_miss=0.0,
                        clutter_rate=0.0)
    # ego facing +y: the object sits straight ahead in the body frame and is
    # detected at its world position
    frame = sense((0.0, 0.0, math.pi / 2), objs, model, stream(6, "sense"), 0.0)
    (d,) = frame.detections
    assert d.world_position == (0.0, 10.0)
    # facing -y, the same object is behind the ego, still in range, and is
    # detected at the same world position
    behind = sense((0.0, 0.0, -math.pi / 2), objs, model, stream(6, "sense"), 0.0)
    assert behind.detections == frame.detections


# ---------------------------------------------------------------------------
# sensor_likelihood


def test_likelihood_counts_supporting_fraction():
    event = (10.0, 0.0)
    frames = [
        _frame(timestamp=0.0, detections=[_det(10.2, 0.1)]),
        _frame(timestamp=0.1, detections=[]),
        _frame(timestamp=0.2, detections=[_det(9.8, -0.2)]),
        _frame(timestamp=0.3, detections=[_det(50.0, 0.0)]),  # unrelated
    ]
    lik = sensor_likelihood(event, frames, support_radius=3.0)
    assert lik == pytest.approx(2.0 / 4.0)


def test_likelihood_neutral_when_uncovered():
    event = (100.0, 0.0)   # beyond max_range of every frame
    frames = [_frame(timestamp=0.0), _frame(timestamp=0.1)]
    assert sensor_likelihood(event, frames, 3.0) == 0.5
    assert NEUTRAL_LIKELIHOOD == 0.5


def test_likelihood_full_support():
    event = (10.0, 0.0)
    frames = [_frame(timestamp=k * 0.1, detections=[_det(10.0, 0.5)])
              for k in range(5)]
    assert sensor_likelihood(event, frames, 3.0) == 1.0
