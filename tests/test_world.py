"""Geometry, occupancy grids, versioned maps, and the update channel."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from v2xloop.world import (LaneSegment, MapVersion, OccupancyGrid, Route,
                           build_corridor_map, empty_grid,
                           heading_along_polyline, inflate, mark_disk,
                           planning_occupancy, point_along_polyline,
                           poll_update, polyline_cumlength,
                           project_to_polyline, publish_version,
                           stamp_polyline, wrap_angle, UpdateServerState)


# ---------------------------------------------------------------------------
# angles and polylines


def test_wrap_angle_known_values():
    # convention: output in [-pi, pi), so odd multiples of pi map to -pi
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi / 2) == pytest.approx(math.pi / 2)
    assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(-3 * math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(-1000.0, 1000.0))
def test_wrap_angle_range_and_equivalence(a):
    w = wrap_angle(a)
    assert -math.pi - 1e-12 <= w < math.pi + 1e-12
    # same direction on the unit circle
    assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
    assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


def test_polyline_cumlength():
    path = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 10.0]])
    cl = polyline_cumlength(path)
    assert cl.tolist() == [0.0, 5.0, 11.0]


def test_project_to_polyline_on_and_off_segment():
    path = np.array([[0.0, 0.0], [10.0, 0.0]])
    s, d, i = project_to_polyline((4.0, 3.0), path)
    assert s == pytest.approx(4.0)
    assert d == pytest.approx(3.0)
    assert i == 0
    # beyond the end clamps to the endpoint
    s, d, _ = project_to_polyline((13.0, 0.0), path)
    assert s == pytest.approx(10.0)
    assert d == pytest.approx(3.0)
    # right of the travel direction is negative
    s, d, _ = project_to_polyline((5.0, -2.0), path)
    assert s == pytest.approx(5.0)
    assert d == pytest.approx(-2.0)


def test_point_and_heading_along_polyline():
    path = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
    p = point_along_polyline(path, 12.0)
    assert p.tolist() == pytest.approx([10.0, 2.0])
    assert heading_along_polyline(path, 2.0) == pytest.approx(0.0)
    assert heading_along_polyline(path, 12.0) == pytest.approx(math.pi / 2)
    # arc length clamps at both ends
    assert point_along_polyline(path, -5.0).tolist() == pytest.approx([0.0, 0.0])
    assert point_along_polyline(path, 99.0).tolist() == pytest.approx([10.0, 10.0])


# ---------------------------------------------------------------------------
# occupancy grids


def test_grid_indexing_and_bounds():
    g = empty_grid(10.0, 5.0, cell_size=0.5)
    assert g.shape == (10, 20)
    assert g.index_of(0.0, 0.0) == (0, 0)
    assert g.index_of(9.99, 4.99) == (19, 9)
    assert g.in_bounds(19, 9)
    assert not g.in_bounds(20, 0)
    assert not g.occupied_at(5.0, 2.5)
    # out of bounds reads as wall
    assert g.occupied_at(-1.0, 0.0)
    assert g.occupied_at(10.5, 0.0)


def test_grid_rejects_bad_cell_size():
    with pytest.raises(ValueError):
        OccupancyGrid(cells=np.zeros((2, 2), dtype=bool), cell_size=0.0)


def test_mark_disk_cells_within_radius():
    g = empty_grid(10.0, 10.0, cell_size=0.5)
    mark_disk(g.cells, g, (5.0, 5.0), 1.0)
    assert g.occupied_at(5.0, 5.0)
    assert g.occupied_at(5.7, 5.0)
    assert not g.occupied_at(7.0, 5.0)
    # cell-center test: a cell whose center is just outside stays free
    assert not g.occupied_at(5.0, 6.3)


def test_stamp_polyline_covers_full_band():
    g = empty_grid(20.0, 10.0, cell_size=0.5)
    line = np.array([[2.0, 5.0], [18.0, 5.0]])
    stamp_polyline(g.cells, g, line, radius=1.5)
    for x in np.arange(2.0, 18.0, 0.5):
        assert g.occupied_at(x, 5.0)
        assert g.occupied_at(x, 6.2)
        assert not g.occupied_at(x, 7.5)


def test_inflate_grows_by_metric_radius():
    g = empty_grid(20.0, 20.0, cell_size=0.5)
    mark_disk(g.cells, g, (10.0, 10.0), 0.4)   # single cell
    grown = inflate(g, 2.0)
    assert grown.occupied_at(11.9, 10.0)
    assert not grown.occupied_at(13.0, 10.0)
    # inflation only adds cells
    assert np.all(grown.cells[g.cells])


def test_inflate_zero_radius_is_identity():
    g = empty_grid(5.0, 5.0, cell_size=0.5)
    mark_disk(g.cells, g, (2.0, 2.0), 0.6)
    assert inflate(g, 0.0) is g


# ---------------------------------------------------------------------------
# lane graphs and versions


def _cross_segments(closed_ids=()):
    segs = [
        LaneSegment(segment_id="ew", polyline=np.array([[2.0, 15.0], [28.0, 15.0]]),
                    half_width=2.0, closed="ew" in closed_ids),
        LaneSegment(segment_id="ns", polyline=np.array([[15.0, 2.0], [15.0, 28.0]]),
                    half_width=2.0, closed="ns" in closed_ids),
    ]
    return segs


def test_corridor_map_carves_open_segments():
    ver = build_corridor_map(0, _cross_segments(), 30.0, 30.0)
    occ = ver.occupancy
    assert not occ.occupied_at(10.0, 15.0)
    assert not occ.occupied_at(15.0, 25.0)
    assert occ.occupied_at(5.0, 5.0)     # off-road stays wall


def test_corridor_map_skips_closed_segments():
    ver = build_corridor_map(1, _cross_segments(closed_ids=("ns",)), 30.0, 30.0)
    assert ver.occupancy.occupied_at(15.0, 25.0)
    assert not ver.occupancy.occupied_at(10.0, 15.0)


def test_planning_occupancy_stamps_closures_and_inflates():
    # build with both open, then close ns in the lane graph only
    open_ver = build_corridor_map(0, _cross_segments(), 30.0, 30.0)
    closed_graph = tuple(
        LaneSegment(s.segment_id, s.polyline, s.half_width, closed=(s.segment_id == "ns"))
        for s in open_ver.lane_graph)
    ver = MapVersion(version_id=1, lane_graph=closed_graph,
                     occupancy=open_ver.occupancy)
    planning = planning_occupancy(ver, vehicle_radius=1.0)
    # the closed corridor is wall again for the planner
    assert planning.occupied_at(15.0, 25.0)
    # the open corridor narrows by the vehicle radius but stays passable
    assert not planning.occupied_at(6.0, 15.0)
    assert planning.occupied_at(6.0, 16.6)


def test_map_version_rejects_negative_id():
    g = empty_grid(5.0, 5.0)
    with pytest.raises(ValueError):
        MapVersion(version_id=-1, lane_graph=(), occupancy=g)


def test_route_validates_shape():
    with pytest.raises(ValueError):
        Route(reference_path=np.array([[0.0, 0.0]]), goal_pose=(0.0, 0.0, 0.0))
    r = Route(reference_path=np.array([[0.0, 0.0], [3.0, 4.0]]),
              goal_pose=(3.0, 4.0, 0.0))
    assert r.length == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# update server / client protocol


def _version(vid):
    return build_corridor_map(vid, _cross_segments(), 30.0, 30.0)


def test_publish_version_monotonic():
    server = UpdateServerState()
    server = publish_version(server, _version(0), 0.0)
    server = publish_version(server, _version(1), 4.0)
    assert [v.version_id for _, v in server.published] == [0, 1]
    with pytest.raises(ValueError):
        publish_version(server, _version(1), 5.0)
    with pytest.raises(ValueError):
        publish_version(server, _version(2), 3.0)


def test_poll_update_visibility_and_latency():
    server = publish_version(UpdateServerState(), _version(0), 0.0)
    server = publish_version(server, _version(1), 4.0)

    # before the publish time nothing new is visible
    assert poll_update(2.0, 0, server, 1.1) is None
    got = poll_update(4.0, 0, server, 1.1)
    assert got is not None
    version, activation = got
    assert version.version_id == 1
    assert activation == pytest.approx(5.1)
    # already current
    assert poll_update(6.0, 1, server, 1.1) is None


def test_poll_update_skips_to_newest():
    server = UpdateServerState()
    for vid, t in ((0, 0.0), (1, 1.0), (2, 2.0)):
        server = publish_version(server, _version(vid), t)
    version, _ = poll_update(10.0, 0, server, 0.5)
    assert version.version_id == 2
