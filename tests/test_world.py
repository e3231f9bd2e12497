"""Geometry, occupancy grids, versioned maps, and the update channel."""

import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from grids import corridor_map, occupied_at
from v2xloop import world
from v2xloop.scenarios import SCENARIO_IDS, build_scenario
from v2xloop.v2x import CAM_PERIOD, DENM_PERIOD
from v2xloop.world import (LaneSegment, MapVersion, OccupancyGrid, Polyline,
                           Route, VersionedMap, empty_grid,
                           inflate, mark_disk, planning_occupancy, poll_update,
                           polyline_cumlength, stamp_polyline, wrap_angle)


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
    line = Polyline(path)
    assert line.cumlength.tolist() == [0.0, 5.0, 11.0]
    assert line.length == 11.0


def test_project_to_polyline_on_and_off_segment():
    path = Polyline(np.array([[0.0, 0.0], [10.0, 0.0]]))
    s, d, i = path.project((4.0, 3.0))
    assert s == pytest.approx(4.0)
    assert d == pytest.approx(3.0)
    assert i == 0
    # beyond the end clamps to the endpoint
    s, d, _ = path.project((13.0, 0.0))
    assert s == pytest.approx(10.0)
    assert d == pytest.approx(3.0)
    # right of the travel direction is negative
    s, d, _ = path.project((5.0, -2.0))
    assert s == pytest.approx(5.0)
    assert d == pytest.approx(-2.0)


def test_point_and_heading_along_polyline():
    path = Polyline(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]]))
    assert path.point_at(12.0) == pytest.approx((10.0, 2.0))
    # the heading of the segment under each point's arc length
    _, _, _, heading = path.project_many([(2.0, 1.0), (11.0, 2.0)])
    assert heading.tolist() == pytest.approx([0.0, math.pi / 2])
    # arc length clamps at both ends
    assert path.point_at(-5.0) == (0.0, 0.0)
    assert path.point_at(99.0) == (10.0, 10.0)


@pytest.mark.parametrize("points", [
    [[0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0.0, 1.0], [], "ab",
    [[0.0, "x"], [1.0, 0.0]], [[0.0, 0.0], [1.0]],
], ids=["one-point", "three-columns", "flat", "empty", "string", "non-number",
        "ragged"])
def test_polyline_rejects_other_shapes(points):
    with pytest.raises(ValueError, match="expected an"):
        Polyline(points)


# the free functions the Polyline methods replaced, kept verbatim as the
# oracle: each rebuilt the cumulative length on every call


def _old_project(point, path):
    p = np.asarray(path, dtype=float)
    q = np.asarray(point, dtype=float)[:2]
    a = p[:-1]
    d = p[1:] - a
    len2 = (d * d).sum(axis=1)
    len2_safe = np.where(len2 < 1e-18, 1.0, len2)
    t = np.clip(((q - a) * d).sum(axis=1) / len2_safe, 0.0, 1.0)
    t = np.where(len2 < 1e-18, 0.0, t)
    closest = a + t[:, None] * d
    diff = q - closest
    dist2 = (diff * diff).sum(axis=1)
    i = int(np.argmin(dist2))
    seg_len = math.sqrt(len2[i]) if len2[i] > 1e-18 else 0.0
    cum = polyline_cumlength(p)
    s = float(cum[i] + t[i] * seg_len)
    cross = d[i, 0] * diff[i, 1] - d[i, 1] * diff[i, 0]
    lateral = math.sqrt(float(dist2[i]))
    if cross < 0.0:
        lateral = -lateral
    return s, lateral, i


def _old_heading_along(path, s):
    p = np.asarray(path, dtype=float)
    cum = polyline_cumlength(p)
    s = float(np.clip(s, 0.0, cum[-1]))
    i = int(np.searchsorted(cum, s, side="right")) - 1
    i = min(max(i, 0), len(p) - 2)
    d = p[i + 1] - p[i]
    return math.atan2(d[1], d[0])


_coord = st.floats(-50.0, 50.0, allow_nan=False, width=64)


@st.composite
def _paths(draw):
    """Random paths; some vertices repeat, so segments of zero length occur."""
    pts = draw(st.lists(st.tuples(_coord, _coord), min_size=2, max_size=8))
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=3))
    for i in sorted(repeats, reverse=True):
        pts.insert(i, pts[i])
    return np.array(pts)


@settings(max_examples=300, deadline=None)
@given(path=_paths(), point=st.tuples(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0)),
       s=st.floats(-20.0, 1.2, allow_nan=False))
def test_polyline_methods_match_the_free_functions_bit_for_bit(path, point, s):
    line = Polyline(path)
    assert line.cumlength.tobytes() == polyline_cumlength(path).tobytes()
    # repr tells -0.0 from 0.0, so these compare bit for bit
    assert repr(line.project(point)) == repr(_old_project(point, path))
    # s from before the start to past the end, in units of the length:
    # point_at is np.interp of each coordinate over the arc length
    for at in (s * line.length, s, line.length, 0.0, line.length + 1.0):
        expect = [np.interp(at, line.cumlength, path[:, k]) for k in (0, 1)]
        assert np.array(line.point_at(at)).tobytes() == np.array(expect).tobytes()
    # points beyond both ends
    for q in (path[0] - (7.0, 3.0), path[-1] + (5.0, -2.0)):
        assert repr(line.project(q)) == repr(_old_project(q, path))


_lattice = st.integers(-3, 3).map(float)
_in_cell = st.floats(0.0, 0.5)


@st.composite
def _awkward_paths(draw):
    """Paths that make the nearest segment hard to tell: integer lattices,
    where equidistant segments tie, and paths doubling back inside one
    0.5 m cell; some vertices repeat, so segments of zero length occur."""
    if draw(st.booleans()):
        pts = draw(st.lists(st.tuples(_lattice, _lattice), min_size=2, max_size=12))
    else:
        x0, y0 = draw(_coord), draw(_coord)
        steps = draw(st.lists(st.tuples(_in_cell, _in_cell), min_size=2, max_size=12))
        pts = [(x0 + dx, y0 + dy) for dx, dy in steps]
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=4))
    for i in sorted(repeats, reverse=True):
        pts.insert(i, pts[i])
    return np.array(pts)


@settings(max_examples=500, deadline=None)
@given(path=_awkward_paths(), data=st.data())
def test_pruned_projection_matches_the_global_scan_bit_for_bit(path, data):
    line = Polyline(path)
    on_path = [tuple(p) for p in path] + [tuple(m) for m in (path[:-1] + path[1:]) / 2.0]
    point = data.draw(st.one_of(
        st.sampled_from(on_path),                                   # vertices, midpoints
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),     # mostly far off
        st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
        st.tuples(st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0]))))
    # repr tells -0.0 from 0.0, so this compares bit for bit
    assert repr(line.project(point)) == repr(_old_project(point, path))


@settings(max_examples=300, deadline=None)
@given(path=st.one_of(_paths(), _awkward_paths()), data=st.data())
def test_projection_sequences_on_one_polyline_match_the_global_scan_bit_for_bit(path,
                                                                                data):
    # one Polyline answers every query, so most start from the last full
    # scan: two walkers take turns at random, each stepping a little,
    # standing still, jumping across the path's box, landing on a vertex or
    # a midpoint, or going far off
    line = Polyline(path)
    lo, hi = path.min(axis=0) - 5.0, path.max(axis=0) + 5.0
    on_path = [tuple(p) for p in path] + [tuple(m) for m in (path[:-1] + path[1:]) / 2.0]
    box = st.tuples(st.floats(lo[0], hi[0]), st.floats(lo[1], hi[1]))
    walkers = [data.draw(box), data.draw(box)]
    for _ in range(data.draw(st.integers(1, 40))):
        w = data.draw(st.integers(0, 1))
        x, y = walkers[w]
        walkers[w] = data.draw(st.one_of(
            st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(
                lambda d: (x + d[0], y + d[1])),
            st.just((x, y)), box, st.sampled_from(on_path),
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))))
        # repr tells -0.0 from 0.0, so this compares bit for bit
        assert repr(line.project(walkers[w])) == repr(_old_project(walkers[w], path))


@st.composite
def _u_turns(draw):
    """Paths that run out along a lattice direction and double back over
    themselves, so every point beside the fold is equally near a segment
    of the way out and one of the way back; a zero step repeats vertices."""
    x0, y0 = draw(_coord), draw(_coord)
    dx, dy = draw(_lattice), draw(_lattice)
    out = [(x0 + i * dx, y0 + i * dy) for i in range(draw(st.integers(1, 4)) + 1)]
    return np.array(out + out[-2::-1])


def _batch_bits(line, points) -> list[bytes]:
    s, lateral, index, heading = line.project_many(points)
    return [struct.pack("3dq", *row) for row in zip(s.tolist(), lateral.tolist(),
                                                    heading.tolist(), index.tolist())]


def _scalar_bits(line, points) -> list[bytes]:
    out = []
    for p in points:
        s, lateral, i = line.project(p)
        heading = _old_heading_along(line.points, s)
        out.append(struct.pack("3dq", s, lateral, heading, i))
    return out


@settings(max_examples=300, deadline=None)
@given(path=st.one_of(_paths(), _awkward_paths(), _u_turns()), data=st.data())
def test_project_many_matches_project_and_heading_at_bit_for_bit(path, data):
    # vertices (where two segments meet), midpoints, points on lattice
    # offsets from them (equally near two segments of a lattice path or a
    # fold), far points and signed zeros, in one batch
    line = Polyline(path)
    on_path = [tuple(p) for p in path] + [tuple(m) for m in (path[:-1] + path[1:]) / 2.0]
    beside = st.tuples(st.sampled_from(on_path), _lattice, _lattice).map(
        lambda p: (p[0][0] + p[1], p[0][1] + p[2]))
    points = data.draw(st.lists(st.one_of(
        st.sampled_from(on_path), beside,
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
        st.tuples(st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0]))),
        max_size=30))
    assert _batch_bits(line, np.array(points).reshape(-1, 2)) == _scalar_bits(line, points)


def test_project_many_gives_a_tie_to_the_lower_segment():
    # (5, 1) is 1 m from the way out and from the way back, on the left of
    # the way out: the lower index wins, as in project's scan
    line = Polyline(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 0.0]]))
    s, lateral, index, heading = line.project_many([(5.0, 1.0), (10.0, 0.0)])
    assert index.tolist() == [0, 0] and s.tolist() == [5.0, 10.0]
    assert lateral.tolist() == [1.0, 0.0] and heading.tolist() == [0.0, math.pi]
    assert line.project((5.0, 1.0)) == (5.0, 1.0, 0)


def test_project_many_batches_many_points_and_refuses_a_point_that_is_not_finite():
    line = Polyline(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]]))
    points = np.random.default_rng(1).uniform(-5.0, 15.0, (3 * world.PROJECT_BATCH, 2))
    assert _batch_bits(line, points) == _scalar_bits(line, points)
    assert all(len(a) == 0 for a in line.project_many(np.empty((0, 2))))
    with pytest.raises(ValueError, match="finite points"):
        line.project_many([(0.0, 0.0), (math.nan, 0.0)])


def test_projection_rejects_a_point_that_is_not_finite():
    line = Polyline(np.array([[0.0, 0.0], [10.0, 0.0]]))
    for point in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="finite point"):
            line.project(point)


# ---------------------------------------------------------------------------
# occupancy grids
# ---------------------------------------------------------------------------
# occupancy grids


def test_grid_indexing_and_bounds():
    # anchored at the world origin: cell (iy, ix) covers [ix, ix + 1) x
    # [iy, iy + 1) half metres
    g = empty_grid(10.0, 5.0, cell_size=0.5)
    assert g.cells.shape == (10, 20)
    g.cells[0, 0] = g.cells[9, 19] = True
    assert occupied_at(g, 0.0, 0.0) and occupied_at(g, 0.49, 0.49)
    assert not occupied_at(g, 0.5, 0.0)
    assert occupied_at(g, 9.99, 4.99)
    assert not occupied_at(g, 9.49, 4.99)
    assert not occupied_at(g, 5.0, 2.5)
    # out of bounds reads as wall
    assert occupied_at(g, -1.0, 0.0)
    assert occupied_at(g, 10.5, 0.0)


def test_grid_rejects_bad_cell_size():
    with pytest.raises(ValueError):
        OccupancyGrid(cells=np.zeros((2, 2), dtype=bool), cell_size=0.0)


def test_mark_disk_cells_within_radius():
    g = empty_grid(10.0, 10.0, cell_size=0.5)
    mark_disk(g.cells, g, (5.0, 5.0), 1.0)
    assert occupied_at(g, 5.0, 5.0)
    assert occupied_at(g, 5.7, 5.0)
    assert not occupied_at(g, 7.0, 5.0)
    # cell-center test: a cell whose center is just outside stays free
    assert not occupied_at(g, 5.0, 6.3)


@settings(max_examples=60, deadline=None)
@given(cx=st.floats(-2.0, 12.0), cy=st.floats(-2.0, 12.0),
       radius=st.floats(0.05, 4.0))
def test_mark_disk_touching_blocks_each_cell_the_disk_reaches(cx, cy, radius):
    centred = empty_grid(10.0, 10.0, cell_size=0.5)
    mark_disk(centred.cells, centred, (cx, cy), radius)
    g = empty_grid(10.0, 10.0, cell_size=0.5)
    mark_disk(g.cells, g, (cx, cy), radius, touching=True)
    assert np.all(g.cells[centred.cells])
    # each cell's nearest point to the center, as the center clamped
    # into the cell's square
    iy, ix = np.indices(g.cells.shape)
    near_x = np.clip(cx, ix * 0.5, (ix + 1) * 0.5)
    near_y = np.clip(cy, iy * 0.5, (iy + 1) * 0.5)
    gap = np.hypot(near_x - cx, near_y - cy)
    clear = np.abs(gap - radius) > 1e-9     # leave rounding at the rim out
    assert np.array_equal(g.cells[clear], (gap < radius)[clear])


def test_stamp_polyline_covers_full_band():
    g = empty_grid(20.0, 10.0, cell_size=0.5)
    line = np.array([[2.0, 5.0], [18.0, 5.0]])
    stamp_polyline(g.cells, g, line, radius=1.5)
    for x in np.arange(2.0, 18.0, 0.5):
        assert occupied_at(g, x, 5.0)
        assert occupied_at(g, x, 6.2)
        assert not occupied_at(g, x, 7.5)


def _mark_disk_on_every_cell(cells, grid, center, radius, value):
    """mark_disk without its box: every cell of the grid whose center lies
    within radius, tested with the same arithmetic."""
    cs = grid.cell_size
    cx, cy, r = center[0] / cs, center[1] / cs, radius / cs
    iy, ix = np.indices(cells.shape)
    cells[(ix + 0.5 - cx) ** 2 + (iy + 0.5 - cy) ** 2 <= r * r] = value


def _stamp_polyline_sampling_every_sample(cells, grid, polyline, radius,
                                          value=True):
    """stamp_polyline without its batching: a disk at every sample of every
    segment, each marked on its own. stamp_polyline must mark exactly its
    cells."""
    p = np.asarray(polyline, dtype=float)
    step = grid.cell_size * 0.5
    for i in range(len(p) - 1):
        a, b = p[i], p[i + 1]
        seg = math.hypot(b[0] - a[0], b[1] - a[1])
        n = max(2, int(math.ceil(seg / step)) + 1)
        for t in np.linspace(0.0, 1.0, n):
            _mark_disk_on_every_cell(cells, grid, a + t * (b - a), radius, value)


def _stamp_coord(hi: float, n: int, cell_size: float, radius: float):
    """A point of [0, hi]: anywhere, within radius + 2 m of an edge, or a
    cell center."""
    return st.one_of(st.floats(0.0, hi),
                     st.builds(lambda edge, d: min(max(edge + d, 0.0), hi),
                               st.sampled_from([0.0, hi]),
                               st.floats(-radius - 2.0, radius + 2.0)),
                     st.integers(0, n - 1).map(lambda k: (k + 0.5) * cell_size))


@settings(max_examples=100, deadline=None)
@given(cell_size=st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.2, 2.0)),
       shape=st.tuples(st.integers(1, 50), st.integers(1, 50)), value=st.booleans(),
       fill=st.integers(0, 2**32 - 1), data=st.data())
def test_stamp_polyline_marks_the_cells_of_every_sample(cell_size, shape, value, fill,
                                                        data):
    # lanes on the grid that run along and into its sides, at any cell size,
    # on a grid already partly marked; cell centers and radii of whole half
    # cells put cells exactly on a disk's rim
    nx, ny = shape
    radius = data.draw(st.one_of(st.sampled_from([0.0, 0.3, 1.5, 5.0]),
                                 st.floats(0.0, 6.0),
                                 st.integers(0, 12).map(lambda k: k * cell_size / 2)))
    line = data.draw(st.lists(st.tuples(_stamp_coord(nx * cell_size, nx, cell_size, radius),
                                        _stamp_coord(ny * cell_size, ny, cell_size, radius)),
                              min_size=2, max_size=4))
    cells = np.random.default_rng(fill).random((ny, nx)) < 0.5
    want = OccupancyGrid(cells.copy(), cell_size)
    _stamp_polyline_sampling_every_sample(want.cells, want, line, radius, value)
    got = OccupancyGrid(cells.copy(), cell_size)
    stamp_polyline(got.cells, got, line, radius, value)
    assert np.array_equal(got.cells, want.cells)


# a 30 x 20 m grid
STAMP_GRID = dict(size_x=30.0, size_y=20.0, cell_size=0.5)


@pytest.mark.parametrize("line", [
    [[0.0, 0.9], [30.0, 0.9]],                    # horizontal, side to side
    [[10.3, 0.0], [10.3, 20.0]],                  # vertical, side to side
    [[0.0, 0.0], [30.0, 20.0]],                   # diagonal, corner to corner
    [[0.0, 20.0], [30.0, 20.0]],                  # on the top edge, no centre
    [[0.0, 0.0], [0.2, 0.0]],                     # ends short of a centre
    [[17.3, 5.9], [17.3, 5.9]],                   # one point
    [[0.0, 5.9], [17.3, 5.9], [17.3, 20.0]],      # enters, turns, leaves
], ids=["horizontal", "vertical", "diagonal", "parallel-miss", "ends-short",
        "point", "turning"])
def test_stamp_polyline_edge_lanes_match_every_sample(line):
    # lanes on the map's edges, whose disks reach past the grid
    for radius in (0.0, 1.5, 5.0):
        want = empty_grid(**STAMP_GRID)
        _stamp_polyline_sampling_every_sample(want.cells, want, line, radius)
        got = empty_grid(**STAMP_GRID)
        stamp_polyline(got.cells, got, line, radius)
        assert np.array_equal(got.cells, want.cells)


def test_stamp_polyline_takes_a_subnormal_axis_delta_without_a_warning():
    # x moves by 1e-320, a delta no step of the stamp may divide by. The
    # stamp is the band along the left edge, y 4..10
    line = np.array([[1e-320, 5.0], [2e-320, 9.0]])
    want = empty_grid(10.0, 10.0, 0.5)
    _stamp_polyline_sampling_every_sample(want.cells, want, line, 1.0)
    got = empty_grid(10.0, 10.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stamp_polyline(got.cells, got, line, 1.0)
    assert np.array_equal(got.cells, want.cells)
    rows, cols = np.nonzero(got.cells)
    assert set(zip(rows.tolist(), cols.tolist())) == \
        {(r, 0) for r in range(8, 20)} | {(r, 1) for r in range(9, 19)}


@pytest.mark.parametrize("end", [[1e12, 10.0], [40.0, -1e-9], [40.1, 10.0],
                                 [20.0, 20.5]],
                         ids=["trillion-metres", "below", "right", "above"])
def test_a_map_refuses_a_lane_that_leaves_it(end):
    # sampled along its whole length a lane to 1e12 m would ask numpy for
    # 29 TiB, so a map built in code is checked as a loaded document is
    lanes = [LaneSegment("near", [[0.0, 10.0], [40.0, 10.0]], half_width=3.0),
             LaneSegment("far", [[20.0, 10.0], end], half_width=3.0)]
    with pytest.raises(ValueError, match=re.escape(
            "versions[1].lane_graph: segment 'far' leaves the 40 x 20 m map")):
        VersionedMap(size=(40.0, 20.0), cell_size=0.5,
                     versions=(MapVersion(0, lanes[:1]), MapVersion(1, lanes)),
                     publish_times=(None, 4.0))


def test_inflate_grows_by_metric_radius():
    g = empty_grid(20.0, 20.0, cell_size=0.5)
    mark_disk(g.cells, g, (10.0, 10.0), 0.4)   # single cell
    grown = inflate(g, 2.0)
    assert occupied_at(grown, 11.9, 10.0)
    assert not occupied_at(grown, 13.0, 10.0)
    # inflation only adds cells
    assert np.all(grown.cells[g.cells])


def test_inflate_beyond_the_grid_diagonal_fills_the_grid_at_once():
    # a radius of 1e12 m used to loop over (2r + 1)^2 offsets, and one past
    # the grid's side made the offset slices disagree (ValueError)
    g = empty_grid(2.5, 2.0, cell_size=0.5)           # 4 x 5 cells, diagonal 6.4
    g.cells[1, 2] = True
    assert inflate(g, 6.3 * 0.5).cells.all()          # the offset loop
    assert inflate(g, 1e12).cells.all()
    assert not inflate(empty_grid(2.5, 2.0, cell_size=0.5), 1e12).cells.any()


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
    vmap = corridor_map(_cross_segments(), 30.0, 30.0)
    occ = planning_occupancy(vmap, vmap.initial(), 0.0)
    assert not occupied_at(occ, 10.0, 15.0)
    assert not occupied_at(occ, 15.0, 25.0)
    assert occupied_at(occ, 5.0, 5.0)     # off-road stays wall


def test_corridor_map_skips_closed_segments():
    vmap = corridor_map(_cross_segments(closed_ids=("ns",)), 30.0, 30.0)
    occ = planning_occupancy(vmap, vmap.initial(), 0.0)
    assert occupied_at(occ, 15.0, 25.0)
    assert not occupied_at(occ, 10.0, 15.0)


def test_planning_occupancy_stamps_closures_and_inflates():
    # ns is closed where it crosses the open ew: carved, then stamped back
    vmap = corridor_map(_cross_segments(closed_ids=("ns",)), 30.0, 30.0)
    planning = planning_occupancy(vmap, vmap.initial(), vehicle_radius=1.0)
    # the closed corridor is wall again for the planner, the crossing too
    assert occupied_at(planning, 15.0, 25.0)
    assert occupied_at(planning, 15.0, 15.0)
    # the open corridor narrows by the vehicle radius but stays passable
    assert not occupied_at(planning, 6.0, 15.0)
    assert occupied_at(planning, 6.0, 16.6)


def test_map_version_rejects_negative_id():
    with pytest.raises(ValueError):
        MapVersion(version_id=-1, lane_graph=())


def test_route_validates_shape():
    for bad in ([[0.0, 0.0]], [[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]):
        with pytest.raises(ValueError):
            Route(reference_path=np.array(bad), goal_pose=(0.0, 0.0, 0.0))
    r = Route(reference_path=np.array([[0.0, 0.0], [3.0, 4.0]]),
              goal_pose=(3.0, 4.0, 0.0))
    assert r.reference_path.length == pytest.approx(5.0)
    # a Polyline is taken as it is, not rebuilt
    assert Route(r.reference_path, r.goal_pose).reference_path is r.reference_path


# ---------------------------------------------------------------------------
# update server / client protocol


def _version(vid):
    return MapVersion(vid, _cross_segments())


def _vmap(ids, times):
    return VersionedMap(size=(30.0, 30.0), cell_size=0.5,
                        versions=tuple(_version(v) for v in ids),
                        publish_times=tuple(times))


def test_publish_version_monotonic():
    vmap = _vmap((0, 1, 2), (None, 4.0, 4.0))
    assert [v.version_id for v in vmap.versions] == [0, 1, 2]
    assert vmap.initial().version_id == 0
    for ids, times, field in [
            ((0, 1), (None,), "publish_times"),        # a version unpublished
            ((0,), (None, 4.0), "publish_times"),      # a time without version
            ((0, 1), (0.0, 4.0), "publish_times"),     # the initial is published
            ((0, 1), (None, None), "publish_times"),
            ((0, 1), (None, math.inf), "publish_times"),
            ((0, 1, 2), (None, 5.0, 3.0), "publish_times"),
            ((0, 1, 1), (None, 4.0, 5.0), "versions"),  # equal ids
            ((0, 2, 1), (None, 4.0, 5.0), "versions"),
            ((), (), "publish_times")]:
        with pytest.raises(ValueError, match=f"^{field}: "):
            _vmap(ids, times)


def test_poll_update_visibility_and_latency():
    vmap = _vmap((0, 1), (None, 4.0))

    # before the publish time nothing new is visible
    assert poll_update(2.0, 0, vmap, 1.1) is None
    got = poll_update(4.0, 0, vmap, 1.1)
    assert got is not None
    version, activation = got
    assert version.version_id == 1
    assert activation == pytest.approx(5.1)
    # already current
    assert poll_update(6.0, 1, vmap, 1.1) is None


def test_poll_update_skips_to_newest():
    vmap = _vmap((0, 1, 2), (None, 1.0, 2.0))
    version, _ = poll_update(10.0, 0, vmap, 0.5)
    assert version.version_id == 2
    version, _ = poll_update(1.5, 0, vmap, 0.5)
    assert version.version_id == 1


@pytest.mark.parametrize("dt", [0.02, 0.05, 0.1, 0.15])
def test_one_tick_grid_rule_keeps_the_beacon_attack_and_poll_schedules(dt):
    # the built-ins' schedules: CAMs, DENMs from each hazard's spawn, the
    # attack from its start, and the map poll from the first tick after 0;
    # the episode's clock reads t = k * dt
    specs = [build_scenario(sid) for sid in SCENARIO_IDS]
    schedules = {(CAM_PERIOD, 0.0)}
    schedules |= {(DENM_PERIOD, h.spawn_time) for spec in specs for h in spec.hazards}
    schedules |= {(spec.attack.emission_period, spec.attack.start_time)
                  for spec in specs if spec.attack is not None}
    assert schedules == {(0.1, 0.0), (1.0, 3.5), (1.0, 4.0), (1.0, 1.0)}
    ticks = range(2401)
    for period, offset in sorted(schedules):
        assert [k for k in ticks if world.fires_at(k * dt, dt, period, offset)] == \
            [k for k in ticks if oracles.emits_this_tick(k * dt, dt, period, offset)]
    assert [k for k in ticks if k > 0 and world.fires_at(k * dt, dt, world.POLL_INTERVAL)] \
        == [k for k in ticks if oracles.polls_at(k, dt)]
