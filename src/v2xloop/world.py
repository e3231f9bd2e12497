"""Static world model: paths, versioned maps, routes, hazards, the map server
and the ego's client of it.

Map versions are value snapshots. Publishing a new version never mutates an
old one, so an episode can be replayed against the exact map knowledge the
ego held at every tick. All geometry lives in a single global frame with x
east, y north, headings in radians counterclockwise from +x.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .logio import NEEDS_QUOTES

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap to [-pi, pi)."""
    return (a + math.pi) % TWO_PI - math.pi


def check_range(obj, names, lo: float = 0.0, hi: float = math.inf,
                strict: bool = False) -> None:
    """Reject a field of `obj` that is not finite or lies outside [lo, hi],
    or outside (lo, hi) when `strict`. Every item of a tuple field is checked.

    The message starts with the field, so the scenario decoder reports its
    dotted path, e.g. `scenario.sensor.p_miss: ...`.
    """
    if strict:
        bound = f"> {lo:g}" if hi == math.inf else f"in ({lo:g}, {hi:g})"
    else:
        bound = f">= {lo:g}" if hi == math.inf else f"in [{lo:g}, {hi:g}]"
    for name in names:
        value = getattr(obj, name)
        for v in value if isinstance(value, tuple) else (value,):
            inside = lo < v < hi if strict else lo <= v <= hi
            if not (math.isfinite(v) and inside):
                raise ValueError(f"{name}: must be finite and {bound}, got {value}")


def check_id(obj, name: str) -> None:
    """Reject an id field of `obj` that is empty or that a log cell cannot
    hold (logio.NEEDS_QUOTES); the message starts with the field."""
    value = getattr(obj, name)
    if not value or NEEDS_QUOTES(value):
        raise ValueError(f"{name}: must be non-empty and hold no comma, quote, "
                         f"CR or LF, got {value!r}")


# ---------------------------------------------------------------------------
# polyline geometry


def _interp(x: float, xp: list, fp: list) -> float:
    """`np.interp(x, xp, fp)` for one finite x over non-decreasing knots,
    with its arithmetic and so its bits: fp[0] below the first knot, fp[j]
    on knot j (the last of equal knots) and at or past the last one, and
    `slope * (x - xp[j]) + fp[j]` between knots j and j + 1."""
    j = bisect.bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j == len(xp) - 1 or xp[j] == x:
        return fp[j]
    return (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j]


def polyline_cumlength(path: np.ndarray) -> np.ndarray:
    d = np.diff(np.asarray(path, dtype=float), axis=0)
    seg = np.hypot(d[:, 0], d[:, 1])
    return np.concatenate([[0.0], np.cumsum(seg)])


# how far, in metres, beyond the bound of a full scan a segment's lower
# bound may lie for `Polyline.project` to keep it as a candidate for the
# queries that follow
PROJECT_REACH = 1.0
# point-segment pairs `Polyline.project_many` measures in one pass, so its
# temporaries stay near this size however many points it is given
PROJECT_BATCH = 1 << 12


@dataclass(frozen=True, eq=False)
class Polyline:
    """A path of N >= 2 points, parameterised by arc length.

    The shape is checked, and the segment table and cumulative arc length
    computed, once, here; every query reuses them. Segments may have zero
    length; a path whose squared segment lengths overflow is refused.
    `point_at` (pure pursuit's target, scripted traffic, a forged claim
    ahead on the route) is np.interp of each coordinate over arc length.

    `project` also keeps what its last full scan found (`_warm`), so that a
    query near the last one measures a handful of segments. Like
    `MapVersion.planning_memo`, that state is a cache: it never changes an
    answer, so a Polyline shared by every episode of a spec (a route) gives
    each episode the bits a fresh one would.

    `project_many` answers `project`, and the heading of the segment under
    each arc length, for a whole array of points in one numpy pass, with
    the same bits, for a caller that needs the answers only once it holds
    every point (an episode's logged route columns, the route deviation
    field).
    """

    points: np.ndarray                                    # (N, 2) [m]
    cumlength: np.ndarray = field(init=False, repr=False)  # (N,) [m]
    length: float = field(init=False, repr=False)          # [m]
    # cumlength, the points' x and y, and a segment table of (N-1) rows
    # (start x, y, direction x, y, squared length), as Python floats for
    # the scalar queries
    _cum: list = field(init=False, repr=False)
    _xs: list = field(init=False, repr=False)
    _ys: list = field(init=False, repr=False)
    _rows: list = field(init=False, repr=False)
    # what project prunes with: segment midpoints as x + iy, half lengths,
    # and the largest coordinate magnitude, which scales the rounding slack
    _mid: np.ndarray = field(init=False, repr=False)
    _half: np.ndarray = field(init=False, repr=False)
    _extent: float = field(init=False, repr=False)
    # the last full scan: (its query x, y, its slack, the candidate segment
    # indices in index order, the least lower bound of every other segment)
    _warm: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        try:
            p = np.asarray(self.points, dtype=float)
        except (TypeError, ValueError):
            raise ValueError("expected an array of numbers") from None
        if p.ndim != 2 or p.shape[0] < 2 or p.shape[1] != 2:
            raise ValueError(f"expected an (N, 2) array with N >= 2, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("expected finite points")
        a = p[:-1]
        with np.errstate(over="ignore"):
            d = p[1:] - a
            len2 = (d * d).sum(axis=1)
        if not np.isfinite(len2).all():
            raise ValueError("expected points whose squared segment lengths are finite")
        cum = polyline_cumlength(p)
        xs, ys = p.T.tolist()
        rows = list(zip(*a.T.tolist(), *d.T.tolist(), len2.tolist()))
        mid = a + 0.5 * d
        for name, value in (("points", p), ("cumlength", cum),
                            ("length", float(cum[-1])), ("_cum", cum.tolist()),
                            ("_xs", xs), ("_ys", ys), ("_rows", rows),
                            ("_mid", mid[:, 0] + 1j * mid[:, 1]),
                            ("_half", 0.5 * np.sqrt(len2)),
                            ("_extent", float(np.abs(p).max()))):
            object.__setattr__(self, name, value)

    def project(self, point) -> tuple[float, float, int]:
        """Project a finite point onto the path.

        Returns (arc_length, signed_lateral, segment_index) of the nearest
        segment, the lowest index among equally near ones. Lateral offset
        is positive on the left of the local path direction.

        Segment j lies at least |q - m_j| - h_j from q (midpoint m_j, half
        length h_j) and at most |q - m_j|. A full scan takes the smallest
        upper bound, plus a slack far above the rounding of either, as its
        bound. It keeps as candidates the segments whose lower bound lies
        within PROJECT_REACH of that bound, which include every segment the
        bound cannot rule out, and `gap`, the least lower bound of the
        others; it measures the candidates. A later query q first measures
        only the last scan's candidates. Every other segment lies at least
        gap - |q - q0| from q (q0 the scan's query), so if the nearest
        candidate is nearer than that by more than the rounding, it is
        nearest of all and the scan is skipped; otherwise a full scan runs.
        Segments are measured in index order with the operations of a scan
        of every segment, so the result has that scan's bits.
        """
        qx, qy = float(point[0]), float(point[1])
        if not (math.isfinite(qx) and math.isfinite(qy)):
            raise ValueError(f"expected a finite point, got {point!r}")
        slack = 1e-9 * (1.0 + self._extent + abs(qx) + abs(qy))
        warm = self._warm
        if warm is not None:
            x0, y0, slack0, near, gap = warm
            found = self._nearest(qx, qy, near)
            if (math.sqrt(found[0]) + math.hypot(qx - x0, qy - y0)
                    + 4.0 * (slack + slack0) < gap):
                return self._answer(*found)
        r = np.abs(self._mid - complex(qx, qy))
        lower = r - self._half
        kept = lower <= r.min() + slack + PROJECT_REACH
        near = kept.nonzero()[0].tolist()
        gap = float(lower[~kept].min()) if len(near) < len(lower) else math.inf
        object.__setattr__(self, "_warm", (qx, qy, slack, near, gap))
        return self._answer(*self._nearest(qx, qy, near))

    def project_many(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                            np.ndarray]:
        """`project` of every row of an (N, 2) array of finite points, as
        arrays: arc length, signed lateral, segment index, and the direction
        of the segment under that arc length (the last such segment where
        segments meet, the last segment past the end).

        Each point is measured against every segment with `_nearest`'s
        operations, in numpy over a batch of points at a time, and the
        first of equally near segments wins (argmin), so every value has
        the bits the scalar queries return. `_warm` is neither read nor
        changed.
        """
        q = np.asarray(points, dtype=float).reshape(-1, 2)
        if not np.isfinite(q).all():
            raise ValueError("expected finite points")
        ax, ay, dx, dy, len2 = np.array(self._rows).T
        degenerate = len2 < 1e-18
        safe_len2 = np.where(degenerate, 1.0, len2)
        seg_len = np.where(len2 > 1e-18, np.sqrt(len2), 0.0)
        cum = self.cumlength
        n = len(q)
        s, lateral, index = np.empty(n), np.empty(n), np.empty(n, dtype=np.intp)
        step = max(1, PROJECT_BATCH // len(len2))
        for lo in range(0, n, step):
            qx, qy = q[lo:lo + step, :1], q[lo:lo + step, 1:]
            u = ((qx - ax) * dx + (qy - ay) * dy) / safe_len2
            u = np.where(degenerate, 0.0, u)
            u = np.where(u < 0.0, 0.0, u)
            u = np.where(u < 1.0, u, 1.0)
            ex = qx - (ax + u * dx)
            ey = qy - (ay + u * dy)
            dist2 = ex * ex + ey * ey
            i = dist2.argmin(axis=1)
            rows = np.arange(len(i))
            t, ex, ey = u[rows, i], ex[rows, i], ey[rows, i]
            s[lo:lo + step] = cum[i] + t * seg_len[i]
            side = np.where(dx[i] * ey - dy[i] * ex < 0.0, -1.0, 1.0)
            lateral[lo:lo + step] = side * np.sqrt(dist2[rows, i])
            index[lo:lo + step] = i
        # the segment under s: s is never negative, and past the end
        # clamping the index finds the last
        under = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(len2) - 1)
        headings = np.array([math.atan2(y, x) for _, _, x, y, _ in self._rows])
        return s, lateral, index, headings[under]

    def _nearest(self, qx: float, qy: float, near: list):
        """(squared distance, index, segment parameter, offset x, y) of the
        nearest of the segments `near`, in index order, the first of equally
        near ones."""
        rows = self._rows
        best = None
        for j in near:
            ax, ay, dx, dy, len2 = rows[j]
            if len2 < 1e-18:
                u = 0.0
            else:
                u = ((qx - ax) * dx + (qy - ay) * dy) / len2
                # np.maximum(0.0, u) then np.minimum(u, 1.0): -0.0 stays
                u = 0.0 if u < 0.0 else u
                u = u if u < 1.0 else 1.0
            ex = qx - (ax + u * dx)
            ey = qy - (ay + u * dy)
            dist2 = ex * ex + ey * ey
            if best is None or dist2 < best:
                best, i, t, bx, by = dist2, j, u, ex, ey
        return best, i, t, bx, by

    def _answer(self, best: float, i: int, t: float, ex: float, ey: float):
        """project's result for segment i at parameter t, offset (ex, ey)."""
        _, _, dx, dy, len2 = self._rows[i]
        seg_len = math.sqrt(len2) if len2 > 1e-18 else 0.0
        s = self._cum[i] + t * seg_len
        lateral = math.sqrt(best)
        if dx * ey - dy * ex < 0.0:
            lateral = -lateral
        return s, lateral, i

    def point_at(self, s: float) -> tuple[float, float]:
        """(x, y) at arc length s, clamped to the path's extent: np.interp
        of each coordinate over `cumlength`, with its bits."""
        s = float(s)
        return _interp(s, self._cum, self._xs), _interp(s, self._cum, self._ys)


def as_polyline(path) -> Polyline:
    """`path` itself if it already is a Polyline, else one built from it."""
    return path if isinstance(path, Polyline) else Polyline(path)


# ---------------------------------------------------------------------------
# map layers


@dataclass(frozen=True)
class LaneSegment:
    segment_id: str
    polyline: Polyline            # centerline [m]
    half_width: float = 4.0       # [m] drivable half width around the centerline
    closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "polyline", as_polyline(self.polyline))
        check_range(self, ("half_width",))


@dataclass(frozen=True, eq=False)
class OccupancyGrid:
    """Boolean grid, True = occupied, anchored at the world origin: cell
    (iy, ix) covers [ix, ix + 1) x [iy, iy + 1) times cell_size. A grid
    compares and hashes by identity, as a Polyline does."""

    cells: np.ndarray             # (ny, nx) bool
    cell_size: float              # [m]

    def __post_init__(self):
        c = np.asarray(self.cells, dtype=bool)
        object.__setattr__(self, "cells", c)
        if self.cell_size <= 0.0:
            raise ValueError("cell_size must be positive")


# a 1 km square at 0.5 m; the route deviation field alone takes several
# float64 arrays of this many cells
MAX_GRID_CELLS = 4_000_000


def check_grid(size, cell_size: float) -> None:
    """Reject a map extent that `cell_size` divides into no cell along an
    axis or into more than MAX_GRID_CELLS; the message starts with the field."""
    nx, ny = (round(side / cell_size) for side in size)
    if not (nx >= 1 and ny >= 1 and nx * ny <= MAX_GRID_CELLS):
        raise ValueError(f"cell_size: must divide the map's size={size[0]:g} x "
                         f"{size[1]:g} m into 1 to {MAX_GRID_CELLS} cells, got "
                         f"{nx} x {ny} at {cell_size:g}")


def empty_grid(size_x: float, size_y: float, cell_size: float = 0.5,
               occupied: bool = False) -> OccupancyGrid:
    nx = int(round(size_x / cell_size))
    ny = int(round(size_y / cell_size))
    cells = np.full((ny, nx), occupied, dtype=bool)
    return OccupancyGrid(cells=cells, cell_size=cell_size)


def mark_disk(cells: np.ndarray, grid: OccupancyGrid, center, radius: float,
              value: bool = True, touching: bool = False) -> None:
    """Mark all cells whose center lies within radius; with `touching`, all
    cells that some point of the open disk lies in, so every point of every
    other cell is at least `radius` away."""
    cs = grid.cell_size
    _mark_disks(cells, np.array([center], dtype=float) / cs, radius / cs, value, touching)


def stamp_polyline(cells: np.ndarray, grid: OccupancyGrid, polyline: np.ndarray,
                   radius: float, value: bool = True) -> None:
    """Mark every cell within `radius` of the polyline.

    Each segment is sampled every half cell at np.linspace(0, 1, n), and a
    segment's samples are marked together. The work grows with the length
    of the lane, so a lane must lie on the grid (VersionedMap checks that).
    """
    p = np.asarray(polyline, dtype=float)
    cs = grid.cell_size
    step = cs * 0.5
    for i in range(len(p) - 1):
        a, b = p[i], p[i + 1]
        seg = math.hypot(b[0] - a[0], b[1] - a[1])
        n = max(2, int(math.ceil(seg / step)) + 1)
        t = np.linspace(0.0, 1.0, n)
        _mark_disks(cells, (a + t[:, None] * (b - a)) / cs, radius / cs, value)


# box cells `_mark_disks` tests in one pass: as many disks as fit, and at
# least one, so its temporaries stay near this size or one disk's box
# however many disks it is given
_DISK_BATCH_CELLS = 1 << 12


def _mark_disks(cells: np.ndarray, centers: np.ndarray, r: float, value: bool,
                touching: bool = False) -> None:
    """mark_disk at every row of `centers`, with centers and `r` in cells.

    Each disk's box is padded by a cell and clipped to the grid. The disks
    are tested in batches of about _DISK_BATCH_CELLS box cells.
    """
    ny, nx = cells.shape
    cx, cy = centers[:, 0], centers[:, 1]
    # clipped before the cast, so a centre far off the grid gets an empty box
    x0 = np.clip(np.floor(cx - r - 1), 0, nx).astype(np.intp)
    x1 = np.clip(np.ceil(cx + r + 1), -1, nx - 1).astype(np.intp)
    y0 = np.clip(np.floor(cy - r - 1), 0, ny).astype(np.intp)
    y1 = np.clip(np.ceil(cy + r + 1), -1, ny - 1).astype(np.intp)
    w, h = int((x1 - x0).max()) + 1, int((y1 - y0).max()) + 1
    if w <= 0 or h <= 0:
        return
    cols = x0[:, None] + np.arange(w)
    rows = y0[:, None] + np.arange(h)
    dx = cols + 0.5 - cx[:, None]
    dy = rows + 0.5 - cy[:, None]
    if touching:
        # the offset from the center to the nearest point of each cell
        dx = np.maximum(np.abs(dx) - 0.5, 0.0)
        dy = np.maximum(np.abs(dy) - 0.5, 0.0)
    dx2, dy2 = dx * dx, dy * dy
    in_x, in_y = cols <= x1[:, None], rows <= y1[:, None]
    r2 = r * r
    step = max(1, _DISK_BATCH_CELLS // (w * h))
    for s in range(0, len(centers), step):
        d2 = dx2[s:s + step, None, :] + dy2[s:s + step, :, None]
        hit = (d2 < r2) if touching else (d2 <= r2)
        hit &= in_x[s:s + step, None, :] & in_y[s:s + step, :, None]
        i, yk, xk = np.nonzero(hit)
        cells[rows[s + i, yk], cols[s + i, xk]] = value


def inflate(grid: OccupancyGrid, radius: float) -> OccupancyGrid:
    """Dilate occupied cells by a metric radius (for point-robot planning)."""
    if radius <= 0.0:
        return grid
    r_cells = radius / grid.cell_size
    src = grid.cells
    ny, nx = src.shape
    if r_cells >= math.hypot(ny, nx):
        # every cell lies within reach of every other
        return OccupancyGrid(cells=np.full_like(src, src.any()),
                             cell_size=grid.cell_size)
    r = int(math.ceil(r_cells))
    # an offset past the grid's extent reaches no cell
    ry, rx = min(r, ny - 1), min(r, nx - 1)
    out = src.copy()
    for di in range(-ry, ry + 1):
        for dj in range(-rx, rx + 1):
            if di == 0 and dj == 0:
                continue
            if di * di + dj * dj > r_cells * r_cells + 1e-9:
                continue
            ys = slice(max(0, di), min(ny, ny + di))
            yd = slice(max(0, -di), min(ny, ny - di))
            xs = slice(max(0, dj), min(nx, nx + dj))
            xd = slice(max(0, -dj), min(nx, nx - dj))
            out[yd, xd] |= src[ys, xs]
    return OccupancyGrid(cells=out, cell_size=grid.cell_size)


@dataclass(frozen=True)
class MapVersion:
    """One published lane graph; its grids are derived on the map that
    holds it (planning_occupancy)."""

    version_id: int
    lane_graph: tuple[LaneSegment, ...]
    # the planning views of this version, built by the first episode that
    # plans on it and reused for as long as the version lives: route
    # reference path -> planner.PlanningMaps
    planning_memo: dict = field(init=False, repr=False, compare=False,
                                default_factory=dict)

    def __post_init__(self):
        if self.version_id < 0:
            raise ValueError("version_id must be non-negative")
        object.__setattr__(self, "lane_graph", tuple(self.lane_graph))


@dataclass(frozen=True)
class VersionedMap:
    """The map server: the extent every version's grid is rasterized on,
    the initial map, then later versions with their publish times, in
    publish order. A rejected map's message starts with the field at fault."""

    size: tuple[float, float]     # [m] width, height
    cell_size: float              # [m]
    versions: tuple[MapVersion, ...]
    publish_times: tuple[float | None, ...]   # None for the initial version

    def __post_init__(self):
        check_range(self, ("size", "cell_size"), strict=True)
        check_grid(self.size, self.cell_size)
        times, ids = self.publish_times, [v.version_id for v in self.versions]
        if len(times) != len(ids):
            raise ValueError(f"publish_times: expected one per version, got {len(times)} "
                             f"for {len(ids)} versions")
        later = times[1:]
        if not times or times[0] is not None or None in later \
                or not all(map(math.isfinite, later)) \
                or any(b < a for a, b in zip(later, later[1:])):
            raise ValueError("publish_times: expected null for the initial version, then "
                             f"finite non-decreasing times, got {list(times)}")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValueError(f"versions: ids must strictly increase, got {ids}")
        # stamping samples every centerline at half a cell, so a lane far off
        # the map would take unbounded memory
        w, h = self.size
        for i, version in enumerate(self.versions):
            for seg in version.lane_graph:
                p = seg.polyline.points
                if p.min() < 0.0 or p[:, 0].max() > w or p[:, 1].max() > h:
                    raise ValueError(f"versions[{i}].lane_graph: segment "
                                     f"{seg.segment_id!r} leaves the {w:g} x {h:g} m map")

    def initial(self) -> MapVersion:
        return self.versions[0]


# the ego's map client
POLL_INTERVAL = 2.0                   # [s]
DOWNLOAD_LATENCY_MEAN = 1.1           # [s]
DOWNLOAD_LATENCY_JITTER = 0.2         # [s]


def fires_at(t: float, dt: float, period: float, offset: float = 0.0) -> bool:
    """Whether a schedule that fires every `period` from `offset`, both
    rounded to whole ticks of `dt` (the period to at least one), fires on
    the tick at time t; a period of 0 never fires. The V2X beacons and
    the attack run on it, and the map client polls on it from the first
    tick after 0."""
    if period <= 0.0:
        return False
    k = int(round((t - offset) / dt))
    return k >= 0 and k % max(1, int(round(period / dt))) == 0


def download_latency(rng) -> float:
    """One poll's download time: DOWNLOAD_LATENCY_MEAN +
    DOWNLOAD_LATENCY_JITTER * N(0, 1), at least 0.05 s."""
    return max(0.05, DOWNLOAD_LATENCY_MEAN + DOWNLOAD_LATENCY_JITTER * float(rng.normal()))


def poll_update(client_time: float, last_seen_version: int, vmap: VersionedMap,
                download_latency: float) -> tuple[MapVersion, float] | None:
    """Return (newest visible version, activation_time) or None if up to date.

    A version is visible once its publish time has passed. activation_time
    = client_time + download_latency; the caller defers the actual swap to
    its next tick boundary.
    """
    best = None
    for publish_time, version in zip(vmap.publish_times[1:], vmap.versions[1:]):
        # ids strictly increase, so the last visible newer version is the newest
        if publish_time <= client_time and version.version_id > last_seen_version:
            best = version
    if best is None:
        return None
    return best, client_time + float(download_latency)


def planning_occupancy(vmap: VersionedMap, version: MapVersion,
                       vehicle_radius: float) -> OccupancyGrid:
    """Planner-facing view of `version` on `vmap`'s extent: everything is
    wall but the open lanes, the closed lanes are stamped back in, and the
    result is inflated by the vehicle radius."""
    grid = empty_grid(*vmap.size, vmap.cell_size, occupied=True)
    for seg in version.lane_graph:
        if not seg.closed:
            stamp_polyline(grid.cells, grid, seg.polyline.points, seg.half_width,
                           value=False)
    for seg in version.lane_graph:
        if seg.closed:
            stamp_polyline(grid.cells, grid, seg.polyline.points, seg.half_width)
    return inflate(grid, vehicle_radius)


# ---------------------------------------------------------------------------
# routes, hazards, dynamic truth


@dataclass(frozen=True)
class Route:
    reference_path: Polyline
    goal_pose: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "reference_path", as_polyline(self.reference_path))


HAZARD_KINDS = ("stationary_vehicle", "debris", "road_closure")
# [m] the collision body of every hazard and scripted vehicle
OBJECT_RADIUS = 1.0


@dataclass(frozen=True)
class GroundTruthHazard:
    hazard_id: str
    position: tuple[float, float]
    kind: str
    spawn_time: float = 0.0

    def __post_init__(self):
        if self.kind not in HAZARD_KINDS:
            raise ValueError(f"unknown hazard kind {self.kind!r}")
        check_id(self, "hazard_id")


@dataclass(frozen=True)
class WorldObject:
    """Dynamic truth snapshot used for sensing, collision, and MOT scoring;
    its body is a disc of OBJECT_RADIUS."""

    object_id: str
    position: tuple[float, float]
    velocity: tuple[float, float]

