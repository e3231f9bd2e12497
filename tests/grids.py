"""Occupancy grids for the tests: a one-version corridor map, an all-free
grid, and reading a grid at a world point."""

import math

import numpy as np

from v2xloop.world import CELL_SIZE, MapVersion, VersionedMap, grid_shape


def corridor_map(segments, w: float, h: float) -> VersionedMap:
    """A w x h m map whose one version, id 0, holds `segments`."""
    return VersionedMap(size=(w, h), versions=(MapVersion(0, segments),),
                        publish_times=(None,))


def empty_grid(w: float, h: float) -> np.ndarray:
    """The all-free grid of a w x h m map."""
    return np.zeros(grid_shape((w, h)), dtype=bool)


def occupied_at(grid, x: float, y: float) -> bool:
    """True if the cell under (x, y) is occupied or off the grid."""
    ix = math.floor(x / CELL_SIZE)
    iy = math.floor(y / CELL_SIZE)
    ny, nx = grid.shape
    return not (0 <= ix < nx and 0 <= iy < ny) or bool(grid[iy, ix])
