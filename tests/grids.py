"""Occupancy grids for the tests: a one-version corridor map, and reading
a grid at a world point."""

import math

from v2xloop.world import MapVersion, VersionedMap


def corridor_map(segments, w: float, h: float) -> VersionedMap:
    """A w x h m map at 0.5 m cells whose one version, id 0, holds `segments`."""
    return VersionedMap(size=(w, h), cell_size=0.5,
                        versions=(MapVersion(0, segments),), publish_times=(None,))


def occupied_at(grid, x: float, y: float) -> bool:
    """True if the cell under (x, y) is occupied or off the grid."""
    ix = math.floor(x / grid.cell_size)
    iy = math.floor(y / grid.cell_size)
    ny, nx = grid.cells.shape
    return not (0 <= ix < nx and 0 <= iy < ny) or bool(grid.cells[iy, ix])
