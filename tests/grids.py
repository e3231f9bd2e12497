"""Reading an occupancy grid at a world point, for the tests."""

import math


def occupied_at(grid, x: float, y: float) -> bool:
    """True if the cell under (x, y) is occupied or off the grid."""
    ix = math.floor(x / grid.cell_size)
    iy = math.floor(y / grid.cell_size)
    ny, nx = grid.cells.shape
    return not (0 <= ix < nx and 0 <= iy < ny) or bool(grid.cells[iy, ix])
