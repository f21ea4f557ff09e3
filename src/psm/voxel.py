"""Occupancy grids: splatting point clouds, binarizing, and IoU.

A grid covers the axis-aligned cube [origin, origin + D * h) with D cells
per axis. values[x, y, z] indexes cells in that axis order; flattening in C
order therefore runs z fastest, matching the file format.

Splatting treats each point as a cube of side h (one cell) centered on the
point and deposits into each of the up-to-8 overlapped cells the fraction of
the point cube's volume falling inside, i.e. trilinear weights. Weights that
fall outside the grid are discarded, so only points whose cube lies fully
inside conserve their unit of mass.

Every grid's cell spans at least RESOLUTION float64 steps of its
coordinates; a grid with finer cells is refused wherever one is made.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import as_int, validate
from .errors import (EmptySet, GridMismatch, InvalidThreshold, NonBinaryGrid,
                     PointOutsideGrid)

# A cell must span this many float64 steps of the grid's coordinates, so a
# point's place within its cell, and so its trilinear weights, resolve to
# 1/RESOLUTION of a cell or finer. Finer cells are refused: at origin 1e15
# doubles lie 0.125 apart, and a 0.01 cell could hold no point inside it.
RESOLUTION = 1024


def _geometry(dims, origin, cell_size):
    """(dims, origin, cell size) as int, (3,) float64 and float, checked:
    integer dims >= 1, a finite origin, a finite cell size > 0, a finite far
    corner and a cell at least RESOLUTION float64 steps wide at the coordinate of
    largest magnitude in the grid."""
    dims = as_int(dims, "dims")
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    h = float(cell_size)
    if dims < 1:
        raise ValueError("dims must be >= 1")
    if not np.isfinite(origin).all():
        raise ValueError("origin must be finite")
    if not 0 < h < math.inf:
        raise ValueError("cell_size must be finite and > 0")
    if not math.isfinite(float(origin.max()) + dims * h):  # Python floats: no warning
        raise ValueError("grid extent overflows float64")
    corner = max(abs(float(origin.min())), abs(float(origin.max()) + dims * h))
    if h < RESOLUTION * math.ulp(corner):
        raise ValueError(f"cell_size {h!r} is below {RESOLUTION} float64 steps at "
                         f"coordinate {corner!r}; points cannot be placed within a cell")
    return dims, origin, h


@dataclass
class OccupancyGrid:
    dims: int
    origin: np.ndarray
    cell_size: float
    values: np.ndarray  # (D, D, D), axes (x, y, z)

    def __post_init__(self):
        self.dims, self.origin, self.cell_size = _geometry(
            self.dims, self.origin, self.cell_size)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.dims,) * 3:
            raise ValueError(
                f"values shape {self.values.shape} does not match dims {self.dims}")


def splat(ps, dims, origin, cell_size, clamp_points=True, saturate=True):
    """Register a point cloud into a D^3 occupancy grid.

    clamp_points=True moves outside points onto the grid boundary first;
    with False such points raise PointOutsideGrid instead. saturate=True
    caps each cell at 1.0 (occupancy semantics); tests disable it to check
    raw mass conservation. Weights add, cell by cell in point order, into
    a grid with one border cell per side; the border then drops what fell
    outside.
    """
    pts = validate(ps)
    if len(pts) == 0:
        raise EmptySet()
    dims, origin, h = _geometry(dims, origin, cell_size)
    hi = origin + dims * h
    outside = (pts < origin) | (pts > hi)
    if outside.any():
        if not clamp_points:
            raise PointOutsideGrid(int(np.argmax(outside.any(axis=1))))
        pts = np.clip(pts, origin, hi)

    # cell c spans [origin + c h, origin + (c+1) h); a point cube of side h
    # centered at p overlaps cells floor(u) and floor(u)+1 per axis, where
    # u = (p - origin)/h - 1/2, with weights (1 - f) and f, f = u - floor(u).
    # p in [origin, hi] puts u in [-1/2, dims - 1/2] and each cell in [-1, dims].
    u = (pts - origin) / h - 0.5
    i0 = np.floor(u).astype(np.int64)
    f = u - i0
    w = (1.0 - f, f)
    side = dims + 2
    base = ((i0[:, 0] + 1) * side + i0[:, 1] + 1) * side + i0[:, 2] + 1
    flat = np.zeros(side**3)
    for dx, dy, dz in itertools.product((0, 1), repeat=3):
        np.add.at(flat, base + (dx * side + dy) * side + dz,
                  w[dx][:, 0] * w[dy][:, 1] * w[dz][:, 2])
    grid = flat.reshape((side,) * 3)[1:-1, 1:-1, 1:-1]
    grid = np.clip(grid, 0.0, 1.0) if saturate else grid.copy()
    return OccupancyGrid(dims, origin, h, grid)


def binarize(g, threshold):
    """Map values to {0, 1} by v >= threshold. Idempotent."""
    t = float(threshold)
    if not 0.0 <= t <= 1.0:
        raise InvalidThreshold(threshold)
    return OccupancyGrid(g.dims, g.origin, g.cell_size,
                         (g.values >= t).astype(np.float64))


def _require_binary(values):
    if not np.isin(values, (0.0, 1.0)).all():
        raise NonBinaryGrid("grid values must be exactly 0 or 1; binarize first")


def iou(g1, g2):
    """Intersection over union of two binary grids on the same geometry.

    Defined as 1.0 when both grids are empty.
    """
    if (g1.dims != g2.dims or g1.cell_size != g2.cell_size
            or not np.array_equal(g1.origin, g2.origin)):
        raise GridMismatch("grids differ in dims, origin, or cell size")
    _require_binary(g1.values)
    _require_binary(g2.values)
    a = g1.values > 0
    b = g2.values > 0
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 1.0
    return float(np.count_nonzero(a & b)) / union


def grid_unit_scale(dims, cell_size):
    """One reporting unit = a tenth of the grid's side length: D * h / 10."""
    dims, _, h = _geometry(dims, (0, 0, 0), cell_size)
    return dims * h / 10.0
