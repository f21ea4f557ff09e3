"""Voxelization and IoU. The splat oracle computes cell overlaps as interval
intersections of the point cube with each cell box, a different derivation
than the fractional-coordinate weights used by the implementation.
"""

import numpy as np
import pytest

from psm.io import read_grid
from psm.errors import (EmptySet, GridMismatch, InvalidThreshold,
                        NonBinaryGrid, PointOutsideGrid)
from psm.voxel import RESOLUTION, OccupancyGrid, binarize, grid_unit_scale, iou, splat


def splat_oracle(point, dims, origin, h):
    """Occupancy of one point cube via explicit box intersections."""
    grid = np.zeros((dims, dims, dims))
    lo = np.asarray(point) - h / 2.0
    hi = np.asarray(point) + h / 2.0
    for ix in range(dims):
        for iy in range(dims):
            for iz in range(dims):
                vol = 1.0
                for axis, c in enumerate((ix, iy, iz)):
                    c0 = origin[axis] + c * h
                    c1 = c0 + h
                    overlap = min(hi[axis], c1) - max(lo[axis], c0)
                    vol *= max(0.0, overlap)
                grid[ix, iy, iz] = vol / h ** 3
    return grid


def grid_of(values, origin=(0, 0, 0), h=1.0):
    values = np.asarray(values, dtype=np.float64)
    return OccupancyGrid(values.shape[0], origin, h, values)


def test_point_at_cell_center():
    g = splat([(1.5, 1.5, 1.5)], 4, (0, 0, 0), 1.0)
    assert g.values[1, 1, 1] == 1.0
    assert g.values.sum() == 1.0


def test_point_on_face_center():
    # halfway between cells (1,1,1) and (2,1,1) along x
    g = splat([(2.0, 1.5, 1.5)], 4, (0, 0, 0), 1.0)
    assert abs(g.values[1, 1, 1] - 0.5) < 1e-12
    assert abs(g.values[2, 1, 1] - 0.5) < 1e-12
    assert g.values.sum() == pytest.approx(1.0, abs=1e-12)


def test_point_on_cell_corner():
    g = splat([(2.0, 2.0, 2.0)], 4, (0, 0, 0), 1.0)
    occupied = np.argwhere(g.values > 0)
    assert len(occupied) == 8
    assert np.allclose(g.values[g.values > 0], 0.125, atol=1e-12)


def test_splat_matches_box_intersection_oracle():
    rng = np.random.default_rng(60)
    dims, h = 5, 0.7
    origin = np.array([-1.0, 0.5, 2.0])
    for _ in range(50):
        p = origin + h + rng.random(3) * (dims - 2) * h  # interior
        g = splat([p], dims, origin, h, saturate=False)
        want = splat_oracle(p, dims, origin, h)
        assert np.allclose(g.values, want, atol=1e-12)


def test_splat_is_additive_before_saturation():
    rng = np.random.default_rng(61)
    dims, h = 6, 1.0
    origin = np.zeros(3)
    pts = origin + h + rng.random((10, 3)) * (dims - 2) * h
    combined = splat(pts, dims, origin, h, saturate=False)
    acc = np.zeros_like(combined.values)
    for p in pts:
        acc += splat([p], dims, origin, h, saturate=False).values
    assert np.allclose(combined.values, acc, atol=1e-12)


def test_mass_conservation_interior_points():
    rng = np.random.default_rng(62)
    dims, h = 8, 0.5
    origin = np.array([1.0, -2.0, 0.0])
    pts = origin + h + rng.random((40, 3)) * (dims - 2) * h
    g = splat(pts, dims, origin, h, saturate=False)
    assert g.values.sum() == pytest.approx(40.0, rel=1e-12)


def test_translation_by_one_cell_shifts_pattern():
    rng = np.random.default_rng(63)
    dims, h = 7, 0.25
    origin = np.zeros(3)
    pts = origin + 2 * h + rng.random((12, 3)) * (dims - 4) * h
    base = splat(pts, dims, origin, h, saturate=False).values
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = h
        moved = splat(pts + shift, dims, origin, h, saturate=False).values
        assert np.allclose(np.roll(base, 1, axis=axis), moved, atol=1e-12)


def test_saturation_caps_at_one():
    pts = [(1.5, 1.5, 1.5)] * 3
    sat = splat(pts, 3, (0, 0, 0), 1.0)
    assert sat.values.max() == 1.0
    raw = splat(pts, 3, (0, 0, 0), 1.0, saturate=False)
    assert raw.values[1, 1, 1] == pytest.approx(3.0)


def test_outside_point_policies():
    inside = (0.5, 0.5, 0.5)
    outside = (9.0, 0.5, 0.5)
    g = splat([inside, outside], 2, (0, 0, 0), 1.0)  # clamps by default
    assert g.values.sum() > 1.0  # the clamped point still deposits mass
    with pytest.raises(PointOutsideGrid) as exc:
        splat([inside, outside], 2, (0, 0, 0), 1.0, clamp_points=False)
    assert exc.value.index == 1


def test_splat_rejects_empty_and_bad_geometry():
    with pytest.raises(EmptySet):
        splat(np.empty((0, 3)), 4, (0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        splat([(0, 0, 0)], 0, (0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        splat([(0, 0, 0)], 4, (0, 0, 0), 0.0)
    for origin, h in (((np.nan, 0, 0), 1.0), ((0, -np.inf, 0), 1.0),
                      ((0, 0, 0), np.inf), ((0, 0, 0), np.nan),
                      ((1e308, 0, 0), 1e308)):
        with pytest.raises(ValueError):
            splat([(0, 0, 0)], 4, origin, h)


@pytest.mark.parametrize("dims", [4.0, 3.5, True, "4"])
def test_grid_dims_must_be_an_integer(dims):
    with pytest.raises(TypeError):
        splat([(0, 0, 0)], dims, (0, 0, 0), 1.0)
    with pytest.raises(TypeError):
        grid_unit_scale(dims, 1.0)
    assert splat([(0, 0, 0)], np.int64(4), (0, 0, 0), 1.0).dims == 4


def test_binarize_thresholds():
    g = grid_of(np.array([[[0.4, 0.6], [0.0, 1.0]], [[0.25, 0.1], [0.9, 0.5]]]))
    b0 = binarize(g, 0.0)
    assert b0.values.min() == 1.0  # v >= 0 everywhere
    b = binarize(g, 0.5)
    assert b.values[0, 0, 0] == 0.0 and b.values[0, 0, 1] == 1.0
    assert b.values[1, 1, 1] == 1.0  # boundary value is kept


def test_binarize_idempotent_and_validated():
    rng = np.random.default_rng(64)
    g = grid_of(rng.random((4, 4, 4)))
    once = binarize(g, 0.25)
    twice = binarize(once, 0.25)
    assert np.array_equal(once.values, twice.values)
    assert set(np.unique(once.values)) <= {0.0, 1.0}
    for bad in (-0.1, 1.0001):
        with pytest.raises(InvalidThreshold):
            binarize(g, bad)


def test_iou_identical_and_disjoint():
    v = np.zeros((3, 3, 3))
    v[0, 0, 0] = v[1, 1, 1] = 1.0
    g = grid_of(v)
    assert iou(g, grid_of(v.copy())) == 1.0
    w = np.zeros((3, 3, 3))
    w[2, 2, 2] = 1.0
    assert iou(g, grid_of(w)) == 0.0


def test_iou_half_overlap():
    v = np.zeros((3, 3, 3))
    v[0, 0, 0] = v[0, 0, 1] = 1.0
    w = v.copy()
    w[1, 1, 1] = w[2, 2, 2] = 1.0
    assert iou(grid_of(v), grid_of(w)) == 0.5  # 2 shared of 4 total


def test_iou_symmetry_and_empty():
    rng = np.random.default_rng(65)
    a = grid_of((rng.random((4, 4, 4)) > 0.5).astype(float))
    b = grid_of((rng.random((4, 4, 4)) > 0.5).astype(float))
    assert iou(a, b) == iou(b, a)
    empty = grid_of(np.zeros((4, 4, 4)))
    assert iou(empty, grid_of(np.zeros((4, 4, 4)))) == 1.0


def test_iou_geometry_and_binary_guards():
    a = grid_of(np.zeros((3, 3, 3)))
    with pytest.raises(GridMismatch):
        iou(a, grid_of(np.zeros((4, 4, 4))))
    with pytest.raises(GridMismatch):
        iou(a, grid_of(np.zeros((3, 3, 3)), origin=(1, 0, 0)))
    with pytest.raises(GridMismatch):
        iou(a, grid_of(np.zeros((3, 3, 3)), h=2.0))
    with pytest.raises(NonBinaryGrid):
        iou(a, grid_of(np.full((3, 3, 3), 0.5)))


def test_grid_unit_scale_values():
    assert grid_unit_scale(32, 1.0) == 3.2
    assert grid_unit_scale(10, 1.0) == 1.0
    assert grid_unit_scale(32, 0.5) == 1.6
    for h in (0.0, -1.0, np.inf, np.nan, 1e308):  # D*h/10 must be finite too
        with pytest.raises(ValueError):
            grid_unit_scale(32, h)


def test_cells_float64_cannot_resolve_are_refused(tmp_path):
    # at 1e15 doubles lie 0.125 apart: no point could lie inside a 0.01 cell
    with pytest.raises(ValueError, match="1024 float64 steps"):
        splat([(1e15, 1e15, 1e15)], 8, (1e15, 1e15, 1e15), 0.01)
    with pytest.raises(ValueError, match="float64 steps"):
        OccupancyGrid(2, (-1e15, 0, 0), 0.01, np.zeros((2, 2, 2)))
    p = tmp_path / "g.psgrid"
    p.write_text("PSGRID 1\n1 1 1\n1e15 0 0\n0.01\n1\n")
    with pytest.raises(ValueError, match="float64 steps"):
        read_grid(p)
    # the limit sits at the grid's coordinate of largest magnitude, the far corner here
    h = RESOLUTION * 0.125
    g = splat([(1e15 + 1.5 * h,) * 3], 4, (1e15 - 2 * h,) * 3, h, saturate=False)
    assert g.values.sum() == 1.0
    with pytest.raises(ValueError, match="float64 steps"):
        splat([(0.0, 0, 0)], 4, (1e15 - 2 * h, 0, 0), h * (1 - 2**-52))


def test_occupancy_grid_shape_check():
    with pytest.raises(ValueError):
        OccupancyGrid(3, (0, 0, 0), 1.0, np.zeros((3, 3, 2)))
    with pytest.raises(ValueError):
        OccupancyGrid(2, (0, 0, 0), 0.0, np.zeros((2, 2, 2)))
    for origin, h in (((0, np.nan, 0), 1.0), ((0, 0, np.inf), 1.0),
                      ((0, 0, 0), np.inf)):
        with pytest.raises(ValueError):
            OccupancyGrid(2, origin, h, np.zeros((2, 2, 2)))
