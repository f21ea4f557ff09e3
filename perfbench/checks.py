"""Output checks for the benchmark, computed apart from psm.

Every reference here is built from numpy and scipy alone: cKDTree for
nearest neighbours, linear_sum_assignment for the optimal matching and
np.bincount for the trilinear splat. Nothing compares against a stored
copy of an earlier output. Each check raises CheckFailed with a one-line
reason, or returns None.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

# psm evaluates squared distances through cdist, cKDTree through its own
# loop; the sums differ only by rounding, far below this.
RTOL = 1e-9


class CheckFailed(Exception):
    pass


def _close(got, want, what):
    if not abs(got - want) <= RTOL * max(abs(want), 1e-300):
        raise CheckFailed(f"{what}: psm {got!r}, reference {want!r}")


def read_xyz(path):
    return np.loadtxt(path, dtype=np.float64, comments="#", ndmin=2).reshape(-1, 3)


def read_grid(path):
    """(dims, origin, cell, values) from a PSGRID 1 file."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[0] != "PSGRID 1":
        raise CheckFailed(f"{path}: bad header {lines[0]!r}")
    d = int(lines[1].split()[0])
    origin = np.array([float(t) for t in lines[2].split()])
    cell = float(lines[3])
    values = np.array(" ".join(lines[4:]).split(), dtype=np.float64)
    if values.size != d ** 3:
        raise CheckFailed(f"{path}: {values.size} values for dims {d}")
    return d, origin, cell, values.reshape(d, d, d)


def chamfer_reference(a, b):
    """Summed squared nearest-neighbour distances in both directions."""
    dab, _ = cKDTree(b).query(a)
    dba, _ = cKDTree(a).query(b)
    return float(np.sum(dab * dab) + np.sum(dba * dba))


def check_chamfer(a, b, value):
    _close(value, chamfer_reference(a, b), "chamfer")


def assignment_optimum(a, b):
    cost = cdist(a, b)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def check_assignment(a, b, value, achieved_eps, target_eps):
    """optimum <= value <= (1 + achieved_eps) optimum, achieved_eps <= target."""
    opt = assignment_optimum(a, b)
    slack = RTOL * opt
    if achieved_eps is None:
        achieved_eps = 0.0  # the exact route certifies optimality
    if not achieved_eps <= target_eps:
        raise CheckFailed(f"assignment: achieved_eps {achieved_eps!r} > target {target_eps!r}")
    if value < opt - slack:
        raise CheckFailed(f"assignment: value {value!r} below the optimum {opt!r}")
    if value > (1.0 + achieved_eps) * opt + slack:
        raise CheckFailed(f"assignment: value {value!r} above (1 + {achieved_eps!r}) * {opt!r}")


def check_fps(inp, out, k):
    """Distinct input rows whose min pairwise distance >= covering radius.

    For greedy max-min selection the k-th pick's distance to the earlier
    picks bounds both quantities, which certifies the 2-approximation.
    """
    if out.shape != (k, 3):
        raise CheckFailed(f"fps: output shape {out.shape}, expected ({k}, 3)")
    rows = set(map(tuple, inp.tolist()))
    foreign = [i for i, r in enumerate(map(tuple, out.tolist())) if r not in rows]
    if foreign:
        raise CheckFailed(f"fps: output row {foreign[0]} is not an input row")
    tree = cKDTree(out)
    d2, _ = tree.query(out, k=2)
    min_pair = float(d2[:, 1].min())
    if not min_pair > 0.0:
        raise CheckFailed("fps: output rows are not distinct")
    cover = float(tree.query(inp)[0].max())
    if min_pair < cover * (1.0 - RTOL):
        raise CheckFailed(f"fps: min pairwise distance {min_pair!r} < covering radius {cover!r}")


def splat_reference(pts, dims, origin, cell):
    """Trilinear point-cube splat into a dims^3 grid, saturated at 1."""
    pts = np.clip(pts, origin, origin + dims * cell)
    u = (pts - origin) / cell - 0.5
    i0 = np.floor(u).astype(np.int64)
    f = u - i0
    cells, weights = [], []
    for corner in range(8):
        off = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
        c = i0 + off
        w = np.prod(np.where(off == 1, f, 1.0 - f), axis=1)
        ok = ((c >= 0) & (c < dims)).all(axis=1)
        cells.append((c[ok, 0] * dims + c[ok, 1]) * dims + c[ok, 2])
        weights.append(w[ok])
    flat = np.bincount(np.concatenate(cells), np.concatenate(weights),
                       minlength=dims ** 3)
    return np.minimum(flat, 1.0).reshape(dims, dims, dims)


def check_voxels(pts, grid_path, dims, origin, cell, threshold):
    """The grid file equals the reference splat binarized at threshold.

    Sums taken in another order may land on either side of the threshold
    when a cell's mass equals it up to rounding; only such cells may differ.
    """
    d, g_origin, g_cell, values = read_grid(grid_path)
    if d != dims or g_cell != cell or not np.array_equal(g_origin, origin):
        raise CheckFailed(f"voxels: geometry {d} {g_origin} {g_cell} in {grid_path}")
    ref = splat_reference(pts, dims, np.asarray(origin, dtype=np.float64), cell)
    want = (ref >= threshold).astype(np.float64)
    bad = (values != want) & (np.abs(ref - threshold) > 1e-9)
    if bad.any():
        x, y, z = np.argwhere(bad)[0]
        raise CheckFailed(f"voxels: cell ({x}, {y}, {z}) is {values[x, y, z]!r}, "
                          f"reference mass {ref[x, y, z]!r}")
    return values


def check_iou(g1, g2, value):
    a, b = g1 > 0, g2 > 0
    union = int(np.count_nonzero(a | b))
    want = 1.0 if union == 0 else np.count_nonzero(a & b) / union
    if value != want:
        raise CheckFailed(f"iou: psm {value!r}, counts give {want!r}")


def check_mon(gt, cands, value, index):
    """Value is the minimum reference Chamfer; index is its first argmin."""
    ref = [chamfer_reference(c, gt) for c in cands]
    best = min(ref)
    first = next(j for j, v in enumerate(ref) if v <= best * (1.0 + RTOL))
    _close(value, best, "mon value")
    if index != first:
        raise CheckFailed(f"mon: argmin {index}, reference first argmin {first}")


def check_trace(trace):
    """Finite, and the last tenth averages below the first tenth."""
    trace = np.asarray(trace, dtype=np.float64)
    if not np.isfinite(trace).all():
        raise CheckFailed("meanshape: trace is not finite")
    tenth = max(1, len(trace) // 10)
    head, tail = trace[:tenth].mean(), trace[-tenth:].mean()
    if not tail < head:
        raise CheckFailed(f"meanshape: last tenth mean {tail!r} >= first tenth mean {head!r}")


def metric_reference(x, shape, metric):
    if metric == "cd":
        return chamfer_reference(x, shape)
    return assignment_optimum(x, shape)


def check_metric_at(x, shapes, metric, psm_values):
    """psm's metric of x against fixed draws equals the reference."""
    for s, v in zip(shapes, psm_values):
        _close(v, metric_reference(x, s, metric), f"meanshape {metric} at the final set")
