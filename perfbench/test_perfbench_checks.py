"""Each benchmark check accepts psm's real output and rejects a corrupted one."""

import numpy as np
import pytest

import checks
from psm import io as psio
from psm.chamfer import chamfer_distance
from psm.emd import emd_auction, emd_exact
from psm.losses import CandidateBundle, mon_loss
from psm.sampling import farthest_point_sample
from psm.voxel import binarize, iou, splat


def _clouds(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3)), rng.random((n, 3))


def test_chamfer_rejects_shifted_value():
    a, b = _clouds(300)
    value = chamfer_distance(a, b).value
    checks.check_chamfer(a, b, value)
    with pytest.raises(checks.CheckFailed):
        checks.check_chamfer(a, b, value * (1 + 1e-6))


def test_fps_rejects_non_input_and_repeated_rows():
    pts = np.round(_clouds(2000)[0] * 16) / 16  # lattice: many duplicates
    out = farthest_point_sample(pts, 64, seed=3)
    checks.check_fps(pts, out, 64)
    moved = out.copy()
    moved[5] += 1e-3
    with pytest.raises(checks.CheckFailed, match="not an input row"):
        checks.check_fps(pts, moved, 64)
    repeated = out.copy()
    repeated[7] = repeated[2]
    with pytest.raises(checks.CheckFailed, match="not distinct"):
        checks.check_fps(pts, repeated, 64)
    with pytest.raises(checks.CheckFailed, match="covering radius"):
        checks.check_fps(pts, np.unique(pts, axis=0)[:64], 64)


def test_assignment_rejects_value_past_bound():
    a, b = _clouds(128, seed=1)
    res, _, eps = emd_auction(a, b)
    checks.check_assignment(a, b, res.value, eps, 0.01)
    opt = emd_exact(a, b)[0].value
    checks.check_assignment(a, b, opt, None, 0.01)
    with pytest.raises(checks.CheckFailed, match="above"):
        checks.check_assignment(a, b, (1 + eps) * opt * 1.001, eps, 0.01)
    with pytest.raises(checks.CheckFailed, match="below"):
        checks.check_assignment(a, b, opt * 0.999, eps, 0.01)
    with pytest.raises(checks.CheckFailed, match="achieved_eps"):
        checks.check_assignment(a, b, res.value, 0.02, 0.01)


def test_mon_rejects_wrong_argmin_and_value():
    gt, far = _clouds(200, seed=2)
    near = gt + 0.01
    cands = [far, near, near.copy(), gt + 0.05]
    value, index = mon_loss(CandidateBundle(cands, gt, "cd"), threads=2)
    checks.check_mon(gt, cands, value, index)
    assert index == 1
    with pytest.raises(checks.CheckFailed, match="argmin"):
        checks.check_mon(gt, cands, value, 2)
    with pytest.raises(checks.CheckFailed, match="mon value"):
        checks.check_mon(gt, cands, value * (1 + 1e-6), index)


def test_voxels_and_iou_reject_flipped_cell(tmp_path):
    a, b = _clouds(3000, seed=4)
    origin = np.full(3, -0.1)
    cell = 1.2 / 16
    paths = []
    for name, pts in (("a", a), ("b", b)):
        path = str(tmp_path / f"{name}.psgrid")
        psio.write_grid(binarize(splat(pts, 16, origin, cell), 0.25), path)
        paths.append(path)
    ga = checks.check_voxels(a, paths[0], 16, origin, cell, 0.25)
    gb = checks.check_voxels(b, paths[1], 16, origin, cell, 0.25)
    value = iou(psio.read_grid(paths[0]), psio.read_grid(paths[1]))
    checks.check_iou(ga, gb, value)
    with pytest.raises(checks.CheckFailed, match="iou"):
        checks.check_iou(ga, gb, value + 1e-12)
    g = psio.read_grid(paths[0])
    g.values[3, 4, 5] = 1.0 - g.values[3, 4, 5]
    psio.write_grid(g, paths[0])
    with pytest.raises(checks.CheckFailed, match="cell"):
        checks.check_voxels(a, paths[0], 16, origin, cell, 0.25)


def test_meanshape_checks_reject_bad_trace_and_value():
    checks.check_trace(np.linspace(2.0, 1.0, 100))
    with pytest.raises(checks.CheckFailed, match="last tenth"):
        checks.check_trace(np.linspace(1.0, 2.0, 100))
    with pytest.raises(checks.CheckFailed, match="finite"):
        checks.check_trace(np.r_[np.linspace(2.0, 1.0, 99), np.nan])
    x, s = _clouds(64, seed=5)
    for metric, value in (("cd", chamfer_distance(x, s, backend="brute").value),
                          ("emd", emd_exact(x, s)[0].value)):
        checks.check_metric_at(x, [s], metric, [value])
        with pytest.raises(checks.CheckFailed):
            checks.check_metric_at(x, [s], metric, [value * (1 + 1e-6)])
