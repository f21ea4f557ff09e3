"""Built-in invariant suite, runnable from the installed binary.

Each check covers one documented contract and re-derives its expectation
independently (linear scans, explicit enumeration, hand examples) rather
than trusting the module under test. Kept fast enough for routine use.
"""

import itertools
import json
import os
import tempfile

import numpy as np

from . import io as psio
from .chamfer import KdTree, chamfer_distance
from .core import RandomSource
from .emd import emd_auction, emd_exact
from .errors import ParseError, UnknownFamily
from .losses import CandidateBundle, batch_loss, mon_loss
from .meanshape import ShapeDistributionSpec, corner_regions, draw_shape
from .sampling import farthest_point_sample
from .voxel import OccupancyGrid, binarize, grid_unit_scale, iou, splat


def _nn_scan(q, pts):
    d2 = ((q[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2.min(axis=1)


def check_core_random_reproducible():
    a = RandomSource(42).random(100)
    b = RandomSource(42).random(100)
    assert np.array_equal(a, b)
    kids1 = [r.random(10) for r in RandomSource(7).split(3)]
    kids2 = [r.random(10) for r in RandomSource(7).split(3)]
    for x, y in zip(kids1, kids2):
        assert np.array_equal(x, y)


def check_io_roundtrips():
    rng = RandomSource(3)
    pts = rng.gen.normal(size=(200, 3)) * 10.0 ** rng.gen.integers(-8, 8, (200, 1))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.xyz")
        psio.write_xyz(pts, path)
        bom_path = os.path.join(d, "bom.xyz")  # the same file after a UTF-8 BOM
        with open(path, "rb") as src, open(bom_path, "wb") as dst:
            dst.write(b"\xef\xbb\xbf" + src.read())
        for p in (path, bom_path):
            assert np.array_equal(pts, psio.read_xyz(p))
        gpath = os.path.join(d, "t.grid")
        grid = OccupancyGrid(5, [0.5, -1.0, 2.0], 0.25,
                             rng.gen.random((5, 5, 5)))
        psio.write_grid(grid, gpath)
        gback = psio.read_grid(gpath)
        assert np.array_equal(grid.values, gback.values)
        assert np.array_equal(grid.origin, gback.origin)
        assert grid.cell_size == gback.cell_size
        spath = os.path.join(d, "s.json")
        with open(spath, "w", encoding="utf-8") as fh:
            json.dump({"family": "circle_radius", "r_min": 0.5, "r_max": 1.5,
                       "n_points": 64}, fh)
        spec = psio.read_distribution_spec(spath)
        assert spec.params["r_min"] == 0.5 and spec.n_points == 64
        with open(spath, "w", encoding="utf-8") as fh:
            json.dump({"family": "torus"}, fh)
        try:
            psio.read_distribution_spec(spath)
            raise AssertionError("UnknownFamily not raised")
        except UnknownFamily:
            pass
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("0 0\n")
        try:
            psio.read_xyz(path)
            raise AssertionError("ParseError not raised")
        except ParseError as e:
            assert e.line == 1


def check_chamfer_hand_values():
    res = chamfer_distance([(0, 0, 0), (1, 1, 1)], [(0, 0, 0), (1, 1, 1)],
                           want_grad=True)
    assert res.value == 0.0
    assert np.all(res.grad_a == 0) and np.all(res.grad_b == 0)
    res = chamfer_distance([(0, 0, 0)], [(1, 0, 0)], want_grad=True)
    assert abs(res.value - 2.0) < 1e-15
    assert np.allclose(res.grad_a, [[-4.0, 0.0, 0.0]])
    res = chamfer_distance([(0, 0, 0), (10, 0, 0)], [(1, 0, 0)])
    assert abs(res.value - 83.0) < 1e-12


def check_chamfer_invariances():
    rng = RandomSource(5)
    for _ in range(10):
        a = rng.gen.random((30, 3))
        b = rng.gen.random((40, 3))
        v = chamfer_distance(a, b).value
        assert v >= 0
        assert abs(chamfer_distance(b, a).value - v) < 1e-12 * max(v, 1)
        p = rng.gen.permutation(len(a))
        assert abs(chamfer_distance(a[p], b).value - v) < 1e-12 * max(v, 1)
        t = rng.gen.normal(size=3)
        assert abs(chamfer_distance(a + t, b + t).value - v) < 1e-9 * max(v, 1)
    sh = RandomSource(6).gen.permutation(20)
    a = RandomSource(9).gen.random((20, 3))
    assert chamfer_distance(a, a[sh]).value == 0.0


def check_chamfer_backends_and_tree():
    rng = RandomSource(8)
    for n in (1, 2, 17, 128, 512):
        a = rng.gen.random((n, 3))
        b = rng.gen.random((max(1, n // 2), 3))
        vb = chamfer_distance(a, b, backend="brute").value
        vk = chamfer_distance(a, b, backend="kdtree").value
        assert vb == vk
    pts = rng.gen.random((500, 3))
    pts[100:200] = pts[0]  # duplicates
    pts[:, 2] = 0.25  # planar degeneracy
    tree = KdTree(pts)
    q = rng.gen.random((100, 3))
    ti, td2 = tree.query(q)
    si, sd2 = _nn_scan(q, pts)
    assert np.array_equal(td2, sd2) and np.array_equal(ti, si)


def check_chamfer_gradient_fd():
    rng = RandomSource(12)
    a = rng.gen.random((8, 3))
    b = rng.gen.random((9, 3)) + 2.0  # offset keeps margins comfortable
    res = chamfer_distance(a, b, want_grad=True)
    h = 1e-5
    for i in (0, 3):
        for c in range(3):
            ap = a.copy(); ap[i, c] += h
            am = a.copy(); am[i, c] -= h
            fd = (chamfer_distance(ap, b).value
                  - chamfer_distance(am, b).value) / (2 * h)
            an = res.grad_a[i, c]
            assert abs(fd - an) <= 1e-4 * max(abs(an), 1e-3)


def check_emd_exact_vs_enumeration():
    rng = RandomSource(21)
    for _ in range(30):
        s = int(rng.integers(1, 7))
        a = rng.gen.random((s, 3))
        b = rng.gen.random((s, 3))
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        best = min(cost[range(s), p].sum()
                   for p in itertools.permutations(range(s)))
        res, asg = emd_exact(a, b)
        assert abs(res.value - best) <= 1e-10 * max(best, 1e-30)
        assert sorted(asg.perm.tolist()) == list(range(s))


def check_emd_auction_sound():
    rng = RandomSource(23)
    for s in (32, 64):
        for _ in range(5):
            a = rng.gen.random((s, 3))
            b = rng.gen.random((s, 3))
            exact = emd_exact(a, b)[0].value
            res = emd_auction(a, b)[0]
            assert res.value >= exact - 1e-9
            assert res.value <= (1 + res.achieved_eps) * exact + 1e-9
    a = rng.gen.random((50, 3))
    res = emd_auction(a, a.copy())[0]
    assert res.value == 0.0 and res.achieved_eps == 0.0


def check_sampling_fps():
    line = np.array([[float(i), 0.0, 0.0] for i in range(11)])
    out = farthest_point_sample(line, 3, start_index=0)
    assert out[:, 0].tolist() == [0.0, 10.0, 5.0]
    rng = RandomSource(31)
    pts = rng.gen.random((60, 3))
    sel = farthest_point_sample(pts, 12, seed=4)
    # greedy property, recomputed from scratch
    for i in range(1, 12):
        chosen = sel[:i]
        d2 = ((pts[:, None, :] - chosen[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        best = d2.max()
        picked = ((sel[i] - pts) ** 2).sum(axis=1).min()
        taken = ((chosen - sel[i]) ** 2).sum(axis=1).min()
        assert abs(taken - best) < 1e-12 and picked < 1e-12
    perm = farthest_point_sample(pts, len(pts), seed=0)
    assert np.array_equal(np.sort(perm, axis=0), np.sort(pts, axis=0))


def check_voxel_splat_cases():
    origin = [0.0, 0.0, 0.0]
    g = splat([[1.5, 2.5, 3.5]], 8, origin, 1.0)
    assert g.values[1, 2, 3] == 1.0 and g.values.sum() == 1.0
    g = splat([[2.0, 2.5, 2.5]], 8, origin, 1.0)
    assert g.values[1, 2, 2] == 0.5 and g.values[2, 2, 2] == 0.5
    g = splat([[3.0, 3.0, 3.0]], 8, origin, 1.0)
    block = g.values[2:4, 2:4, 2:4]
    assert np.all(block == 0.125) and g.values.sum() == 1.0
    rng = RandomSource(41)
    pts = 1.0 + 5.0 * rng.gen.random((20, 3))  # interior of an 8^3 grid
    raw = splat(pts, 8, origin, 1.0, saturate=False)
    assert abs(raw.values.sum() - 20.0) < 1e-12
    shifted = splat(pts + [1.0, 0.0, 0.0], 8, origin, 1.0, saturate=False)
    assert np.allclose(shifted.values[1:, :, :], raw.values[:-1, :, :], atol=1e-12)


def check_voxel_iou_and_scale():
    v1 = np.zeros((4, 4, 4)); v1[0, 0, 0] = 1; v1[1, 1, 1] = 1
    v2 = v1.copy(); v2[2, 2, 2] = 1; v2[3, 3, 3] = 1
    g1 = OccupancyGrid(4, [0, 0, 0], 1.0, v1)
    g2 = OccupancyGrid(4, [0, 0, 0], 1.0, v2)
    assert iou(g1, g1) == 1.0
    assert iou(g1, g2) == 0.5 and iou(g2, g1) == 0.5
    g3 = OccupancyGrid(4, [0, 0, 0], 1.0, np.zeros((4, 4, 4)))
    assert iou(g3, g3) == 1.0
    disj = OccupancyGrid(4, [0, 0, 0], 1.0, np.zeros((4, 4, 4)))
    disj.values[3, 0, 0] = 1
    assert iou(g1, disj) == 0.0
    assert grid_unit_scale(32, 1.0) == 3.2
    frac = OccupancyGrid(2, [0, 0, 0], 1.0, np.full((2, 2, 2), 0.4))
    bin1 = binarize(frac, 0.25)
    assert np.array_equal(binarize(bin1, 0.25).values, bin1.values)


def check_losses_mon():
    rng = RandomSource(51)
    for _ in range(10):
        gt = rng.gen.random((12, 3))
        cands = [rng.gen.random((12, 3)) for _ in range(4)]
        single = mon_loss(CandidateBundle(cands[:1], gt, "cd"))
        assert single[0] == chamfer_distance(cands[0], gt).value
        assert single[1] == 0
        prev = single[0]
        for n in range(2, 5):
            value, _ = mon_loss(CandidateBundle(cands[:n], gt, "cd"))
            assert value <= prev + 1e-15
            prev = value
    pairs = [(rng.gen.random((8, 3)), rng.gen.random((8, 3))) for _ in range(6)]
    v1 = batch_loss(pairs, "cd")
    v2 = batch_loss(list(reversed(pairs)), "cd")
    assert abs(v1 - v2) <= 1e-10 * max(v1, 1)


def check_meanshape_draws():
    rng = RandomSource(61)
    for family in ("circle_radius", "spiky_arc", "corner_square", "bar_disk"):
        spec = ShapeDistributionSpec(family, n_points=64)
        s = draw_shape(spec, rng)
        assert s.shape == (64, 3) and np.all(s[:, 2] == 0.0)
    spec = ShapeDistributionSpec("circle_radius", n_points=128,
                                 params={"r_min": 1.0, "r_max": 1.0})
    s = draw_shape(spec, rng)
    r = np.linalg.norm(s[:, :2] - [0.5, 0.5], axis=1)
    assert np.allclose(r, 1.0, atol=1e-12)
    spec = ShapeDistributionSpec("bar_disk", n_points=64, params={"p_disk": 0.0})
    for _ in range(5):
        s = draw_shape(spec, rng)
        assert np.all(np.abs(s[:, 1] - 0.5) <= 0.0500001)  # bar outline only
    spec = ShapeDistributionSpec("corner_square", n_points=32)
    counts = np.zeros(4)
    boxes = corner_regions(spec)
    for _ in range(2000):
        s = draw_shape(spec, rng)
        for k, (x0, y0, x1, y1) in enumerate(boxes):
            if np.any((s[:, 0] >= x0) & (s[:, 0] <= x1)
                      & (s[:, 1] >= y0) & (s[:, 1] <= y1)):
                counts[k] += 1
    freq = counts / 2000
    assert np.all(np.abs(freq - 0.25) < 0.04), freq


CHECKS = [
    ("core.random_source", check_core_random_reproducible),
    ("io.roundtrips", check_io_roundtrips),
    ("chamfer.hand_values", check_chamfer_hand_values),
    ("chamfer.invariances", check_chamfer_invariances),
    ("chamfer.backends", check_chamfer_backends_and_tree),
    ("chamfer.gradient_fd", check_chamfer_gradient_fd),
    ("emd.exact_vs_enumeration", check_emd_exact_vs_enumeration),
    ("emd.auction_soundness", check_emd_auction_sound),
    ("sampling.fps", check_sampling_fps),
    ("voxel.splat_cases", check_voxel_splat_cases),
    ("voxel.iou_scale", check_voxel_iou_and_scale),
    ("losses.mon", check_losses_mon),
    ("meanshape.draws", check_meanshape_draws),
]


def run_selftest():
    """One row per check of CHECKS, run on past failures: {"check": name,
    "ok": True}, or "ok" False with the exception's message as "detail"."""
    results = []
    for name, fn in CHECKS:
        try:
            fn()
            results.append({"check": name, "ok": True})
        except Exception as e:  # report every failure, keep going
            results.append({"check": name, "ok": False, "detail": str(e)})
    return results
