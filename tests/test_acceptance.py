"""Acceptance gate: one test per release criterion.

Run with -v to get one pass/fail line per criterion. Each test restates
its tolerance and time budget inline; seeds are fixed so reruns are
comparable. Criterion 5's corner check drops an artifact and warns on a
miss; pyproject.toml turns that warning into an error, so a miss fails.
"""

import itertools
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from psm.chamfer import chamfer_distance
from psm.core import RandomSource
from psm.emd import AuctionParams, emd, emd_auction, emd_exact
from psm.losses import CandidateBundle, mon_loss
from psm.meanshape import (SgdConfig, ShapeDistributionSpec, corner_regions,
                           emit_plot, optimize_mean_shape)
from psm.voxel import OccupancyGrid, grid_unit_scale, iou, splat


def test_criterion_1_auction_accuracy_at_s256():
    # 100 seeded uniform-cube instances, s=256: default auction within
    # 1% of exact in at least 95 of them, under 60 s total.
    t0 = time.perf_counter()
    ok = 0
    for src in RandomSource(101).split(100):
        a = src.gen.random((256, 3))
        b = src.gen.random((256, 3))
        exact, _ = emd_exact(a, b)
        approx, _, _ = emd_auction(a, b, AuctionParams())
        if (approx.value - exact.value) / exact.value <= 0.01:
            ok += 1
    elapsed = time.perf_counter() - t0
    assert ok >= 95, f"only {ok}/100 trials within 1% of exact"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_2_exact_solver_vs_enumeration():
    # 500 seeded instances with s <= 8: exact solver equals exhaustive
    # enumeration over all s! bijections within 1e-10 relative, under 30 s.
    t0 = time.perf_counter()
    perms_cache = {s: np.array(list(itertools.permutations(range(s))))
                   for s in range(1, 9)}
    rng = RandomSource(202)
    for _ in range(500):
        s = int(rng.integers(1, 9))
        a = rng.gen.random((s, 3))
        b = rng.gen.random((s, 3))
        cost = np.linalg.norm(a[:, None] - b[None], axis=2)
        perms = perms_cache[s]
        best = cost[np.arange(s)[None, :], perms].sum(axis=1).min()
        res, _ = emd_exact(a, b)
        assert abs(res.value - best) <= 1e-10 * max(best, 1e-300)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_3_chamfer_backend_equivalence():
    # 200 seeded random pairs with sizes up to 4096: brute and kd-tree
    # values agree within 1e-12 relative, under 60 s.
    t0 = time.perf_counter()
    rng = RandomSource(303)
    for _ in range(200):
        na = int(rng.integers(1, 4097))
        nb = int(rng.integers(1, 4097))
        a = rng.gen.random((na, 3))
        b = rng.gen.random((nb, 3))
        v1 = chamfer_distance(a, b, backend="brute").value
        v2 = chamfer_distance(a, b, backend="kdtree").value
        assert abs(v1 - v2) <= 1e-12 * max(abs(v1), 1e-300)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def _fd_grad(fn, x, h=1e-5):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def _nn_gaps_ok(a, b, margin=1e-3):
    for p, q in ((a, b), (b, a)):
        d2 = np.sort(((p[:, None] - q[None]) ** 2).sum(-1), axis=1)
        if d2.shape[1] == 1:
            continue
        if (d2[:, 1] - d2[:, 0] <= margin).any():
            return False
    return True


def _emd_margin_ok(a, b, margin=1e-3):
    s = len(a)
    cost = np.linalg.norm(a[:, None] - b[None], axis=2)
    if cost.min() <= margin:  # coincident matched pair would sit on a kink
        return False
    totals = np.sort([cost[np.arange(s), p].sum()
                      for p in itertools.permutations(range(s))])
    return len(totals) == 1 or totals[1] - totals[0] > margin


def test_criterion_4_gradients_match_finite_differences():
    # 50 margin-filtered instances per metric: analytic gradients vs
    # central differences (h=1e-5) within 1e-4 relative, norm-wise.
    accepted = 0
    for src in RandomSource(404).split(400):
        if accepted == 50:
            break
        a = src.gen.random((7, 3))
        b = src.gen.random((9, 3))
        if not _nn_gaps_ok(a, b):
            continue
        accepted += 1
        res = chamfer_distance(a, b, want_grad=True)
        fa = _fd_grad(lambda x: chamfer_distance(x, b).value, a)
        fb = _fd_grad(lambda x: chamfer_distance(a, x).value, b)
        assert np.linalg.norm(res.grad_a - fa) <= 1e-4 * np.linalg.norm(fa)
        assert np.linalg.norm(res.grad_b - fb) <= 1e-4 * np.linalg.norm(fb)
    assert accepted == 50, "margin filter starved the CD sample"

    accepted = 0
    for src in RandomSource(405).split(400):
        if accepted == 50:
            break
        a = src.gen.random((6, 3))
        b = src.gen.random((6, 3))
        if not _emd_margin_ok(a, b):
            continue
        accepted += 1
        res = emd(a, b, want_grad=True)
        fa = _fd_grad(lambda x: emd(x, b).value, a)
        fb = _fd_grad(lambda x: emd(a, x).value, b)
        assert np.linalg.norm(res.grad_a - fa) <= 1e-4 * np.linalg.norm(fa)
        assert np.linalg.norm(res.grad_b - fb) <= 1e-4 * np.linalg.norm(fb)
    assert accepted == 50, "margin filter starved the EMD sample"


def _radial_rms_dev(x, center):
    r = np.linalg.norm(x[:, :2] - np.asarray(center), axis=1)
    return float(np.sqrt(np.mean((r - r.mean()) ** 2)))


def test_criterion_5_mean_shape_qualitative():
    # circle_radius, defaults, seed 7: the assignment-metric mean shape
    # collapses radially (RMS radial deviation < 25% of the radial std of
    # the distribution) while the Chamfer mean shape stays more spread.
    spec = ShapeDistributionSpec("circle_radius")
    radial_std = (spec.params["r_max"] - spec.params["r_min"]) / np.sqrt(12.0)

    t0 = time.perf_counter()
    x_emd, _ = optimize_mean_shape(spec, SgdConfig(metric="emd", seed=7))
    assert time.perf_counter() - t0 < 300.0
    dev_emd = _radial_rms_dev(x_emd, spec.params["center"])
    assert dev_emd < 0.25 * radial_std, (dev_emd, radial_std)

    t0 = time.perf_counter()
    x_cd, _ = optimize_mean_shape(spec, SgdConfig(metric="cd", seed=7))
    assert time.perf_counter() - t0 < 300.0
    dev_cd = _radial_rms_dev(x_cd, spec.params["center"])
    assert dev_cd > dev_emd, (dev_cd, dev_emd)

    # corner_square, CD, seed 7: at least 1% of points in each of the four
    # corner regions. Hyperparameters for the reference behavior are not
    # published, so a miss drops the SVG for review and warns; the warning
    # filter in pyproject.toml makes that warning fail the test.
    spec_c = ShapeDistributionSpec("corner_square")
    t0 = time.perf_counter()
    x_c, _ = optimize_mean_shape(spec_c, SgdConfig(metric="cd", seed=7))
    assert time.perf_counter() - t0 < 300.0
    fractions = []
    for x0, y0, x1, y1 in corner_regions(spec_c):
        inside = ((x_c[:, 0] >= x0) & (x_c[:, 0] <= x1)
                  & (x_c[:, 1] >= y0) & (x_c[:, 1] <= y1))
        fractions.append(np.count_nonzero(inside) / len(x_c))
    if min(fractions) < 0.01:
        art = Path(__file__).parent / "artifacts"
        art.mkdir(exist_ok=True)
        emit_plot(x_c, spec_c, art / "corner_square_seed7.svg")
        warnings.warn(
            "corner fractions {} below 1%; see {}".format(
                [f"{f:.4f}" for f in fractions],
                art / "corner_square_seed7.svg"))


def test_criterion_6_min_of_n_properties():
    # n=1 equality is exact, and the loss never increases as candidates
    # are appended (200 random bundles).
    rng = RandomSource(606)
    for metric in ("cd", "emd"):
        for _ in range(20):
            n = int(rng.integers(1, 20))
            gt = rng.gen.random((n, 3))
            cand = rng.gen.random((n, 3))
            single = mon_loss(CandidateBundle([cand], gt, metric))[0]
            if metric == "cd":
                direct = chamfer_distance(cand, gt).value
            else:
                direct = emd(cand, gt).value
            assert single == direct

    for _ in range(200):
        n = int(rng.integers(1, 16))
        gt = rng.gen.random((n, 3))
        cands = [rng.gen.random((n, 3)) for _ in range(int(rng.integers(1, 7)))]
        prev = np.inf
        for k in range(1, len(cands) + 1):
            value, _ = mon_loss(CandidateBundle(cands[:k], gt, "cd"))
            assert value <= prev + 1e-12
            prev = value


def test_criterion_7_voxel_suite():
    # placement symmetry exact to 1e-12, mass conservation, IoU edge
    # cases, and the grid reporting unit.
    g = splat(np.array([[1.5, 1.5, 1.5]]), 3, [0, 0, 0], 1.0)
    assert abs(g.values[1, 1, 1] - 1.0) <= 1e-12
    assert abs(g.values.sum() - 1.0) <= 1e-12

    g = splat(np.array([[1.0, 1.5, 1.5]]), 3, [0, 0, 0], 1.0)
    assert abs(g.values[0, 1, 1] - 0.5) <= 1e-12
    assert abs(g.values[1, 1, 1] - 0.5) <= 1e-12

    g = splat(np.array([[1.0, 1.0, 1.0]]), 3, [0, 0, 0], 1.0)
    corner = g.values[0:2, 0:2, 0:2]
    assert np.all(np.abs(corner - 0.125) <= 1e-12)

    rng = RandomSource(707)
    pts = rng.gen.random((40, 3)) * 6.0 + 1.0  # interior, no clipping
    g = splat(pts, 8, [0, 0, 0], 1.0, saturate=False)
    assert abs(g.values.sum() - 40.0) <= 1e-9

    ones = OccupancyGrid(3, [0, 0, 0], 1.0, np.ones((3, 3, 3)))
    zeros = OccupancyGrid(3, [0, 0, 0], 1.0, np.zeros((3, 3, 3)))
    left = np.zeros((3, 3, 3))
    left[0] = 1.0
    right = np.zeros((3, 3, 3))
    right[2] = 1.0
    assert iou(ones, ones) == 1.0
    assert iou(OccupancyGrid(3, [0, 0, 0], 1.0, left),
               OccupancyGrid(3, [0, 0, 0], 1.0, right)) == 0.0
    assert iou(zeros, zeros) == 1.0

    assert grid_unit_scale(32, 1.0) == pytest.approx(3.2, abs=1e-15)


def test_criterion_8_out_of_scope_numbers_absent():
    # Published per-category IoU tables and baseline comparisons need
    # trained networks plus an external dataset; this library ships
    # neither. The scope boundary is part of the contract: no dataset
    # loaders or model inference hide behind the public API.
    import psm
    import psm.chamfer
    import psm.cli
    import psm.emd
    import psm.losses
    import psm.meanshape
    import psm.sampling
    import psm.voxel

    for mod in (psm, psm.chamfer, psm.emd, psm.losses, psm.meanshape,
                psm.sampling, psm.voxel, psm.cli):
        names = " ".join(n.lower() for n in dir(mod))
        for banned in ("shapenet", "r2n2", "dataset", "inference"):
            assert banned not in names, (mod.__name__, banned)
    print("scope note: per-category IoU tables and learned-model "
          "comparisons are out of scope; the property suites above "
          "constitute acceptance.")
