"""Reproduce the per-operation baseline table of ROADMAP.md.

    python3 perfbench/baseline.py

Run from the repository root (psm comes from ./src). Prints a markdown
table of wall milliseconds on uniform random clouds in the unit cube
(seed 0): Chamfer best of 3, the one-cdist step reference best of 20,
everything else a single run, as in the ROADMAP table. Takes about 40 s
and up to ~0.5 GiB (the s=4096 cost matrices).
"""

import os
import sys
import tempfile
from time import perf_counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def ms(fn, repeat=1):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = perf_counter()
        out = fn()
        best = min(best, perf_counter() - t0)
    return 1e3 * best, out


def main():
    run.import_psm()
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial import cKDTree
    from scipy.spatial.distance import cdist

    from psm import io as psio
    from psm.chamfer import chamfer_distance
    from psm.emd import AuctionParams, emd_auction, emd_exact
    from psm.meanshape import (SgdConfig, ShapeDistributionSpec, draw_shape,
                               optimize_mean_shape)
    from psm.sampling import farthest_point_sample

    rng = np.random.default_rng(0)
    rows = []

    def ckdtree_cd(a, b):
        return (np.sum(cKDTree(b).query(a)[0] ** 2)
                + np.sum(cKDTree(a).query(b)[0] ** 2))

    for n in (1024, 4096, 16384):
        a, b = rng.random((n, 3)), rng.random((n, 3))
        brute = ms(lambda: chamfer_distance(a, b, backend="brute"), 3)[0]
        kd = ms(lambda: chamfer_distance(a, b, backend="kdtree"), 3)[0]
        ref = ms(lambda: ckdtree_cd(a, b), 3)[0]
        rows.append((f"Chamfer n={n} brute / kdtree", f"{brute:.0f} / {kd:.0f}",
                     f"cKDTree {ref:.1f}"))
    a, b = rng.random((65536, 3)), rng.random((65536, 3))
    kd = ms(lambda: chamfer_distance(a, b, backend="kdtree"), 3)[0]
    ref = ms(lambda: ckdtree_cd(a, b), 3)[0]
    rows.append(("Chamfer n=65536 kdtree", f"{kd:.0f}", f"cKDTree {ref:.0f}"))

    def lsa(a, b):
        cost = cdist(a, b)
        r, c = linear_sum_assignment(cost)
        return cost[r, c].sum()

    a, b = rng.random((256, 3)), rng.random((256, 3))
    ex = ms(lambda: emd_exact(a, b))[0]
    au = ms(lambda: emd_auction(a, b))[0]
    rows.append(("EMD s=256 exact / auction", f"{ex:.1f} / {au:.0f}", ""))
    for s in (1024, 2048, 4096):
        a, b = rng.random((s, 3)), rng.random((s, 3))
        au, (res, _, eps) = ms(lambda: emd_auction(a, b, AuctionParams()))
        ref, opt = ms(lambda: lsa(a, b))
        note = (f", rel err {100 * (res.value / opt - 1):.1f} %, achieved_eps {eps:.3g}"
                if s == 4096 else "")
        rows.append((f"EMD s={s} auction, default 1 s budget", f"{au:.0f}{note}",
                     f"direct LSA {ref:.0f}"))

    def cd_grad_one_cdist(x, shape):
        d2 = cdist(x, shape, "sqeuclidean")
        ia, ib = d2.argmin(axis=1), d2.argmin(axis=0)
        grad = 2.0 * (x - shape[ia])
        np.add.at(grad, ib, 2.0 * (x[ib] - shape))
        return d2.min(axis=1).sum() + d2.min(axis=0).sum(), grad

    steps = 50
    x = rng.random((256, 3))
    shapes = [draw_shape(ShapeDistributionSpec("corner_square"), rng) for _ in range(8)]
    one = ms(lambda: [cd_grad_one_cdist(x, s) for s in shapes], 20)[0]
    for metric, family in (("cd", "corner_square"), ("emd", "circle_radius")):
        spec = ShapeDistributionSpec(family)
        cfg = SgdConfig(metric=metric, steps=steps, batch=8, seed=0)
        t = [ms(lambda: optimize_mean_shape(spec, cfg, threads=k))[0] / steps
             for k in (1, 2)]
        rows.append((f"meanshape step, {metric}, batch 8, m=256, threads 1 / 2",
                     f"{t[0]:.1f} / {t[1]:.1f}",
                     f"one cdist per pair: {one:.1f}" if metric == "cd" else ""))

    pts = rng.random((20000, 3))
    rows.append(("FPS 20000 -> 1024",
                 f"{ms(lambda: farthest_point_sample(pts, 1024))[0]:.0f}", ""))
    with tempfile.TemporaryDirectory(dir=run.ROOT) as d:
        path = os.path.join(d, "p.xyz")
        w = ms(lambda: psio.write_xyz(pts, path))[0]
        r = ms(lambda: psio.read_xyz(path))[0]
    rows.append(("read_xyz / write_xyz, 20k points", f"{r:.0f} / {w:.0f}", ""))

    print(f"machine: {run.machine(0)}")
    print("| case | now | reference point |\n|---|---|---|")
    for case, now, ref in rows:
        print(f"| {case} | {now} | {ref} |")


if __name__ == "__main__":
    main()
