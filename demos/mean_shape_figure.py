"""Mean shapes of ambiguous shape distributions, Chamfer vs assignment.

For each family we run plain SGD on a free point set against random
draws from the distribution and save an SVG overlaying the result on 20
silhouettes. The interesting contrast is circle_radius: the assignment
metric averages radially into a thin mid-radius ring, while Chamfer
leaves points smeared across the annulus. corner_square shows Chamfer
parking a few points in all four corner positions at once.

Defaults are sized to finish in about a minute; pass --full for the
heavier settings used in the acceptance suite.
"""

import argparse
import os

import numpy as np

from psm.meanshape import (SgdConfig, ShapeDistributionSpec, emit_plot,
                           optimize_mean_shape, region_fractions)

ap = argparse.ArgumentParser()
ap.add_argument("--full", action="store_true", help="defaults-sized runs")
ap.add_argument("--out", default="out_meanshape")
args = ap.parse_args()

os.makedirs(args.out, exist_ok=True)
if args.full:
    n_points, steps = 256, 2000
else:
    n_points, steps = 96, 500

runs = [
    ("circle_radius", "emd"),
    ("circle_radius", "cd"),
    ("spiky_arc", "cd"),
    ("corner_square", "cd"),
    ("bar_disk", "cd"),
]

for family, metric in runs:
    spec = ShapeDistributionSpec(family, n_points=n_points)
    cfg = SgdConfig(metric=metric, steps=steps, seed=7)
    x, trace = optimize_mean_shape(spec, cfg)
    path = os.path.join(args.out, "%s_%s.svg" % (family, metric))
    emit_plot(x, spec, path)
    print("%-14s %-3s  loss %10.5f -> %10.5f   %s"
          % (family, metric, trace[0], trace[-1], path))

    if family == "circle_radius":
        c = spec.params["center"]
        r = np.linalg.norm(x[:, :2] - c, axis=1)
        print("   radial spread (rms dev): %.4f  mean radius %.4f"
              % (np.sqrt(np.mean((r - r.mean()) ** 2)), r.mean()))
    regions = region_fractions(x, spec)
    if regions is not None:
        key, fracs = regions
        print("   %s:" % key.replace("_", " "), " ".join("%.3f" % f for f in fracs))
