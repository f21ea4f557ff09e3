"""Command-line interface: every operation as a subcommand.

Exit codes: 0 success, 1 domain error (single `error: ...` line on stderr),
2 usage error. Scalar results print with 12 significant digits; --json on
any subcommand emits one machine-readable object instead (schemas in
docs/formats.md). No hidden state: every run is a pure function of its
flags and input files.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import io as psio
from .chamfer import chamfer_distance
from .emd import (EXACT_LIMIT, AuctionParams, default_backend, emd_auction,
                  emd_exact)
from .losses import METRICS, CandidateBundle, mon_loss
from .meanshape import (SgdConfig, corner_regions, emit_plot,
                        optimize_mean_shape)
from .sampling import farthest_point_sample
from .voxel import binarize, grid_unit_scale, iou, splat


def fmt12(v):
    """12 significant digits; zero prints as 0.000000000000."""
    v = float(v)
    if v == 0.0:
        return "0.000000000000"
    if not np.isfinite(v):
        return str(v)
    if 1e-4 <= abs(v) < 1e16:
        s = np.format_float_positional(v, precision=12, unique=False,
                                       fractional=False)
        return s.rstrip(".")
    return f"{v:.11e}"


def _emit(args, obj, human_lines):
    if args.json:
        print(json.dumps(obj))
    else:
        for line in human_lines:
            print(line)


def _parse_fields(text, flag, types, usage):
    """A flag's comma-separated fields, each converted by its type; a wrong
    count or a field its type refuses raises ValueError naming the flag."""
    try:
        return [t(p) for t, p in zip(types, text.split(","), strict=True)]
    except ValueError:
        raise ValueError(f"{flag} takes {usage}, got {text!r}") from None


def _scale_from(args):
    if args.grid_unit is None:
        return 1.0
    return grid_unit_scale(*_parse_fields(args.grid_unit, "--grid-unit", (int, float),
                                          "DIMS,CELL: an integer and a number"))


def _cmd_chamfer(args):
    a = psio.read_xyz(args.a)
    b = psio.read_xyz(args.b)
    res = chamfer_distance(a, b, want_grad=args.grad is not None,
                           normalize=args.normalize)
    scale = _scale_from(args)
    value = res.value / scale
    if args.grad is not None:
        psio.write_xyz(res.grad_a / scale, args.grad)
    _emit(args, {"command": "chamfer", "value": value, "backend": res.backend,
                 "normalize": args.normalize, "scale": scale},
          [fmt12(value)])
    return 0


def _cmd_emd(args):
    params = AuctionParams(args.eps, args.budget_entries)  # checked before any file is read
    a = psio.read_xyz(args.a)
    b = psio.read_xyz(args.b)
    want_grad = args.grad is not None
    if default_backend(len(a)) == "exact":
        res, assignment = emd_exact(a, b, want_grad)
    else:
        res, assignment, _ = emd_auction(a, b, params, want_grad)
    s = len(a)
    scale = _scale_from(args)
    div = scale * (s if args.normalize else 1)
    value = res.value / div
    if want_grad:
        psio.write_xyz(res.grad_a / div, args.grad)
    if args.dump_matching is not None:
        with open(args.dump_matching, "w", encoding="utf-8", newline="\n") as fh:
            psio._write_rows(fh, np.column_stack([np.arange(s), assignment.perm,
                                                  assignment.per_pair_cost]), 3)
    obj = {"command": "emd", "value": value, "backend": res.backend,
           "normalize": args.normalize, "scale": scale}
    if res.backend == "auction":
        obj["achieved_eps"] = res.achieved_eps
        obj["budget_relaxed"] = res.budget_relaxed
        obj["params"] = {"target_rel_err": params.target_rel_err,
                         "budget_entries": params.budget_entries}
        print(f"auction: achieved_eps={res.achieved_eps:.6g} "
              f"target_rel_err={params.target_rel_err:g} "
              f"budget_entries={params.budget_entries} "
              f"budget_relaxed={res.budget_relaxed}", file=sys.stderr)
    _emit(args, obj, [fmt12(value)])
    return 0


def _cmd_fps(args):
    pts = psio.read_xyz(args.input)
    out = farthest_point_sample(pts, args.k, seed=args.seed,
                                start_index=args.start_index)
    psio.write_xyz(out, args.out)
    _emit(args, {"command": "fps", "k": args.k, "n_in": len(pts),
                 "out": args.out}, [])
    return 0


def _cmd_voxelize(args):
    pts = psio.read_xyz(args.input)
    origin = _parse_fields(args.origin, "--origin", (float,) * 3, "three comma-separated numbers")
    g = splat(pts, args.dims, origin, args.cell,
              clamp_points=not args.no_clamp)
    b = binarize(g, args.threshold)  # --raw still counts occupied cells by it
    psio.write_grid(g if args.raw else b, args.out)
    occupied = int(np.count_nonzero(b.values))
    _emit(args, {"command": "voxelize", "dims": args.dims,
                 "occupied": occupied, "raw": args.raw, "out": args.out}, [])
    return 0


def _cmd_iou(args):
    g1 = psio.read_grid(args.a)
    g2 = psio.read_grid(args.b)
    value = iou(g1, g2)
    _emit(args, {"command": "iou", "value": value}, [fmt12(value)])
    return 0


def _cmd_mon(args):
    if args.bundle is not None:
        if args.groundtruth is not None or args.candidates:
            raise ValueError("give either --bundle or positional paths, not both")
        manifest = psio._read_json_object(args.bundle)
        if not isinstance(manifest.get("groundtruth"), str) \
                or not isinstance(manifest.get("candidates"), list) \
                or not all(isinstance(c, str) for c in manifest["candidates"]):
            raise ValueError("bundle manifest needs a 'groundtruth' path and "
                             "a list of 'candidates' paths")
        # manifest paths are UTF-8 names relative to the manifest's own directory
        base = os.path.dirname(os.path.abspath(args.bundle))
        gt_path, *cand_paths = [os.path.join(base, os.fsdecode(p.encode()))
                                for p in [manifest["groundtruth"], *manifest["candidates"]]]
        metric = manifest.get("metric", args.metric)
    else:
        if args.groundtruth is None or not args.candidates:
            raise ValueError(
                "need a groundtruth and at least one candidate (or --bundle)")
        gt_path = args.groundtruth
        cand_paths = args.candidates
        metric = args.metric
    gt = psio.read_xyz(gt_path)
    cands = [psio.read_xyz(p) for p in cand_paths]
    bundle = CandidateBundle(cands, gt, metric)
    value, argmin = mon_loss(bundle)
    _emit(args, {"command": "mon", "value": value, "argmin_index": argmin,
                 "n_candidates": len(cands), "metric": metric},
          [f"{fmt12(value)} {argmin}"])
    return 0


def _region_fractions(x, spec):
    """Fraction of points inside each attachment region, for reporting."""
    if spec.family == "corner_square":
        out = []
        for x0, y0, x1, y1 in corner_regions(spec):
            inside = ((x[:, 0] >= x0) & (x[:, 0] <= x1)
                      & (x[:, 1] >= y0) & (x[:, 1] <= y1))
            out.append(float(np.count_nonzero(inside)) / len(x))
        return out
    if spec.family == "bar_disk":
        c = np.array(spec.params["disk_center"])
        r = 1.5 * spec.params["disk_radius"]
        d = np.linalg.norm(x[:, :2] - c, axis=1)
        return [float(np.count_nonzero(d <= r)) / len(x)]
    return None


def _cmd_meanshape(args):
    spec = psio.read_distribution_spec(args.spec)
    cfg = SgdConfig(metric=args.metric, steps=args.steps, batch=args.batch,
                    lr0=args.lr, t_half=args.t_half, m=args.m, seed=args.seed)
    x, trace = optimize_mean_shape(spec, cfg)
    if args.out is not None:
        psio.write_xyz(x, args.out)
    if args.plot is not None:
        emit_plot(x, spec, args.plot)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("step,loss\n")
            for t, v in enumerate(trace):
                fh.write(f"{t},{psio.fmt_float(v)}\n")
    fractions = _region_fractions(x, spec)
    lines = [f"final_loss {fmt12(trace[-1])}"]
    obj = {"command": "meanshape", "family": spec.family,
           "metric": args.metric, "steps": args.steps,
           "final_loss": float(trace[-1])}
    if fractions is not None:
        key = "corner_fractions" if spec.family == "corner_square" else "disk_fraction"
        obj[key] = fractions
        lines.append(key + " " + " ".join(f"{f:.4f}" for f in fractions))
    _emit(args, obj, lines)
    return 0


def _cmd_selftest(args):
    from .selftest import run_selftest
    results = run_selftest()
    failures = sum(not row["ok"] for row in results)
    lines = [f"ok   {row['check']}" if row["ok"] else f"FAIL {row['check']}: {row['detail']}"
             for row in results]
    lines.append(f"{failures} of {len(results)} checks failed" if failures
                 else f"all {len(results)} checks passed")
    _emit(args, {"command": "selftest", "failures": failures, "results": results}, lines)
    return 1 if failures else 0


@functools.cache  # parse_args leaves a parser unchanged: one serves every main()
def build_parser():
    parser = argparse.ArgumentParser(
        prog="psm",
        description="Point-set metrics: Chamfer and assignment distances, "
                    "sampling, voxel IoU, and mean-shape optimization.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chamfer", parents=[common],
                       help="Chamfer distance between two .xyz files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--grad", metavar="OUT.xyz",
                   help="write the gradient with respect to A")
    p.add_argument("--normalize", action="store_true",
                   help="divide each directed sum by its set size (extension)")
    p.add_argument("--grid-unit", metavar="DIMS,CELL",
                   help="divide the value by the grid reporting unit D*h/10")
    p.set_defaults(func=_cmd_chamfer)

    p = sub.add_parser("emd", parents=[common],
                       help="assignment distance between two equal-size .xyz files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--eps", type=float, default=0.01,
                   help="auction target relative error (default 0.01; "
                        f"the auction runs above s = {EXACT_LIMIT})")
    p.add_argument("--budget-entries", type=int, default=AuctionParams.budget_entries,
                   help="cost entries the auction's bids may read (default %(default)s)")
    p.add_argument("--grad", metavar="OUT.xyz",
                   help="write the gradient with respect to A")
    p.add_argument("--dump-matching", metavar="OUT.txt",
                   help="write `i j cost` per matched pair")
    p.add_argument("--normalize", action="store_true",
                   help="divide the value by the set size (extension)")
    p.add_argument("--grid-unit", metavar="DIMS,CELL",
                   help="divide the value by the grid reporting unit D*h/10")
    p.set_defaults(func=_cmd_emd)

    p = sub.add_parser("fps", parents=[common],
                       help="farthest point subsampling")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-index", type=int, default=None,
                   help="pin the first selected point (overrides the seed)")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_fps)

    p = sub.add_parser("voxelize", parents=[common],
                       help="splat a cloud into an occupancy grid file")
    p.add_argument("input")
    p.add_argument("--dims", type=int, default=32)
    p.add_argument("--origin", default="0,0,0")
    p.add_argument("--cell", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=0.25,
                   help="binarization threshold (default 0.25)")
    p.add_argument("--raw", action="store_true",
                   help="write fractional occupancy, skip binarization")
    p.add_argument("--no-clamp", action="store_true",
                   help="error on out-of-grid points instead of clamping")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("iou", parents=[common],
                       help="intersection over union of two binary grid files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_iou)

    p = sub.add_parser("mon", parents=[common],
                       help="min-of-N loss over candidate clouds")
    p.add_argument("groundtruth", nargs="?")
    p.add_argument("candidates", nargs="*")
    p.add_argument("--metric", choices=METRICS, default="cd")
    p.add_argument("--bundle", metavar="MANIFEST.json",
                   help="JSON manifest with groundtruth/candidates/metric")
    p.set_defaults(func=_cmd_mon)

    p = sub.add_parser("meanshape", parents=[common],
                       help="SGD mean shape of a shape distribution")
    p.add_argument("--spec", required=True, metavar="SPEC.json")
    p.add_argument("--metric", choices=METRICS, default="cd")
    p.add_argument("--steps", type=int, default=SgdConfig.steps)
    p.add_argument("--batch", type=int, default=SgdConfig.batch)
    p.add_argument("--lr", type=float, default=SgdConfig.lr0)
    p.add_argument("--t-half", type=float, default=SgdConfig.t_half)
    p.add_argument("--m", type=int, default=None,
                   help="free points (default: spec n_points)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", metavar="X.xyz")
    p.add_argument("--plot", metavar="X.svg")
    p.add_argument("--trace", metavar="TRACE.csv")
    p.set_defaults(func=_cmd_meanshape)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the built-in invariant suite")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
