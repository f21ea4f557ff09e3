"""Mean shapes of random shape distributions under either metric.

Minimizes E_{s ~ S}[d(x, s)] over the coordinates of a free point set x by
plain stochastic gradient descent, for four families of random planar shapes
(all embedded at z = 0 on a roughly unit-square canvas):

  circle_radius  a circle whose radius varies per draw
  spiky_arc      a crown-shaped arc translated along the main diagonal
  corner_square  a bar with a square attached at a random corner
  bar_disk       a bar with a disk beside it, present with probability p

Every drawn shape is n_points samples placed uniformly by arclength along
the shape's outline curves. The geometry constants below are defaults of
this implementation, chosen to fit the canvas; all are overridable through
ShapeDistributionSpec parameters.
"""

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .chamfer import _chamfer, chamfer_distance  # noqa: F401 (perfbench/tracing.py wraps it)
from .core import RandomSource, as_int, check_span, ordered_map, validate
from .emd import _emd
from .errors import (DistanceOverflow, DivergenceDetected, EmptySet,
                     InvalidParameter, SizeMismatch, UnknownFamily)
from .losses import _check_metric

FAMILY_DEFAULTS = {
    "circle_radius": {
        "center": [0.5, 0.5],
        "r_min": 0.2,
        "r_max": 0.4,
    },
    "spiky_arc": {
        "center": [0.35, 0.25],
        "radius": 0.18,
        "theta_start_deg": 210.0,
        "theta_end_deg": 330.0,
        "n_spikes": 7,
        "spike_height": 0.05,
        "travel": 0.4,
    },
    "corner_square": {
        "center": [0.5, 0.5],
        "bar_width": 0.6,
        "bar_height": 0.1,
        "square_size": 0.1,
    },
    "bar_disk": {
        "center": [0.5, 0.5],
        "bar_width": 0.6,
        "bar_height": 0.1,
        "disk_center": [0.88, 0.5],
        "disk_radius": 0.08,
        "p_disk": 0.5,
    },
}


def _require(cond, message):
    if not cond:
        raise InvalidParameter(message)


def _require_number(v, key):
    # JSON may also hold str, bool, null, NaN, Infinity or ints past float64
    _require(isinstance(v, numbers.Real) and not isinstance(v, bool)
             and abs(v) <= sys.float_info.max, f"{key} must be a finite number")


def _require_int(v, key):
    # as_int's refusals, as the spec's InvalidParameter
    try:
        return as_int(v, key)
    except TypeError as e:
        raise InvalidParameter(str(e)) from None


def _require_count(n, key, row_bytes):
    # numpy refuses an array past the address space with a message that
    # names no key, and tries to allocate anything smaller
    _require(n * row_bytes <= np.iinfo(np.intp).max,
             f"{key} is too large: the outline arrays exceed the address space")


def _check_xy(params, key):
    v = params[key]
    _require(isinstance(v, (list, tuple)) and len(v) == 2,
             f"{key} must be a 2-element [x, y] list")
    for c in v:
        _require_number(c, key)
    params[key] = [float(v[0]), float(v[1])]


def _validate_params(family, params):
    for key, default in FAMILY_DEFAULTS[family].items():
        if isinstance(default, list):
            _check_xy(params, key)
        elif isinstance(default, int):
            params[key] = _require_int(params[key], key)
        else:
            _require_number(params[key], key)
            params[key] = float(params[key])  # an int radius would make int vertex arrays
    if family == "circle_radius":
        _require(params["r_min"] > 0, "r_min must be > 0")
        _require(params["r_max"] >= params["r_min"], "need r_min <= r_max")
    elif family == "spiky_arc":
        _require(params["radius"] > 0, "radius must be > 0")
        _require(params["theta_end_deg"] > params["theta_start_deg"],
                 "need theta_start_deg < theta_end_deg")
        _require(params["n_spikes"] >= 1, "n_spikes must be >= 1")
        _require_count(2 * params["n_spikes"] + 1, "n_spikes", 16)  # (x, y) vertices
        _require(params["spike_height"] >= 0, "spike_height must be >= 0")
        _require(params["travel"] >= 0, "travel must be >= 0")
    elif family == "corner_square":
        for key in ("bar_width", "bar_height", "square_size"):
            _require(params[key] > 0, f"{key} must be > 0")
    elif family == "bar_disk":
        for key in ("bar_width", "bar_height", "disk_radius"):
            _require(params[key] > 0, f"{key} must be > 0")
        _require(0.0 <= params["p_disk"] <= 1.0, "p_disk must lie in [0, 1]")


@dataclass
class ShapeDistributionSpec:
    """One shape family plus its geometry parameters and sampling controls.

    params holds family-specific keys; omitted keys take the documented
    defaults. seed drives auxiliary draws (e.g. plot silhouettes), not the
    optimizer, which carries its own seed in SgdConfig.
    """

    family: str
    n_points: int = 256
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _require(isinstance(self.family, str), "family must be a string")
        if self.family not in FAMILY_DEFAULTS:
            raise UnknownFamily(self.family, FAMILY_DEFAULTS)
        defaults = FAMILY_DEFAULTS[self.family]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise InvalidParameter(
                f"unknown parameter {sorted(unknown)[0]!r} for family {self.family}")
        merged = {**defaults, **self.params}
        _validate_params(self.family, merged)
        self.params = merged
        self.n_points = _require_int(self.n_points, "n_points")
        _require(self.n_points >= 1, "n_points must be >= 1")
        _require_count(self.n_points, "n_points", 24)  # (x, y, z) points
        self.seed = _require_int(self.seed, "seed")
        _require(self.seed >= 0, "seed must be >= 0")  # numpy's SeedSequence refuses it
        _check_outline(self)


def spec_from_dict(data):
    """Build a spec from a flat mapping (the JSON schema)."""
    d = dict(data)
    if "family" not in d:
        raise InvalidParameter("missing required key 'family'")
    family = d.pop("family")
    n_points = d.pop("n_points", 256)
    seed = d.pop("seed", 0)
    return ShapeDistributionSpec(family, n_points, seed, d)


def _rect(cx, cy, w, h):
    # the rectangle as a ring of vertices: the last repeats the first
    x0, x1 = cx - w / 2, cx + w / 2
    y0, y1 = cy - h / 2, cy + h / 2
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])


def _sample_pieces(outline, n):
    """n points uniform by arclength over an outline's segments and circles,
    as an (n, 2) array of plane coordinates.

    outline: (seg_a, seg_b, circles), the (k, 2) start and end points of its
    line segments (k may be 0) and a list of (center, radius) pairs.
    Placement is deterministic: positions (i + 1/2) / n of the total
    arclength. All randomness in a drawn shape comes from its hidden
    variables (radius, corner, travel, disk presence), so a family with
    those pinned is a genuinely degenerate distribution.
    """
    seg_a, seg_b, circles = outline
    seg_d = seg_b - seg_a
    # np.linalg.norm(seg_d, axis=1) computes exactly this
    seg_len = np.sqrt(np.add.reduce(seg_d * seg_d, axis=1))
    nseg = len(seg_len)
    lengths = np.concatenate([seg_len, [2.0 * math.pi * r for _, r in circles]])
    total = lengths.sum()
    # a NaN length passes on to NaN points, which _check_outline rejects
    _require(lengths.any(), "shape outline has zero length")
    cum = np.cumsum(lengths)
    t = (np.arange(n) + 0.5) * (total / n)
    piece_idx = np.minimum(np.searchsorted(cum, t, side="right"), len(lengths) - 1)
    local = t - (cum[piece_idx] - lengths[piece_idx])
    out = np.zeros((n, 2))
    if nseg:
        rows = piece_idx < nseg
        i = piece_idx[rows]
        out[rows] = seg_a[i] + (local[rows] / seg_len[i])[:, None] * seg_d[i]
    for k, (c, r) in enumerate(circles):
        rows = piece_idx == nseg + k
        ang = local[rows] / r
        out[rows] = c + r * np.column_stack([np.cos(ang), np.sin(ang)])
    return out


def _crown_vertices(center, radius, t0_deg, t1_deg, n_spikes, spike_height):
    # open zigzag polyline: valley vertices at the base radius, spike tips
    # halfway between them at radius + spike_height
    k = 2 * n_spikes
    theta = np.radians(np.linspace(t0_deg, t1_deg, k + 1))
    r = np.full(k + 1, radius)
    r[1::2] += spike_height
    return center + r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])


def corner_regions(spec):
    """The four square-attachment boxes of corner_square, as (x0, y0, x1, y1).

    Order: (+x, +y), (-x, +y), (-x, -y), (+x, -y) relative to the bar.
    """
    p = spec.params
    cx, cy = p["center"]
    x0, x1 = cx - p["bar_width"] / 2, cx + p["bar_width"] / 2
    y0, y1 = cy - p["bar_height"] / 2, cy + p["bar_height"] / 2
    s = p["square_size"]
    return [
        (x1, y1, x1 + s, y1 + s),
        (x0 - s, y1, x0, y1 + s),
        (x0 - s, y0 - s, x0, y0),
        (x1, y0 - s, x1 + s, y0),
    ]


def region_fractions(x, spec):
    """(key, the share of x's points in each attachment region) for
    reporting, or None: corner_square's four corner_regions boxes, or
    bar_disk's disk grown to 1.5 times its radius."""
    xy = x[:, :2]
    if spec.family == "corner_square":
        boxes = np.array(corner_regions(spec))[:, None]  # x0, y0, x1, y1
        inside = ((xy >= boxes[..., :2]) & (xy <= boxes[..., 2:])).all(axis=2)
        return "corner_fractions", inside.mean(axis=1).tolist()
    if spec.family == "bar_disk":
        d = np.linalg.norm(xy - spec.params["disk_center"], axis=1)
        return "disk_fraction", [float(np.mean(d <= 1.5 * spec.params["disk_radius"]))]
    return None


def _hidden(spec, rng):
    """Draw the hidden variable that fixes one shape's outline."""
    p = spec.params
    if spec.family == "circle_radius":
        return rng.uniform(p["r_min"], p["r_max"])  # radius
    if spec.family == "spiky_arc":
        return rng.uniform(0.0, p["travel"])  # diagonal offset
    if spec.family == "corner_square":
        return int(rng.integers(4))  # index into corner_regions
    if spec.family == "bar_disk":
        return rng.random() < p["p_disk"]  # disk present
    raise UnknownFamily(spec.family, FAMILY_DEFAULTS)


def _extremes(spec):
    """Hidden values whose outlines bound those of every other draw.

    For corner_square and bar_disk this is the whole support.
    """
    p = spec.params
    if spec.family == "circle_radius":
        return p["r_min"], p["r_max"]
    if spec.family == "spiky_arc":
        return 0.0, p["travel"]
    return range(4) if spec.family == "corner_square" else (False, True)


def _outline(spec, hidden):
    """The outline of the draw with this hidden variable: (seg_a, seg_b,
    circles), as _sample_pieces takes it."""
    p = spec.params
    if spec.family == "circle_radius":
        return np.empty((0, 2)), np.empty((0, 2)), [(p["center"], hidden)]
    if spec.family == "spiky_arc":
        center = np.asarray(p["center"]) + hidden
        verts = _crown_vertices(center, p["radius"], p["theta_start_deg"],
                                p["theta_end_deg"], p["n_spikes"], p["spike_height"])
        return verts[:-1], verts[1:], []
    cx, cy = p["center"]
    bar = _rect(cx, cy, p["bar_width"], p["bar_height"])
    if spec.family == "corner_square":
        box = corner_regions(spec)[hidden]
        square = _rect((box[0] + box[2]) / 2, (box[1] + box[3]) / 2,
                       box[2] - box[0], box[3] - box[1])
        return np.concatenate([bar[:-1], square[:-1]]), np.concatenate([bar[1:], square[1:]]), []
    disk = [(p["disk_center"], p["disk_radius"])] if hidden else []
    return bar[:-1], bar[1:], disk


def _points(spec, hidden):
    """The n_points plane samples of the outline this hidden variable fixes."""
    return _sample_pieces(_outline(spec, hidden), spec.n_points)


def _check_outline(spec):
    """Reject parameters whose outline float64 cannot hold: its length or
    coordinates overflow, or its sizes round away beside its coordinates.
    The key named is the largest-magnitude length parameter, the one that
    drove the overflow or swamped the sizes; the extreme draws are checked.
    """
    with np.errstate(all="ignore"):
        try:
            finite = all(np.isfinite(_points(spec, h)).all() for h in _extremes(spec))
        except InvalidParameter:  # the outline has zero length
            finite = None
    if not finite:
        lengths = {k: np.abs(v).max() for k, v in spec.params.items()
                   if k not in ("theta_start_deg", "theta_end_deg", "n_spikes", "p_disk")}
        key = max(lengths, key=lengths.get)
        if finite is None:  # key may be too small or too large: its scale is off
            raise InvalidParameter(f"{key}: the {spec.family} outline rounds to zero length")
        raise InvalidParameter(f"{key} is too large: the {spec.family} outline overflows float64")


def draw_shape(spec, rng):
    """One i.i.d. sample from the shape distribution: (n_points, 3) at z=0.

    rng is a RandomSource or a numpy Generator; it drives only the hidden
    variables, and point placement along the resulting outline is the
    deterministic equal-arclength grid.
    """
    return np.pad(_points(spec, _hidden(spec, rng)), ((0, 0), (0, 1)))


@dataclass(frozen=True)
class SgdConfig:
    """Optimizer settings. Defaults complete in minutes at n_points=256.

    The step size decays as lr0 / (1 + t / t_half), constant at t_half = inf.
    m is the number of free points (None: match spec.n_points, which the
    assignment metric requires). Checked when made; frozen.
    """

    metric: str = "cd"
    steps: int = 2000
    batch: int = 8
    lr0: float = 0.5
    t_half: float = 100.0
    m: int | None = None
    seed: int = 0

    def __post_init__(self):
        _check_metric(self.metric)
        for name in ("steps", "batch") + (() if self.m is None else ("m",)):
            as_int(getattr(self, name), name)
        if self.steps < 1 or self.batch < 1:
            raise ValueError("steps and batch must be >= 1")
        if not 0 < self.lr0 < math.inf:
            raise ValueError("lr0 must be finite and > 0")
        if not self.t_half > 0:
            raise ValueError("t_half must be > 0")
        _require(self.m is None or self.m >= 1, "m must be >= 1")
        RandomSource(self.seed)  # checks the seed


def _loss_and_grad(x, shape, metric):
    """The metric's value and its gradient in x, for plane coordinates."""
    if metric == "cd":
        value, grad, _, _ = _chamfer(x, shape)
        return value, grad
    res, _ = _emd(x, shape, True)
    return res.value, res.grad_a


def optimize_mean_shape(spec, cfg, threads=1):
    """SGD over point coordinates. Returns (x_final, loss_trace).

    Each step draws a minibatch of shapes, averages the gradient of the
    metric with respect to x over the batch, and steps downhill. The trace
    records the minibatch mean distance per step. A step that takes the
    loss past 1e6 times its initial value, or x past float64's span or to
    inf, raises DivergenceDetected. x moves in the plane z = 0, where every
    family lies: the loop runs on (m, 2) coordinates, and x_final has z = 0.

    A step draws each shape's hidden variable, the same single draw that
    draw_shape makes, and dedupes the batch on it: each distinct value is
    evaluated once and its result reused, while the batch sum still adds
    one term per draw, in draw order. The outlines of corner_square (4) and
    bar_disk (2) are sampled once per run; the continuous families sample
    each distinct draw once per step and keep nothing across steps.
    Evaluations run on the caller's thread unless threads > 1 asks for a
    pool (ordered_map checks it). Hidden variables are drawn serially, so the
    trajectory does not depend on the worker count.
    """
    m = spec.n_points if cfg.m is None else int(cfg.m)
    if cfg.metric == "emd" and m != spec.n_points:
        raise SizeMismatch(m, spec.n_points)
    init_rng, draw_rng = RandomSource(cfg.seed).split(2)
    x = init_rng.uniform(0.0, 1.0, (m, 2))
    trace = np.empty(cfg.steps)
    discrete = spec.family in ("corner_square", "bar_disk")
    outlines = {h: _points(spec, h) for h in (_extremes(spec) if discrete else ())}
    for t in range(cfg.steps):
        lr = cfg.lr0 / (1.0 + t / cfg.t_half)
        hidden = [_hidden(spec, draw_rng) for _ in range(cfg.batch)]
        firsts = list(dict.fromkeys(hidden))  # distinct values, first seen first
        if not discrete:
            outlines = {h: _points(spec, h) for h in firsts}
        if not np.isfinite(x).all():  # the public metrics' validate and check_span
            if np.isfinite(grad).all():  # a finite gradient: the step overflowed x
                raise DivergenceDetected(t, math.inf, trace[0])
            validate(np.pad(x, ((0, 0), (0, 1))))  # names the first bad row
        try:
            for h in firsts:
                check_span(x, outlines[h])
        except DistanceOverflow:
            if t == 0:  # x starts in the unit square: the outline is too far out
                raise
            raise DivergenceDetected(t, math.inf, trace[0]) from None
        results = dict(zip(firsts, ordered_map(
            lambda h: _loss_and_grad(x, outlines[h], cfg.metric), firsts,
            threads)))
        loss = sum(results[h][0] for h in hidden) / cfg.batch
        grad = sum((results[h][1] for h in hidden), np.zeros_like(x))
        trace[t] = loss
        if t > 0 and loss > 1e6 * max(trace[0], 1e-30):
            raise DivergenceDetected(t, loss, trace[0])
        with np.errstate(over="ignore"):  # an overflow to inf is caught above
            x = x - (lr / cfg.batch) * grad
    return np.pad(x, ((0, 0), (0, 1))), trace


def emit_plot(x, spec, path):
    """Write a deterministic SVG: 20 silhouette draws in gray, x in red.

    The viewBox is computed from the plotted data with a margin, so every
    marker center lies inside it by construction.
    """
    x = validate(x)
    if len(x) == 0:
        raise EmptySet()
    sil_rng = RandomSource(spec.seed)
    silhouettes = [draw_shape(spec, sil_rng) for _ in range(20)]
    pts = np.concatenate(silhouettes + [x])[:, :2]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = float(max((hi - lo).max(), 1e-9))
    pad = 0.05 * extent
    scale = 380.0 / (extent + 2 * pad)
    span = (hi - lo + 2 * pad) * scale
    off = (np.array([400.0, 400.0]) - span) / 2.0

    def to_px(p):
        q = (p[:, :2] - lo + pad) * scale + off
        return np.column_stack([q[:, 0], 400.0 - q[:, 1]])  # flip y for SVG

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 400 400">',
             '<rect width="400" height="400" fill="white"/>']
    for s in silhouettes:
        for px, py in to_px(s):
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.2" '
                         'fill="#bbbbbb" fill-opacity="0.6"/>')
    for px, py in to_px(x):
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.4" fill="#cc2222"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
