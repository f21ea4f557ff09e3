"""Property tests on adversarial clouds: Chamfer backends and gradients, FPS,
the assignment solvers, min-of-N and batch losses, and the voxel path
(splat, binarize, iou, the grid file and the grid reporting unit).

Clouds come in the shapes that break nearest-neighbor searches and greedy
samplers: duplicated points, 1/64 and integer lattices (exact ties between
and within sets), collinear and coplanar sets, a 1e8 offset, magnitudes
near both ends of float64's range, one or two points, and all points equal.
The assignment solvers also meet near-coincident pairs: a cloud and a copy
moved by far less than float64 resolves at its spread.
Shape-distribution specs meet JSON values of every type and float64's
extremes; grids meet large origins, tiny and huge cells, -0.0 and
subnormal values.
Examples are derandomized and kept out of any database, so every run checks
the same examples.
"""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from psm.chamfer import KdTree, _chamfer, _gradient, chamfer_distance
from psm.emd import (AuctionParams, _assign, _auction, _grads_from_perm, emd,
                     emd_auction, emd_exact)
from psm.errors import InvalidParameter
from psm.io import read_grid, write_grid
from psm.losses import CandidateBundle, batch_loss, mon_loss
from psm.meanshape import FAMILY_DEFAULTS, _extremes, _points, spec_from_dict
from psm.sampling import farthest_point_sample
from psm.voxel import (RESOLUTION, OccupancyGrid, _geometry, binarize, grid_unit_scale,
                       iou, splat)

KINDS = ("generic", "duplicates", "lattice64", "integer", "collinear",
         "coplanar", "offset", "huge", "tiny", "identical")
PAIR_KINDS = KINDS + ("near_coincident",)

CHECKED = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# two matchings (or two center sets) of equal true cost can sum a few ulps apart
SUM_RTOL = 1e-12


def make_cloud(kind, n, rng):
    if kind == "generic":
        return rng.normal(size=(n, 3))
    if kind == "duplicates":
        base = rng.normal(size=(max(1, n // 3), 3))
        return base[rng.integers(0, len(base), n)]
    if kind == "lattice64":
        return rng.integers(0, 6, size=(n, 3)) / 64.0
    if kind == "integer":
        return rng.integers(-2, 3, size=(n, 3)).astype(np.float64)
    if kind == "collinear":
        t = rng.integers(-4, 5, size=n) * 0.25
        return rng.normal(size=3) + t[:, None] * rng.normal(size=3)
    if kind == "coplanar":
        return np.column_stack([rng.integers(0, 5, size=(n, 2)) / 8.0, np.full(n, 0.3)])
    if kind == "offset":
        return 1e8 + rng.integers(0, 5, size=(n, 3)) * 0.5
    if kind == "huge":  # squared distances near 1e306, still finite
        return 1e160 + rng.integers(-3, 4, size=(n, 3)) * 1e152
    if kind == "tiny":  # squared distances subnormal or zero
        return rng.integers(-3, 4, size=(n, 3)) * 1e-161
    return np.tile(rng.normal(size=3), (n, 1))  # identical


sizes = st.one_of(st.sampled_from([1, 2]), st.integers(1, 48))


@st.composite
def cloud_pairs(draw):
    """Two clouds of one kind from one stream, so lattices are shared."""
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make_cloud(kind, draw(sizes), rng), make_cloud(kind, draw(sizes), rng)


@st.composite
def equal_size_pairs(draw, max_size, kinds=KINDS):
    """Two clouds of one kind and one size, for the assignment solvers."""
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_size))
    if kind == "near_coincident":
        a = make_cloud("generic", n, rng)
        return a, a + 1e-17 * rng.normal(size=a.shape)
    return make_cloud(kind, n, rng), make_cloud(kind, n, rng)


def lowest_index_nn(q, pts):
    """Nearest neighbor by a plain loop over every point, first index on ties."""
    out = []
    for p in q:
        d2 = [(p[0] - r[0]) ** 2 + (p[1] - r[1]) ** 2 + (p[2] - r[2]) ** 2 for r in pts]
        out.append(d2.index(min(d2)))
    return np.array(out)


@CHECKED
@given(cloud_pairs())
def test_backends_bitwise_equal_with_lowest_index_nn(pair):
    a, b = pair
    vb = chamfer_distance(a, b, backend="brute", want_grad=True)
    vk = chamfer_distance(a, b, backend="kdtree", want_grad=True)
    assert np.isfinite(vb.value)
    assert vb.value == vk.value
    assert vb.grad_a.tobytes() == vk.grad_a.tobytes()
    assert vb.grad_b.tobytes() == vk.grad_b.tobytes()
    for q, pts in ((a, b), (b, a)):
        idx, _ = KdTree(pts).query(q)
        assert np.array_equal(idx, lowest_index_nn(q, pts))


def kernel_and_public_args(a, b):
    """The kernels' inputs and the public functions' inputs that must give the
    same bits: (a, b) as they are, then their x and y against z = 0."""
    a2, b2 = np.ascontiguousarray(a[:, :2]), np.ascontiguousarray(b[:, :2])
    flat = [np.column_stack([p, np.zeros(len(p))]) for p in (a2, b2)]
    return [((a, b), (a, b)), ((a2, b2), tuple(flat))]


def first_columns(grad, width):
    return np.ascontiguousarray(grad[:, :width]).tobytes()


@CHECKED
@given(cloud_pairs())
def test_chamfer_kernel_equals_public_brute_in_3d_and_in_plane(pair):
    # the mean-shape optimizer calls the kernel on plane coordinates
    for (ka, kb), (pa, pb) in kernel_and_public_args(*pair):
        res = chamfer_distance(pa, pb, backend="brute", want_grad=True)
        value, grad_a, nn_ab, nn_ba = _chamfer(ka, kb)
        width = ka.shape[1]
        assert value == res.value
        assert grad_a.tobytes() == first_columns(res.grad_a, width)
        grad_b = _gradient(kb, ka, nn_ba, nn_ab, 1.0, 1.0)
        assert grad_b.tobytes() == first_columns(res.grad_b, width)


@CHECKED
@given(cloud_pairs())
def test_chamfer_kdtree_route_equals_scan_in_3d_and_in_plane(pair):
    # value, gradient and both nearest-neighbor index arrays
    for (a, b), _ in kernel_and_public_args(*pair):
        scan = _chamfer(a, b, backend="brute")
        tree = _chamfer(a, b, backend="kdtree")
        assert tree[0] == scan[0]
        for got, want in zip(tree[1:], scan[1:]):
            assert got.tobytes() == want.tobytes()


def fps_rowsum(pts, k, start):
    """The greedy rule with distances taken as row sums of squares."""
    chosen = [start]
    min_d2 = ((pts - pts[start]) ** 2).sum(axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        np.minimum(min_d2, ((pts - pts[nxt]) ** 2).sum(axis=1), out=min_d2)
    return pts[chosen]


@CHECKED
@given(st.sampled_from(KINDS), sizes, st.integers(0, 2**32 - 1), st.data())
def test_fps_equals_rowsum_greedy(kind, n, seed, data):
    pts = make_cloud(kind, n, np.random.default_rng(seed))
    k = data.draw(st.integers(1, n))
    start = data.draw(st.integers(0, n - 1))
    got = farthest_point_sample(pts, k, start_index=start)
    assert got.tobytes() == fps_rowsum(pts, k, start).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_fps_equals_rowsum_greedy_at_scale(kind):
    # the property above stops at 48 points; at 4096 the picks' slabs cover
    # a small share of the cloud, so a slab that missed a point it should
    # rescore would change a later pick
    rng = np.random.default_rng([60, KINDS.index(kind)])
    pts = make_cloud(kind, 4096, rng)
    start = int(rng.integers(len(pts)))
    got = farthest_point_sample(pts, 256, start_index=start)
    assert got.tobytes() == fps_rowsum(pts, 256, start).tobytes()


def covering_radius(pts, centers):
    return cdist(pts, centers).min(axis=1).max()


@CHECKED
@given(st.sampled_from(KINDS), st.integers(1, 9), st.integers(0, 2**32 - 1), st.data())
def test_fps_covering_radius_within_twice_optimum(kind, n, seed, data):
    # greedy max-min is a 2-approximation to k-center (Gonzalez 1985); the
    # optimum here is over centers drawn from the cloud, which is no smaller
    pts = make_cloud(kind, n, np.random.default_rng(seed))
    k = data.draw(st.integers(1, min(3, n)))
    start = data.draw(st.integers(0, n - 1))
    got = covering_radius(pts, farthest_point_sample(pts, k, start_index=start))
    best = min(covering_radius(pts, pts[list(c)])
               for c in itertools.combinations(range(n), k))
    assert got <= 2.0 * best * (1 + SUM_RTOL)


# Finite differences need a step far below the clouds' spread, and they hold
# only where the nearest neighbors or the optimal matching stay fixed within
# one step: draws whose margin is below the step are discarded. A coordinate
# moves every distance by at most the step. Squared distances of the tiny
# kind are subnormal and cannot resolve a step; identical clouds have none.
FD_KINDS = tuple(k for k in KINDS if k not in ("tiny", "identical"))


def spread(a, b):
    return float(np.ptp(np.concatenate([a, b]), axis=0).max())


def central_differences(f, a, b, h):
    """(df/da, df/db), one coordinate at a time over the actual step taken."""
    out = []
    for which in (0, 1):
        pair = [a, b]
        g = np.empty_like(pair[which])
        for idx in np.ndindex(g.shape):
            up, down = pair[which].copy(), pair[which].copy()
            up[idx] += h
            down[idx] -= h
            pair[which] = up
            f_up = f(*pair)
            pair[which] = down
            g[idx] = (f_up - f(*pair)) / (up[idx] - down[idx])
        out.append(g)
    return out


def nn_margin(q, pts):
    """Smallest gap between a row's nearest and second-nearest distance."""
    if len(pts) < 2:
        return np.inf
    d = np.sort(cdist(q, pts), axis=1)
    return float((d[:, 1] - d[:, 0]).min())


@st.composite
def fd_pairs(draw, max_size, equal_size=False):
    kind = draw(st.sampled_from(FD_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    na = draw(st.integers(1, max_size))
    nb = na if equal_size else draw(st.integers(1, max_size))
    return make_cloud(kind, na, rng), make_cloud(kind, nb, rng)


@CHECKED
@given(fd_pairs(max_size=6), st.sampled_from(["brute", "kdtree"]))
def test_chamfer_gradients_match_margin_filtered_differences(pair, backend):
    a, b = pair
    span = spread(a, b)
    h = 1e-6 * span
    # 4h leaves room for rounding on top of the 2h a gap can lose
    assume(h > 0 and min(nn_margin(a, b), nn_margin(b, a)) > 4 * h)
    res = chamfer_distance(a, b, want_grad=True, backend=backend)
    # with its neighbors fixed the value is quadratic in each coordinate, so
    # central differences are exact up to rounding of the value
    fd_a, fd_b = central_differences(
        lambda p, q: chamfer_distance(p, q, backend=backend).value, a, b, h)
    tol = 1e-8 * (len(a) + len(b)) * span
    assert np.abs(res.grad_a - fd_a).max() <= tol
    assert np.abs(res.grad_b - fd_b).max() <= tol


@CHECKED
@given(fd_pairs(max_size=5, equal_size=True))
def test_exact_gradients_match_margin_filtered_differences(pair):
    a, b = pair
    h = 1e-6 * spread(a, b)
    assume(h > 0)
    cost = cdist(a, b)
    s = len(a)
    totals = sorted(cost[np.arange(s), p].sum() for p in itertools.permutations(range(s)))
    margin = totals[1] - totals[0] if s > 1 else np.inf
    res, assignment = emd_exact(a, b, want_grad=True)
    # the norm bends at a coincident pair; 1000 steps away the central
    # difference is off by about (h / length)^2 / 2
    assume(margin > 4 * h and assignment.per_pair_cost.min() > 1e3 * h)
    fd_a, fd_b = central_differences(lambda p, q: emd_exact(p, q)[0].value, a, b, h)
    assert np.abs(res.grad_a - fd_a).max() <= 1e-5
    assert np.abs(res.grad_b - fd_b).max() <= 1e-5


@CHECKED
@given(equal_size_pairs(max_size=6))
def test_exact_equals_enumeration(pair):
    a, b = pair
    cost = cdist(a, b)
    s = len(a)
    best = min(cost[np.arange(s), p].sum() for p in itertools.permutations(range(s)))
    res, assignment = emd_exact(a, b)
    assert sorted(assignment.perm.tolist()) == list(range(s))
    assert abs(res.value - best) <= SUM_RTOL * best


@CHECKED
@given(equal_size_pairs(max_size=48, kinds=PAIR_KINDS))
def test_assignment_kernel_equals_exact_in_3d_and_in_plane(pair):
    # emd() takes the same route as emd_exact at every size
    for (ka, kb), (pa, pb) in kernel_and_public_args(*pair):
        res, assignment = emd_exact(pa, pb, want_grad=True)
        routed = emd(pa, pb, want_grad=True)
        assert (routed.value, routed.backend) == (res.value, "exact")
        assert routed.grad_a.tobytes() == res.grad_a.tobytes()
        assert routed.grad_b.tobytes() == res.grad_b.tobytes()
        perm, cost = _assign(ka, kb)
        assert perm.tobytes() == assignment.perm.tobytes()
        assert cost.tobytes() == assignment.per_pair_cost.tobytes()
        assert float(np.sum(cost)) == res.value
        grad_a = _grads_from_perm(ka, kb, perm)[0]
        assert grad_a.tobytes() == first_columns(res.grad_a, ka.shape[1])


@CHECKED
@given(equal_size_pairs(max_size=48, kinds=PAIR_KINDS))
def test_auction_kernel_equals_public_auction_in_3d_and_in_plane(pair):
    # the auction reads no clock, so both runs take the same phases
    for (ka, kb), (pa, pb) in kernel_and_public_args(*pair):
        res, assignment, achieved = emd_auction(pa, pb, want_grad=True)
        perm, cost, k_achieved, k_relaxed = _auction(ka, kb, AuctionParams())
        assert perm.tobytes() == assignment.perm.tobytes()
        assert cost.tobytes() == assignment.per_pair_cost.tobytes()
        assert float(np.sum(cost)) == res.value
        assert (k_achieved, k_relaxed) == (achieved, res.budget_relaxed)
        grad_a = _grads_from_perm(ka, kb, perm)[0]
        assert grad_a.tobytes() == first_columns(res.grad_a, ka.shape[1])


@CHECKED
@given(equal_size_pairs(max_size=48))
def test_auction_within_its_certificate(pair):
    a, b = pair
    exact = emd_exact(a, b)[0].value
    res, assignment, achieved = emd_auction(a, b)
    assert sorted(assignment.perm.tolist()) == list(range(len(a)))
    # the auction runs until it certifies the default target, which float64
    # resolves on pairs that are not near-coincident
    assert res.budget_relaxed is False and achieved <= 0.01
    assert exact * (1 - SUM_RTOL) <= res.value <= (1 + achieved) * exact * (1 + SUM_RTOL)


@CHECKED
@given(equal_size_pairs(max_size=48, kinds=PAIR_KINDS),
       st.floats(0.0, 10.0, exclude_min=True))
def test_auction_flags_every_missed_target(pair, target):
    a, b = pair
    exact = emd_exact(a, b)[0].value
    res, assignment, achieved = emd_auction(a, b, AuctionParams(target_rel_err=target))
    assert sorted(assignment.perm.tolist()) == list(range(len(a)))
    assert res.budget_relaxed == (achieved > target)
    assert exact * (1 - SUM_RTOL) <= res.value <= (1 + achieved) * exact * (1 + SUM_RTOL)


# ------------------------------------------------------------- shape specs

FLOAT_EXTREMES = st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, 1e308, -1e308,
                                  math.nan, math.inf, -math.inf])
# counts stay at 4096 or below, so no example allocates more than a few MiB
COUNTS = st.one_of(st.integers(-4096, 4096), st.floats(-4096, 4096), FLOAT_EXTREMES)
NUMBERS = st.one_of(st.floats(), FLOAT_EXTREMES, st.integers())
OTHER_JSON = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                       st.lists(st.one_of(NUMBERS, st.none(), st.text(max_size=2)),
                                max_size=3))


def spec_values(key, default):
    """Any JSON value for this key, weighted toward ones of the right type."""
    if key in ("n_points", "n_spikes"):
        return st.one_of(COUNTS, OTHER_JSON)
    if isinstance(default, list):
        return st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), NUMBERS, OTHER_JSON)
    return st.one_of(NUMBERS, OTHER_JSON)


@pytest.mark.parametrize("family", sorted(FAMILY_DEFAULTS))
@CHECKED
@given(data=st.data())
def test_spec_builds_finite_outlines_or_names_a_key(family, data):
    keys = {**FAMILY_DEFAULTS[family], "n_points": 256, "seed": 0}
    fields = data.draw(st.fixed_dictionaries(
        {}, optional={k: spec_values(k, v) for k, v in keys.items()}))
    try:
        spec = spec_from_dict({"family": family, **fields})
    except InvalidParameter as e:
        assert any(re.search(rf"\b{k}\b", str(e)) for k in keys), str(e)
        return
    for h in _extremes(spec):
        assert np.isfinite(_points(spec, h)).all()


# ---------------------------------------------------------------- min-of-N

@CHECKED
@given(st.sampled_from(KINDS), st.sampled_from(["cd", "emd"]),
       st.integers(0, 2**32 - 1), st.data())
def test_mon_loss_is_the_first_minimum_of_its_candidates(kind, metric, seed, data):
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(1, 24))
    gt = make_cloud(kind, n, rng)
    cands = []
    for _ in range(data.draw(st.integers(1, 5))):
        how = data.draw(st.sampled_from(["new", "copy", "negative zeros"])) if cands else "new"
        if how == "new":
            size = n if metric == "emd" else data.draw(st.integers(1, 24))
            cands.append(make_cloud(kind, size, rng))
            continue
        c = cands[data.draw(st.integers(0, len(cands) - 1))].copy()
        if how == "negative zeros":  # equal values, other bytes
            c[c == 0] = -0.0
        cands.append(c)
    value, idx = mon_loss(CandidateBundle(cands, gt, metric=metric))
    metric_fn = chamfer_distance if metric == "cd" else emd
    values = [metric_fn(c, gt).value for c in cands]
    assert value == min(values)
    assert idx == values.index(min(values))


@CHECKED
@given(st.sampled_from(KINDS), st.sampled_from(["cd", "emd"]),
       st.integers(0, 2**32 - 1), st.data())
def test_batch_loss_is_the_sum_of_its_pairs_in_index_order(kind, metric, seed, data):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(data.draw(st.integers(1, 5))):
        n = data.draw(st.integers(1, 16))
        m = n if metric == "emd" else data.draw(st.integers(1, 16))
        pairs.append((make_cloud(kind, n, rng), make_cloud(kind, m, rng)))
    metric_fn = chamfer_distance if metric == "cd" else emd
    assert batch_loss(pairs, metric) == float(np.sum([metric_fn(a, b).value for a, b in pairs]))


# --------------------------------------------------------------- voxel path

ORIGINS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e8, -1e12, 1e15, 3e300]),
                    st.floats(-1e6, 1e6))
CELLS = st.one_of(st.sampled_from([1e-320, 1e-300, 1e-12, 0.01, 1.0, 1e12]),
                  st.floats(1e-12, 1e12))
GRID_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                                         0.5, 1 - 2**-53, 1.0]),
                        st.floats(0.0, 1.0))


def far_corner(dims, origin, h):
    return max(abs(min(origin)), abs(max(origin) + dims * h))


@CHECKED
@given(st.integers(3, 6), st.tuples(ORIGINS, ORIGINS, ORIGINS), CELLS,
       st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_splat_conserves_interior_mass_or_refuses_the_grid(dims, origin, h, n, seed):
    try:
        OccupancyGrid(dims, origin, h, np.zeros((dims,) * 3))
    except ValueError as e:
        # refused only for an extent past float64 or a cell it cannot resolve
        corner = far_corner(dims, origin, h)
        assert not math.isfinite(corner) or h < RESOLUTION * math.ulp(corner), str(e)
        return
    rng = np.random.default_rng(seed)
    # cell index 1 .. dims - 2 plus a fraction: each point's cube lies half a
    # cell inside the grid, which the rounding of one float64 step cannot undo
    cells = rng.integers(1, dims - 1, size=(n, 3)) + rng.random((n, 3))
    pts = np.asarray(origin) + cells * h
    g = splat(pts, dims, origin, h, saturate=False)
    assert g.values.min() >= 0.0
    # each point's eight weights sum to 1 up to a few roundings apiece
    assert abs(g.values.sum() - n) <= n * 2.0**-44


def grid_around(cloud, dims, margin):
    """Origin and cell size that place the cloud's box from cell margin to
    cell dims - margin along its widest axis; a one-point cloud gets cells of
    2**-20 of its largest coordinate (or of 1)."""
    lo = cloud.min(axis=0)
    span = float(np.ptp(cloud, axis=0).max())
    h = span / (dims - 2 * margin) if span > 0 else 2.0**-20 * max(float(np.abs(lo).max()), 1.0)
    return lo - margin * h, h


@CHECKED
@given(st.sampled_from(KINDS), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.tuples(*[st.integers(0, 4)] * 3))
def test_splat_shifts_with_its_points_by_whole_cells(kind, n, seed, shift):
    # the cloud spans cells 2 .. 6 of 12 and moves by up to 4 cells per
    # axis, so every point cube stays inside the grid
    cloud = make_cloud(kind, n, np.random.default_rng(seed))
    dims = 12
    origin, h = grid_around(cloud, 8, 2)
    g = splat(cloud, dims, origin, h, saturate=False).values
    moved = splat(cloud + np.multiply(shift, h), dims, origin, h, saturate=False).values
    want = np.zeros_like(g)
    sx, sy, sz = shift
    want[sx:, sy:, sz:] = g[:dims - sx, :dims - sy, :dims - sz]
    # adding the shift rounds each coordinate by up to 1e-8 of a cell here
    assert np.abs(moved - want).max() <= 1e-6 * n


@CHECKED
@given(st.integers(1, 5), st.sampled_from([0.0, -3.5, 2.0**30, -(2.0**20)]),
       st.sampled_from([2.0**-3, 1.0, 2.0**5]), st.data())
def test_splat_splits_boundary_points_as_documented(dims, o, h, data):
    # per axis, a point on the face between cells c - 1 and c puts half its
    # mass in each, and one at the centre of cell c puts all of it there;
    # faces on the grid's sides keep only the inner half
    steps = data.draw(st.lists(st.tuples(*[st.integers(0, 2 * dims)] * 3), min_size=1, max_size=6))
    want = np.zeros((dims,) * 3)
    for p in steps:
        axes = []
        for s in p:  # s half cells from the origin
            c = s // 2
            cells = [(c - 1, 0.5), (c, 0.5)] if s % 2 == 0 else [(c, 1.0)]
            axes.append([(i, w) for i, w in cells if 0 <= i < dims])
        for (ix, wx), (iy, wy), (iz, wz) in itertools.product(*axes):
            want[ix, iy, iz] += wx * wy * wz
    pts = o + np.array(steps, dtype=np.float64) * (h / 2)
    g = splat(pts, dims, (o, o, o), h, saturate=False)
    assert g.values.tobytes() == want.tobytes()


@CHECKED
@given(st.sampled_from(KINDS), st.integers(1, 6), st.sampled_from([-1.0, -0.5, 0.0, 0.25]),
       st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_splat_keeps_only_each_points_in_grid_fraction(kind, dims, margin, n, seed):
    # a point cube that crosses a side of the grid (after clamping, up to
    # half a cell per axis) loses the part outside and nothing else
    cloud = make_cloud(kind, n, np.random.default_rng(seed))
    origin, h = grid_around(cloud, dims, margin)
    total = 0.0
    for p in cloud:
        mass = splat([p], dims, origin, h, saturate=False).values.sum()
        u = (np.clip(p, origin, origin + dims * h) - origin) / h
        inside = np.prod(np.minimum(u + 0.5, dims) - np.maximum(u - 0.5, 0.0))
        assert abs(mass - inside) <= 2.0**-44
        total += mass
    assert abs(splat(cloud, dims, origin, h, saturate=False).values.sum() - total) <= n * 2.0**-44


@CHECKED
@given(st.one_of(st.integers(-2, 64), st.sampled_from([True, 2.5, 3.0, "4", np.int64(8)])),
       st.one_of(CELLS, st.sampled_from([0.0, -1.0, math.inf, math.nan])))
def test_grid_unit_scale_is_a_tenth_of_the_side_or_refuses_the_grid(dims, h):
    try:
        _geometry(dims, (0, 0, 0), h)
    except (TypeError, ValueError) as e:
        with pytest.raises(type(e)):
            grid_unit_scale(dims, h)
        return
    assert grid_unit_scale(dims, h) == dims * h / 10.0


def binary_grid(data, dims):
    """A 0/1 grid whose zeros carry either sign."""
    cells = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]),
                               min_size=dims**3, max_size=dims**3))
    return OccupancyGrid(dims, (0, 0, 0), 1.0, np.reshape(cells, (dims,) * 3))


@CHECKED
@given(st.integers(1, 4), st.data())
def test_iou_is_symmetric_and_in_the_unit_interval(dims, data):
    a, b = binary_grid(data, dims), binary_grid(data, dims)
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0
    assert iou(a, a) == 1.0


@CHECKED
@given(st.integers(1, 4), st.one_of(GRID_VALUES, st.sampled_from([0.0, 1.0])), st.data())
def test_binarize_is_idempotent(dims, threshold, data):
    cells = data.draw(st.lists(GRID_VALUES, min_size=dims**3, max_size=dims**3))
    g = OccupancyGrid(dims, (0, 0, 0), 1.0, np.reshape(cells, (dims,) * 3))
    once = binarize(g, threshold)
    assert np.array_equal(once.values, g.values >= threshold)
    assert binarize(once, threshold).values.tobytes() == once.values.tobytes()


@CHECKED
@given(st.integers(1, 4), st.tuples(ORIGINS, ORIGINS, ORIGINS), CELLS, st.data())
def test_grid_file_round_trips_bit_for_bit(tmp_path_factory, dims, origin, h, data):
    cells = data.draw(st.lists(GRID_VALUES, min_size=dims**3, max_size=dims**3))
    try:
        g = OccupancyGrid(dims, origin, h, np.reshape(cells, (dims,) * 3))
    except ValueError:
        return  # the geometry property above covers the refusals
    path = tmp_path_factory.mktemp("grid") / "g.psgrid"
    write_grid(g, path)
    back = read_grid(path)
    assert back.dims == dims
    assert back.origin.tobytes() == g.origin.tobytes()
    assert np.float64(back.cell_size).tobytes() == np.float64(h).tobytes()
    assert back.values.tobytes() == g.values.tobytes()
