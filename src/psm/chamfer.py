"""Chamfer distance between point sets, with analytic gradients.

d(a, b) = sum_i min_j ||a_i - b_j||^2  +  sum_j min_i ||b_j - a_i||^2

Terms are squared Euclidean distances, deliberately not square-rooted, and
the two directed sums are unnormalized by default. Note this is not a true
metric: the triangle inequality can fail. Nearest-neighbor ties break to the
lowest index in the other set, which makes gradients deterministic.

Two routes, picked by the input sizes (SCAN_LIMIT), compute the same nearest
neighbors: a chunked brute-force scan over scipy's cdist, and scipy's cKDTree
with every near tie rescored exactly. Both report squared distances summed in
cdist's order, so their values agree bit for bit, not merely to tolerance.
Per-point searches are independent; the value is reduced by pairwise
summation in index order, so results do not depend on how the work is split.
Inputs whose squared distances could overflow float64 are rejected.
"""

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .core import DistanceResult, check_pair, check_span, validate
from .errors import EmptySet

# cKDTree sums the same squares in its own order, a few ulps off the exact
# distance; candidates this close (relative) to the best are rescored exactly
_TIE_RTOL = 1e-12

# a tied row's nearest this many are rescored exactly first (16384-point
# surface clouds on a 1/64 lattice: 4 leave 778 of 4749 tied rows unsettled,
# 6 leave 5 and 8 none)
REPAIR_K = 8

# an unsettled row's k grows by this factor. 4000 queries at cube-cell centres
# of a 24^3 grid, 8 equidistant points each, took 22 CPU ms; 31 with 3 and 36
# with 4 (2-vCPU x86 guest, scipy 1.17)
_WIDEN = 2

# m x n points scan while m n <= SCAN_LIMIT (m + n), else take the kd-tree.
# CPU ms, scan / kd-tree, median of 5 medians of 9 runs (2-vCPU x86 guest,
# scipy 1.17), uniform 3-D and then the same points on a 1/16 lattice: 512^2
# 1.03 / 0.93 and 1.07 / 1.94; 640^2 1.64 / 1.25 and 1.62 / 2.37; 768^2
# 5.18 / 1.45 and 5.18 / 3.09; 1024^2 6.96 / 2.00 and 6.99 / 4.18; 64 x 8192
# 5.25 / 4.95 and 5.26 / 6.76, which a bare m n limit would send to the tree.
# Uniform rows cross below 512^2 and lattice rows above 640^2, so the limit
# stays between them. One small side scans against any other, in blocks of
# 2**18 distances (2 MiB) or of one longer row.
SCAN_LIMIT = 256


def _sqdist(q, p):
    """Squared distances between paired rows (along the last axis, with
    broadcasting), summed (dx^2 + dy^2) + dz^2 and so on: cdist's
    sqeuclidean order, so they equal the scan's bit for bit."""
    d = q - p
    d *= d
    return sum(np.moveaxis(d, -1, 0)[1:], d[..., 0])


class KdTree:
    """Exact nearest-neighbor index: scipy's cKDTree plus an exact tie repair.

    The tree holds each distinct point once, labelled with its lowest index;
    points are deduplicated only when some first coordinate repeats, since
    equal rows cannot exist otherwise. Where cKDTree's two nearest differ by
    more than rounding, the first is the nearest; otherwise _repair settles
    the row from its k nearest, k widening from REPAIR_K.
    """

    def __init__(self, points, _checked=False):
        pts = points if _checked else validate(points)
        if len(pts) == 0:
            raise EmptySet()
        self.points = pts
        first_coord = np.sort(pts[:, 0])
        if (first_coord[1:] == first_coord[:-1]).any():  # else no two rows are equal
            # lexsort is stable: the first of each run of equal rows has the lowest index
            order = np.lexsort(pts.T[::-1])
            run = pts[order]
            first = np.r_[True, (run[1:] != run[:-1]).any(axis=1)]
            self.labels = order[first]
            distinct = run[first]
        else:
            self.labels = np.arange(len(pts))
            distinct = pts
        # sliding-midpoint splits build in 3.5 ms instead of 5.0 on 16384 surface
        # points, and query as fast; the neighbours found are the same
        self.tree = cKDTree(distinct, balanced_tree=False)

    def query(self, points, _checked=False):
        """Exact nearest neighbors: (indices, squared distances)."""
        q = points if _checked else validate(points)
        if len(q) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        if not _checked:
            check_span(q, self.points)
        d, j = self.tree.query(q, k=2)
        idx = self.labels[j[:, 0]]
        # with one distinct point the second distance is inf: never a tie
        tied = np.flatnonzero(d[:, 1] <= d[:, 0] * (1 + _TIE_RTOL))
        idx[tied] = self._repair(q[tied], d[tied, 0] * (1 + _TIE_RTOL))
        return idx, _sqdist(q, self.points[idx])

    def _repair(self, q, reach):
        """Exact lowest-index nearest neighbors: each row's k nearest are
        rescored exactly, ties to the lowest index, and k grows by _WIDEN
        until the k-th lies beyond reach * (1 + _TIE_RTOL) or k covers the
        tree. That margin is the one rounding argument: cKDTree's distances
        are a few ulps off exact, so a point past the k-th neighbour is
        farther than the best exact distance and can neither tie nor beat it.
        """
        best = np.empty(len(q), dtype=np.int64)
        rows, k = np.arange(len(q)), min(REPAIR_K, self.tree.n)
        while len(rows):  # k >= 2 (a tie needs two distinct points): d, j are 2-D
            d, j = self.tree.query(q[rows], k=k)
            labels = self.labels[j]
            d2 = _sqdist(q[rows, None], self.points[labels])
            best[rows] = np.where(d2 == d2.min(axis=1, keepdims=True), labels,
                                  len(self.points)).min(axis=1)
            rows = rows[(d[:, -1] <= reach[rows] * (1 + _TIE_RTOL)) & (k < self.tree.n)]
            k = min(k * _WIDEN, self.tree.n)
        return best


def _nn_brute(q, pts):
    """Scan 2**18 distances (2 MiB) or one query row at a time; ties go to the lowest index."""
    m = len(q)
    chunk = max(1, 2**18 // len(pts))
    idx = np.empty(m, dtype=np.int64)
    d2min = np.empty(m)
    for lo in range(0, m, chunk):
        d2 = cdist(q[lo:lo + chunk], pts, "sqeuclidean")
        i = np.argmin(d2, axis=1)
        idx[lo:lo + chunk] = i
        d2min[lo:lo + chunk] = d2[np.arange(len(i)), i]
    return idx, d2min


def _route(m, n):
    return "brute" if m * n <= SCAN_LIMIT * (m + n) else "kdtree"


def _nn(q, pts, backend):
    if backend == "brute":
        return _nn_brute(q, pts)
    if backend == "kdtree":
        return KdTree(pts, _checked=True).query(q, _checked=True)
    raise ValueError(f"unknown backend {backend!r}; expected 'brute' or 'kdtree'")


def _gradient(a, b, nn_ab, nn_ba, wa, wb):
    """The gradient of a, from the nearest neighbors both ways."""
    grad = 2.0 * wa * (a - b[nn_ab])
    np.add.at(grad, nn_ba, 2.0 * wb * (a[nn_ba] - b))
    return grad


def _chamfer(a, b, want_grad=True, backend=None, wa=1.0, wb=1.0):
    """Chamfer on checked, nonempty float64 arrays of one row width (any):
    (value, gradient of a or None, nn_ab, nn_ba)."""
    backend = _route(len(a), len(b)) if backend is None else backend
    nn_ab, d2_ab = _nn(a, b, backend)
    nn_ba, d2_ba = _nn(b, a, backend)
    value = wa * float(np.sum(d2_ab)) + wb * float(np.sum(d2_ba))
    grad_a = _gradient(a, b, nn_ab, nn_ba, wa, wb) if want_grad else None
    return value, grad_a, nn_ab, nn_ba


def chamfer_distance(a, b, want_grad=False, backend=None, normalize=False):
    """Chamfer distance, optionally with gradients for both arguments.

    normalize=False reproduces the plain double sum. normalize=True divides
    each directed sum by its source set's cardinality, an extension for
    comparing across sizes; gradients scale consistently.

    The gradient of a_i collects two terms: the forward term
    2 (a_i - nn_b(a_i)) and one backward term 2 (a_i - b_j) for every b_j
    whose nearest neighbor in a is a_i.

    The sizes pick the route unless backend forces one; res.backend names it.
    """
    a, b = check_pair(a, b)
    wa = 1.0 / len(a) if normalize else 1.0
    wb = 1.0 / len(b) if normalize else 1.0
    backend = _route(len(a), len(b)) if backend is None else backend
    value, grad_a, nn_ab, nn_ba = _chamfer(a, b, want_grad, backend, wa, wb)
    grad_b = _gradient(b, a, nn_ba, nn_ab, wb, wa) if want_grad else None
    return DistanceResult(value, grad_a, grad_b, backend=backend)
