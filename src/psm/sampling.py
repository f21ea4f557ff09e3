"""Point-set resampling: farthest point sampling, random subsampling, and
equal-size conditioning for the assignment-based metric.

All samplers return multiset subsets of their input, in selection order.
"""

import math

import numpy as np

from .core import RandomSource, as_int, check_span, validate
from .errors import EmptySet, KOutOfRange


def _check_k(n, k):
    k = as_int(k, "k")
    if n == 0:
        raise EmptySet()
    if not 1 <= k <= n:
        raise KOutOfRange(k, n)
    return k


def farthest_point_sample(ps, k, seed=0, start_index=None):
    """Greedy max-min subsample of k points.

    The first point is drawn uniformly from the seeded stream unless
    start_index pins it. Each subsequent point maximizes the minimum distance
    to everything already selected; ties go to the lowest index. Selection
    compares squared distances, which yields the same argmax as Euclidean.
    Point sets whose squared distances could overflow float64 raise
    DistanceOverflow.

    The points are sorted once along their widest axis. A pick can lower the
    minimum distance only of points within sqrt(M) of it along that axis,
    where M is the largest minimum distance so far, so each pick rescores
    just that slab and then takes one O(N) argmax: O(N log N + N k) time at
    worst, and far less once M shrinks. When M reaches 0 the remaining picks
    are all index 0 and the loop stops.
    """
    pts = validate(ps)
    n = len(pts)
    k = _check_k(n, k)
    check_span(pts, pts)
    if start_index is None:
        start = int(RandomSource(seed).integers(n))
    else:
        start = as_int(start_index, "start_index")
        if not 0 <= start < n:
            raise KOutOfRange(start, n, "start_index")
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = start
    axis = int(np.argmax(np.ptp(pts, axis=0)))
    order = np.argsort(pts[:, axis], kind="stable")
    # contiguous sorted columns; dx*dx + dy*dy + dz*dz adds in the order of a
    # row sum of squares, so distances equal ((pts - p) ** 2).sum(axis=1) bit
    # for bit. min_d2 and tied index sorted positions.
    cols = np.ascontiguousarray(pts[order].T)
    key = cols[axis]
    x, y, z = cols
    min_d2 = np.full(n, np.inf)
    big = math.inf  # M: the largest entry of min_d2
    tied = order[:0]  # positions holding M, in index order, when M is tied
    j = int(np.flatnonzero(order == start)[0])
    for i in range(1, k):
        # Only points within r of the pick along `axis` can change: r * r >= M
        # (the margin covers sqrt's rounding), and rounding is monotone. No
        # double lies between c -+ r and its rounding, so a point outside the
        # slab is at least r from c; its computed gap is then >= r, the square
        # of it >= M, and d2, a sum of nonnegative terms, no smaller. Its
        # min_d2 <= M stays as it is.
        c = float(key[j])
        r = math.sqrt(big) * (1 + 1e-9)
        lo = key.searchsorted(c - r, "left")
        hi = key.searchsorted(c + r, "right")
        d2 = x[lo:hi] - float(x[j])
        d2 *= d2
        sq = y[lo:hi] - float(y[j])
        sq *= sq
        d2 += sq
        sq = np.subtract(z[lo:hi], float(z[j]), out=sq)
        sq *= sq
        d2 += sq
        seg = min_d2[lo:hi]
        np.minimum(seg, d2, out=seg)
        if len(tied):  # distances only fall, so M's holders are a subset of tied
            tied = tied[min_d2[tied] == big]
        if len(tied):
            j = int(tied[0])
        else:
            j = int(min_d2.argmax())
            big = float(min_d2[j])
            if big == 0.0:  # every min distance is 0: each later argmax is index 0
                chosen[i:] = 0
                break
            if (min_d2[j + 1:] == big).any():  # M repeats: take its lowest-index holder
                tied = np.flatnonzero(min_d2 == big)
                tied = tied[np.argsort(order[tied])]
                j = int(tied[0])
        chosen[i] = order[j]
    return pts[chosen]


def random_subsample(ps, k, seed=0):
    """k distinct points via a seeded Fisher-Yates prefix, in draw order."""
    pts = validate(ps)
    n = len(pts)
    k = _check_k(n, k)
    gen = RandomSource(seed).gen
    idx = np.arange(n)
    for i in range(k):
        j = i + int(gen.integers(n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return pts[idx[:k]]


def equalize(a, b, method="fps", seed=0):
    """Downsample the larger set to the smaller's cardinality.

    The smaller set passes through untouched. method is 'fps' or 'random'.
    """
    a = validate(a)
    b = validate(b)
    if len(a) == 0 or len(b) == 0:
        raise EmptySet()
    if method not in ("fps", "random"):
        raise ValueError(f"unknown method {method!r}; expected 'fps' or 'random'")
    sampler = farthest_point_sample if method == "fps" else random_subsample
    if len(a) > len(b):
        return sampler(a, len(b), seed), b
    if len(b) > len(a):
        return a, sampler(b, len(a), seed)
    return a, b
