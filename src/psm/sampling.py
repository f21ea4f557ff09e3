"""Point-set resampling: farthest point sampling, random subsampling, and
equal-size conditioning for the assignment-based metric.

All samplers return multiset subsets of their input, in selection order.
"""

import numpy as np

from .core import RandomSource, check_span, validate
from .errors import EmptySet, KOutOfRange


def _check_k(n, k):
    if n == 0:
        raise EmptySet()
    if not 1 <= k <= n:
        raise KOutOfRange(k, n)


def farthest_point_sample(ps, k, seed=0, start_index=None):
    """Greedy max-min subsample of k points.

    The first point is drawn uniformly from the seeded stream unless
    start_index pins it. Each subsequent point maximizes the minimum distance
    to everything already selected; ties go to the lowest index. Selection
    compares squared distances, which yields the same argmax as Euclidean.
    O(N k) time. Point sets whose squared distances could overflow float64
    raise DistanceOverflow.
    """
    pts = validate(ps)
    n = len(pts)
    _check_k(n, int(k))
    k = int(k)
    check_span(pts, pts)
    if start_index is None:
        start = int(RandomSource(seed).integers(n))
    else:
        if not 0 <= start_index < n:
            raise KOutOfRange(start_index, n)
        start = int(start_index)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = start
    # contiguous columns; dx*dx + dy*dy + dz*dz adds in the order of a row sum
    # of squares, so distances equal ((pts - p) ** 2).sum(axis=1) bit for bit
    x, y, z = np.ascontiguousarray(pts.T)
    min_d2 = np.full(n, np.inf)
    d2, sq = np.empty(n), np.empty(n)
    for i in range(1, k):
        p = chosen[i - 1]
        np.square(x - x[p], out=d2)
        d2 += np.square(y - y[p], out=sq)
        d2 += np.square(z - z[p], out=sq)
        np.minimum(min_d2, d2, out=min_d2)
        chosen[i] = np.argmax(min_d2)  # argmax takes the first, so lowest index wins ties
    return pts[chosen]


def random_subsample(ps, k, seed=0):
    """k distinct points via a seeded Fisher-Yates prefix, in draw order."""
    pts = validate(ps)
    n = len(pts)
    _check_k(n, int(k))
    k = int(k)
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
