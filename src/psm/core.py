"""Core types and conventions.

A point is a length-3 vector of finite float64 coordinates (model units).
A point set is an (N, 3) float64 array; N may be 0. Order is meaningful:
gradients are reported per index, so nothing here silently permutes rows.
Duplicate rows are allowed.

Every public entry point coerces with as_points() and, where the contract
demands finite input, checks with validate().
"""

import os
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DistanceOverflow, EmptySet, NonFiniteCoordinate

# a sum of three squares up to this stays finite in any order
_MAX_SPAN2 = np.finfo(np.float64).max / 4
_SAFE_COORD = np.sqrt(_MAX_SPAN2 / 12)


def as_points(ps):
    """Coerce to an (N, 3) float64 array without copying when possible."""
    a = np.asarray(ps, dtype=np.float64)
    if a.ndim == 1 and a.size == 0:
        return a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array of points, got shape {a.shape}")
    return a


def validate(ps):
    """Raise NonFiniteCoordinate at the first point holding NaN or Inf."""
    a = as_points(ps)
    bad = ~np.isfinite(a).all(axis=1)
    if bad.any():
        raise NonFiniteCoordinate(int(np.argmax(bad)))
    return a


def check_span(a, b):
    """Raise DistanceOverflow if a squared distance between a and b could overflow."""
    if max(np.abs(a).max(), np.abs(b).max()) <= _SAFE_COORD:
        return  # |dx| <= 2 _SAFE_COORD on each axis; skips the slower per-axis extent
    lo = np.minimum(a.min(axis=0), b.min(axis=0))
    hi = np.maximum(a.max(axis=0), b.max(axis=0))
    with np.errstate(over="ignore"):
        span2 = float(np.sum((hi - lo) ** 2))
    if not span2 <= _MAX_SPAN2:
        raise DistanceOverflow(f"squared extent {span2:g} of the points overflows float64")


def bounding_box(ps):
    """Componentwise (min, max) over a nonempty point set."""
    a = validate(ps)
    if len(a) == 0:
        raise EmptySet()
    return a.min(axis=0), a.max(axis=0)


class RandomSource:
    """Deterministic random stream with a documented, platform-stable layout.

    Backed by the Philox counter-based bit generator, so a given seed yields
    the same draws on every platform and the stream can be split into
    statistically independent children for parallel work. A RandomSource is
    single-owner: share children, not the parent.
    """

    def __init__(self, seed=0, _seq=None):
        self.seed = seed
        self._seq = np.random.SeedSequence(seed) if _seq is None else _seq
        self.gen = np.random.Generator(np.random.Philox(self._seq))

    def split(self, n):
        """n independent child sources; deterministic in (seed, n)."""
        return [RandomSource(self.seed, _seq=s) for s in self._seq.spawn(n)]

    # thin passthroughs for the draws used in this package
    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size)

    def random(self, size=None):
        return self.gen.random(size)


@dataclass
class DistanceResult:
    """Scalar distance plus optional per-index gradients.

    grad_a, when present, has one row per point of the first argument
    (d value / d a_i); grad_b likewise for the second. backend names the
    kernel that produced the value. achieved_eps and budget_relaxed are
    populated only by the approximate assignment route: the relative
    optimality bound it certifies, and whether that bound may miss the
    requested target because the final epsilon stayed above the target's
    floor (the time budget ran out, or float64 could not resolve the floor).
    """

    value: float
    grad_a: np.ndarray | None = None
    grad_b: np.ndarray | None = None
    backend: str = ""
    achieved_eps: float | None = None
    budget_relaxed: bool | None = None


def resolve_threads(threads=None):
    """Thread count: explicit argument, then PSM_THREADS, then 1.

    Serial by default: the mapped calls are too short for a pool to pay off
    (docs/formats.md, Environment, has the measurement).
    """
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("PSM_THREADS")
    if env:
        return max(1, int(env))
    return 1


def ordered_map(fn, items, threads=1):
    """Map fn over items, preserving order in the returned list.

    Work may run on a thread pool but results are gathered by index, so the
    output (and anything reduced from it in order) is identical for any
    thread count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))

