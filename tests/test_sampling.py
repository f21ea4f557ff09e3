"""Samplers: farthest point sampling, random subsampling, equalize.

fps_reference re-runs the greedy rule in plain python; the k-center oracle
enumerates every center subset, so the 2-approximation check is against a
true optimum.
"""

import itertools
import math

import numpy as np
import pytest

from psm.errors import DistanceOverflow, EmptySet, KOutOfRange
from psm.sampling import equalize, farthest_point_sample, random_subsample


def fps_reference(pts, k, start):
    chosen = [start]
    dmin = [math.dist(p, pts[start]) for p in pts]
    for _ in range(k - 1):
        best_i, best = 0, -1.0
        for i, d in enumerate(dmin):
            if d > best:  # strict: first/lowest index wins ties
                best, best_i = d, i
        chosen.append(best_i)
        for i, p in enumerate(pts):
            dmin[i] = min(dmin[i], math.dist(p, pts[best_i]))
    return chosen


def covering_radius(pts, centers):
    return max(min(math.dist(p, c) for c in centers) for p in pts)


def optimal_kcenter(pts, k):
    best = None
    for subset in itertools.combinations(range(len(pts)), k):
        r = covering_radius(pts, [pts[i] for i in subset])
        if best is None or r < best:
            best = r
    return best


def line_cloud():
    return np.column_stack([np.arange(11.0), np.zeros(11), np.zeros(11)])


def test_fps_line_hand_example():
    out = farthest_point_sample(line_cloud(), 3, start_index=0)
    assert out[:, 0].tolist() == [0.0, 10.0, 5.0]


def test_fps_k_equals_n_is_permutation():
    rng = np.random.default_rng(50)
    pts = rng.random((15, 3))
    out = farthest_point_sample(pts, 15, seed=4)
    assert sorted(map(tuple, out)) == sorted(map(tuple, pts))


def test_fps_k1_is_seeded_start():
    pts = line_cloud()
    out = farthest_point_sample(pts, 1, seed=9)
    assert out.shape == (1, 3)
    again = farthest_point_sample(pts, 1, seed=9)
    assert np.array_equal(out, again)
    pinned = farthest_point_sample(pts, 1, start_index=7)
    assert pinned[0, 0] == 7.0


def test_fps_matches_reference_greedy():
    rng = np.random.default_rng(51)
    for _ in range(15):
        n = int(rng.integers(2, 30))
        pts = rng.random((n, 3))
        k = int(rng.integers(1, n + 1))
        start = int(rng.integers(n))
        got = farthest_point_sample(pts, k, start_index=start)
        want = fps_reference(pts.tolist(), k, start)
        assert np.array_equal(got, pts[want])


def test_fps_tie_breaks_to_lowest_index():
    # start in the middle of a symmetric pair: both ends at distance 1
    pts = np.array([(0.0, 0, 0), (1.0, 0, 0), (2.0, 0, 0)])
    out = farthest_point_sample(pts, 2, start_index=1)
    assert out[1, 0] == 0.0


def test_fps_rescores_a_point_at_the_slab_edge():
    # After s, f1 and f2 the pick is p, at the largest min distance M = 1.
    # q lies 0.9999 from p along x, the widest axis: p lowers q's squared
    # min distance from 0.99990001 to 0.99980001, below w's 0.99985, so w is
    # picked next. A slab narrower than 0.9999 sqrt(M) would miss q and pick it.
    h = 0.75 ** 0.5
    s, f1, f2 = (0.0, 0, 0), (-100.0, 0, 0), (100.0, 0, 0)
    p, q = (0.5, h, 0.0), (0.5 - 0.9999, h, 0.0)
    w = (0.0, -(0.99985 ** 0.5), 0.0)
    pts = np.array([s, f1, f2, p, q, w])
    out = farthest_point_sample(pts, 6, start_index=0)
    assert np.array_equal(out, pts[fps_reference(pts.tolist(), 6, 0)])
    assert out[:5].tolist() == [list(v) for v in (s, f1, f2, p, w)]


def test_fps_two_approximation_of_kcenter():
    rng = np.random.default_rng(52)
    for trial in range(8):
        n = int(rng.integers(5, 13))
        pts = rng.random((n, 3)) * 2.0
        for k in range(1, min(4, n) + 1):
            opt = optimal_kcenter(pts.tolist(), k)
            for start in range(n):  # the bound holds for every start
                sel = farthest_point_sample(pts, k, start_index=start)
                assert covering_radius(pts.tolist(), sel.tolist()) \
                    <= 2.0 * opt + 1e-12


def test_fps_output_is_subset():
    rng = np.random.default_rng(53)
    pts = rng.random((40, 3))
    out = farthest_point_sample(pts, 12, seed=1)
    rows = set(map(tuple, pts))
    assert all(tuple(p) in rows for p in out)


def test_fps_range_errors():
    pts = line_cloud()
    with pytest.raises(KOutOfRange):
        farthest_point_sample(pts, 0)
    with pytest.raises(KOutOfRange):
        farthest_point_sample(pts, 12)
    with pytest.raises(KOutOfRange):
        farthest_point_sample(pts, 3, start_index=11)
    with pytest.raises(EmptySet):
        farthest_point_sample(np.empty((0, 3)), 1)


def test_fps_start_index_error_names_it():
    with pytest.raises(KOutOfRange, match=r"^start_index=11 out of range for set of size 11$"):
        farthest_point_sample(line_cloud(), 3, start_index=11)


def test_fps_rejects_overflowing_distances():
    # squared distances of 4e400 would all read inf, and the lowest index
    # would win where the farthest point should
    pts = np.array([(1e200, 0, 0), (-1e200, 0, 0), (0, 0, 0)])
    with pytest.raises(DistanceOverflow):
        farthest_point_sample(pts, 2, start_index=2)
    # large magnitudes are fine while the points stay close
    near = np.array([(1e160, 0, 0), (1e160 + 1e152, 0, 0), (1e160 + 3e152, 0, 0)])
    out = farthest_point_sample(near, 3, start_index=0)
    assert out.tolist() == near[[0, 2, 1]].tolist()


@pytest.mark.parametrize("k", [2.9, 3.0, True, "3", None])
def test_samplers_reject_non_integer_k(k):
    # int() would truncate 2.9 to 2, read True as 1 and parse "3"
    for sampler in (farthest_point_sample, random_subsample):
        with pytest.raises(TypeError):
            sampler(line_cloud(), k)


@pytest.mark.parametrize("start", [1.5, 1.0, False, "1"])
def test_fps_rejects_non_integer_start_index(start):
    with pytest.raises(TypeError):
        farthest_point_sample(line_cloud(), 3, start_index=start)


def test_samplers_take_numpy_integers():
    pts = line_cloud()
    assert np.array_equal(farthest_point_sample(pts, np.int32(3), start_index=np.int64(1)),
                          farthest_point_sample(pts, 3, start_index=1))
    assert np.array_equal(random_subsample(pts, np.uint8(4)), random_subsample(pts, 4))


def test_random_subsample_reproducible_subset():
    rng = np.random.default_rng(54)
    pts = rng.random((30, 3))
    out1 = random_subsample(pts, 10, seed=2)
    out2 = random_subsample(pts, 10, seed=2)
    assert np.array_equal(out1, out2)
    assert len(out1) == 10
    rows = list(map(tuple, pts))
    for p in map(tuple, out1):
        rows.remove(p)  # raises if out1 overdraws any row (multiset subset)


def test_random_subsample_k_equals_n():
    rng = np.random.default_rng(55)
    pts = rng.random((9, 3))
    out = random_subsample(pts, 9, seed=0)
    assert sorted(map(tuple, out)) == sorted(map(tuple, pts))


def test_random_subsample_range_errors():
    pts = line_cloud()
    with pytest.raises(KOutOfRange):
        random_subsample(pts, 0)
    with pytest.raises(KOutOfRange):
        random_subsample(pts, 99)
    with pytest.raises(EmptySet):
        random_subsample([], 1)


def test_equalize_downsamples_larger_side():
    rng = np.random.default_rng(56)
    a = rng.random((100, 3))
    b = rng.random((60, 3))
    a2, b2 = equalize(a, b, method="fps", seed=3)
    assert len(a2) == 60 and np.array_equal(b2, b)
    a3, b3 = equalize(b, a, method="random", seed=3)
    assert np.array_equal(a3, b) and len(b3) == 60


def test_equalize_equal_sizes_identity():
    rng = np.random.default_rng(57)
    a = rng.random((8, 3))
    b = rng.random((8, 3))
    a2, b2 = equalize(a, b)
    assert np.array_equal(a2, a) and np.array_equal(b2, b)


def test_equalize_errors():
    with pytest.raises(EmptySet):
        equalize([], [(0, 0, 0)])
    with pytest.raises(ValueError):
        equalize([(0, 0, 0)], [(1, 1, 1)], method="grid")


def test_fps_order_independent_given_same_start():
    # shuffling the input must not change the selected multiset when the
    # starting physical point is pinned to the same location
    rng = np.random.default_rng(58)
    pts = rng.random((25, 3))
    perm = rng.permutation(25)
    shuffled = pts[perm]
    start_orig = 4
    start_shuf = int(np.flatnonzero(perm == start_orig)[0])
    sel1 = farthest_point_sample(pts, 10, start_index=start_orig)
    sel2 = farthest_point_sample(shuffled, 10, start_index=start_shuf)
    assert sorted(map(tuple, sel1)) == sorted(map(tuple, sel2))
