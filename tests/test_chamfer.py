"""Chamfer distance: value, gradients, tie rules, KD-tree vs brute force.

The reference implementation below is deliberately slow python: value and
nearest neighbors come from explicit loops over the definition, and the
gradient is assembled term by term. Everything else is checked against it.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import psm.chamfer as chamfer_module
from psm.chamfer import KdTree, chamfer_distance
from psm.errors import DistanceOverflow, EmptySet, NonFiniteCoordinate
from psm.losses import CandidateBundle, batch_loss, mon_loss
from psm.meanshape import SgdConfig, ShapeDistributionSpec, optimize_mean_shape


def nn_loop(p, pts):
    """Index of the nearest point, lowest index on ties, plus squared distance."""
    best_j, best = -1, None
    for j, q in enumerate(pts):
        d = float((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2)
        if best is None or d < best:
            best, best_j = d, j
    return best_j, best


def cd_reference(a, b, normalize=False):
    """Value and both gradients straight from the defining double sum."""
    nn_ab = [nn_loop(p, b) for p in a]
    nn_ba = [nn_loop(q, a) for q in b]
    wa = 1.0 / len(a) if normalize else 1.0
    wb = 1.0 / len(b) if normalize else 1.0
    value = wa * sum(d for _, d in nn_ab) + wb * sum(d for _, d in nn_ba)
    grad_a = np.zeros((len(a), 3))
    grad_b = np.zeros((len(b), 3))
    for i, (j, _) in enumerate(nn_ab):
        grad_a[i] += 2.0 * wa * (a[i] - b[j])
        grad_b[j] += 2.0 * wa * (b[j] - a[i])
    for j, (i, _) in enumerate(nn_ba):
        grad_b[j] += 2.0 * wb * (b[j] - a[i])
        grad_a[i] += 2.0 * wb * (a[i] - b[j])
    return value, grad_a, grad_b


def fd_grad(f, x, h=1e-5):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def cloud(rng, n, scale=1.0):
    return rng.normal(size=(n, 3)) * scale


# ---------------------------------------------------------------- values

def test_identical_sets_zero_value_zero_grad():
    a = np.array([(0.0, 0, 0), (1, 1, 1)])
    res = chamfer_distance(a, a.copy(), want_grad=True)
    assert res.value == 0.0
    assert not res.grad_a.any() and not res.grad_b.any()


def test_single_pair_hand_value_and_gradient():
    a = np.array([(0.0, 0, 0)])
    b = np.array([(1.0, 0, 0)])
    res = chamfer_distance(a, b, want_grad=True)
    assert res.value == 2.0  # 1 forward + 1 backward
    assert np.allclose(res.grad_a[0], (-4, 0, 0), rtol=0, atol=0)
    assert np.allclose(res.grad_b[0], (4, 0, 0), rtol=0, atol=0)


def test_two_vs_one_hand_value():
    a = np.array([(0.0, 0, 0), (10, 0, 0)])
    b = np.array([(1.0, 0, 0)])
    assert chamfer_distance(a, b).value == 83.0  # 1 + 81 forward, 1 back


@pytest.mark.parametrize("backend", ["brute", "kdtree"])
def test_value_matches_loop_reference(backend):
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = cloud(rng, int(rng.integers(1, 40)))
        b = cloud(rng, int(rng.integers(1, 40)))
        got = chamfer_distance(a, b, backend=backend).value
        want, _, _ = cd_reference(a, b)
        assert got == pytest.approx(want, rel=1e-12)


def test_normalized_value_matches_reference():
    rng = np.random.default_rng(12)
    a = cloud(rng, 17)
    b = cloud(rng, 5)
    got = chamfer_distance(a, b, normalize=True).value
    want, _, _ = cd_reference(a, b, normalize=True)
    assert got == pytest.approx(want, rel=1e-12)


def test_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(13)
    a = cloud(rng, 25)
    b = cloud(rng, 31)
    v = chamfer_distance(a, b).value
    assert chamfer_distance(b, a).value == v
    assert chamfer_distance(a[rng.permutation(25)], b[rng.permutation(31)]).value \
        == pytest.approx(v, rel=1e-12)


def test_translation_invariance():
    rng = np.random.default_rng(14)
    a = cloud(rng, 20)
    b = cloud(rng, 20)
    t = np.array([3.5, -1.25, 0.75])
    v = chamfer_distance(a, b).value
    assert chamfer_distance(a + t, b + t).value == pytest.approx(v, rel=1e-9)


def test_zero_iff_equal_multisets():
    rng = np.random.default_rng(15)
    a = cloud(rng, 12)
    shuffled = a[rng.permutation(12)]
    assert chamfer_distance(a, shuffled).value == 0.0
    nudged = shuffled.copy()
    nudged[4, 0] += 1e-6
    assert chamfer_distance(a, nudged).value > 0.0


# ------------------------------------------------------------- gradients

def test_gradients_match_loop_reference():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = cloud(rng, int(rng.integers(1, 25)))
        b = cloud(rng, int(rng.integers(1, 25)))
        res = chamfer_distance(a, b, want_grad=True)
        _, ga, gb = cd_reference(a, b)
        assert np.allclose(res.grad_a, ga, rtol=1e-12, atol=1e-12)
        assert np.allclose(res.grad_b, gb, rtol=1e-12, atol=1e-12)


def nn_margin(a, b):
    """Smallest gap between best and second-best squared NN distance, both ways."""
    gaps = []
    for q, pts in ((a, b), (b, a)):
        for p in q:
            d = np.sort(((pts - p) ** 2).sum(axis=1))
            if len(d) > 1:
                gaps.append(d[1] - d[0])
    return min(gaps) if gaps else np.inf


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 12:
        a = cloud(rng, 8)
        b = cloud(rng, 9)
        if nn_margin(a, b) < 1e-3:  # keep away from NN ties so FD is clean
            continue
        res = chamfer_distance(a, b, want_grad=True)
        ga = fd_grad(lambda x: chamfer_distance(x, b).value, a)
        gb = fd_grad(lambda x: chamfer_distance(a, x).value, b)
        assert np.linalg.norm(res.grad_a - ga) <= 1e-4 * np.linalg.norm(ga)
        assert np.linalg.norm(res.grad_b - gb) <= 1e-4 * np.linalg.norm(gb)
        checked += 1


def test_normalized_gradients_match_finite_differences():
    rng = np.random.default_rng(18)
    a = cloud(rng, 7)
    b = cloud(rng, 12)
    assert nn_margin(a, b) > 1e-3
    res = chamfer_distance(a, b, want_grad=True, normalize=True)
    ga = fd_grad(lambda x: chamfer_distance(x, b, normalize=True).value, a)
    assert np.linalg.norm(res.grad_a - ga) <= 1e-4 * np.linalg.norm(ga)


def test_tie_breaks_to_lowest_index():
    # b has two identical points; the backward term must credit the first
    a = np.array([(0.0, 0, 0)])
    b = np.array([(1.0, 0, 0), (1.0, 0, 0)])
    res = chamfer_distance(a, b, want_grad=True)
    _, ga, gb = cd_reference(a, b)
    assert np.array_equal(res.grad_a, ga)
    assert np.array_equal(res.grad_b, gb)
    # forward NN of a's point is b[0]; grad_b[1] holds only its own forward term
    assert np.allclose(res.grad_b[1], (2.0, 0, 0))


def test_tie_gradient_decreases_value():
    # a point exactly halfway between two targets: an exact NN tie; the
    # reported gradient must still be a descent direction
    a = np.array([(0.0, 0, 0), (4.0, 3.0, 0)])
    b = np.array([(-1.0, 0, 0), (1.0, 0, 0), (4.0, 3.0, 0)])
    res = chamfer_distance(a, b, want_grad=True)
    v0 = res.value
    for lr in (1e-3, 1e-4):
        moved = a - lr * res.grad_a
        assert chamfer_distance(moved, b).value < v0


def test_want_grad_false_leaves_gradients_none():
    res = chamfer_distance([(0, 0, 0)], [(1, 1, 1)])
    assert res.grad_a is None and res.grad_b is None
    assert res.backend == "brute"


# m x n points scan while m n <= 256 (m + n): 512 x 512 and 1024 x 341 lie on
# the scan's side of the boundary, 513 x 512 and 1024 x 342 just past it
@pytest.mark.parametrize("m,n,route", [
    (512, 512, "brute"), (513, 512, "kdtree"), (1024, 341, "brute"),
    (1024, 342, "kdtree"), (64, 8192, "brute")])
def test_default_route_follows_the_size_rule(monkeypatch, m, n, route):
    rng = np.random.default_rng(24)
    a, b = rng.random((m, 3)), rng.random((n, 3))
    assert chamfer_distance(a, b).backend == route
    routes = []
    nn = chamfer_module._nn
    monkeypatch.setattr(chamfer_module, "_nn",
                        lambda q, pts, backend: routes.append(backend) or nn(q, pts, backend))
    mon_loss(CandidateBundle([a], b))
    batch_loss([(a, b)])
    spec = ShapeDistributionSpec("circle_radius", n_points=n)
    optimize_mean_shape(spec, SgdConfig(steps=1, batch=1, m=m))
    assert routes == [route] * 6


def test_scan_memory_is_bounded_beside_a_huge_set():
    # 256 x 50000 takes the scan, which holds 2**18 distances (2 MiB) at a time
    rng = np.random.default_rng(25)
    a, b = rng.random((256, 3)), rng.random((50000, 3))
    tracemalloc.start()
    try:
        res = chamfer_distance(a, b, want_grad=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.backend == "brute"
    assert peak <= 8 * 2**20
    ref = chamfer_distance(a, b, want_grad=True, backend="kdtree")
    assert np.float64(res.value).tobytes() == np.float64(ref.value).tobytes()
    assert res.grad_a.tobytes() == ref.grad_a.tobytes()
    assert res.grad_b.tobytes() == ref.grad_b.tobytes()


# ---------------------------------------------------------------- kd-tree

def test_kdtree_singleton():
    idx, d2 = KdTree([(1.0, 2.0, 3.0)]).query([(0.0, 0.0, 0.0)])
    assert idx.tolist() == [0]
    assert d2.tolist() == [14.0]


def test_kdtree_matches_linear_scan():
    rng = np.random.default_rng(19)
    pts = rng.random((1000, 3))
    tree = KdTree(pts)
    queries = rng.random((100, 3))
    idx, d2 = tree.query(queries)
    for qi in range(len(queries)):
        want_j, want_d = nn_loop(queries[qi], pts)
        assert idx[qi] == want_j
        assert d2[qi] == pytest.approx(want_d, rel=1e-12)


@pytest.mark.parametrize("shape", ["collinear", "planar", "duplicated"])
def test_kdtree_degenerate_clouds(shape):
    rng = np.random.default_rng(20)
    if shape == "collinear":
        pts = np.column_stack([np.linspace(0, 1, 200), np.zeros(200), np.zeros(200)])
    elif shape == "planar":
        pts = np.column_stack([rng.random((300, 2)), np.zeros(300)])
    else:
        base = rng.random((40, 3))
        pts = np.repeat(base, 5, axis=0)
    tree = KdTree(pts)
    queries = rng.random((60, 3))
    idx, d2 = tree.query(queries)
    for qi in range(len(queries)):
        want_j, want_d = nn_loop(queries[qi], pts)
        assert idx[qi] == want_j  # ties must resolve to the lowest index
        assert d2[qi] == pytest.approx(want_d, rel=1e-12)


def test_backends_agree_bitwise():
    rng = np.random.default_rng(22)
    for n, m in ((1, 500), (333, 17), (1024, 1024), (2048, 700)):
        a = rng.random((n, 3))
        b = rng.random((m, 3))
        vb = chamfer_distance(a, b, backend="brute", want_grad=True)
        vk = chamfer_distance(a, b, backend="kdtree", want_grad=True)
        assert vb.value == vk.value
        assert np.array_equal(vb.grad_a, vk.grad_a)
        assert np.array_equal(vb.grad_b, vk.grad_b)


def test_kdtree_many_exact_ties():
    # the 24 points (±2, ±1, 0) and permutations are all at squared distance
    # 5 from the origin; the lowest index among them must win
    shell = {p for s in itertools.product((2, -2), (1, -1), (0,))
             for p in itertools.permutations(s)}
    rng = np.random.default_rng(23)
    pts = np.array(sorted(shell), dtype=np.float64)[rng.permutation(len(shell))]
    pts = np.vstack([pts, 3.0 * pts])
    queries = np.array([(0.0, 0, 0), (0, 0, 0.25), (0.5, 0.5, 0.5)])
    idx, d2 = KdTree(pts).query(queries)
    for qi in range(len(queries)):
        want_j, want_d = nn_loop(queries[qi], pts)
        assert idx[qi] == want_j
        assert d2[qi] == want_d


def sphere_shell(r2):
    """Every integer point at squared distance r2 from the origin."""
    r = int(np.sqrt(r2))
    return [p for p in itertools.product(range(-r, r + 1), repeat=3)
            if p[0] ** 2 + p[1] ** 2 + p[2] ** 2 == r2]


class RecordingTree:
    """A cKDTree stand-in that records the k of every query."""

    def __init__(self, tree):
        self.tree, self.n, self.ks = tree, tree.n, []

    def query(self, q, k):
        self.ks.append(k)
        return self.tree.query(q, k=k)


@pytest.mark.parametrize("r2,far,widened", [
    (1, True, 0),    # 6 tied points: the REPAIR_K nearest settle the row
    (2, True, 1),    # 12: REPAIR_K < 12 < REPAIR_K * _WIDEN
    (25, True, 2),   # 30: more than REPAIR_K * _WIDEN
    (14, True, 3),   # 48: more than 4 REPAIR_K
    (25, False, 2),  # the 30 alone: k stops at the tree's size
])
def test_kdtree_ties_widen_until_settled(r2, far, widened):
    # the origin is equidistant from every integer point at squared distance
    # r2; a row stays unsettled while its k-th neighbour is one of them
    shell = np.array(sphere_shell(r2), dtype=np.float64)
    rng = np.random.default_rng(24)
    pts = shell[rng.permutation(len(shell))]
    if far:
        pts = np.vstack([1.5 * shell, pts])
    tree = KdTree(pts)
    tree.tree = RecordingTree(tree.tree)
    queries = np.array([(0.0, 0, 0), (0.1, 0.2, 0.3)])
    idx, d2 = tree.query(queries)
    for qi in range(len(queries)):
        want_j, want_d = nn_loop(queries[qi], pts)
        assert idx[qi] == want_j
        assert d2[qi] == want_d
    assert idx[0] == (len(shell) if far else 0)
    ks = [min(chamfer_module.REPAIR_K * chamfer_module._WIDEN**i, len(pts))
          for i in range(widened + 1)]
    assert tree.tree.ks == [2] + ks
    assert ks[-1] > len(shell) or ks[-1] == len(pts)


# ----------------------------------------------------------------- errors

def test_empty_inputs_rejected():
    with pytest.raises(EmptySet):
        chamfer_distance([], [(0, 0, 0)])
    with pytest.raises(EmptySet):
        chamfer_distance([(0, 0, 0)], [])
    with pytest.raises(EmptySet):
        KdTree([])


def test_nonfinite_inputs_rejected():
    with pytest.raises(NonFiniteCoordinate):
        chamfer_distance([(0, 0, np.nan)], [(0, 0, 0)])
    with pytest.raises(NonFiniteCoordinate):
        chamfer_distance([(0, 0, 0)], [(np.inf, 0, 0)])


@pytest.mark.parametrize("backend", ["brute", "kdtree"])
def test_overflowing_distances_rejected(backend):
    # squared distances of 4e400 overflow float64; both backends refuse
    # before searching rather than return inf
    with pytest.raises(DistanceOverflow):
        chamfer_distance([(1e200, 0, 0)], [(-1e200, 0, 0)], backend=backend)
    with pytest.raises(DistanceOverflow):
        chamfer_distance([(0, 0, 0), (0, 1e200, 0)], [(0, 0, 0)], backend=backend)
    with pytest.raises(DistanceOverflow):
        KdTree([(1e200, 0, 0)]).query([(-1e200, 0, 0)])
    # large magnitudes are fine while the points stay close
    far = np.array([(1e200, 0, 0), (1e200, 1e150, 0)])
    assert chamfer_distance(far, far[::-1], backend=backend).value == 0.0
    assert chamfer_distance([(1e150, 0, 0)], [(-1e150, 0, 0)], backend=backend).value \
        == 2 * (2e150) ** 2


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        chamfer_distance([(0, 0, 0)], [(1, 1, 1)], backend="octree")
