"""Core types: validation, bounding boxes, seeded randomness, thread plumbing."""

import json

import numpy as np
import pytest

import psm.core
from psm import cli
from psm import io as psio
from psm.chamfer import chamfer_distance
from psm.core import (RandomSource, as_points, bounding_box, check_pair,
                      ordered_map, resolve_threads, validate)
from psm.emd import emd, emd_auction, emd_exact
from psm.errors import (DistanceOverflow, EmptySet, NonFiniteCoordinate,
                        SizeMismatch)
from psm.losses import CandidateBundle, batch_loss, mon_loss
from psm.meanshape import SgdConfig, ShapeDistributionSpec, optimize_mean_shape
from psm.sampling import farthest_point_sample, random_subsample


def bbox_loop(pts):
    # oracle: plain python loops, no vector reductions
    lo = [min(p[i] for p in pts) for i in range(3)]
    hi = [max(p[i] for p in pts) for i in range(3)]
    return lo, hi


def test_validate_accepts_finite():
    out = validate([(0, 0, 0), (1, 2, 3)])
    assert out.shape == (2, 3)
    assert out.dtype == np.float64


def test_validate_empty_ok():
    assert validate([]).shape == (0, 3)
    assert validate(np.empty((0, 3))).shape == (0, 3)


def test_validate_reports_first_bad_index():
    with pytest.raises(NonFiniteCoordinate) as exc:
        validate([(0, 0, np.nan)])
    assert exc.value.index == 0

    pts = np.zeros((5, 3))
    pts[3, 1] = np.inf
    pts[4, 2] = np.nan
    with pytest.raises(NonFiniteCoordinate) as exc:
        validate(pts)
    assert exc.value.index == 3


def test_as_points_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_points([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_points(np.zeros((2, 4)))


def test_check_pair_order():
    # a's finiteness, then b's, then emptiness, then sizes, then the span
    nan, far = [(np.nan, 0, 0)], [(1e200, 0, 0), (-1e200, 0, 0)]
    with pytest.raises(NonFiniteCoordinate):
        check_pair(nan, [])
    with pytest.raises(NonFiniteCoordinate):
        check_pair([], nan)
    with pytest.raises(EmptySet):
        check_pair([], far, same_size=True)
    with pytest.raises(SizeMismatch):
        check_pair(far, far[:1], same_size=True)
    with pytest.raises(DistanceOverflow):
        check_pair(far, far[:1])
    a, b = check_pair([(0, 0, 0)], [[1, 2, 3]], same_size=True)
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape == (1, 3)


@pytest.mark.parametrize("metric", [emd, emd_exact, emd_auction, chamfer_distance])
def test_metrics_validate_each_side_once(monkeypatch, metric):
    calls = []
    monkeypatch.setattr(psm.core, "validate",
                        lambda ps: calls.append(1) or validate(ps))
    rng = np.random.default_rng(3)
    metric(rng.random((6, 3)), rng.random((6, 3)))
    assert len(calls) == 2


def test_bounding_box_examples():
    lo, hi = bounding_box([(0, 0, 0), (1, 2, 3)])
    assert lo.tolist() == [0, 0, 0] and hi.tolist() == [1, 2, 3]
    lo, hi = bounding_box([(5, 5, 5)])
    assert lo.tolist() == [5, 5, 5] and hi.tolist() == [5, 5, 5]
    lo, hi = bounding_box([(-1, 0, 2), (3, -2, 1)])
    assert lo.tolist() == [-1, -2, 1] and hi.tolist() == [3, 0, 2]


def test_bounding_box_empty_raises():
    with pytest.raises(EmptySet):
        bounding_box([])


def test_bounding_box_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        pts = rng.normal(size=(int(rng.integers(1, 40)), 3))
        lo, hi = bounding_box(pts)
        olo, ohi = bbox_loop(pts)
        assert lo.tolist() == olo and hi.tolist() == ohi
        assert (pts >= lo).all() and (pts <= hi).all()


def test_random_source_reproducible():
    a = RandomSource(42)
    b = RandomSource(42)
    assert np.array_equal(a.uniform(size=100), b.uniform(size=100))
    assert np.array_equal(a.integers(0, 1000, 50), b.integers(0, 1000, 50))
    assert np.array_equal(a.random(20), b.random(20))


def test_random_source_pinned_stream():
    # regression pin on the documented generator's byte-level behavior
    r = RandomSource(12345)
    assert [int(v) for v in r.integers(0, 2 ** 32, 4)] == [
        3767040320, 1807126213, 2638842113, 2805347945]
    u = RandomSource(7).uniform(size=3)
    assert np.allclose(u, [0.46881748695593284, 0.42614583623918467,
                           0.3629817008336008], rtol=0, atol=0)


def test_random_source_split_streams():
    kids = RandomSource(9).split(3)
    again = RandomSource(9).split(3)
    draws = [k.uniform(size=8) for k in kids]
    for d, d2 in zip(draws, (k.uniform(size=8) for k in again)):
        assert np.array_equal(d, d2)
    # children are distinct streams
    assert not np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[1], draws[2])


def test_every_seed_is_an_integer_at_least_zero():
    # None would draw OS entropy and a bool would run as 0 or 1; both raise
    # wherever a seed enters, and the same seed gives the same draws
    pts = np.random.default_rng(0).random((50, 3))
    calls = [RandomSource, lambda seed: farthest_point_sample(pts, 1, seed=seed),
             lambda seed: random_subsample(pts, 3, seed=seed),
             lambda seed: SgdConfig(seed=seed)]
    for call in calls:
        for seed in (None, True, 1.0, "1"):
            with pytest.raises(TypeError, match="seed must be an integer"):
                call(seed)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            call(-1)
    assert np.array_equal(farthest_point_sample(pts, 4, seed=np.int64(3)),
                          farthest_point_sample(pts, 4, seed=3))


def test_resolve_threads(monkeypatch):
    assert resolve_threads(4) == 4
    assert resolve_threads(np.int64(3)) == 3
    assert resolve_threads(0) == 1
    monkeypatch.setenv("PSM_THREADS", "3")
    assert resolve_threads() == 1  # serial unless asked; no environment read
    gt = np.zeros((2, 3))
    for bad in (2.5, True, "3"):
        with pytest.raises(TypeError):
            resolve_threads(bad)
        with pytest.raises(TypeError):
            ordered_map(abs, [1, 2], threads=bad)
        with pytest.raises(TypeError):
            mon_loss(CandidateBundle([gt, gt + 1], gt), threads=bad)
        with pytest.raises(TypeError):
            optimize_mean_shape(ShapeDistributionSpec("circle_radius", n_points=4),
                                SgdConfig(steps=1, batch=2), threads=bad)


def test_ordered_map_preserves_order():
    items = list(range(20))
    for threads in (1, 4):
        out = ordered_map(lambda v: v * v, items, threads=threads)
        assert out == [v * v for v in items]


def test_ordered_map_thread_count_invariant():
    rng = np.random.default_rng(0)
    blocks = [rng.normal(size=50) for _ in range(12)]
    serial = ordered_map(np.sort, blocks, threads=1)
    pooled = ordered_map(np.sort, blocks, threads=6)
    for s, p in zip(serial, pooled):
        assert np.array_equal(s, p)


def test_default_threads_start_no_pool(monkeypatch, tmp_path):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(psm.core, "ThreadPoolExecutor", no_pool)
    monkeypatch.delenv("PSM_THREADS", raising=False)
    # the patch bites when a pool is asked for
    with pytest.raises(AssertionError):
        ordered_map(abs, [1, 2], threads=2)

    spec = ShapeDistributionSpec("corner_square", n_points=16)
    for metric in ("cd", "emd"):
        optimize_mean_shape(spec, SgdConfig(metric=metric, steps=2, batch=4))
    rng = np.random.default_rng(0)
    gt = rng.normal(size=(8, 3))
    cands = [rng.normal(size=(8, 3)) for _ in range(3)]
    mon_loss(CandidateBundle(cands, gt))
    batch_loss([(c, gt) for c in cands])

    gt_path = str(tmp_path / "gt.xyz")
    psio.write_xyz(gt, gt_path)
    cand_paths = []
    for j, c in enumerate(cands):
        cand_paths.append(str(tmp_path / f"c{j}.xyz"))
        psio.write_xyz(c, cand_paths[-1])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"family": "bar_disk", "n_points": 16}))
    assert cli.main(["mon", gt_path, *cand_paths]) == 0
    assert cli.main(["meanshape", "--spec", str(spec_path), "--steps", "2"]) == 0
