"""Shape distributions and the SGD mean-shape optimizer."""

import dataclasses
import hashlib
import importlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from psm.core import RandomSource
from psm.errors import (DistanceOverflow, DivergenceDetected, EmptySet,
                        InvalidParameter, NonFiniteCoordinate, SizeMismatch,
                        UnknownFamily)
from psm.meanshape import (FAMILY_DEFAULTS, SgdConfig, ShapeDistributionSpec,
                           corner_regions, draw_shape, emit_plot,
                           optimize_mean_shape, region_fractions, spec_from_dict)


def ema(xs, window=50):
    alpha = 2.0 / (window + 1.0)
    acc = xs[0]
    out = []
    for v in xs:
        acc = alpha * v + (1 - alpha) * acc
        out.append(acc)
    return out


def radial_rms_dev(x, center):
    r = np.linalg.norm(x[:, :2] - np.asarray(center), axis=1)
    return float(np.sqrt(np.mean((r - r.mean()) ** 2)))


# ------------------------------------------------------------------- specs

def test_spec_defaults_and_overrides():
    spec = ShapeDistributionSpec("circle_radius")
    assert spec.params == FAMILY_DEFAULTS["circle_radius"]
    spec = ShapeDistributionSpec("circle_radius", params={"r_min": 0.3})
    assert spec.params["r_min"] == 0.3
    assert spec.params["r_max"] == FAMILY_DEFAULTS["circle_radius"]["r_max"]
    spec = ShapeDistributionSpec("spiky_arc", params={"radius": 1})  # JSON int
    assert spec.params["radius"] == 1.0
    assert draw_shape(spec, RandomSource(0)).shape == (256, 3)


def test_spec_rejects_bad_input():
    with pytest.raises(UnknownFamily):
        ShapeDistributionSpec("torus")
    with pytest.raises(InvalidParameter):
        ShapeDistributionSpec("circle_radius", params={"wobble": 1})
    with pytest.raises(InvalidParameter):
        ShapeDistributionSpec("circle_radius", params={"r_min": -1.0})
    with pytest.raises(InvalidParameter):
        ShapeDistributionSpec("circle_radius", params={"r_min": 0.5, "r_max": 0.2})
    with pytest.raises(InvalidParameter):
        ShapeDistributionSpec("bar_disk", params={"p_disk": 1.5})
    with pytest.raises(InvalidParameter):
        ShapeDistributionSpec("circle_radius", n_points=0)
    # beside a 1e300 offset the crown's vertices round to one point
    with pytest.raises(InvalidParameter, match="^travel: .* zero length"):
        ShapeDistributionSpec("spiky_arc", params={"travel": 1e300})


def test_spec_integers_are_not_truncated():
    # n_points, seed and n_spikes are integers: no float, bool or string is
    # truncated or parsed, and a negative seed fails here, not in a plot
    for kwargs, key in [({"n_points": 2.5}, "n_points"), ({"n_points": True}, "n_points"),
                        ({"n_points": "8"}, "n_points"), ({"seed": 1.7}, "seed"),
                        ({"seed": False}, "seed"), ({"seed": -1}, "seed")]:
        with pytest.raises(InvalidParameter, match=f"^{key} must be"):
            ShapeDistributionSpec("circle_radius", **kwargs)
    for bad in (2.9, 2.0, True, "3"):
        with pytest.raises(InvalidParameter, match="^n_spikes must be an integer"):
            spec_from_dict({"family": "spiky_arc", "n_spikes": bad})
    spec = ShapeDistributionSpec("spiky_arc", n_points=np.int64(9), seed=np.uint8(3),
                                 params={"n_spikes": np.int32(2)})
    assert (spec.n_points, spec.seed, spec.params["n_spikes"]) == (9, 3, 2)
    assert all(type(v) is int
               for v in (spec.n_points, spec.seed, spec.params["n_spikes"]))


def test_spec_from_dict_flat_schema():
    spec = spec_from_dict({"family": "spiky_arc", "n_points": 32, "seed": 5,
                           "travel": 0.2})
    assert spec.family == "spiky_arc"
    assert spec.n_points == 32 and spec.seed == 5
    assert spec.params["travel"] == 0.2
    with pytest.raises(InvalidParameter):
        spec_from_dict({"n_points": 32})


# ------------------------------------------------------------------- draws

def test_draw_counts_and_plane():
    # a numpy Generator drives draw_shape too: perfbench's baseline passes one
    for rng in (RandomSource(1), np.random.default_rng(1)):
        for family in FAMILY_DEFAULTS:
            spec = ShapeDistributionSpec(family, n_points=37)
            s = draw_shape(spec, rng)
            assert s.shape == (37, 3)
            assert not s[:, 2].any()  # embedded at z = 0


def test_degenerate_circle_radius():
    spec = ShapeDistributionSpec(
        "circle_radius", n_points=50,
        params={"center": [0.5, 0.5], "r_min": 1.0, "r_max": 1.0})
    s = draw_shape(spec, RandomSource(2))
    r = np.linalg.norm(s[:, :2] - [0.5, 0.5], axis=1)
    assert np.allclose(r, 1.0, atol=1e-12)


def test_circle_radius_within_range():
    spec = ShapeDistributionSpec("circle_radius", n_points=20)
    rng = RandomSource(3)
    for _ in range(50):
        s = draw_shape(spec, rng)
        r = np.linalg.norm(s[:, :2] - [0.5, 0.5], axis=1)
        assert (r >= spec.params["r_min"] - 1e-12).all()
        assert (r <= spec.params["r_max"] + 1e-12).all()


def test_draw_stream_deterministic():
    spec = ShapeDistributionSpec("bar_disk", n_points=31)
    d1 = [draw_shape(spec, RandomSource(11)) for _ in range(1)]
    a = [draw_shape(spec, rng) for rng in [RandomSource(8)] for _ in range(5)]
    b = [draw_shape(spec, rng) for rng in [RandomSource(8)] for _ in range(5)]
    for s1, s2 in zip(a, b):
        assert np.array_equal(s1, s2)
    assert d1[0].shape == (31, 3)


# SHA-256 over the bytes of 16 draws of 256 points from RandomSource(2024)
DRAW_DIGESTS = {
    "circle_radius": "59d79875a97429736afcdc7753bf71edac671877cea773d6b2bcf45dd47e2410",
    "spiky_arc": "a12c1b6dfe7fe3ae65f6c5550a7602c41425fcb9c3b665516e85bd5cec6c2d64",
    "corner_square": "5767df4199d8fc639fa25896d9376fb5dce36b29932c5cb6b4586b7a6432fda2",
    "bar_disk": "db65dc32f0d74f9f43bb6c851dc3fabf519ed4619b3a0b947bb507cb1534b3a1",
}


@pytest.mark.parametrize("family", sorted(DRAW_DIGESTS))
def test_draw_bytes_pinned(family):
    # the optimizer's trajectories depend on every bit of every draw
    spec = ShapeDistributionSpec(family, n_points=256)
    rng = RandomSource(2024)
    digest = hashlib.sha256()
    for _ in range(16):
        s = draw_shape(spec, rng)
        assert s.dtype == np.float64 and s.flags.c_contiguous
        digest.update(s.tobytes())
    assert digest.hexdigest() == DRAW_DIGESTS[family]


# SHA-256 over x.tobytes() + trace.tobytes() of a 30-step run: 64 points,
# batch 8, seed 41, default step size
TRAJECTORY_DIGESTS = {
    ("bar_disk", "cd"): "e8a2ba841887349fda6f35223bab8846eb87ccf601c7bc8ec04a2a6b108b6806",
    ("bar_disk", "emd"): "aec90dc2d2902cbc0f0b04c8806000cc121858e7b83a4a71ed04367c9be68505",
    ("circle_radius", "cd"): "765e325ea870074db50fd4a974d5c0d9e71e04730bf7077349f213ff234fdcba",
    ("corner_square", "cd"): "0a0d8b8c92040aac25b12ed7e3fd30aa861d19ed60ce4057a5e760c15817e5c4",
    ("corner_square", "emd"): "f631c7b9b12ba2209eb1d3094deb2406b4525d1c97389e22b7fcc21f8b395c24",
    ("spiky_arc", "cd"): "adaff1217b482a2a963b034c3c20f3836e3be6c9d4f0002963d7d4456f0092a2",
    ("spiky_arc", "emd"): "b0ffad26b9ca74b37bb0750f25ec7a52919f85466be5ae93a6b96d8fb3651ab0",
    ("circle_radius", "emd"): "836a444c49ca6679eb73f1a11a0d60affab95a3195065fe9ae0583ae8ee93411",
}


@pytest.mark.parametrize("family,metric", sorted(TRAJECTORY_DIGESTS))
def test_trajectory_bytes_pinned(family, metric):
    spec = ShapeDistributionSpec(family, n_points=64)
    x, trace = optimize_mean_shape(
        spec, SgdConfig(metric=metric, steps=30, batch=8, seed=41))
    digest = hashlib.sha256(x.tobytes() + trace.tobytes()).hexdigest()
    assert digest == TRAJECTORY_DIGESTS[family, metric]


@pytest.mark.parametrize("family", ["bar_disk", "corner_square"])
def test_kdtree_route_reproduces_the_scan_trajectory(monkeypatch, family):
    # these 64-point runs take the scan; forced onto the kd-tree, with the
    # scan made to fail, they must give the same bits
    chamfer_module = importlib.import_module("psm.chamfer")
    monkeypatch.setattr(chamfer_module, "SCAN_LIMIT", 0)
    monkeypatch.setattr(chamfer_module, "_nn_brute", None)
    spec = ShapeDistributionSpec(family, n_points=64)
    x, trace = optimize_mean_shape(
        spec, SgdConfig(metric="cd", steps=30, batch=8, seed=41))
    digest = hashlib.sha256(x.tobytes() + trace.tobytes()).hexdigest()
    assert digest == TRAJECTORY_DIGESTS[family, "cd"]


# The same digest over runs at the benchmark's own size: 256 points, batch 8,
# seed 41. At lr0 = 0.5 many points land exactly on outline points, so these
# runs are tie-heavy (about 30 of 256 rows end up duplicated).
BENCH_TRAJECTORY_DIGESTS = {
    ("bar_disk", "cd", 200): "9f2a9bf92f7dddd4512e9533f9b5f83114ee3b914464ed2a7a8a06215a3b47fc",
    ("circle_radius", "emd", 30): "8d5c8bb56933daa720de4f9a5358d5a2295efc239d19820646068e6e84a3b039",
    ("corner_square", "cd", 200): "ff4b889079e46ca0f7c1b5dfa4f0ede3974c170e154074c94ee02d95b9c11226",
}


@pytest.mark.parametrize("family,metric,steps", sorted(BENCH_TRAJECTORY_DIGESTS))
def test_bench_sized_trajectory_bytes_pinned(family, metric, steps):
    spec = ShapeDistributionSpec(family, n_points=256)
    x, trace = optimize_mean_shape(
        spec, SgdConfig(metric=metric, steps=steps, batch=8, seed=41))
    digest = hashlib.sha256(x.tobytes() + trace.tobytes()).hexdigest()
    assert digest == BENCH_TRAJECTORY_DIGESTS[family, metric, steps]


def test_corner_choice_frequency():
    spec = ShapeDistributionSpec("corner_square", n_points=64)
    boxes = corner_regions(spec)
    rng = RandomSource(13)
    counts = np.zeros(4, dtype=int)
    for _ in range(10_000):
        s = draw_shape(spec, rng)
        per_box = [np.count_nonzero(
            (s[:, 0] >= x0) & (s[:, 0] <= x1) & (s[:, 1] >= y0) & (s[:, 1] <= y1))
            for x0, y0, x1, y1 in boxes]
        counts[int(np.argmax(per_box))] += 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 0.25) <= 0.02)


def test_corner_regions_geometry():
    spec = ShapeDistributionSpec("corner_square")
    p = spec.params
    s = p["square_size"]
    for x0, y0, x1, y1 in corner_regions(spec):
        assert x1 - x0 == pytest.approx(s) and y1 - y0 == pytest.approx(s)
    # first region sits on the bar's upper-right corner
    x0, y0, _, _ = corner_regions(spec)[0]
    assert x0 == pytest.approx(p["center"][0] + p["bar_width"] / 2)
    assert y0 == pytest.approx(p["center"][1] + p["bar_height"] / 2)


def test_region_fractions_count_edges_inside():
    spec = ShapeDistributionSpec("corner_square")
    boxes = np.array(corner_regions(spec))
    # each box's two corners, one box after another, plus one point on the bar
    x = np.pad(np.concatenate([boxes[:, :2], boxes[:, 2:], [spec.params["center"]]]),
               ((0, 0), (0, 1)))
    assert region_fractions(x, spec) == ("corner_fractions", [2 / 9] * 4)
    x = np.pad(RandomSource(5).uniform(0.0, 1.0, (301, 2)), ((0, 0), (0, 1)))
    loop = [np.count_nonzero((x[:, 0] >= x0) & (x[:, 0] <= x1)
                             & (x[:, 1] >= y0) & (x[:, 1] <= y1)) / len(x)
            for x0, y0, x1, y1 in boxes]
    assert region_fractions(x, spec)[1] == loop and min(loop) > 0
    spec = ShapeDistributionSpec("bar_disk")
    c, r = np.array(spec.params["disk_center"]), spec.params["disk_radius"]
    x = np.pad([c, c + [1.5 * r, 0.0], c + [1.6 * r, 0.0], [0.5, 0.5]], ((0, 0), (0, 1)))
    assert region_fractions(x, spec) == ("disk_fraction", [0.5])
    spec = ShapeDistributionSpec("circle_radius")
    assert region_fractions(x, spec) is None


def test_bar_disk_presence():
    never = ShapeDistributionSpec("bar_disk", n_points=64, params={"p_disk": 0.0})
    rng = RandomSource(4)
    draws = [draw_shape(never, rng) for _ in range(20)]
    for s in draws:
        assert np.array_equal(s, draws[0])  # no hidden variable left
        assert s[:, 0].max() <= 0.8 + 1e-12  # bar only

    always = ShapeDistributionSpec("bar_disk", n_points=64, params={"p_disk": 1.0})
    for _ in range(20):
        s = draw_shape(always, rng)
        assert s[:, 0].max() > 0.85  # disk points reach past the bar

    half = ShapeDistributionSpec("bar_disk", n_points=64)
    hits = sum(draw_shape(half, rng)[:, 0].max() > 0.85 for _ in range(2000))
    assert abs(hits / 2000 - 0.5) < 0.05


# --------------------------------------------------------------- optimizer

def test_config_validation():
    SgdConfig()
    bad = [dict(metric="hausdorff"), dict(steps=0), dict(batch=0),
           dict(lr0=0.0), dict(t_half=0.0)]
    for kwargs in bad:
        with pytest.raises(ValueError):
            SgdConfig(**kwargs)


@pytest.mark.parametrize("lr0", [math.inf, -math.inf, math.nan])
def test_config_refuses_non_finite_lr0(lr0):
    with pytest.raises(ValueError, match="^lr0 must be finite"):
        SgdConfig(lr0=lr0)
    SgdConfig(t_half=math.inf)  # a constant step stays legal


def test_config_checks_itself_when_made():
    with pytest.raises(InvalidParameter, match="^m must be >= 1$"):
        SgdConfig(m=0)
    cfg = SgdConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lr0 = math.inf


@pytest.mark.parametrize("kwargs", [dict(m=2.5), dict(m=True), dict(m="8"),
                                    dict(steps=2.0), dict(batch=True)])
def test_config_rejects_non_integer_counts(kwargs):
    with pytest.raises(TypeError):
        SgdConfig(**kwargs)
    spec = ShapeDistributionSpec("circle_radius", n_points=8)
    with pytest.raises(TypeError):
        optimize_mean_shape(spec, SgdConfig(**{"steps": 1, **kwargs}))


def test_config_takes_numpy_integers():
    spec = ShapeDistributionSpec("circle_radius", n_points=8)
    x, trace = optimize_mean_shape(spec, SgdConfig(steps=np.int64(2), batch=np.int32(2),
                                                   m=np.int16(4)))
    assert x.shape == (4, 3) and trace.shape == (2,)


def test_emd_requires_matching_cardinality():
    spec = ShapeDistributionSpec("circle_radius", n_points=16)
    with pytest.raises(SizeMismatch):
        optimize_mean_shape(spec, SgdConfig(metric="emd", steps=1, m=8))


def test_seed_determinism_bitwise():
    spec = ShapeDistributionSpec("circle_radius", n_points=24)
    cfg = SgdConfig(metric="cd", steps=40, batch=2, seed=5)
    x1, t1 = optimize_mean_shape(spec, cfg)
    x2, t2 = optimize_mean_shape(spec, cfg)
    assert np.array_equal(x1, x2)
    assert np.array_equal(t1, t2)


def test_trajectory_independent_of_thread_count():
    # corner_square repeats draws, so fewer evaluations than draws reach the pool
    for family, metric in (("circle_radius", "emd"), ("corner_square", "cd")):
        spec = ShapeDistributionSpec(family, n_points=24)
        cfg = SgdConfig(metric=metric, steps=8, batch=4, seed=6)
        x1, t1 = optimize_mean_shape(spec, cfg, threads=1)
        x2, t2 = optimize_mean_shape(spec, cfg, threads=3)
        assert np.array_equal(x1, x2), family
        assert np.array_equal(t1, t2), family


@pytest.mark.parametrize("family,params,calls_per_step", [
    ("corner_square", {}, range(1, 5)),  # 4 outlines
    ("bar_disk", {}, range(1, 3)),  # disk present or absent
    ("circle_radius", {}, [8]),
    ("circle_radius", {"r_min": 0.3, "r_max": 0.3}, [1]),
])
def test_identical_draws_evaluated_once_per_step(monkeypatch, family, params,
                                                 calls_per_step):
    import psm.meanshape
    calls = []
    loss_and_grad = psm.meanshape._loss_and_grad
    monkeypatch.setattr(psm.meanshape, "_loss_and_grad",
                        lambda x, s, m: calls.append(s) or loss_and_grad(x, s, m))
    spec = ShapeDistributionSpec(family, n_points=32, params=params)
    for seed in range(5):
        calls.clear()
        optimize_mean_shape(spec, SgdConfig(steps=1, batch=8, seed=seed))
        assert len(calls) in calls_per_step


@pytest.mark.parametrize("family,outlines", [("corner_square", 4), ("bar_disk", 2)])
def test_discrete_outlines_sampled_once_per_run(monkeypatch, family, outlines):
    import psm.meanshape
    spec = ShapeDistributionSpec(family, n_points=32)
    calls = []
    sample = psm.meanshape._sample_pieces
    monkeypatch.setattr(psm.meanshape, "_sample_pieces",
                        lambda pieces, n: calls.append(n) or sample(pieces, n))
    optimize_mean_shape(spec, SgdConfig(steps=20, batch=8, seed=3))
    assert len(calls) == outlines


def test_continuous_outlines_kept_for_one_step(monkeypatch):
    import weakref

    import psm.meanshape
    spec = ShapeDistributionSpec("circle_radius", n_points=32)
    sampled, live = [], []
    sample = psm.meanshape._sample_pieces
    loss_and_grad = psm.meanshape._loss_and_grad

    def counting_sample(pieces, n):
        out = sample(pieces, n)
        sampled.append(weakref.ref(out))
        return out

    def counting_eval(x, s, metric):
        live.append(sum(r() is not None for r in sampled))
        return loss_and_grad(x, s, metric)

    monkeypatch.setattr(psm.meanshape, "_sample_pieces", counting_sample)
    monkeypatch.setattr(psm.meanshape, "_loss_and_grad", counting_eval)
    optimize_mean_shape(spec, SgdConfig(steps=20, batch=8, seed=3))
    assert len(sampled) <= 20 * 8  # at most batch samples per step
    assert max(live) <= 8  # outlines of earlier steps are released


def test_degenerate_distribution_converges_cd():
    spec = ShapeDistributionSpec("circle_radius", n_points=32,
                                 params={"r_min": 0.3, "r_max": 0.3})
    cfg = SgdConfig(metric="cd", steps=600, batch=2, lr0=0.4, t_half=40.0,
                    m=64, seed=3)
    _, trace = optimize_mean_shape(spec, cfg)
    assert trace[-1] < 1e-3 * trace[0]


def test_degenerate_distribution_converges_emd():
    spec = ShapeDistributionSpec("circle_radius", n_points=16,
                                 params={"r_min": 0.3, "r_max": 0.3})
    cfg = SgdConfig(metric="emd", steps=3000, batch=1, lr0=0.3, t_half=4.0,
                    seed=3)
    _, trace = optimize_mean_shape(spec, cfg)
    assert trace[-1] < 1e-3 * trace[0]


def test_wide_circle_annulus_and_cd_contrast():
    # radius range deliberately wider than the default canvas
    spec = ShapeDistributionSpec("circle_radius", n_points=64,
                                 params={"r_min": 0.5, "r_max": 1.5})
    radial_std = (1.5 - 0.5) / np.sqrt(12.0)
    x_emd, _ = optimize_mean_shape(spec, SgdConfig(metric="emd", seed=7))
    dev_emd = radial_rms_dev(x_emd, spec.params["center"])
    assert dev_emd < 0.25 * radial_std
    x_cd, _ = optimize_mean_shape(spec, SgdConfig(metric="cd", seed=7))
    assert radial_rms_dev(x_cd, spec.params["center"]) > dev_emd


def test_loss_trend_all_families_default_config():
    for family in FAMILY_DEFAULTS:
        spec = ShapeDistributionSpec(family)
        _, trace = optimize_mean_shape(spec, SgdConfig())
        smooth = ema(trace)
        assert smooth[-1] < smooth[50], family


@pytest.mark.xfail(strict=True, reason="known defect: with the default "
                   "lr0 and t_half the Chamfer corner_square run can "
                   "oscillate with growing amplitude in its first 100 steps")
def test_corner_square_cd_loss_falls_in_100_steps():
    # last-tenth mean loss: 6.45 (seed 1000) and 30.5 (seed 1032), against
    # first-tenth means of 2.33 and 2.01
    spec = ShapeDistributionSpec("corner_square")
    for seed in (1000, 1032):
        _, trace = optimize_mean_shape(spec, SgdConfig(metric="cd", steps=100,
                                                       seed=seed))
        assert np.mean(trace[-10:]) <= np.mean(trace[:10]), seed


def test_single_step_descends_fixed_shape():
    # line-search flavor: one step against one fixed shape lowers that
    # shape's loss at small learning rates, for both metrics
    from psm.chamfer import chamfer_distance
    from psm.emd import emd

    spec = ShapeDistributionSpec("corner_square", n_points=20)
    shape = draw_shape(spec, RandomSource(21))
    rng = np.random.default_rng(22)
    x = np.column_stack([rng.random((20, 2)), np.zeros(20)])
    for lr in (1e-3, 1e-4):
        res = chamfer_distance(x, shape, want_grad=True)
        assert chamfer_distance(x - lr * res.grad_a, shape).value < res.value
        res = emd(x, shape, want_grad=True)
        assert emd(x - lr * res.grad_a, shape).value < res.value


def test_divergence_detected():
    spec = ShapeDistributionSpec("circle_radius", n_points=12)
    cfg = SgdConfig(metric="cd", steps=20, batch=1, lr0=1e7, seed=0)
    with pytest.raises(DivergenceDetected):
        optimize_mean_shape(spec, cfg)


@pytest.mark.parametrize("metric", ["cd", "emd"])
def test_non_finite_step_raises(monkeypatch, metric):
    # a NaN loss would pass the divergence test, so a NaN in x must stop the run
    import psm.meanshape
    calls = []
    loss_and_grad = psm.meanshape._loss_and_grad

    def nan_at_step_2(x, s, m):
        value, grad = loss_and_grad(x, s, m)
        calls.append(m)
        if len(calls) == 3:  # batch 1: the third call is step 2
            grad = grad.copy()
            grad[5, 1] = np.nan
        return value, grad

    monkeypatch.setattr(psm.meanshape, "_loss_and_grad", nan_at_step_2)
    spec = ShapeDistributionSpec("circle_radius", n_points=16)
    with pytest.raises(NonFiniteCoordinate) as exc:
        optimize_mean_shape(spec, SgdConfig(metric=metric, steps=6, batch=1, seed=2))
    assert exc.value.index == 5
    assert len(calls) == 3


@pytest.mark.parametrize("metric", ["cd", "emd"])
def test_outline_past_the_float64_span_raises(metric):
    # without the span check the losses would read inf and the run go on
    spec = ShapeDistributionSpec("circle_radius", n_points=16,
                                 params={"center": [1e200, 0.5]})
    with pytest.raises(DistanceOverflow):
        optimize_mean_shape(spec, SgdConfig(metric=metric, steps=3, batch=2, seed=1))


# -------------------------------------------------------------------- plot

def test_emit_plot_rejects_empty(tmp_path):
    spec = ShapeDistributionSpec("circle_radius", n_points=8)
    with pytest.raises(EmptySet):
        emit_plot(np.empty((0, 3)), spec, tmp_path / "x.svg")


def test_emit_plot_deterministic_bytes(tmp_path):
    spec = ShapeDistributionSpec("bar_disk", n_points=16, seed=9)
    x, _ = optimize_mean_shape(spec, SgdConfig(steps=3, batch=1, seed=1))
    emit_plot(x, spec, tmp_path / "a.svg")
    emit_plot(x, spec, tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_emit_plot_markers_inside_viewbox(tmp_path):
    spec = ShapeDistributionSpec("spiky_arc", n_points=16, seed=2)
    rng = np.random.default_rng(23)
    x = np.column_stack([rng.random((10, 2)) * 3 - 1, np.zeros(10)])
    path = tmp_path / "x.svg"
    emit_plot(x, spec, path)
    root = ET.parse(path).getroot()
    assert root.get("viewBox") == "0 0 400 400"
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 20 * 16 + 10  # silhouettes plus the point set
    for el in circles:
        assert 0.0 <= float(el.get("cx")) <= 400.0
        assert 0.0 <= float(el.get("cy")) <= 400.0
