"""Assignment distance: exact solver vs factorial enumeration, auction
soundness, gradients, and the size dispatcher.

emd_enum below is the oracle: it walks every bijection of the two sets and
keeps the best, so anything it certifies is ground truth for s <= 8.
"""

import dataclasses
import importlib
import itertools
import math
import time

import numpy as np
import pytest

from psm.emd import (EPS_SCALING, EXACT_LIMIT, AuctionParams, default_backend,
                     emd, emd_auction, emd_exact)
from psm.errors import (DistanceOverflow, EmptySet, InstanceTooLarge,
                        SizeMismatch)


def emd_enum(a, b):
    """Exhaustive minimum over all bijections: (cost, perm, runner_up_cost)."""
    s = len(a)
    best, best_perm, second = None, None, None
    for perm in itertools.permutations(range(s)):
        c = sum(math.dist(a[i], b[perm[i]]) for i in range(s))
        if best is None or c < best:
            second = best
            best, best_perm = c, perm
        elif second is None or c < second:
            second = c
    return best, np.array(best_perm), second


def fd_grad(f, x, h=1e-5):
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


def pair(rng, s, scale=1.0):
    return rng.random((s, 3)) * scale, rng.random((s, 3)) * scale


# ------------------------------------------------------------ exact solver

def test_hand_example():
    a = np.array([(0.0, 0, 0), (1.0, 0, 0)])
    b = np.array([(0.0, 1, 0), (1.0, 1, 0)])
    res, assignment = emd_exact(a, b)
    # identity matching costs 1+1; the swap costs 2*sqrt(2)
    assert res.value == pytest.approx(2.0, rel=1e-15)
    assert assignment.perm.tolist() == [0, 1]


def test_matches_enumeration():
    rng = np.random.default_rng(30)
    for _ in range(80):
        s = int(rng.integers(1, 8))
        a, b = pair(rng, s)
        res, assignment = emd_exact(a, b)
        want, _, _ = emd_enum(a, b)
        assert res.value == pytest.approx(want, rel=1e-12)
        assert sorted(assignment.perm.tolist()) == list(range(s))
        assert res.value == float(np.sum(assignment.per_pair_cost))


def test_permuted_copy_costs_zero():
    rng = np.random.default_rng(31)
    a = rng.random((20, 3))
    b = a[rng.permutation(20)]
    res, _ = emd_exact(a, b)
    assert res.value == 0.0


def test_exact_guard_and_size_checks():
    rng = np.random.default_rng(32)
    big = rng.random((EXACT_LIMIT + 1, 3))
    with pytest.raises(InstanceTooLarge):
        emd_exact(big, big)
    with pytest.raises(SizeMismatch) as exc:
        emd_exact(rng.random((3, 3)), rng.random((5, 3)))
    assert "size mismatch (|a|=3, |b|=5)" in str(exc.value)
    with pytest.raises(EmptySet):
        emd_exact(np.empty((0, 3)), np.empty((0, 3)))


def test_every_route_reads_the_limit_at_call_time(monkeypatch):
    # the exact solver refuses past the module's limit whoever calls it,
    # and emd() moves to the auction there
    monkeypatch.setattr(importlib.import_module("psm.emd"), "EXACT_LIMIT", 1)
    a, b = pair(np.random.default_rng(33), 2)
    with pytest.raises(InstanceTooLarge):
        emd_exact(a, b)
    assert emd(a, b).backend == "auction"


def test_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(33)
    for _ in range(20):
        s = int(rng.integers(1, 7))
        a, b = pair(rng, s)
        v = emd_exact(a, b)[0].value
        assert emd_exact(b, a)[0].value == pytest.approx(v, rel=1e-10)
        assert emd_exact(a[rng.permutation(s)], b[rng.permutation(s)])[0].value \
            == pytest.approx(v, rel=1e-10)


def test_translation_invariance():
    rng = np.random.default_rng(34)
    a, b = pair(rng, 12)
    t = np.array([10.0, -3.0, 0.5])
    assert emd_exact(a + t, b + t)[0].value == pytest.approx(
        emd_exact(a, b)[0].value, rel=1e-9)


def test_metric_properties_small_multisets():
    rng = np.random.default_rng(35)
    for _ in range(25):
        s = int(rng.integers(1, 6))
        a, b = pair(rng, s)
        c = rng.random((s, 3))
        dab = emd_exact(a, b)[0].value
        dbc = emd_exact(b, c)[0].value
        dac = emd_exact(a, c)[0].value
        assert dac <= dab + dbc + 1e-12  # triangle inequality
    # identity of indiscernibles: zero exactly on equal multisets
    a = rng.random((5, 3))
    assert emd_exact(a, a[::-1].copy())[0].value == 0.0
    nudged = a.copy()
    nudged[2, 1] += 1e-7
    assert emd_exact(a, nudged)[0].value > 0.0


# --------------------------------------------------------------- gradients

def test_gradients_match_finite_differences_when_unique():
    rng = np.random.default_rng(36)
    checked = 0
    while checked < 12:
        s = int(rng.integers(2, 7))
        a, b = pair(rng, s)
        best, _, second = emd_enum(a, b)
        if second is None or second - best < 1e-3:  # need a unique optimum
            continue
        res, _ = emd_exact(a, b, want_grad=True)
        ga = fd_grad(lambda x: emd_exact(x, b)[0].value, a)
        gb = fd_grad(lambda x: emd_exact(a, x)[0].value, b)
        assert np.linalg.norm(res.grad_a - ga) <= 1e-4 * np.linalg.norm(ga)
        assert np.linalg.norm(res.grad_b - gb) <= 1e-4 * np.linalg.norm(gb)
        checked += 1


def test_gradient_rows_are_unit_or_zero():
    rng = np.random.default_rng(37)
    a, b = pair(rng, 10)
    res, _ = emd_exact(a, b, want_grad=True)
    norms = np.linalg.norm(res.grad_a, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # coincident pairs contribute zero vectors
    res2, _ = emd_exact(a, a.copy(), want_grad=True)
    assert not res2.grad_a.any() and not res2.grad_b.any()


def test_grad_b_mirrors_grad_a_through_matching():
    rng = np.random.default_rng(38)
    a, b = pair(rng, 9)
    res, assignment = emd_exact(a, b, want_grad=True)
    for i, j in enumerate(assignment.perm):
        assert np.allclose(res.grad_b[j], -res.grad_a[i], atol=1e-15)


# ----------------------------------------------------------------- auction

def test_auction_soundness_against_exact():
    rng = np.random.default_rng(39)
    for s in (1, 2, 5, 16, 64):
        for _ in range(6):
            a, b = pair(rng, s)
            exact = emd_exact(a, b)[0].value
            res, assignment, achieved = emd_auction(a, b)
            assert sorted(assignment.perm.tolist()) == list(range(s))
            assert res.value >= exact - 1e-9  # never better than optimal
            assert res.value <= (1.0 + achieved) * exact + 1e-9
            assert res.achieved_eps == achieved


def test_auction_identical_sets():
    rng = np.random.default_rng(40)
    a = rng.random((50, 3))
    for params in (None, AuctionParams(target_rel_err=0.5)):
        res, assignment, achieved = emd_auction(a, a.copy(), params)
        assert res.value == 0.0
        assert achieved == 0.0 and res.budget_relaxed is False


def test_auction_flags_vacuous_certificate_on_near_coincident_sets(monkeypatch):
    # the optimal total is far below float64's resolution of the largest
    # pairwise cost, so epsilon stops at 1e-15 of that cost, above the floor
    # the target asks for, and the certificate is vacuous; the result says so
    rng = np.random.default_rng(46)
    a = rng.random((50, 3))
    b = a + 1e-17 * rng.normal(size=a.shape)
    res, _, achieved = emd_auction(a, b)
    assert 0.0 < res.value == emd_exact(a, b)[0].value
    assert achieved == math.inf and res.budget_relaxed is True
    monkeypatch.setattr(importlib.import_module("psm.emd"), "EXACT_LIMIT", 1)
    res = emd(a, b)
    assert res.backend == "auction"
    assert res.achieved_eps == math.inf and res.budget_relaxed is True


def test_auction_meets_targets_above_one():
    # a floor of t * cost / (2 s) would bound achieved_eps by t / (2 - t),
    # which misses t > 1 and is vacuous from t = 2; these targets are met
    rng = np.random.default_rng(47)
    for s in (2, 5, 12, 30):
        a, b = pair(rng, s)
        exact = emd_exact(a, b)[0].value
        for target in (1.5, 2.0, 5.0, 40.0):
            res, _, achieved = emd_auction(a, b, AuctionParams(target_rel_err=target))
            assert achieved <= target and res.budget_relaxed is False
            assert exact <= res.value * (1 + 1e-12)
            assert res.value <= (1 + achieved) * exact * (1 + 1e-12)


def test_auction_flags_rounding_past_target():
    # at t = 1 the floor certifies exactly 1 in real arithmetic; here the
    # certificate rounds one ulp above it, and the result says so
    rng = np.random.default_rng(57)
    a, b = pair(rng, int(rng.integers(2, 30)))
    res, _, achieved = emd_auction(a, b, AuctionParams(target_rel_err=1.0))
    assert 1.0 < achieved < 1.0 + 1e-15
    assert res.budget_relaxed is True


def test_auction_runs_the_floor_phase_once(monkeypatch):
    # once eps is clamped to the floor, that phase is the last; a value that
    # fell by a hair must not rerun it at a hair lower eps. Near a target of
    # 1 a phase at the floor can miss the target, and then the floor moves.
    mod = importlib.import_module("psm.emd")
    phase = mod._auction_phase
    seen = []

    def logged(cost, prices, eps, spent, limit):
        seen.append(eps)
        return phase(cost, prices, eps, spent, limit)

    monkeypatch.setattr(mod, "_auction_phase", logged)
    rng = np.random.default_rng(0)
    for s in (16, 64, 256):
        a, b = pair(rng, s)
        seen.clear()
        res, _, achieved = emd_auction(a, b)
        assert all(eps <= EPS_SCALING * prev
                   for prev, eps in zip(seen[:-2], seen[1:-1])), seen
        assert achieved <= 0.01 and res.budget_relaxed is False
    for s in range(2, 40, 3):
        a, b = pair(rng, s)
        res, _, achieved = emd_auction(a, b, AuctionParams(target_rel_err=0.9))
        assert achieved <= 0.9 and res.budget_relaxed is False


def test_auction_deterministic():
    rng = np.random.default_rng(41)
    a, b = pair(rng, 80)
    r1, as1, e1 = emd_auction(a, b)
    r2, as2, e2 = emd_auction(a, b)
    assert r1.value == r2.value and e1 == e2
    assert np.array_equal(as1.perm, as2.perm)


def test_auction_stops_on_its_count_not_the_clock(monkeypatch):
    # a call that the count stops in its fourth phase, and the default route
    # above a lowered EXACT_LIMIT, return the same bits while every clock read
    # jumps 1000 s
    monkeypatch.setattr(importlib.import_module("psm.emd"), "EXACT_LIMIT", 1)
    rng = np.random.default_rng(48)
    a, b = pair(rng, 64)

    def run():
        res, assignment, achieved = emd_auction(a, b, AuctionParams(0.01, 50_000))
        routed = emd(a, b, want_grad=True)
        return (assignment.perm.tobytes(), res.value.hex(), achieved,
                res.budget_relaxed, routed.value.hex(), routed.grad_a.tobytes(),
                routed.achieved_eps, routed.budget_relaxed)

    calm = run()
    reads = itertools.count()
    for clock in ("perf_counter", "monotonic"):
        monkeypatch.setattr(time, clock, lambda: 1000.0 * next(reads))
    assert run() == calm
    assert calm[3] is True and calm[7] is False  # the count ran out, the default did not


def test_auction_budget_is_a_count():
    for count in (1.5, 1e9, True, "100"):
        with pytest.raises(TypeError):
            AuctionParams(budget_entries=count)
    AuctionParams(budget_entries=np.int64(1))


def test_auction_budget_relaxation_still_sound():
    # a vanishing budget stops the schedule after its first phase; the result
    # must remain a complete bijection with an honest (wider) certificate
    rng = np.random.default_rng(42)
    a, b = pair(rng, 32)
    exact = emd_exact(a, b)[0].value
    res, assignment, achieved = emd_auction(
        a, b, AuctionParams(budget_entries=1))
    assert sorted(assignment.perm.tolist()) == list(range(32))
    assert res.value <= (1.0 + achieved) * exact + 1e-9
    # the target was missed, and the result says why
    assert achieved > 0.01 and res.budget_relaxed is True
    default, _, default_eps = emd_auction(a, b)
    assert achieved >= default_eps  # budget pressure loosens the bound
    assert default_eps <= 0.01 and default.budget_relaxed is False


def test_auction_tight_target_reaches_exact():
    rng = np.random.default_rng(43)
    a, b = pair(rng, 24)
    exact = emd_exact(a, b)[0].value
    res, _, achieved = emd_auction(a, b, AuctionParams(target_rel_err=1e-9))
    assert res.value == pytest.approx(exact, rel=1e-7)


def test_auction_params_validation():
    AuctionParams()
    bad = [dict(target_rel_err=0.0), dict(target_rel_err=math.inf),
           dict(budget_entries=0)]
    for kwargs in bad:
        with pytest.raises(ValueError):
            AuctionParams(**kwargs)


def test_auction_params_are_frozen():
    # checked when made, and no assignment can undo that check
    params = AuctionParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.budget_entries = 0


def test_auction_gradients_follow_returned_matching():
    rng = np.random.default_rng(44)
    a, b = pair(rng, 12)
    res, assignment, _ = emd_auction(a, b, want_grad=True)
    diff = a - b[assignment.perm]
    want = diff / np.linalg.norm(diff, axis=1)[:, None]
    assert np.allclose(res.grad_a, want, atol=1e-15)


# -------------------------------------------------------------- dispatcher

def test_dispatcher_thresholds():
    assert EXACT_LIMIT == 4096  # where LSA starts to lose to the auction on time
    rng = np.random.default_rng(45)
    a, b = pair(rng, 10)
    assert emd(a, b).backend == "exact"
    a, b = pair(rng, 1024)
    res = emd(a, b)
    assert res.backend == "exact" and res.achieved_eps is None
    # at the limit a permuted copy keeps LSA cheap; above it a single
    # repeated point takes the auction's zero-cost exit
    a = rng.random((EXACT_LIMIT, 3))
    res = emd(a, a[::-1].copy())
    assert default_backend(EXACT_LIMIT) == res.backend == "exact"
    assert res.value == 0.0 and res.achieved_eps is None
    a = np.zeros((EXACT_LIMIT + 1, 3))
    res = emd(a, a.copy())
    assert default_backend(EXACT_LIMIT + 1) == res.backend == "auction"
    assert res.achieved_eps == 0.0 and res.budget_relaxed is False


def test_overflowing_coordinates_raise_typed_error():
    a = np.array([(1e200, 0.0, 0.0), (-1e200, 0.0, 0.0)])
    for solve in (emd, lambda x, y: emd_exact(x, y), lambda x, y: emd_auction(x, y)):
        with pytest.raises(DistanceOverflow):
            solve(a, a[::-1].copy())
    # large magnitudes are fine while the points stay close
    near = 1e200 + np.array([(0.0, 0.0, 0.0), (1e150, 0.0, 0.0)])
    assert emd(near, near[::-1].copy()).value == 0.0


def test_dispatcher_backends_agree_within_bound():
    rng = np.random.default_rng(46)
    a, b = pair(rng, 200)
    exact = emd(a, b).value  # s=200 routes to the exact solver
    res, _, achieved = emd_auction(a, b)
    assert exact <= res.value <= (1.0 + achieved) * exact + 1e-9


def test_dispatcher_grad_shapes():
    rng = np.random.default_rng(47)
    a, b = pair(rng, 20)
    res = emd(a, b, want_grad=True)
    assert res.grad_a.shape == (20, 3) and res.grad_b.shape == (20, 3)
    assert emd(a, b).grad_a is None
