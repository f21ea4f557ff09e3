"""Batch loss and Min-of-N loss over candidate bundles."""

import numpy as np
import pytest

from psm.chamfer import chamfer_distance
from psm.emd import emd
from psm.errors import DistanceOverflow, SizeMismatch
from psm.losses import CandidateBundle, batch_loss, mon_loss


def cloud(rng, n):
    return rng.random((n, 3))


def test_single_pair_equals_metric():
    rng = np.random.default_rng(70)
    a, b = cloud(rng, 12), cloud(rng, 9)
    assert batch_loss([(a, b)], metric="cd") == chamfer_distance(a, b).value
    c = cloud(rng, 9)
    assert batch_loss([(c, b)], metric="emd") == emd(c, b).value


def test_two_identical_pairs_double():
    rng = np.random.default_rng(71)
    a, b = cloud(rng, 8), cloud(rng, 8)
    one = batch_loss([(a, b)], metric="cd")
    assert batch_loss([(a, b), (a, b)], metric="cd") == pytest.approx(
        2 * one, rel=1e-15)


def test_three_hand_built_pairs_sum():
    # per-pair values 2, 83, 0 from direct evaluation of the definition
    p1 = (np.array([(0.0, 0, 0)]), np.array([(1.0, 0, 0)]))
    p2 = (np.array([(0.0, 0, 0), (10.0, 0, 0)]), np.array([(1.0, 0, 0)]))
    p3 = (np.array([(5.0, 5, 5)]), np.array([(5.0, 5, 5)]))
    assert batch_loss([p1, p2, p3], metric="cd") == 85.0


def test_batch_reorder_invariance():
    rng = np.random.default_rng(72)
    pairs = [(cloud(rng, int(rng.integers(2, 20))), cloud(rng, int(rng.integers(2, 20))))
             for _ in range(12)]
    v = batch_loss(pairs, metric="cd")
    shuffled = [pairs[i] for i in np.random.default_rng(1).permutation(12)]
    assert batch_loss(shuffled, metric="cd") == pytest.approx(v, rel=1e-10)


def test_batch_error_names_the_pair():
    rng = np.random.default_rng(74)
    good = (cloud(rng, 5), cloud(rng, 5))
    bad = (cloud(rng, 5), cloud(rng, 6))
    with pytest.raises(SizeMismatch) as exc:
        batch_loss([good, bad], metric="emd")
    assert "pair 1" in str(exc.value)


def test_batch_checks_its_metric_first():
    # no pair runs the metric, so only an up-front check can catch it
    for pairs in ([], [(np.zeros((1, 3)), np.zeros((1, 3)))]):
        with pytest.raises(ValueError, match="unknown metric 'bogus'"):
            batch_loss(pairs, metric="bogus")


def test_mon_single_candidate_equals_metric():
    rng = np.random.default_rng(75)
    gt = cloud(rng, 10)
    cand = cloud(rng, 10)
    value, idx = mon_loss(CandidateBundle([cand], gt, metric="cd"))
    assert value == chamfer_distance(cand, gt).value
    assert idx == 0


def test_mon_hand_distances():
    # single-point clouds under the assignment metric have exact distances
    gt = np.array([(0.0, 0, 0)])
    c5 = np.array([(5.0, 0, 0)])
    c3 = np.array([(0.0, 3, 0)])
    value, idx = mon_loss(CandidateBundle([c5, c3], gt, metric="emd"))
    assert value == 3.0 and idx == 1


def test_mon_exact_candidate_wins_with_zero():
    rng = np.random.default_rng(76)
    gt = cloud(rng, 7)
    value, idx = mon_loss(CandidateBundle([cloud(rng, 7), gt.copy()], gt,
                                          metric="cd"))
    assert value == 0.0 and idx == 1


def test_mon_tie_takes_lowest_index():
    gt = np.array([(0.0, 0, 0)])
    c = np.array([(2.0, 0, 0)])
    value, idx = mon_loss(CandidateBundle([c, c.copy()], gt, metric="cd"))
    assert idx == 0


def test_mon_evaluates_identical_candidates_once(monkeypatch):
    import psm.losses
    rng = np.random.default_rng(81)
    gt, a, b = cloud(rng, 8), cloud(rng, 8), cloud(rng, 8)
    calls = []
    distance = psm.losses._distance
    monkeypatch.setattr(psm.losses, "_distance",
                        lambda p, g, m: calls.append(p) or distance(p, g, m))
    cands = [a, b.copy(), a.copy(), b, a.copy()]
    value, idx = mon_loss(CandidateBundle(cands, gt, metric="cd"))
    assert len(calls) == 2 and calls[0] is cands[0] and calls[1] is cands[1]
    best = min(range(2), key=lambda j: chamfer_distance(cands[j], gt).value)
    assert idx == best and value == chamfer_distance(cands[best], gt).value


def test_mon_failure_names_first_index():
    gt = np.zeros((2, 3))
    bad = np.full((2, 3), 1e200)  # squared distances overflow
    with pytest.raises(DistanceOverflow, match="^candidate 1: "):
        mon_loss(CandidateBundle([gt.copy(), bad, bad.copy()], gt, metric="cd"))


def test_mon_monotone_under_appends():
    rng = np.random.default_rng(77)
    for _ in range(40):
        gt = cloud(rng, int(rng.integers(2, 12)))
        cands = [cloud(rng, int(rng.integers(2, 12))) for _ in range(4)]
        prev = None
        for j in range(1, 5):
            value, _ = mon_loss(CandidateBundle(cands[:j], gt, metric="cd"))
            if prev is not None:
                assert value <= prev + 1e-15
            prev = value


def test_mon_at_most_mean_of_candidates():
    rng = np.random.default_rng(78)
    gt = cloud(rng, 9)
    cands = [cloud(rng, 9) for _ in range(5)]
    value, _ = mon_loss(CandidateBundle(cands, gt, metric="cd"))
    mean = np.mean([chamfer_distance(c, gt).value for c in cands])
    assert value <= mean + 1e-15


def test_mon_thread_count_invariant():
    rng = np.random.default_rng(79)
    gt = cloud(rng, 12)
    cands = [cloud(rng, 12) for _ in range(6)]
    assert mon_loss(CandidateBundle(cands, gt, metric="emd"), threads=1) \
        == mon_loss(CandidateBundle(cands, gt, metric="emd"), threads=4)


def test_bundle_validation():
    rng = np.random.default_rng(80)
    gt = cloud(rng, 6)
    with pytest.raises(ValueError):
        CandidateBundle([], gt, metric="cd")
    with pytest.raises(ValueError):
        CandidateBundle([cloud(rng, 6)], gt, metric="hausdorff")
    with pytest.raises(SizeMismatch) as exc:
        CandidateBundle([cloud(rng, 6), cloud(rng, 4)], gt, metric="emd")
    assert "candidate 1" in str(exc.value)
    # cardinality freedom under cd: mismatched candidates are fine
    value, idx = mon_loss(CandidateBundle([cloud(rng, 3)], gt, metric="cd"))
    assert value > 0 and idx == 0
