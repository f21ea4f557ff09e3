"""Batch and Min-of-N loss aggregation over externally supplied predictions.

This module only evaluates losses; nothing here trains or generates. The
bundle form makes it usable as an offline oracle for any external trainer.
"""

from dataclasses import dataclass

import numpy as np

from .chamfer import chamfer_distance
from .core import as_points, ordered_map
from .emd import emd
from .errors import EmptySet, SizeMismatch

METRICS = ("cd", "emd")


def _check_metric(metric):
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _distance(pred, gt, metric):
    if metric == "cd":
        return chamfer_distance(pred, gt).value
    return emd(pred, gt).value


def _annotate(e, label):
    e.args = (f"{label}: {e}",)
    return e


def batch_loss(pairs, metric="cd"):
    """Sum of per-pair distances, reduced by np.sum in index order.

    Pairs are evaluated one after another on the caller's thread. Per-pair
    failures propagate with the pair index prepended.
    """
    _check_metric(metric)
    values = []
    for i, (pred, gt) in enumerate(pairs):
        try:
            values.append(_distance(pred, gt, metric))
        except (ValueError, ArithmeticError) as e:
            raise _annotate(e, f"pair {i}")
    return float(np.sum(values))


@dataclass
class CandidateBundle:
    """n candidate predictions for one ground truth, plus the metric."""

    candidates: list
    groundtruth: object
    metric: str = "cd"

    def __post_init__(self):
        _check_metric(self.metric)
        self.candidates = [as_points(c) for c in self.candidates]
        self.groundtruth = as_points(self.groundtruth)
        if len(self.candidates) == 0:
            raise EmptySet("candidate list")
        if self.metric == "emd":
            n = len(self.groundtruth)
            for j, c in enumerate(self.candidates):
                if len(c) != n:
                    raise _annotate(SizeMismatch(len(c), n), f"candidate {j}")


def mon_loss(bundle, threads=1):
    """Minimum candidate distance and the first index attaining it.

    Candidates evaluate independently (optionally in parallel), and
    candidates with identical bytes only once, at their first index; the
    argmin scan runs in candidate order, so ties resolve to the lowest index.
    """

    def one(j):
        try:
            return _distance(bundle.candidates[j], bundle.groundtruth, bundle.metric)
        except (ValueError, ArithmeticError) as e:
            raise _annotate(e, f"candidate {j}")

    # candidates are (N, 3) float64, so equal bytes mean equal arrays
    seen = {}
    for j, c in enumerate(bundle.candidates):
        seen.setdefault(c.tobytes(), j)
    firsts = list(seen.values())
    values = ordered_map(one, firsts, threads)
    # firsts rises and a repeat has its first's value, so this is the lowest index
    best = int(np.argmin(values))
    return float(values[best]), firsts[best]
