"""Earth Mover's distance between equal-size point sets.

d(a, b) = min over bijections phi of sum_i ||a_i - b_phi(i)||

Costs are plain Euclidean norms, not squared; this differs from the Chamfer
module on purpose. Two backends:

  emd_exact    globally optimal assignment (cdist plus scipy's LSA), O(s^3)
  emd_auction  epsilon-scaling auction, certifies cost <= (1 + eps) * optimal

emd(), `psm emd`, the "emd" losses and the mean-shape optimizer take the
exact solver at every size; the auction runs only when called by name. At
4097-8192 points LSA holds 2.1-2.8x less memory than the auction; it is up
to 1.6x slower than an auction run to its 0.01 target on uniform clouds,
and about 4x faster on 1/8-lattice clouds (2-vCPU x86 guest, scipy 1.17).
Each entry checks its pair once and runs _emd, which takes checked arrays
of any row width.

The gradient at a_i is the unit vector from its matched partner toward a_i,
(a_i - b_phi(i)) / ||a_i - b_phi(i)||, and the opposite for the partner.
A coincident pair contributes a zero vector, a valid subgradient there.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .core import DistanceResult, check_pair

# The auction's epsilon shrinks by this factor per phase.
EPS_SCALING = 0.25


@dataclass
class Assignment:
    """A bijection i -> perm[i] with its per-pair Euclidean costs."""

    perm: np.ndarray
    per_pair_cost: np.ndarray


@dataclass(frozen=True)
class AuctionParams:
    """The auction's one knob: the relative error to certify. Checked when
    made (finite and > 0); frozen.

    Epsilon starts at max_cost / 2 and shrinks by EPS_SCALING per phase, but
    not below min(t, 1/2) * cost / (2 s), t = target_rel_err, until a phase
    certifies t (achieved_eps <= t) or eps reaches 1e-15 of max_cost.
    """

    target_rel_err: float = 0.01

    def __post_init__(self):
        if not 0 < self.target_rel_err < math.inf:
            raise ValueError("target_rel_err must be finite and > 0")


def _grads_from_perm(a, b, perm):
    diff = a - b[perm]
    norms = np.linalg.norm(diff, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    grad_a = diff / safe[:, None]
    grad_a[norms == 0] = 0.0
    grad_b = np.zeros_like(grad_a)
    grad_b[perm] = -grad_a
    return grad_a, grad_b


def _assign(a, b):
    """Optimal assignment of checked, equal-size float64 arrays of one row
    width (any): (perm, per-pair Euclidean costs)."""
    cost = cdist(a, b)
    _, perm = linear_sum_assignment(cost)  # square: rows come back in order
    return perm, cost[np.arange(len(a)), perm]


def emd_exact(a, b, want_grad=False):
    """Optimal assignment EMD. Returns (DistanceResult, Assignment)."""
    return _emd(*check_pair(a, b, same_size=True), want_grad, "exact")


def _auction_phase(cost, prices, eps):
    """One Jacobi bidding phase from an empty assignment: each bidder's item.

    All currently unassigned bidders bid simultaneously; each item goes to
    the highest bid (ties to the lowest bidder index), displacing any
    previous owner. Raising each winning item's price by bid 'margin + eps'
    preserves eps-complementary slackness throughout.
    """
    s = cost.shape[0]
    owner = np.full(s, -1, dtype=np.int64)
    assigned_item = np.full(s, -1, dtype=np.int64)
    while True:
        unassigned = np.flatnonzero(assigned_item < 0)
        if unassigned.size == 0:
            return assigned_item
        # benefit - price, negating the gathered rows in place: bit for bit
        # (-cost) - prices, without holding a negated copy of the matrix
        v = cost[unassigned]
        np.negative(v, out=v)
        v -= prices
        best_j = np.argmax(v, axis=1)
        u_idx = np.arange(unassigned.size)
        best_v = v[u_idx, best_j]
        v[u_idx, best_j] = -np.inf
        second_v = v.max(axis=1) if s > 1 else best_v - 1.0
        bids = best_v - second_v + eps
        # one winner per item: highest bid, lowest bidder index on ties
        order = np.lexsort((unassigned, -bids))
        items_sorted = best_j[order]
        uniq_items, first_pos = np.unique(items_sorted, return_index=True)
        win_rows = order[first_pos]
        win_bidders = unassigned[win_rows]
        prices[uniq_items] += bids[win_rows]
        prev = owner[uniq_items]
        assigned_item[prev[prev >= 0]] = -1
        owner[uniq_items] = win_bidders
        assigned_item[win_bidders] = uniq_items


def _auction(a, b, params):
    """The epsilon-scaling auction on checked, equal-size float64 arrays of
    one row width (any): (perm, per-pair Euclidean costs, achieved_eps,
    budget_relaxed)."""
    s = len(a)
    cost = cdist(a, b)
    cmax = float(cost.max())
    if cmax == 0.0:
        # every point of both sets is one point; any matching is optimal
        return np.arange(s, dtype=np.int64), np.zeros(s), 0.0, False

    prices = np.zeros(s)
    eps = cmax / 2.0
    tiny = 1e-15 * cmax
    t = params.target_rel_err
    while True:
        perm = _auction_phase(cost, prices, eps)
        per_pair = cost[np.arange(s), perm]
        value = float(np.sum(per_pair))
        slack = s * eps
        achieved = slack / (value - slack) if value > slack else math.inf
        if achieved <= t or eps <= tiny:
            break
        # a missed target puts eps above t * value / ((1 + t) s) > this clamp
        eps = max(eps * EPS_SCALING, min(t, 0.5) * value / (2.0 * s), tiny)

    if value <= 0.0:  # a zero-cost matching is optimal whatever eps found it
        return perm, per_pair, 0.0, False
    return perm, per_pair, achieved, achieved > t


def _emd(a, b, want_grad, backend="exact", params=None):
    """EMD of a checked pair on any row width, by the named backend:
    (DistanceResult, Assignment). The auction takes params, checked when
    made, or AuctionParams() if None."""
    bound = ()  # the auction's (achieved_eps, budget_relaxed)
    if backend == "exact":
        perm, per_pair = _assign(a, b)
    else:
        perm, per_pair, *bound = _auction(a, b, params or AuctionParams())
    grads = _grads_from_perm(a, b, perm) if want_grad else (None, None)
    return (DistanceResult(float(np.sum(per_pair)), *grads, backend, *bound),
            Assignment(perm, per_pair))


def emd_auction(a, b, params=None, want_grad=False):
    """Approximate EMD. Returns (DistanceResult, Assignment, achieved_eps).

    achieved_eps is the certified relative bound: the returned cost is
    at most (1 + achieved_eps) times the optimum. It follows from
    epsilon-complementary slackness, which caps the absolute gap at s * eps
    of the returned phase, over the returned cost. The auction runs until
    it certifies params.target_rel_err. budget_relaxed is exactly
    achieved_eps > target_rel_err: eps reached 1e-15 of the largest cost
    first, as on near-coincident sets, where float64 cannot resolve the
    target (achieved_eps is then inf).
    """
    res, assignment = _emd(*check_pair(a, b, same_size=True), want_grad,
                           "auction", params)
    return res, assignment, res.achieved_eps


def emd(a, b, want_grad=False):
    """Optimal assignment EMD at every size: emd_exact's DistanceResult."""
    return _emd(*check_pair(a, b, same_size=True), want_grad)[0]
