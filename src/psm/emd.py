"""Earth Mover's distance between equal-size point sets.

d(a, b) = min over bijections phi of sum_i ||a_i - b_phi(i)||

Costs are plain Euclidean norms, not squared; this differs from the Chamfer
module on purpose. Two backends:

  emd_exact    globally optimal assignment, O(s^3), guarded to s <= EXACT_LIMIT
  emd_auction  epsilon-scaling auction, certifies cost <= (1 + eps) * optimal

emd() and `psm emd` take the exact solver wherever it is allowed and the
auction above that (default_backend). Each entry checks its pair once and
runs _emd, which takes checked arrays of any row width.

The gradient at a_i is the unit vector from its matched partner toward a_i,
(a_i - b_phi(i)) / ||a_i - b_phi(i)||, and the opposite for the partner.
A coincident pair contributes a zero vector, a valid subgradient there.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .core import DistanceResult, as_int, check_pair
from .errors import InstanceTooLarge

# Memory does not set this limit (the auction holds the same s x s cdist
# matrix, and a gathered copy in its first round); time does. scipy's LSA
# (Crouse 2016) beats the default auction on uniform clouds up to here: 94 vs
# 281 ms CPU at s=1024, 798 vs 1037 ms at s=2048; at s=4096 LSA takes 2.8 s,
# the auction 1.2 s to stop 17 % above the optimum (2-vCPU x86, scipy 1.17).
EXACT_LIMIT = 4096

# The auction's epsilon shrinks by this factor per phase.
EPS_SCALING = 0.25


@dataclass
class Assignment:
    """A bijection i -> perm[i] with its per-pair Euclidean costs."""

    perm: np.ndarray
    per_pair_cost: np.ndarray


@dataclass(frozen=True)
class AuctionParams:
    """The auction's two knobs: the relative error to certify, and the work
    allowed for it, in cost entries read by bids (unassigned bidders times s).
    Checked when made (a finite target > 0, an integer budget >= 1); frozen.

    Epsilon starts at max_cost / 2 and shrinks by EPS_SCALING per phase
    down to min(t, 1) * cost / (2 s), t = target_rel_err, which places the
    certified bound inside the target: at most t / (2 - t) for t <= 1, and
    at most 1 above. A phase after the first that would read past
    budget_entries is dropped; the last complete assignment is returned and
    its certified bound (achieved_eps) widens accordingly.
    """

    target_rel_err: float = 0.01
    # Uniform pairs read 3.1-3.4e7 at s=1024 and 1.37-1.46e8 at s=2048 (seeds
    # 0-3) to certify 0.01; at s=4096 (seed 0) this drops the fourth phase
    # after 1.1-1.2 s CPU (4-8 ns an entry, 2-vCPU x86 guest, numpy 2.4).
    budget_entries: int = 250_000_000

    def __post_init__(self):
        if not 0 < self.target_rel_err < math.inf:
            raise ValueError("target_rel_err must be finite and > 0")
        if as_int(self.budget_entries, "budget_entries") < 1:
            raise ValueError("budget_entries must be >= 1")


def default_backend(s):
    """The solver emd() and `psm emd` use for s points per side."""
    return "exact" if s <= EXACT_LIMIT else "auction"


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


def _auction_phase(cost, prices, eps, spent, limit):
    """One Jacobi bidding phase from an empty assignment: (each bidder's item,
    spent plus the cost entries its bids read), or None if that passes limit.

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
            return assigned_item, spent
        spent += unassigned.size * s
        if spent > limit:
            return None
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
    # the first phase, at eps = cmax / 2, always runs to its end, so there is
    # an assignment to return; a later one that reads past the budget is dropped
    spent, limit = 0, math.inf
    floor = 0.0
    while True:
        phase = _auction_phase(cost, prices, eps, spent, limit)
        if phase is None:
            break
        (perm, spent), eps_final = phase, eps
        per_pair = cost[np.arange(s), perm]
        value = float(np.sum(per_pair))
        slack = s * eps
        achieved = slack / (value - slack) if value > slack else math.inf
        # the floor is set until eps reaches it, and moves after that only
        # when the phase run at the floor missed the target because its value
        # fell; moving it after every phase would rerun the floor phase at a
        # hair lower eps until the value happened to rise
        if eps > floor or achieved > params.target_rel_err:
            target_floor = min(params.target_rel_err, 1.0) * value / (2.0 * s)
            floor = max(target_floor, tiny)
        if eps <= floor:
            break
        eps = max(eps * EPS_SCALING, floor)
        limit = params.budget_entries

    if value <= 0.0:  # a zero-cost matching is optimal whatever eps found it
        return perm, per_pair, 0.0, False
    # the second test catches rounding at the floor
    relaxed = eps_final > target_floor or achieved > params.target_rel_err
    return perm, per_pair, achieved, relaxed


def _emd(a, b, want_grad, backend=None, params=None):
    """EMD of a checked pair on any row width, by the named backend or, by
    default, default_backend's: (DistanceResult, Assignment). The auction
    takes params, checked when made, or AuctionParams() if None."""
    backend = default_backend(len(a)) if backend is None else backend
    bound = ()  # the auction's (achieved_eps, budget_relaxed)
    if backend == "exact":
        if len(a) > EXACT_LIMIT:
            raise InstanceTooLarge(len(a), EXACT_LIMIT)
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
    epsilon-complementary slackness, which caps the absolute gap at
    s * eps_final; the conversion uses the returned cost itself. The
    result's budget_relaxed is True when achieved_eps exceeds
    params.target_rel_err or the final epsilon stays above the floor the
    target asks for: params.budget_entries ran out, or on near-coincident
    sets float64 cannot resolve that floor.
    """
    res, assignment = _emd(*check_pair(a, b, same_size=True), want_grad,
                           "auction", params)
    return res, assignment, res.achieved_eps


def emd(a, b, want_grad=False):
    """Dispatch: exact solver up to s = EXACT_LIMIT, auction beyond."""
    return _emd(*check_pair(a, b, same_size=True), want_grad)[0]
