"""Tour of the point-set metrics on small synthetic clouds.

Walks through the two Chamfer backends, exact and auction assignment
distances, gradients, farthest point sampling, and the min-of-N loss.
Everything prints; nothing is written to disk.
"""

import numpy as np

from psm.chamfer import chamfer_distance
from psm.core import RandomSource
from psm.emd import AuctionParams, emd, emd_auction, emd_exact
from psm.losses import CandidateBundle, mon_loss
from psm.sampling import farthest_point_sample

rng = RandomSource(0)
a = rng.gen.random((300, 3))
b = rng.gen.random((300, 3)) * 0.9 + 0.05

print("== chamfer ==")
res_brute = chamfer_distance(a, b, backend="brute")
res_kd = chamfer_distance(a, b, backend="kdtree", want_grad=True)
print("brute :", res_brute.value)
print("kdtree:", res_kd.value)
print("backends agree bitwise:", res_brute.value == res_kd.value)

# gradient sanity: a small step along -grad must lower the value
step = 1e-4
moved = chamfer_distance(a - step * res_kd.grad_a, b).value
print("descends along -grad:", moved < res_kd.value)

print()
print("== assignment distance ==")
res_ex, assign = emd_exact(a, b)
print("exact  :", res_ex.value)
params = AuctionParams()  # target_rel_err 0.01
res_auc, _, achieved = emd_auction(a, b, params)
rel = (res_auc.value - res_ex.value) / res_ex.value
print("auction: %.6f  (rel err %.2e, certified eps %.2e)"
      % (res_auc.value, rel, achieved))
print("matched pair 0: a[0] -> b[%d], cost %.4f"
      % (assign.perm[0], assign.per_pair_cost[0]))

# emd() takes the exact solver at every size
print("emd() on 300 points uses:", emd(a, b).backend)

print()
print("== farthest point sampling ==")
sub = farthest_point_sample(a, 8, seed=1)
d = np.linalg.norm(a[:, None] - sub[None], axis=2).min(axis=1)
print("8 of 300 points, covering radius %.4f" % d.max())

print()
print("== min-of-N ==")
gt = rng.gen.random((64, 3))
cands = [gt + rng.gen.normal(0, s, gt.shape) for s in (0.3, 0.1, 0.02)]
value, winner = mon_loss(CandidateBundle(cands, gt, "cd"))
print("min-of-3 chamfer: %.5f, winner = candidate %d (least noisy)"
      % (value, winner))
