"""The two posterior penalties, tabulated and compared.

Each student weight carries a Gaussian posterior N(theta, sigma^2), and
what decides pruning is the log dropout ratio

    log alpha = log sigma^2 - log theta^2

High alpha means the noise dwarfs the mean, so the weight carries no
signal and can be removed.  Training pushes alpha up wherever the data
does not object, via one of two penalties applied per weight:

  * svd: a tight three-constant fit to the (intractable) KL between
    the posterior and a log-uniform prior, plus an exact tail term.
  * vbd: the closed-form tail term alone, 0.5 * log(1 + 1/alpha).

Each penalty is one graph node over a layer's (theta, log sigma^2),
summed over its weights; its value is the node's ``.item()``.

Both decrease strictly as log alpha grows, so minimising them drives
alpha up.  This script prints the per-weight curves side by side, then
shows the mapping from (theta, log sigma^2) to a prune decision.

    python3 demos/02_dropout_penalties.py
"""

import numpy as np

from sparsedistill import Tensor, alpha_log, init_student, prune_mask
from sparsedistill.student import kl_svd_node, kl_vbd_node


def penalty(node, log_alpha):
    """A penalty summed over ``log_alpha``: at theta 1, log alpha is log sigma^2 exactly."""
    return node(Tensor(np.ones_like(log_alpha)), Tensor(log_alpha)).item()


# ---------------------------------------------------------------------------
# 1. Per-weight penalty values across the useful range of log alpha.
#    Both curves fall monotonically; svd starts higher and hugs zero
#    sooner, vbd decays like 0.5/alpha.  (Each call sums over the array
#    it is given, so a single-element array reads out one weight.)
# ---------------------------------------------------------------------------

print(f"{'log alpha':>10} {'kl_svd':>12} {'kl_vbd':>12}")
for la in [-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0]:
    one = np.array([la])
    print(f"{la:>10.1f} {penalty(kl_svd_node, one):>12.6f} {penalty(kl_vbd_node, one):>12.6f}")

# At the clamp boundary (the implementation limits log alpha to +/-40 so
# exponentials stay finite) the penalties are effectively at their asymptotes:
edge = np.array([40.0])
print(f"{40.0:>10.1f} {penalty(kl_svd_node, edge):>12.2e} {penalty(kl_vbd_node, edge):>12.2e}")

# ---------------------------------------------------------------------------
# 2. Strict monotonicity on a fine grid: no flat spots, so gradient
#    descent always has a direction toward higher dropout.
# ---------------------------------------------------------------------------

grid = np.linspace(-12.0, 12.0, 2001)
svd_vals = np.array([penalty(kl_svd_node, np.array([v])) for v in grid])
vbd_vals = np.array([penalty(kl_vbd_node, np.array([v])) for v in grid])
print()
print("strictly decreasing over [-12, 12]:",
      "svd" if np.all(np.diff(svd_vals) < 0) else "svd FLAT",
      "/",
      "vbd" if np.all(np.diff(vbd_vals) < 0) else "vbd FLAT")

# ---------------------------------------------------------------------------
# 3. From parameters to a prune decision.  alpha_log combines the two
#    learned arrays; prune_mask keeps a weight iff log alpha <= tau.
#    A weight with large |theta| and small sigma survives; shrink theta
#    or grow sigma and it crosses the threshold.
# ---------------------------------------------------------------------------

net = init_student([3, 2, 2], seed=0)
layer = net.layers[0]                       # theta shape (3 in, 2 out)
layer.theta[:] = [[1.0, 0.1], [1e-3, 0.5], [1e-2, 2.0]]
layer.log_sigma2[:] = -4.0
la = alpha_log(layer.theta, layer.log_sigma2)
print()
print("theta:\n", layer.theta)
print("log alpha (log sigma^2 = -4 everywhere):\n", np.round(la, 2))
for tau in (0.0, 3.0, 8.0):
    kept = prune_mask(layer, tau)
    print(f"tau {tau:>4.1f}: keep {int(kept.sum())}/{kept.size} weights")

# The default threshold tau = 3 corresponds to alpha = e^3, roughly 20:
# noise variance twenty times the squared mean before a weight is dropped.
