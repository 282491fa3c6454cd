"""
Partial-sum bounds and representation feasibility
=================================================

Two smaller corners of the library: small-deviation bounds for maxima
of i.i.d. partial sums (a Hoeffding argument), and the exponent
bookkeeping that decides when the fractional-kernel representation of
a drifted process exists.
"""

import numpy as np

from smallball.bounds import iid_sum_certificate, representation_feasibility
from smallball.simulate import DistSpec

# centered uniform steps on [-1, 1]: mean |Z| = 1/2, range bound 1.
# epsilon is on the sqrt(n) scale, so the event is max_k |S_k| <= sqrt(n) eps
n, eps = 16, 0.125
dist = DistSpec.uniform(-1.0, 1.0)
cert = iid_sum_certificate(dist, n, eps)
sharp = iid_sum_certificate(dist, n, eps, mode="SHARP")
print(f"n={n}, eps={eps}: paper-constant bound = {cert.total:.6f}, "
      f"sharp Hoeffding = {sharp.total:.6f}")

# quick brute force against both
rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
walks = np.cumsum(rng.uniform(-1.0, 1.0, size=(100_000, n)), axis=1)
freq = float((np.max(np.abs(walks), axis=1) <= np.sqrt(n) * eps).mean())
print(f"empirical frequency of the event: {freq:.6f}")

# the certificate records its witness: the unit partition of the n steps
print(f"certificate total = {cert.total:.6f}, witness N = {cert.N}\n")

# representation feasibility: given the roughness H of the target, the
# regularity beta of the drift class, and the extra decay theta, is
# there an exponent triple making the kernel representation converge?
for H, beta, theta in ((0.75, 0.6, 0.2), (0.75, 0.75, 0.01),
                       (0.6, 0.55, 0.5), (0.4, 0.3, 0.2), (0.75, 0.82, 0.2)):
    wit = representation_feasibility(H, beta, theta)
    if wit.feasible:
        print(f"H={H} beta={beta} theta={theta}: feasible, "
              f"eta={wit.eta:.3f} mu={wit.mu:.3f} kappa={wit.kappa:.3f} "
              f"slack={wit.slack:.3f}")
    else:
        print(f"H={H} beta={beta} theta={theta}: infeasible "
              f"({'; '.join(wit.reasons)})")
