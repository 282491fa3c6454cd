"""
Increment covariance, eigenvalues, and the spectral symbol
==========================================================

The increment vector of fractional Brownian motion on a uniform grid is
stationary, so its covariance is a Toeplitz matrix.  Its top eigenvalue
climbs toward the supremum of the spectral density as the matrix grows;
that supremum is what the two-norm bound in the certificates uses.
"""

import math

from smallball.paths import UniformGrid
from smallball.gausscov import (
    increment_covariance,
    sigma2_fbm,
    fgn_symbol,
    symbol_sup,
    gamma_two_norm_bound,
)

for H in (0.3, 0.45, 0.7):
    sup = symbol_sup(fgn_symbol(H))
    sup_txt = "infinite" if math.isinf(sup) else f"{sup:.6f}"
    print(f"\nH={H}: spectral symbol sup = {sup_txt}")
    print(f"{'N':>6s} {'lambda_max':>12s} {'two_norm_bound':>15s}")
    for n in (16, 64, 256, 1024):
        # delta = 1 gives the correlation matrix; fGn correlations do not
        # depend on the spacing
        cov = increment_covariance(sigma2_fbm(H), UniformGrid(float(n), n))
        lam = cov.lambda_max()
        # the summable-cover bound the certificates use; it must dominate
        env = gamma_two_norm_bound(H, n, 1.0, 1.0)
        print(f"{n:6d} {lam:12.6f} {env:15.6f}")
        assert lam <= env * (1 + 1e-9)

# H = 1/2 is the white-noise corner: the correlation matrix is the
# identity and the symbol is flat
cov = increment_covariance(sigma2_fbm(0.5), UniformGrid(64.0, 64))
print(f"\nH=0.5 sanity: two-norm = {cov.two_norm():.12f} (identity)")
