"""
Recovering the small-deviation decay rate
=========================================

For a rough Gaussian path the certified bound decays like
exp(-C2 eps^(-gamma)).  Fitting log(-log p) against log eps recovers
gamma.  On certificate totals the fit is exact; on Monte Carlo
estimates it needs a window that drops radii with too few hits or
with probabilities near one.
"""

import numpy as np

from smallball.bounds import bound_gaussian_class, fbm_holder_certificate
from smallball.mcverify import fit_rate, estimate_small_ball
from smallball.paths import UniformGrid
from smallball.simulate import ProcessSpec

# analytic curve: certificate totals for the H = 0.3 class follow the
# smooth envelope exactly, so the prefactor-aware fit returns the decay
# rate (1 + 2H - 2beta)/beta = 1/H - on the nose
eps_a = np.geomspace(0.01, 0.05, 12)
totals = [bound_gaussian_class(0.3, 0.3, 1.0, 1.0, 1.0, 1.0, e).total
          for e in eps_a]
fit = fit_rate(list(eps_a), totals, mode="PREFACTOR_AWARE", c1=2.0)
print(f"class totals:  gamma_hat = {fit.gamma_hat:.10f} (1/H = {1/0.3:.10f})")

# the Holder-norm event has its own rate 1/(H - beta)
eps_h = np.geomspace(0.06, 0.18, 10)
values = [fbm_holder_certificate(0.4, 0.2, e).total for e in eps_h]
fit_h = fit_rate(list(eps_h), values, mode="PREFACTOR_AWARE", c1=2.0)
print(f"holder bounds: gamma_hat = {fit_h.gamma_hat:.10f} (1/(H-beta) = 5)")

# empirical curve: a short horizon pushes the observable radii into the
# decaying regime; the RAW fit with the usual (50/n, 0.9) window lands
# within tens of percent of 1/H
eps_e = list(np.geomspace(0.15, 0.45, 8))
table = estimate_small_ball(ProcessSpec(kind="fbm", H=0.3),
                            UniformGrid(0.0047, 2048), eps_e,
                            n_paths=20_000, seed=11)
p_hat = [r.p_hat for r in table.rows]
fit_e = fit_rate(eps_e, p_hat, mode="RAW", value_window=(50 / 20_000, 0.9))
print(f"monte carlo:   gamma_hat = {fit_e.gamma_hat:.4f} "
      f"on {fit_e.n_used} points, r^2 = {fit_e.r_squared:.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    kept = [(e, p) for e, p in zip(eps_e, p_hat) if 50 / 20_000 <= p <= 0.9]
    fig, ax = plt.subplots(figsize=(6, 4.5))
    ax.plot(np.log(eps_a), np.log(-np.log(np.array(totals) / 2.0)),
            "o-", ms=3, label="certificate totals (slope -10/3)")
    ax.plot(np.log([e for e, _ in kept]),
            np.log(-np.log([p for _, p in kept])),
            "s-", ms=3, label="monte carlo (windowed)")
    ax.set_xlabel("log eps")
    ax.set_ylabel("log(-log p)")
    ax.legend(frameon=False, fontsize=8)
    fig.tight_layout()
    fig.savefig("rate_recovery.png", dpi=120)
    print("wrote rate_recovery.png")
except ImportError:
    print("matplotlib not available; skipped the figure")
