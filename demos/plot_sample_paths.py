"""
Simulating rough Gaussian paths and their drift variants
========================================================

Draws fractional Brownian motion at three roughness levels from one
seed, composes a drift on top, and reports the path norms that the
small-deviation machinery works with.
"""

import numpy as np

from smallball.paths import UniformGrid, holder_norm_batch
from smallball.simulate import ProcessSpec, DriftSpec, SeedSpec, path_values_block

grid = UniformGrid(1.0, 2048)
seed = SeedSpec(42)

# one path per Hurst index, same substream ids so the figures are
# reproducible run to run
specs = {
    "H=0.3 (rough)": ProcessSpec(kind="fbm", H=0.3),
    "H=0.5 (Brownian)": ProcessSpec(kind="bm"),
    "H=0.7 (smooth)": ProcessSpec(kind="fbm", H=0.7),
}

paths = {}
for label, spec in specs.items():
    values = path_values_block(spec, grid, seed, np.array([0]))[0]
    paths[label] = values
    sup = np.abs(values).max()
    l1 = grid.delta * np.abs(values[:-1]).sum()  # left Riemann sum
    holder = holder_norm_batch(values[None, :], grid.delta, 0.2)[0]
    print(f"{label:18s} sup={sup:.4f} l1={l1:.4f} holder(0.2)={holder:.4f}")

# the same rough path with a bounded oscillating drift: the drift enters
# as y = x + integral of a, so it tilts the path without changing the
# local roughness
drifted = ProcessSpec(kind="fbm", H=0.3,
                      drift=DriftSpec(kind="bounded_wave", amplitude=1.0,
                                      frequency=3.0))
paths["H=0.3 + wave drift"] = path_values_block(drifted, grid, seed,
                                                np.array([0]))[0]

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(8, 4.5))
    for label, values in paths.items():
        ax.plot(grid.times, values, lw=0.8, label=label)
    ax.set_xlabel("t")
    ax.set_ylabel("y(t)")
    ax.set_title("Sample paths from one SFC64 seed (stream layout v2)")
    ax.legend(frameon=False, fontsize=8)
    fig.tight_layout()
    fig.savefig("sample_paths.png", dpi=120)
    print("wrote sample_paths.png")
except ImportError:
    print("matplotlib not available; skipped the figure")
