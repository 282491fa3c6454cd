"""Shared test helpers."""

from dataclasses import replace

import numpy as np
import pytest

from smallball.simulate import (
    PURPOSE_DRIFT,
    DriftSpec,
    SeedSpec,
    fgn_increments_block,
    path_values_block,
)


def _drift_integrand(spec, grid, seed, streams):
    """The drift integrand a of spec on each stream, (B, N+1), from public
    functions: the centered process x for ``shared_fbm``, the running sum
    from 0 of purpose-1 fGn for an independent fbm drift, and the one
    deterministic row, broadcast, otherwise."""
    drift = spec.drift
    if drift.kind == "shared_fbm":
        return path_values_block(replace(spec, drift=DriftSpec()), grid,
                                 SeedSpec(seed), streams)
    if drift.kind == "fbm":
        inc = fgn_increments_block(drift.H2, grid.N, grid.delta,
                                   SeedSpec(seed, purpose=PURPOSE_DRIFT), streams)
        a = np.zeros((len(streams), grid.N + 1))
        np.cumsum(inc, axis=1, out=a[:, 1:])
        return a
    return np.broadcast_to(drift.deterministic_values(grid),
                           (len(streams), grid.N + 1))


@pytest.fixture
def drift_integrand():
    return _drift_integrand
