"""Checks of the benchmark harness itself, on reduced workload sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import smallball.mcverify  # noqa: E402
import smallball.simulate  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    DriftStatBm,
    HolderScan,
    SpectralBounds,
    VerifyFgnSup,
)

SMALL = [
    (VerifyFgnSup, {"n_paths": 1000}),
    (DriftStatBm, {"n_paths": 1000, "n_aux": 1000, "N": 1024}),
    (SpectralBounds, {"sizes": (64, 256), "n_class": 20, "n_stationary": 3}),
    (HolderScan, {"N": 256, "n_check": 16}),
]


@pytest.mark.parametrize("cls,sizes", SMALL, ids=[c.name for c, _ in SMALL])
def test_traced_and_untraced_passes_write_identical_artifacts(cls, sizes, tmp_path):
    wl = cls(7, tmp_path, **sizes)
    plain = wl.run(1)
    tracer = Tracer()
    with tracer:
        traced = wl.run(1)
    assert tracer.spans
    assert traced == plain
    assert all(not problems for problems in wl.check(plain).values())


def test_uninstall_restores_every_binding():
    before = (smallball.mcverify.path_values_block,
              smallball.simulate.SeedSpec.__dict__["generator"])
    with Tracer():
        assert smallball.mcverify.path_values_block is not before[0]
    assert (smallball.mcverify.path_values_block,
            smallball.simulate.SeedSpec.__dict__["generator"]) == before


def test_self_time_excludes_child_spans():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
