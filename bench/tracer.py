"""Span recorder that wraps smallball's public functions from outside.

``Tracer.install`` rebinds every public function defined in the layer
modules, in every ``smallball`` module namespace that refers to it, plus
the two hot methods ``SeedSpec.generator`` and
``IncrementCovariance.lambda_range``.  Spans stay in memory as
``[name, start, end, parent, items]`` lists; nothing in ``src/`` changes
and ``uninstall`` restores the originals.

Spans recorded inside pool workers do not return to the parent, so a
traced run must use workers=1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("simulate", "paths", "mcverify", "concentration", "gausscov",
          "bounds", "cli")
METHODS = (("simulate", "SeedSpec", "generator"),
           ("gausscov", "IncrementCovariance", "lambda_range"))


def _samples(args, kwargs, result):
    method = args[5] if len(args) > 5 else kwargs.get("method", "circulant")
    # the spectral branch (fill plus irfft) runs for H != 1/2 only
    return {"samples": int(result.size), "nbytes": int(result.nbytes),
            "spectral": int(args[0] != 0.5 and method == "circulant")}


def _nbytes(args, kwargs, result):
    # compose returns its input unchanged when there is no drift
    return {"nbytes": 0 if result is args[0] else int(result.nbytes)}


def _chunks(args, kwargs, result):
    table = result[0] if isinstance(result, list) else result
    chunk = importlib.import_module("smallball.mcverify").CHUNK
    return {"chunks": -(-table.n_paths // chunk)}


def _lambda_n(args, kwargs, result):
    return {"N": int(args[0].N)}


# per-span item counters, keyed by span name
ITEMS = {
    "simulate.fgn_increments_block": _samples,
    "simulate.x_values_block": lambda a, k, r: {"nbytes": int(r.nbytes)},
    "simulate.drift_values_block": lambda a, k, r: {"nbytes": int(r.nbytes)},
    "simulate.compose_values_block": _nbytes,
    "mcverify.estimate_small_ball": _chunks,
    "mcverify.estimate_small_ball_drifts": _chunks,
    "gausscov.IncrementCovariance.lambda_range": _lambda_n,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = ITEMS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {n: importlib.import_module(f"smallball.{n}") for n in LAYERS}
        spaces = [m for k, m in sorted(sys.modules.items())
                  if k == "smallball" or k.startswith("smallball.")]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for space in spaces:
                    for key, val in list(vars(space).items()):
                        if val is fn:
                            self._rebind(space, key, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            wrapper = self._wrap(f"{layer}.{cls_name}.{meth}", cls.__dict__[meth])
            self._rebind(cls, meth, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

def write_spans(path, spans, first=0):
    """Write ``spans[first:]`` as JSON lines, indices and times rebased."""
    t0 = spans[first][1] if first < len(spans) else 0.0
    with open(path, "w") as fh:
        for name, start, end, parent, items in spans[first:]:
            parent = parent - first if parent >= first else -1
            fh.write(json.dumps([name, start - t0, end - t0, parent, items]) + "\n")


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_of(name):
    return name.split(".", 1)[0]


def entries(spans, layer):
    """Spans that enter ``layer`` from outside it (its call count)."""
    return [s for s in spans if layer_of(s[0]) == layer
            and (s[3] < 0 or layer_of(spans[s[3]][0]) != layer)]
