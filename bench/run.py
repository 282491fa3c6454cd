"""Run one smallball benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; smallball is imported from its
``src/`` directory.  With ``--trace 0`` the workload's passes run for
``--seconds`` (at least two passes) and the end-to-end metrics are
printed; with ``--trace 1`` untraced and traced passes alternate at
workers=1 and the per-layer metrics are printed.  Every pass's artifacts
are checked outside the timed region.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it is the full record (all metrics,
sample counts, notes and provenance).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 2
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _provenance(seed, workers):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    cache = None
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            size = subprocess.run(["getconf", level], capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            break
        if size.isdigit() and int(size) > 0:
            cache = {"level": level, "bytes": int(size)}
            break
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "workers": workers,
        "last_level_cache": cache,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _setup_seconds():
    """Median wall time of a fresh interpreter importing smallball.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import smallball.cli"],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def _reference_seconds():
    """Time of a fixed numpy kernel (draws, FFT, cumsum, lagged maxima).

    It runs no smallball code, so a change to the program cannot move it;
    dividing a pass's wall time by the reference times measured around it
    cancels the slow swings in machine speed of a shared host.
    """
    import numpy as np

    t0 = time.perf_counter()
    # small blocks, so that the kernel does not raise the peak RSS
    for seed in range(12):
        z = np.random.Generator(np.random.Philox(seed)).standard_normal((16, 16384))
        x = np.cumsum(np.fft.irfft(np.fft.rfft(z, axis=1), axis=1), axis=1)
        np.abs(x[:, 1:] - x[:, :-1]).max(axis=1)
    return time.perf_counter() - t0


def _one_pass(wl, workers, tracer=None):
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run(workers)
        else:
            with tracer:
                out = wl.run(workers)
    except Exception:  # a crashing pass fails all of its ops; keep measuring
        out = {op: (-1, traceback.format_exc()) for op in wl.ops}
    return time.perf_counter() - t0, out


def _examine(wl, out, method):
    """``wl.check`` or ``wl.notes`` on one pass; unreadable output fails."""
    try:
        return getattr(wl, method)(out), None
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return {}, f"{method} could not read the output: {exc!r}"


def _judge(wl, passes):
    """Check the first pass; an op also fails where a pass's bytes differ.

    Returns (attempted, failed op count, failure messages, notes).
    """
    first = passes[0]
    problems, error = _examine(wl, first, "check")
    if error:
        problems = {op: [error] for op in wl.ops}
    failed = [f"{op}: {msg}" for op in wl.ops for msg in problems.get(op, ())]
    for i, out in enumerate(passes[1:], 1):
        failed += [f"{op}: pass {i} differs from pass 0"
                   for op in wl.ops if out[op] != first[op]]
    bad_ops = sum(1 for out in passes for op in wl.ops
                  if problems.get(op) or out[op] != first[op])
    notes, error = _examine(wl, first, "notes")
    failed += [error] if error else []
    return len(passes) * len(wl.ops), bad_ops, failed, notes


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _layer_metrics(spans, n_passes):
    from tracer import LAYERS, entries, layer_of, self_times

    selfs = self_times(spans)

    def total(pred):
        return sum(t for s, t in zip(spans, selfs) if pred(s[0])) / n_passes

    def named(name):
        return [s for s in spans if s[0] == name]

    def item(name, key):
        return sum((s[4] or {}).get(key, 0) for s in named(name)) / n_passes

    m = {f"{layer}.self_s": total(lambda n, l=layer: layer_of(n) == l)
         for layer in LAYERS}
    gen = "simulate.SeedSpec.generator"
    m["simulate.generator.calls"] = len(named(gen)) / n_passes
    m["simulate.generator.self_s"] = total(lambda n: n == gen)
    fgn = "simulate.fgn_increments_block"
    m[f"{fgn}.self_s"] = total(lambda n: n == fgn)
    m[f"{fgn}.samples"] = item(fgn, "samples")
    m[f"{fgn}.ns_per_sample"] = (1e9 * m[f"{fgn}.self_s"] / m[f"{fgn}.samples"]
                                 if m[f"{fgn}.samples"] else 0.0)
    m[f"{fgn}.spectral_calls"] = item(fgn, "spectral")
    for fn in ("x_values_block", "compose_values_block", "drift_values_block"):
        m[f"simulate.{fn}.self_s"] = total(lambda n, f=fn: n == f"simulate.{f}")
    chunk = [s[2] - s[1] for s in named("simulate.path_values_block")]
    m["simulate.path_values_block.calls"] = len(chunk) / n_passes
    m["simulate.path_values_block.p50_s"] = _quantile(chunk, 0.5) if chunk else 0.0
    m["simulate.path_values_block.p75_s"] = _quantile(chunk, 0.75) if chunk else 0.0
    m["simulate.bytes_computed"] = sum(
        (s[4] or {}).get("nbytes", 0) for s in spans
        if layer_of(s[0]) == "simulate") / n_passes
    est = ("mcverify.estimate_small_ball", "mcverify.estimate_small_ball_drifts")
    m["mcverify.estimate.self_s"] = total(lambda n: n in est)
    m["mcverify.chunks"] = sum(item(n, "chunks") for n in est)
    for fn in ("partition_norm_samples", "drift_norm_samples",
               "verify_certificates"):
        m[f"mcverify.{fn}.self_s"] = total(lambda n, f=fn: n == f"mcverify.{f}")
    cp = ("concentration.cp_upper", "concentration.cp_lower")
    m["concentration.cp.calls"] = sum(len(named(n)) for n in cp) / n_passes
    m["concentration.cp.self_s"] = total(lambda n: n in cp)
    lam = "gausscov.IncrementCovariance.lambda_range"
    m["gausscov.lambda_range.calls"] = len(named(lam)) / n_passes
    m["gausscov.lambda_range.self_s"] = total(lambda n: n == lam)
    for size in (256, 1024, 2048):
        m[f"gausscov.lambda_range.n{size}.self_s"] = sum(
            t for s, t in zip(spans, selfs)
            if s[0] == lam and s[4]["N"] == size) / n_passes
    for fn in ("symbol_sup", "fgn_symbol", "increment_covariance"):
        m[f"gausscov.{fn}.self_s"] = total(lambda n, f=fn: n == f"gausscov.{f}")
    m["bounds.certificates.calls"] = len(entries(spans, "bounds")) / n_passes
    m["bounds.certificates.self_s"] = m["bounds.self_s"]
    # self times partition the root spans; a mismatch is a tracer defect
    roots = sum(s[2] - s[1] for s in spans if s[3] < 0) / n_passes
    consistent = abs(sum(selfs) / n_passes - roots) <= 1e-6 * max(roots, 1.0)
    return m, roots, consistent


def _measure(wl, args):
    walls, passes, refs = [], [], [_reference_seconds()]
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        wall, out = _one_pass(wl, wl.workers)
        walls.append(wall)
        passes.append(out)
        refs.append(_reference_seconds())
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    attempted, bad_ops, failed, notes = _judge(wl, passes)
    setup_s, setup_samples = _setup_seconds()
    wall_s = statistics.median(walls)
    wall_rel = statistics.median(
        w / (0.5 * (a + b)) for w, a, b in zip(walls, refs, refs[1:]))
    metrics = {
        "wall_rel": (wall_rel, "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (sum(usage) / 1024.0, "MB"),
        "ok_share": (1.0 - bad_ops / attempted, "share"),
    }
    # end-to-end metrics that cannot carry a relative bound on every
    # workload (absent on some, or 0): shown with their units, not gated
    shown = {"wall_s": {"value": wall_s, "unit": "s", "samples": len(walls)},
             "failed_share": {"value": bad_ops / attempted, "unit": "share"}}
    if hasattr(wl, "n_paths"):
        shown["paths_per_s"] = {"value": wl.n_paths / wall_s, "unit": "1/s",
                                "N": wl.N}
    if "lambda_max_rel_err" in notes:
        shown["lambda_max_rel_err"] = {"value": notes["lambda_max_rel_err"],
                                       "unit": "ratio"}
    extra = {"shown": shown, "wall_s_samples": walls,
             "reference_s_samples": refs, "setup_s_samples": setup_samples}
    return metrics, extra, notes, attempted, bad_ops, failed, True


def _trace(wl, args):
    from tracer import Tracer, write_spans

    tracer = Tracer()
    plain, traced, passes, marks = [], [], [], []
    start = time.perf_counter()
    while (min(len(plain), len(traced)) < MIN_PASSES
           or time.perf_counter() - start < args.seconds):
        # alternate which side runs first, so warm-up is not charged to one
        for with_trace in ((False, True), (True, False))[len(plain) % 2]:
            if with_trace:
                marks.append(len(tracer.spans))
            wall, out = _one_pass(wl, 1, tracer if with_trace else None)
            (traced if with_trace else plain).append(wall)
            passes.append(out)
    attempted, bad_ops, failed, notes = _judge(wl, passes)
    spans = tracer.spans
    per_layer, roots, consistent = _layer_metrics(spans, len(traced))
    traced_s = statistics.mean(traced)
    per_layer.update({
        "mcverify.holder_survivor_share": notes.get("holder_survivor_share", 0.0),
        "gausscov.lambda_range.max_rel_err": notes.get("lambda_max_rel_err", 0.0),
        "trace_overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.wall_s": traced_s,
        "trace.remainder_s": traced_s - roots,
    })
    write_spans(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl", spans,
                first=marks[-1])
    metrics = {k: (v, _unit(k)) for k, v in per_layer.items()}
    shares = {k[:-len(".self_s")]: v / traced_s for k, v in per_layer.items()
              if k.endswith(".self_s")}
    extra = {"failed_share": bad_ops / attempted,
             "traced_wall_s_samples": traced, "untraced_wall_s_samples": plain,
             "chunk_latency_samples": round(
                 per_layer["simulate.path_values_block.calls"] * len(traced)),
             "layer_share_of_traced_wall": shares,
             "traced_artifacts_identical": all(o == passes[0] for o in passes)}
    return metrics, extra, notes, attempted, bad_ops, failed, consistent


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_sample"):
        return "ns"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith(("share", "rel_err")):
        return "ratio"
    return "count"


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "smallball" / "__init__.py").is_file():
        print(f"error: no smallball package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # one BLAS thread per process keeps total threads at or below nproc;
    # no bytecode cache, so setup_s does not depend on an earlier run
    for var in THREAD_VARS + ("PYTHONDONTWRITEBYTECODE",):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        cls = WORKLOADS[args.workload]
        wl = cls(args.seed, workdir)
        if wl.workers > 1:
            wl.workers = min(wl.workers, len(os.sched_getaffinity(0)))
        measure = _trace if args.trace else _measure
        metrics, extra, notes, attempted, bad_ops, failed, consistent = measure(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra, "notes": notes, "failures": failed,
        "tracer_consistent": consistent,
        "provenance": _provenance(args.seed, 1 if args.trace else wl.workers),
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failed and consistent,
        "attempted": attempted,
        "failed": bad_ops,
        "metrics": record["metrics"],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
