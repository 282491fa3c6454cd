"""Monte Carlo verification of small-deviation certificates.

Estimates P(norm(y) <= epsilon) by streaming fixed-size chunks of paths,
counting event indicators per chunk, and reducing integer counts in chunk
order.  Chunk size and per-path seeding are independent of the worker
count, so every artifact is byte-identical whether computed serially or in
a process pool.  Estimates across an epsilon grid share the same paths,
making the empirical curve monotone by construction.

A chunk of CHUNK paths is the unit of the pool and of the reduction; a
chunk job streams its paths through row slices of max(1, 2^16 // N) rows
(at most CHUNK), the unit of the cache: the simulate kernel samples a
slice into buffers every slice of the chunk reuses, and only its counts
or norms leave it.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .bounds import Certificate, Regime
from .concentration import cp_lower, cp_upper
from .errors import InvalidComparisonError
from .paths import UniformGrid, increment_lp
from .simulate import (
    _SLICE_VALUES,
    ProcessSpec,
    SeedSpec,
    _Drift,
    _x_sampler,
    path_values_block,  # noqa: F401  unused; bench/test_bench.py reads this binding
)

__all__ = [
    "CHUNK",
    "NormSpec",
    "EstimateRow",
    "EstimateTable",
    "estimate_small_ball",
    "estimate_small_ball_drifts",
    "partition_norm_samples",
    "drift_norm_samples",
    "bm_sup_exact",
    "RateFit",
    "fit_rate",
    "VerifyRow",
    "VerifyReport",
    "verify_certificates",
    "config_digest",
    "write_text_artifact",
]

# fixed streaming block: chosen for memory, never for parallel layout, so
# results cannot depend on the worker count
CHUNK = 256


# the path norm of the small-deviation event is the certificate's regime
NormSpec = Regime


def _norms_block(values: np.ndarray, delta: float, norm: Regime) -> np.ndarray:
    """Sup or l1 norm of each row; Holder balls are counted by _holder_counts."""
    if norm.kind == "sup":
        # max |v| without a (B, N+1) abs temporary; + 0.0 turns the -0.0
        # that np.maximum gives on an all-zero row into the 0.0 of abs
        return _abs_max(values) + 0.0
    return delta * np.abs(values[:, :-1]).sum(axis=1)


def _holder_counts(values, delta, beta, epsilons):
    """Exact indicator counts for the Holder ball over sorted radii.

    Each row keeps a running maximum over (start, lag) pairs of the term
    |v[t+lag] - v[t]| / (lag*delta)**beta, computed with the expression of
    ``paths.holder_norm_batch``, and is dropped once it exceeds
    max(epsilons).  Lags 1-15 are scanned on every live row; the rest come
    in dyadic blocks [lo, hi), lo = 2^j >= 16, hi = min(2*lo, N+1).
    Before a block, sliding max and min tables over lo points (extended by
    doubling) give, for each start t <= N - lo, the max M and min m of
    v over the window [t+lo, t+2*lo), clipped at the path end to the last
    table column, a window that still holds every v[t+lag] of the block.
    So b(t) = max(M - v[t], v[t] - m) / (lo*delta)**beta bounds every term
    of start t in the block.  The row's threshold is the smallest radius
    at or above its running value, read once at block start.  Only the
    (row, start) pairs with b(t) above the threshold, less a relative
    slack of 1e-12, are evaluated exactly; the test is made in difference
    units, max(M - v[t], v[t] - m) > threshold * (lo*delta)**beta *
    (1 - 1e-12), one product per row.  The exact pass gathers
    v[t+lo : t+hi] of each such pair, in pieces of at most 2^16 terms,
    masks the lags past N and raises the running value to the pair's
    maximum.

    The counts equal those of full norms.  Every skipped term lies at or
    below b(t), hence at or below the threshold read at block start.  The
    running value only grows, so that threshold stays at or below the
    smallest radius at or above the running value, and the running value
    and the full norm fall between the same two radii.  The bound holds in
    floating point: subtraction is monotone, so |fl(a - b)| <= fl(M - b)
    or fl(b - m) for a inside the window, and the slack covers the
    rounding of the threshold product and of ``pow``, which is not
    correctly rounded.  Each lag's scale is the Python float
    (lag*delta)**beta, as in the dense norm; numpy's array power is not
    bit-identical to it.
    """
    eps = np.asarray(epsilons, dtype=float)
    above = np.append(eps, np.inf)  # smallest radius >= value; inf once out
    n = values.shape[1] - 1
    running = np.zeros(values.shape[0])

    # lags 1-15 one at a time: rows that leave within 15 lags never pay
    # for the range tables
    act, sub = np.arange(values.shape[0]), values
    for lag in range(1, min(n, 15) + 1):
        dev = _abs_max(sub[:, lag:] - sub[:, :-lag]) / (lag * delta) ** beta
        cur = np.maximum(running[act], dev)
        running[act] = cur
        keep = cur <= eps[-1]
        if not keep.all():
            act, sub = act[keep], sub[keep]
            if act.size == 0:
                break
    if n >= 16 and act.size:
        # gathered windows run up to hi - lo - 1 <= N // 2 points past the
        # path end; those lags are masked, so the padding is immaterial
        v = np.zeros((act.size, n + 1 + n // 2))
        v[:, : n + 1] = sub
        del sub
        hi_max = lo_min = v[:, : n + 1]
        width, lo = 1, 16
        while lo <= n and act.size:
            hi = min(2 * lo, n + 1)
            while width < lo:
                step = min(width, lo - width)
                hi_max = np.maximum(hi_max[:, :-step], hi_max[:, step:])
                lo_min = np.minimum(lo_min[:, :-step], lo_min[:, step:])
                width += step
            thr = above[np.searchsorted(eps, running[act])]
            cut = thr * ((lo * delta) ** beta * (1.0 - 1e-12))
            rows, starts = _block_starts(v[:, : n + 1 - lo], hi_max, lo_min, lo, cut)
            if rows.size:
                scale = np.array([(lag * delta) ** beta for lag in range(lo, hi)])
                maxima = _pair_maxima(v, rows, starts, lo, scale, n)
                np.maximum.at(running, act[rows], maxima)
            live = running[act] <= eps[-1]
            if not live.all():
                # one array at a time, so at most one old copy is alive
                act = act[live]
                v = v[live]
                hi_max = hi_max[live]
                lo_min = lo_min[live]
            lo *= 2
    return np.array([(running <= e).sum() for e in eps], dtype=np.int64)


def _abs_max(x):
    """max |x| of each row, without an abs temporary."""
    return np.maximum(x.max(axis=1), -x.min(axis=1))


def _block_starts(vt, hi_max, lo_min, lo, cut):
    """(row, start) pairs of block [lo, hi) whose start bound exceeds cut.

    Start t reads column t + lo of the width-lo tables, clipped to the last
    column; ``vt`` holds v at the starts 0..N-lo.
    """
    inside = max(0, hi_max.shape[1] - lo)  # starts whose column is not clipped
    cut = cut[:, None]
    gap = np.empty_like(vt)
    np.subtract(hi_max[:, lo:], vt[:, :inside], out=gap[:, :inside])
    np.subtract(hi_max[:, -1:], vt[:, inside:], out=gap[:, inside:])
    hit = gap > cut
    np.subtract(vt[:, :inside], lo_min[:, lo:], out=gap[:, :inside])
    np.subtract(vt[:, inside:], lo_min[:, -1:], out=gap[:, inside:])
    hit |= gap > cut
    return np.nonzero(hit)


def _pair_maxima(v, rows, starts, lo, scale, n):
    """max of |v[t+lag] - v[t]| / scale over the lags lo.. of each pair.

    ``scale`` holds one entry per lag of the block; the rows of ``v`` are
    padded past N, and lags past N are masked out.
    """
    w = scale.size
    win = np.lib.stride_tricks.sliding_window_view(v, w, axis=1)
    out = np.empty(rows.size)
    size = max(1, 2 ** 16 // w)  # terms gathered per piece
    for k in range(0, rows.size, size):
        r, t = rows[k:k + size], starts[k:k + size]
        terms = win[r, t + lo]
        terms -= v[r, t][:, None]
        np.abs(terms, out=terms)
        terms /= scale
        if t.max() > n - lo - w + 1:  # some window runs past N
            terms[np.arange(w) > (n - lo - t)[:, None]] = 0.0
        out[k:k + size] = terms.max(axis=1)
    return out


def _counts_block(values, delta, norm: Regime, epsilons) -> np.ndarray:
    if norm.kind == "holder":
        return _holder_counts(values, delta, norm.beta, epsilons)
    norms = _norms_block(values, delta, norm)
    return np.array([(norms <= e).sum() for e in epsilons], dtype=np.int64)


def _chunk_map(job, n_paths: int, workers: int = 1) -> list:
    """[job(streams)] over the CHUNK-sized blocks of stream ids 0..n_paths-1.

    The one place paths are split into chunks.  Results come back in chunk
    order; workers > 1 maps over a process pool of at most one process per
    chunk, so job must pickle: a ValueError says so before the pool starts.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    starts = range(0, n_paths, CHUNK)
    blocks = (np.arange(s, min(s + CHUNK, n_paths)) for s in starts)
    # a fork-start pool forks all max_workers processes at the first submit
    workers = min(workers, len(starts))
    if workers == 1:
        return [job(streams) for streams in blocks]
    try:
        pickle.dumps(job)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ValueError(
            f"workers > 1 needs a job that pickles, e.g. a gaussian sigma2 "
            f"that is a module-level function, not a lambda: {exc}") from exc
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, blocks, chunksize=1))


def _slices(n: int, N: int):
    """(rows, [(lo, hi), ..]): the row slices of a chunk of n paths on N
    steps, and the rows of the largest.

    A slice holds max(1, _SLICE_VALUES // N) rows, at most CHUNK: about 2^16
    values, so that the slice's buffers stay in a 2 MiB L2 cache from the
    draws to the counts (8 rows at N = 8192, 64 at N = 1024).
    """
    rows = min(n, CHUNK, max(1, _SLICE_VALUES // N))
    return rows, [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def _chunk_counts(specs, grid, seed, norm, epsilons, streams):
    """Ball counts of one chunk, one row per spec; x is simulated once per
    slice and composed with each drift into one reused buffer."""
    rows, slices = _slices(len(streams), grid.N)
    x = _x_sampler(specs[0], grid, seed, streams, rows)
    drifts = [_Drift(spec, grid, seed, streams, rows) for spec in specs]
    y = np.empty((rows, grid.N + 1))
    counts = np.zeros((len(specs), len(epsilons)), dtype=np.int64)
    for lo, hi in slices:
        xs = x.values(lo, hi)
        for row, drift in zip(counts, drifts):
            row += _counts_block(drift.compose(xs, lo, hi, y[: hi - lo]),
                                 grid.delta, norm, epsilons)
    return counts


def _chunk_increment_lp(spec, grid, seed, p, streams):
    """|X|_p of each path of one chunk."""
    rows, slices = _slices(len(streams), grid.N)
    x = _x_sampler(spec, grid, seed, streams, rows)
    return np.concatenate([increment_lp(x.values(lo, hi), p) for lo, hi in slices])


def _chunk_drift_norms(spec, grid, seed, norm, streams):
    """Norm of the drift integrand a of each path of one chunk."""
    rows, slices = _slices(len(streams), grid.N)
    drift = _Drift(spec, grid, seed, streams, rows)
    return np.concatenate([
        _norms_block(np.broadcast_to(drift.integrand(lo, hi), (hi - lo, grid.N + 1)),
                     grid.delta, norm)
        for lo, hi in slices])


@dataclass(frozen=True)
class EstimateRow:
    epsilon: float
    n_paths: int
    k: int
    p_hat: float
    cp_lower: float
    cp_upper: float
    confidence: float


@dataclass(frozen=True)
class EstimateTable:
    process: str
    norm: str
    T: float
    N: int
    seed: int
    n_paths: int
    confidence: float
    digest: str
    rows: tuple

    def to_csv_text(self) -> str:
        lines = [
            "# small-ball estimates v2",
            f"# process={self.process}",
            f"# norm={self.norm}",
            f"# T={self.T!r}",
            f"# N={self.N}",
            f"# seed={self.seed}",
            f"# digest={self.digest}",
            ",".join(f.name for f in fields(EstimateRow)),
        ]
        lines += [",".join(map(repr, astuple(r))) for r in self.rows]
        return "\n".join(lines) + "\n"


def _spec_payload(spec: ProcessSpec) -> dict:
    payload = {
        "kind": spec.kind,
        "H": spec.H,
        # circulant embedding is the one sampler; the key keeps every digest
        "method": "circulant",
        "drift": asdict(spec.drift),
    }
    if spec.sigma2 is not None:
        payload["sigma2"] = "custom"
    return payload


def config_digest(payload: dict) -> str:
    """Short stable digest of a configuration mapping."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_estimate_args(epsilons, n_paths) -> np.ndarray:
    eps = np.asarray(sorted(float(e) for e in epsilons))
    if eps.size == 0 or not (eps > 0).all():  # NaN too: the counts need sorted radii
        raise ValueError("epsilons must be positive")
    if n_paths < 1000:
        raise ValueError("n_paths must be >= 1000 for a meaningful estimate")
    return eps


def _build_table(spec, grid, eps, n_paths, seed, norm, confidence, counts):
    # numpy scalars would print as np.int64(...) and digest as strings
    n_paths, seed, confidence = int(n_paths), int(seed), float(confidence)
    digest = config_digest(
        {
            "spec": _spec_payload(spec),
            "T": grid.T,
            "N": grid.N,
            "epsilons": [float(e) for e in eps],
            "n_paths": n_paths,
            "seed": seed,
            "norm": {"kind": norm.kind, "beta": norm.beta},
            "confidence": confidence,
        }
    )
    rows = tuple(
        EstimateRow(
            epsilon=float(e),
            n_paths=n_paths,
            k=int(k),
            p_hat=int(k) / n_paths,
            cp_lower=cp_lower(int(k), n_paths, confidence),
            cp_upper=cp_upper(int(k), n_paths, confidence),
            confidence=confidence,
        )
        for e, k in zip(eps, counts)
    )
    return EstimateTable(
        process=spec.label(), norm=norm.label(), T=grid.T, N=grid.N,
        seed=seed, n_paths=n_paths, confidence=confidence, digest=digest,
        rows=rows,
    )


def estimate_small_ball(
    spec: ProcessSpec,
    grid: UniformGrid,
    epsilons: Sequence[float],
    n_paths: int,
    seed: int,
    norm: Regime = Regime.sup(),
    confidence: float = 0.99,
    workers: int = 1,
) -> EstimateTable:
    """Shared-sample estimate of P(norm(y) <= epsilon) over an epsilon grid.

    Returns per-epsilon counts with exact binomial (one-sided) lower and
    upper confidence limits.  All epsilons are evaluated on the same paths,
    so p_hat is nondecreasing in epsilon.
    """
    return _estimate_tables(spec, [spec.drift], grid, epsilons, n_paths, seed,
                            norm, confidence, workers)[0]


def estimate_small_ball_drifts(
    spec: ProcessSpec,
    drifts: Sequence,
    grid: UniformGrid,
    epsilons: Sequence[float],
    n_paths: int,
    seed: int,
    norm: Regime = Regime.sup(),
    confidence: float = 0.99,
    workers: int = 1,
) -> list:
    """estimate_small_ball for several drift variants of one base process.

    The centered paths x are simulated once per chunk and composed with
    each drift, so k drift variants cost one simulation instead of k.
    Counts, tables, and CSV text are identical to k separate
    estimate_small_ball calls with the same seed (the composition and the
    per-path substreams do not depend on how many variants are evaluated).
    """
    return _estimate_tables(spec, drifts, grid, epsilons, n_paths, seed,
                            norm, confidence, workers)


def _estimate_tables(spec, drifts, grid, epsilons, n_paths, seed, norm,
                     confidence, workers):
    # the body of both estimate functions; neither calls the other, so a
    # tracer that wraps them sees one span per estimate
    eps = _check_estimate_args(epsilons, n_paths)
    specs = tuple(replace(spec, drift=d) for d in drifts)
    if not specs:
        raise ValueError("at least one drift variant is required")
    job = partial(_chunk_counts, specs, grid, SeedSpec(seed), norm, eps)
    counts = sum(_chunk_map(job, n_paths, workers))
    return [
        _build_table(s, grid, eps, n_paths, seed, norm, confidence, row)
        for s, row in zip(specs, counts)
    ]


def partition_norm_samples(
    spec: ProcessSpec,
    grid: UniformGrid,
    p: float,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Draws of |X|_p, the l^p increment norm of the centered process.

    The drift is ignored; streams match estimate_small_ball, so these are
    the |X|_p values of the same underlying x paths.
    """
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    job = partial(_chunk_increment_lp, spec, grid, SeedSpec(seed), p)
    return np.concatenate(_chunk_map(job, n_paths))


def drift_norm_samples(
    spec: ProcessSpec,
    grid: UniformGrid,
    norm: Regime,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Draws of the drift norm entering the split (sup of |a|, or its l1)."""
    drift_norm = Regime.l1() if norm.kind == "l1" else Regime.sup()
    job = partial(_chunk_drift_norms, spec, grid, SeedSpec(seed), drift_norm)
    return np.concatenate(_chunk_map(job, n_paths))


def bm_sup_exact(epsilon: float, T: float = 1.0) -> float:
    """Exact P(sup_{[0,T]} |B_t| <= epsilon) via the alternating theta series.

    (4/pi) sum_k (-1)^k / (2k+1) exp(-(2k+1)^2 pi^2 T / (8 epsilon^2)),
    summed until a term falls below 1e-14 (at most 202 terms).
    """
    if epsilon <= 0:
        return 0.0
    total = 0.0
    k = 0
    while True:
        m = 2 * k + 1
        term = ((-1.0) ** k / m) * math.exp(-m * m * math.pi**2 * T / (8.0 * epsilon**2))
        total += term
        if abs(term) < 1e-14 or k > 200:
            break
        k += 1
    return max(0.0, min(1.0, 4.0 / math.pi * total))


# ---------------------------------------------------------------------------
# rate recovery


@dataclass(frozen=True)
class RateFit:
    """Least-squares rate fit of v(eps) ~ c1 exp(-c2 eps^(-gamma)).

    mode RAW regresses log(-log v) on log eps (c1 treated as 1);
    PREFACTOR_AWARE regresses log(-log(v / c1)), which is exactly linear
    when v has the modeled form.  gamma_hat is minus the slope.
    """

    gamma_hat: float
    c2_hat: float
    intercept: float
    r_squared: float
    n_used: int
    mode: str
    c1: float


def fit_rate(
    epsilons,
    values,
    mode: str = "RAW",
    c1: float = 2.0,
    value_window: Optional[tuple] = None,
) -> RateFit:
    """Fit the decay exponent of a small-deviation curve.

    With value_window=None every value must lie strictly inside (0, 1)
    (and below c1 in PREFACTOR_AWARE mode) or a ValueError is raised.
    With a window (lo, hi), points outside it are dropped instead --
    the usual choice for empirical curves is (50/n_paths, 0.9).  Needs
    >= 3 usable points.
    """
    if mode not in ("RAW", "PREFACTOR_AWARE"):
        raise ValueError("mode must be 'RAW' or 'PREFACTOR_AWARE'")
    eps = np.asarray(epsilons, dtype=float)
    val = np.asarray(values, dtype=float)
    if eps.shape != val.shape or eps.ndim != 1:
        raise ValueError("epsilons and values must be 1-d of equal length")
    ref = c1 if mode == "PREFACTOR_AWARE" else 1.0
    if value_window is None:
        bad = (val <= 0.0) | (val >= 1.0) | (val >= ref) | (eps <= 0)
        if bad.any():
            raise ValueError(
                "all values must lie in (0, 1) and below the prefactor; "
                "pass value_window to drop out-of-range points instead"
            )
        mask = ~bad
    else:
        lo, hi = value_window
        mask = (val > lo) & (val < hi) & (val > 0) & (val < ref) & (eps > 0)
    if mask.sum() < 3:
        raise ValueError("need at least 3 usable points to fit a rate")
    x = np.log(eps[mask])
    y = np.log(-np.log(val[mask] / ref))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(
        gamma_hat=float(-slope), c2_hat=float(np.exp(intercept)),
        intercept=float(intercept), r_squared=float(r2),
        n_used=int(mask.sum()), mode=mode, c1=ref,
    )


# ---------------------------------------------------------------------------
# certificate-versus-simulation comparison


@dataclass(frozen=True)
class VerifyRow:
    epsilon: float
    p_hat: float
    cp_lower: float
    cp_upper: float
    total: float
    margin: float
    mode: str
    verdict: str  # PASS | FAIL | VACUOUS


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple
    confidence: float

    @property
    def ok(self) -> bool:
        return all(r.verdict != "FAIL" for r in self.rows)

    def counts(self) -> dict:
        out = {"PASS": 0, "FAIL": 0, "VACUOUS": 0}
        for r in self.rows:
            out[r.verdict] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "confidence": self.confidence,
            "counts": self.counts(),
            "rows": [asdict(r) for r in self.rows],
        }

    def to_csv_text(self) -> str:
        lines = ["epsilon,p_hat,ci_lo,ci_hi,bound,verdict"]
        for r in self.rows:
            lines.append(
                f"{r.epsilon!r},{r.p_hat!r},{r.cp_lower!r},{r.cp_upper!r},"
                f"{r.total!r},{r.verdict}"
            )
        return "\n".join(lines) + "\n"


def _check_partition_nesting(table: EstimateTable, cert: Certificate):
    """The split guarantee covers the simulated discrete maximum only when
    every certificate partition point is a simulation grid point."""
    if cert.delta is None or cert.N is None:
        return  # vacuous certificate without a witness: nothing to nest
    sim_delta = table.T / table.N
    ratio = cert.delta / sim_delta
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio) or round(ratio) < 1:
        raise InvalidComparisonError(
            f"certificate partition delta={cert.delta!r} does not nest in "
            f"the simulation grid (T={table.T!r}, N={table.N})"
        )


def verify_certificates(
    table: EstimateTable,
    certificates: Sequence[Certificate],
) -> VerifyReport:
    """Check each certificate against the matching empirical estimate.

    Verdict per epsilon: VACUOUS for vacuous certificates (they cannot
    fail), PASS when the exact binomial upper limit stays at or below the
    certified total, FAIL otherwise.  Estimates and certificates are
    matched by epsilon; partition nesting in the simulation grid is
    enforced because the certificates cover the discrete maximum only for
    nested partitions.  By construction p_hat is nondecreasing in epsilon;
    a violation indicates mismatched sample sets and raises.
    """
    if len(table.rows) != len(certificates):
        raise InvalidComparisonError(
            f"{len(table.rows)} estimates vs {len(certificates)} certificates"
        )
    p = [r.p_hat for r in table.rows]
    if any(a > b + 1e-15 for a, b in zip(p, p[1:])):
        raise InvalidComparisonError(
            "p_hat is not monotone across epsilons; the estimates do not "
            "share a sample"
        )
    certs = sorted(certificates, key=lambda c: c.epsilon)
    rows = []
    for est, cert in zip(table.rows, certs):
        if abs(est.epsilon - cert.epsilon) > 1e-12 * max(1.0, abs(est.epsilon)):
            raise InvalidComparisonError(
                f"epsilon mismatch: estimate {est.epsilon!r} vs "
                f"certificate {cert.epsilon!r}"
            )
        _check_partition_nesting(table, cert)
        if cert.vacuous:
            verdict = "VACUOUS"
        elif est.cp_upper <= cert.total:
            verdict = "PASS"
        else:
            verdict = "FAIL"
        rows.append(
            VerifyRow(
                epsilon=est.epsilon, p_hat=est.p_hat, cp_lower=est.cp_lower,
                cp_upper=est.cp_upper, total=cert.total,
                margin=cert.total - est.cp_upper, mode=cert.mode,
                verdict=verdict,
            )
        )
    return VerifyReport(rows=tuple(rows), confidence=table.confidence)


def write_text_artifact(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
