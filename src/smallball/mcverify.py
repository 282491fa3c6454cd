"""Monte Carlo verification of small-deviation certificates.

Estimates P(norm(y) <= epsilon) by streaming fixed-size chunks of paths,
counting event indicators per chunk, and reducing integer counts in chunk
order.  Chunk size and per-path seeding are independent of the worker
count, so every artifact is byte-identical whether computed serially or in
a process pool.  Estimates across an epsilon grid share the same paths,
making the empirical curve monotone by construction.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import Certificate, Regime
from .concentration import cp_lower, cp_upper
from .errors import InvalidComparisonError
from .paths import UniformGrid, holder_norm_batch
from .simulate import (
    ProcessSpec,
    SeedSpec,
    compose_values_block,
    drift_values_block,
    path_values_block,
    x_values_block,
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
    "write_json_artifact",
]

# fixed streaming block: chosen for memory, never for parallel layout, so
# results cannot depend on the worker count
CHUNK = 256


# the path norm of the small-deviation event is the certificate's regime
NormSpec = Regime


def _norms_block(values: np.ndarray, delta: float, norm: Regime) -> np.ndarray:
    if norm.kind == "sup":
        return np.abs(values).max(axis=1)
    if norm.kind == "l1":
        return delta * np.abs(values[:, :-1]).sum(axis=1)
    return holder_norm_batch(values, delta, norm.beta)


def _holder_counts(values, delta, beta, epsilons):
    """Exact indicator counts for the Holder ball, with early exit.

    Paths whose running lag-maximum already exceeds max(epsilons) are
    classified and dropped; the surviving rows get the exact norm.  The
    counts equal those of a full-norm evaluation.
    """
    n = values.shape[1] - 1
    eps_max = epsilons[-1]
    running = np.zeros(values.shape[0])
    act = np.arange(values.shape[0])
    v = values
    for lag in range(1, n + 1):
        dev = np.abs(v[:, lag:] - v[:, :-lag]).max(axis=1)
        dev /= (lag * delta) ** beta
        cur = np.maximum(running[act], dev)
        running[act] = cur
        keep = cur <= eps_max
        if not keep.all():
            act = act[keep]
            if act.size == 0:
                break
            v = v[keep]
    return np.array([(running <= e).sum() for e in epsilons], dtype=np.int64)


def _counts_block(values, delta, norm: Regime, epsilons) -> np.ndarray:
    if norm.kind == "holder":
        return _holder_counts(values, delta, norm.beta, epsilons)
    norms = _norms_block(values, delta, norm)
    return np.array([(norms <= e).sum() for e in epsilons], dtype=np.int64)


def _chunk_ranges(n_paths: int):
    return [(s, min(CHUNK, n_paths - s)) for s in range(0, n_paths, CHUNK)]


def _count_job(args):
    spec, grid, seed, start, size, norm, epsilons = args
    values = path_values_block(spec, grid, seed, np.arange(start, start + size))
    return _counts_block(values, grid.delta, norm, epsilons)


def _multi_count_job(args):
    specs, grid, seed, start, size, norm, epsilons = args
    streams = np.arange(start, start + size)
    x = x_values_block(specs[0], grid, seed, streams)
    return np.stack([
        _counts_block(
            compose_values_block(x, spec, grid, seed, streams),
            grid.delta, norm, epsilons,
        )
        for spec in specs
    ])


def _run_jobs(job, tasks, workers: int):
    if workers <= 1:
        return [job(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, tasks, chunksize=1))


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
            "# small-ball estimates v1",
            f"# process={self.process}",
            f"# norm={self.norm}",
            f"# T={self.T!r}",
            f"# N={self.N}",
            f"# seed={self.seed}",
            f"# digest={self.digest}",
            "epsilon,n_paths,k,p_hat,cp_lower,cp_upper,confidence",
        ]
        for r in self.rows:
            lines.append(
                f"{r.epsilon!r},{r.n_paths},{r.k},{r.p_hat!r},"
                f"{r.cp_lower!r},{r.cp_upper!r},{r.confidence!r}"
            )
        return "\n".join(lines) + "\n"

    def p_hats(self) -> np.ndarray:
        return np.array([r.p_hat for r in self.rows])

    def epsilons(self) -> np.ndarray:
        return np.array([r.epsilon for r in self.rows])


def _spec_payload(spec: ProcessSpec) -> dict:
    payload = {
        "kind": spec.kind,
        "H": spec.H,
        "method": spec.method,
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
    if eps.size == 0 or eps[0] <= 0:
        raise ValueError("epsilons must be positive")
    if n_paths < 1000:
        raise ValueError("n_paths must be >= 1000 for a meaningful estimate")
    return eps


def _build_table(spec, grid, eps, n_paths, seed, norm, confidence, counts):
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
    eps = _check_estimate_args(epsilons, n_paths)
    seed_spec = SeedSpec(seed)
    tasks = [
        (spec, grid, seed_spec, start, size, norm, eps)
        for start, size in _chunk_ranges(n_paths)
    ]
    counts = sum(_run_jobs(_count_job, tasks, workers))
    return _build_table(spec, grid, eps, n_paths, seed, norm, confidence, counts)


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
    from dataclasses import replace

    eps = _check_estimate_args(epsilons, n_paths)
    specs = tuple(replace(spec, drift=d) for d in drifts)
    if not specs:
        raise ValueError("at least one drift variant is required")
    seed_spec = SeedSpec(seed)
    tasks = [
        (specs, grid, seed_spec, start, size, norm, eps)
        for start, size in _chunk_ranges(n_paths)
    ]
    counts = sum(_run_jobs(_multi_count_job, tasks, workers))
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

    The drift is stripped; streams match estimate_small_ball, so these are
    the |X|_p values of the same underlying x paths.
    """
    from dataclasses import replace
    from .simulate import DriftSpec

    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    bare = replace(spec, drift=DriftSpec())
    seed_spec = SeedSpec(seed)
    out = []
    for start, size in _chunk_ranges(n_paths):
        values = path_values_block(
            bare, grid, seed_spec, np.arange(start, start + size)
        )
        inc = np.abs(np.diff(values, axis=1))
        if p == 1:
            out.append(inc.sum(axis=1))
        elif p == 2:
            out.append(np.sqrt(np.sum(inc * inc, axis=1)))
        else:
            out.append(np.sum(inc**p, axis=1) ** (1.0 / p))
    return np.concatenate(out)


def drift_norm_samples(
    spec: ProcessSpec,
    grid: UniformGrid,
    norm: Regime,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Draws of the drift norm entering the split (sup of |a|, or its l1)."""
    drift_norm = Regime.l1() if norm.kind == "l1" else Regime.sup()
    seed_spec = SeedSpec(seed)
    out = []
    for start, size in _chunk_ranges(n_paths):
        a_vals = drift_values_block(spec, grid, seed_spec, np.arange(start, start + size))
        out.append(_norms_block(a_vals, grid.delta, drift_norm))
    return np.concatenate(out)


def bm_sup_exact(epsilon: float, T: float = 1.0, tol: float = 1e-14) -> float:
    """Exact P(sup_{[0,T]} |B_t| <= epsilon) via the alternating theta series.

    (4/pi) sum_k (-1)^k / (2k+1) exp(-(2k+1)^2 pi^2 T / (8 epsilon^2)).
    """
    if epsilon <= 0:
        return 0.0
    total = 0.0
    k = 0
    while True:
        m = 2 * k + 1
        term = ((-1.0) ** k / m) * math.exp(-m * m * math.pi**2 * T / (8.0 * epsilon**2))
        total += term
        if abs(term) < tol or k > 200:
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
            "rows": [
                {
                    "epsilon": r.epsilon, "p_hat": r.p_hat,
                    "cp_lower": r.cp_lower, "cp_upper": r.cp_upper,
                    "total": r.total, "margin": r.margin, "mode": r.mode,
                    "verdict": r.verdict,
                }
                for r in self.rows
            ],
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


def write_json_artifact(path, payload: dict) -> None:
    write_text_artifact(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
