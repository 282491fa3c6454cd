"""Acceptance runs: one test per criterion, at the stated tolerances.

Each test line in ``pytest -v`` is the pass/fail record for one criterion.
Monte Carlo artifacts (estimate tables, verify reports, convergence and
concentration tables) are built once per (criterion, worker count), written
under a session tmp dir, and byte-compared across worker counts by the
determinism criterion.  The performance criterion is defined last so its
suite-budget stopwatch covers everything that ran before it.

Seeds: 101/103 for the certificate-validity estimates, 707/708 for the
statistical-certificate inputs (disjoint from the verification sample),
202 for the Brownian oracle, 303 for rate recovery, 404 for the Holder
norm, 505 for the i.i.d. walks, 727 for the concentration draws, 909 for
the scaling benchmark.
"""

import json
import math
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from smallball.bounds import (
    Certificate,
    InfeasibleCertificateError,
    Regime,
    bound_gaussian_class,
    empirical_certificate,
    fbm_holder_certificate,
    iid_sum_certificate,
    representation_feasibility,
    witness_margins,
)
from smallball.concentration import cp_upper, drift_bounded_model
from smallball.gausscov import (
    fgn_symbol,
    increment_covariance,
    sigma2_fbm,
    symbol_sup,
)
from smallball.mcverify import (
    NormSpec,
    drift_norm_samples,
    estimate_small_ball,
    estimate_small_ball_drifts,
    fit_rate,
    partition_norm_samples,
    verify_certificates,
)
from smallball.paths import UniformGrid
from smallball.simulate import (
    DistSpec,
    DriftSpec,
    ProcessSpec,
    SeedSpec,
    fgn_increments_block,
)

_T0 = time.perf_counter()
_SUITE_BUDGET_S = 900.0

_GRID_FINE = UniformGrid(1.0, 8192)
_MESH = 1.0 / 8192
_EPS_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

# (criterion name, workers) -> (files dict, summary dict); files are the
# CSV/JSON artifact texts compared byte for byte by the determinism run
_CACHE = {}


@pytest.fixture(scope="session")
def art_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _get(name, workers, root):
    key = (name, workers)
    if key not in _CACHE:
        files, summary = _BUILDERS[name](workers)
        base = root / f"w{workers}" / name
        base.mkdir(parents=True, exist_ok=True)
        for rel, text in files.items():
            (base / rel).write_text(text)
        _CACHE[key] = (files, summary)
    return _CACHE[key]


# ---------------------------------------------------------------------------
# criterion 1: certificate validity under three drift variants


def _explicit_cert(H, eps, drift_model):
    try:
        return bound_gaussian_class(
            H, H, 1.0, 1.0, 1.0, 1.0, eps,
            drift_model=drift_model, delta_mesh=_MESH,
        )
    except InfeasibleCertificateError as exc:
        return Certificate.vacuous_certificate(eps, 1.0, Regime.sup(), str(exc))


def _statistical_cert(H, eps, shared_spec, drift_sup_samples):
    # the partition spacing starts just above the scale where the median
    # increment norm is feasible and backs off on the simulation mesh
    d_seed = (4.0 * eps) ** (1.0 / H)
    for factor in (1.15, 1.3, 1.5, 2.0):
        delta = math.ceil(factor * d_seed / _MESH) * _MESH
        if delta > 1.0:
            continue
        N = int(math.floor(1.0 / delta + 1e-12))
        if N < 1:
            continue
        part = UniformGrid(N * delta, N)
        x_norms = partition_norm_samples(shared_spec, part, 2.0, 20_000, 707)
        try:
            return empirical_certificate(
                eps, 1.0, Regime.sup(), 2.0, N, delta,
                x_norms, drift_sup_samples, confidence=0.99,
            )
        except InfeasibleCertificateError:
            continue
    return Certificate.vacuous_certificate(
        eps, 1.0, Regime.sup(), "no feasible partition at this radius",
        mode="STATISTICAL",
    )


def _build_c1(workers):
    files, summary = {}, {"fail": 0, "nonvacuous": 0, "rows": 0}
    for H, mc_seed in ((0.3, 101), (0.5, 103)):
        spec = ProcessSpec(kind="fbm", H=H)
        drifts = (
            DriftSpec(),
            DriftSpec(kind="bounded_wave", amplitude=1.0, frequency=1.0),
            DriftSpec(kind="shared_fbm"),
        )
        tables = estimate_small_ball_drifts(
            spec, drifts, _GRID_FINE, _EPS_GRID, 100_000, mc_seed,
            workers=workers,
        )
        shared = replace(spec, drift=DriftSpec(kind="shared_fbm"))
        drift_sup = drift_norm_samples(
            shared, _GRID_FINE, NormSpec("sup"), 20_000, 708)
        cert_sets = (
            [_explicit_cert(H, e, None) for e in _EPS_GRID],
            [_explicit_cert(H, e, drift_bounded_model(1.0)) for e in _EPS_GRID],
            [_statistical_cert(H, e, shared, drift_sup) for e in _EPS_GRID],
        )
        tag = f"h{int(round(H * 100)):02d}"
        for label, table, certs in zip(
                ("none", "wave", "shared"), tables, cert_sets):
            report = verify_certificates(table, certs)
            files[f"estimates_{tag}_{label}.csv"] = table.to_csv_text()
            files[f"report_{tag}_{label}.csv"] = report.to_csv_text()
            counts = report.counts()
            summary["fail"] += counts["FAIL"]
            summary["rows"] += len(report.rows)
            summary["nonvacuous"] += sum(1 for c in certs if not c.vacuous)
    return files, summary


def test_criterion_01_certificate_validity(art_root):
    t0 = time.perf_counter()
    _, summary = _get("c1", 1, art_root)
    elapsed = time.perf_counter() - t0
    assert summary["rows"] == 36  # 2 Hursts x 3 drifts x 6 radii
    assert summary["fail"] == 0
    assert summary["nonvacuous"] >= 1  # the comparison is not all-trivial
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 2: Brownian sup-ball oracle windows


def _build_c2(workers):
    table = estimate_small_ball(
        ProcessSpec(kind="bm"), UniformGrid(1.0, 16384), (0.5, 1.0),
        100_000, 202, workers=workers,
    )
    summary = {r.epsilon: r.p_hat for r in table.rows}
    return {"bm_estimates.csv": table.to_csv_text()}, summary


def test_criterion_02_brownian_oracle(art_root):
    _, p_hat = _get("c2", 1, art_root)
    assert 0.355 <= p_hat[1.0] <= 0.386
    assert 0.0064 <= p_hat[0.5] <= 0.0119


# ---------------------------------------------------------------------------
# criterion 3: decay-rate recovery for rough paths, analytic and empirical


def _build_c3(workers):
    eps_a = [float(e) for e in np.geomspace(0.01, 0.05, 12)]
    certs = [bound_gaussian_class(0.3, 0.3, 1.0, 1.0, 1.0, 1.0, e)
             for e in eps_a]
    totals = [c.total for c in certs]
    fit_a = fit_rate(eps_a, totals, mode="PREFACTOR_AWARE", c1=2.0)

    eps_e = [float(e) for e in np.geomspace(0.15, 0.45, 8)]
    table = estimate_small_ball(
        ProcessSpec(kind="fbm", H=0.3), UniformGrid(0.0047, 8192), eps_e,
        200_000, 303, workers=workers,
    )
    window = (50.0 / 200_000, 0.9)
    fit_e = fit_rate([r.epsilon for r in table.rows],
                     [r.p_hat for r in table.rows],
                     mode="RAW", value_window=window)
    kept = [(r.epsilon, r.p_hat) for r in table.rows
            if window[0] <= r.p_hat <= window[1]]

    lines = ["epsilon,total"]
    lines += [f"{e!r},{t!r}" for e, t in zip(eps_a, totals)]
    files = {
        "analytic_totals.csv": "\n".join(lines) + "\n",
        "estimates.csv": table.to_csv_text(),
        "rate_fits.json": json.dumps(
            {"analytic": asdict(fit_a), "empirical": asdict(fit_e)},
            indent=2, sort_keys=True) + "\n",
    }
    summary = {
        "fit_a": fit_a, "fit_e": fit_e, "kept": kept,
        "envelope_ok": all(
            c.provenance["envelope"]["dominates_discrete"] for c in certs),
    }
    return files, summary


def test_criterion_03_rate_recovery(art_root):
    _, s = _get("c3", 1, art_root)
    assert s["envelope_ok"]  # totals follow the smooth envelope exactly
    assert abs(s["fit_a"].gamma_hat - 10.0 / 3.0) <= 1e-6
    gamma_e = s["fit_e"].gamma_hat
    assert abs(gamma_e - 10.0 / 3.0) <= 0.35 * (10.0 / 3.0)
    # effective-rate stability: -log(p) * eps^(1/H) varies by < factor 3
    q = [-math.log(p) * e ** (1.0 / 0.3) for e, p in s["kept"]]
    assert len(q) >= 3
    assert max(q) / min(q) < 3.0


# ---------------------------------------------------------------------------
# criterion 4: Holder-norm event, analytic slope and empirical domination


def _build_c4(workers):
    eps_a = [float(e) for e in np.geomspace(0.06, 0.18, 10)]
    certs_a = [fbm_holder_certificate(0.4, 0.2, e) for e in eps_a]
    fit = fit_rate(eps_a, [c.total for c in certs_a],
                   mode="PREFACTOR_AWARE", c1=2.0)

    eps_e = (0.1, 0.12, 0.15, 0.2, 0.3, 0.45, 0.6)
    table = estimate_small_ball(
        ProcessSpec(kind="fbm", H=0.4), UniformGrid(1.0, 2048), eps_e,
        50_000, 404, norm=NormSpec("holder", beta=0.2), workers=workers,
    )
    cert_values = [fbm_holder_certificate(0.4, 0.2, e).total for e in eps_e]

    lines = ["epsilon,value,c2,gamma,delta"]
    lines += [f"{e!r},{c.total!r},{c.provenance['c2']!r},"
              f"{c.provenance['gamma']!r},{c.delta!r}"
              for e, c in zip(eps_a, certs_a)]
    files = {
        "holder_bounds.csv": "\n".join(lines) + "\n",
        "holder_estimates.csv": table.to_csv_text(),
    }
    summary = {
        "fit": fit,
        "pairs": [(r.epsilon, r.p_hat, v)
                  for r, v in zip(table.rows, cert_values)],
    }
    return files, summary


def test_criterion_04_holder_norm_rate(art_root):
    _, s = _get("c4", 1, art_root)
    assert abs(s["fit"].gamma_hat - 5.0) <= 1e-6
    for eps, p_hat, value in s["pairs"]:
        assert p_hat <= value, f"estimate above bound at eps={eps}"


# ---------------------------------------------------------------------------
# criterion 5: i.i.d. partial-sum bounds vs brute-force walks


def _build_c5(workers):
    steps = DistSpec.uniform(-1.0, 1.0)  # E|Z| = 1/2, |Z| <= 1
    paper = iid_sum_certificate(steps, 16, 0.125, mode="PAPER_CONSTANTS").total
    sharp = iid_sum_certificate(steps, 16, 0.125, mode="SHARP").total
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(505)))
    n_sim = 200_000
    k_half = k_two = 0
    for _ in range(20):
        steps = rng.uniform(-1.0, 1.0, size=(n_sim // 20, 16))
        walk_max = np.max(np.abs(np.cumsum(steps, axis=1)), axis=1)
        k_half += int((walk_max <= 0.5).sum())
        k_two += int((walk_max <= 2.0).sum())
    lines = ["threshold,n,k,freq,paper,sharp"]
    for thr, k in ((0.5, k_half), (2.0, k_two)):
        lines.append(f"{thr!r},{n_sim},{k},{k / n_sim!r},{paper!r},{sharp!r}")
    files = {"iid_counts.csv": "\n".join(lines) + "\n"}
    summary = {"paper": paper, "sharp": sharp, "n": n_sim,
               "k_half": k_half, "k_two": k_two}
    return files, summary


def test_criterion_05_iid_hoeffding(art_root):
    _, s = _get("c5", 1, art_root)
    assert abs(s["paper"] - 0.735759) <= 1e-6
    # the walk confined to 0.5 = sqrt(n) eps must sit below both bounds
    ci_half = cp_upper(s["k_half"], s["n"], 0.99)
    assert ci_half <= s["sharp"] <= s["paper"]
    # at the looser printed threshold only the pinned constant holds
    ci_two = cp_upper(s["k_two"], s["n"], 0.99)
    assert ci_two <= s["paper"]


# ---------------------------------------------------------------------------
# criterion 6: Toeplitz top eigenvalue converging to the symbol supremum


def _build_c6(workers):
    sizes = (64, 256, 1024, 4096)
    rows = []
    summary = {}
    for H in (0.3, 0.35, 0.45, 0.5):
        sup = symbol_sup(fgn_symbol(H))
        lams = []
        for n in sizes:
            # delta = 1: the correlation matrix, spacing-invariant
            cov = increment_covariance(sigma2_fbm(H), UniformGrid(float(n), n))
            lam = cov.lambda_max()
            lams.append(lam)
            rows.append(f"{H!r},{n},{lam!r},{sup!r}")
        summary[H] = (lams, sup)
    files = {"toeplitz.csv": "H,N,lambda_max,symbol_sup\n"
             + "\n".join(rows) + "\n"}
    return files, summary


def test_criterion_06_toeplitz_convergence(art_root):
    _, s = _get("c6", 1, art_root)
    for H in (0.3, 0.35, 0.45):
        lams, sup = s[H]
        assert all(a <= b + 1e-12 for a, b in zip(lams, lams[1:]))
        assert lams[-1] <= sup + 1e-9
        assert sup - lams[-1] <= 0.05 * sup
    lams, _ = s[0.5]
    assert all(abs(lam - 1.0) <= 1e-10 for lam in lams)


# ---------------------------------------------------------------------------
# criterion 7: two-norm concentration of the increment l2 norm


def _build_c7(workers):
    H, N = 0.3, 256
    delta = 1.0 / N
    cov = increment_covariance(sigma2_fbm(H), UniformGrid(1.0, N))
    two = max(map(abs, cov.lambda_range()))
    center = math.sqrt(N * delta ** (2.0 * H))
    n_draws, batch = 100_000, 10_000
    devs = []
    for start in range(0, n_draws, batch):
        inc = fgn_increments_block(H, N, delta, SeedSpec(727),
                                   range(start, start + batch))
        devs.append(np.abs(np.sqrt((inc * inc).sum(axis=1)) - center))
    dev = np.concatenate(devs)
    hs = [float(h) for h in np.linspace(0.05, 1.0, 20)]
    rows, triples = [], []
    for h in hs:
        k = int((dev >= h).sum())
        bound = min(1.0, 2.0 * math.exp(-h * h / (4.0 * two)))
        ci = cp_upper(k, n_draws, 0.99)
        rows.append(f"{h!r},{k},{n_draws},{ci!r},{bound!r}")
        triples.append((h, ci, bound))
    files = {"concentration.csv": "h,k,n,cp_upper,bound\n"
             + "\n".join(rows) + "\n"}
    return files, {"triples": triples, "two_norm": two}


def test_criterion_07_concentration_empirics(art_root):
    _, s = _get("c7", 1, art_root)
    assert len(s["triples"]) == 20
    for h, ci, bound in s["triples"]:
        assert ci <= bound, f"exceedance above the tail bound at h={h}"


_BUILDERS = {
    "c1": _build_c1, "c2": _build_c2, "c3": _build_c3, "c4": _build_c4,
    "c5": _build_c5, "c6": _build_c6, "c7": _build_c7,
}


# ---------------------------------------------------------------------------
# criterion 8: representation feasibility witnesses and boundary


def test_criterion_08_representation_feasibility():
    for H, beta, theta in ((0.75, 0.6, 0.2), (0.75, 0.75, 0.01),
                           (0.6, 0.55, 0.5)):
        wit = representation_feasibility(H, beta, theta)
        assert wit.feasible, (H, beta, theta)
        margins = witness_margins(wit.H, wit.theta, wit.Q, wit.eta,
                                  wit.mu, wit.kappa, wit.gamma_repr)
        assert all(m > 0.0 for m in margins.values())
        assert math.isclose(min(margins.values()), wit.slack, rel_tol=1e-12)

    assert not representation_feasibility(0.4, 0.3, 0.2).feasible
    assert "H > 1/2" in representation_feasibility(0.4, 0.3, 0.2).reasons
    # 3H/(H+2) = 0.8181..; beta above it breaks the exponent ordering
    wit = representation_feasibility(0.75, 0.82, 0.2)
    assert not wit.feasible
    assert "beta < 3H/(H+2)" in wit.reasons
    # degenerate corner: the theta threshold closes exactly
    corner = representation_feasibility(0.75, 0.75, 0.01)
    assert abs(2.0 * corner.Q - 2.0 * 0.75) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 10: byte-identical artifacts across worker counts
# (runs before the performance criterion so the stopwatch covers it)


def test_criterion_10_worker_determinism(art_root):
    for name in ("c1", "c2", "c3", "c4", "c5", "c6", "c7"):
        files1, _ = _get(name, 1, art_root)
        files2, _ = _get(name, 2, art_root)
        assert files1.keys() == files2.keys()
        for rel in files1:
            a = (art_root / "w1" / name / rel).read_bytes()
            b = (art_root / "w2" / name / rel).read_bytes()
            assert a == b, f"{name}/{rel} differs across worker counts"


# ---------------------------------------------------------------------------
# criterion 9: O(N log N) scaling and the whole-suite budget
# (defined last so the elapsed check sees every other criterion)


def test_criterion_09_performance_and_budget():
    seed = SeedSpec(909)
    n_small, n_big = 2 ** 19, 2 ** 20
    # warm both sizes so one-time spectrum setup does not skew the ratio
    fgn_increments_block(0.3, n_small, 1.0, seed, range(4))
    fgn_increments_block(0.3, n_big, 1.0, seed, range(4))
    ratios = []
    for _ in range(5):
        t0 = time.perf_counter()
        fgn_increments_block(0.3, n_small, 1.0, seed, range(4))
        t1 = time.perf_counter()
        out = fgn_increments_block(0.3, n_big, 1.0, seed, range(4))
        t2 = time.perf_counter()
        ratios.append((t2 - t1) / (t1 - t0))
    assert out.shape == (4, n_big)  # the large size completes
    assert sum(ratios) / len(ratios) < 2.6
    assert time.perf_counter() - _T0 < _SUITE_BUDGET_S
