"""The four benchmark workloads.

Each workload turns the benchmark seed into its inputs, runs one pass of
smallball through its public entry points and returns the pass's
artifacts as ``{op: (exit_code, text)}``.  ``check`` validates one pass's
artifacts outside the timed region and returns ``{op: [problems]}``;
``notes`` reports facts about the outputs that are not failures.

Library calls go through module attributes (``mcverify.estimate_...``)
so that a ``Tracer`` installed around a pass sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import replace

import numpy as np
from scipy import linalg as sla

from smallball import bounds, cli, concentration, mcverify, paths, simulate
from smallball.bounds import Certificate, Regime
from smallball.errors import InfeasibleCertificateError
from smallball.mcverify import NormSpec
from smallball.paths import UniformGrid
from smallball.simulate import DriftSpec, ProcessSpec, SeedSpec

# confidence of the binomial limit in the exact-law check; a correct
# program fails it with probability 1e-9 per row
_ORACLE_CONFIDENCE = 1.0 - 1e-9


def run_cli(argv):
    """Call ``smallball.cli.main`` in process; return (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue() + err.getvalue()


def _write_json(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True))
    return path


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _nondecreasing(values):
    return all(a <= b for a, b in zip(values, values[1:]))


class VerifyFgnSup:
    """W1: CLI ``verify`` default suite for fbm H=0.3 (sup norm, N=8192)."""

    name = "verify-fgn-sup"
    workers = 1
    N = 8192
    ops = ("verify",)

    def __init__(self, seed, workdir, n_paths=1280):
        self.seed = seed
        self.n_paths = n_paths
        self.config = _write_json(workdir / "verify.json",
                                  {"process": {"kind": "fbm", "H": 0.3}})

    def run(self, workers):
        return {"verify": run_cli(["verify", "--config", self.config,
                                   "--workers", 1, "--seed", self.seed,
                                   "--paths", self.n_paths])}

    def check(self, out):
        code, text = out["verify"]
        if code != 0:
            return {"verify": [f"exit code {code}"]}
        try:
            report = json.loads(text)
        except ValueError as exc:
            return {"verify": [f"output is not JSON: {exc}"]}
        rows = sorted(report["rows"], key=lambda r: r["epsilon"])
        problems = []
        if len(rows) != 6:
            problems.append(f"{len(rows)} rows, expected 6")
        if not _nondecreasing([r["p_hat"] for r in rows]):
            problems.append("p_hat decreases in epsilon")
        if report["counts"]["FAIL"]:
            problems.append("FAIL verdict")
        return {"verify": problems}

    def notes(self, out):
        rows = json.loads(out["verify"][1])["rows"]
        return {"zero_hit_rows": sum(r["p_hat"] == 0 for r in rows),
                "vacuous_rows": sum(r["verdict"] == "VACUOUS" for r in rows),
                "rows": len(rows)}


class DriftStatBm:
    """W2: criterion-01-shaped library run at H=1/2 with three drifts."""

    name = "drift-stat-bm"
    workers = 2
    LABELS = ("none", "wave", "shared")
    ops = tuple(f"{kind}_{label}.csv" for label in LABELS
                for kind in ("estimates", "report"))
    H = 0.5
    EPS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    DRIFTS = (DriftSpec(),
              DriftSpec(kind="bounded_wave", amplitude=1.0, frequency=1.0),
              DriftSpec(kind="shared_fbm"))

    def __init__(self, seed, workdir, n_paths=2048, n_aux=1024, N=8192):
        self.N = N
        self.n_paths = n_paths
        self.n_aux = n_aux
        self.grid = UniformGrid(1.0, N)
        self.spec = ProcessSpec(kind="fbm", H=self.H)
        self.shared = replace(self.spec, drift=DriftSpec(kind="shared_fbm"))
        self.seeds = (3 * seed, 3 * seed + 1, 3 * seed + 2)

    def _tables(self, workers):
        return mcverify.estimate_small_ball_drifts(
            self.spec, self.DRIFTS, self.grid, self.EPS, self.n_paths,
            self.seeds[0], workers=workers)

    def _explicit(self, eps, drift_model):
        try:
            return bounds.bound_gaussian_class(
                self.H, self.H, 1.0, 1.0, 1.0, 1.0, eps,
                drift_model=drift_model, delta_mesh=self.grid.delta)
        except InfeasibleCertificateError as exc:
            return Certificate.vacuous_certificate(eps, 1.0, Regime.sup(),
                                                   str(exc))

    def _statistical(self, eps, drift_sup):
        mesh = self.grid.delta
        d_seed = (4.0 * eps) ** (1.0 / self.H)
        for factor in (1.15, 1.3, 1.5, 2.0):
            delta = math.ceil(factor * d_seed / mesh) * mesh
            N = int(math.floor(1.0 / delta + 1e-12))
            if delta > 1.0 or N < 1:
                continue
            x_norms = mcverify.partition_norm_samples(
                self.shared, UniformGrid(N * delta, N), 2.0, self.n_aux,
                self.seeds[2])
            try:
                return bounds.empirical_certificate(
                    eps, 1.0, Regime.sup(), 2.0, N, delta, x_norms, drift_sup,
                    confidence=0.99)
            except InfeasibleCertificateError:
                continue
        return Certificate.vacuous_certificate(
            eps, 1.0, Regime.sup(), "no feasible partition at this radius",
            mode="STATISTICAL")

    def run(self, workers):
        tables = self._tables(workers)
        drift_sup = mcverify.drift_norm_samples(
            self.shared, self.grid, NormSpec("sup"), self.n_aux, self.seeds[1])
        wave = concentration.drift_bounded_model(1.0)
        cert_sets = ([self._explicit(e, None) for e in self.EPS],
                     [self._explicit(e, wave) for e in self.EPS],
                     [self._statistical(e, drift_sup) for e in self.EPS])
        out = {}
        for label, table, certs in zip(self.LABELS, tables, cert_sets):
            report = mcverify.verify_certificates(table, certs)
            out[f"estimates_{label}.csv"] = (0, table.to_csv_text())
            out[f"report_{label}.csv"] = (0, report.to_csv_text())
        return out

    def check(self, out):
        problems = {op: [] for op in self.ops}
        for label, table in zip(self.LABELS, self._tables(1)):
            if out[f"estimates_{label}.csv"][1] != table.to_csv_text():
                problems[f"estimates_{label}.csv"].append(
                    "differs from the workers=1 table")
        for row in _csv_rows(out["estimates_none.csv"][1]):
            k, n = int(row["k"]), int(row["n_paths"])
            exact = mcverify.bm_sup_exact(float(row["epsilon"]))
            upper = concentration.cp_upper(k, n, _ORACLE_CONFIDENCE)
            if exact > upper:
                problems["estimates_none.csv"].append(
                    f"exact law {exact!r} above binomial limit {upper!r} "
                    f"at epsilon {row['epsilon']}")
        for label in self.LABELS:
            verdicts = [r["verdict"] for r in _csv_rows(out[f"report_{label}.csv"][1])]
            if "FAIL" in verdicts or len(verdicts) != len(self.EPS):
                problems[f"report_{label}.csv"].append(f"verdicts {verdicts}")
        return problems

    def notes(self, out):
        verdicts = [r["verdict"] for label in self.LABELS
                    for r in _csv_rows(out[f"report_{label}.csv"][1])]
        return {"verdicts": {v: verdicts.count(v) for v in sorted(set(verdicts))}}


class SpectralBounds:
    """W3: CLI ``toeplitz`` at H=0.3 plus ``bound`` sweeps; no Monte Carlo."""

    name = "spectral-bounds"
    workers = 1
    ops = ("toeplitz", "stationary", "gaussian_class")
    H = 0.3

    def __init__(self, seed, workdir, sizes=(256, 1024, 2048), n_class=200,
                 n_stationary=5):
        rng = np.random.default_rng(seed)
        self.sizes = list(sizes)
        self.eps = {
            "stationary": sorted(rng.uniform(0.02, 0.24, n_stationary).tolist()),
            "gaussian_class": sorted(np.exp(rng.uniform(
                math.log(0.02), math.log(0.6), n_class)).tolist()),
        }
        self.configs = {
            "toeplitz": _write_json(workdir / "toeplitz.json",
                                    {"H": self.H, "N": self.sizes}),
            **{kind: _write_json(workdir / f"{kind}.json",
                                 {"kind": kind, "H": self.H, "epsilons": eps})
               for kind, eps in self.eps.items()},
        }
        self._reference = None

    def run(self, workers):
        cmd = {"toeplitz": "toeplitz", "stationary": "bound",
               "gaussian_class": "bound"}
        return {op: run_cli([cmd[op], "--config", self.configs[op]])
                for op in self.ops}

    def reference(self):
        """Largest eigenvalue per N by dense ``eigvalsh``; deterministic."""
        if self._reference is None:
            self._reference = [
                float(np.linalg.eigvalsh(sla.toeplitz(
                    simulate.fgn_autocovariance(self.H, np.arange(n))))[-1])
                for n in self.sizes]
        return self._reference

    def check(self, out):
        problems = {op: [] for op in self.ops}
        parsed = {}
        for op in self.ops:
            code, text = out[op]
            if code != 0:
                problems[op].append(f"exit code {code}")
                continue
            try:
                parsed[op] = json.loads(text)
            except ValueError as exc:
                problems[op].append(f"output is not JSON: {exc}")
        if "toeplitz" in parsed:
            rows = parsed["toeplitz"]["rows"]
            if [r["N"] for r in rows] != self.sizes:
                problems["toeplitz"].append("row sizes differ from the config")
            for r in rows:
                if not r["lambda_max"] <= r["symbol_sup"]:
                    problems["toeplitz"].append(
                        f"lambda_max {r['lambda_max']!r} above symbol_sup at N={r['N']}")
        for op in ("stationary", "gaussian_class"):
            if op not in parsed:
                continue
            certs = parsed[op]["certificates"]
            if [c["epsilon"] for c in certs] != self.eps[op]:
                problems[op].append("certificate radii differ from the config")
            if not all(0.0 <= c["total"] <= 1.0 for c in certs):
                problems[op].append("total outside [0, 1]")
        return problems

    def notes(self, out):
        lam = [r["lambda_max"] for r in json.loads(out["toeplitz"][1])["rows"]]
        rel = [abs(a - b) / b for a, b in zip(lam, self.reference())]
        return {"lambda_max": dict(zip(map(str, self.sizes), lam)),
                "lambda_max_rel_err": max(rel),
                "interlacing_violations": sum(b < a for a, b in zip(lam, lam[1:])),
                "vacuous": {op: sum(c["total"] >= 1.0 for c in
                                    json.loads(out[op][1])["certificates"])
                            for op in ("stationary", "gaussian_class")}}


class HolderScan:
    """W4: CLI ``estimate`` for fbm H=0.4 under the Holder(0.2) norm."""

    name = "holder-scan"
    workers = 1
    ops = ("estimate",)
    H = 0.4
    BETA = 0.2
    EPS = (1.5, 2.0, 2.5, 3.0, 3.5)

    def __init__(self, seed, workdir, n_paths=1000, N=1024, n_check=64):
        self.seed = seed
        self.N = N
        self.n_paths = n_paths
        self.n_check = n_check
        self.out = workdir / "holder.csv"
        self.config = _write_json(workdir / "holder.json", {
            "process": {"kind": "fbm", "H": self.H}, "N": N,
            "n_paths": n_paths, "norm": {"kind": "holder", "beta": self.BETA},
            "epsilons": list(self.EPS)})

    def run(self, workers):
        code, msg = run_cli(["estimate", "--config", self.config, "--workers", 1,
                             "--seed", self.seed, "--out", self.out])
        return {"estimate": (code, self.out.read_text() if code == 0 else msg)}

    def check(self, out):
        code, text = out["estimate"]
        if code != 0:
            return {"estimate": [f"exit code {code}"]}
        rows = _csv_rows(text)
        problems = []
        if [float(r["epsilon"]) for r in rows] != list(self.EPS):
            problems.append("radii differ from the config")
        if not _nondecreasing([int(r["k"]) for r in rows]):
            problems.append("counts decrease in epsilon")
        # the screened scan must count exactly what full norms count
        grid = UniformGrid(1.0, self.N)
        values = simulate.path_values_block(
            ProcessSpec(kind="fbm", H=self.H), grid, SeedSpec(self.seed),
            np.arange(self.n_check))
        eps = np.array(self.EPS)
        screened = mcverify._holder_counts(values, grid.delta, self.BETA, eps)
        norms = paths.holder_norm_batch(values, grid.delta, self.BETA)
        full = np.array([(norms <= e).sum() for e in eps])
        if not np.array_equal(screened, full):
            problems.append(f"screened counts {screened.tolist()} != full "
                            f"counts {full.tolist()}")
        return {"estimate": problems}

    def notes(self, out):
        rows = _csv_rows(out["estimate"][1])
        return {"holder_survivor_share": int(rows[-1]["k"]) / self.n_paths,
                "k": [int(r["k"]) for r in rows]}


WORKLOADS = {w.name: w for w in (VerifyFgnSup, DriftStatBm, SpectralBounds,
                                 HolderScan)}
