"""Command-line interface.

Subcommands: simulate, bound, estimate, rate, verify, toeplitz,
feasibility.  Each takes --config (the JSON config) and --out (the
artifact path); simulate, estimate and verify also take --seed and
--paths, which replace the config's `seed` and `n_paths`, and estimate and
verify take --workers.  Configs are validated strictly: duplicate keys are
rejected at parse time, each config object accepts exactly the keys its
parser reads (others are rejected with a JSON-pointer path), and type
errors point at the offending entry.  Every command reads its whole config
before it simulates, builds or writes anything.  Failures, a bad command
line included, print one JSON object {"error": {"type", "message"
[, "pointer"]}} on stderr and exit 2; `verify` exits 1 when any
non-vacuous certificate is contradicted by the simulation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import bounds as _bounds
from . import mcverify as _mc
from .bounds import Certificate, Regime
from .errors import (
    ConfigError,
    EpsilonTooLargeError,
    InfeasibleCertificateError,
    SmallBallError,
)
from .concentration import drift_borell_model, drift_bounded_model
from .gausscov import fgn_symbol, increment_covariance, sigma2_fbm, symbol_sup
from .mcverify import config_digest, estimate_small_ball
from .paths import UniformGrid
from .simulate import (DistSpec, DriftSpec, ProcessSpec, SeedSpec,
                       iid_sums_block, path_values_block)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# strict JSON config handling


def _no_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError("/", f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _finite(parse):
    # number hook for json.load: NaN, +-Infinity and numbers outside the
    # float range (1e999, integers of 309 or more digits) are rejected
    def hook(text):
        try:
            val = parse(text)
            ok = math.isfinite(float(val))
        except (ValueError, OverflowError):
            ok = False
        if not ok:
            if len(text) > 24:
                text = f"{text[:12]}... ({len(text)} characters)"
            raise ValueError(f"number {text} is not a finite float")
        return val
    return hook


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, object_pairs_hook=_no_duplicates,
                            parse_float=_finite(float), parse_int=_finite(int),
                            parse_constant=_finite(float))
    except FileNotFoundError:
        raise ConfigError("/", f"config file not found: {path}")
    except ValueError as exc:  # a JSONDecodeError, or a number hook above
        raise ConfigError("/", f"invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("/", "top level must be a JSON object")
    return cfg


class _Obj:
    """One JSON object of a config at `pointer` ("" at the top level).

    `take` reads a key and records it; `done` then rejects the first key
    that no read took, so an object accepts exactly the keys its parser
    reads, and only those of the variant it parses.
    """

    def __init__(self, data: dict, pointer: str = ""):
        self.data = data
        self.pointer = pointer
        self._taken = set()

    def at(self, key: str) -> str:
        return f"{self.pointer}/{key}"

    def __contains__(self, key) -> bool:
        return key in self.data

    def take(self, key, types, default=None, required=False):
        # a dict comes back as the reader of that object
        self._taken.add(key)
        if key not in self.data:
            if required:
                raise ConfigError(self.at(key), "missing required key")
            return default
        val = self.data[key]
        if types is float:
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(self.at(key), "expected a number")
            return float(val)
        if types is int:
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(self.at(key), "expected an integer")
            return int(val)
        if not isinstance(val, types):
            raise ConfigError(self.at(key), f"expected {types.__name__}")
        return _Obj(val, self.at(key)) if types is dict else val

    def done(self):
        for key in self.data:
            if key not in self._taken:
                raise ConfigError(self.at(key), "unknown key")


@contextmanager
def _errors_at(pointer: str):
    # a producer rejected a value the schema lets through, or a finite
    # value overflowed inside it: a config error at `pointer`
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ConfigError(pointer or "/", str(exc)) from exc


def _epsilons(obj: _Obj, default=None) -> list:
    # "epsilon" and "epsilons" are interchangeable; singular reads better
    # for one-point grids
    if "epsilon" in obj and "epsilons" in obj:
        raise ConfigError(obj.at("epsilon"),
                          "give 'epsilon' or 'epsilons', not both")
    key = "epsilon" if "epsilon" in obj else "epsilons"
    eps = obj.take(key, list, default=default, required=default is None)
    if not eps or not all(
        isinstance(e, (int, float)) and not isinstance(e, bool) and e > 0 for e in eps
    ):
        raise ConfigError(obj.at(key), "expected a list of positive numbers")
    return [float(e) for e in eps]


def _numbers(obj: _Obj, key: str, required=False):
    vals = obj.take(key, list, required=required)
    if vals is not None and not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals
    ):
        raise ConfigError(obj.at(key), "expected a list of numbers")
    return vals


def _hurst(obj: _Obj, key: str = "H", **kw) -> float:
    H = obj.take(key, float, **kw)
    if not 0.0 < H < 1.0:
        raise ConfigError(obj.at(key), f"{key} must lie in (0,1)")
    return H


def _parse_drift(obj: _Obj) -> DriftSpec:
    kind = obj.take("kind", str, required=True)
    # each kind reads its own parameters; DriftSpec defaults the rest
    params = {}
    if kind == "constant":
        params["level"] = obj.take("level", float, default=0.0)
    elif kind == "bounded_wave":
        params["amplitude"] = obj.take("amplitude", float, default=1.0)
        params["frequency"] = obj.take("frequency", float, default=1.0)
    elif kind == "fbm":
        # checked here: DriftSpec's own errors point at /kind
        params["H2"] = _hurst(obj, "H2", default=0.5)
    with _errors_at(obj.at("kind")):
        spec = DriftSpec(kind=kind, **params)
    obj.done()
    return spec


def _parse_process(obj: _Obj) -> ProcessSpec:
    kind = obj.take("kind", str, required=True)
    if kind not in ("fbm", "bm"):
        raise ConfigError(obj.at("kind"), "expected 'fbm' or 'bm'")
    H = _hurst(obj, default=0.5)
    drift = obj.take("drift", dict)
    drift = _parse_drift(drift) if drift is not None and drift.data else DriftSpec()
    with _errors_at(obj.pointer):
        spec = ProcessSpec(kind=kind, H=H, drift=drift)
    obj.done()
    return spec


def _parse_dist(obj: _Obj) -> DistSpec:
    kind = obj.take("kind", str, required=True)
    with _errors_at(obj.pointer):
        if kind == "uniform":
            dist = DistSpec.uniform(obj.take("low", float, required=True),
                                    obj.take("high", float, required=True))
        elif kind == "rademacher":
            dist = DistSpec.rademacher()
        elif kind == "scaled_beta":
            dist = DistSpec.scaled_beta(
                obj.take("a", float, required=True),
                obj.take("b", float, required=True),
                obj.take("low", float, required=True),
                obj.take("high", float, required=True),
            )
        else:
            raise ConfigError(obj.at("kind"), f"unknown distribution {kind!r}")
    obj.done()
    return dist


def _parse_norm(obj: _Obj | None) -> Regime:
    if obj is None:
        return Regime.sup()
    with _errors_at(obj.pointer):
        norm = Regime(kind=obj.take("kind", str, required=True),
                      beta=obj.take("beta", float))
    obj.done()
    return norm


def _parse_drift_model(obj: _Obj | None):
    if obj is None:
        return None
    kind = obj.take("kind", str, required=True)
    if kind == "bounded":
        model = drift_bounded_model(obj.take("bound", float, required=True))
    elif kind == "gauss_borell":
        model = drift_borell_model(obj.take("mean", float, required=True),
                                   obj.take("var", float, required=True))
    else:
        raise ConfigError(obj.at("kind"), f"unknown drift model {kind!r}")
    obj.done()
    return model


# ---------------------------------------------------------------------------
# bound dispatch (shared by `bound` and `verify`)


def _class_constants(obj: _Obj, H: float) -> dict:
    # constants of the Gaussian increment class; beta defaults to H
    return {
        "H": H,
        "beta": obj.take("beta", float, default=H),
        "c": obj.take("c", float, default=1.0),
        "C": obj.take("C", float, default=1.0),
        "c_deriv": obj.take("c_deriv", float, default=1.0),
        "T": obj.take("T", float, default=1.0),
        "delta_mesh": obj.take("delta_mesh", float),
    }


def _parse_gaussian_class(obj: _Obj) -> dict:
    params = _class_constants(obj, _hurst(obj, required=True))
    params["drift_model"] = _parse_drift_model(obj.take("drift_model", dict))
    return params


def _parse_process_shorthand(obj: _Obj) -> dict:
    process = obj.take("process", dict, required=True)
    spec = _parse_process(process)
    bound = spec.drift.sup_bound()
    if bound is None:
        raise ConfigError(
            process.at("drift"),
            "drift has no almost-sure bound; use an explicit "
            "gaussian_class bound with a drift_model, or an empirical "
            "certificate built from drift samples",
        )
    params = _class_constants(obj, spec.H)
    params["drift_model"] = drift_bounded_model(bound) if bound > 0 else None
    return params


def _parse_iid_sum(obj: _Obj) -> dict:
    return {
        "dist": _parse_dist(obj.take("dist", dict, required=True)),
        "n": obj.take("n", int, required=True),
        "mode": obj.take("mode", str, default="PAPER_CONSTANTS"),
    }


def _parse_holder_indep(obj: _Obj) -> dict:
    return {
        "H": _hurst(obj, required=True),
        "beta": obj.take("beta", float, required=True),
        "c_inc": obj.take("c_inc", float, required=True),
        "holder_bound": obj.take("holder_bound", float, required=True),
        "T": obj.take("T", float, default=1.0),
    }


def _parse_fbm_holder(obj: _Obj) -> dict:
    return {
        "H": _hurst(obj, required=True),
        "beta": obj.take("beta", float, required=True),
        "c_deriv": obj.take("c_deriv", float, default=1.0),
        "T": obj.take("T", float, default=1.0),
    }


def _parse_stationary(obj: _Obj) -> dict:
    H = _hurst(obj, required=True)
    params = {
        "sigma": lambda d: d**H,
        "Delta": obj.take("Delta", float, default=1.0),
        "T": obj.take("T", float, default=1.0),
        # sigma(u)/sigma(v) = (u/v)^H <= 2^H for v <= u <= 2v
        "ratio_bound": obj.take("ratio_bound", float, default=2.0 ** H),
        "symbol_sup_value": obj.take("symbol_sup", float),
    }
    if params["symbol_sup_value"] is None:
        sup = symbol_sup(fgn_symbol(H))
        if math.isinf(sup):
            raise ConfigError(obj.at("H"),
                              "spectral density unbounded for H > 1/2; "
                              "supply symbol_sup explicitly")
        params["symbol_sup_value"] = sup
    return params


# kind -> (parser, family, forgiving).  The parser reads the kind's keys
# into the keyword arguments of the family's certificate builder.  The
# builder is named, not held, and looked up on the bounds module at each
# call, so that wrappers installed on the module (bench/tracer.py) see
# every call.  Only the forgiving (sup-norm) kinds read
# `vacuous_on_infeasible`, which defaults to true.
_BOUND_KINDS = {
    "gaussian_class": (_parse_gaussian_class, "bound_gaussian_class", True),
    "iid_sum": (_parse_iid_sum, "iid_sum_certificate", False),
    "holder_indep": (_parse_holder_indep, "holder_indep_certificate", False),
    "fbm_holder": (_parse_fbm_holder, "fbm_holder_certificate", False),
    "stationary": (_parse_stationary, "stationary_certificate", True),
}

_SHORTHAND = (_parse_process_shorthand, "bound_gaussian_class", True)


def _parse_bound(obj: _Obj) -> tuple:
    """(family, builder keyword arguments, forgiving) of a bound config
    object, epsilons apart: a `kind` dispatch, or the `process` shorthand
    for gaussian_class with the class constants defaulted to 1 and the
    drift model derived from the process drift."""
    if "kind" not in obj and "process" in obj:
        parse, family, forgiving = _SHORTHAND
    else:
        kind = obj.take("kind", str, required=True)
        if kind not in _BOUND_KINDS:
            raise ConfigError(obj.at("kind"), f"unknown bound kind {kind!r}")
        parse, family, forgiving = _BOUND_KINDS[kind]
    with _errors_at(obj.pointer):
        params = parse(obj)
    if forgiving:
        forgiving = obj.take("vacuous_on_infeasible", bool, default=True)
    return family, params, forgiving


def _certificates(family, params, epsilons, forgiving, pointer) -> list:
    build = getattr(_bounds, family)
    out = []
    with _errors_at(pointer):
        for e in epsilons:
            try:
                out.append(build(epsilon=e, **params))
            except (InfeasibleCertificateError, EpsilonTooLargeError) as exc:
                if not forgiving:
                    raise
                out.append(Certificate.vacuous_certificate(
                    e, params["T"], Regime.sup(), str(exc)))
    return out


def certificates_from_config(cfg: dict, pointer: str = "/") -> list:
    """One certificate per epsilon from a bound config object."""
    obj = _Obj(cfg, pointer.rstrip("/"))
    epsilons = _epsilons(obj)
    family, params, forgiving = _parse_bound(obj)
    obj.done()
    return _certificates(family, params, epsilons, forgiving, obj.pointer)


# ---------------------------------------------------------------------------
# subcommand implementations


def _emit(payload: dict, out: str | None, csv: str | None = None):
    """JSON to --out or stdout; given a CSV artifact, the CSV goes to --out
    and the JSON, naming it, to stdout."""
    if csv is not None:
        if out:
            _mc.write_text_artifact(out, csv)
            payload["csv"] = out
        out = None
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        _mc.write_text_artifact(out, text)
    else:
        sys.stdout.write(text)


def _effective_config(cfg, args) -> dict:
    """Config after the --seed/--paths flags; every command reads it and
    its digest stamps every artifact."""
    eff = dict(cfg)
    if getattr(args, "seed", None) is not None:
        eff["seed"] = args.seed
    if getattr(args, "paths", None) is not None:
        eff["n_paths"] = args.paths
    return eff


def _cmd_simulate(cfg, args):
    top = _Obj(cfg)
    seed = top.take("seed", int, default=0)
    n_paths = top.take("n_paths", int, default=1)
    if n_paths < 1:
        raise ConfigError("/n_paths", "must be >= 1")
    # an i.i.d. walk (dist, n) or a process on a grid (process, T, N)
    if "dist" in top:
        dist = _parse_dist(top.take("dist", dict))
        n = top.take("n", int, required=True)
    else:
        spec = _parse_process(top.take("process", dict, required=True))
        grid = UniformGrid(top.take("T", float, default=1.0),
                           top.take("N", int, required=True))
    top.done()
    if not args.out:
        raise ConfigError("/", "simulate requires --out for the CSV artifact")
    with np.errstate(over="ignore", invalid="ignore"):
        if "dist" in top:
            values = iid_sums_block(dist, n, SeedSpec(seed), np.arange(n_paths))
            times = np.arange(n + 1, dtype=float)
            label = f"iid({dist.kind})"
        else:
            values = path_values_block(spec, grid, SeedSpec(seed),
                                       np.arange(n_paths))
            times = grid.times
            label = spec.label()
    if not np.isfinite(values).all():
        # finite inputs whose paths overflow, e.g. a huge horizon T
        raise ConfigError("/", "simulated values are not finite")
    digest = config_digest(cfg)
    lines = [f"# simulated paths: {label}", f"# seed={seed}",
             f"# config_digest={digest}",
             "t," + ",".join(f"path_{b}" for b in range(n_paths))]
    for i, t in enumerate(times):
        row = ",".join(repr(float(v)) for v in values[:, i])
        lines.append(f"{float(t)!r},{row}")
    _mc.write_text_artifact(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_bound(cfg, args):
    certs = certificates_from_config(cfg)
    payload = {
        "kind": cfg.get("kind", "gaussian_class"),
        "config_digest": config_digest(cfg),
        "certificates": [c.to_dict() for c in certs],
    }
    _emit(payload, args.out)
    return 0


_DEFAULT_EPSILONS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]


def _estimate_args(top: _Obj, default_suite: bool = False) -> dict:
    """estimate_small_ball's arguments, workers apart, from an estimate
    config; `verify` fills what its default suite leaves out."""
    epsilons = _epsilons(top, _DEFAULT_EPSILONS if default_suite else None)
    norm = _parse_norm(top.take("norm", dict))
    N_default = 2048 if norm.kind == "holder" else 8192
    return {
        "spec": _parse_process(top.take("process", dict, required=True)),
        "grid": UniformGrid(
            top.take("T", float, default=1.0),
            top.take("N", int, default=N_default, required=not default_suite)),
        "epsilons": epsilons,
        "n_paths": top.take("n_paths", int, default=10_000,
                            required=not default_suite),
        "seed": top.take("seed", int, default=0),
        "norm": norm,
        "confidence": top.take("confidence", float, default=0.99),
    }


def _cmd_estimate(cfg, args):
    top = _Obj(cfg)
    est = _estimate_args(top)
    top.done()
    if not args.out:
        raise ConfigError("/", "estimate requires --out for the CSV artifact")
    table = estimate_small_ball(**est, workers=args.workers)
    _mc.write_text_artifact(args.out, table.to_csv_text())
    return 0


def _read_estimates_csv(path):
    eps, vals, counts = [], [], []
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError("/estimates_csv", str(exc))
    with fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rec = dict(zip(header, line.split(",")))
            try:
                eps.append(float(rec["epsilon"]))
                vals.append(float(rec["p_hat"]))
                counts.append(int(rec.get("n_paths", 0)))
            except KeyError as exc:
                raise ConfigError("/estimates_csv",
                                  f"{path}: missing column {exc.args[0]!r}") from exc
            except ValueError as exc:
                raise ConfigError("/estimates_csv", f"{path}: {exc}") from exc
    if not eps:
        raise ConfigError("/estimates_csv", f"no data rows in {path}")
    return eps, vals, (max(counts) if counts else 0)


def _cmd_rate(cfg, args):
    top = _Obj(cfg)
    # an estimate table (estimates_csv) or an inline curve (epsilons, values)
    csv_path = top.take("estimates_csv", str)
    if csv_path is None:
        eps = _epsilons(top)
        vals = _numbers(top, "values", required=True)
    window = _numbers(top, "value_window")
    if window is not None and len(window) != 2:
        raise ConfigError("/value_window", "expected [lo, hi]")
    mode = top.take("mode", str, default="RAW")
    c1 = top.take("c1", float, default=2.0)
    top.done()
    if csv_path is not None:
        eps, vals, n_paths = _read_estimates_csv(csv_path)
        if window is None and n_paths > 0:
            # empirical curves carry binomial noise at the ends; keep points
            # with at least ~50 hits and p_hat below 0.9
            window = [50.0 / n_paths, 0.9]
    window = None if window is None else (float(window[0]), float(window[1]))
    try:
        fit = _mc.fit_rate(eps, vals, mode=mode, c1=c1, value_window=window)
    except ValueError as exc:
        raise ConfigError("/values", str(exc))
    _emit({
        **asdict(fit),
        "value_window": None if window is None else list(window),
        "config_digest": config_digest(cfg),
    }, args.out)
    return 0


def _cmd_verify(cfg, args):
    """Estimate, certify, and compare on one config.

    With only a process given this runs the default suite: epsilon grid
    0.1..0.6, 10^4 paths, simulation grid 8192 (2048 for Holder norms),
    certificates from the process shorthand with partitions snapped to
    the simulation grid so they nest.
    """
    top = _Obj(cfg)
    est = _estimate_args(top, default_suite=True)
    grid = est["grid"]
    # the default suite certifies the top-level process: errors point there
    bound = (top.take("bound", dict)
             or _Obj({"process": cfg["process"], "T": grid.T}))
    if "epsilon" in bound or "epsilons" in bound:
        raise ConfigError("/bound/epsilons",
                          "epsilons are taken from the top level")
    family, params, forgiving = _parse_bound(bound)
    # a certificate on another horizon bounds another event
    bound_T = params.get("T", 1.0)
    if bound_T != grid.T:
        raise ConfigError("/bound/T", f"T = {bound_T!r} differs from the "
                          f"simulated horizon T = {grid.T!r}")
    bound.done()
    top.done()
    if family == "bound_gaussian_class" and params["delta_mesh"] is None:
        # snap certificate partitions onto the simulation grid so the
        # certified event contains the simulated discrete event
        params["delta_mesh"] = grid.delta
    certs = _certificates(family, params, est["epsilons"], forgiving,
                          bound.pointer)

    table = estimate_small_ball(**est, workers=args.workers)
    report = _mc.verify_certificates(table, certs)
    payload = report.to_dict()
    payload["digest"] = table.digest
    # the digest covers the config as the run read it: `epsilons` for
    # `epsilon`, and the default suite's N and n_paths filled in
    cfg.pop("epsilon", None)
    cfg.update(epsilons=est["epsilons"], N=grid.N, n_paths=est["n_paths"])
    payload["config_digest"] = config_digest(cfg)
    _emit(payload, args.out, report.to_csv_text())
    return 0 if report.ok else 1


def _cmd_toeplitz(cfg, args):
    """Convergence table: top eigenvalue of the increment correlation
    matrix against the spectral-density supremum, per matrix size."""
    top = _Obj(cfg)
    H = _hurst(top, required=True)
    raw = top.take("N", object, default=[64, 256, 1024, 4096])
    sizes = [raw] if isinstance(raw, int) else raw
    if not (isinstance(sizes, list) and sizes
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 2
                    for n in sizes)):
        raise ConfigError("/N", "expected an integer >= 2 or a list of them")
    top.done()
    sup = symbol_sup(fgn_symbol(H))
    sup_out = "INFINITE" if math.isinf(sup) else sup
    rows = []
    for n in sizes:
        # delta = 1 makes Gamma the correlation matrix (unit diagonal);
        # fGn correlations do not depend on the grid spacing
        cov = increment_covariance(sigma2_fbm(H), UniformGrid(float(n), n))
        rows.append({"N": n, "lambda_max": cov.lambda_max(),
                     "symbol_sup": sup_out})
    payload = {
        "H": H, "symbol_sup": sup_out, "rows": rows,
        "config_digest": config_digest(cfg),
    }
    sup_txt = sup_out if math.isinf(sup) else repr(sup_out)
    csv = "".join(f"{r['N']},{r['lambda_max']!r},{sup_txt}\n" for r in rows)
    _emit(payload, args.out, "N,lambda_max,symbol_sup\n" + csv)
    return 0


def _cmd_feasibility(cfg, args):
    top = _Obj(cfg)
    H = _hurst(top, required=True)
    beta = top.take("beta", float, required=True)
    theta = top.take("theta", float, required=True)
    top.done()
    payload = _bounds.representation_feasibility(H, beta, theta).to_dict()
    payload["config_digest"] = config_digest(cfg)
    _emit(payload, args.out)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "bound": _cmd_bound,
    "estimate": _cmd_estimate,
    "rate": _cmd_rate,
    "verify": _cmd_verify,
    "toeplitz": _cmd_toeplitz,
    "feasibility": _cmd_feasibility,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a bad command line ends like any other failure: one JSON object
        # on stderr and exit 2, not a usage dump
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="smallball",
        description="Certified small-deviation bounds with Monte Carlo checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "simulate paths and write them as CSV"),
        ("bound", "compute certificates over an epsilon grid"),
        ("estimate", "Monte Carlo small-ball estimates as CSV"),
        ("rate", "fit the decay exponent of a small-ball curve"),
        ("verify", "bound + estimate + consistency verdicts"),
        ("toeplitz", "increment covariance analysis for a Hurst index"),
        ("feasibility", "representation feasibility witness"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="artifact output path")
        if name in ("simulate", "estimate", "verify"):
            p.add_argument("--seed", type=int, help="override the config's seed")
            p.add_argument("--paths", type=int,
                           help="override the number of simulated paths")
        if name in ("estimate", "verify"):
            p.add_argument("--workers", type=int, default=1,
                           help="worker processes, at most one per chunk")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        declared = cfg.pop("command", None)
        if declared is not None and declared != args.command:
            raise ConfigError(
                "/command",
                f"config names command {declared!r} but {args.command!r} "
                "was invoked",
            )
        return _COMMANDS[args.command](_effective_config(cfg, args), args)
    except argparse.ArgumentError as exc:
        _print_error("argument", exc)
    except ConfigError as exc:
        _print_error("config", exc, pointer=exc.pointer)
    except SmallBallError as exc:
        _print_error(type(exc).__name__, exc)
    except (ValueError, OverflowError) as exc:
        # a producer rejected a value the schema lets through, or a finite
        # value overflowed inside it
        _print_error("config", exc, pointer="/")
    except OSError as exc:
        _print_error("io", exc)
    return 2


def _print_error(kind: str, exc: Exception, pointer: str | None = None):
    # the pointer rides in its own field, so the message stays bare;
    # str(exc) keeps the "pointer: message" form for tracebacks
    message = getattr(exc, "reason", None) if pointer is not None else None
    payload = {"error": {"type": kind, "message": message or str(exc)}}
    if pointer is not None:
        payload["error"]["pointer"] = pointer
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
