"""Command-line interface.

Subcommands: simulate, bound, estimate, rate, verify, toeplitz,
feasibility.  Each takes --config (the JSON config) and --out (the
artifact path); simulate, estimate and verify also take --seed and
--paths, which replace the config's `seed` and `n_paths`, and estimate and
verify take --workers.  Configs are validated strictly: duplicate keys are
rejected at parse time, unknown keys are rejected with a JSON-pointer
path, and type errors point at the offending entry.  Failures, a bad
command line included, print one JSON object {"error": {"type", "message"
[, "pointer"]}} on stderr and exit 2; `verify` exits 1 when any
non-vacuous certificate is contradicted by the simulation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
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


def _check_keys(obj: dict, allowed, pointer: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{pointer}/{key}", "unknown key")


def _get(obj, key, types, pointer, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"{pointer}/{key}", "missing required key")
        return default
    val = obj[key]
    if types is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{pointer}/{key}", "expected a number")
        return float(val)
    if types is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{pointer}/{key}", "expected an integer")
        return int(val)
    if not isinstance(val, types):
        raise ConfigError(f"{pointer}/{key}", f"expected {types.__name__}")
    return val


def _get_epsilons(cfg, pointer, required=True, default=None):
    # "epsilon" and "epsilons" are interchangeable; singular reads better
    # for one-point grids
    if "epsilon" in cfg and "epsilons" in cfg:
        raise ConfigError(f"{pointer}/epsilon",
                          "give 'epsilon' or 'epsilons', not both")
    key = "epsilons" if "epsilons" in cfg else ("epsilon" if "epsilon" in cfg else None)
    if key is None:
        if required:
            raise ConfigError(f"{pointer}/epsilons", "missing required key")
        return list(default) if default is not None else None
    eps = _get(cfg, key, list, pointer, required=True)
    if not eps or not all(
        isinstance(e, (int, float)) and not isinstance(e, bool) and e > 0 for e in eps
    ):
        raise ConfigError(f"{pointer}/{key}", "expected a list of positive numbers")
    return [float(e) for e in eps]


def _numbers(vals: list, pointer: str) -> list:
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
        raise ConfigError(pointer, "expected a list of numbers")
    return vals


def _check_H(H: float, pointer: str, key: str = "H") -> float:
    if not 0.0 < H < 1.0:
        raise ConfigError(f"{pointer}/{key}", f"{key} must lie in (0,1)")
    return H


def _parse_drift(obj, pointer) -> DriftSpec:
    _check_keys(obj, {"kind", "level", "amplitude", "frequency", "H2"}, pointer)
    kind = _get(obj, "kind", str, pointer, required=True)
    H2 = _get(obj, "H2", float, pointer, default=0.5)
    if kind == "fbm":
        # checked here: DriftSpec's own errors point at /kind
        _check_H(H2, pointer, "H2")
    try:
        return DriftSpec(
            kind=kind,
            level=_get(obj, "level", float, pointer, default=0.0),
            amplitude=_get(obj, "amplitude", float, pointer, default=1.0),
            frequency=_get(obj, "frequency", float, pointer, default=1.0),
            H2=H2,
        )
    except ValueError as exc:
        raise ConfigError(f"{pointer}/kind", str(exc))


def _parse_process(obj, pointer) -> ProcessSpec:
    _check_keys(obj, {"kind", "H", "drift"}, pointer)
    kind = _get(obj, "kind", str, pointer, required=True)
    if kind not in ("fbm", "bm"):
        raise ConfigError(f"{pointer}/kind", "expected 'fbm' or 'bm'")
    H = _get(obj, "H", float, pointer, default=0.5)
    _check_H(H, pointer)
    drift_obj = _get(obj, "drift", dict, pointer, default=None)
    drift = _parse_drift(drift_obj, f"{pointer}/drift") if drift_obj else DriftSpec()
    try:
        return ProcessSpec(kind=kind, H=H, drift=drift)
    except ValueError as exc:
        raise ConfigError(pointer, str(exc))


def _parse_dist(obj, pointer) -> DistSpec:
    _check_keys(obj, {"kind", "low", "high", "a", "b"}, pointer)
    kind = _get(obj, "kind", str, pointer, required=True)
    try:
        if kind == "uniform":
            return DistSpec.uniform(
                _get(obj, "low", float, pointer, required=True),
                _get(obj, "high", float, pointer, required=True),
            )
        if kind == "rademacher":
            return DistSpec.rademacher()
        if kind == "scaled_beta":
            return DistSpec.scaled_beta(
                _get(obj, "a", float, pointer, required=True),
                _get(obj, "b", float, pointer, required=True),
                _get(obj, "low", float, pointer, required=True),
                _get(obj, "high", float, pointer, required=True),
            )
    except ValueError as exc:
        raise ConfigError(pointer, str(exc))
    raise ConfigError(f"{pointer}/kind", f"unknown distribution {kind!r}")


def _parse_norm(obj, pointer) -> Regime:
    if obj is None:
        return Regime.sup()
    _check_keys(obj, {"kind", "beta"}, pointer)
    try:
        return Regime(
            kind=_get(obj, "kind", str, pointer, required=True),
            beta=_get(obj, "beta", float, pointer, default=None),
        )
    except ValueError as exc:
        raise ConfigError(pointer, str(exc))


def _parse_drift_model(obj, pointer):
    if obj is None:
        return None
    _check_keys(obj, {"kind", "bound", "mean", "var"}, pointer)
    kind = _get(obj, "kind", str, pointer, required=True)
    if kind == "bounded":
        return drift_bounded_model(_get(obj, "bound", float, pointer, required=True))
    if kind == "gauss_borell":
        return drift_borell_model(
            _get(obj, "mean", float, pointer, required=True),
            _get(obj, "var", float, pointer, required=True),
        )
    raise ConfigError(f"{pointer}/kind", f"unknown drift model {kind!r}")


# ---------------------------------------------------------------------------
# bound dispatch (shared by `bound` and `verify`)


_EPS_KEYS = {"epsilon", "epsilons"}


def _class_constants(cfg, pointer, H) -> dict:
    # constants of the Gaussian increment class; beta defaults to H
    return {
        "H": H,
        "beta": _get(cfg, "beta", float, pointer, default=H),
        "c": _get(cfg, "c", float, pointer, default=1.0),
        "C": _get(cfg, "C", float, pointer, default=1.0),
        "c_deriv": _get(cfg, "c_deriv", float, pointer, default=1.0),
        "T": _get(cfg, "T", float, pointer, default=1.0),
        "delta_mesh": _get(cfg, "delta_mesh", float, pointer, default=None),
    }


def _parse_gaussian_class(cfg, pointer) -> dict:
    H = _check_H(_get(cfg, "H", float, pointer, required=True), pointer)
    params = _class_constants(cfg, pointer, H)
    params["drift_model"] = _parse_drift_model(
        _get(cfg, "drift_model", dict, pointer, default=None),
        f"{pointer}/drift_model")
    return params


def _parse_process_shorthand(cfg, pointer) -> dict:
    spec = _parse_process(_get(cfg, "process", dict, pointer, required=True),
                          f"{pointer}/process")
    model = None
    if spec.drift.kind != "none":
        bound = spec.drift.sup_bound()
        if bound is None:
            raise ConfigError(
                f"{pointer}/process/drift",
                "drift has no almost-sure bound; use an explicit "
                "gaussian_class bound with a drift_model, or an empirical "
                "certificate built from drift samples",
            )
        model = drift_bounded_model(bound) if bound > 0 else None
    params = _class_constants(cfg, pointer, spec.H)
    params["drift_model"] = model
    return params


def _parse_iid_sum(cfg, pointer) -> dict:
    return {
        "dist": _parse_dist(_get(cfg, "dist", dict, pointer, required=True),
                            f"{pointer}/dist"),
        "n": _get(cfg, "n", int, pointer, required=True),
        "mode": _get(cfg, "mode", str, pointer, default="PAPER_CONSTANTS"),
    }


def _parse_holder_indep(cfg, pointer) -> dict:
    return {
        "H": _check_H(_get(cfg, "H", float, pointer, required=True), pointer),
        "beta": _get(cfg, "beta", float, pointer, required=True),
        "c_inc": _get(cfg, "c_inc", float, pointer, required=True),
        "holder_bound": _get(cfg, "holder_bound", float, pointer, required=True),
        "T": _get(cfg, "T", float, pointer, default=1.0),
    }


def _parse_fbm_holder(cfg, pointer) -> dict:
    return {
        "H": _check_H(_get(cfg, "H", float, pointer, required=True), pointer),
        "beta": _get(cfg, "beta", float, pointer, required=True),
        "c_deriv": _get(cfg, "c_deriv", float, pointer, default=1.0),
        "T": _get(cfg, "T", float, pointer, default=1.0),
    }


def _parse_stationary(cfg, pointer) -> dict:
    H = _check_H(_get(cfg, "H", float, pointer, required=True), pointer)
    params = {
        "sigma": lambda d: d**H,
        "Delta": _get(cfg, "Delta", float, pointer, default=1.0),
        "T": _get(cfg, "T", float, pointer, default=1.0),
        # sigma(u)/sigma(v) = (u/v)^H <= 2^H for v <= u <= 2v
        "ratio_bound": _get(cfg, "ratio_bound", float, pointer, default=2.0 ** H),
        "symbol_sup_value": _get(cfg, "symbol_sup", float, pointer, default=None),
    }
    if params["symbol_sup_value"] is None:
        sup = symbol_sup(fgn_symbol(H))
        if sup.infinite:
            raise ConfigError(f"{pointer}/H",
                              "spectral density unbounded for H > 1/2; "
                              "supply symbol_sup explicitly")
        params["symbol_sup_value"] = sup.value
    return params


_CLASS_KEYS = {"beta", "c", "C", "c_deriv", "T", "delta_mesh",
               "vacuous_on_infeasible"}

# kind -> (allowed keys, parser, family).  The parser turns the config into
# the keyword arguments of the family's certificate builder.  The builder is
# named, not held, and looked up on the bounds module at each call, so that
# wrappers installed on the module (bench/tracer.py) see every call.
_BOUND_KINDS = {
    "gaussian_class": (_CLASS_KEYS | {"kind", "H", "drift_model"},
                       _parse_gaussian_class, "bound_gaussian_class"),
    "iid_sum": ({"kind", "dist", "n", "mode"}, _parse_iid_sum,
                "iid_sum_certificate"),
    "holder_indep": ({"kind", "H", "beta", "c_inc", "holder_bound", "T"},
                     _parse_holder_indep, "holder_indep_certificate"),
    "fbm_holder": ({"kind", "H", "beta", "c_deriv", "T"}, _parse_fbm_holder,
                   "fbm_holder_certificate"),
    "stationary": ({"kind", "H", "Delta", "T", "ratio_bound", "symbol_sup",
                    "vacuous_on_infeasible"},
                   _parse_stationary, "stationary_certificate"),
}

_SHORTHAND = (_CLASS_KEYS | {"process"}, _parse_process_shorthand,
              "bound_gaussian_class")


def certificates_from_config(cfg: dict, pointer: str = "/") -> list:
    """Build one certificate per epsilon from a bound config object.

    Either a `kind` dispatch (gaussian_class, iid_sum, holder_indep,
    fbm_holder, stationary) or a `process` shorthand that expands to
    gaussian_class with class constants defaulted to 1 and the drift
    model derived from the process drift.
    """
    pointer = pointer.rstrip("/")
    try:
        return _certificates(cfg, pointer)
    except (ValueError, OverflowError) as exc:
        # a producer rejected a value the schema lets through, or a finite
        # value overflowed inside it
        raise ConfigError(pointer or "/", str(exc)) from exc


def _certificates(cfg, pointer):
    if "kind" not in cfg and "process" in cfg:
        keys, parse, family = _SHORTHAND
    else:
        kind = _get(cfg, "kind", str, pointer, required=True)
        if kind not in _BOUND_KINDS:
            raise ConfigError(f"{pointer}/kind", f"unknown bound kind {kind!r}")
        keys, parse, family = _BOUND_KINDS[kind]
    _check_keys(cfg, keys | _EPS_KEYS, pointer)
    epsilons = _get_epsilons(cfg, pointer)
    params = parse(cfg, pointer)
    # only the sup-norm kinds that take the key forgive an infeasible radius
    forgiving = _get(cfg, "vacuous_on_infeasible", bool, pointer,
                     default="vacuous_on_infeasible" in keys)
    build = getattr(_bounds, family)
    out = []
    for e in epsilons:
        try:
            out.append(build(epsilon=e, **params))
        except (InfeasibleCertificateError, EpsilonTooLargeError) as exc:
            if not forgiving:
                raise
            out.append(Certificate.vacuous_certificate(
                e, params["T"], Regime.sup(), str(exc)))
    return out


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
    _check_keys(cfg, {"process", "dist", "n", "T", "N", "n_paths", "seed"}, "")
    if not args.out:
        raise ConfigError("/", "simulate requires --out for the CSV artifact")
    seed = _get(cfg, "seed", int, "", default=0)
    n_paths = _get(cfg, "n_paths", int, "", default=1)
    if n_paths < 1:
        raise ConfigError("/n_paths", "must be >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        if "dist" in cfg:
            dist = _parse_dist(_get(cfg, "dist", dict, ""), "/dist")
            n = _get(cfg, "n", int, "", required=True)
            values = iid_sums_block(dist, n, SeedSpec(seed), np.arange(n_paths))
            times = np.arange(n + 1, dtype=float)
            label = f"iid({dist.kind})"
        else:
            proc_obj = _get(cfg, "process", dict, "", required=True)
            spec = _parse_process(proc_obj, "/process")
            grid = UniformGrid(
                _get(cfg, "T", float, "", default=1.0),
                _get(cfg, "N", int, "", required=True),
            )
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


def _estimate_from_config(cfg, workers):
    spec = _parse_process(_get(cfg, "process", dict, "", required=True),
                          "/process")
    T = _get(cfg, "T", float, "", default=1.0)
    N = _get(cfg, "N", int, "", required=True)
    epsilons = _get_epsilons(cfg, "")
    seed = _get(cfg, "seed", int, "", default=0)
    n_paths = _get(cfg, "n_paths", int, "", required=True)
    norm = _parse_norm(_get(cfg, "norm", dict, "", default=None), "/norm")
    confidence = _get(cfg, "confidence", float, "", default=0.99)
    return estimate_small_ball(
        spec, UniformGrid(T, N), epsilons, n_paths, seed, norm=norm,
        confidence=confidence, workers=workers,
    )


_ESTIMATE_KEYS = {"process", "T", "N", "epsilon", "epsilons", "n_paths", "seed",
                  "norm", "confidence"}


def _cmd_estimate(cfg, args):
    _check_keys(cfg, _ESTIMATE_KEYS, "")
    if not args.out:
        raise ConfigError("/", "estimate requires --out for the CSV artifact")
    table = _estimate_from_config(cfg, args.workers)
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
    _check_keys(cfg, {"epsilon", "epsilons", "values", "estimates_csv", "mode",
                      "c1", "value_window"}, "")
    n_paths = 0
    if "estimates_csv" in cfg:
        eps, vals, n_paths = _read_estimates_csv(
            _get(cfg, "estimates_csv", str, ""))
    else:
        eps = _get_epsilons(cfg, "")
        vals = _numbers(_get(cfg, "values", list, "", required=True), "/values")
    window = _get(cfg, "value_window", list, "", default=None)
    if window is None and n_paths > 0:
        # empirical curves carry binomial noise at the ends; keep points
        # with at least ~50 hits and p_hat below 0.9
        window = [50.0 / n_paths, 0.9]
    if window is not None and len(_numbers(window, "/value_window")) != 2:
        raise ConfigError("/value_window", "expected [lo, hi]")
    try:
        fit = _mc.fit_rate(
            eps, vals,
            mode=_get(cfg, "mode", str, "", default="RAW"),
            c1=_get(cfg, "c1", float, "", default=2.0),
            value_window=None if window is None
            else (float(window[0]), float(window[1])),
        )
    except ValueError as exc:
        raise ConfigError("/values", str(exc))
    _emit({
        **asdict(fit),
        "value_window": None if window is None
        else [float(window[0]), float(window[1])],
        "config_digest": config_digest(cfg),
    }, args.out)
    return 0


_DEFAULT_EPSILONS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]


def _cmd_verify(cfg, args):
    """Estimate, certify, and compare on one config.

    With only a process given this runs the default suite: epsilon grid
    0.1..0.6, 10^4 paths, simulation grid 8192 (2048 for Holder norms),
    certificates from the process shorthand with partitions snapped to
    the simulation grid so they nest.
    """
    _check_keys(cfg, _ESTIMATE_KEYS | {"bound"}, "")
    eps = _get_epsilons(cfg, "", required=False, default=_DEFAULT_EPSILONS)
    cfg.pop("epsilon", None)
    cfg["epsilons"] = eps
    norm = _parse_norm(_get(cfg, "norm", dict, "", default=None), "/norm")
    cfg.setdefault("N", 2048 if norm.kind == "holder" else 8192)
    cfg.setdefault("n_paths", 10_000)
    grid = UniformGrid(_get(cfg, "T", float, "", default=1.0),
                       _get(cfg, "N", int, "", required=True))

    bound_cfg = _get(cfg, "bound", dict, "", default=None)
    bound_pointer = "/bound"
    if bound_cfg is None:
        # the default suite certifies the top-level process: errors point there
        bound_cfg = {"process": _get(cfg, "process", dict, "", required=True),
                     "T": grid.T}
        bound_pointer = ""
    else:
        bound_cfg = dict(bound_cfg)
        if _EPS_KEYS & bound_cfg.keys():
            raise ConfigError("/bound/epsilons",
                              "epsilons are taken from the top level")
        # a certificate on another horizon bounds another event
        bound_T = _get(bound_cfg, "T", float, "/bound", default=1.0)
        if bound_T != grid.T:
            raise ConfigError("/bound/T", f"T = {bound_T!r} differs from the "
                              f"simulated horizon T = {grid.T!r}")
    bound_cfg["epsilons"] = eps
    if "kind" not in bound_cfg or bound_cfg.get("kind") == "gaussian_class":
        # snap certificate partitions onto the simulation grid so the
        # certified event contains the simulated discrete event
        bound_cfg.setdefault("delta_mesh", grid.delta)
    certs = certificates_from_config(bound_cfg, bound_pointer)

    est_cfg = {k: v for k, v in cfg.items() if k != "bound"}
    table = _estimate_from_config(est_cfg, args.workers)
    report = _mc.verify_certificates(table, certs)
    payload = report.to_dict()
    payload["digest"] = table.digest
    payload["config_digest"] = config_digest(cfg)
    _emit(payload, args.out, report.to_csv_text())
    return 0 if report.ok else 1


def _cmd_toeplitz(cfg, args):
    """Convergence table: top eigenvalue of the increment correlation
    matrix against the spectral-density supremum, per matrix size."""
    _check_keys(cfg, {"H", "N"}, "")
    H = _check_H(_get(cfg, "H", float, "", required=True), "")
    raw = cfg.get("N", [64, 256, 1024, 4096])
    sizes = [raw] if isinstance(raw, int) else raw
    if not (isinstance(sizes, list) and sizes
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 2
                    for n in sizes)):
        raise ConfigError("/N", "expected an integer >= 2 or a list of them")
    sup = symbol_sup(fgn_symbol(H))
    sup_out = "INFINITE" if sup.infinite else sup.value
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
    sup_txt = sup_out if sup.infinite else repr(sup_out)
    csv = "".join(f"{r['N']},{r['lambda_max']!r},{sup_txt}\n" for r in rows)
    _emit(payload, args.out, "N,lambda_max,symbol_sup\n" + csv)
    return 0


def _cmd_feasibility(cfg, args):
    _check_keys(cfg, {"H", "beta", "theta"}, "")
    H = _check_H(_get(cfg, "H", float, "", required=True), "")
    beta = _get(cfg, "beta", float, "", required=True)
    theta = _get(cfg, "theta", float, "", required=True)
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
