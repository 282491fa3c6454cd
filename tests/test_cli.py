"""End-to-end CLI checks through main(argv).

Every assertion goes through the public entry point: JSON in, artifacts
and JSON out, machine-readable errors with pointers on stderr.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from smallball.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


def run_cli(tmp_path, capsys, command, config, *extra):
    cfg_path = tmp_path / "config.json"
    if isinstance(config, str):
        cfg_path.write_text(config)
    else:
        cfg_path.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg_path), *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_error(err):
    payload = json.loads(err.strip().split("\n")[-1])
    return payload["error"]


class TestConfigLoading:
    def test_duplicate_keys_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            tmp_path, capsys, "feasibility", '{"H": 0.75, "H": 0.8, "beta": 0.6, "theta": 0.2}'
        )
        assert code == 2
        assert "duplicate" in parse_error(err)["message"]

    def test_invalid_json_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(tmp_path, capsys, "feasibility", "{not json")
        assert code == 2
        assert parse_error(err)["type"] == "config"

    def test_invalid_utf8_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(b'\xff{"H": 0.75}')
        code = main(["feasibility", "--config", str(cfg_path)])
        assert code == 2
        assert parse_error(capsys.readouterr().err)["type"] == "config"

    def test_missing_file(self, capsys):
        code = main(["feasibility", "--config", "/nonexistent/x.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "not found" in parse_error(err)["message"]

    def test_unknown_key_pointer(self, tmp_path, capsys):
        code, _, err = run_cli(
            tmp_path, capsys, "feasibility",
            {"H": 0.75, "beta": 0.6, "theta": 0.2, "thetaa": 1},
        )
        assert code == 2
        assert parse_error(err)["pointer"] == "/thetaa"

    def test_command_key_must_match_subcommand(self, tmp_path, capsys):
        code, _, err = run_cli(
            tmp_path, capsys, "feasibility",
            {"command": "bound", "H": 0.75, "beta": 0.6, "theta": 0.2},
        )
        assert code == 2
        assert parse_error(err)["pointer"] == "/command"

    def test_matching_command_key_accepted(self, tmp_path, capsys):
        code, out, _ = run_cli(
            tmp_path, capsys, "feasibility",
            {"command": "feasibility", "H": 0.75, "beta": 0.6, "theta": 0.2},
        )
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_hurst_range_message(self, tmp_path, capsys):
        code, _, err = run_cli(
            tmp_path, capsys, "bound",
            {"process": {"kind": "fbm", "H": 1.5}, "epsilon": [0.1]},
        )
        assert code == 2
        e = parse_error(err)
        assert e["message"] == "H must lie in (0,1)"
        assert e["pointer"].endswith("/H")


class TestSimulate:
    def test_writes_csv_with_digest(self, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        cfg = {"process": {"kind": "fbm", "H": 0.3}, "N": 16, "n_paths": 3, "seed": 7}
        code, _, _ = run_cli(tmp_path, capsys, "simulate", cfg, "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("# simulated paths: fbm(H=0.3)")
        assert "# config_digest=" in text
        body = [l for l in text.strip().split("\n") if not l.startswith("#")]
        assert body[0] == "t,path_0,path_1,path_2"
        assert len(body) == 18  # header + 17 grid points

    def test_reproducible_and_seed_sensitive(self, tmp_path, capsys):
        cfg = {"process": {"kind": "bm"}, "N": 8, "n_paths": 2, "seed": 1}
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        run_cli(tmp_path, capsys, "simulate", cfg, "--out", str(a))
        run_cli(tmp_path, capsys, "simulate", cfg, "--out", str(b))
        run_cli(tmp_path, capsys, "simulate", cfg, "--out", str(c), "--seed", "2")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_iid_mode(self, tmp_path, capsys):
        out = tmp_path / "sums.csv"
        cfg = {"dist": {"kind": "rademacher"}, "n": 5, "n_paths": 2}
        code, _, _ = run_cli(tmp_path, capsys, "simulate", cfg, "--out", str(out))
        assert code == 0
        assert "iid(rademacher)" in out.read_text()

    def test_missing_out_is_reported_before_simulating(self, tmp_path, capsys,
                                                      monkeypatch):
        def fail(*args):
            raise AssertionError("simulated before checking --out")

        monkeypatch.setattr("smallball.cli.path_values_block", fail)
        cfg = {"process": {"kind": "fbm", "H": 0.3}, "N": 8192, "n_paths": 500}
        code, _, err = run_cli(tmp_path, capsys, "simulate", cfg)
        assert code == 2
        assert parse_error(err) == {
            "type": "config", "pointer": "/",
            "message": "simulate requires --out for the CSV artifact"}

    @pytest.mark.parametrize("cfg", [
        {"process": {"kind": "fbm", "H": 0.3}, "N": 4, "n_paths": 2},
        {"dist": {"kind": "rademacher"}, "n": 4, "n_paths": 2},
    ], ids=["fbm", "iid"])
    def test_body_cells_are_numbers(self, cfg, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        code, _, _ = run_cli(tmp_path, capsys, "simulate", cfg, "--out", str(out))
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.reader(body[1:]))
        assert len(rows) == 5
        for row in rows:
            assert len(row) == 3
            for cell in row:
                float(cell)
        assert [row[0] for row in rows] == (
            ["0.0", "0.25", "0.5", "0.75", "1.0"] if "process" in cfg
            else ["0.0", "1.0", "2.0", "3.0", "4.0"])

    def test_requires_out(self, tmp_path, capsys):
        cfg = {"process": {"kind": "bm"}, "N": 8}
        code, _, err = run_cli(tmp_path, capsys, "simulate", cfg)
        assert code == 2
        assert "--out" in parse_error(err)["message"]


class TestBound:
    def test_minimal_shorthand_config(self, tmp_path, capsys):
        code, out, _ = run_cli(
            tmp_path, capsys, "bound",
            {"process": {"kind": "fbm", "H": 0.3}, "epsilon": [0.1]},
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "gaussian_class"
        cert = payload["certificates"][0]
        assert cert["epsilon"] == 0.1
        assert cert["regime"] == {"kind": "sup"}
        assert 0.0 <= cert["total"] <= 1.0

    def test_epsilon_alias(self, tmp_path, capsys):
        base = {"process": {"kind": "fbm", "H": 0.3}}
        _, out1, _ = run_cli(tmp_path, capsys, "bound", {**base, "epsilon": [0.1]})
        _, out2, _ = run_cli(tmp_path, capsys, "bound", {**base, "epsilons": [0.1]})
        c1 = json.loads(out1)["certificates"][0]
        c2 = json.loads(out2)["certificates"][0]
        assert c1["total"] == c2["total"]
        code, _, err = run_cli(
            tmp_path, capsys, "bound",
            {**base, "epsilon": [0.1], "epsilons": [0.1]},
        )
        assert code == 2
        assert "not both" in parse_error(err)["message"]

    def test_iid_sum_kind(self, tmp_path, capsys):
        cfg = {
            "kind": "iid_sum",
            "dist": {"kind": "uniform", "low": -1.0, "high": 1.0},
            "n": 16,
            "epsilon": [0.125],
        }
        code, out, _ = run_cli(tmp_path, capsys, "bound", cfg)
        assert code == 0
        cert = json.loads(out)["certificates"][0]
        assert cert["total"] == pytest.approx(0.7357588823428847, rel=1e-12)
        assert cert["mode"] == "PAPER"

    def test_gaussian_class_with_explicit_parameters(self, tmp_path, capsys):
        cfg = {
            "kind": "gaussian_class",
            "H": 0.3, "beta": 0.3, "c": 1.0, "C": 1.0, "c_deriv": 1.0,
            "T": 1.0, "epsilons": [0.02, 0.05],
            "drift_model": {"kind": "bounded", "bound": 0.01},
        }
        code, out, _ = run_cli(tmp_path, capsys, "bound", cfg)
        assert code == 0
        certs = json.loads(out)["certificates"]
        assert len(certs) == 2
        assert certs[0]["epsilon"] == 0.02
        assert certs[0]["term_drift"] == 0.0

    def test_holder_norm_kind(self, tmp_path, capsys):
        cfg = {"kind": "fbm_holder", "H": 0.4, "beta": 0.2, "T": 1.0, "epsilon": [0.1]}
        code, out, _ = run_cli(tmp_path, capsys, "bound", cfg)
        assert code == 0
        cert = json.loads(out)["certificates"][0]
        assert cert["regime"] == {"kind": "holder", "beta": 0.2}

    def test_infeasible_epsilon_becomes_vacuous_certificate(self, tmp_path, capsys):
        cfg = {"process": {"kind": "fbm", "H": 0.3}, "epsilon": [0.6]}
        code, out, _ = run_cli(tmp_path, capsys, "bound", cfg)
        assert code == 0
        cert = json.loads(out)["certificates"][0]
        assert cert["total"] == 1.0
        assert "VACUOUS" in cert["flags"]

    def test_infeasible_can_be_fatal_when_asked(self, tmp_path, capsys):
        cfg = {
            "process": {"kind": "fbm", "H": 0.3},
            "epsilon": [0.6],
            "vacuous_on_infeasible": False,
        }
        code, _, err = run_cli(tmp_path, capsys, "bound", cfg)
        assert code == 2
        assert parse_error(err)["type"] == "InfeasibleCertificateError"

    @pytest.mark.parametrize("cfg", [
        {"kind": "fbm_holder", "H": 0.4, "beta": 0.1, "epsilons": [1e-300]},
        {"kind": "holder_indep", "H": 0.4, "beta": 0.5, "c_inc": 1,
         "holder_bound": 1, "epsilons": [1e-300]},
    ], ids=["fbm_holder", "holder_indep"])
    def test_radius_that_underflows_the_spacing_is_infeasible(self, cfg, tmp_path,
                                                              capsys):
        code, out, err = run_cli(tmp_path, capsys, "bound", cfg)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert parse_error(err) == {
            "type": "InfeasibleCertificateError",
            "message": "epsilon=1e-300 underflows the witness spacing delta to 0"}

    @pytest.mark.parametrize("cfg,delta", [
        ({"kind": "fbm_holder", "H": 0.4, "beta": 0.2, "T": 1e308,
          "epsilons": [0.1]}, "0.00032"),
        ({"kind": "holder_indep", "H": 0.3, "beta": 0.5, "c_inc": 1,
          "holder_bound": 1, "T": 1e308, "epsilons": [0.1]}, "0.16"),
    ], ids=["fbm_holder", "holder_indep"])
    def test_cell_count_that_overflows_is_infeasible(self, cfg, delta, tmp_path,
                                                     capsys):
        code, out, err = run_cli(tmp_path, capsys, "bound", cfg)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert parse_error(err) == {
            "type": "InfeasibleCertificateError",
            "message": f"epsilon=0.1 gives T / delta = 1e+308 / {delta} "
                       "witness cells, more than a float holds"}

    @pytest.mark.parametrize("cfg,reason", [
        ({"kind": "gaussian_class", "H": 0.3, "epsilons": [1e-300]},
         "epsilon=1e-300 underflows the witness spacing delta to 0"),
        # a subnormal spacing: T / delta overflows
        ({"process": {"kind": "bm"}, "epsilons": [1e-160]},
         "epsilon=1e-160 underflows the witness spacing delta to 1.59998e-319"),
        ({"kind": "stationary", "H": 0.3, "epsilons": [1e-300]},
         "epsilon=1e-300 underflows the witness scale: sigma stays above "
         "4*epsilon down to delta=7.46611e-301"),
        # N = T / delta cells would ask s_weight for 2e301 terms
        ({"kind": "gaussian_class", "H": 0.3, "T": 1e300, "epsilons": [0.1]},
         "the discrete witness at epsilon=0.1 has N=2.121e+301 cells, "
         "more than 134217728"),
        # T / delta overflows a float
        ({"kind": "gaussian_class", "H": 0.3, "T": 1e308, "epsilons": [0.1]},
         "epsilon=0.1 gives T / delta = 1e+308 / 0.0471556 witness cells, "
         "more than a float holds"),
        ({"process": {"kind": "fbm", "H": 0.3}, "T": 1e308, "epsilons": [0.1]},
         "epsilon=0.1 gives T / delta = 1e+308 / 0.0471556 witness cells, "
         "more than a float holds"),
        ({"kind": "stationary", "H": 0.3, "T": 1e308, "epsilons": [0.1]},
         "epsilon=0.1 gives T / delta = 1e+308 / 0.0471556 witness cells, "
         "more than a float holds"),
        # delta = (4 epsilon / c_inc)^(1/beta) overflows a float
        ({"kind": "holder_indep", "H": 0.3, "beta": 0.5, "c_inc": 1e-300,
          "holder_bound": 1, "epsilons": [0.1]},
         "no partition fits the horizon"),
    ], ids=["epsilon-1e-300", "bm-epsilon-1e-160", "stationary-epsilon-1e-300",
            "T-1e300", "T-1e308", "process-T-1e308", "stationary-T-1e308",
            "holder_indep-c_inc-1e-300"])
    def test_oversized_witness_is_vacuous(self, cfg, reason, tmp_path,
                                                capsys):
        code, out, _ = run_cli(tmp_path, capsys, "bound", cfg)
        assert code == 0
        cert = json.loads(out)["certificates"][0]
        assert cert["flags"] == ["VACUOUS"]
        assert cert["provenance"]["reason"] == reason

    def test_divisor_that_underflows_is_a_config_error(self, tmp_path, capsys):
        # 8 holder_bound^2 underflows to 0 inside holder_indep_certificate
        cfg = {"kind": "holder_indep", "H": 0.3, "beta": 0.5, "c_inc": 1,
               "holder_bound": 1e-300, "epsilons": [0.1]}
        code, _, err = run_cli(tmp_path, capsys, "bound", cfg)
        assert code == 2
        assert parse_error(err) == {"type": "config", "pointer": "/",
                                    "message": "float division by zero"}

    def test_fbm_holder_beta_above_h_is_a_config_error(self, tmp_path, capsys):
        cfg = {"kind": "fbm_holder", "H": 0.3, "beta": 0.4, "epsilons": [0.1]}
        code, _, err = run_cli(tmp_path, capsys, "bound", cfg)
        assert code == 2
        e = parse_error(err)
        assert e == {"type": "config", "pointer": "/",
                     "message": "requires 0 < beta < H < 1/2"}

    def test_stationary_negative_delta_is_a_config_error(self, tmp_path, capsys):
        cfg = {"kind": "stationary", "H": 0.3, "Delta": -1, "epsilons": [0.1]}
        code, _, err = run_cli(tmp_path, capsys, "bound", cfg)
        assert code == 2
        e = parse_error(err)
        assert e == {"type": "config", "pointer": "/",
                     "message": "Delta, T, epsilon must be positive"}


class TestEstimateAndRate:
    def test_estimate_writes_table(self, tmp_path, capsys):
        out = tmp_path / "est.csv"
        cfg = {
            "process": {"kind": "bm"}, "T": 1.0, "N": 256,
            "epsilons": [0.5, 1.0], "n_paths": 2000, "seed": 3,
        }
        code, stdout, _ = run_cli(tmp_path, capsys, "estimate", cfg, "--out", str(out))
        assert code == 0
        assert stdout == ""  # the CSV artifact is the whole output
        text = out.read_text()
        assert text.startswith("# small-ball estimates v2")
        assert "# digest=" in text
        rows = [r for r in text.strip().split("\n") if not r.startswith("#")]
        reader = csv.DictReader(io.StringIO("\n".join(rows)))
        parsed = list(reader)
        assert len(parsed) == 2
        assert [float(r["epsilon"]) for r in parsed] == [0.5, 1.0]
        assert float(parsed[1]["p_hat"]) >= float(parsed[0]["p_hat"])

    def test_estimate_requires_out(self, tmp_path, capsys):
        cfg = {
            "process": {"kind": "bm"}, "T": 1.0, "N": 64,
            "epsilons": [1.0], "n_paths": 100, "seed": 3,
        }
        code, _, err = run_cli(tmp_path, capsys, "estimate", cfg)
        assert code == 2
        assert parse_error(err)["type"] == "config"

    def test_paths_override(self, tmp_path, capsys):
        out = tmp_path / "est.csv"
        cfg = {
            "process": {"kind": "bm"}, "T": 1.0, "N": 64,
            "epsilons": [1.0], "n_paths": 2000, "seed": 3,
        }
        run_cli(tmp_path, capsys, "estimate", cfg,
                "--paths", "1000", "--out", str(out))
        rows = [r for r in out.read_text().strip().split("\n")
                if not r.startswith("#")]
        parsed = list(csv.DictReader(io.StringIO("\n".join(rows))))
        assert int(parsed[0]["n_paths"]) == 1000

    def test_rate_from_inline_values(self, tmp_path, capsys):
        eps = [0.3, 0.4, 0.5, 0.6]
        vals = [float(__import__("math").exp(-2.0 * e**-3)) for e in eps]
        cfg = {"epsilons": eps, "values": vals, "mode": "RAW"}
        code, out, _ = run_cli(tmp_path, capsys, "rate", cfg)
        assert code == 0
        fit = json.loads(out)
        assert fit["gamma_hat"] == pytest.approx(3.0, abs=1e-9)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_rate_strict_mode_error_has_pointer(self, tmp_path, capsys):
        cfg = {"epsilons": [0.3, 0.4, 0.5], "values": [0.5, 1.0, 0.1], "mode": "RAW"}
        code, _, err = run_cli(tmp_path, capsys, "rate", cfg)
        assert code == 2
        assert parse_error(err)["pointer"] == "/values"

    def test_rate_from_estimate_csv_uses_auto_window(self, tmp_path, capsys):
        est_out = tmp_path / "est.csv"
        est_cfg = {
            "process": {"kind": "bm"}, "T": 1.0, "N": 128,
            "epsilons": [0.35, 0.45, 0.6, 0.8, 1.1], "n_paths": 4000, "seed": 5,
        }
        run_cli(tmp_path, capsys, "estimate", est_cfg, "--out", str(est_out))
        code, out, _ = run_cli(
            tmp_path, capsys, "rate", {"estimates_csv": str(est_out), "mode": "RAW"}
        )
        assert code == 0
        fit = json.loads(out)
        # counts travel with the CSV, so the noise window is automatic
        assert fit["value_window"][0] == pytest.approx(50 / 4000)
        assert fit["value_window"][1] == pytest.approx(0.9)
        assert fit["n_used"] >= 3


class TestVerify:
    def test_default_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        cfg = {
            "process": {"kind": "fbm", "H": 0.3},
            "T": 1.0, "N": 512, "n_paths": 2000, "seed": 9,
            "epsilons": [0.1, 0.3, 0.5],
        }
        code, stdout, _ = run_cli(tmp_path, capsys, "verify", cfg, "--out", str(out))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["ok"] is True
        assert payload["counts"]["FAIL"] == 0
        text = out.read_text()
        assert text.startswith("epsilon,p_hat,ci_lo,ci_hi,bound,verdict")
        assert len(text.strip().split("\n")) == 4

    def test_radius_that_underflows_the_spacing_is_vacuous(self, tmp_path, capsys):
        # the default suite's gaussian_class witness underflows at 1e-300
        cfg = {"process": {"kind": "bm"}, "N": 16, "n_paths": 1000,
               "epsilons": [1e-300]}
        code, out, _ = run_cli(tmp_path, capsys, "verify", cfg)
        assert code == 0
        report = json.loads(out)
        assert report["counts"] == {"PASS": 0, "FAIL": 0, "VACUOUS": 1}
        assert report["rows"][0]["p_hat"] == 0.0

    def test_explicit_bound_section(self, tmp_path, capsys):
        cfg = {
            "process": {"kind": "fbm", "H": 0.3},
            "T": 1.0, "N": 512, "n_paths": 2000, "seed": 9,
            "epsilons": [0.2, 0.4],
            "bound": {
                "kind": "gaussian_class",
                "H": 0.3, "beta": 0.3, "c": 1.0, "C": 1.0, "c_deriv": 1.0,
                "T": 1.0, "delta_mesh": 0.001953125,
            },
        }
        code, stdout, _ = run_cli(tmp_path, capsys, "verify", cfg)
        assert code == 0
        assert json.loads(stdout)["counts"]["FAIL"] == 0

    def test_failing_comparison_sets_exit_code(self, tmp_path, capsys):
        # at epsilon this small the certificate total is ~1e-23 while the
        # binomial upper limit with zero hits is ~2.3e-3: the sample cannot
        # confirm the bound, so the row FAILs and the exit code is 1
        cfg = {
            "process": {"kind": "fbm", "H": 0.3},
            "T": 1.0, "N": 512, "n_paths": 2000, "seed": 9,
            "epsilons": [0.02],
        }
        code, stdout, _ = run_cli(tmp_path, capsys, "verify", cfg)
        assert code == 1
        payload = json.loads(stdout)
        assert payload["ok"] is False
        assert payload["counts"]["FAIL"] == 1

    @pytest.mark.parametrize("command", ["verify", "estimate"])
    @pytest.mark.parametrize("paths,flags", [(999, ()), (2000, ("--paths", "999"))])
    def test_too_few_paths_fail_before_any_certificate(self, tmp_path, capsys,
                                                       monkeypatch, command,
                                                       paths, flags):
        import smallball.bounds

        def fail(*args, **kwargs):
            raise AssertionError("built a certificate before checking n_paths")

        for name in ("iid_sum_certificate", "holder_indep_certificate",
                     "bound_gaussian_class", "fbm_holder_certificate",
                     "stationary_certificate", "empirical_certificate"):
            monkeypatch.setattr(smallball.bounds, name, fail)
        monkeypatch.setattr("smallball.cli.estimate_small_ball", fail)
        cfg = {"process": {"kind": "fbm", "H": 0.3}, "n_paths": paths}
        if command == "estimate":
            cfg.update(N=64, epsilons=[0.5])
        code, _, err = run_cli(tmp_path, capsys, command, cfg, *flags,
                               "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert parse_error(err) == {
            "type": "config", "pointer": "/n_paths",
            "message": "must be >= 1000 for a meaningful estimate"}


class TestToeplitz:
    def test_convergence_table(self, tmp_path, capsys):
        out = tmp_path / "toeplitz.csv"
        cfg = {"H": 0.3, "N": [16, 64]}
        code, stdout, _ = run_cli(tmp_path, capsys, "toeplitz", cfg, "--out", str(out))
        assert code == 0
        payload = json.loads(stdout)
        assert [r["N"] for r in payload["rows"]] == [16, 64]
        lams = [r["lambda_max"] for r in payload["rows"]]
        assert lams[0] <= lams[1] <= payload["symbol_sup"]
        text = out.read_text()
        assert text.startswith("N,lambda_max,symbol_sup")

    def test_persistent_case_reports_unbounded_symbol(self, tmp_path, capsys):
        code, stdout, _ = run_cli(tmp_path, capsys, "toeplitz", {"H": 0.7, "N": 16})
        assert code == 0
        assert json.loads(stdout)["symbol_sup"] == "INFINITE"

    def test_h_validation(self, tmp_path, capsys):
        code, _, err = run_cli(tmp_path, capsys, "toeplitz", {"H": 0.0, "N": 16})
        assert code == 2
        assert parse_error(err)["message"] == "H must lie in (0,1)"


class TestFeasibility:
    def test_witness_payload(self, tmp_path, capsys):
        code, out, _ = run_cli(
            tmp_path, capsys, "feasibility", {"H": 0.75, "beta": 0.6, "theta": 0.2}
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["Q"] == pytest.approx(0.375)
        assert payload["slack"] > 0

    def test_infeasible_reason(self, tmp_path, capsys):
        code, out, _ = run_cli(
            tmp_path, capsys, "feasibility", {"H": 0.4, "beta": 0.3, "theta": 0.1}
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert payload["reasons"] == ["H > 1/2"]


class TestArtifactErrors:
    def test_unwritable_out_path_reports_io_error(self, tmp_path, capsys):
        cfg = {"process": {"kind": "bm"}, "N": 8, "n_paths": 1}
        code, _, err = run_cli(
            tmp_path, capsys, "simulate", cfg, "--out", "/nonexistent/dir/x.csv"
        )
        assert code == 2
        assert parse_error(err)["type"] == "io"


class TestArguments:
    """Each subcommand takes only the flags it reads; a bad command line
    ends in one JSON error object and exit 2, like a bad config."""

    CONFIGS = {
        "bound": {"process": {"kind": "fbm", "H": 0.3}, "epsilons": [0.1]},
        "toeplitz": {"H": 0.3, "N": 16},
        "rate": {"epsilons": [0.1, 0.2, 0.3], "values": [0.01, 0.1, 0.3]},
        "simulate": {"process": {"kind": "bm"}, "N": 8},
        "estimate": {"process": {"kind": "bm"}, "N": 64, "epsilons": [0.5],
                     "n_paths": 1000},
    }

    @pytest.mark.parametrize("argv,error", [
        (["bound", "--seed", "3"],
         {"type": "argument", "message": "unrecognized arguments: --seed 3"}),
        (["toeplitz", "--paths", "4"],
         {"type": "argument", "message": "unrecognized arguments: --paths 4"}),
        (["rate", "--workers", "2"],
         {"type": "argument", "message": "unrecognized arguments: --workers 2"}),
        (["simulate", "--workers", "2"],
         {"type": "argument", "message": "unrecognized arguments: --workers 2"}),
        (["estimate", "--workers", "abc"],
         {"type": "argument",
          "message": "argument --workers: invalid int value: 'abc'"}),
        (["estimate", "--workers", "0"],
         {"type": "config", "pointer": "/",
          "message": "workers must be >= 1, got 0"}),
        (["smallballs"],
         {"type": "argument",
          "message": "argument command: invalid choice: 'smallballs'"}),
        ([], {"type": "argument",
              "message": "the following arguments are required: command"}),
    ], ids=["bound-seed", "toeplitz-paths", "rate-workers", "simulate-workers",
            "workers-abc", "workers-0", "unknown-command", "no-command"])
    def test_error_is_one_json_line(self, argv, error, tmp_path, capsys):
        if argv and argv[0] in self.CONFIGS:
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(self.CONFIGS[argv[0]]))
            argv = [argv[0], "--config", str(cfg_path),
                    "--out", str(tmp_path / "out.csv"), *argv[1:]]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        # newer Pythons list the choices of an invalid command without quotes
        message = payload["error"].pop("message")
        assert message.startswith(error.pop("message"))
        assert payload == {"error": error}

    @pytest.mark.parametrize("command,config,workers", [
        ("simulate", {"process": {"kind": "fbm", "H": 0.3}, "N": 16}, ()),
        ("estimate", {"process": {"kind": "fbm", "H": 0.3}, "N": 64,
                      "epsilons": [0.3, 0.6]}, ("--workers", "1")),
        ("verify", {"process": {"kind": "fbm", "H": 0.3}, "N": 64,
                    "epsilons": [0.3, 0.6]}, ("--workers", "1")),
    ], ids=["simulate", "estimate", "verify"])
    def test_flags_equal_config_keys(self, command, config, workers, tmp_path,
                                     capsys):
        # --seed and --paths replace the config's keys before anything reads
        # or digests the config
        out = tmp_path / "out.csv"
        as_keys = run_cli(tmp_path, capsys, command,
                          {**config, "seed": 4, "n_paths": 1000},
                          "--out", str(out), *workers)
        keys_csv = out.read_bytes()
        as_flags = run_cli(tmp_path, capsys, command, config, "--out", str(out),
                           "--seed", "4", "--paths", "1000", *workers)
        overriding = run_cli(tmp_path, capsys, command,
                             {**config, "seed": 9, "n_paths": 2000},
                             "--out", str(out), "--seed", "4", "--paths", "1000",
                             *workers)
        assert as_keys[0] == 0
        assert as_flags == as_keys == overriding
        assert out.read_bytes() == keys_csv


_BM = {"process": {"kind": "bm"}, "N": 8}
_IID = {"dist": {"kind": "rademacher"}, "n": 4}
_CLASS = {"kind": "gaussian_class", "H": 0.3, "epsilons": [0.1]}


def _with_drift(drift):
    return {"process": {"kind": "bm", "drift": drift}, "N": 8}


class TestUnknownKeys:
    """Each config object accepts only the keys of the variant it
    describes: a key that another variant reads is rejected, not ignored."""

    @pytest.mark.parametrize("command,config,pointer", [
        ("simulate", {**_IID, "N": 8}, "/N"),
        ("simulate", {**_IID, "T": 2.0}, "/T"),
        ("simulate", {**_BM, "n": 4}, "/n"),
        ("rate", {"estimates_csv": "ESTIMATES", "values": [0.5]}, "/values"),
        ("rate", {"estimates_csv": "ESTIMATES", "epsilons": [0.5]},
         "/epsilons"),
        ("simulate", {**_IID, "dist": {"kind": "rademacher", "low": -5}},
         "/dist/low"),
        ("simulate", {**_IID, "dist": {"kind": "uniform", "low": -1, "high": 1,
                                       "a": 2}}, "/dist/a"),
        ("bound", {**_CLASS, "drift_model": {"kind": "bounded", "bound": 0.01,
                                             "mean": 0.5}},
         "/drift_model/mean"),
        ("bound", {**_CLASS, "drift_model": {"kind": "gauss_borell", "mean": 0.5,
                                             "var": 0.25, "bound": 0.01}},
         "/drift_model/bound"),
        ("simulate", _with_drift({"kind": "constant", "level": 0.1,
                                  "amplitude": 3}), "/process/drift/amplitude"),
        ("simulate", _with_drift({"kind": "constant", "H2": 0.3}),
         "/process/drift/H2"),
        ("simulate", _with_drift({"kind": "bounded_wave", "level": 0.1}),
         "/process/drift/level"),
        ("simulate", _with_drift({"kind": "shared_fbm", "H2": 0.3}),
         "/process/drift/H2"),
    ], ids=["simulate-dist-N", "simulate-dist-T", "simulate-process-n",
            "rate-csv-values", "rate-csv-epsilons", "rademacher-low",
            "uniform-a", "bounded-mean", "gauss_borell-bound",
            "constant-amplitude", "constant-H2", "bounded_wave-level",
            "shared_fbm-H2"])
    def test_variant_foreign_key(self, command, config, pointer, tmp_path,
                                 capsys):
        if config.get("estimates_csv") == "ESTIMATES":
            table = tmp_path / "estimates.csv"
            table.write_text("epsilon,p_hat\n0.3,0.01\n0.4,0.05\n0.5,0.1\n")
            config = {**config, "estimates_csv": str(table)}
        code, _, err = run_cli(tmp_path, capsys, command, config,
                               "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert parse_error(err) == {"type": "config", "pointer": pointer,
                                    "message": "unknown key"}

    @pytest.mark.parametrize("command,config,pointer", [
        ("simulate", {**_BM, "n": 4}, "/n"),
        ("estimate", {**_with_drift({"kind": "constant", "amplitude": 3}),
                      "N": 64, "epsilons": [0.5], "n_paths": 1000},
         "/process/drift/amplitude"),
        ("verify", {**_with_drift({"kind": "constant", "level": 0.1,
                                   "amplitude": 3}),
                    "N": 64, "epsilons": [0.5], "n_paths": 1000},
         "/process/drift/amplitude"),
        ("bound", {**_CLASS, "drift_model": {"kind": "bounded", "bound": 0.01,
                                             "mean": 0.5}},
         "/drift_model/mean"),
    ], ids=["simulate", "estimate", "verify", "bound"])
    def test_config_is_closed_before_any_work(self, command, config, pointer,
                                              tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the config was read")

        monkeypatch.setattr("smallball.cli.path_values_block", fail)
        monkeypatch.setattr("smallball.cli.estimate_small_ball", fail)
        monkeypatch.setattr("smallball.bounds.bound_gaussian_class", fail)
        code, _, err = run_cli(tmp_path, capsys, command, config,
                               "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert parse_error(err) == {"type": "config", "pointer": pointer,
                                    "message": "unknown key"}


class TestGoldenBytes:
    """Certificate, feasibility, rate and verify JSON and estimate CSVs,
    byte for byte.

    Each case in cases.json names a command and its config; <case>.out
    holds the bytes the command wrote (the --out CSV for `estimate`,
    stdout for every other command).
    """

    CASES = json.loads((GOLDEN / "cases.json").read_text())

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_output_bytes_unchanged(self, name, tmp_path, capsys):
        case = self.CASES[name]
        out = tmp_path / "out.csv"
        extra = ("--out", str(out)) if case["command"] == "estimate" else ()
        code, stdout, err = run_cli(
            tmp_path, capsys, case["command"], case["config"], *extra)
        assert code == 0, err
        text = out.read_text() if extra else stdout
        assert text.encode() == (GOLDEN / f"{name}.out").read_bytes()


def _not_finite(number):
    return f"invalid JSON: number {number} is not a finite float"


class TestProducerErrors:
    """Values the schema lets through but a producer rejects end as config
    errors with exit 2, not as tracebacks."""

    @pytest.mark.parametrize("command,config,pointer,message", [
        ("feasibility", {"H": 0.75, "beta": 1.5, "theta": 0.2}, "/",
         "H and beta must lie in (0, 1)"),
        ("estimate", {"process": {"kind": "bm"}, "N": 0, "epsilons": [0.5],
                      "n_paths": 1000}, "/", "N must be an integer >= 1, got 0"),
        ("verify", {"process": {"kind": "bm"}, "N": 0, "n_paths": 1000}, "/",
         "N must be an integer >= 1, got 0"),
        ("simulate", {"process": {"kind": "bm"}, "N": 0}, "/",
         "N must be an integer >= 1, got 0"),
        ("simulate", {"dist": {"kind": "rademacher"}, "n": 0}, "/",
         "n must be >= 1"),
        ("simulate", {"process": {"kind": "bm"}, "N": 8, "T": -1}, "/",
         "T must be positive, got -1.0"),
        ("simulate", {"dist": 1, "n": 4}, "/dist", "expected dict"),
        # finite inputs whose simulated paths overflow
        ("simulate", {"process": {"kind": "fbm", "H": 0.3,
                                  "drift": {"kind": "fbm", "H2": 0.75}},
                      "T": 1e308, "N": 64, "n_paths": 2}, "/",
         "simulated values are not finite"),
        ("simulate", {"dist": {"kind": "uniform", "low": -1e308,
                               "high": 1e308}, "n": 8, "n_paths": 2}, "/",
         "high - low range exceeds valid bounds"),
        ("rate", {"epsilons": [0.1, 0.2, 0.3], "values": [0.01, 0.1, {}]},
         "/values", "expected a list of numbers"),
        ("rate", {"epsilons": [0.1, 0.2, 0.3], "values": [0.01, 0.1, 0.3],
                  "value_window": [{}, 1]}, "/value_window",
         "expected a list of numbers"),
        ("toeplitz", {"H": 0.3, "N": 0}, "/N",
         "expected an integer >= 2 or a list of them"),
        ("toeplitz", {"H": 0.3, "N": [10**30]}, "/",
         "Maximum allowed size exceeded"),
        ("bound", {"kind": "gaussian_class", "H": 0.3, "epsilons": [0.1],
                   "delta_mesh": 0}, "/", "delta_mesh must be positive"),
        # JSON parsing lets NaN, +-Infinity and out-of-range numbers through
        ("bound", {"kind": "gaussian_class", "H": 0.3, "T": math.inf,
                   "epsilons": [0.1]}, "/", _not_finite("Infinity")),
        ("bound", {"kind": "holder_indep", "H": 0.3, "beta": 0.5, "c_inc": 1,
                   "holder_bound": 1, "T": math.inf, "epsilons": [0.1]}, "/",
         _not_finite("Infinity")),
        ("bound", {"kind": "fbm_holder", "H": 0.4, "beta": 0.2, "T": math.inf,
                   "epsilons": [0.1]}, "/", _not_finite("Infinity")),
        ("bound", {"kind": "stationary", "H": 0.3, "T": math.inf,
                   "epsilons": [0.1]}, "/", _not_finite("Infinity")),
        ("bound", {"kind": "stationary", "H": 0.3, "Delta": math.inf,
                   "epsilons": [0.1]}, "/", _not_finite("Infinity")),
        ("bound", {"kind": "gaussian_class", "H": 0.3, "T": -math.inf,
                   "epsilons": [0.1]}, "/", _not_finite("-Infinity")),
        ("bound", {"kind": "gaussian_class", "H": math.nan,
                   "epsilons": [0.1]}, "/", _not_finite("NaN")),
        ("bound", '{"kind": "gaussian_class", "H": 0.3, "T": 1e999, '
                  '"epsilons": [0.1]}', "/", _not_finite("1e999")),
        ("bound", '{"kind": "gaussian_class", "H": 0.3, "T": ' + "1" * 5001
         + ', "epsilons": [0.1]}', "/",
         _not_finite("111111111111... (5001 characters)")),
        ("verify", {"process": {"kind": "bm"}, "N": 64, "n_paths": 1000,
                    "epsilons": [math.inf]}, "/", _not_finite("Infinity")),
        # a finite number that overflows inside a certificate builder
        ("bound", {"kind": "iid_sum", "dist": {"kind": "uniform",
                                               "low": -1e308, "high": 1e308},
                   "n": 4, "epsilons": [0.1]}, "/",
         "(34, 'Numerical result out of range')"),
        # bm is fbm at H = 1/2: another H would certify a different process
        ("verify", {"process": {"kind": "bm", "H": 0.2}, "N": 2048,
                    "n_paths": 2000}, "/process",
         "bm has Hurst index 0.5, got H=0.2"),
        # a certificate on [0, 4] says nothing about paths on [0, 1]
        ("verify", {"process": {"kind": "bm"}, "bound": {
            "process": {"kind": "bm"}, "T": 4}, "N": 1024, "n_paths": 1000},
         "/bound/T", "T = 4.0 differs from the simulated horizon T = 1.0"),
        ("verify", {"process": {"kind": "bm"}, "T": 2.0, "bound": {
            "process": {"kind": "bm"}}, "N": 1024, "n_paths": 1000},
         "/bound/T", "T = 1.0 differs from the simulated horizon T = 2.0"),
        # an fbm drift's Hurst index is checked before anything simulates
        ("estimate", {"process": {"kind": "bm", "drift": {
            "kind": "fbm", "H2": 1.5}}, "N": 64, "epsilons": [0.5],
            "n_paths": 1000}, "/process/drift/H2", "H2 must lie in (0,1)"),
        ("verify", {"process": {"kind": "fbm", "H": 0.3, "drift": {
            "kind": "fbm", "H2": 0.0}}, "bound": {
            "kind": "gaussian_class", "H": 0.3}, "N": 64, "n_paths": 1000},
         "/process/drift/H2", "H2 must lie in (0,1)"),
    ], ids=["feasibility-beta", "estimate-N", "verify-N", "simulate-N",
            "simulate-n", "simulate-T", "simulate-dist", "simulate-T-1e308",
            "simulate-uniform-1e308", "rate-values", "rate-window",
            "toeplitz-N", "toeplitz-N-1e30", "bound-mesh", "gaussian_class-T-inf",
            "holder_indep-T-inf", "fbm_holder-T-inf", "stationary-T-inf",
            "stationary-Delta-inf", "T-minus-inf", "H-nan", "T-1e999",
            "T-long-integer", "verify-epsilon-inf", "iid_sum-uniform-1e308", "verify-bm-H", "verify-bound-T",
            "verify-bound-T-default", "estimate-drift-H2", "verify-drift-H2"])
    def test_config_error(self, command, config, pointer, message, tmp_path,
                          capsys):
        code, _, err = run_cli(tmp_path, capsys, command, config,
                               "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert parse_error(err) == {"type": "config", "pointer": pointer,
                                    "message": message}

    @pytest.mark.parametrize("text,message", [
        ("a,b\n1,2\n", "missing column 'epsilon'"),
        ("epsilon,p_hat\n0.1,x\n", "could not convert string to float: 'x'"),
    ], ids=["rate-header", "rate-cell"])
    def test_unreadable_estimates_csv(self, text, message, tmp_path, capsys):
        table = tmp_path / "estimates.csv"
        table.write_text(text)
        code, _, err = run_cli(tmp_path, capsys, "rate",
                               {"estimates_csv": str(table)})
        assert code == 2
        assert parse_error(err) == {"type": "config",
                                    "pointer": "/estimates_csv",
                                    "message": f"{table}: {message}"}


# Fuzzed configs start from a valid config of each shape and make one or two
# edits: replace or delete a key (nested keys included) or insert one into
# any object, with a value from a small pool of valid and invalid values;
# inserted keys are key names the CLI reads somewhere, or one it reads
# nowhere.  Then they add zero or one flag from a pool of valid and invalid
# --seed/--paths/--workers values.  Bases and pools keep
# every run cheap: grids of at most 64 steps, at most 1000 paths (the fewest
# an estimate accepts), at most 2 workers, and radii and exponents for which
# the certificate witness grids stay small or, at 1e-300, underflow.
_FUZZ_BASES = [
    ("feasibility", {"H": 0.75, "beta": 0.6, "theta": 0.2}),
    ("simulate", {"process": {"kind": "fbm", "H": 0.3,
                              "drift": {"kind": "fbm", "H2": 0.75}},
                  "T": 1.0, "N": 64, "n_paths": 2, "seed": 1}),
    ("simulate", {"dist": {"kind": "scaled_beta", "a": 2.0, "b": 2.0,
                           "low": -1.0, "high": 1.0},
                  "n": 8, "n_paths": 2, "seed": 1}),
    ("bound", {"kind": "gaussian_class", "H": 0.3, "beta": 0.3, "c": 1.0,
               "C": 1.0, "c_deriv": 1.0, "T": 1.0, "delta_mesh": 0.015625,
               "drift_model": {"kind": "gauss_borell", "mean": 0.1,
                               "var": 0.3},
               "vacuous_on_infeasible": True, "epsilons": [0.1, 0.3]}),
    ("bound", {"kind": "iid_sum", "dist": {"kind": "uniform", "low": -1.0,
                                           "high": 1.0},
               "n": 4, "mode": "SHARP", "epsilons": [0.1]}),
    ("bound", {"kind": "holder_indep", "H": 0.3, "beta": 0.5, "c_inc": 1.0,
               "holder_bound": 1.0, "T": 1.0, "epsilons": [0.1, 0.3]}),
    ("bound", {"kind": "fbm_holder", "H": 0.4, "beta": 0.2, "c_deriv": 1.0,
               "T": 1.0, "epsilons": [0.1, 0.3]}),
    ("bound", {"kind": "stationary", "H": 0.3, "Delta": 1.0, "T": 1.0,
               "ratio_bound": 1.5, "symbol_sup": 2.0,
               "vacuous_on_infeasible": False, "epsilons": [0.1, 0.3]}),
    ("bound", {"process": {"kind": "bm", "drift": {"kind": "constant",
                                                   "level": 0.3}},
               "beta": 0.5, "T": 1.0, "delta_mesh": 0.015625,
               "epsilons": [0.1, 0.3]}),
    ("toeplitz", {"H": 0.3, "N": [16, 64]}),
    ("estimate", {"process": {"kind": "fbm", "H": 0.3}, "N": 64,
                  "n_paths": 1000, "epsilons": [0.3, 0.6], "seed": 1,
                  "norm": {"kind": "sup"}, "confidence": 0.99}),
    ("rate", {"epsilons": [0.1, 0.2, 0.3, 0.4],
              "values": [0.001, 0.02, 0.1, 0.25], "mode": "RAW", "c1": 2.0}),
    ("verify", {"process": {"kind": "fbm", "H": 0.3}, "N": 64,
                "n_paths": 1000, "epsilons": [0.3, 0.6], "seed": 1}),
]
_FUZZ_VALUES = st.sampled_from([
    -1, 0, 1, 2, 4, -1.0, 0.0, 0.3, 0.75, 1.5, 64.0,
    "x", "fbm", True, None, [], [0.3], {}, {"kind": "bm"},
    float("inf"), float("nan"), 1e308, -1e308, 1e-300, [1e-300],
])
_FUZZ_KEYS = st.sampled_from([
    "command", "process", "dist", "kind", "H", "drift", "level", "amplitude",
    "frequency", "H2", "low", "high", "a", "b", "n", "T", "N", "n_paths",
    "seed", "epsilon", "epsilons", "norm", "confidence", "bound", "beta", "c",
    "C", "c_deriv", "delta_mesh", "drift_model", "mean", "var",
    "vacuous_on_infeasible", "mode", "c_inc", "holder_bound", "Delta",
    "ratio_bound", "symbol_sup", "estimates_csv", "values", "value_window",
    "c1", "theta", "unread_key",
])
_FUZZ_FLAGS = st.sampled_from([
    ("--seed", "0"), ("--seed", "7"), ("--seed", "-1"), ("--seed", "x"),
    ("--seed", str(2**64)), ("--paths", "1"), ("--paths", "1000"),
    ("--paths", "0"), ("--paths", "2.5"), ("--workers", "1"),
    ("--workers", "2"), ("--workers", "0"), ("--workers", "abc"),
])


def _key_paths(obj, prefix=()):
    for key, val in obj.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _key_paths(val, prefix + (key,))


def _objects(obj):
    yield obj
    for val in obj.values():
        if isinstance(val, dict):
            yield from _objects(val)


@st.composite
def _fuzzed_configs(draw):
    command, base = draw(st.sampled_from(_FUZZ_BASES))
    config = copy.deepcopy(base)
    paths = list(_key_paths(base))
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.integers(0, 4))
        if edit == 4:
            target = draw(st.sampled_from(list(_objects(config))))
            target[draw(_FUZZ_KEYS)] = copy.deepcopy(draw(_FUZZ_VALUES))
            continue
        path = draw(st.sampled_from(paths))
        parent = config
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue  # an earlier edit replaced or deleted the parent
        if edit == 0:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = copy.deepcopy(draw(_FUZZ_VALUES))
    return command, config, draw(st.one_of(st.just(()), _FUZZ_FLAGS))


class TestFuzzedConfigs:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_fuzzed_configs())
    def test_exit_code_and_error_object(self, command_config):
        command, config, flags = command_config
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "config.json"
            cfg_path.write_text(json.dumps(config))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg_path),
                             "--out", str(Path(tmp) / "out.csv"), *flags])
        # verify exits 1 when a certificate is contradicted
        assert code in ((0, 1, 2) if command == "verify" else (0, 2))
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            payload = json.loads(lines[0])
            assert list(payload) == ["error"]
            assert isinstance(payload["error"]["message"], str)
