"""End-to-end CLI checks through main(argv).

Every assertion goes through the public entry point: JSON in, artifacts
and JSON out, machine-readable errors with pointers on stderr.
"""

import csv
import io
import json

import pytest

from smallball.cli import main


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
        assert text.startswith("# small-ball estimates v1")
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
