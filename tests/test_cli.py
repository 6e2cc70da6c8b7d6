import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from blindmimo import SystemConfig, read_records, theoretical_objective_bound
from blindmimo.cli import main

# trials.jsonl lines as written while a record carried a top-level copy of
# metrics.iters and the metrics carried rate_blind and rate_training.
TWO_RATE_LINES = [
    '{"error":null,"final_eta":0.00038504210533574224,"fingerprint":"d89a497fc65f","iters":85,'
    '"method":"l3","metrics":{"ber":0.0893987341772152,"evm":0.22139603946621325,"iters":85,'
    '"normalized_objective":10.337952950083954,"rate_blind":33.70345247280908,'
    '"rate_training":null,"ser":0.15242616033755274},"restarts":0,"scenario_digest":"c9e65f7925e5",'
    '"seed":290470259,"stop_reason":"eta_tol","sweep_param":"snr_db","sweep_value":10.0,"trial":0}',
    '{"error":null,"final_eta":0.0,"fingerprint":"d89a497fc65f","iters":0,"method":"pilot",'
    '"metrics":{"ber":0.0,"evm":0.0346293371495028,"iters":0,"normalized_objective":null,'
    '"rate_blind":null,"rate_training":40.10770469764275,"ser":0.0},"restarts":0,'
    '"scenario_digest":"c9e65f7925e5","seed":1011679418,"stop_reason":"obj_tol",'
    '"sweep_param":"snr_db","sweep_value":10.0,"trial":0}',
    '{"error":"RankDeficientError: zero-forcing matrix is rank deficient","final_eta":NaN,'
    '"fingerprint":"d89a497fc65f","iters":0,"method":"pilot","metrics":null,"restarts":0,'
    '"scenario_digest":"ba1afd402d0a","seed":2678594503,"stop_reason":"error",'
    '"sweep_param":"snr_db","sweep_value":10.0,"trial":4}',
]


def strict_loads(text):
    """json.loads that rejects NaN and Infinity, as strict JSON parsers do."""
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=reject)


def write_config(path, **over):
    cfg = {
        "k_users": 4,
        "t_len": 60,
        "n_h": 32,
        "n_v": 1,
        "theta": 0.15,
        "channel_model": "bernoulli_gaussian",
        "trials": 2,
        "base_seed": 7,
        "solver": {"max_iters": 60},
        "sweep": {"param": "snr_db", "values": [10.0, 30.0]},
    }
    cfg.update(over)
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_produces_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trials.jsonl").exists()
        assert (out / "summary.csv").exists()
        assert (out / "plot_evm_l3.dat").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "trials.jsonl").read_bytes() == (out2 / "trials.jsonl").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_seed_changes_stream(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "8"])
        assert (out1 / "trials.jsonl").read_bytes() != (out2 / "trials.jsonl").read_bytes()

    def test_multiple_methods(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", t_pilot=8,
                           sweep={"param": "snr_db", "values": [30.0]})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--methods", "l3,pilot"]) == 0
        lines = (out / "trials.jsonl").read_text().splitlines()
        methods = {json.loads(l)["method"] for l in lines}
        assert methods == {"l3", "pilot"}

    def test_bad_config_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"k_users": -1}))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) != 0

    def test_precondition_flag_changes_results(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", t_len=30, n_h=64,
                           sweep={"param": "snr_db", "values": [30.0]})
        out1, out2 = tmp_path / "plain", tmp_path / "pre"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--precondition", "false"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--precondition", "true"]) == 0
        assert (out1 / "trials.jsonl").read_bytes() != (out2 / "trials.jsonl").read_bytes()


class TestReport:
    def test_round_trip_matches_original_summary(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        re_out = tmp_path / "re"
        assert main(["report", "--records", str(out / "trials.jsonl"),
                     "--out", str(re_out)]) == 0
        assert (re_out / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()
        assert (re_out / "trials.jsonl").read_bytes() == (out / "trials.jsonl").read_bytes()

    def test_records_with_two_rate_fields_load(self, tmp_path):
        old = tmp_path / "old.jsonl"
        old.write_text("\n".join(TWO_RATE_LINES) + "\n")
        assert main(["report", "--records", str(old), "--out", str(tmp_path / "re")]) == 0
        with open(tmp_path / "re" / "summary.csv") as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        assert [(m, r["n"], r["n_errors"], r["iters_mean"]) for m, r in sorted(rows.items())] == [
            ("l3", "1", "0", "85.0"), ("pilot", "1", "1", "0.0")]
        for method, rate in (("l3", 33.70345247280908), ("pilot", 40.10770469764275)):
            rate_means = [v for k, v in rows[method].items()
                          if k.startswith("rate") and k.endswith("_mean") and v]
            assert rate_means == [repr(rate)]


class TestConcentrationCommand:
    def test_writes_plot_data(self, tmp_path):
        out = tmp_path / "conc"
        assert main(["concentration", "--k-list", "4", "--t-list", "36,54",
                     "--trials", "150", "--out", str(out)]) == 0
        lines = (out / "plot_concentration_k4.dat").read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 3
        assert np.loadtxt(out / "plot_concentration_k4.dat").shape == (2, 4)


class TestConvergenceCommand:
    def test_writes_traces_and_summary(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_users": 4, "t_len": 60, "n_h": 64, "n_v": 1, "theta": 0.2,
            "channel_model": "bernoulli_gaussian", "sigma_z2": 1e-3,
            "solver": {"max_iters": 80},
            "variants": {"theta_half": {"theta": 0.1}},
        }))
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out),
                     "--trials", "4"]) == 0
        for name in ("base", "theta_half"):
            curve = np.loadtxt(out / f"plot_convergence_{name}.dat")
            assert curve.ndim == 2 and curve.shape[1] == 2
        summary = json.loads((out / "convergence_summary.json").read_text())
        assert set(summary) == {"base", "theta_half"}

    def test_default_variants_follow_the_config(self, tmp_path):
        # theta and snr_db are left at SystemConfig's defaults (0.1, 20 dB).
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_users": 4, "t_len": 60, "n_h": 64, "channel_model": "bernoulli_gaussian",
        }))
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out),
                     "--trials", "2"]) == 0
        summary = json.loads((out / "convergence_summary.json").read_text())
        theta, sigma = SystemConfig().theta, summary["base"]["sigma_z2"]
        assert sigma == pytest.approx(4 / (100 * 60))
        assert summary["noise_tenth"]["sigma_z2"] == pytest.approx(sigma / 10)
        for name, theta_used in (("base", theta), ("theta_half", theta / 2)):
            want = theoretical_objective_bound(64, 4, theta_used, sigma)[1]
            assert summary[name]["upper_bound"] == pytest.approx(want)

    def test_trials_follow_the_config_without_the_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_users": 2, "t_len": 30, "n_h": 16, "channel_model": "bernoulli_gaussian",
            "trials": 3,
        }))
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "convergence_summary.json").read_text())
        assert {v["trials"] for v in summary.values()} == {3}
        assert main(["convergence", "--config", str(cfg), "--out", str(out),
                     "--trials", "2"]) == 0
        summary = json.loads((out / "convergence_summary.json").read_text())
        assert {v["trials"] for v in summary.values()} == {2}

    def test_p_exponent_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_users": 4, "t_len": 60, "n_h": 64, "theta": 0.2,
            "channel_model": "bernoulli_gaussian", "sigma_z2": 1e-3,
            "solver": {"max_iters": 80, "p_exponent": 4},
        }))
        assert main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "conv"),
                     "--trials", "4"]) != 0
        assert "unknown config keys: ['solver.p_exponent']" in capsys.readouterr().err


class TestStrictJson:
    def test_error_records_write_null_final_eta(self, tmp_path):
        # A noiseless all-zero channel: every pilot trial is rank deficient.
        cfg = write_config(tmp_path / "cfg.json", theta=1e-9, sigma_z2=0.0,
                           sweep={"param": "snr_db", "values": [10.0]})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--methods", "pilot"]) == 0
        lines = (out / "trials.jsonl").read_text().splitlines()
        assert [strict_loads(line)["final_eta"] for line in lines] == [None, None]
        assert all(math.isnan(r.final_eta) for r in read_records(str(out / "trials.jsonl")))

    def test_unreached_level_writes_null(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_users": 4, "t_len": 60, "n_h": 64, "channel_model": "bernoulli_gaussian",
        }))
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out),
                     "--trials", "2"]) == 0
        summary = strict_loads((out / "convergence_summary.json").read_text())
        assert summary["k_half"]["median_iters_to_level"] is None


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", trials=1,
                           sweep={"param": "snr_db", "values": [30.0]})
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "blindmimo.cli", "simulate",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "trials.jsonl").exists()
