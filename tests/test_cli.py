import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import blindmimo
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
        cfg8 = write_config(tmp_path / "cfg8.json", base_seed=8)
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg8), "--out", str(out2)])
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

    @pytest.mark.parametrize("sweep", [
        {"values": [10.0]},
        {"param": "snr_db"},
        [10.0, 20.0],
        {"param": "snr_db", "values": 10.0},
        {"param": "snr_db", "values": "10"},
        {"param": 3, "values": [10.0]},
        {"param": "snr_db", "values": [10.0], "step": 1},
        None,
    ])
    def test_malformed_sweep_rejected(self, tmp_path, capsys, sweep):
        cfg = write_config(tmp_path / "cfg.json", sweep=sweep)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert '"sweep" must hold' in capsys.readouterr().err
        assert not out.exists()

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", sweep={"param": "snr_db", "values": []})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "sweep of 'snr_db' has no values" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_sweep_value_rejected_before_any_trial(self, tmp_path, capsys):
        # A record's sweep_value must be strict JSON, so no trial runs and no
        # file is written; a noiseless run sets snr_db in the config instead.
        cfg = write_config(tmp_path / "cfg.json", sweep={"param": "snr_db", "values": [math.inf]})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert 'set "snr_db": Infinity in the config' in capsys.readouterr().err
        assert not out.exists()
        cfg = write_config(tmp_path / "cfg.json", snr_db=math.inf, sweep={"param": "theta", "values": [0.15]})
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert all(strict_loads(line)["sweep_value"] == 0.15
                   for line in (out / "trials.jsonl").read_text().splitlines())

    @pytest.mark.parametrize("methods", ["l3,l3", ","])
    def test_repeated_or_empty_methods_rejected(self, tmp_path, capsys, methods):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--methods", methods]) == 1
        assert "methods must name at least one method, each once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("solver", [5, "abc", ["max_iters"], 0, False, []])
    def test_solver_that_is_not_a_map_rejected(self, tmp_path, capsys, solver):
        # 0, false and [] used to run with the default solver options.
        cfg = write_config(tmp_path / "cfg.json", solver=solver)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"solver must be null or a map of option names to values, got {solver!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"k_users": -1}))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) != 0

    def test_precondition_flag_changes_results(self, tmp_path):
        plain, pre = (write_config(tmp_path / f"{name}.json", t_len=30, n_h=64,
                                   solver={"max_iters": 60, "precondition": on},
                                   sweep={"param": "snr_db", "values": [30.0]})
                      for name, on in (("plain", False), ("pre", True)))
        out1, out2 = tmp_path / "plain", tmp_path / "pre"
        assert main(["simulate", "--config", str(plain), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(pre), "--out", str(out2)]) == 0
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

    @pytest.mark.parametrize("args, message", [
        (["--delta-sq", "-1"], "delta_sq"), (["--delta-sq", "0"], "delta_sq"), (["--t-list", "0"], "t_len"),
        (["--k-list", "4,5"], "K=5"), (["--k-list", ""], "k_list"), (["--t-list", ""], "t_list"),
        (["--k-list", "4,4"], "k_list repeats 4"), (["--t-list", "36,54,36"], "t_list repeats 36"),
        (["--seed", "-2"], "base_seed must be nonnegative"),
    ])
    def test_inputs_that_cannot_work_rejected(self, tmp_path, capsys, args, message):
        out = tmp_path / "conc"
        assert main(["concentration", "--k-list", "4", "--trials", "100", "--out", str(out), *args]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_constellation_option_removed(self, tmp_path):
        # The curve constants are fitted for QPSK only, so no other constellation is offered.
        out = tmp_path / "conc"
        with pytest.raises(SystemExit) as exc:
            main(["concentration", "--k-list", "4", "--t-list", "36", "--trials", "100",
                  "--constellation", "qam16", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestConvergenceCommand:
    def test_writes_traces_and_summary(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_users": 4, "t_len": 60, "n_h": 64, "n_v": 1, "theta": 0.2,
            "channel_model": "bernoulli_gaussian", "sigma_z2": 1e-3,
            "solver": {"max_iters": 80}, "trials": 4,
            "variants": {"theta_half": {"theta": 0.1}},
        }))
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("base", "theta_half"):
            curve = np.loadtxt(out / f"plot_convergence_{name}.dat")
            assert curve.ndim == 2 and curve.shape[1] == 2
        summary = json.loads((out / "convergence_summary.json").read_text())
        assert set(summary) == {"base", "theta_half"}

    def test_default_variants_follow_the_config(self, tmp_path):
        # theta and snr_db are left at SystemConfig's defaults (0.1, 20 dB).
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_users": 4, "t_len": 60, "n_h": 64, "channel_model": "bernoulli_gaussian", "trials": 2,
        }))
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
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

    def test_variant_runs_its_own_trials(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_users": 2, "t_len": 30, "n_h": 16, "channel_model": "bernoulli_gaussian",
            "trials": 2, "variants": {"more": {"trials": 3}},
        }))
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "convergence_summary.json").read_text())
        assert {name: v["trials"] for name, v in summary.items()} == {"base": 2, "more": 3}

    def test_sweep_key_rejected(self, tmp_path, capsys):
        # Only simulate reads "sweep"; convergence takes it for a misplaced config key.
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 1
        assert "unknown config keys: ['sweep']" in capsys.readouterr().err
        assert not out.exists()

    def test_p_exponent_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_users": 4, "t_len": 60, "n_h": 64, "theta": 0.2,
            "channel_model": "bernoulli_gaussian", "sigma_z2": 1e-3,
            "solver": {"max_iters": 80, "p_exponent": 4}, "trials": 4,
        }))
        assert main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "conv")]) != 0
        assert "unknown config keys: ['solver.p_exponent']" in capsys.readouterr().err

    def test_variant_named_base_rejected(self, tmp_path, capsys):
        # Taken as a variant, it would replace the config's own base: only theta = 0.05 would run.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_users": 4, "t_len": 60, "n_h": 64, "theta": 0.2, "sigma_z2": 0.001,
            "channel_model": "bernoulli_gaussian", "trials": 2, "variants": {"base": {"theta": 0.05}},
        }))
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 1
        assert "'base'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, variants, message", [
        (["--level", "nan"], None, "level"),
        (["--level", "inf"], None, "level"),
        ([], {"a/b": {"theta": 0.1}}, "'a/b'"),  # would name plot_convergence_a/b.dat
        ([], {"a\0b": {"theta": 0.1}}, "'a\\x00b'"),
        ([], [1], "variants must be null or a map of names to config overrides, got [1]"),
        ([], {"x": 5}, "variants ['x'] must each be a map of config fields to values"),
    ])
    def test_inputs_that_cannot_work_rejected(self, tmp_path, capsys, args, variants, message):
        # Rejected before the first trial: nothing is written.
        raw = {"k_users": 4, "t_len": 60, "n_h": 64, "channel_model": "bernoulli_gaussian", "trials": 2}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**raw, "variants": variants} if variants else raw))
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out), *args]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestRunSettingsComeFromTheConfig:
    @pytest.mark.parametrize("command, option, value", [
        ("simulate", "--seed", "8"), ("simulate", "--trials", "2"),
        ("simulate", "--precondition", "true"),
        ("convergence", "--seed", "8"), ("convergence", "--trials", "2"),
    ])
    def test_override_option_removed(self, tmp_path, command, option, value):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(out), option, value])
        assert exc.value.code == 2
        assert not out.exists()


@pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ("[]", "list"), ('"{}"', "str")],
                         ids=["array", "empty_array", "string"])
@pytest.mark.parametrize("command", ["simulate", "convergence"])
def test_config_file_that_is_not_an_object_rejected(tmp_path, capsys, command, text, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert f"config file {cfg} must hold a JSON object, got a {kind}" in capsys.readouterr().err
    assert not out.exists()


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
            "k_users": 4, "t_len": 60, "n_h": 64, "channel_model": "bernoulli_gaussian", "trials": 2,
        }))
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        summary = strict_loads((out / "convergence_summary.json").read_text())
        assert summary["k_half"]["median_iters_to_level"] is None


class TestPrintedPaths:
    """Each subcommand prints exactly the paths it wrote, one per line, in write order."""

    @staticmethod
    def check(capsys, argv, out, names):
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [str(out / name) for name in names]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)

    def test_simulate_and_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", t_pilot=8)
        names = ["trials.jsonl", "summary.csv", "plot_evm_l3.dat", "plot_evm_pilot.dat"]
        out, re_out = tmp_path / "out", tmp_path / "re"
        self.check(capsys, ["simulate", "--config", str(cfg), "--out", str(out),
                            "--methods", "pilot,l3"], out, names)
        self.check(capsys, ["report", "--records", str(out / "trials.jsonl"),
                            "--out", str(re_out)], re_out, names)

    def test_convergence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k_users": 4, "t_len": 60, "n_h": 64, "channel_model": "bernoulli_gaussian", "trials": 2,
            "variants": {"theta_half": {"theta": 0.05}},
        }))
        out = tmp_path / "conv"
        self.check(capsys, ["convergence", "--config", str(cfg), "--out", str(out)],
                   out, ["plot_convergence_base.dat", "plot_convergence_theta_half.dat",
                         "convergence_summary.json"])

    def test_concentration(self, tmp_path, capsys):
        out = tmp_path / "conc"
        self.check(capsys, ["concentration", "--k-list", "8,4", "--t-list", "36",
                            "--trials", "100", "--out", str(out)],
                   out, ["plot_concentration_k8.dat", "plot_concentration_k4.dat"])


def test_commands_do_not_load_numpy_ma(tmp_path):
    # np.median imports numpy.ma on first use (about 10 ms and 1.2 MB of
    # memory); simulate, report, convergence and concentration must not.
    cfg = write_config(tmp_path / "cfg.json")
    conv = tmp_path / "conv.json"
    conv.write_text(json.dumps({"k_users": 2, "t_len": 30, "n_h": 16,
                                "channel_model": "bernoulli_gaussian", "trials": 3}))
    runs = [["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"), "--methods", "l3,pilot"],
            ["report", "--records", str(tmp_path / "sim" / "trials.jsonl"), "--out", str(tmp_path / "rep")],
            ["convergence", "--config", str(conv), "--out", str(tmp_path / "conv")],
            ["concentration", "--k-list", "4", "--t-list", "36", "--trials", "100", "--out", str(tmp_path / "conc")]]
    code = f"""
import contextlib, io, sys
from blindmimo.cli import main
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    print(argv[0], "numpy.ma" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(blindmimo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["simulate", "False", "report", "False", "convergence", "False",
                                  "concentration", "False"]


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
