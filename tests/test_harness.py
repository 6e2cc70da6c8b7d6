import csv
import hashlib
import json
import math
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from blindmimo import (
    SolverOptions,
    SystemConfig,
    TrialMetrics,
    TrialRecord,
    emit_report,
    iterations_to_level,
    read_records,
    run_concentration_experiment,
    run_convergence_experiment,
    run_sweep,
)
from blindmimo import detector
from blindmimo.harness import (
    _draw_fading,
    _noise_variance,
    _seed_sequence,
    _stream,
    concentration_crossover,
    concentration_tail_bound,
    build_scenario,
)


def tiny_config(**over):
    base = dict(
        k_users=4, t_len=60, n_h=32, n_v=1, snr_db=20.0, theta=0.15,
        channel_model="bernoulli_gaussian", trials=3, base_seed=99,
        solver=SolverOptions(max_iters=60),
    )
    base.update(over)
    return SystemConfig(**base)


class TestSystemConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(t_len=2)
        with pytest.raises(ValueError):
            tiny_config(channel_model="rayleigh")
        with pytest.raises(ValueError):
            tiny_config(theta=0.0)
        for power in (0.0, -1.0, (1.0, 1.0, 1.0), (1.0, 1.0, 0.0, 1.0)):
            with pytest.raises(ValueError, match="power"):
                tiny_config(power=power)
        with pytest.raises(ValueError, match="sigma_z2"):
            tiny_config(sigma_z2=-1e-3)
        with pytest.raises(ValueError, match="n_paths"):
            tiny_config(n_paths=0)
        with pytest.raises(ValueError, match="pilot_lambda"):
            tiny_config(pilot_lambda=-0.5)

    @pytest.mark.parametrize("override, message", [
        ('{"t_len": 40.5}', "t_len must be an integer"),
        ('{"t_len": 40.0}', "t_len must be an integer"),
        ('{"k_users": 4.0}', "k_users must be an integer"),
        ('{"n_h": 32.0}', "n_h must be an integer"),
        ('{"n_v": 1.5}', "n_v must be an integer"),
        ('{"n_paths": 5.0}', "n_paths must be an integer"),
        ('{"trials": 3.0}', "trials must be an integer"),
        ('{"base_seed": 1.5}', "base_seed must be an integer"),
        ('{"t_pilot": 6.0}', "t_pilot must be an integer"),
        ('{"solver": {"max_iters": 60.5}}', "solver.max_iters must be an integer"),
        ('{"sigma_z2": Infinity}', "sigma_z2 must be finite"),
        ('{"sigma_z2": NaN}', "sigma_z2 must be finite"),
        ('{"pilot_lambda": NaN}', "pilot_lambda must be finite"),
        ('{"pilot_lambda": Infinity}', "pilot_lambda must be finite"),
        ('{"snr_db": NaN}', "snr_db must be a number"),
        ('{"snr_db": -Infinity}', "snr_db must be a number"),
        ('{"power": Infinity}', "power must be finite"),
    ])
    def test_json_values_that_cannot_work_rejected(self, override, message):
        # json.load accepts NaN and Infinity, and 40.0 loads as a float.
        base = tiny_config().to_dict()
        with pytest.raises(ValueError, match=message):
            SystemConfig.from_dict({**base, **json.loads(override)})

    def test_numpy_integers_and_noiseless_snr_accepted(self):
        cfg = tiny_config(t_len=np.int64(60), k_users=np.int32(4), snr_db=math.inf)
        assert _noise_variance(cfg, np.ones(4)) == 0.0

    def test_sweep_values_checked_at_the_boundary(self):
        with pytest.raises(ValueError, match="t_len must be an integer"):
            next(run_sweep(tiny_config(), "t_len", [40.0]))

    def test_fewer_antennas_than_users_rejected(self):
        with pytest.raises(ValueError, match="M=4 < K=8"):
            tiny_config(n_h=4, k_users=8)
        with pytest.raises(ValueError, match="M=6 < K=8"):
            tiny_config(n_h=3, n_v=2, k_users=8)
        assert tiny_config(n_h=4, k_users=4).m == 4

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="base_seed"):
            tiny_config(base_seed=-1)

    def test_from_dict_round_trip(self):
        cfg = tiny_config()
        again = SystemConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            SystemConfig.from_dict({"k_user": 4})

    def test_p_exponent_rejected(self):
        # Each method sets its exponent; the solver options have none.
        with pytest.raises(ValueError, match=r"unknown config keys: \['solver.p_exponent'\]"):
            SystemConfig.from_dict({"solver": {"p_exponent": 4}})

    def test_fingerprint_stable_and_sensitive(self):
        cfg = tiny_config()
        assert cfg.fingerprint() == tiny_config().fingerprint()
        assert cfg.fingerprint() != tiny_config(base_seed=100).fingerprint()

    def test_noise_variance_mappings(self):
        cfg = tiny_config(snr_db=10.0)
        assert _noise_variance(cfg, np.ones(4)) == pytest.approx(4 / (10 * 60))
        cfg_fade = tiny_config(snr_db=10.0, fading_model="log_distance")
        g = _draw_fading(cfg_fade, np.random.default_rng(0))
        assert np.all(g > 0) and np.all(g < 1e-6)  # path loss at tens of meters
        assert _noise_variance(cfg_fade, g) == pytest.approx(g.sum() / (60 * 10))
        cfg_fixed = tiny_config(sigma_z2=0.123)
        assert _noise_variance(cfg_fixed, np.ones(4)) == 0.123


class TestRunSweep:
    def test_deterministic_records(self):
        cfg = tiny_config()
        r1 = [r.to_json() for r in run_sweep(cfg, "snr_db", [10.0, 30.0], ("l3",))]
        r2 = [r.to_json() for r in run_sweep(cfg, "snr_db", [10.0, 30.0], ("l3",))]
        assert r1 == r2

    def test_methods_share_scenario(self):
        cfg = tiny_config(trials=2)
        records = list(run_sweep(cfg, "snr_db", [20.0], ("l3", "l4", "pilot")))
        by_trial = {}
        for r in records:
            by_trial.setdefault(r.trial, set()).add(r.scenario_digest)
        for digests in by_trial.values():
            assert len(digests) == 1  # paired: same channel/frame/noise

    def test_method_seeds_differ(self):
        cfg = tiny_config(trials=1)
        records = list(run_sweep(cfg, "snr_db", [20.0], ("l3", "rgd")))
        assert records[0].seed != records[1].seed

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            list(run_sweep(tiny_config(), "snr_db", [0.0], ("ml",)))

    def test_unknown_sweep_param_rejected(self):
        with pytest.raises(ValueError):
            list(run_sweep(tiny_config(), "snr", [0.0]))

    def test_record_contents(self):
        cfg = tiny_config(trials=2)
        records = list(run_sweep(cfg, "snr_db", [30.0], ("l3",)))
        assert len(records) == 2
        for r in records:
            assert r.error is None
            assert r.metrics.ser <= 0.5
            assert r.metrics.rate is not None
            assert r.stop_reason in ("eta_tol", "obj_tol", "max_iters")

    def test_pilot_records(self):
        cfg = tiny_config(trials=2, t_pilot=8, snr_db=30.0, n_h=64,
                          theta=0.3, pilot_lambda=0.5)
        records = list(run_sweep(cfg, "snr_db", [30.0], ("pilot",)))
        for r in records:
            assert r.error is None
            assert r.metrics.rate is not None

    def test_rgd_runs_under_log_distance_fading(self):
        # Gradients scale with G^(-1/2) (about 1e5 here); the tangency check
        # must not mistake their rounding for a non-tangent direction.
        cfg = tiny_config(k_users=4, n_h=64, t_len=40, trials=2, theta=0.1,
                          fading_model="log_distance",
                          solver=SolverOptions(max_iters=60, precondition=True))
        records = list(run_sweep(cfg, "snr_db", [20.0], ("rgd",)))
        assert len(records) == 2
        for r in records:
            assert r.error is None, r.error
            assert r.stop_reason in ("eta_tol", "obj_tol", "max_iters")

    def test_pilot_runs_under_log_distance_fading(self):
        # The l1 weight scales with g_k (about 1e-10 here); an absolute weight
        # zeroes the whole channel estimate.  With t_pilot >= K every trial works.
        cfg = tiny_config(k_users=8, n_h=256, t_len=40, trials=3, theta=0.1, t_pilot=16,
                          fading_model="log_distance")
        records = list(run_sweep(cfg, "snr_db", [20.0], ("pilot",)))
        assert len(records) == 3
        for r in records:
            assert r.error is None, r.error
            assert r.metrics.ser < 0.1

    def test_l4_has_no_normalized_objective(self):
        # The envelope bounds the third-power objective only.
        records = list(run_sweep(tiny_config(trials=1), "snr_db", [20.0], ("l3", "l4", "rgd")))
        normalized = {r.method: r.metrics.normalized_objective for r in records}
        assert normalized["l4"] is None
        assert normalized["l3"] > 0 and normalized["rgd"] > 0

    @pytest.mark.parametrize("over, want", [
        ({}, [0.5856608994985563, 0.5719310801852623]),
        (dict(channel_model="clustered"), [None, None]),
        (dict(fading_model="log_distance"), [None, None]),
        (dict(solver=SolverOptions(max_iters=60, precondition=True)), [None, None]),
    ])
    def test_normalized_objective_only_where_the_envelope_holds(self, over, want):
        # The l3 envelope assumes a Bernoulli-Gaussian channel, unit G and P
        # and the raw block; elsewhere the ratio is not a fraction of anything.
        records = list(run_sweep(tiny_config(trials=1, **over), "snr_db", [20.0], ("l3", "rgd")))
        assert [r.error for r in records] == [None, None]
        assert [r.metrics.normalized_objective for r in records] == pytest.approx(want, rel=1e-9)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        k=st.integers(1, 4),
        t_len=st.integers(8, 16),
        methods=st.sampled_from([("l3", "pilot"), ("l4", "rgd", "pilot")]),
        fading=st.sampled_from(["identity", "log_distance"]),
        precondition_on=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reruns_byte_identical(self, k, t_len, methods, fading, precondition_on, seed):
        cfg = tiny_config(
            k_users=k, t_len=t_len, n_h=16, trials=1, t_pilot=4, fading_model=fading,
            base_seed=seed, solver=SolverOptions(max_iters=20, precondition=precondition_on),
        )

        def lines():
            return [r.to_json() for r in run_sweep(cfg, "snr_db", [10.0, 30.0], methods)]

        assert lines() == lines()

    def test_error_records_have_error_stop_reason(self):
        # A noiseless all-zero channel: the pilot baseline is rank deficient.
        cfg = tiny_config(k_users=8, n_h=256, t_len=40, trials=2, theta=1e-9, sigma_z2=0.0,
                          fading_model="log_distance",
                          solver=SolverOptions(precondition=True))
        records = list(run_sweep(cfg, "snr_db", [10.0], ("pilot",)))
        assert len(records) == 2
        for r in records:
            assert r.error is not None and "RankDeficientError" in r.error
            assert r.stop_reason == "error"
            assert r.metrics is None and math.isnan(r.final_eta)

    def test_plain_value_error_propagates(self, monkeypatch):
        # Only solver failures become error records; anything else is a bug.
        def broken_detect(*args, **kwargs):
            raise ValueError("shape bug")

        monkeypatch.setattr(detector, "detect", broken_detect)
        with pytest.raises(ValueError, match="shape bug"):
            list(run_sweep(tiny_config(trials=1), "snr_db", [20.0], ("l3",)))

    def test_restarts_recorded(self, monkeypatch):
        real_solve = detector.solve

        def restarted_solve(*args, **kwargs):
            a, trace = real_solve(*args, **kwargs)
            return a, replace(trace, restarts=1)

        cfg = tiny_config(trials=1)
        plain = list(run_sweep(cfg, "snr_db", [20.0], ("l3", "pilot")))
        assert [r.restarts for r in plain] == [0, 0]
        monkeypatch.setattr(detector, "solve", restarted_solve)
        records = list(run_sweep(cfg, "snr_db", [20.0], ("l3", "l4", "pilot")))
        assert [(r.method, r.restarts) for r in records] == [("l3", 1), ("l4", 1), ("pilot", 0)]
        assert '"restarts":1' in records[0].to_json()

    def test_longer_frames_detect_better(self):
        cfg = tiny_config(trials=15, n_h=128, snr_db=20.0, theta=0.1, k_users=8,
                          t_len=60)
        records = list(run_sweep(cfg, "t_len", [60, 240], ("l3",)))
        means = {t: np.mean([r.metrics.evm for r in records if r.sweep_value == t])
                 for t in (60, 240)}
        assert means[240] < means[60]


class TestEmitReport:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config(trials=2)
        records = list(run_sweep(cfg, "snr_db", [10.0, 30.0], ("l3",)))
        emit_report(records, tmp_path)
        back = read_records(tmp_path / "trials.jsonl")
        assert back == records or [r.to_json() for r in back] == [r.to_json() for r in records]

    def test_records_without_restarts_load(self, tmp_path):
        # trials.jsonl files written before the restarts field existed.
        cfg = tiny_config(trials=1)
        rec = next(run_sweep(cfg, "snr_db", [20.0], ("l3",)))
        old = json.loads(rec.to_json())
        del old["restarts"]
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(old) + "\n")
        (back,) = read_records(path)
        assert back.restarts == 0
        assert back.to_json() == rec.to_json()

    def test_empty_records_header_only(self, tmp_path):
        paths = emit_report([], tmp_path)
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 and rows[0][0] == "method"
        assert (tmp_path / "trials.jsonl").read_text() == ""

    def test_two_record_t_interval(self, tmp_path):
        def rec(trial, evm_val):
            return TrialRecord(
                fingerprint="f", sweep_param="snr_db", sweep_value=10.0, method="l3",
                trial=trial, seed=trial, scenario_digest="d",
                metrics=TrialMetrics(evm=evm_val, ser=0.0, ber=0.0, rate=1.0,
                                     normalized_objective=None, iters=5),
                stop_reason="eta_tol", final_eta=0.0,
            )

        emit_report([rec(0, 0.1), rec(1, 0.2)], tmp_path)
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["evm_mean"]) == pytest.approx(0.15)
        want_ci = stats.t.ppf(0.975, 1) * np.std([0.1, 0.2], ddof=1) / math.sqrt(2)
        assert float(rows[0]["evm_ci95"]) == pytest.approx(want_ci)

    def test_error_counts(self, tmp_path):
        def rec(value, trial, ok):
            tm = TrialMetrics(evm=0.1, ser=0.0, ber=0.0, rate=1.0,
                              normalized_objective=None, iters=5)
            return TrialRecord(
                fingerprint="f", sweep_param="snr_db", sweep_value=value, method="l3",
                trial=trial, seed=trial, scenario_digest="d",
                metrics=tm if ok else None,
                stop_reason="eta_tol" if ok else "error", final_eta=0.0 if ok else float("nan"),
                error=None if ok else "RankDeficientError: test",
            )

        records = [rec(10.0, 0, True), rec(10.0, 1, False), rec(10.0, 2, True),
                   rec(20.0, 0, False), rec(20.0, 1, False)]
        emit_report(records, tmp_path)
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        # The all-error sweep point writes no row.
        assert [(r["sweep_value"], r["n"], r["n_errors"]) for r in rows] == [("10.0", "2", "1")]

    def test_plot_files_written(self, tmp_path):
        cfg = tiny_config(trials=2)
        records = list(run_sweep(cfg, "snr_db", [10.0, 30.0], ("l3",)))
        emit_report(records, tmp_path)
        dat = (tmp_path / "plot_evm_l3.dat").read_text().splitlines()
        assert dat[0].startswith("#")
        assert len(dat) == 3  # header + two sweep points
        assert np.loadtxt(tmp_path / "plot_evm_l3.dat").shape == (2, 3)


class TestConcentrationExperiment:
    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            run_concentration_experiment([4], [50], 0.1, 50)

    def test_tail_behaviour(self):
        rows = run_concentration_experiment([4], [30, 60, 120, 2000], 0.1, 200, base_seed=1)
        freqs = [r["empirical"] for r in rows]
        # monotone non-increasing within binomial noise, zero in the deep tail
        for a, b in zip(freqs, freqs[1:]):
            sigma = math.sqrt(max(a * (1 - a), 1e-12) / 200)
            assert b <= a + 2 * sigma
        assert freqs[-1] == 0.0

    def test_bound_vs_empirical_beyond_crossover(self):
        rows = run_concentration_experiment([4], [36, 54, 80], 0.1, 400, base_seed=2)
        for r in rows:
            assert r["t_len"] >= r["crossover_t"]
            sigma = math.sqrt(max(r["theoretical"] * (1 - r["theoretical"]), 1e-12) / r["trials"])
            assert r["empirical"] <= r["theoretical"] + 2 * sigma

    def test_bound_formula_values(self):
        # threshold sqrt(0.1) enters the exponent via delta = threshold*ln(2)
        t, k, c_const = 100, 4, 0.416
        delta = math.sqrt(0.1) * math.log(2.0)
        want = 2 * math.exp(-((delta * math.sqrt(t) / c_const - 2.0) ** 2))
        assert concentration_tail_bound(t, k, math.sqrt(0.1), c_const) == pytest.approx(want)
        cross = concentration_crossover(k, math.sqrt(0.1), c_const)
        assert concentration_tail_bound(cross, k, math.sqrt(0.1), c_const) == pytest.approx(1.0)


class TestConvergenceExperiment:
    def test_traces_normalized_and_monotone(self):
        cfg = SystemConfig(k_users=4, t_len=60, n_h=512, n_v=1, theta=0.2,
                           channel_model="bernoulli_gaussian", sigma_z2=1e-4,
                           solver=SolverOptions(max_iters=100))
        out = run_convergence_experiment({"base": cfg}, trials=6, base_seed=0)
        finals = [tr[-1] for tr in out["base"]["traces"]]
        for tr in out["base"]["traces"]:
            assert np.all(np.diff(tr) >= -1e-12)
        # The expected level is reachable up to the per-realization spread of
        # the channel's spike mass (about 9% rel. std at this size).
        assert np.median(finals) >= 0.9
        assert min(finals) >= 0.6

    def test_smaller_theta_is_not_slower(self):
        cfg = SystemConfig(k_users=4, t_len=60, n_h=128, n_v=1, theta=0.3,
                           channel_model="bernoulli_gaussian", sigma_z2=1e-4,
                           solver=SolverOptions(max_iters=100))
        out = run_convergence_experiment(
            {"base": cfg, "half": replace(cfg, theta=0.15)}, trials=12, base_seed=3
        )
        med = {n: np.median([iterations_to_level(t, 0.9) for t in r["traces"]])
               for n, r in out.items()}
        assert med["half"] <= med["base"]

    @pytest.mark.parametrize("over", [
        {"solver": SolverOptions(precondition=True)},
        {"fading_model": "log_distance"},
        {"power": 2.0},
    ])
    def test_ignored_fields_rejected(self, over):
        # The experiment solves with unit fading and power and no preconditioning.
        cfg = SystemConfig(k_users=4, t_len=60, n_h=64, n_v=1, theta=0.2,
                           channel_model="bernoulli_gaussian", sigma_z2=1e-3, **over)
        with pytest.raises(ValueError, match="must keep their defaults"):
            run_convergence_experiment({"base": cfg}, trials=1)

    def test_iterations_to_level_censoring(self):
        assert iterations_to_level(np.array([0.1, 0.5, 0.95]), 0.9) == 2
        assert math.isinf(iterations_to_level(np.array([0.1, 0.2]), 0.9))


class TestStreamDerivation:
    def test_order_independent(self):
        a = _stream(7, 0, 3, "l3").standard_normal(4)
        _ = _stream(7, 1, 0, "l4").standard_normal(4)
        b = _stream(7, 0, 3, "l3").standard_normal(4)
        assert np.array_equal(a, b)

    def test_tags_separate_streams(self):
        a = _stream(7, 0, 0, "scenario").standard_normal(4)
        b = _stream(7, 0, 0, "l3").standard_normal(4)
        assert not np.array_equal(a, b)

    def test_base_seeds_do_not_alias(self):
        # A 32-bit mask on the base seed would make 0 and 2**32 one stream.
        for tags in ((0, 0, "scenario"), (1, 2, "l3")):
            a = _stream(0, *tags).standard_normal(4)
            b = _stream(2**32, *tags).standard_normal(4)
            assert not np.array_equal(a, b)
            assert (_seed_sequence(0, *tags).generate_state(1)[0]
                    != _seed_sequence(2**32, *tags).generate_state(1)[0])

    def test_scenario_digest_hashes_the_bytes(self):
        sc = build_scenario(tiny_config(), _stream(3, 0, 0, "scenario"))
        expected = hashlib.sha256(sc.y_bar.tobytes()).hexdigest()[:12]
        assert sc.digest == expected
        # A Fortran-ordered copy hashes its C-ordered bytes, as tobytes() did.
        fortran = replace(sc, y_bar=np.asfortranarray(sc.y_bar))
        assert not fortran.y_bar.flags.c_contiguous
        assert fortran.digest == expected

    def test_stream_seed_matches_stream(self):
        # Seeds below 2**32 keep their streams: the seed words are the base
        # seed followed by the tags, for both helpers.
        seed = int(_seed_sequence(7, 0, 3, "l3").generate_state(1)[0])
        words = [7, 0, 3, zlib.crc32(b"l3")]
        assert seed == int(np.random.SeedSequence(words).generate_state(1)[0])
        expected = np.random.default_rng(np.random.SeedSequence(words)).standard_normal(4)
        assert np.array_equal(_stream(7, 0, 3, "l3").standard_normal(4), expected)
