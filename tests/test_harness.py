import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
import zlib
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from blindmimo import (
    SolverOptions,
    SystemConfig,
    TrialMetrics,
    TrialRecord,
    convergence_variants,
    emit_concentration,
    emit_convergence,
    emit_report,
    read_records,
    run_concentration_experiment,
    run_convergence_experiment,
    run_sweep,
)
import blindmimo
from blindmimo import detector, harness
from blindmimo.harness import (
    _draw_fading,
    _iterations_to_level,
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
    def test_constellation_name_must_be_a_string(self):
        # A JSON config can hold a list; it is rejected like any unknown name.
        with pytest.raises(ValueError, match="unsupported constellation"):
            SystemConfig.from_dict({"constellation": ["qpsk"]})

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
        ('{"solver": {"eta_tol": NaN}}', "solver.eta_tol must be finite and nonnegative"),
        ('{"solver": {"eta_tol": -1e-6}}', "solver.eta_tol must be finite and nonnegative"),
        ('{"solver": {"obj_rel_tol": Infinity}}', "solver.obj_rel_tol must be finite and nonnegative"),
        ('{"solver": {"precondition": "false"}}', "solver.precondition must be true or false"),
        ('{"sigma_z2": Infinity}', "sigma_z2 must be finite"),
        ('{"sigma_z2": NaN}', "sigma_z2 must be finite"),
        ('{"pilot_lambda": NaN}', "pilot_lambda must be finite"),
        ('{"pilot_lambda": Infinity}', "pilot_lambda must be finite"),
        ('{"snr_db": NaN}', "snr_db must be a number"),
        ('{"snr_db": -Infinity}', "snr_db must be a number"),
        ('{"power": Infinity}', "power must be finite"),
        ('{"snr_db": 4000.0}', "inf for noiseless"),
        ('{"snr_db": -4000.0}', "snr_db must be a number >= -300 dB"),
        ('{"snr_db": -3200.0}', "snr_db must be a number >= -300 dB"),
        ('{"power": 1e300}', r"at most 1e\+30"),
        ('{"power": [1.0, 1.0, 1e300, 1.0]}', r"at most 1e\+30"),
        ('{"sigma_z2": 1e300}', r"at most 1e\+30"),
        ('{"snr_db": "20"}', "snr_db must be a real number"),
        ('{"theta": "0.1"}', "theta must be a real number"),
        ('{"pilot_lambda": "2"}', "pilot_lambda must be a real number"),
        ('{"sigma_z2": "0.1"}', "sigma_z2 must be a real number"),
        ('{"snr_db": true}', "snr_db must be a real number"),
        ('{"power": "1"}', "power must be a real number"),
        ('{"power": [1.0, "1", 1.0, 1.0]}', "power must be a real number"),
        ('{"power": [1.0, true, 1.0, 1.0]}', "power must be a real number"),
        ('{"k_users": true}', "k_users must be an integer"),
        ('{"n_v": true}', "n_v must be an integer"),
        # Only the command line reads "sweep" (simulate) and "variants" (convergence).
        ('{"sweep": {"param": "snr_db", "values": [10.0]}}', r"unknown config keys: \['sweep'\]"),
        ('{"variants": {"half": {"theta": 0.05}}}', r"unknown config keys: \['variants'\]"),
        # A solver that is not a map: 0, false and [] used to mean the defaults.
        ('{"solver": 5}', "solver must be null or a map of option names to values, got 5$"),
        ('{"solver": "abc"}', "solver must be null or a map of option names to values, got 'abc'"),
        ('{"solver": ["max_iters"]}', r"solver must be null or a map .*, got \['max_iters'\]"),
        ('{"solver": 0}', "solver must be null or a map .*, got 0$"),
        ('{"solver": false}', "solver must be null or a map .*, got False"),
        ('{"solver": []}', r"solver must be null or a map .*, got \[\]"),
        ('{"fading_model": "rician"}', "unknown fading model 'rician'"),
        ('{"t_pilot": 0}', r"t_pilot must lie in \[1, t_len\)"),
        ('{"t_pilot": 60}', r"t_pilot must lie in \[1, t_len\)"),
        ('{"k_users": 2, "t_len": 2, "t_pilot": 1}', "t_len too short for reference and header symbols"),
    ])
    def test_json_values_that_cannot_work_rejected(self, override, message):
        # json.load accepts NaN and Infinity, 40.0 loads as a float, and a
        # string or a bool must not pass for a number.
        base = tiny_config().to_dict()
        with pytest.raises(ValueError, match=message):
            SystemConfig.from_dict({**base, **json.loads(override)})

    def test_numpy_integers_and_noiseless_snr_accepted(self):
        cfg = tiny_config(t_len=np.int64(60), k_users=np.int32(4), snr_db=math.inf)
        assert _noise_variance(cfg, np.ones(4)) == 0.0

    def test_largest_accepted_values_run_cleanly(self):
        # A floating-point warning fails the test, so all four methods must
        # run at the power and noise bounds without overflow, under
        # log-distance fading too; 3000 dB still maps to a finite linear SNR.
        assert _noise_variance(tiny_config(snr_db=3000.0), np.ones(4)) > 0.0
        for over in (dict(power=1e30), dict(sigma_z2=1e30), dict(snr_db=-300.0),
                     dict(power=1e30, sigma_z2=1e30, fading_model="log_distance")):
            cfg = tiny_config(trials=1, theta=1.0, **over)
            records = list(run_sweep(cfg, "snr_db", [cfg.snr_db], ("l3", "l4", "rgd", "pilot")))
            assert [r.error for r in records] == [None] * 4

    def test_sweep_values_checked_at_the_boundary(self):
        with pytest.raises(ValueError, match="t_len must be an integer"):
            run_sweep(tiny_config(), "t_len", [40.0])

    def test_fewer_antennas_than_users_rejected(self):
        with pytest.raises(ValueError, match="M=4 < K=8"):
            tiny_config(n_h=4, k_users=8)
        with pytest.raises(ValueError, match="M=6 < K=8"):
            tiny_config(n_h=3, n_v=2, k_users=8)
        assert tiny_config(n_h=4, k_users=4).m == 4

    def test_fewer_symbols_than_users_rejected(self):
        # The header fits in 3 of the 6 columns, but St_K(C^T) needs T >= K,
        # so every blind trial would fail after earlier records were yielded.
        with pytest.raises(ValueError, match="symbols as users, got T=6 < K=8"):
            SystemConfig(k_users=8, t_len=6, n_h=16, t_pilot=2)
        assert SystemConfig(k_users=8, t_len=8, n_h=16, t_pilot=2).t_len == 8

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="base_seed"):
            tiny_config(base_seed=-1)

    def test_from_dict_round_trip(self):
        cfg = tiny_config()
        again = SystemConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize("raw", [[], [["k_users", 4]], "{}", None], ids=["empty_list", "pairs", "str", "null"])
    def test_config_that_is_not_a_map_rejected(self, raw):
        # dict() made a config of an empty list or a list of pairs.
        with pytest.raises(ValueError, match="a config must be a map of field names to values, got a "):
            SystemConfig.from_dict(raw)

    def test_null_solver_keeps_the_defaults(self):
        assert SystemConfig.from_dict({"solver": None}).solver == SolverOptions()

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


@st.composite
def small_configs(draw):
    """Small configs over both channels, fadings, alphabets and solver modes, noiseless included."""
    k = draw(st.integers(1, 4))
    t_len = draw(st.integers(k + 3, 24))
    return SystemConfig(
        k_users=k, n_h=draw(st.integers(k, 16)), t_len=t_len, t_pilot=draw(st.integers(1, t_len - 1)),
        theta=draw(st.floats(0.01, 1.0)), n_paths=draw(st.integers(1, 3)),
        channel_model=draw(st.sampled_from(["clustered", "bernoulli_gaussian"])),
        fading_model=draw(st.sampled_from(["identity", "log_distance"])),
        constellation=draw(st.sampled_from(["qpsk", "qam16"])),
        snr_db=draw(st.one_of(st.floats(-10.0, 60.0), st.just(math.inf))),
        trials=2, base_seed=draw(st.integers(0, 2**32 - 1)),
        solver=SolverOptions(max_iters=draw(st.sampled_from([1, 50])), precondition=draw(st.booleans())),
    )


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

    # Every rejection raises at the call, before the caller iterates.
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'ml'"):
            run_sweep(tiny_config(), "snr_db", [0.0], ("ml",))

    def test_unknown_sweep_param_rejected(self):
        with pytest.raises(ValueError, match="'snr' is not a sweep parameter"):
            run_sweep(tiny_config(), "snr", [0.0])

    @pytest.mark.parametrize("param, values", [
        ("channel_model", ["bernoulli_gaussian"]),
        ("snr_db", [10.0, True]),
        ("solver", [SolverOptions(max_iters=5)]),
        ("t_len", [60, 40.0]),
    ])
    def test_sweeps_a_record_cannot_hold_rejected(self, param, values, monkeypatch):
        # A record's sweep value is a float, and every value's config is
        # checked: the sweep fails before any trial.
        monkeypatch.setattr("blindmimo.harness.build_scenario", None)
        with pytest.raises(ValueError, match=param):
            run_sweep(tiny_config(), param, values)

    @pytest.mark.parametrize("value", [math.inf, np.float64(math.inf), -math.inf, math.nan])
    def test_non_finite_sweep_value_rejected(self, value, monkeypatch):
        # SystemConfig takes snr_db = +inf as noiseless, but a record's
        # sweep_value must be strict JSON, so the sweep fails before any trial.
        monkeypatch.setattr("blindmimo.harness.build_scenario", None)
        hint = '"snr_db": Infinity in the config' if value == math.inf else "got"
        with pytest.raises(ValueError, match=f"must be finite real numbers.*{hint}"):
            run_sweep(tiny_config(), "snr_db", [20.0, value])

    @pytest.mark.parametrize("methods", [("l3", "l3"), ("l3", "pilot", "l3"), (), []])
    def test_repeated_or_empty_methods_rejected(self, methods, monkeypatch):
        # A repeated method would run its trials twice on the same seeds and
        # count them twice in the summary.
        monkeypatch.setattr("blindmimo.harness.build_scenario", None)
        with pytest.raises(ValueError, match="methods must name at least one method, each once"):
            run_sweep(tiny_config(), "snr_db", [0.0], methods)

    @pytest.mark.parametrize("param, values, paired", [
        ("snr_db", [10.0, 30.0], False),
        ("theta", [0.1, 0.2], False),
        ("t_pilot", [4, 6, 8], True),
        ("pilot_lambda", [0.5, 2.0], True),
    ])
    def test_scenario_stream_keys(self, param, values, paired):
        # A sweep of t_pilot or pilot_lambda, which only the pilot baseline
        # reads, draws every value's trial j from the scenario stream of sweep
        # index 0, so pilot budgets meet the same channels; any other sweep
        # keys that stream by sweep index.
        cfg = tiny_config(trials=2)
        records = list(run_sweep(cfg, param, values, ("l3", "pilot")))
        want = []
        for si, value in enumerate(values):
            for trial in range(cfg.trials):
                rng = _stream(cfg.base_seed, 0 if paired else si, trial, "scenario")
                want += [build_scenario(replace(cfg, **{param: value}), rng).digest] * 2
        assert [r.scenario_digest for r in records] == want
        assert len(set(want)) == cfg.trials * (1 if paired else len(values))

    def test_empty_sweep_rejected(self, monkeypatch):
        monkeypatch.setattr("blindmimo.harness.build_scenario", None)
        with pytest.raises(ValueError, match="sweep of 'snr_db' has no values"):
            run_sweep(tiny_config(), "snr_db", [])
        with pytest.raises(ValueError, match="sweep of 'snr_db' has no values"):
            run_sweep(tiny_config(), "snr_db", (v for v in ()))
        with pytest.raises(ValueError, match="sweep of 'snr_db' has no values"):
            run_sweep(tiny_config(), "snr_db", np.array([]))

    def test_array_and_generator_sweeps_match_the_list(self):
        cfg = tiny_config(trials=2)
        want = [r.to_json() for r in run_sweep(cfg, "snr_db", [10.0, 20.0], ("l3", "pilot"))]
        for values in (np.array([10.0, 20.0]), (v for v in (10.0, 20.0))):
            assert [r.to_json() for r in run_sweep(cfg, "snr_db", values, ("l3", "pilot"))] == want

    def test_records_are_yielded_one_trial_at_a_time(self, monkeypatch):
        calls = []

        def counting(cfg, rng):
            calls.append(cfg)
            return build_scenario(cfg, rng)

        monkeypatch.setattr("blindmimo.harness.build_scenario", counting)
        records = run_sweep(tiny_config(), "snr_db", [10.0, 30.0])
        assert calls == []
        next(records)
        assert len(calls) == 1

    def test_base_seed_sweep_reaches_the_draws(self):
        def outcomes(records):  # the record fields a seed decides; wall_time is left out
            return [(r.scenario_digest, r.seed, json.loads(r.to_json())["metrics"]) for r in records]

        cfg = tiny_config(trials=2)
        swept_1 = outcomes(run_sweep(cfg, "base_seed", [1]))
        plain_1 = outcomes(run_sweep(replace(cfg, base_seed=1), "snr_db", [cfg.snr_db]))
        swept_2 = outcomes(run_sweep(cfg, "base_seed", [2]))
        assert swept_1 == plain_1
        for a, b in zip(swept_1, swept_2):
            assert a[0] != b[0] and a[1] != b[1] and a[2] != b[2]

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
        # Gradients scale with G^(-1/2) (about 1e5 here): rgd on preconditioned
        # log-distance blocks must still write no error record.
        cfg = tiny_config(k_users=4, n_h=64, t_len=40, trials=2, theta=0.1,
                          fading_model="log_distance",
                          solver=SolverOptions(max_iters=60, precondition=True))
        records = list(run_sweep(cfg, "snr_db", [20.0], ("rgd",)))
        assert len(records) == 2
        for r in records:
            assert r.error is None, r.error
            assert r.stop_reason in ("eta_tol", "obj_tol", "max_iters", "no_ascent")

    def test_rgd_reports_no_ascent_on_short_frames(self):
        # Preconditioned under log-distance fading, the Riemannian gradient
        # is huge: after one step even the 30th halving overshoots, so rgd
        # stops with no_ascent.  The polar step of solve never fails so.
        cfg = SystemConfig(k_users=8, t_len=40, n_h=256, theta=0.1, channel_model="bernoulli_gaussian",
                           fading_model="log_distance", trials=2, solver=SolverOptions(precondition=True))
        records = list(run_sweep(cfg, "snr_db", [10.0, 20.0, 30.0], ("l3", "rgd")))
        assert len(records) == 12
        for r in records:
            assert r.error is None, r.error
            if r.method == "rgd":
                assert r.stop_reason == "no_ascent" and r.metrics.iters == 1
            else:
                assert r.stop_reason != "no_ascent"
        for si, snr in enumerate((10.0, 20.0, 30.0)):
            cfg_i = replace(cfg, snr_db=snr)
            sc = build_scenario(cfg_i, _stream(cfg.base_seed, si, 0, "scenario"))
            pair = detector.precondition(sc.y_bar, cfg.k_users)
            _, tr = detector.riemannian_gd_baseline(pair, sc.g_diag, cfg.solver, np.random.default_rng(si))
            assert (tr.stop_reason, tr.iters_run, tr.n_evals) == ("no_ascent", 1, 33)

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

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=small_configs())
    @example(cfg=SystemConfig(k_users=1, n_h=2, t_len=8, theta=0.05, channel_model="bernoulli_gaussian",
                              snr_db=math.inf, t_pilot=1, trials=2, base_seed=0))
    def test_every_trial_is_a_record(self, cfg):
        # A data-dependent failure is a RankDeficientError record, never an
        # aborted sweep.  In the example each noiseless block is all zero
        # with probability 0.95^2: its channel draw has no nonzero entry.
        records = list(run_sweep(cfg, "theta", [cfg.theta], harness.KNOWN_METHODS))
        assert len(records) == 4 * cfg.trials
        for r in records:
            r.to_json()  # strict JSON
            if r.error is None:
                assert r.metrics is not None and r.stop_reason != "error"
            else:
                assert r.error.startswith("RankDeficientError: "), r.error
                assert r.metrics is None and r.stop_reason == "error"

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

    @pytest.mark.parametrize("base_seed", [0, 7])
    def test_spread_zeniths_beat_the_default_pile_up(self, monkeypatch, base_seed):
        # With n_v = 1 a path's element phase is pi * n * cos(zenith).  The
        # default draw, zeniths uniform on [-pi/2, pi/2), puts cos(zenith) in
        # [0, 1] only, densest near 1, where users' paths pile up and collide.
        # Mapping the same draw z to cos(zenith) = 2z/pi, uniform on [-1, 1),
        # spreads them over the whole beamspace: with the same gains,
        # azimuths, frame and noise, l3's median EVM falls at 30 dB.
        real = blindmimo.channel._angular_channel

        def spread(paths, geom):
            return real([(g, az, np.arccos(2.0 * z / np.pi)) for g, az, z in paths], geom)

        cfg = SystemConfig(snr_db=30.0, trials=12, base_seed=base_seed)
        evm = {"default": [], "spread": []}
        for trial in range(cfg.trials):
            frames = []
            for name, build in (("default", real), ("spread", spread)):
                monkeypatch.setattr(blindmimo.channel, "_angular_channel", build)
                sc = build_scenario(cfg, _stream(base_seed, 0, trial, "scenario"))
                frames.append(sc.frame.x)
                rng = np.random.default_rng(_seed_sequence(base_seed, 0, trial, "l3"))
                evm[name].append(harness._run_method(cfg, sc, "l3", rng)["metrics"].evm)
            assert np.array_equal(*frames)
        assert np.median(evm["spread"]) < np.median(evm["default"])


class TestUnits:
    # G P is the one received gain: the SNR mapping and the pilot baseline
    # take P as the frame does.  The qam16 CI run's config at 30 dB (base
    # seed 1, 3 trials: its pilot SER was 0.10 at power 1, 0.60-0.64 at
    # power 4 and every trial an error record at 0.25, with the noise scaled
    # alike), the same config with one power per user, the short CI run's
    # log-distance preconditioned config at 20 dB, and the default config;
    # each with the noise variance its snr_db maps to at e = 0 (trial 0's,
    # on the short frame).
    QAM16 = SystemConfig(constellation="qam16", k_users=8, t_len=120, n_h=128, theta=0.2, snr_db=30.0,
                         channel_model="bernoulli_gaussian", trials=3, base_seed=1)
    POWERS = (0.5, 1.0, 2.0, 1.5, 0.75, 1.25, 3.0, 0.25)
    CONFIGS = {
        "qam16": (QAM16, 8 / (120 * 1e3)),
        "qam16_per_user_power": (replace(QAM16, power=POWERS), sum(POWERS) / (120 * 1e3)),
        "short": (SystemConfig(k_users=8, t_len=40, n_h=256, theta=0.1, channel_model="bernoulli_gaussian",
                               fading_model="log_distance", solver=SolverOptions(precondition=True), trials=2),
                  3.4e-13),
        "default": (SystemConfig(trials=2), 8 / (240 * 1e2)),
    }

    @pytest.mark.parametrize("noise", ["snr_db", "sigma_z2"])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_records_do_not_depend_on_the_units(self, config, noise):
        # At 4^e times the config's power, with its snr_db or with its sigma_z2
        # scaled by 4^e, Ybar scales by 2^e and nothing else changes, so every l3,
        # l4 and pilot record is e = 0's bit for bit, warning-free, but for
        # the config's fingerprint, the block's digest, normalized_objective
        # (null off unit power) and final_eta: W = Ybar A G^(-1/2) scales by
        # 2^e, so eta scales by 2^(p e) on a dense block and not at all on
        # the preconditioned pair, as in TestScaleFree.
        cfg, sigma_z2 = self.CONFIGS[config]

        def records(e):
            power = tuple(4.0 ** e * p for p in cfg.power) if isinstance(cfg.power, tuple) else 4.0 ** e
            over = dict(power=power, sigma_z2=sigma_z2 * 4.0 ** e if noise == "sigma_z2" else None)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sweep = run_sweep(replace(cfg, **over), "snr_db", [cfg.snr_db], ("l3", "l4", "pilot"))
                return [r.to_json() for r in sweep]

        ref = records(0)
        assert not [r for r in map(json.loads, ref) if r["method"] != "pilot" and r["error"]]
        for e in (-40, -1, 1, 40):
            for want, got in zip(map(json.loads, ref), map(json.loads, records(e)), strict=True):
                p = {"l3": 3, "l4": 4, "pilot": 0}[want["method"]] * (not cfg.solver.precondition)
                assert got.pop("final_eta") == math.ldexp(want.pop("final_eta"), p * e), (e, want)
                for r in (want, got):
                    del r["fingerprint"], r["scenario_digest"]
                if got["metrics"] is not None:
                    assert got["metrics"].pop("normalized_objective") is None
                    want["metrics"].pop("normalized_objective")
                assert got == want, e

    def test_subnormal_received_gains_decide_as_at_unit_power(self):
        # Log-distance gains (g_k ~ 1e-10) at power 1e-297 to 1e-305 put G P
        # at the edge of the float range and below it, among the subnormals.
        # The blind solvers and the pilot baseline each work in units of
        # their own, so every l3, l4 and pilot record decides as at power 1,
        # warning-free.  (The pilot baseline, unnormalized, once raised
        # ValueError from a NaN estimate at 1e-298 and LinAlgError from 1e-300.)
        cfg = SystemConfig(k_users=4, t_len=60, n_h=32, t_pilot=8, channel_model="bernoulli_gaussian",
                           fading_model="log_distance", snr_db=20.0, trials=3, base_seed=99)

        def outcomes(power):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sweep = run_sweep(replace(cfg, power=power), "snr_db", [cfg.snr_db], ("l3", "l4", "pilot"))
                return [(r.method, r.stop_reason, r.error, r.metrics and (r.metrics.ser, r.metrics.ber))
                        for r in sweep]

        ref = outcomes(1.0)
        assert [r[1] for r in ref].count("error") == 1  # trial 1's pilot zeroes a weak user at every power
        for power in (1e-297, 1e-298, 1e-300, 1e-305):
            assert outcomes(power) == ref, power


@pytest.mark.parametrize("over, message", [
    ({"evm": -0.1}, "evm must be nonnegative"),
    ({"ser": 1.5}, r"ser must lie in \[0, 1\]"),
    ({"ser": -0.25}, r"ser must lie in \[0, 1\]"),
], ids=["evm_negative", "ser_above_1", "ser_negative"])
def test_trial_metrics_reject_impossible_values(over, message):
    # A ValueError, not a RankDeficientError: run_sweep lets it propagate.
    fields = {"evm": 0.1, "ser": 0.0, "ber": 0.0, "rate": 1.0, "normalized_objective": None, "iters": 3}
    with pytest.raises(ValueError, match=message) as info:
        TrialMetrics(**{**fields, **over})
    assert type(info.value) is ValueError


def asdict_json(rec):
    """A record's line built from ``dataclasses.asdict``, the reference ``to_json`` must equal."""
    d = asdict(rec)
    if d["metrics"] is not None:
        d["metrics"].pop("wall_time")
    d["final_eta"] = d["final_eta"] if math.isfinite(d["final_eta"]) else None
    return json.dumps(d, sort_keys=True, separators=(",", ":"), allow_nan=False)


class TestEmitReport:
    def test_to_json_matches_asdict_reference(self):
        cfg = tiny_config(trials=1, t_pilot=8, pilot_lambda=0.5)
        l3, pilot = run_sweep(cfg, "snr_db", [20.0], ("l3", "pilot"))
        failed = replace(l3, metrics=None, stop_reason="error", final_eta=float("nan"),
                         error="RankDeficientError: reprojected estimate has an all-zero row")
        assert pilot.error is None and pilot.metrics is not None
        for rec in (l3, pilot, failed):
            assert rec.to_json() == asdict_json(rec)
        assert '"final_eta":null' in failed.to_json() and '"metrics":null' in failed.to_json()

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

    def test_t_quantile_matches_scipy(self):
        # The in-package quantile against scipy.special.stdtrit, a test-only
        # oracle: every df to 200, where Newton's method runs, and log-spaced
        # df to 1e6, where the expansion alone answers.
        dfs = np.unique(np.r_[np.arange(1, 201), np.round(np.logspace(0, 6, 120))].astype(int))
        got = np.array([harness._t975(int(df)) for df in dfs])
        assert np.abs(got / special.stdtrit(dfs, 0.975) - 1).max() <= 1e-13

    def test_one_value_has_zero_half_width(self):
        assert harness._ci95_halfwidth(np.array([0.3])) == 0.0

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


class TestEmitExperiments:
    def test_convergence_files_and_strict_summary(self, tmp_path):
        res = {"upper_bound": 2.0, "sigma_z2": 0.01, "mean_curve": np.array([0.25, 0.5]),
               "level": 0.9, "trials": 3}
        results = {"b": {**res, "median_iters_to_level": math.inf},
                   "a": {**res, "median_iters_to_level": 1.0}}
        paths = emit_convergence(results, tmp_path / "out")
        assert paths == [str(tmp_path / "out" / n) for n in
                         ("plot_convergence_b.dat", "plot_convergence_a.dat", "convergence_summary.json")]
        assert (tmp_path / "out" / "plot_convergence_b.dat").read_text() == (
            "# iteration mean_normalized_objective\n0 0.25\n1 0.5\n")
        summary = json.loads((tmp_path / "out" / "convergence_summary.json").read_text(),
                             parse_constant=lambda name: pytest.fail(f"not strict JSON: {name}"))
        assert summary["b"] == {"upper_bound": 2.0, "sigma_z2": 0.01, "level": 0.9, "trials": 3,
                                "median_iters_to_level": None}
        assert summary["a"]["median_iters_to_level"] == 1.0

    def test_concentration_file_per_k_in_row_order(self, tmp_path):
        rows = run_concentration_experiment([8, 4], [36, 54], 0.1, 100, base_seed=3)
        paths = emit_concentration(rows, tmp_path)
        assert paths == [str(tmp_path / "plot_concentration_k8.dat"),
                         str(tmp_path / "plot_concentration_k4.dat")]
        table = np.loadtxt(paths[1])
        want = [[r["t_len"], r["empirical"], r["theoretical"], r["crossover_t"]]
                for r in rows if r["k_users"] == 4]
        assert table.tolist() == want


class TestMedian:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool + [0.0, -0.0, math.inf, -math.inf]),
                              min_size=1, max_size=64)))
    @example(values=[math.inf, -math.inf])
    def test_matches_numpy_median_bit_for_bit(self, values):
        # A few values drawn many times: repeats, signed zeros, infinities, NaN.
        # inf and -inf in the middle average to NaN with numpy's "invalid value"
        # warning, so the warnings must match as well as the bits.
        want = self._median_and_warnings(np.median, values)
        assert self._median_and_warnings(harness._median, values) == want
        assert self._median_and_warnings(harness._median, np.array(values)) == want

    @staticmethod
    def _median_and_warnings(median, values):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bits = np.float64(median(values)).tobytes()
        return bits, [(w.category, str(w.message)) for w in caught]


class TestConcentrationExperiment:
    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            run_concentration_experiment([4], [50], 0.1, 50)

    @pytest.mark.parametrize("t_list, delta_sq, message", [
        ([50], -1.0, "delta_sq"), ([50], 0.0, "delta_sq"), ([50], math.inf, "delta_sq"),
        ([50], math.nan, "delta_sq"), ([36, 0], 0.1, "t_len"), ([], 0.1, "t_list"),
    ])
    def test_inputs_that_cannot_work_rejected(self, t_list, delta_sq, message):
        with pytest.raises(ValueError, match=message):
            run_concentration_experiment([4], t_list, delta_sq, 100)

    def test_unknown_k_rejected_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "concentration_statistic",
                            lambda x: calls.append(x) or 0.0)
        with pytest.raises(ValueError, match="no curve constant for K=5"):
            run_concentration_experiment([4, 5], [36], 0.1, 100)
        assert calls == []

    def test_negative_seed_rejected_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "concentration_statistic",
                            lambda x: calls.append(x) or 0.0)
        with pytest.raises(ValueError, match="base_seed must be nonnegative"):
            run_concentration_experiment([4], [36], 0.1, 100, base_seed=-1)
        assert calls == []

    @pytest.mark.parametrize("k_list, t_list, message", [
        ([4, 4], [36], "k_list repeats 4"), ([8, 4, 8], [36], "k_list repeats 8"),
        ([4], [36, 54, 36], "t_list repeats 36"),
    ])
    def test_repeated_k_or_t_rejected_before_any_trial(self, monkeypatch, k_list, t_list, message):
        calls = []
        monkeypatch.setattr(harness, "concentration_statistic",
                            lambda x: calls.append(x) or 0.0)
        with pytest.raises(ValueError, match=message):
            run_concentration_experiment(k_list, t_list, 0.1, 100)
        assert calls == []

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
                           channel_model="bernoulli_gaussian", sigma_z2=1e-4, trials=6, base_seed=0,
                           solver=SolverOptions(max_iters=100))
        out = run_convergence_experiment({"base": cfg})
        finals = [tr[-1] for tr in out["base"]["traces"]]
        for tr in out["base"]["traces"]:
            assert np.all(np.diff(tr) >= -1e-12)
        # The expected level is reachable up to the per-realization spread of
        # the channel's spike mass (about 9% rel. std at this size).
        assert np.median(finals) >= 0.9
        assert min(finals) >= 0.6

    def test_smaller_theta_is_not_slower(self):
        cfg = SystemConfig(k_users=4, t_len=60, n_h=128, n_v=1, theta=0.3,
                           channel_model="bernoulli_gaussian", sigma_z2=1e-4, trials=12, base_seed=3,
                           solver=SolverOptions(max_iters=100))
        out = run_convergence_experiment({"base": cfg, "half": replace(cfg, theta=0.15)})
        med = {n: r["median_iters_to_level"] for n, r in out.items()}
        assert med["half"] <= med["base"]

    @pytest.mark.parametrize("over", [
        {"solver": SolverOptions(precondition=True)},
        {"fading_model": "log_distance"},
        {"power": 2.0},
    ])
    def test_ignored_fields_rejected(self, over):
        # The experiment solves with unit fading and power and no preconditioning.
        cfg = SystemConfig(k_users=4, t_len=60, n_h=64, n_v=1, theta=0.2,
                           channel_model="bernoulli_gaussian", sigma_z2=1e-3, trials=1, **over)
        with pytest.raises(ValueError, match="must keep their defaults"):
            run_convergence_experiment({"base": cfg})

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        # Each variant runs its own config's trials, which the config checks.
        with pytest.raises(ValueError, match="trials must be positive"):
            SystemConfig(k_users=4, t_len=60, n_h=64, n_v=1, theta=0.2,
                         channel_model="bernoulli_gaussian", sigma_z2=1e-3, trials=trials)

    def test_each_variant_runs_its_own_trials_and_seed(self):
        base = SystemConfig(k_users=4, t_len=60, n_h=64, n_v=1, theta=0.2,
                            channel_model="bernoulli_gaussian", sigma_z2=1e-3, trials=2,
                            solver=SolverOptions(max_iters=40))
        out = run_convergence_experiment(convergence_variants(
            base, {"more": {"trials": 3}, "reseeded": {"base_seed": 5}}))
        assert [len(r["traces"]) for r in out.values()] == [2, 3, 2]
        assert [r["trials"] for r in out.values()] == [2, 3, 2]
        # The same seed shares the per-trial streams; another seed draws anew.
        for trial in range(2):
            assert np.array_equal(out["more"]["traces"][trial], out["base"]["traces"][trial])
            assert not np.array_equal(out["reseeded"]["traces"][trial], out["base"]["traces"][trial])

    def test_summary_matches_the_traces(self):
        cfg = SystemConfig(k_users=4, t_len=60, n_h=64, n_v=1, theta=0.2,
                           channel_model="bernoulli_gaussian", sigma_z2=1e-3, trials=9, base_seed=2,
                           solver=SolverOptions(max_iters=80))
        r = run_convergence_experiment({"base": cfg}, level=0.8)["base"]
        traces = r["traces"]
        assert len({len(t) for t in traces}) > 1  # some traces stop early and are held
        longest = max(len(t) for t in traces)
        want = [np.mean([t[min(j, len(t) - 1)] for t in traces]) for j in range(longest)]
        assert r["mean_curve"].tolist() == want
        assert r["median_iters_to_level"] == np.median([_iterations_to_level(t, 0.8) for t in traces])
        assert (r["level"], r["trials"]) == (0.8, 9)

    @pytest.mark.parametrize("name", ["a/b", "a\0b"])
    def test_file_unsafe_variant_names_rejected_before_any_trial(self, monkeypatch, name):
        cfg = SystemConfig(k_users=4, t_len=60, n_h=64, n_v=1, theta=0.2,
                           channel_model="bernoulli_gaussian", sigma_z2=1e-3, trials=2)
        calls = []
        monkeypatch.setattr(detector, "solve", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="path separator or NUL"):
            run_convergence_experiment({"base": cfg, name: cfg})
        assert calls == []

    def test_default_variants(self):
        base = SystemConfig(k_users=5, theta=0.2, snr_db=15.0,
                            channel_model="bernoulli_gaussian")
        for overrides in (None, {}):
            v = convergence_variants(base, overrides)
            assert list(v) == ["base", "theta_half", "k_half", "noise_tenth"]
            assert v["base"] is base
            assert (v["theta_half"].theta, v["k_half"].k_users) == (0.1, 2)
            assert (v["noise_tenth"].snr_db, v["noise_tenth"].sigma_z2) == (25.0, None)
        v = convergence_variants(replace(base, sigma_z2=0.05))
        assert (v["noise_tenth"].snr_db, v["noise_tenth"].sigma_z2) == (15.0, 0.005)
        v = convergence_variants(base, {"big": {"n_h": 512}})
        assert list(v) == ["base", "big"]
        assert v["big"] == replace(base, n_h=512)

    def test_solver_override_keeps_the_options_it_does_not_name(self):
        # A variant's fields are overrides, and so are a solver map's options;
        # null still means the defaults, and a value that is not a map fails by name.
        base = SystemConfig(channel_model="bernoulli_gaussian",
                            solver=SolverOptions(max_iters=120, eta_tol=1e-9))
        v = convergence_variants(base, {"short": {"solver": {"max_iters": 10}}, "plain": {"solver": None}})
        assert v["short"].solver == SolverOptions(max_iters=10, eta_tol=1e-9)
        assert v["plain"].solver == SolverOptions()
        with pytest.raises(ValueError, match="solver must be null or a map of option names to values, got 5"):
            convergence_variants(base, {"x": {"solver": 5}})

    def test_override_named_base_rejected(self):
        # It would replace the config itself: only theta = 0.05 would run, under the name base.
        base = SystemConfig(k_users=4, t_len=60, n_h=64, theta=0.2, sigma_z2=0.001,
                            channel_model="bernoulli_gaussian")
        with pytest.raises(ValueError, match="'base'"):
            convergence_variants(base, {"base": {"theta": 0.05}})

    @pytest.mark.parametrize("overrides, message", [
        ([1], r"variants must be null or a map of names to config overrides, got \[1\]"),
        ([], r"variants must be null or a map of names to config overrides, got \[\]"),
        ({"x": 5}, r"variants \['x'\] must each be a map of config fields to values"),
        ({"x": 5, "half": {"theta": 0.1}, "y": [1]}, r"variants \['x', 'y'\] must each be a map"),
    ], ids=["list", "empty_list", "int_variant", "two_bad_variants"])
    def test_overrides_that_are_not_maps_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            convergence_variants(SystemConfig(channel_model="bernoulli_gaussian"), overrides)

    def test_iterations_to_level_censoring(self):
        assert _iterations_to_level(np.array([0.1, 0.5, 0.95]), 0.9) == 2
        assert math.isinf(_iterations_to_level(np.array([0.1, 0.2]), 0.9))


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


def test_import_does_not_load_scipy_stats(tmp_path):
    # Loading scipy.stats nearly doubled the package's import time, and
    # scipy.linalg, which preconditioning once imported for zheevr, loaded a
    # second OpenBLAS.  The import, a dense sweep, preconditioned sweeps at
    # T = 40 (the full zheevd) and T = 240 (the subspace iteration), and
    # their reports load no SciPy module at all.
    src = os.path.dirname(os.path.dirname(blindmimo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"""
import json, sys, blindmimo
def loaded():
    return json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(loaded())
for i, (t_len, solver) in enumerate(((240, {{}}), (40, {{"precondition": True}}), (240, {{"precondition": True}}))):
    cfg = blindmimo.SystemConfig.from_dict({{"t_len": t_len, "trials": 2, "solver": solver}})
    records = list(blindmimo.run_sweep(cfg, "snr_db", [20.0], ["l3"]))
    assert not any(r.error for r in records), records
    blindmimo.emit_report(records, {str(tmp_path)!r} + f"/run{{i}}")
    print(loaded())
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert [json.loads(line) for line in out.stdout.splitlines()] == [[]] * 4
    assert os.path.exists(tmp_path / "run2" / "trials.jsonl")
