import math

import numpy as np
import pytest

from blindmimo import (
    GAMMA1,
    achievable_rate_blind,
    achievable_rate_training,
    bernoulli_gaussian_channel,
    bit_error_rate,
    evm,
    random_stiefel,
    symbol_error_rate,
    theoretical_objective_bound,
)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


class TestEvm:
    def test_perfect(self):
        x = crandn(np.random.default_rng(0), 3, 10)
        assert evm(x, x) == 0.0

    def test_zero_estimate(self):
        x = crandn(np.random.default_rng(1), 3, 10)
        assert evm(np.zeros_like(x), x) == pytest.approx(1.0)

    def test_relative_scaling_identity(self):
        x = crandn(np.random.default_rng(2), 4, 12)
        assert evm(x * 1.1, x) == pytest.approx(0.01, rel=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = crandn(rng, 5, 8)
        xh = x + 0.1 * crandn(rng, 5, 8)
        perm = rng.permutation(5)
        assert evm(xh[perm], x[perm]) == pytest.approx(evm(xh, x))

    def test_zero_row_rejected(self):
        x = np.zeros((2, 4), complex)
        x[0] = 1.0
        with pytest.raises(ValueError):
            evm(x, x)


class TestRates:
    def test_unit_sinr_hand_value(self):
        rng = np.random.default_rng(0)
        x = crandn(rng, 8, 240)
        x_hat = x + 1j * x  # per-row error energy equals signal energy
        want = 8 * (1 - 1 / 240) * 1.0 - 8 * 3 / 240
        assert achievable_rate_blind(x_hat, x, 240) == pytest.approx(want, rel=1e-12)

    def test_blind_rate_hand_arithmetic(self):
        # K=8, T=240, per-row SINR exactly 100.
        rng = np.random.default_rng(1)
        x = crandn(rng, 8, 240)
        x_hat = x * 1.1  # error energy = 0.01 * signal energy
        want = 8 * (239 / 240) * math.log2(101) - 8 * 3 / 240
        assert achievable_rate_blind(x_hat, x, 240) == pytest.approx(want, rel=1e-12)

    def test_training_rate_hand_arithmetic(self):
        rng = np.random.default_rng(2)
        x = crandn(rng, 8, 240)
        x_hat = x * 1.1
        want = 8 * (234 / 240) * math.log2(101)
        assert achievable_rate_training(x_hat, x, 240, 6) == pytest.approx(want, rel=1e-12)

    def test_training_overhead_limits(self):
        rng = np.random.default_rng(3)
        x = crandn(rng, 4, 50)
        x_hat = x * 1.2
        no_overhead = achievable_rate_training(x_hat, x, 50, 0)
        assert no_overhead == pytest.approx(4 * math.log2(1 + 1 / 0.04), rel=1e-12)
        assert achievable_rate_training(x_hat, x, 50, 49) == pytest.approx(no_overhead / 50)
        with pytest.raises(ValueError):
            achievable_rate_training(x_hat, x, 50, 50)

    def test_blind_rate_below_overheadless(self):
        rng = np.random.default_rng(4)
        x = crandn(rng, 8, 100)
        x_hat = x + 0.1 * crandn(rng, 8, 100)
        assert achievable_rate_blind(x_hat, x, 100) < achievable_rate_training(x_hat, x, 100, 0)

    def test_perfect_recovery_stays_finite(self):
        x = crandn(np.random.default_rng(5), 2, 30)
        assert np.isfinite(achievable_rate_blind(x, x, 30))


class TestTheoreticalObjectiveBound:
    def test_noiseless_upper(self):
        _, upper = theoretical_objective_bound(256, 4, 0.1, 0.0)
        assert upper == pytest.approx(GAMMA1 * 256 * 4 * 0.1, rel=1e-12)

    def test_dense_noiseless_upper(self):
        _, upper = theoretical_objective_bound(64, 8, 1.0, 0.0)
        assert upper == pytest.approx(GAMMA1 * 64 * 8, rel=1e-12)

    def test_lower_at_most_upper(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = rng.uniform(0.01, 1.0)
            r = rng.uniform(0.0, 2.0, 5)
            lower, upper = theoretical_objective_bound(100, 5, theta, r)
            assert lower <= upper + 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            theoretical_objective_bound(10, 2, 0.0, 0.1)
        with pytest.raises(ValueError):
            theoretical_objective_bound(10, 2, 0.5, -0.1)

    def test_planted_monte_carlo_small(self):
        # Light version of the scale check: expected objective at the
        # planted solution against the closed-form upper envelope.
        m, k, t, theta, sig = 600, 4, 80, 0.2, 0.01
        _, upper = theoretical_objective_bound(m, k, theta, np.full(k, sig))
        vals = []
        for trial in range(40):
            rng = np.random.default_rng(3000 + trial)
            x = random_stiefel(t, k, rng).a.conj().T
            chan = bernoulli_gaussian_channel(m, k, theta, rng)
            noise = crandn(rng, m, t) * np.sqrt(sig)
            y = chan @ x + noise
            w = y @ x.conj().T
            vals.append(float((np.abs(w) ** 3).sum()))
        assert abs(np.mean(vals) / upper - 1.0) < 0.05


class TestErrorRates:
    def test_identical(self):
        a = np.arange(12).reshape(3, 4)
        assert symbol_error_rate(a, a) == 0.0
        assert bit_error_rate(a % 2, a % 2) == 0.0

    def test_all_different(self):
        a = np.zeros((2, 5), int)
        assert symbol_error_rate(a, a + 1) == 1.0

    def test_single_flip_counting(self):
        true = np.zeros((10, 100), int)
        decided = true.copy()
        decided[3, 17] = 1
        assert symbol_error_rate(decided, true) == pytest.approx(0.001)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            symbol_error_rate(np.zeros((2, 3)), np.zeros((3, 2)))
