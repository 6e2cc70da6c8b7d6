"""One blind detection run, dissected.

Builds a QPSK frame for four users, pushes it through a sparse
Bernoulli-Gaussian channel with mild noise, and recovers the symbols from
the received block alone.  Along the way it prints the solver's objective
trajectory, the first-order optimality gap, the recovered phase/permutation,
and the final symbol error rate on the payload.
"""

import numpy as np

import blindmimo as bm

K, T, M, THETA, SNR_DB = 4, 100, 256, 0.1, 25.0


def main():
    rng = np.random.default_rng(42)
    c = bm.build_constellation("qpsk")
    frame = bm.build_frame(K, T, c, rng)
    chan = bm.bernoulli_gaussian_channel(M, K, THETA, rng)
    g = np.ones(K)
    sigma = bm.snr_to_noise_variance(SNR_DB, K, T)
    y_bar = bm.synthesize_received(chan, frame.x, g, g, sigma, rng)
    theta_effective = np.mean(np.abs(chan) > 0.01 * np.abs(chan).max())  # above 1% of peak
    print(f"channel: {M}x{K}, {np.count_nonzero(chan)} nonzero entries "
          f"(theta_effective {theta_effective:.3f}), noise variance {sigma:.2e}")

    res = bm.detect(y_bar, g, frame.meta, c, bm.SolverOptions(), rng)
    tr = res.trace
    print(f"\nsolver stopped after {tr.iters_run} steps ({tr.stop_reason}), "
          f"final eta {tr.final_eta:.2e}")
    print("objective trajectory (every 2nd iterate):")
    for j in range(0, len(tr.objective_per_iter), 2):
        bar = "#" * int(40 * tr.objective_per_iter[j] / tr.objective_per_iter[-1])
        print(f"  iter {j:3d}  {tr.objective_per_iter[j]:10.3f}  {bar}")

    print(f"\nphase corrections applied: "
          f"{np.round(np.angle(res.resolution.phase_corrections), 3)}")
    print(f"row assignment (solver row -> user): {res.resolution.permutation}")
    start = frame.payload_start
    ser = bm.symbol_error_rate(res.symbol_indices[:, start:],
                               frame.symbol_indices[:, start:])
    print(f"\nEVM {bm.evm(res.x_hat, frame.x):.4f}   payload SER {ser:.4f}   "
          f"blind rate {bm.achievable_rate_blind(res.x_hat, frame.x, T):.2f} bit/s/Hz")


if __name__ == "__main__":
    main()
