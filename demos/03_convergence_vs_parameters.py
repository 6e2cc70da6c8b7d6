"""Which system parameters make the solver converge faster?

Runs the fixed-point iteration on Bernoulli-Gaussian instances whose frames
have exactly orthonormal rows, normalizes each objective trajectory by the
closed-form expected maximum, and compares a base configuration against
the default variants: half the sparsity level, half the users, and a tenth
of the noise variance.  Smaller theta, K, or noise should not slow convergence.
"""

import os

from blindmimo import SolverOptions, SystemConfig
from blindmimo.harness import convergence_variants, emit_convergence, run_convergence_experiment

OUT_DIR = os.path.join(os.path.dirname(__file__), "output", "convergence")


def main():
    # A large array keeps the normalizer honest: at small M the solver can
    # overshoot the expected level by fitting noise, which blurs the
    # noise-variance comparison.
    base = SystemConfig(
        k_users=8, t_len=200, n_h=1024, n_v=1, theta=0.2,
        channel_model="bernoulli_gaussian", sigma_z2=0.05, trials=20, base_seed=1,
        solver=SolverOptions(max_iters=120, eta_tol=1e-9, obj_rel_tol=1e-12),
    )
    out = run_convergence_experiment(convergence_variants(base))

    print(f"{'variant':>12} {'median iters to 0.9':>20} {'mean final level':>17}")
    for name, r in out.items():
        # The curve holds each stopped trace at its last value, so its end is the mean final level.
        print(f"{name:>12} {r['median_iters_to_level']:>20.1f} {r['mean_curve'][-1]:>17.3f}")
    for path in emit_convergence(out, OUT_DIR):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
