"""How fast do random frames acquire orthonormal rows?

The blind detector treats the conjugate-transposed frame as a point on the
Stiefel manifold.  That is justified by a concentration phenomenon: for
i.i.d. unit-power symbols scaled by 1/sqrt(T), the Gram matrix X X^H
approaches the identity exponentially fast in the frame length T.

This script measures the frequency of ||X X^H - I||_F / sqrt(K) exceeding
sqrt(0.1) for QPSK frames and overlays the exponential tail envelope
2 exp(-(delta sqrt(T)/C - sqrt(K))^2) with fitted constants C = 0.416 (K=4)
and C = 0.464 (K=8).
"""

import os

from blindmimo import emit_concentration, run_concentration_experiment

OUT_DIR = os.path.join(os.path.dirname(__file__), "output", "concentration")


def main():
    t_grid = [20, 30, 45, 65, 90, 120, 160]
    rows = run_concentration_experiment([4, 8], t_grid, delta_sq=0.1,
                                        trials=1000, base_seed=0)
    print(f"{'K':>3} {'T':>5} {'empirical':>10} {'envelope':>10} {'crossover T':>12}")
    for r in rows:
        print(f"{r['k_users']:>3} {r['t_len']:>5} {r['empirical']:>10.4f} "
              f"{min(r['theoretical'], 1.0):>10.4f} {r['crossover_t']:>12.1f}")

    for path in emit_concentration(rows, OUT_DIR):
        print(f"wrote {path}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(6, 4))
        for k, marker in ((4, "o"), (8, "s")):
            sub = [r for r in rows if r["k_users"] == k]
            t = [r["t_len"] for r in sub]
            ax.semilogy(t, [max(r["empirical"], 1e-4) for r in sub],
                        marker + "-", label=f"empirical K={k}")
            ax.semilogy(t, [min(r["theoretical"], 1.0) for r in sub],
                        "--", label=f"envelope K={k}")
        ax.set_xlabel("frame length T")
        ax.set_ylabel("Pr[statistic > sqrt(0.1)]")
        ax.legend()
        fig.tight_layout()
        png = os.path.join(OUT_DIR, "concentration.png")
        fig.savefig(png, dpi=130)
        print(f"wrote {png}")
    except ImportError:
        print("matplotlib not available; skipped the figure")


if __name__ == "__main__":
    main()
