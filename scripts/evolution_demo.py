#!/usr/bin/env python3
"""Evolve a smooth initial multiplicity profile with both backends and write
a comparison CSV: xi, u_matrix, u_spectral, |difference|.

The two routes are algorithmically independent (truncated Galerkin
exponential vs Mehler-Fock mode decay), so the difference column is an
end-to-end error estimate.
"""
import argparse
import sys

import numpy as np

from kab.evolution import (
    PROFILES,
    EvolutionState,
    default_xi_grid,
    evolve_matrix,
    evolve_spectral,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tau", type=float, default=1.0)
    ap.add_argument("--profile", choices=sorted(PROFILES), default="xi-sq")
    ap.add_argument("--points", type=int, default=96)
    ap.add_argument("--output", default="evolution_comparison.csv")
    args = ap.parse_args()

    xi = default_xi_grid(args.points)
    state = EvolutionState(
        tau=0.0, xi_grid=xi, u_values=PROFILES[args.profile](xi)
    )
    um = evolve_matrix(state, args.tau)
    us = evolve_spectral(state, args.tau)
    diff = np.abs(um.u_values - us.u_values)

    with open(args.output, "w") as fh:
        fh.write(f"# profile={args.profile} tau={args.tau:g}\n")
        fh.write("# xi,u_matrix,u_spectral,abs_diff\n")
        for row in zip(xi, um.u_values, us.u_values, diff):
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")

    mask = (xi >= 0.05) & (xi <= 0.95)
    rel = np.max(diff[mask]) / np.max(np.abs(um.u_values[mask]))
    print(f"wrote {args.output}; backend disagreement {rel:.3e} on xi in [0.05, 0.95]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
