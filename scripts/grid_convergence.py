#!/usr/bin/env python3
"""Grid-convergence study: renewal exponent, equilibrium values, and the
cross-solver discrepancy, at a sequence of resolutions.

Prints a table and writes convergence.csv to --out.
"""
import argparse
from pathlib import Path

import numpy as np

from predprey import AgeGrid, build_kernels, build_setup, cross_validate
from predprey.cli import write_csv
from predprey.controllers import ControllerSpec
from predprey.simulate import ICSpec, SimConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/convergence")
    parser.add_argument("--cells", default="50,100,200,400,800")
    args = parser.parse_args()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cells = [int(c) for c in args.cells.split(",")]

    rows = []
    for n in cells:
        grid = AgeGrid(A=1.0, n_cells=n)
        kernels = build_kernels(0.5, 3.0, 0.4, 0.5, 3.0, 0.4, grid)
        setup = build_setup(kernels, 0.15)
        eq = setup.eq
        disc = cross_validate(
            setup,
            SimConfig(t_final=5.0, controller=ControllerSpec(kind="open_loop"),
                      ic=ICSpec(kind="FQ")),
        )
        rows.append((n, eq.zeta[0], eq.lambda1, eq.lambda2,
                     eq.x0_star[0], eq.x0_star[1], disc))
        print(f"n={n:5d}  zeta={eq.zeta[0]:.8f}  lambda=({eq.lambda1:.6f}, "
              f"{eq.lambda2:.6f})  x*(0)=({eq.x0_star[0]:.4f}, {eq.x0_star[1]:.4f})  "
              f"solver discrepancy={disc:.3e}")

    cols = list(zip(*rows))
    write_csv(
        outdir / "convergence.csv",
        ["n_cells", "zeta", "lambda1", "lambda2", "x1_star_0", "x2_star_0",
         "cross_solver_discrepancy"],
        [np.array(c) for c in cols],
    )
    print(f"written to {outdir / 'convergence.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
