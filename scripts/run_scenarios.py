#!/usr/bin/env python3
"""Reproduce the bundled demo scenarios in one go.

Writes, under out/scenarios/:
  equilibrium/      steady profiles and summary
  open_loop_fq/     uncontrolled orbits (both solvers)
  control_a_fq/     gradient feedback, prey-surplus start
  control_a_sq/     gradient feedback, predator-surplus start (u dips negative)
  control_b_fq/     saturated feedback, prey-surplus start
  control_b_sq/     saturated feedback, predator-surplus start (u stays positive)
  roa_gradient/         region and level set for the gradient feedback
  roa_saturated/         region and level set for the saturated feedback

Each scenario is one of the bundled configs/*.ini plus the keys it changes,
written next to its outputs as _<name>.ini.  The runs take n_cells from the
configs; pass --fast for a quick look at n_cells = 100.
"""
import argparse
import configparser
import sys
from pathlib import Path

from predprey.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (name, command, bundled config, the keys the scenario changes in it)
SCENARIOS = [
    ("equilibrium", "equilibrium", "default", {}),
    ("open_loop_fq", "simulate", "open_loop_fq", {}),
    ("control_a_fq", "simulate", "default", {}),
    ("control_a_sq", "simulate", "default", {"simulation": {"ic": "SQ"}}),
    ("control_b_fq", "simulate", "control_b_sq", {"simulation": {"ic": "FQ"}}),
    ("control_b_sq", "simulate", "control_b_sq", {}),
    ("roa_gradient", "roa", "default", {}),
    ("roa_saturated", "roa", "control_b_sq", {}),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/scenarios")
    parser.add_argument("--fast", action="store_true", help="run at n_cells = 100")
    args = parser.parse_args()
    root = Path(args.out)
    root.mkdir(parents=True, exist_ok=True)

    for name, command, base, changes in SCENARIOS:
        ini = configparser.ConfigParser(interpolation=None)
        with open(CONFIGS / f"{base}.ini", encoding="utf-8") as fh:
            ini.read_file(fh)
        ini.read_dict(changes)
        if args.fast:
            ini["model"]["n_cells"] = "100"
        cfg_path = root / f"_{name}.ini"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            ini.write(fh)
        print(f"== {name} ==")
        rc = cli_main([command, "--config", str(cfg_path), "--out", str(root / name), "--plot"])
        if rc != 0:
            print(f"scenario {name} failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"all scenarios written under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
