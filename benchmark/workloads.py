"""The three benchmark workloads: their configs, CLI commands and output files.

Each workload is one ``predprey`` CLI command on an INI config made from the
workload seed.  Seed 0 is the default scenario; other seeds move the inputs a
little within the workload's character and stay inside the feasible region.
"""
from __future__ import annotations

import random

NAMES = ("simulate-fine", "sweep-grid", "verify-gate")
COMMANDS = {"simulate-fine": "simulate", "sweep-grid": "sweep", "verify-gate": "verify"}

# Control-B gains of simulate-fine; eps also applies to every sweep combo.
EPS, BETA_B, DELTA = 0.01, 0.13, 0.2
SIM_U_STAR = 0.15
SWEEP_CONTROLLERS = ("control_a", "control_b", "measured")
SWEEP_ICS = ("FQ", "SQ")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def simulate_params(seed: int, smoke: bool = False) -> dict:
    """SQ (predator surplus) at seed 0; otherwise a multiplier start near it."""
    params = {
        "n_cells": 50 if smoke else 800,
        "t_final": 2.0 if smoke else 20.0,
        "profile_times": (0.0, 1.0, 2.0) if smoke else (0.0, 2.0, 5.0, 10.0, 20.0),
        "u_star": SIM_U_STAR,
    }
    if seed == 0:
        params["ic"] = None
    else:
        rng = random.Random(seed)
        d = [rng.uniform(-0.05, 0.05) for _ in range(4)]
        params["ic"] = {
            "ic_log_offset_1": -(1.0 + d[0]),
            "ic_log_offset_2": 1.0 + d[1],
            "ic_log_slope_1": -2.0 * (1.0 + d[2]),
            "ic_log_slope_2": 2.0 * (1.0 + d[3]),
        }
    return params


def sweep_params(seed: int, smoke: bool = False) -> dict:
    """u_star {0.12, 0.15} x beta {0.05, 0.10} at seed 0, jittered otherwise.

    Control B needs eps*lambda2 + beta < u_star with lambda2 < 1.06 here, so
    the largest beta stays at least 0.005 below the smallest u_star.
    """
    if seed == 0:
        u_stars, betas = (0.12, 0.15), (0.05, 0.10)
    else:
        rng = random.Random(seed)
        u_stars = (rng.uniform(0.118, 0.124), rng.uniform(0.145, 0.155))
        betas = (rng.uniform(0.045, 0.055), rng.uniform(0.095, 0.102))
    if smoke:
        return {"n_cells": 50, "t_final": 2.0, "controllers": ("control_a", "control_b"),
                "ics": ("SQ",), "u_stars": u_stars[:1], "betas": betas[:1],
                "record_every": 20}
    return {"n_cells": 200, "t_final": 20.0, "controllers": SWEEP_CONTROLLERS,
            "ics": SWEEP_ICS, "u_stars": u_stars, "betas": betas, "record_every": 20}


def config_text(workload: str, seed: int, smoke: bool = False, workers: int | None = None) -> str:
    """INI text for the workload; ``workers`` pins the sweep pool size."""
    if workload == "simulate-fine":
        p = simulate_params(seed, smoke)
        ic_lines = ["ic = SQ"] if p["ic"] is None else (
            ["ic = multiplier"] + [f"{k} = {_fmt(v)}" for k, v in p["ic"].items()]
        )
        lines = [
            "[model]", f"n_cells = {p['n_cells']}",
            "[equilibrium]", f"u_star = {_fmt(p['u_star'])}",
            "[controller]", "kind = control_b",
            f"eps = {_fmt(EPS)}", f"beta = {_fmt(BETA_B)}", f"delta = {_fmt(DELTA)}",
            "[simulation]", f"t_final = {_fmt(p['t_final'])}", *ic_lines,
            "solver = both", "record_every = 1",
            "[output]", "profile_times = " + ", ".join(_fmt(t) for t in p["profile_times"]),
        ]
    elif workload == "sweep-grid":
        p = sweep_params(seed, smoke)
        lines = [
            "[model]", f"n_cells = {p['n_cells']}",
            "[controller]", f"eps = {_fmt(EPS)}", f"delta = {_fmt(DELTA)}",
            "[simulation]", f"t_final = {_fmt(p['t_final'])}",
            f"record_every = {p['record_every']}",
            "[sweep]",
            "controller = " + ", ".join(p["controllers"]),
            "ic = " + ", ".join(p["ics"]),
            "u_star = " + ", ".join(_fmt(u) for u in p["u_stars"]),
            "beta = " + ", ".join(_fmt(b) for b in p["betas"]),
        ]
        if workers is not None:
            lines.append(f"workers = {workers}")
    elif workload == "verify-gate":
        # verify takes no seed: its criteria have fixed targets.
        lines = ["[model]", f"n_cells = {100 if smoke else 400}"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return "\n".join(lines) + "\n"


def floor_u_stars(workload: str, seed: int, smoke: bool = False) -> tuple[float, ...]:
    """Setpoints whose lambda2 the control-B floor check needs."""
    if workload == "simulate-fine":
        return (SIM_U_STAR,)
    if workload == "sweep-grid":
        return tuple(sweep_params(seed, smoke)["u_stars"])
    return ()


def work_items(workload: str, seed: int, smoke: bool = False) -> int:
    """Units of work one command completes: solver runs, sweep combos, criteria."""
    if workload == "simulate-fine":
        return 2
    if workload == "sweep-grid":
        p = sweep_params(seed, smoke)
        return len(p["controllers"]) * len(p["ics"]) * len(p["u_stars"]) * len(p["betas"])
    return 13
