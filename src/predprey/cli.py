"""Command-line interface: equilibrium, simulate, roa, sweep, verify.

CSV files are the normative outputs (17 significant digits, deterministic);
JSON summaries accompany them, and ``--plot`` adds self-contained SVG charts.
Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 verification failure.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .acceptance import VerifyContext, run_all
from .config import SWEEP_AXES, RunConfig, kernels_from_model, load_config, override, sweep_axes
from .controllers import BoundController
from .errors import ConfigError, NumericalError, PredPreyError, VerificationFailure
from .lyapunov import (
    ANALYSIS_MODE,
    level_contour,
    lyap_config_for,
    roa_estimate,
    verify_level_set,
)
from .simulate import (
    SOLVERS,
    ICSpec,
    SimConfig,
    Setup,
    build_setup,
    simulate_direct,
    simulate_transformed,
    transformed_ic,
)


def _format_of(values: list) -> str:
    """The printf format of a column of one type, from its first value:
    strings as they are, integers in decimal, other numbers with 17
    significant digits."""
    first = values[0] if values else 0.0
    if isinstance(first, str):
        return "%s"
    if isinstance(first, int):
        return "%d"
    return "%.17g"


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """Write the columns under the header, each row by one printf template."""
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("CSV columns must share one length")
    values = [np.asarray(col).tolist() for col in columns]
    row = ",".join(map(_format_of, values)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(row * n % tuple(v for vals in zip(*values) for v in vals))


def write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_setup_from_config(cfg: RunConfig) -> Setup:
    return build_setup(kernels_from_model(cfg.model), cfg.equilibrium.u_star)


def ic_from_config(cfg: RunConfig) -> ICSpec:
    s = cfg.simulation
    if s.ic == "multiplier":
        return ICSpec(
            kind="multiplier",
            log_offset=(s.ic_log_offset_1, s.ic_log_offset_2),
            log_slope=(s.ic_log_slope_1, s.ic_log_slope_2),
        )
    return ICSpec(kind=s.ic)


def lyap_config_from(cfg: RunConfig, setup: Setup):
    """The controller's analysis (``lyap_config_for``) with the ``[lyapunov]``
    weights, or None; sigma is the certified ``Setup.sigma``, the value the
    recorded G use."""
    lb = cfg.lyapunov
    return lyap_config_for(cfg.controller, setup.eq, setup.sigma,
                           gamma1=lb.gamma1 or None, gamma2=lb.gamma2 or None,
                           varpi=lb.varpi or None)


def cmd_equilibrium(cfg: RunConfig, outdir: Path, plot: bool) -> int:
    setup = build_setup_from_config(cfg)
    eq, grid = setup.eq, setup.grid
    write_csv(
        outdir / "equilibrium.csv",
        ["a", "x1_star", "x2_star", "pi0_1", "pi0_2", "ktilde_1", "ktilde_2"],
        [grid.nodes, *eq.x_star, *setup.adj.pi0, *eq.ktilde],
    )
    zeta, x0_star = eq.zeta.tolist(), eq.x0_star.tolist()
    write_json(
        outdir / "equilibrium.json",
        {
            "zeta1": zeta[0],
            "zeta2": zeta[1],
            "u_star": eq.u_star,
            "lambda1": eq.lambda1,
            "lambda2": eq.lambda2,
            "x1_star_0": x0_star[0],
            "x2_star_0": x0_star[1],
            "feasible_u_interval": [0.0, min(zeta)],
            "sigma": list(setup.sigma),
            "kappa": list(setup.kappa),
            "A": grid.A,
            "n_cells": grid.n_cells,
        },
    )
    if plot:
        svgplot.line_chart(
            outdir / "equilibrium_profiles.svg",
            grid.nodes,
            [("x1_star", eq.x_star[0]), ("x2_star", eq.x_star[1])],
            "steady-state age profiles",
            "age",
            "density",
        )
    print(f"equilibrium written to {outdir} (zeta=({zeta[0]:.4f}, {zeta[1]:.4f}), "
          f"lambda=({eq.lambda1:.4f}, {eq.lambda2:.4f}))")
    return 0


def _checked_run(cfg: RunConfig, setup: Setup):
    """The run of ``cfg`` and its analysis, both checked before any march: the
    controller binds to the equilibrium, the analysis weights hold, and the
    start is valid for either solver.  A start that overflows, underflows or
    leaves the admissible set is a ``ConfigError`` naming its keys."""
    sim_cfg = SimConfig(
        t_final=cfg.simulation.t_final,
        controller=cfg.controller,
        ic=ic_from_config(cfg),
        record_every=cfg.simulation.record_every,
        snapshot_times=tuple(
            t for t in cfg.output.profile_times if t <= cfg.simulation.t_final
        ),
    )
    BoundController(sim_cfg.controller, setup.eq)
    lyap = lyap_config_from(cfg, setup)
    try:
        transformed_ic(sim_cfg.ic, setup)
    except (ValueError, NumericalError) as err:
        keys = f"ic = {sim_cfg.ic.kind}"
        if sim_cfg.ic.kind == "multiplier":
            keys += (f", ic_log_offset_1/2 = {sim_cfg.ic.log_offset}, "
                     f"ic_log_slope_1/2 = {sim_cfg.ic.log_slope}")
        raise ConfigError(f"[simulation] {keys} give no valid start: {err}") from None
    return sim_cfg, lyap


def _run_and_write(setup: Setup, sim_cfg: SimConfig, lyap, solver: str, outdir: Path,
                   suffix: str = "", plot: bool = False) -> dict:
    """March a run that ``_checked_run`` checked with ``solver``, record its V,
    write its files and return its summary: records, final |eta| and min u."""
    # the module globals, looked up at each call, so a wrapped solver is seen
    run = simulate_direct if solver == "direct" else simulate_transformed
    traj = run(setup, sim_cfg).finalize_lyapunov(setup.eq, lyap)
    _write_trajectory(outdir, setup, traj, suffix, plot)
    return {"records": len(traj.times), "final_eta_norm": float(np.linalg.norm(traj.eta[-1])),
            "min_u": float(traj.u.min())}


def _write_trajectory(outdir: Path, setup: Setup, traj, suffix: str, plot: bool):
    name = f"trajectory{suffix}.csv"
    write_csv(
        outdir / name,
        ["t", "eta1", "eta2", "u", "V0", "V1", "V", "G1", "G2"],
        [traj.times, traj.eta[:, 0], traj.eta[:, 1], traj.u, traj.V0, traj.V1,
         traj.V, traj.G1, traj.G2],
    )
    for idx, (_, x) in enumerate(traj.snapshots):
        write_csv(
            outdir / f"profiles{suffix}_t{idx}.csv",
            ["a", "x1", "x2", "x1_star", "x2_star"],
            [setup.grid.nodes, *x, *setup.eq.x_star],
        )
    if plot:
        svgplot.line_chart(
            outdir / f"eta_vs_t{suffix}.svg",
            traj.times,
            [("eta1", traj.eta[:, 0]), ("eta2", traj.eta[:, 1])],
            "log-abundance states",
            "t",
            "eta",
        )
        svgplot.line_chart(
            outdir / f"u_vs_t{suffix}.svg",
            traj.times,
            [("u", traj.u)],
            "dilution input",
            "t",
            "u",
        )
        for i, species in enumerate(("x1", "x2")):
            series = [(f"t={t_snap:g}", x[i]) for t_snap, x in traj.snapshots]
            if series:
                series.append(("steady state", setup.eq.x_star[i]))
                svgplot.line_chart(
                    outdir / f"profiles_{species}{suffix}.svg",
                    setup.grid.nodes,
                    series,
                    f"{species}(a, t) slices",
                    "age",
                    "density",
                )


def cmd_simulate(cfg: RunConfig, outdir: Path, plot: bool) -> int:
    setup = build_setup_from_config(cfg)
    solver = cfg.simulation.solver
    solvers = SOLVERS if solver == "both" else (solver,)
    sim_cfg, lyap = _checked_run(cfg, setup)
    for s in solvers:
        summary = _run_and_write(setup, sim_cfg, lyap, s, outdir,
                                 f"_{s}" if solver == "both" else "", plot)
        print(f"{s} run: {summary['records']} records, final |eta| = "
              f"{summary['final_eta_norm']:.3e}, min u = {summary['min_u']:.4f} -> {outdir}")
    return 0


def cmd_roa(cfg: RunConfig, outdir: Path, plot: bool) -> int:
    setup = build_setup_from_config(cfg)
    lyap = lyap_config_from(cfg, setup)
    if lyap is None:
        raise ConfigError(
            "roa needs an analysis mode, which follows the controller: set "
            f"controller.kind to one of {sorted(ANALYSIS_MODE)}"
        )
    result = roa_estimate(lyap, setup.eq)
    labels, e1s, e2s, vals = [], [], [], []
    for label, (eta, v1_vals) in result.pieces.items():
        labels.extend([label] * len(v1_vals))
        e1s.append(eta[:, 0])
        e2s.append(eta[:, 1])
        vals.append(v1_vals)
    write_csv(
        outdir / "roa.csv",
        ["piece", "eta1", "eta2", "V1"],
        [np.array(labels), np.concatenate(e1s), np.concatenate(e2s), np.concatenate(vals)],
    )
    contour = level_contour(result.c_star, lyap.eps, setup.eq)
    write_csv(
        outdir / "levelset.csv",
        ["eta1", "eta2"],
        [contour[:, 0], contour[:, 1]],
    )
    violations = verify_level_set(result, lyap, setup.eq)
    summary = {
        "mode": lyap.mode,
        "c_star": result.c_star,
        "argmin_eta": list(map(float, result.argmin_eta)),
        "active_constraint": result.active_piece,
        "H1": lyap.H1,
        "H2": lyap.H2,
        "gamma1": lyap.gamma1,
        "gamma2": lyap.gamma2,
        "membership_violations_400sq": violations,
    }
    if lyap.mode == "saturated":
        summary["varpi"] = lyap.varpi
        summary["phi_lower_bound"] = lyap.K
    write_json(outdir / "roa_summary.json", summary)
    if plot:
        curves = [("level set V1=c*", contour, "")]
        for label, (eta, _) in result.pieces.items():
            order = np.argsort(eta[:, 0] if label != "H1" else eta[:, 1])
            curves.append((label, eta[order], "4,3"))
        svgplot.plane_chart(
            outdir / "roa_plane.svg", curves, "constraint region and level set",
            "eta1", "eta2",
        )
    print(
        f"roa: c* = {result.c_star:.6f} on {result.active_piece}, "
        f"H1={lyap.H1:.4f}, H2={lyap.H2:.4f}, violations={violations} -> {outdir}"
    )
    return 0


def _sweep_worker(args) -> dict:
    setup, sim_cfg, lyap, solver, combo, outdir = args
    run_dir = Path(outdir)
    run_dir.mkdir(parents=True, exist_ok=True)
    return {**combo, "dir": str(run_dir), **_run_and_write(setup, sim_cfg, lyap, solver, run_dir)}


def cmd_sweep(cfg: RunConfig, outdir: Path) -> int:
    axes = sweep_axes(cfg)
    if not axes:
        raise ConfigError(
            f"sweep requires at least one list under [sweep] ({', '.join(SWEEP_AXES)})"
        )
    solver = cfg.simulation.solver
    if solver == "both":
        raise ConfigError("sweep writes one trajectory per combo: set [simulation] solver "
                          "to direct or transformed, not both")
    names = list(axes)
    combos = [dict(zip(names, values)) for values in itertools.product(*axes.values())]
    jobs = []
    setups: dict[float, Setup] = {}
    for idx, combo in enumerate(combos):
        updates: dict[str, dict] = {}
        for dotted, value in combo.items():
            section, key = dotted.split(".")
            updates.setdefault(section, {})[key] = value
        run_cfg = override(cfg, **updates)
        # every combo checks its controller, analysis and start before the
        # first run, and runs as checked here, on the Setup built here
        u_star = run_cfg.equilibrium.u_star
        if u_star not in setups:
            setups[u_star] = build_setup_from_config(run_cfg)
        slug = "_".join(f"{k.split('.')[1]}-{v}" for k, v in combo.items())
        jobs.append((setups[u_star], *_checked_run(run_cfg, setups[u_star]), solver, combo,
                     str(outdir / f"run_{idx:03d}_{slug}")))
    # a fork pool starts all of its workers at the first submit, so it gets
    # no more of them than there are jobs
    workers = min(cfg.sweep.workers or os.cpu_count() or 1, len(jobs))
    if workers > 1:
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_sweep_worker, jobs))
        except (OSError, concurrent.futures.process.BrokenProcessPool):
            rows = [_sweep_worker(job) for job in jobs]
    else:
        rows = [_sweep_worker(job) for job in jobs]
    keys = names + ["dir", "final_eta_norm", "min_u"]
    write_csv(
        outdir / "sweep_index.csv",
        keys,
        [np.array([row[k] for row in rows], dtype=object) for k in keys],
    )
    print(f"sweep: {len(rows)} runs -> {outdir}")
    return 0


def cmd_verify(cfg: RunConfig, outdir: Path) -> int:
    # the criteria have fixed targets on the reference scenario, at any n_cells
    reference = override(RunConfig(), model={"n_cells": cfg.model.n_cells})
    changed = [f"[{section}] {key}" for section in ("model", "equilibrium")
               for key, value in dataclasses.asdict(getattr(cfg, section)).items()
               if value != getattr(getattr(reference, section), key)]
    if changed:
        raise ConfigError(f"verify checks the reference scenario; {', '.join(changed)} "
                          "must keep their defaults (only [model] n_cells may change)")
    ctx = VerifyContext(n_cells=cfg.model.n_cells)
    results = run_all(ctx)
    for res in results:
        print(res.line())
    payload = {
        "n_cells": cfg.model.n_cells,
        "criteria": [
            {
                "id": res.cid,
                "name": res.name,
                "status": res.status,
                "passed": bool(res.passed),
                "skipped": bool(res.skipped),
                "detail": res.detail,
            }
            for res in results
        ],
        "all_passed": bool(all(r.passed for r in results)),
    }
    write_json(outdir / "verify_report.json", payload)
    if not payload["all_passed"]:
        raise VerificationFailure(
            "verification failed: "
            + ", ".join(r.cid for r in results if not r.passed)
        )
    print(f"all {len(results)} criteria passed -> {outdir / 'verify_report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predprey",
        description="Age-structured predator-prey simulation and dilution control design",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("equilibrium", "solve the renewal exponents and steady profiles"),
        ("simulate", "integrate the population under the configured feedback"),
        ("roa", "estimate the region-of-attraction level set"),
        ("sweep", "run a cartesian product of configurations"),
        ("verify", "run the acceptance checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="INI config path")
        p.add_argument("--out", type=str, default=None, help="output directory")
        if name in ("equilibrium", "simulate", "roa"):
            p.add_argument("--plot", action="store_true", help="write SVG charts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        outdir = Path(args.out) if args.out else Path(cfg.output.directory)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "equilibrium":
            return cmd_equilibrium(cfg, outdir, args.plot)
        if args.command == "simulate":
            return cmd_simulate(cfg, outdir, args.plot)
        if args.command == "roa":
            return cmd_roa(cfg, outdir, args.plot)
        if args.command == "sweep":
            return cmd_sweep(cfg, outdir)
        if args.command == "verify":
            return cmd_verify(cfg, outdir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except VerificationFailure as err:
        print(f"{err}", file=sys.stderr)
        return 4
    except PredPreyError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
