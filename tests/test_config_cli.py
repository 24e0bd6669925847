import json

import numpy as np
import pytest

from predprey.cli import main
from predprey.config import effective_ini, load_config, override
from predprey.errors import ConfigError


BASE_INI = """
[model]
n_cells = 120

[simulation]
t_final = 2.0

[output]
profile_times = 0, 1, 2
"""


def test_defaults_materialize():
    cfg = load_config(text="", env={})
    assert cfg.model.A == 1.0
    assert cfg.model.n_cells == 400
    assert cfg.equilibrium.u_star == 0.15
    assert cfg.controller.kind == "control_a"
    assert cfg.simulation.ic == "FQ"


def test_env_override():
    cfg = load_config(text=BASE_INI, env={"PREDPREY_MODEL_N_CELLS": "64",
                                          "PREDPREY_CONTROLLER_KIND": "open_loop"})
    assert cfg.model.n_cells == 64
    assert cfg.controller.kind == "open_loop"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(text="[model]\nwidth = 3\n", env={})


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(text="[physics]\nA = 1\n", env={})


def test_choice_validation():
    with pytest.raises(ConfigError, match="must be one of"):
        load_config(text="[controller]\nkind = pid\n", env={})


def test_bad_scalar_reported():
    with pytest.raises(ConfigError, match="bad value"):
        load_config(text="[model]\nn_cells = many\n", env={})


def test_roundtrip_idempotent():
    cfg = load_config(text=BASE_INI, env={})
    emitted = effective_ini(cfg)
    cfg2 = load_config(text=emitted, env={})
    assert cfg == cfg2
    assert effective_ini(cfg2) == emitted


def test_override_helper():
    cfg = load_config(text="", env={})
    cfg2 = override(cfg, controller={"kind": "control_b", "eps": 0.01, "beta": 0.13})
    assert cfg2.controller.kind == "control_b"
    assert cfg.controller.kind == "control_a"  # original untouched


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_equilibrium_outputs(tmp_path, capsys):
    cfg_path = _write(tmp_path, "cfg.ini", BASE_INI)
    rc = main(["equilibrium", "--config", cfg_path, "--out", str(tmp_path / "eq")])
    assert rc == 0
    data = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())
    assert data["zeta1"] == pytest.approx(1.17, abs=0.01)
    header = (tmp_path / "eq" / "equilibrium.csv").read_text().splitlines()[0]
    assert header == "a,x1_star,x2_star,pi0_1,pi0_2,ktilde_1,ktilde_2"


def test_cli_infeasible_setpoint_exit_code(tmp_path, capsys):
    cfg_path = _write(tmp_path, "cfg.ini", "[equilibrium]\nu_star = 1.5\n[model]\nn_cells = 60\n")
    rc = main(["equilibrium", "--config", cfg_path, "--out", str(tmp_path / "eq")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "u_star" in err and "min(zeta1, zeta2)" in err


def test_cli_gain_constraint_exit_code(tmp_path, capsys):
    cfg_path = _write(
        tmp_path, "cfg.ini",
        "[model]\nn_cells = 60\n[controller]\nkind = control_a\nbeta = 0.01\n"
        "[simulation]\nt_final = 0.5\n",
    )
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "0.0416" in err  # the violated bound is echoed numerically


def test_cli_simulate_outputs_and_determinism(tmp_path):
    cfg_path = _write(tmp_path, "cfg.ini", BASE_INI)
    rc1 = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "s1"), "--plot"])
    rc2 = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "s2")])
    assert rc1 == 0 and rc2 == 0
    t1 = (tmp_path / "s1" / "trajectory.csv").read_bytes()
    t2 = (tmp_path / "s2" / "trajectory.csv").read_bytes()
    assert t1 == t2  # bitwise identical for identical configs
    lines = t1.decode().splitlines()
    assert lines[0] == "t,eta1,eta2,u,V0,V1,V,G1,G2"
    assert len(lines) == 2 + 2 * 120  # header + records at dt = 1/120
    for k in range(3):
        prof = tmp_path / "s1" / f"profiles_t{k}.csv"
        assert prof.exists()
        assert prof.read_text().splitlines()[0] == "a,x1,x2,x1_star,x2_star"
    assert (tmp_path / "s1" / "eta_vs_t.svg").exists()
    assert (tmp_path / "s1" / "u_vs_t.svg").exists()


def test_cli_simulate_open_loop_conserves_v0(tmp_path):
    # a pure-scaling start has no shape deviation, so V0 is conserved to
    # integrator accuracy; the FQ start adds a physical shape transient that
    # moves V0 by a few tenths of a percent before the histories settle
    cfg_path = _write(
        tmp_path, "cfg.ini",
        "[model]\nn_cells = 200\n[controller]\nkind = open_loop\n"
        "[simulation]\nt_final = 5\nic = multiplier\nic_log_offset_1 = 0.8\n"
        "ic_log_offset_2 = -0.8\n[output]\nprofile_times =\n",
    )
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "ol")]) == 0
    rows = np.loadtxt(tmp_path / "ol" / "trajectory.csv", delimiter=",", skiprows=1)
    v0 = rows[:, 4]
    assert np.max(np.abs(v0 - v0[0])) / v0[0] < 1e-3

    cfg_fq = _write(
        tmp_path, "fq.ini",
        "[model]\nn_cells = 200\n[controller]\nkind = open_loop\n"
        "[simulation]\nt_final = 5\n[output]\nprofile_times =\n",
    )
    assert main(["simulate", "--config", cfg_fq, "--out", str(tmp_path / "fq")]) == 0
    rows = np.loadtxt(tmp_path / "fq" / "trajectory.csv", delimiter=",", skiprows=1)
    v0 = rows[:, 4]
    assert np.max(np.abs(v0 - v0[0])) / v0[0] < 1e-2


def test_cli_simulate_both_solvers(tmp_path):
    cfg_path = _write(
        tmp_path, "cfg.ini",
        "[model]\nn_cells = 80\n[simulation]\nt_final = 1\nsolver = both\n"
        "[output]\nprofile_times =\n",
    )
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "trajectory_direct.csv").exists()
    assert (tmp_path / "b" / "trajectory_transformed.csv").exists()


def test_cli_roa_outputs(tmp_path):
    cfg_path = _write(tmp_path, "cfg.ini", "[model]\nn_cells = 120\n")
    rc = main(["roa", "--config", cfg_path, "--out", str(tmp_path / "roa"), "--plot"])
    assert rc == 0
    summary = json.loads((tmp_path / "roa" / "roa_summary.json").read_text())
    assert summary["mode"] == "gradient"
    assert summary["c_star"] > 0
    assert summary["membership_violations_400sq"] == 0
    assert summary["active_constraint"] in ("H1", "H2", "u_zero")
    level = (tmp_path / "roa" / "levelset.csv").read_text().splitlines()
    assert level[0] == "eta1,eta2"
    assert (tmp_path / "roa" / "roa.csv").exists()
    assert (tmp_path / "roa" / "roa_plane.svg").exists()


def test_cli_roa_saturated_has_hyperbola_piece(tmp_path):
    cfg_path = _write(
        tmp_path, "cfg.ini",
        "[model]\nn_cells = 120\n"
        "[controller]\nkind = control_b\neps = 0.01\nbeta = 0.13\ndelta = 0.2\n",
    )
    rc = main(["roa", "--config", cfg_path, "--out", str(tmp_path / "roa4")])
    assert rc == 0
    summary = json.loads((tmp_path / "roa4" / "roa_summary.json").read_text())
    assert summary["mode"] == "saturated"
    assert "varpi" in summary and summary["varpi"] == pytest.approx(0.325)
    pieces = {line.split(",")[0] for line in
              (tmp_path / "roa4" / "roa.csv").read_text().splitlines()[1:]}
    assert pieces == {"H1", "H2", "phi_bound"}


def test_cli_sweep(tmp_path):
    cfg_path = _write(
        tmp_path, "cfg.ini",
        "[model]\nn_cells = 60\n[simulation]\nt_final = 1\n"
        "[output]\nprofile_times =\n"
        "[sweep]\nic = FQ, SQ\nbeta = 0.3, 0.6\nworkers = 2\n",
    )
    rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw")])
    assert rc == 0
    index = (tmp_path / "sw" / "sweep_index.csv").read_text().splitlines()
    assert index[0].startswith("simulation.ic,controller.beta")
    assert len(index) == 5  # header + 4 runs
    from pathlib import Path

    run_dirs = [line.split(",")[2] for line in index[1:]]
    for d in run_dirs:
        assert (Path(d) / "trajectory.csv").exists()


def test_cli_sweep_requires_axes(tmp_path, capsys):
    cfg_path = _write(tmp_path, "cfg.ini", "[model]\nn_cells = 60\n")
    rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw")])
    assert rc == 2


@pytest.mark.parametrize("axis", ["ic = FQ, bogus", "ic = FQ, eta",
                                  "controller = control_a, control_z"])
def test_cli_sweep_rejects_bad_axis_value(tmp_path, capsys, axis):
    # every axis value is checked when the config loads, before any run
    cfg_path = _write(
        tmp_path, "cfg.ini",
        f"[model]\nn_cells = 60\n[simulation]\nt_final = 1\n[sweep]\n{axis}\nworkers = 1\n",
    )
    rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_cli_kernel_table(tmp_path):
    # a tabulated kernel file reproducing the closed-form family gives the
    # same equilibrium as the shape parameters
    n_cells = 100
    a = np.linspace(0.0, 1.0, n_cells + 1)
    table = np.column_stack([
        a,
        0.5 * np.exp(a), 3.0 * np.exp(-a), 0.4 * (a - a**2),
        0.5 * np.exp(a), 3.0 * np.exp(-a), 0.4 * (a - a**2),
    ])
    table_path = tmp_path / "kernels.csv"
    np.savetxt(table_path, table, delimiter=",", header="a,mu1,k1,g1,mu2,k2,g2")
    cfg_path = _write(
        tmp_path, "cfg.ini",
        f"[model]\nn_cells = {n_cells}\nkernel_table = {table_path}\n",
    )
    assert main(["equilibrium", "--config", cfg_path, "--out", str(tmp_path / "eq")]) == 0
    data = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())
    assert data["zeta1"] == pytest.approx(1.17, abs=0.01)

    bad = _write(tmp_path, "bad.ini", f"[model]\nn_cells = 50\nkernel_table = {table_path}\n")
    assert main(["equilibrium", "--config", bad, "--out", str(tmp_path / "eq2")]) == 2


def test_cli_verify_low_resolution_guard(tmp_path, capsys):
    cfg_path = _write(tmp_path, "cfg.ini", "[model]\nn_cells = 25\n")
    rc = main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")])
    assert rc == 4
    out = capsys.readouterr().out
    assert "resolution too low" in out
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert not report["all_passed"]
    skipped = [c for c in report["criteria"] if c["skipped"]]
    assert skipped and all("resolution too low" in c["detail"] for c in skipped)
    # algebraic criteria still run and pass at any resolution
    by_id = {c["id"]: c for c in report["criteria"]}
    assert by_id["08"]["passed"] and by_id["12"]["passed"]


@pytest.mark.parametrize("solver", ["direct", "transformed"])
def test_cli_diverging_run_exit_code(tmp_path, capsys, solver):
    # a huge control-A gain drives the populations to underflow within a step
    cfg_path = _write(
        tmp_path, "cfg.ini",
        "[model]\nn_cells = 100\n[controller]\nkind = control_a\neps = 0.2\n"
        f"beta = 5000\n[simulation]\nt_final = 2\nic = SQ\nsolver = {solver}\n",
    )
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
