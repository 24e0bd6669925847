import concurrent.futures
import json
import multiprocessing
import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import predprey.cli as cli
from predprey import acceptance
from predprey.acceptance import VerifyContext
from predprey.cli import build_setup_from_config, main, write_csv
from predprey.config import _SECTIONS, effective_ini, load_config, override
from predprey.controllers import ControllerSpec
from predprey.errors import ConfigError, InfeasibleSetpointError, NumericalError
from predprey import lyapunov
from predprey.lyapunov import lyap_config_for, v_full
from predprey.simulate import ICSpec, build_setup, ic_from_spec
from predprey.transform import to_transformed


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
    # [controller] is a ControllerSpec; only the CLI's default kind differs
    assert cfg.controller == ControllerSpec(kind="control_a")
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


def _outside_parens(text: str) -> str:
    out, depth = [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def test_readme_config_table_matches_schema():
    # each row names its section's keys in backticks outside the parenthesized
    # notes; `name_1/2` stands for name_1 and name_2
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", readme, flags=re.M))
    assert set(rows) == set(_SECTIONS)
    for section, cls in _SECTIONS.items():
        named = set()
        for token in re.findall(r"`([^`]+)`", _outside_parens(rows[section])):
            pair = re.fullmatch(r"(\w+)_1/2", token)
            named |= {pair[1] + "_1", pair[1] + "_2"} if pair else {token}
        assert named == {f.name for f in fields(cls)}, section


def test_readme_lyapunov_names_exist():
    # every name in the list of what predprey.lyapunov exposes is one of its
    # attributes; the notes in nested parentheses name arguments
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    para = readme[readme.index("`predprey.lyapunov` exposes"):].split("\n\n")[0]
    start = end = para.index("(") + 1
    depth = 1
    while depth:
        depth += {"(": 1, ")": -1}.get(para[end], 0)
        end += 1
    names = re.findall(r"`(\w+)`", _outside_parens(para[start:end - 1]))
    assert len(names) >= 10
    assert [n for n in names if not hasattr(lyapunov, n)] == []


@pytest.mark.parametrize("key", ["mode = gradient", "sigma1 = 0.5", "sigma2 = 0.5"])
def test_cli_rejects_removed_lyapunov_keys(tmp_path, capsys, key):
    # the analysis mode follows the controller, and sigma is the certified value
    cfg_path = _write(tmp_path, "cfg.ini", f"[model]\nn_cells = 60\n[lyapunov]\n{key}\n")
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, mode, gains", [
    ("control_a", "gradient", dict(eps=0.2, beta=0.6)),
    ("control_b", "saturated", dict(eps=0.01, beta=0.13, delta=0.2)),
])
def test_cli_trajectory_v_matches_v_full(tmp_path, kind, mode, gains):
    # V written at t = 0 is V of the start's (eta, psi) at the certified sigma
    cfg_path = _write(
        tmp_path, "cfg.ini",
        f"[model]\nn_cells = 100\n[controller]\nkind = {kind}\n"
        + "".join(f"{k} = {v}\n" for k, v in gains.items())
        + "[simulation]\nt_final = 0.1\n[output]\nprofile_times =\n",
    )
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim")]) == 0
    v_written = np.loadtxt(tmp_path / "sim" / "trajectory.csv", delimiter=",", skiprows=1)[0, 6]
    setup = build_setup_from_config(load_config(cfg_path, env={}))
    lyap = lyap_config_for(ControllerSpec(kind=kind, **gains), setup.eq, setup.sigma)
    assert lyap.mode == mode
    ts = to_transformed(ic_from_spec(ICSpec(kind="FQ"), setup.eq), setup.eq, setup.adj)
    assert v_written == pytest.approx(v_full(ts.eta, ts.psi, lyap, setup.eq),
                                      rel=1e-12)


def _kernel_table(tmp_path, n_cells, negative=False):
    """CSV of the closed-form kernels on the grid nodes, optionally with a
    negative g1 entry."""
    a = np.linspace(0.0, 1.0, n_cells + 1)
    table = np.column_stack([
        a,
        0.5 * np.exp(a), 3.0 * np.exp(-a), 0.4 * (a - a**2),
        0.5 * np.exp(a), 3.0 * np.exp(-a), 0.4 * (a - a**2),
    ])
    if negative:
        table[5, 3] = -0.1
    path = tmp_path / ("negative.csv" if negative else "kernels.csv")
    np.savetxt(path, table, delimiter=",", header="a,mu1,k1,g1,mu2,k2,g2")
    return path


@pytest.mark.parametrize("model", ["A = 2.0", "mu_bar_1 = -0.5", "negative_table",
                                   "missing_table"])
def test_cli_bad_model_inputs_exit_code(tmp_path, capsys, model):
    # A = 2 makes g = a - a^2 negative; each case is a config error, not a traceback
    if model == "negative_table":
        model = f"kernel_table = {_kernel_table(tmp_path, 60, negative=True)}"
    elif model == "missing_table":
        model = f"kernel_table = {tmp_path / 'no_such_table.csv'}"
    cfg_path = _write(tmp_path, "cfg.ini", f"[model]\nn_cells = 60\n{model}\n")
    rc = main(["equilibrium", "--config", cfg_path, "--out", str(tmp_path / "eq")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("kind", ["control_a", "measured"])
@pytest.mark.parametrize("key, value", [
    ("eps", "5e-324"), ("eps", "1e78"), ("eps", "1e154"), ("eps", "1e155"), ("eps", "inf"),
    ("beta", "1e154"), ("beta", "1e200"), ("beta", "1e308"), ("beta", "inf"),
])
def test_cli_refuses_gains_past_the_range_of_the_analysis(tmp_path, capsys, kind, key, value):
    # control A's analysis squares the entries of its decrease form and divides
    # by its smallest eigenvalue; gains at which a float overflows or rounds
    # that eigenvalue to 0 are refused up front, by name
    cfg_path = _write(
        tmp_path, "cfg.ini",
        f"[model]\nn_cells = 20\n[controller]\nkind = {kind}\n{key} = {value}\n"
        "[simulation]\nt_final = 0.5\n",
    )
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error:" in err and f"{key}=" in err
    assert "nan" not in err


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


def test_cli_sweep_builds_one_setup_per_u_star(tmp_path, monkeypatch):
    # the runs reuse the Setups the combo check built: 2 u_star values, 2 builds
    import predprey.cli as cli

    calls = []

    def counting(kernels, u_star):
        calls.append(u_star)
        return build_setup(kernels, u_star)

    monkeypatch.setattr(cli, "build_setup", counting)
    cfg_path = _write(
        tmp_path, "cfg.ini",
        "[model]\nn_cells = 40\n[simulation]\nt_final = 0.5\n"
        "[output]\nprofile_times =\n"
        "[sweep]\nic = FQ, SQ\nu_star = 0.12, 0.15\nworkers = 1\n",
    )
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw")]) == 0
    assert len((tmp_path / "sw" / "sweep_index.csv").read_text().splitlines()) == 5
    assert sorted(calls) == [0.12, 0.15]


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


@pytest.mark.parametrize("lines", [
    "[sweep]\nu_star = 0.15, -1\n",
    "[sweep]\neps = 0.2, -1\n",
    "[controller]\nkind = control_b\neps = 0.01\n[sweep]\nbeta = 0.05, 0\n",
    "[controller]\nkind = measured\nbeta = -1\n[sweep]\nic = FQ, SQ\n",
])
def test_cli_sweep_checks_every_combo_before_running(tmp_path, capsys, lines):
    # an infeasible u_star, a gain constraint and an analysis without beta > 0
    # each fail in the last combo, and a negative measured-law gain in every
    # combo, before the first one runs
    cfg_path = _write(
        tmp_path, "cfg.ini",
        f"[model]\nn_cells = 60\n[simulation]\nt_final = 1\n{lines}workers = 1\n",
    )
    rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert list((tmp_path / "sw").iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "roa"])
def test_cli_control_b_zero_beta_is_config_error(tmp_path, capsys, command):
    # control B accepts beta = 0, but its analysis divides by beta: the run
    # stops before the march, with no trajectory written
    cfg_path = _write(
        tmp_path, "cfg.ini",
        "[model]\nn_cells = 100\n[controller]\nkind = control_b\neps = 0.01\n"
        "beta = 0\ndelta = 0.2\n[simulation]\nt_final = 2\n",
    )
    rc = main([command, "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "requires beta > 0" in err
    assert list((tmp_path / "out").iterdir()) == []


def test_cli_kernel_table(tmp_path):
    # a tabulated kernel file reproducing the closed-form family gives the
    # same equilibrium, and the same runs of both solvers, as the shape
    # parameters; the table path integrates mortality by trapezoid
    n_cells = 100
    table_path = _kernel_table(tmp_path, n_cells)
    cfg_path = _write(
        tmp_path, "cfg.ini",
        f"[model]\nn_cells = {n_cells}\nkernel_table = {table_path}\n",
    )
    assert main(["equilibrium", "--config", cfg_path, "--out", str(tmp_path / "eq")]) == 0
    data = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())
    assert data["zeta1"] == pytest.approx(1.17, abs=0.01)

    run = ("[controller]\nkind = control_b\neps = 0.01\nbeta = 0.13\ndelta = 0.2\n"
           "[simulation]\nt_final = 5\nic = SQ\nsolver = both\n[output]\nprofile_times =\n")
    for name, model in (("table", f"kernel_table = {table_path}\n"), ("closed", "")):
        path = _write(tmp_path, f"{name}.ini", f"[model]\nn_cells = {n_cells}\n{model}{run}")
        assert main(["simulate", "--config", path, "--out", str(tmp_path / name)]) == 0
    for solver in ("direct", "transformed"):
        eta = [np.loadtxt(tmp_path / name / f"trajectory_{solver}.csv", delimiter=",",
                          skiprows=1)[:, 1:3] for name in ("table", "closed")]
        assert np.max(np.abs(eta[0] - eta[1])) < 1e-3

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


def test_cli_profile_times_must_be_nonnegative(tmp_path, capsys):
    # a negative or nan time is rejected before any run; times after t_final are skipped
    ini = "[model]\nn_cells = 40\n[simulation]\nt_final = 0.5\n[output]\nprofile_times = {}\n"
    for times in ("-1, 0.5", "nan"):
        cfg_path = _write(tmp_path, "bad.ini", ini.format(times))
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "bad")]) == 2
        assert "profile_times must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()
    cfg_path = _write(tmp_path, "late.ini", ini.format("0.5, 3"))
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "late")]) == 0
    assert sorted(p.name for p in (tmp_path / "late").glob("profiles*")) == ["profiles_t0.csv"]


def test_cli_infinite_t_final_exit_code(tmp_path, capsys):
    # an infinite horizon is a config error, not an overflow in the step count
    cfg_path = _write(tmp_path, "inf.ini", "[model]\nn_cells = 40\n[simulation]\nt_final = inf\n")
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "inf")]) == 2
    assert "t_final must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "inf").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_non_finite_multiplier_key_exit_code(tmp_path, capsys, value):
    # a start that is no number is a config error before any start is built
    cfg_path = _write(tmp_path, "cfg.ini", "[model]\nn_cells = 40\n[simulation]\nt_final = 1\n"
                      f"ic = multiplier\nic_log_slope_2 = {value}\n")
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert "simulation.ic_log_slope_2 must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# id prefix -> ([controller] lines, t_final line, part of the stderr line):
# a huge control-A gain drives the populations to underflow within a step,
# and a large measured-law gain a sensor output to zero.  The control-A cases
# keep the bare solver ids.
DIVERGING = {
    "": ("kind = control_a\neps = 0.2\nbeta = 5000\n", "t_final = 2\n", ""),
    "measured-": ("kind = measured\nbeta = 40\n", "t_final = 4\n",
                  "measurements must be strictly positive (t=0.03)"),
}


@pytest.mark.parametrize("law, solver", [
    pytest.param(law, solver, id=f"{law}{solver}")
    for law in DIVERGING for solver in ("direct", "transformed")])
def test_cli_diverging_run_exit_code(tmp_path, capsys, law, solver):
    controller, t_final, message = DIVERGING[law]
    cfg_path = _write(
        tmp_path, "cfg.ini",
        f"[model]\nn_cells = 100\n[controller]\n{controller}"
        f"[simulation]\n{t_final}ic = SQ\nsolver = {solver}\n",
    )
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and message in err


@pytest.mark.parametrize("solver", ["direct", "transformed"])
@pytest.mark.parametrize("key", ["ic_log_slope_1 = 1000", "ic_log_offset_1 = -800"])
def test_cli_multiplier_start_out_of_range_is_config_error(tmp_path, capsys, key, solver):
    # a multiplier start that overflows (inf) or underflows (0) is rejected
    # before the march, naming its keys, with no trajectory written
    cfg_path = _write(
        tmp_path, "cfg.ini",
        "[model]\nn_cells = 50\n[simulation]\nt_final = 1\nic = multiplier\n"
        f"{key}\nsolver = {solver}\n",
    )
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: [simulation] ic = multiplier" in err
    assert "ic_log_offset_1/2" in err and "ic_log_slope_1/2" in err
    assert list((tmp_path / "out").iterdir()) == []


def test_cli_sweep_checks_every_start_before_running(tmp_path, capsys):
    # the multiplier combo fails its start check before the FQ combo runs
    cfg_path = _write(
        tmp_path, "cfg.ini",
        "[model]\nn_cells = 50\n[simulation]\nt_final = 1\nic_log_slope_1 = 1000\n"
        "[sweep]\nic = FQ, multiplier\nworkers = 1\n",
    )
    rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: [simulation] ic = multiplier" in err
    assert list((tmp_path / "sw").iterdir()) == []


def test_write_csv_formats_each_value_like_format_or_str(tmp_path):
    # one printf template per row gives each value's own text: format(v, ".17g")
    # for floats, str(v) for integers and strings, in numeric and object columns
    rng = np.random.default_rng(11)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
               1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456789.125, -1e-300]
    scaled = rng.standard_normal(200) * 10.0 ** rng.integers(-30, 30, 200)
    floats = np.concatenate([special, scaled])
    n = len(floats)
    ints = rng.integers(-10**15, 10**15, n)
    strs = np.array([f"run_{i:03d}_ic-FQ" for i in range(n)])
    columns = [floats, ints, strs, np.array(floats, dtype=object),
               np.array(ints.tolist(), dtype=object), np.array(strs.tolist(), dtype=object)]
    path = tmp_path / "t.csv"
    write_csv(path, ["f", "i", "s", "of", "oi", "os"], columns)
    lines = path.read_text().split("\n")
    assert lines[0] == "f,i,s,of,oi,os" and lines[-1] == "" and len(lines) == n + 2
    for row, (f, i, text) in enumerate(zip(floats.tolist(), ints.tolist(), strs.tolist())):
        cells = [format(f, ".17g"), str(i), text]
        assert lines[row + 1] == ",".join(cells * 2)
    with pytest.raises(ValueError, match="one length"):
        write_csv(path, ["a", "b"], [floats, ints[:-1]])


def test_cli_rejects_removed_plot_key(tmp_path, capsys):
    # SVG charts come from --plot alone
    cfg_path = _write(tmp_path, "cfg.ini", "[model]\nn_cells = 60\n[output]\nplot = true\n")
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim")])
    assert rc == 2
    assert "unknown key 'plot'" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


SWEEP_INI = ("[model]\nn_cells = 40\n[simulation]\nt_final = 0.5\nsolver = {solver}\n"
             "[output]\nprofile_times =\n[sweep]\nic = FQ, SQ\nworkers = {workers}\n")


def test_cli_sweep_runs_the_configured_solver(tmp_path):
    # each combo's trajectory is the one `simulate` writes with that solver
    ini = SWEEP_INI.format(solver="transformed", workers=1)
    assert main(["sweep", "--config", _write(tmp_path, "sw.ini", ini),
                 "--out", str(tmp_path / "sw")]) == 0
    runs = sorted((tmp_path / "sw").glob("run_*"))
    assert [r.name for r in runs] == ["run_000_ic-FQ", "run_001_ic-SQ"]
    for run, ic in zip(runs, ("FQ", "SQ")):
        written = {}
        for solver in ("direct", "transformed"):
            sim = SWEEP_INI.format(solver=solver, workers=1).replace("ic = FQ, SQ", "")
            sim = sim.replace("[simulation]\n", f"[simulation]\nic = {ic}\n")
            out = tmp_path / f"{ic}_{solver}"
            assert main(["simulate", "--config", _write(tmp_path, "sim.ini", sim),
                         "--out", str(out)]) == 0
            written[solver] = (out / "trajectory.csv").read_bytes()
        assert written["direct"] != written["transformed"]
        assert (run / "trajectory.csv").read_bytes() == written["transformed"]


def test_cli_sweep_rejects_both_solvers(tmp_path, capsys):
    # one combo writes one trajectory: `both` stops the sweep before any run
    ini = SWEEP_INI.format(solver="both", workers=1)
    rc = main(["sweep", "--config", _write(tmp_path, "sw.ini", ini),
               "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert "solver" in capsys.readouterr().err
    assert list((tmp_path / "sw").iterdir()) == []


def test_cli_sweep_pool_has_no_more_workers_than_combos(tmp_path, monkeypatch):
    # a fork pool starts all its workers at once; this stand-in records the
    # size it is asked for and runs the jobs inline, so no process starts
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlinePool)
    for workers in (64, 2):
        ini = SWEEP_INI.format(solver="direct", workers=workers)
        out = tmp_path / f"sw{workers}"
        assert main(["sweep", "--config", _write(tmp_path, "sw.ini", ini),
                     "--out", str(out)]) == 0
        assert len((out / "sweep_index.csv").read_text().splitlines()) == 3
    # this process runs the first of the two combos, the pool the other
    assert sizes == [1, 1]


def test_cli_sweep_runs_each_job_at_most_once(tmp_path, monkeypatch):
    # a job's own OSError (here the second combo's run dir is a file) is
    # raised once; it is not taken for a pool that could not start
    log = tmp_path / "runs.log"
    run_and_write = cli._run_and_write

    def logged(setup, sim_cfg, lyap, solver, outdir, *rest):
        with open(log, "a") as fh:
            fh.write(f"{Path(outdir).name}\n")
        return run_and_write(setup, sim_cfg, lyap, solver, outdir, *rest)

    monkeypatch.setattr(cli, "_run_and_write", logged)
    out = tmp_path / "sw"
    out.mkdir()
    (out / "run_001_ic-SQ").write_text("")
    ini = SWEEP_INI.format(solver="direct", workers=2)
    with pytest.raises(FileExistsError):
        main(["sweep", "--config", _write(tmp_path, "sw.ini", ini), "--out", str(out)])
    assert log.read_text().splitlines() == ["run_000_ic-FQ"]


def _job_and_pid(k):
    return k, os.getpid()


@pytest.mark.parametrize("workers, n_jobs", [(1, 4), (2, 4), (3, 4), (3, 2)])
def test_map_runs_yields_in_job_order(workers, n_jobs):
    # this process runs the first job and a pool of at most workers processes,
    # and never more than the other jobs, runs the rest
    results = list(cli._map_runs(_job_and_pid, [(k,) for k in range(n_jobs)], workers))
    assert [k for k, _ in results] == list(range(n_jobs))
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid()
    if workers == 1:
        assert set(pids) == {os.getpid()}
    else:
        assert os.getpid() not in pids[1:]
        assert len(set(pids[1:])) <= min(workers, n_jobs - 1)
    assert multiprocessing.active_children() == []


def test_map_runs_runs_here_when_the_pool_cannot_start(monkeypatch):
    # the pool's first process starts and its second fails to fork: the one
    # that started is stopped, and every job runs once, in this process
    popen = multiprocessing.context.ForkProcess._Popen
    calls = []

    def failing_second(process_obj):
        calls.append(process_obj)
        if len(calls) == 2:
            raise OSError("fork failed")
        return popen(process_obj)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "_Popen", staticmethod(failing_second))
    results = list(cli._map_runs(_job_and_pid, [(k,) for k in range(3)], 3))
    assert results == [(k, os.getpid()) for k in range(3)]
    assert len(calls) == 2
    assert multiprocessing.active_children() == []



BOTH_INI = ("[model]\nn_cells = 60\n[simulation]\nt_final = 1\nsolver = both\n"
            "[output]\nprofile_times = 0, 0.5\n")


def _simulate_both(tmp_path, capsys, monkeypatch, cpus: int):
    # simulate with solver = both on the given CPU count: its exit code, its
    # files' bytes and its stdout and stderr with the output dir taken out
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    out = tmp_path / f"cpus{cpus}"
    rc = main(["simulate", "--config", _write(tmp_path, "both.ini", BOTH_INI),
               "--out", str(out), "--plot"])
    captured = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return rc, files, captured.out.replace(str(out), "OUT"), captured.err


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of each process pool the CLI builds during the test."""
    sizes = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, mp_context=mp_context)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return sizes


def test_cli_simulate_both_in_parallel_writes_the_serial_files(tmp_path, capsys, monkeypatch,
                                                               pool_sizes):
    serial = _simulate_both(tmp_path, capsys, monkeypatch, 1)
    assert pool_sizes == []
    parallel = _simulate_both(tmp_path, capsys, monkeypatch, 2)
    assert pool_sizes == [1]
    assert parallel == serial
    rc, files, out, err = parallel
    assert rc == 0 and err == ""
    assert "trajectory_transformed.csv" in files and "profiles_direct_t1.csv" in files
    assert [line.split(":")[0] for line in out.splitlines()] == ["direct run", "transformed run"]


@pytest.mark.parametrize("failing", ["direct", "transformed"])
def test_cli_simulate_both_failure_is_the_serial_one(tmp_path, capsys, monkeypatch, failing):
    # the failing run's stderr line and exit code do not depend on the path;
    # when the transformed run fails, the direct run's line is printed first
    def diverge(setup, sim_cfg):
        raise NumericalError(f"{failing} march diverged", t=0.25, reason="test")

    monkeypatch.setattr(cli, f"simulate_{failing}", diverge)
    serial = _simulate_both(tmp_path, capsys, monkeypatch, 1)
    parallel = _simulate_both(tmp_path, capsys, monkeypatch, 2)
    for rc, _, out, err in (serial, parallel):
        assert rc == 3
        assert err == f"numerical failure: {failing} march diverged (t=0.25)\n"
        assert out.startswith("direct run: ") == (failing == "transformed")
        assert "transformed run" not in out
    assert parallel[2] == serial[2]


def _verify(tmp_path, capsys, monkeypatch, cpus: int, n_cells: int):
    # verify at n_cells on the given CPU count: its exit code, its report's
    # bytes (None if it wrote none) and its stdout and stderr with the output
    # dir taken out
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    out = tmp_path / f"n{n_cells}_cpus{cpus}"
    rc = main(["verify", "--config", _write(tmp_path, "v.ini", f"[model]\nn_cells = {n_cells}\n"),
               "--out", str(out)])
    captured = capsys.readouterr()
    report = out / "verify_report.json"
    return (rc, report.read_bytes() if report.exists() else None,
            captured.out.replace(str(out), "OUT"), captured.err)


@pytest.mark.parametrize("n_cells", [100, 25])
def test_cli_verify_in_parallel_reports_the_serial_run(tmp_path, capsys, monkeypatch, pool_sizes,
                                                       n_cells):
    # the criteria run as two jobs, the second in a pool of one process, and
    # the report and stdout are the serial run's, in REGISTRY order; below
    # MIN_CELLS the grid criteria are skipped and verify fails
    serial = _verify(tmp_path, capsys, monkeypatch, 1, n_cells)
    assert pool_sizes == []
    parallel = _verify(tmp_path, capsys, monkeypatch, 2, n_cells)
    assert pool_sizes == [1]
    assert multiprocessing.active_children() == []
    assert parallel == serial
    rc, report, out, err = parallel
    assert rc == (0 if n_cells >= acceptance.MIN_CELLS else 4)
    assert [c["id"] for c in json.loads(report)["criteria"]] == [c.cid for c in acceptance.REGISTRY]
    assert [line.split()[1] for line in out.splitlines()[:13]] == [
        c.cid for c in acceptance.REGISTRY]


@pytest.mark.parametrize("error, rc, prefix", [
    (NumericalError("criterion march diverged", t=0.25, reason="test"), 3, "numerical failure: "),
    (InfeasibleSetpointError(0.3, (0.0, 0.2)), 2, "config error: "),
], ids=["numerical", "infeasible"])
def test_cli_verify_failure_in_the_pool_is_the_serial_one(tmp_path, capsys, monkeypatch,
                                                          pool_sizes, error, rc, prefix):
    # a criterion of the pool's group raises: the error crosses back from the
    # pool and gives the serial run's exit code and stderr line, and no report
    pooled = acceptance.CRITERION_GROUPS[1][-1]

    def failing(ctx):
        raise error

    failing.cid = pooled
    monkeypatch.setattr(acceptance, "REGISTRY", tuple(
        failing if c.cid == pooled else c for c in acceptance.REGISTRY))
    serial = _verify(tmp_path, capsys, monkeypatch, 1, 25)
    parallel = _verify(tmp_path, capsys, monkeypatch, 2, 25)
    assert serial == parallel == (rc, None, "", f"{prefix}{error}\n")
    assert pool_sizes == [1]
    assert multiprocessing.active_children() == []


NON_REFERENCE = [("model", "mu_bar_1 = 0.6"), ("model", "kernel_table = kernels.csv"),
                 ("equilibrium", "u_star = 0.16"), ("equilibrium", "u_star = 0.12")]


@pytest.mark.parametrize("section, line", NON_REFERENCE, ids=[line for _, line in NON_REFERENCE])
def test_cli_verify_rejects_a_non_reference_model(tmp_path, capsys, monkeypatch, section, line):
    # verify's criteria hold for the reference scenario; it reads only n_cells
    monkeypatch.setenv("PREDPREY_MODEL_N_CELLS", "60")
    cfg_path = _write(tmp_path, "cfg.ini", f"[{section}]\n{line}\n")
    rc = main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and f"[{section}] {line.split(' =')[0]}" in err
    assert list((tmp_path / "v").iterdir()) == []


def test_verify_setup_is_the_default_config_setup():
    # VerifyContext builds the reference model that [model] defaults describe
    n = 60
    ctx_setup = VerifyContext(n_cells=n).setup()
    cfg_setup = build_setup_from_config(load_config(text=f"[model]\nn_cells = {n}\n", env={}))
    for name in ("mu", "k", "g"):
        assert np.array_equal(getattr(ctx_setup.kernels, name), getattr(cfg_setup.kernels, name))
    assert ctx_setup.grid == cfg_setup.grid
    assert ctx_setup.eq.u_star == cfg_setup.eq.u_star
    assert np.array_equal(ctx_setup.eq.x_star, cfg_setup.eq.x_star)
