"""The benchmark's setup probe still finds what it calls in the package.

``benchmark/probe.py setup`` times a fresh interpreter that builds the first
Setup of each workload through ``cli.build_setup_from_config`` or
``VerifyContext(n_cells=, u_star=).setup()``.  This test calls it in process
on each workload's smoke config, so a rename of either fails here rather than
in every benchmark run.  It only reads ``benchmark/``.
"""
import importlib.util
from pathlib import Path

import pytest

import predprey.acceptance
import predprey.cli
from predprey.config import load_config
from predprey.simulate import build_setup

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def load(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["simulate-fine", "sweep-grid", "verify-gate"])
def test_setup_probe_builds_one_setup_per_workload(tmp_path, monkeypatch, workload):
    probe, workloads = load(monkeypatch, "probe"), load(monkeypatch, "workloads")
    path = tmp_path / "workload.ini"
    path.write_text(workloads.config_text(workload, 0, smoke=True))
    built = []

    def counting(kernels, u_star):
        built.append((kernels.grid.n_cells, u_star))
        return build_setup(kernels, u_star)

    for module in (predprey.cli, predprey.acceptance):
        monkeypatch.setattr(module, "build_setup", counting)
    probe.setup(workload, str(path))
    cfg = load_config(str(path), env={})
    u_star = cfg.sweep.u_star[0] if workload == "sweep-grid" else cfg.equilibrium.u_star
    assert built == [(cfg.model.n_cells, u_star)]
