"""The reproduction scripts under scripts/ and the README's library example
run end to end, in-process."""
import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_main(name, monkeypatch, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module.main()


def test_reproduction_scripts(tmp_path, monkeypatch):
    scen = tmp_path / "scenarios"
    assert _run_main("run_scenarios", monkeypatch, "--fast", "--out", str(scen)) == 0
    expected = {
        "equilibrium": ["equilibrium.csv", "equilibrium.json", "equilibrium_profiles.svg"],
        "open_loop_fq": ["trajectory_direct.csv", "trajectory_transformed.csv",
                         "eta_vs_t_direct.svg", "eta_vs_t_transformed.svg"],
        "roa_gradient": ["roa.csv", "levelset.csv", "roa_summary.json", "roa_plane.svg"],
        "roa_saturated": ["roa.csv", "levelset.csv", "roa_summary.json", "roa_plane.svg"],
    }
    for name in ("control_a_fq", "control_a_sq", "control_b_fq", "control_b_sq"):
        expected[name] = ["trajectory.csv", "eta_vs_t.svg", "u_vs_t.svg", "profiles_t0.csv"]
    for name, files in expected.items():
        for f in files:
            assert (scen / name / f).is_file(), f"{name}/{f}"
    for mode in ("gradient", "saturated"):
        summary = json.loads((scen / f"roa_{mode}" / "roa_summary.json").read_text())
        assert summary["mode"] == mode
        assert summary["membership_violations_400sq"] == 0

    conv = tmp_path / "convergence"
    assert _run_main("grid_convergence", monkeypatch, "--cells", "50,100", "--out", str(conv)) == 0
    rows = (conv / "convergence.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header and one row per resolution


def test_readme_library_use_block_runs():
    # the "Library use" example, executed as written: a stale name in it fails
    # here, and the dilution keeps the floor its comment states
    text = (SCRIPTS.parent / "README.md").read_text()
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["traj"].u.min() >= 0.0098
