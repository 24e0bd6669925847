"""The benchmark's trace points still exist in the package.

``benchmark/traced.py`` wraps package functions and methods by name.  This
test installs its wrappers, runs one small simulation of each solver and one
of the measured law through them, and verify's reference runs, and removes
them again, so a rename of a traced name fails here rather than in a
benchmark run.  It only reads ``benchmark/``.
"""
import importlib.util
from dataclasses import replace
from pathlib import Path

from predprey import acceptance, simulate
from predprey.controllers import ControllerSpec
from predprey.simulate import ICSpec, SimConfig

from conftest import make_setup

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def load_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))  # traced.py imports workloads
    spec = importlib.util.spec_from_file_location("benchmark_traced", BENCHMARK / "traced.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_points_install_record_and_uninstall(monkeypatch):
    traced = load_traced(monkeypatch)
    setup = make_setup(40)
    cfg = SimConfig(t_final=0.2, controller=ControllerSpec(kind="control_a", eps=0.2, beta=0.6),
                    ic=ICSpec(kind="FQ"))
    measured = replace(cfg, controller=ControllerSpec(kind="measured", eps=0.2, beta=0.6))
    tracer = traced.Tracer()
    try:
        traced.install(tracer)
        patched = list(tracer._patched)
        simulate.simulate_direct(setup, cfg)
        simulate.simulate_transformed(setup, cfg)
        simulate.simulate_transformed(setup, measured)
        ctx = acceptance.VerifyContext(n_cells=40)
        for run in acceptance.REFERENCE_RUNS:
            ctx.direct_run(*run)
    finally:
        tracer.uninstall()
    # every binding of each traced name in the package: a rename, or a module
    # that stops importing a traced function, changes the count
    assert len(patched) == 33
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)
    # the direct run above and verify's reference runs, one span each
    spans = [span for span in tracer.spans if span[0] == "simulate.simulate_direct"]
    assert len(spans) == 1 + len(acceptance.REFERENCE_RUNS) == 6
    assert all(span[2] is not None for span in spans)
    # run.py divides the transformed time by the steps fact of these spans
    steps = {tracer.spans[idx][0]: facts.get("steps") for idx, facts in tracer.facts}
    assert steps.get("simulate.simulate_transformed") == round(cfg.t_final / setup.grid.da) == 8
    # u_from_eta, or u_from_state for the measured run, once per step of each
    # run, t_final 20 of a reference run being 800 steps: a loop that
    # bypasses the traced law fails here
    assert tracer.hot_calls == 3 * (8 + 1) + len(acceptance.REFERENCE_RUNS) * (800 + 1)
