"""In-process traced run of one workload command.

Started by the harness as
``python3 -X importtime benchmark/traced.py <workload> <config> <outdir> <trace.json>``
with ``PYTHONPATH=<checkout>/src``.  It calls the same functions the CLI calls,
in the same order (``cmd_simulate``, ``cmd_sweep`` or ``cmd_verify`` on the
loaded config), with wrappers installed at each layer boundary.  The wrappers
keep spans (name, start, end, parent) and counts in memory; the file is written
once, after the command.  No program source is changed: the wrappers replace
module attributes at run time and are removed before the probes run.

After the command, untraced probes measure what the command alone cannot
separate: the per-record cost (the first ``simulate_direct`` call repeated at
stride 1 and at a stride that records only the ends) and, when the command
never runs the transformed solver, its per-step cost on the same call.  A
last probe times the wrappers themselves on a no-op, which gives the tracing
overhead without the run-to-run noise of comparing two whole runs.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import COMMANDS  # noqa: E402

perf_counter = time.perf_counter


class Tracer:
    """Spans and counts kept in memory.

    A span is ``[name, start, end, parent, hot_s]``; ``hot_s`` is the time its
    direct hot calls took, which are counted but not kept one span each.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.facts: list[tuple[int, dict]] = []
        self.hot_calls = 0
        self.hot_s = 0.0
        self._stack: list[int] = []
        self._in_hot = False
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, after=None):
        """Span around each call; ``after(args, kwargs, result)`` adds facts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                self.facts.append((idx, after(args, kwargs, result)))
            return result
        return wrapper

    def wrap_hot(self, fn):
        """Count and time a per-step call; a call made inside another counts once."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_hot:
                return fn(*args, **kwargs)
            self._in_hot = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._in_hot = False
                self.hot_calls += 1
                self.hot_s += dt
                if self._stack:
                    self.spans[self._stack[-1]][4] += dt
        return wrapper

    def patch_function(self, module, attr: str, make):
        """Replace a function in every predprey module that bound it by import."""
        orig = getattr(module, attr)
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if name == "predprey" or name.startswith("predprey."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, new)
        return orig

    def patch_attr(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()


def _run_facts(args, kwargs, traj) -> dict:
    return {"steps": int(round(traj.times[-1] / traj.meta["dt"])), "records": len(traj.times)}


def _finalize_facts(args, kwargs, traj) -> dict:
    lyap_cfg = args[2] if len(args) > 2 else kwargs.get("lyap_cfg")
    if lyap_cfg is None or traj.G1 is None:
        return {}
    return {"g_max": float(max(traj.G1.max(), traj.G2.max()))}


def _file_facts(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def install(tracer: Tracer):
    """Wrap every layer boundary the benchmark reports; returns the originals
    of the two integrators and the first direct call's arguments holder."""
    from predprey import acceptance, cli, controllers, equilibrium, lyapunov, simulate, transform

    first_direct: list = []

    def direct_facts(args, kwargs, traj):
        if not first_direct:
            first_direct.extend(args[:2])
        return _run_facts(args, kwargs, traj)

    tracer.patch_function(equilibrium, "compute_equilibrium",
                          lambda f: tracer.wrap(f, "equilibrium.compute_equilibrium"))
    tracer.patch_function(transform, "compute_pi0",
                          lambda f: tracer.wrap(f, "transform.compute_pi0"))
    tracer.patch_function(lyapunov, "find_sigma", lambda f: tracer.wrap(f, "lyapunov.find_sigma"))
    tracer.patch_function(simulate, "build_setup", lambda f: tracer.wrap(f, "simulate.build_setup"))
    orig_direct = tracer.patch_function(
        simulate, "simulate_direct",
        lambda f: tracer.wrap(f, "simulate.simulate_direct", direct_facts))
    orig_transformed = tracer.patch_function(
        simulate, "simulate_transformed",
        lambda f: tracer.wrap(f, "simulate.simulate_transformed", _run_facts))
    tracer.patch_function(lyapunov, "roa_estimate", lambda f: tracer.wrap(f, "lyapunov.roa_estimate"))
    tracer.patch_function(lyapunov, "verify_level_set",
                          lambda f: tracer.wrap(f, "lyapunov.verify_level_set"))
    tracer.patch_function(cli, "write_csv", lambda f: tracer.wrap(f, "cli.write_csv", _file_facts))
    tracer.patch_function(cli, "write_json", lambda f: tracer.wrap(f, "cli.write_json", _file_facts))
    tracer.patch_attr(simulate.Trajectory, "finalize_lyapunov",
                      tracer.wrap(simulate.Trajectory.finalize_lyapunov, "lyapunov.finalize",
                                  _finalize_facts))
    for attr in ("u_from_state", "u_from_eta"):
        tracer.patch_attr(controllers.BoundController, attr,
                          tracer.wrap_hot(getattr(controllers.BoundController, attr)))
    tracer.patch_attr(acceptance, "REGISTRY", tuple(
        tracer.wrap(crit, "acceptance.c" + crit.__name__.split("_")[1])
        for crit in acceptance.REGISTRY
    ))
    return orig_direct, orig_transformed, first_direct


def _timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return perf_counter() - t0, result


def probes(orig_direct, orig_transformed, first_direct, ran_transformed: bool) -> dict:
    """Untraced per-record and (if needed) transformed per-step probes."""
    if not first_direct:
        return {}
    setup, cfg = first_direct
    fine = replace(cfg, record_every=1)
    steps = int(round(cfg.t_final / setup.grid.da))
    coarse = replace(cfg, record_every=max(steps, 1))
    # ABBA order cancels a linear drift in machine speed
    t_f1, r_f1 = _timed(orig_direct, setup, fine)
    t_c1, r_c1 = _timed(orig_direct, setup, coarse)
    t_c2, _ = _timed(orig_direct, setup, coarse)
    t_f2, _ = _timed(orig_direct, setup, fine)
    extra_records = len(r_f1.times) - len(r_c1.times)
    out = {
        "record_s": (t_f1 + t_f2 - t_c1 - t_c2) / 2.0,
        "extra_records": extra_records,
    }
    if not ran_transformed:
        t_tr, traj = _timed(orig_transformed, setup, cfg)
        out["transformed_s"] = t_tr
        out["transformed_steps"] = _run_facts((), {}, traj)["steps"]
    return out


def wrapper_costs(n: int = 20_000) -> tuple[float, float]:
    """Seconds one span wrapper and one hot-call wrapper add to a call."""
    def noop():
        return None

    scratch = Tracer()
    span_fn, hot_fn = scratch.wrap(noop, "noop"), scratch.wrap_hot(noop)

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(n):
                fn()
            best = min(best, (perf_counter() - t0) / n)
        return best

    base = per_call(noop)
    return per_call(span_fn) - base, per_call(hot_fn) - base


def main(argv: list[str]) -> int:
    workload, config_path, outdir, trace_path = argv
    tracer = Tracer()
    with tracer.span("import.predprey"):
        import predprey  # noqa: F401
        from predprey import cli
        from predprey.config import load_config
        from predprey.errors import ConfigError, NumericalError, VerificationFailure

    orig_direct, orig_transformed, first_direct = install(tracer)
    errors: Counter = Counter()
    command = COMMANDS[workload]
    with tracer.span(f"cli.{command}"):
        try:
            cfg = load_config(config_path)
            out = Path(outdir)
            out.mkdir(parents=True, exist_ok=True)
            if command == "simulate":
                rc = cli.cmd_simulate(cfg, out, False)
            elif command == "sweep":
                rc = cli.cmd_sweep(cfg, out)
            else:
                rc = cli.cmd_verify(cfg, out)
        except NumericalError as err:
            errors[err.reason or "untagged"] += 1
            rc = 3
        except VerificationFailure:
            rc = 4
        except ConfigError:
            rc = 2
    t_cmd_end = perf_counter()
    tracer.uninstall()
    ran_transformed = any(s[0] == "simulate.simulate_transformed" for s in tracer.spans)
    probe = probes(orig_direct, orig_transformed, first_direct, ran_transformed) if rc == 0 else {}
    span_cost, hot_cost = wrapper_costs()
    payload = {
        "rc": rc,
        "t_start": T_START,
        "spans": tracer.spans,
        "facts": tracer.facts,
        "hot": {"calls": tracer.hot_calls, "seconds": tracer.hot_s},
        "wrapper_cost_s": {"span": span_cost, "hot": hot_cost},
        "numerical_errors": dict(errors),
        "probe": probe,
        "post_s": perf_counter() - t_cmd_end,
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
