"""predprey benchmark harness.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every command runs against the checkout's
own ``src/`` (``PYTHONPATH=<checkout>/src``); the harness checks that this is
the package that was imported.  Workloads run closed-loop: one command at a
time from this process, the only parallelism being the sweep's own pool.

``--trace 0`` repeats the workload's CLI command, untraced, while the next
repetition is expected to end within ``--seconds``, timing a fresh-interpreter
set-up probe before each command (at least five in all) and a fixed
calibration probe after it.  It reports the medians
of the end-to-end metrics.  ``--trace 1`` runs the command once untraced and
once in-process with spans at each layer boundary (``traced.py``; the sweep
with one worker) and reports the per-layer metrics.  Every command's outputs pass through the output gate
(``gate.py``); a nonzero exit, a missing output or a gate failure counts as a
failed run.

The last line of standard output is the JSON result.  A fuller record, with
quartiles, samples, gate problems and the machine context, is written to
``.bench_out/BENCH_<workload>_seed<seed>_trace<t>_<time>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = workloads.NAMES
# Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 165.0
MIN_SETUP_SAMPLES = 5


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def calibrate() -> float:
    """Fixed interpreter-and-small-array work, timed; slow machines show here."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 801)
    acc = 0.0
    for k in range(16_000):
        acc += float(np.exp(-(x + k * 1e-6)) @ x)
    for k in range(800_000):
        acc += k % 7
    return time.perf_counter() - t0


@dataclass
class Rep:
    """One child process: its cost, exit code and, for a command, gated outputs."""

    wall: float
    cpu: float
    rss_mb: float
    rc: int
    outdir: Path | None = None
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


class Bench:
    """One workload at one seed: inputs, child processes and the gate."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.t0 = time.monotonic()
        self.dir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PREDPREY_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.config = self._write_config("config.ini", None)
        if workload == "sweep-grid":
            self.serial_config = self._write_config("config_serial.ini", 1)
            self.workers = min(os.cpu_count() or 1, workloads.work_items(workload, seed, smoke))
        else:
            self.serial_config = self.config
            self.workers = 1
        self.expected_items = workloads.work_items(workload, seed, smoke)
        self.use_reference = seed == 0 and not smoke
        self._n = 0
        self.info = self._info()
        self.lambda2 = self.info["lambda2"]

    def _write_config(self, name: str, workers: int | None) -> Path:
        path = self.dir / name
        path.write_text(workloads.config_text(self.workload, self.seed, self.smoke, workers))
        return path

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.t0)

    def child(self, argv: list[str], tag: str, outdir: Path | None = None) -> Rep:
        """Run one process to completion; rusage covers it and its reaped workers."""
        timeout = max(self.remaining(), 1.0)
        with open(self.dir / f"{tag}.out", "wb") as out, open(self.dir / f"{tag}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.dir, env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        try:  # kill anything the command left running in its session
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return Rep(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, rc, outdir)

    def _info(self) -> dict:
        u_stars = [repr(u) for u in workloads.floor_u_stars(self.workload, self.seed, self.smoke)]
        res = self.child([sys.executable, str(HERE / "probe.py"), "info", *u_stars], "info")
        if res.rc != 0:
            raise SystemExit(f"cannot import predprey from {ROOT / 'src'}: "
                             + (self.dir / "info.err").read_text()[-2000:])
        info = json.loads((self.dir / "info.out").read_text().splitlines()[-1])
        imported = Path(info["predprey_file"]).resolve()
        if (ROOT / "src") not in imported.parents:
            raise SystemExit(f"imported predprey from {imported}, not from {ROOT / 'src'}")
        return info

    def setup_sample(self) -> float:
        res = self.child([sys.executable, str(HERE / "probe.py"), "setup", self.workload,
                          str(self.config)], "setup")
        if res.rc != 0:
            raise SystemExit("set-up probe failed: " + (self.dir / "setup.err").read_text()[-2000:])
        return res.wall

    def _next_outdir(self) -> Path:
        self._n += 1
        return self.dir / f"out{self._n:03d}"

    def run_command(self, config: Path) -> Rep:
        outdir = self._next_outdir()
        return self._gated(self.child(
            [sys.executable, "-m", "predprey.cli", workloads.COMMANDS[self.workload],
             "--config", str(config), "--out", str(outdir)], outdir.name, outdir))

    def run_traced(self) -> tuple[Rep, dict, str]:
        outdir = self._next_outdir()
        trace_path = self.dir / "trace.json"
        rep = self._gated(self.child(
            [sys.executable, "-X", "importtime", str(HERE / "traced.py"), self.workload,
             str(self.serial_config), str(outdir), str(trace_path)], outdir.name, outdir))
        trace = json.loads(trace_path.read_text()) if trace_path.exists() else {}
        return rep, trace, (self.dir / f"{outdir.name}.err").read_text()

    def _gated(self, rep: Rep) -> Rep:
        if rep.rc != 0:
            err = (self.dir / f"{rep.outdir.name}.err").read_text()[-500:]
            rep.problems = [f"exit code {rep.rc}: {err.strip()}"]
        else:
            rep.problems = gate.check(self.workload, rep.outdir, self.lambda2,
                                      self.expected_items, self.use_reference)
        return rep


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[Rep], dict]:
    """Repeat the command, a set-up probe before each, while the next one is
    expected to end within ``seconds``; the first always runs."""
    cal = [calibrate()]
    setups: list[float] = []
    reps: list[Rep] = []
    t0 = time.monotonic()
    while True:
        c0 = time.monotonic()
        setups.append(bench.setup_sample())
        rep = bench.run_command(bench.config)
        if reps:
            shutil.rmtree(reps[-1].outdir, ignore_errors=True)
        reps.append(rep)
        cal.append(calibrate())
        now = time.monotonic()
        cycle = now - c0
        if now - t0 + cycle > seconds or bench.remaining() < 1.5 * cycle + 5.0:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(bench.setup_sample())
    samples = {
        "setup_s": setups,
        "wall_s": [r.wall for r in reps],
        "cpu_s": [r.cpu for r in reps],
        "peak_rss_mb": [r.rss_mb for r in reps],
        "runs_per_s": [(bench.expected_items if r.ok else 0) / r.wall for r in reps],
    }
    extra = {"calibration_s": cal}
    if bench.workload == "simulate-fine" and reps[-1].ok:
        extra["solver_gap"] = gate.solver_gap(reps[-1].outdir)
    return samples, reps, extra


def _importtime_s(stderr: str, prefix: str) -> float:
    """Summed self time of modules named ``prefix`` or ``prefix.*``."""
    total_us = 0
    for m in re.finditer(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)\s*$", stderr, re.M):
        name = m.group(2)
        if name == prefix or name.startswith(prefix + "."):
            total_us += int(m.group(1))
    return total_us / 1e6


def layer_metrics(trace: dict, stderr: str, base: Rep, traced: Rep,
                  workers: int) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus workload-specific extras."""
    spans = trace["spans"]
    facts = dict((idx, f) for idx, f in trace["facts"])
    dur = [s[2] - s[1] for s in spans]
    child_s = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child_s[s[3]] += dur[i]

    def total(*names):
        return sum(d for s, d in zip(spans, dur) if s[0] in names)

    def summed(name, key):
        return sum(facts.get(i, {}).get(key, 0) for i, s in enumerate(spans) if s[0] == name)

    steps_d = summed("simulate.simulate_direct", "steps")
    steps_t = summed("simulate.simulate_transformed", "steps")
    probe = trace["probe"]
    if steps_t:
        transformed_us = total("simulate.simulate_transformed") / steps_t * 1e6
    else:  # the command never runs it: per-step cost from the probe on its first call
        transformed_us = probe["transformed_s"] / probe["transformed_steps"] * 1e6
    g_max = [f["g_max"] for f in facts.values() if "g_max" in f]
    root = next(i for i, s in enumerate(spans) if s[0].startswith("cli.") and s[3] is None)
    hot = trace["hot"]
    cost = trace["wrapper_cost_s"]
    overhead_s = (len(spans) - 1) * cost["span"] + hot["calls"] * cost["hot"]
    metrics = {
        "import.predprey_s": total("import.predprey"),
        "import.scipy_s": _importtime_s(stderr, "scipy"),
        "equilibrium.lotka_sharpe_s": total("equilibrium.compute_equilibrium"),
        "transform.compute_pi0_s": total("transform.compute_pi0"),
        "lyapunov.find_sigma_s": total("lyapunov.find_sigma"),
        "simulate.build_setup_s": total("simulate.build_setup"),
        "simulate.direct_us_per_step": total("simulate.simulate_direct") / steps_d * 1e6,
        "simulate.transformed_us_per_step": transformed_us,
        "simulate.steps": steps_d + steps_t,
        "simulate.records": summed("simulate.simulate_direct", "records")
        + summed("simulate.simulate_transformed", "records"),
        "simulate.record_us_per_record": probe["record_s"] / probe["extra_records"] * 1e6,
        "simulate.numerical_errors": sum(trace["numerical_errors"].values()),
        "controllers.u_calls": hot["calls"],
        "controllers.u_us_per_call": hot["seconds"] / hot["calls"] * 1e6,
        "lyapunov.finalize_s": total("lyapunov.finalize"),
        "lyapunov.g_max": max(g_max, default=0.0),
        "cli.write_s": total("cli.write_csv", "cli.write_json"),
        "cli.bytes_written": summed("cli.write_csv", "bytes") + summed("cli.write_json", "bytes"),
        "cli.parallel_eff": dur[root] / (workers * base.wall),
        "trace.overhead_frac": overhead_s / (dur[root] - overhead_s),
    }
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        self_s[s[0]] = self_s.get(s[0], 0.0) + dur[i] - child_s[i] - s[4]
    extra = {
        "self_s": self_s,
        "workload_layers_s": {s_name: total(s_name) for s_name in sorted({s[0] for s in spans})
                              if s_name.startswith(("acceptance.", "lyapunov.roa", "lyapunov.verify"))},
        "numerical_errors_by_reason": trace["numerical_errors"],
        "span_count": len(spans),
        "walls_s": {"command": base.wall, "traced_process": traced.wall,
                    "traced_after_command": trace["post_s"]},
    }
    return metrics, extra


def traced_run(bench: Bench) -> tuple[dict, list[Rep], dict]:
    cal = [calibrate()]
    base = bench.run_command(bench.config)
    traced, trace, stderr = bench.run_traced()
    cal.append(calibrate())
    reps = [base, traced]
    extra = {"calibration_s": cal}
    if not all(r.ok for r in reps) or not trace:
        return {}, reps, extra
    metrics, more = layer_metrics(trace, stderr, base, traced, bench.workers)
    extra.update(more)
    return {k: [v] for k, v in metrics.items()}, reps, extra


def _git_state() -> dict:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
        lines = top.stdout.split()
        if top.returncode != 0 or Path(lines[0]).resolve() != ROOT:
            return {"sha": None, "dirty": None}
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                               capture_output=True, text=True, timeout=20).stdout.strip() != ""
        return {"sha": lines[1], "dirty": dirty}
    except (OSError, subprocess.TimeoutExpired, IndexError):
        return {"sha": None, "dirty": None}


def _blas() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def machine_context(bench: Bench, load_start: tuple) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "platform": platform.platform(),
        "python": bench.info["python"],
        "numpy": bench.info["numpy"],
        "scipy": bench.info["scipy"],
        "blas": _blas(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git": _git_state(),
        "predprey_file": bench.info["predprey_file"],
    }


def _declared_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness self-test only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "predprey" / "__init__.py").is_file():
        print(f"no predprey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    bench = Bench(args.workload, args.seed, args.smoke)
    if args.trace:
        samples, reps, extra = traced_run(bench)
    else:
        samples, reps, extra = end_to_end(bench, args.seconds)
    context = machine_context(bench, load_start)
    units = _declared_units(args.trace)
    failed = sum(not r.ok for r in reps)
    summary = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                         "unit": units.get(name), "samples": values}
    correct = failed == 0 and bool(samples)
    if correct and set(samples) != set(units):
        raise SystemExit(f"emitted metrics {sorted(samples)} != declared {sorted(units)}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "correct": correct,
        "attempted": len(reps), "failed": failed,
        "problems": [p for r in reps for p in r.problems][:20],
        "metrics": summary, "extra": extra, "context": context,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(bench.dir, ignore_errors=True)

    for name, s in summary.items():
        print(f"{name:34s} {s['median']:.6g} {s['unit']}  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    for key in ("solver_gap", "workload_layers_s"):
        if key in extra:
            print(f"{key}: {json.dumps(extra[key])}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    print(f"record: {record_path.relative_to(ROOT)}; load {load_start[0]:.2f} -> "
          f"{context['loadavg_end'][0]:.2f}; calibration median "
          f"{statistics.median(extra['calibration_s']):.4f} s")
    result = {
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]} for name, s in summary.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
