"""Self-test of the benchmark harness at smoke size (about a minute).

    python3 benchmark/selftest.py

Checks that every metric in BENCHMARK.json is emitted with its declared unit
by both modes of every workload, that spec.json documents each one, that the
output gate passes changes at the 1e-13 level and catches corrupted outputs
and a nonzero exit, and that the harness fails without a result where there
are no program sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import gate
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def check_emitted_metrics() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCH[key]}
        expect(set(declared) <= set(gate.SPEC[key]), f"spec.json documents every {key} metric")
        for workload in run.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            emitted = {k: v.get("unit") for k, v in res["metrics"].items()}
            numbers = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                          for v in res["metrics"].values())
            expect(proc.returncode == 0 and set(res) == {"correct", "attempted", "failed", "metrics"}
                   and res["correct"] and res["attempted"] >= 1 and res["failed"] == 0,
                   f"{workload} --trace {trace}: correct result line")
            expect(emitted == declared and numbers,
                   f"{workload} --trace {trace}: every {key} metric with its unit")


def _scale_field(path: Path, line_no: int, col: int, factor: float) -> None:
    lines = path.read_text().splitlines()
    fields = lines[line_no].split(",")
    fields[col] = format(float(fields[col]) * factor, ".17g")
    lines[line_no] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def check_gate(workload: str) -> None:
    bench = run.Bench(workload, seed=0, smoke=True)
    try:
        rep = bench.run_command(bench.config)
        expect(rep.ok, f"{workload}: smoke command passes the invariants")
        ref = gate.thin(workload, rep.outdir)
        expect(gate.compare(ref, ref) == [], f"{workload}: outputs match their own reference")

        def corrupted(edit) -> Path:
            copy = bench.dir / "corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(rep.outdir, copy)
            edit(copy)
            return copy

        def problems(copy: Path) -> list[str]:
            found = gate.invariants(workload, copy, bench.lambda2, bench.expected_items)
            return found or gate.compare(ref, gate.thin(workload, copy))

        if workload == "verify-gate":
            def fail_one(d: Path) -> None:
                report = json.loads((d / "verify_report.json").read_text())
                report["criteria"][4]["status"] = "FAIL"
                (d / "verify_report.json").write_text(json.dumps(report))
            expect(problems(corrupted(fail_one)) != [], f"{workload}: a FAIL status is caught")
        else:
            traj = (lambda d: d / "trajectory_direct.csv") if workload == "simulate-fine" else (
                lambda d: sorted(d.glob("run_*"))[0] / "trajectory.csv")
            prof = (lambda d: d / "profiles_direct_t1.csv") if workload == "simulate-fine" else (
                lambda d: sorted(d.glob("run_*"))[0] / "profiles_t1.csv")
            for factor, caught, what in ((1 + 1e-13, False, "a 1e-13 relative change passes"),
                                         (1 + 1e-6, True, "a 1e-6 relative change is caught")):
                copy = corrupted(lambda d: _scale_field(traj(d), 1, 1, factor))
                expect((problems(copy) != []) == caught, f"{workload}: {what}")
            copy = corrupted(lambda d: _scale_field(prof(d), 2, 1, -1.0))
            expect(problems(copy) != [], f"{workload}: a negative density is caught")
            copy = corrupted(lambda d: _scale_field(traj(d), 2, 3, math.nan))
            expect(problems(copy) != [], f"{workload}: a NaN is caught")
            copy = corrupted(lambda d: traj(d).unlink())
            expect(gate.check(workload, copy, bench.lambda2, bench.expected_items, False) != [],
                   f"{workload}: a missing output is caught")
        bad = bench.dir / "bad.ini"
        bad.write_text(bench.config.read_text() + "[model]\nno_such_key = 1\n")
        failed = bench.run_command(bad)
        expect(failed.rc != 0 and not failed.ok, f"{workload}: a nonzero exit fails the run")
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)


def check_bare_checkout() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "simulate-fine", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without src/ the harness exits nonzero and prints no result")


def main() -> int:
    check_emitted_metrics()
    for workload in run.WORKLOADS:
        check_gate(workload)
    check_bare_checkout()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
