"""Output gate: thinned reference comparison plus invariants that hold for any seed.

``thin`` reduces a command's output directory to sampled trajectory rows plus
the final row, thinned snapshot profiles, ``sweep_index.csv`` and the
``verify_report.json`` statuses.  For seed 0 the harness compares that against
the committed ``reference/<workload>.json``; for every seed it checks the
invariants.  Each check returns a list of problems: empty means the run passed.

Regenerate the references (only when an output change is intended) with
``python3 benchmark/gate.py --write-reference``.
"""
from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from workloads import BETA_B, EPS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
RTOL, ATOL = SPEC["gate"]["rtol"], SPEC["gate"]["atol"]
# Direct and transformed profiles agree to discretisation accuracy; the same
# bound criterion 09 of the acceptance gate puts on a 200-cell grid.
SOLVER_GAP_MAX = 1e-2
TRAJ_STRIDE = {"simulate-fine": 800, "sweep-grid": 100}
PROFILE_STRIDE = {"simulate-fine": 40, "sweep-grid": 100}


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _numeric(rows: list[list[str]]) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in rows], dtype=float)


def _sample(rows: list, stride: int) -> list[str]:
    """Rows 0, stride, 2*stride, ... and the last, as CSV text led by the row index."""
    idx = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
    return [",".join([str(i)] + rows[i]) for i in idx]


def _thin_csv(path: Path, stride: int) -> dict:
    header, rows = _read_csv(path)
    return {"header": header, "n_rows": len(rows), "rows": _sample(rows, stride)}


def _run_files(run_dir: Path) -> list[Path]:
    return sorted(run_dir.glob("trajectory*.csv")) + sorted(run_dir.glob("profiles*.csv"))


def _thin_run(run_dir: Path, workload: str) -> dict:
    out = {}
    for path in _run_files(run_dir):
        stride = TRAJ_STRIDE[workload] if path.name.startswith("trajectory") else PROFILE_STRIDE[workload]
        out[path.name] = _thin_csv(path, stride)
    return out


def thin(workload: str, outdir: Path) -> dict:
    outdir = Path(outdir)
    if workload == "simulate-fine":
        return {"files": _thin_run(outdir, workload)}
    if workload == "sweep-grid":
        header, rows = _read_csv(outdir / "sweep_index.csv")
        d = header.index("dir")
        for row in rows:
            row[d] = Path(row[d]).name
        runs = {row[d]: _thin_run(outdir / row[d], workload) for row in rows}
        return {"index": {"header": header, "n_rows": len(rows), "rows": _sample(rows, 1)},
                "runs": runs}
    report = json.loads((outdir / "verify_report.json").read_text())
    return {"statuses": [[c["id"], c["status"]] for c in report["criteria"]]}


def _close(ref: str, got: str) -> bool:
    try:
        r, g = float(ref), float(got)
    except ValueError:
        return ref == got
    if math.isnan(r) or math.isnan(g):
        return math.isnan(r) and math.isnan(g)
    return abs(g - r) <= RTOL * abs(r) + ATOL


def _compare_table(where: str, ref: dict, got: dict) -> list[str]:
    if ref["header"] != got["header"]:
        return [f"{where}: header {got['header']} != reference {ref['header']}"]
    if ref.get("n_rows") != got.get("n_rows"):
        return [f"{where}: {got.get('n_rows')} rows, reference has {ref.get('n_rows')}"]
    if len(ref["rows"]) != len(got["rows"]):
        return [f"{where}: sampled row count differs"]
    for r_line, g_line in zip(ref["rows"], got["rows"]):
        r_row, g_row = r_line.split(","), g_line.split(",")
        if len(r_row) != len(g_row):
            return [f"{where}: row {g_row[0]} has {len(g_row)} fields, reference {len(r_row)}"]
        for col, r, g in zip(["row"] + ref["header"], r_row, g_row):
            if not _close(r, g):
                return [f"{where}: {col}={g} differs from reference {r} (row {r_row[0]})"]
    return []


def compare(ref: dict, got: dict) -> list[str]:
    """Differences beyond |got - ref| <= rtol*|ref| + atol, or any text mismatch."""
    problems = []
    if "statuses" in ref:
        if ref["statuses"] != got.get("statuses"):
            problems.append(f"verify statuses {got.get('statuses')} != reference {ref['statuses']}")
        return problems
    if "index" in ref:
        problems += _compare_table("sweep_index.csv", ref["index"], got["index"])
        pairs = [(name, ref["runs"][name], got["runs"].get(name)) for name in ref["runs"]]
    else:
        pairs = [("", ref["files"], got["files"])]
    for run, r_files, g_files in pairs:
        if g_files is None or sorted(r_files) != sorted(g_files):
            problems.append(f"{run or 'outputs'}: files {sorted(g_files or [])} != reference")
            continue
        for name in r_files:
            problems += _compare_table(f"{run}/{name}".lstrip("/"), r_files[name], g_files[name])
    return problems


def _check_run_dir(run_dir: Path, u_floor: float | None) -> list[str]:
    """Finite numbers, positive densities, control-B floor on u."""
    problems = []
    files = _run_files(run_dir)
    if not any(p.name.startswith("trajectory") for p in files):
        return [f"{run_dir.name}: no trajectory output"]
    for path in files:
        header, rows = _read_csv(path)
        data = _numeric(rows)
        if data.size == 0 or not np.all(np.isfinite(data)):
            problems.append(f"{path.name}: empty or non-finite values")
            continue
        if path.name.startswith("profiles"):
            dens = data[:, [header.index("x1"), header.index("x2")]]
            if not np.all(dens > 0):
                problems.append(f"{path.name}: nonpositive density")
        elif u_floor is not None:
            u_min = float(data[:, header.index("u")].min())
            if u_min < u_floor:
                problems.append(f"{path.name}: u={u_min!r} below the control-B floor {u_floor!r}")
    return problems


def solver_gap(outdir: Path) -> float:
    """Max relative difference between direct and transformed profile snapshots."""
    gap = 0.0
    for direct in sorted(Path(outdir).glob("profiles_direct_t*.csv")):
        other = direct.with_name(direct.name.replace("_direct_", "_transformed_"))
        h, d_rows = _read_csv(direct)
        _, t_rows = _read_csv(other)
        cols = [h.index("x1"), h.index("x2")]
        d, t = _numeric(d_rows)[:, cols], _numeric(t_rows)[:, cols]
        gap = max(gap, float(np.max(np.abs(d - t) / d)))
    return gap


def invariants(workload: str, outdir: Path, lambda2: dict, expected_items: int) -> list[str]:
    """Checks that hold for every seed.  ``lambda2`` maps u_star text to lambda2."""
    outdir = Path(outdir)
    if workload == "simulate-fine":
        (u_star, lam2), = lambda2.items()
        problems = _check_run_dir(outdir, float(u_star) - EPS * lam2 - BETA_B)
        n_traj = len(list(outdir.glob("trajectory_*.csv")))
        if n_traj != expected_items:
            problems.append(f"{n_traj} trajectory files, expected {expected_items}")
        if not problems:
            gap = solver_gap(outdir)
            if not gap < SOLVER_GAP_MAX:
                problems.append(f"solver gap {gap:.3e} >= {SOLVER_GAP_MAX}")
        return problems
    if workload == "sweep-grid":
        header, rows = _read_csv(outdir / "sweep_index.csv")
        if len(rows) != expected_items:
            return [f"sweep_index.csv has {len(rows)} rows, expected {expected_items}"]
        problems = []
        col = {name: header.index(name) for name in header}
        for row in rows:
            floor = None
            if row[col["controller.kind"]] == "control_b":
                u_star = row[col["equilibrium.u_star"]]
                lam2 = next(v for k, v in lambda2.items() if float(k) == float(u_star))
                floor = float(u_star) - EPS * lam2 - float(row[col["controller.beta"]])
                if float(row[col["min_u"]]) < floor:
                    problems.append(f"{Path(row[col['dir']]).name}: min_u below the control-B floor")
            problems += _check_run_dir(outdir / Path(row[col["dir"]]).name, floor)
        return problems
    report = json.loads((outdir / "verify_report.json").read_text())
    failing = [c["id"] for c in report["criteria"] if c["status"] != "PASS"]
    problems = [f"criteria not PASS: {failing}"] if failing else []
    if len(report["criteria"]) != expected_items or not report["all_passed"]:
        problems.append(f"{len(report['criteria'])} criteria, all_passed={report['all_passed']}")
    return problems


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def check(workload: str, outdir: Path, lambda2: dict, expected_items: int,
          use_reference: bool) -> list[str]:
    """All gate problems for one command's outputs; missing files count too."""
    try:
        problems = invariants(workload, outdir, lambda2, expected_items)
        if use_reference and not problems:
            ref = json.loads(reference_path(workload).read_text())
            problems += compare(ref, thin(workload, outdir))
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as err:
        problems = [f"unreadable or missing output: {type(err).__name__}: {err}"]
    return problems


def _write_reference() -> None:
    """Run each workload at seed 0 and store its thinned outputs."""
    import run

    for workload in run.WORKLOADS:
        bench = run.Bench(workload, seed=0, smoke=False)
        bench.use_reference = False
        rep = bench.run_command(bench.config)
        if not rep.ok:
            sys.exit(f"{workload}: {rep.problems}")
        path = reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(thin(workload, rep.outdir), indent=1) + "\n")
        shutil.rmtree(bench.dir)
        print(f"wrote {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 benchmark/gate.py --write-reference")
    _write_reference()
