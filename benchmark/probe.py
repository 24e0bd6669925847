"""Fresh-interpreter probes started by the harness with ``PYTHONPATH=<checkout>/src``.

``probe.py setup <workload> <config>``
    Imports predprey, loads the workload config and builds the Setup its
    command builds first, then exits.  The harness times the whole process:
    that wall time is ``setup_s``.
``probe.py info <u_star>...``
    Untimed.  Prints the path of the imported package, the library versions
    and lambda2 at each setpoint (for the control-B floor check) as JSON.
"""
from __future__ import annotations

import sys


def setup(workload: str, config_path: str) -> None:
    import predprey  # noqa: F401  (the import is part of what setup_s times)
    from predprey.acceptance import VerifyContext
    from predprey.cli import build_setup_from_config
    from predprey.config import load_config, override

    cfg = load_config(config_path, env={})
    if workload == "verify-gate":
        VerifyContext(n_cells=cfg.model.n_cells, u_star=cfg.equilibrium.u_star).setup()
        return
    if workload == "sweep-grid" and cfg.sweep.u_star:
        # only u_star of the first combo changes what build_setup computes
        cfg = override(cfg, equilibrium={"u_star": cfg.sweep.u_star[0]})
    build_setup_from_config(cfg)


def _version(dist: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def info(u_stars: list[str]) -> None:
    import json

    import numpy as np

    import predprey
    from predprey.cli import build_setup_from_config
    from predprey.config import load_config, override

    base = load_config(None, env={})
    lambda2 = {}
    for raw in u_stars:
        cfg = override(base, equilibrium={"u_star": float(raw)})
        lambda2[raw] = build_setup_from_config(cfg).eq.lambda2
    print(json.dumps({
        "predprey_file": predprey.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "lambda2": lambda2,
    }))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "info":
        info(sys.argv[2:])
    else:
        sys.exit(f"unknown probe {sys.argv[1]!r}")
