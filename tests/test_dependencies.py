import os
import subprocess
import sys
from pathlib import Path

import predprey

SRC = str(Path(predprey.__file__).resolve().parents[1])

SCRIPT = """
import sys
startup = set(sys.modules)
import predprey
import predprey.acceptance, predprey.cli, predprey.svgplot
from predprey import AgeGrid, build_kernels, build_setup
from predprey.controllers import ControllerSpec
from predprey.lyapunov import lyap_config_for
from predprey.simulate import ICSpec, SimConfig, simulate_transformed

grid = AgeGrid(A=1.0, n_cells=50)
setup = build_setup(build_kernels(0.5, 3.0, 0.4, 0.5, 3.0, 0.4, grid), 0.15)
cfg = lyap_config_for(ControllerSpec(kind="control_a", eps=0.2, beta=0.6), setup.eq, setup.sigma)
traj = simulate_transformed(
    setup, SimConfig(t_final=0.5, controller=ControllerSpec(kind="control_a"),
                     ic=ICSpec(kind="FQ")),
).finalize_lyapunov(setup.eq, cfg)
assert traj.V.size > 0
tops = {m.split(".")[0] for m in set(sys.modules) - startup if not m.startswith("_")}
print(",".join(sorted(tops - set(sys.stdlib_module_names) - {"numpy", "predprey"})))
"""


def test_numpy_is_the_only_numerical_dependency():
    # a fresh interpreter, so modules imported by other tests do not count;
    # anything the package pulls in from outside the standard library besides
    # numpy is a dependency
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "", f"third-party modules imported: {out.stdout.strip()}"
