"""Property tests: invariants that hold at every record of every run.

Random multiplier starts under control B at the reference gains, on a coarse
grid and a short horizon, through both solvers.  At every record the
histories stay admissible (psi > -1), every snapshot profile is positive and
the dilution stays above the analytic control-B floor.  Left open: "V is
non-increasing from inside the ROA", which needs a start generator inside
the level set.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predprey.controllers import ControllerSpec, GainsB, control_B_floor
from predprey.simulate import ICSpec, SimConfig, simulate_direct, simulate_transformed

from conftest import make_setup

GAINS_B = dict(eps=0.01, beta=0.13, delta=0.2)
T_FINAL = 2.0

offsets = st.floats(min_value=-1.0, max_value=1.0)
slopes = st.floats(min_value=-2.0, max_value=2.0)


@pytest.fixture(scope="module")
def setup50():
    return make_setup(50)


@pytest.mark.parametrize("run", [simulate_direct, simulate_transformed])
@settings(deadline=None, max_examples=40, derandomize=True, database=None)
@given(offset=st.tuples(offsets, offsets), slope=st.tuples(slopes, slopes))
def test_control_b_run_invariants(setup50, run, offset, slope):
    cfg = SimConfig(
        t_final=T_FINAL,
        controller=ControllerSpec(kind="control_b", **GAINS_B),
        ic=ICSpec(kind="multiplier", log_offset=offset, log_slope=slope),
        snapshot_times=tuple(np.linspace(0.0, T_FINAL, 5)),
    )
    traj = run(setup50, cfg)
    assert np.all(traj.psi_min > -1.0)
    assert traj.snapshots
    for _, x1, x2 in traj.snapshots:
        assert np.all(x1 > 0.0) and np.all(x2 > 0.0)
    assert np.all(traj.u >= control_B_floor(GainsB(**GAINS_B), setup50.eq))
