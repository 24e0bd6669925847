"""Property tests: invariants that hold at every record of every run.

Random multiplier starts under control B at the reference gains, on a coarse
grid and a short horizon, through both solvers.  At every record the
histories stay admissible (psi > -1), every snapshot profile is positive and
the dilution stays above the analytic control-B floor.

The paper's region-of-attraction claim, for each law: seeded random
multiplier starts inside the level set V <= c* stay inside it, decrease V at
the certified rate and converge to the equilibrium.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predprey.acceptance import REFERENCE_GAINS_A, REFERENCE_GAINS_B
from predprey.controllers import ControllerSpec, GainsB, control_B_floor
from predprey.lyapunov import dini_check, lyap_config_for, roa_estimate, v_full
from predprey.simulate import (ICSpec, SimConfig, simulate_direct, simulate_direct_batch,
                               simulate_transformed)
from predprey.transform import pi_functional, shape_deviation

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
    for _, (x1, x2) in traj.snapshots:
        assert np.all(x1 > 0.0) and np.all(x2 > 0.0)
    assert np.all(traj.u >= control_B_floor(GainsB(**GAINS_B), setup50.eq))


ROA_STARTS = 32
ROA_T_FINAL = 12.0


@pytest.mark.parametrize("kind, gains, seed", [("control_a", REFERENCE_GAINS_A, 1),
                                               ("control_b", REFERENCE_GAINS_B, 2)],
                         ids=["control_a", "control_b"])
def test_starts_inside_the_roa_level_converge(setup100, kind, gains, seed):
    # each row: a random multiplier direction (log offset and slope per
    # species), bisected along its ray to V(eta0, psi0) <= 0.9 c*, then
    # scaled by sqrt(U(0, 1)); all rows march as one batch
    setup, eq, a = setup100, setup100.eq, setup100.grid.nodes
    spec = ControllerSpec(kind=kind, **gains)
    cfg = lyap_config_for(spec, eq, setup.sigma)
    c_star = roa_estimate(cfg, eq).c_star
    rng = np.random.default_rng(seed)
    offset = rng.uniform(-1.0, 1.0, (ROA_STARTS, 2))
    slope = rng.uniform(-2.0, 2.0, (ROA_STARTS, 2))

    def v_at(scale):
        # the multiplier start x_i = x_i_star * exp(s*offset_i + s*slope_i*a)
        # of each row, taken to (eta, psi) and V in one stacked call each
        s = scale[:, None, None]
        x = eq.x_star * np.exp(s * offset[..., None] + s * slope[..., None] * a)
        p = pi_functional(x, setup.adj)
        return v_full(np.log(p), shape_deviation(x, eq.x_star, p[..., None]), cfg, eq)

    lo, hi = np.zeros(ROA_STARTS), np.ones(ROA_STARTS)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        inside = v_at(mid) <= 0.9 * c_star
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    scale = lo * np.sqrt(rng.uniform(0.0, 1.0, ROA_STARTS))
    assert np.all(v_at(scale) <= 0.9 * c_star)
    cfgs = [SimConfig(t_final=ROA_T_FINAL, controller=spec,
                      ic=ICSpec(kind="multiplier", log_offset=tuple(s * o),
                                log_slope=tuple(s * k)))
            for s, o, k in zip(scale, offset, slope)]
    for row, traj in enumerate(simulate_direct_batch(setup, cfgs)):
        traj.finalize_lyapunov(eq, cfg)
        assert traj.V[0] <= c_star, row
        # criterion 11's bound on the forward-difference decrease violation
        assert dini_check(traj, cfg, eq) <= 1e-2, row
        assert np.linalg.norm(traj.eta[-1]) <= 1e-3, row
