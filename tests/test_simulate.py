import gc
import math
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

from predprey import acceptance, simulate
from predprey.controllers import BoundController, ControllerSpec
from predprey.errors import NumericalError
from predprey.lyapunov import g_fn
from predprey.model import AgeGrid, PopulationState, bc_residual, kernels_from_tables
from predprey.simulate import (
    _RENEWAL_BLOCK,
    ICSpec,
    SimConfig,
    _block_len,
    _direct_ops,
    _march_histories,
    _transformed_ops,
    build_setup,
    cross_validate,
    ic_from_spec,
    simulate_direct,
    simulate_transformed,
    transformed_ic,
)
from predprey.transform import pi_functional, shape_deviation, to_transformed

from conftest import make_setup
from oracles import (_direct_step_ops, _transport, interaction_terms, march_direct,
                     march_histories_stepwise, march_transformed, step_direct, step_transformed,
                     transformed_step_reference)

OPEN = ControllerSpec(kind="open_loop")


def test_ic_fq_newborn_value(setup400):
    eq = setup400.eq
    state = ic_from_spec(ICSpec(kind="FQ"), eq)
    assert state.x[0, 0] == pytest.approx(eq.x0_star[0] * np.e, rel=1e-12)
    assert state.x[0, 0] == pytest.approx(91.9, abs=0.2)


def test_ic_unit_multiplier_is_equilibrium(setup400):
    eq = setup400.eq
    state = ic_from_spec(ICSpec(kind="multiplier"), eq)
    assert np.allclose(state.x[0], eq.x_star[0]) and np.allclose(state.x[1], eq.x_star[1])


def test_ic_sq_transforms_to_second_quadrant(setup400):
    eq = setup400.eq
    ts = to_transformed(ic_from_spec(ICSpec(kind="SQ"), eq), eq, setup400.adj)
    assert ts.eta[0] == pytest.approx(-1.41, abs=0.01)
    assert ts.eta[1] == pytest.approx(1.57, abs=0.01)


def test_ic_spec_rejects_starts_that_are_not_two_finite_numbers():
    # a one-number pair used to stand for both species, and a nan start got
    # past the constructor to fail the nan guard at t = 0
    bad = [(0.5,), (0.1, 0.2, 0.3), (), (math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0),
           ("1", 0.0), (None, 0.0), 0.5, None]
    for name in ("log_offset", "log_slope", "eta0"):
        for value in bad:
            with pytest.raises(ValueError, match=f"{name} must be two finite numbers"):
                ICSpec(kind="eta" if name == "eta0" else "multiplier", **{name: value})
        # the check holds whatever the kind: FQ would ignore the offsets
        with pytest.raises(ValueError, match=f"{name} must be two finite numbers"):
            ICSpec(kind="FQ", **{name: (0.5,)})
    spec = ICSpec(kind="eta", eta0=np.array([1.0, np.int64(-2)]))
    assert np.array_equal(spec.eta0, [1.0, -2.0])
    ICSpec(kind="multiplier", log_offset=[0.5, -0.5], log_slope=(np.float64(1.0), 2))


def test_ic_table_requires_positive(setup400):
    eq = setup400.eq
    with pytest.raises(NumericalError):
        ic_from_spec(
            ICSpec(kind="table", x=eq.x_star * [[0.0], [1.0]]),
            eq,
        )


def test_interaction_terms_at_equilibrium(setup400):
    eq = setup400.eq
    state = PopulationState(t=0.0, x=eq.x_star.copy())
    i1, i2 = interaction_terms(state, setup400.kernels)
    assert i1 == pytest.approx(eq.lambda2, rel=1e-10)
    assert i2 == pytest.approx(1.0 / eq.lambda1, rel=1e-10)
    assert (i1, i2) == pytest.approx((1.02, 1.0204), rel=0.01)


def test_interaction_terms_scalings(setup400):
    eq = setup400.eq
    doubled = PopulationState(t=0.0, x=eq.x_star * [[2.0], [1.0]])
    _, i2 = interaction_terms(doubled, setup400.kernels)
    assert i2 == pytest.approx(1.0 / (2.0 * eq.lambda1), rel=1e-10)
    no_predators = PopulationState(t=0.0, x=eq.x_star * [[1.0], [0.0]])
    i1, _ = interaction_terms(no_predators, setup400.kernels)
    assert i1 == 0.0


def test_interaction_terms_prey_collapse(setup400):
    eq = setup400.eq
    collapsed = PopulationState(t=1.0, x=eq.x_star * [[0.0], [1.0]])
    with pytest.raises(NumericalError, match="collapse"):
        interaction_terms(collapsed, setup400.kernels)


def test_step_direct_fixed_point(setup400):
    eq, grid = setup400.eq, setup400.grid
    state = PopulationState(t=0.0, x=eq.x_star.copy())
    nxt = step_direct(state, eq.u_star, setup400.kernels, grid.da)
    assert np.max(np.abs(nxt.x[0] - eq.x_star[0]) / eq.x_star[0]) < 1e-4
    assert np.max(np.abs(nxt.x[1] - eq.x_star[1]) / eq.x_star[1]) < 1e-4


@pytest.mark.parametrize("solver", ["direct", "transformed"])
def test_step_matches_simulate(setup100, solver):
    # the transformed loop runs the one-step kernel's Heun step on the same
    # histories, so its eta and u agree bitwise; the direct march splits each
    # profile into a scale and a loss-free march, so its series agree with
    # the profile stepper to rounding
    eq, grid = setup100.eq, setup100.grid
    spec = ControllerSpec(kind="control_b", eps=0.01, beta=0.13, delta=0.2)
    cfg = SimConfig(t_final=200 * grid.da, controller=spec, ic=ICSpec(kind="SQ"))
    controller = BoundController(spec, eq)
    if solver == "direct":
        traj = simulate_direct(setup100, cfg)
        wpi, denom = grid.weights * setup100.adj.pi0, setup100.adj.denom
        state = ic_from_spec(cfg.ic, eq)

        def eta_of(s):
            return np.array([np.log(float(wpi[i] @ x) / denom[i]) for i, x in enumerate(s.x)])

        def step(s, u):
            return step_direct(s, u, setup100.kernels, grid.da)
    else:
        traj = simulate_transformed(setup100, cfg)
        state = transformed_ic(cfg.ic, setup100)

        def eta_of(s):
            return s.eta

        def step(s, u):
            return step_transformed(s, u, eq, grid.da)
    etas, us = [], []
    for _ in range(201):
        eta = eta_of(state)
        u = controller.u_from_eta(*eta)
        etas.append(eta)
        us.append(u)
        state = step(state, u)
    assert len(traj.times) == 201
    tol = 1e-12 if solver == "direct" else 0.0
    assert np.max(np.abs(traj.eta - np.array(etas))) <= tol
    assert np.max(np.abs(traj.u - np.array(us))) <= tol


# the laws of the stepwise oracle tests, by test id: the measured law with
# each of its sensors
ORACLE_LAWS = {
    "open_loop": OPEN,
    "control_b": ControllerSpec(kind="control_b", eps=0.01, beta=0.13, delta=0.2),
    "measured": ControllerSpec(kind="measured"),
    "measured_birth": ControllerSpec(kind="measured", sensor="birth"),
    "measured_uniform": ControllerSpec(kind="measured", sensor="uniform"),
}


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("ic", ["FQ", "SQ"])
@pytest.mark.parametrize("kind", list(ORACLE_LAWS))
def test_transformed_march_is_its_stepwise_oracle(setup100, kind, ic, every):
    # the march takes the history half once per run and renews the histories
    # a block of steps at a time; a loop of one-step kernels renews them and
    # takes their integrals step by step.  The measured law takes its sensor
    # outputs as e^eta times the half's sensor factors, the oracle as
    # integrals of the profiles.  So the runs round apart: every recorded
    # series agrees to 1e-12 over 300 steps, and every snapshot to 1e-12
    # relative
    cfg = SimConfig(t_final=300 * setup100.grid.da, controller=ORACLE_LAWS[kind],
                    ic=ICSpec(kind=ic), record_every=every, snapshot_times=(0.0, 1.37, 3.0))
    traj = simulate_transformed(setup100, cfg)
    times, eta, u, G, psi_min, snapshots = march_transformed(setup100, cfg)
    assert len(times) == 300 // every + 1
    assert np.array_equal(traj.times, times)
    for name, ref in (("eta", eta), ("u", u), ("G1", G[0]), ("G2", G[1]), ("psi_min", psi_min)):
        assert np.max(np.abs(getattr(traj, name) - ref)) <= 1e-12, name
    assert len(traj.snapshots) == len(snapshots) == 3
    for (t_m, x_m), (t_o, x_o) in zip(traj.snapshots, snapshots):
        assert t_m == t_o and np.max(np.abs(x_m - x_o) / x_o) <= 1e-12


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("ic", ["FQ", "SQ"])
@pytest.mark.parametrize("kind", list(ORACLE_LAWS))
def test_direct_march_matches_its_stepwise_oracle(setup100, kind, ic, every):
    # the march takes the loss-free half once per run and keeps only eta; a
    # loop of the profile stepper moves whole profiles.  Every recorded series
    # agrees to 1e-12 over 300 steps, and every snapshot to 1e-12 relative
    cfg = SimConfig(t_final=300 * setup100.grid.da, controller=ORACLE_LAWS[kind],
                    ic=ICSpec(kind=ic), record_every=every, snapshot_times=(0.0, 1.37, 3.0))
    traj = simulate_direct(setup100, cfg)
    times, eta, u, G, psi_min, snapshots = march_direct(setup100, cfg)
    assert len(times) == 300 // every + 1
    assert np.array_equal(traj.times, times)
    for name, ref in (("eta", eta), ("u", u), ("G1", G[0]), ("G2", G[1]), ("psi_min", psi_min)):
        assert np.max(np.abs(getattr(traj, name) - ref)) <= 1e-12, name
    assert len(traj.snapshots) == len(snapshots) == 3
    for (t_m, x_m), (t_o, x_o) in zip(traj.snapshots, snapshots):
        assert t_m == t_o and np.max(np.abs(x_m - x_o) / x_o) <= 1e-12


@pytest.mark.parametrize("n", [100, 400])
@pytest.mark.parametrize("ic", ["SQ", "FQ"])
@pytest.mark.parametrize("beta", [5000.0, 500.0, 50.0])
def test_diverging_direct_run_fails_typed(setup100, setup400, beta, ic, n):
    # large control-A gains drive the direct march out of range within a few
    # steps; each run finishes or raises a typed error, with no RuntimeWarning
    setup = {100: setup100, 400: setup400}[n]
    cfg = SimConfig(t_final=2.0, ic=ICSpec(kind=ic),
                    controller=ControllerSpec(kind="control_a", eps=0.2, beta=beta))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            simulate_direct(setup, cfg)
        except NumericalError as err:
            assert err.reason in ("nan_guard", "prey_collapse") and err.t < 0.1


@pytest.mark.parametrize("solve, kind", [
    (simulate_direct, "control_b"), (simulate_direct, "measured"),
    *((simulate_transformed, kind) for kind in ("control_a", "control_b", "measured")),
], ids=["direct-control_b", "direct-measured",
        "transformed-control_a", "transformed-control_b", "transformed-measured"])
def test_diverging_run_fails_typed_on_both_solvers(setup100, solve, kind):
    # as the direct control-A runs above, on the other laws and the
    # transformed solver: the Heun step's exp and the measured law's e^eta
    # read an eta that is not clamped, and where exp overflows each run
    # finishes or raises a typed error, with no bare exception and no
    # RuntimeWarning.  Control B keeps its admissible beta 0.13 and takes the
    # large gain as beta/delta
    for beta in (5000.0, 500.0, 50.0):
        spec = (ControllerSpec(kind=kind, eps=0.01, beta=0.13, delta=0.13 / beta)
                if kind == "control_b" else ControllerSpec(kind=kind, eps=0.2, beta=beta))
        for ic in ("SQ", "FQ"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    solve(setup100, SimConfig(t_final=2.0, ic=ICSpec(kind=ic), controller=spec))
                except NumericalError as err:
                    assert err.reason in ("nan_guard", "measurement_nonpositive")
                    assert err.t < 0.1


def test_direct_rejects_survival_out_of_range(setup100):
    # a mortality whose survival to age A underflows cannot scale the march
    kernels = replace(setup100.kernels, mu=1000.0 * setup100.kernels.mu)
    with pytest.raises(NumericalError, match="floating-point range") as err:
        simulate_direct(replace(setup100, kernels=kernels),
                        SimConfig(t_final=0.1, controller=OPEN, ic=ICSpec(kind="FQ")))
    assert (err.value.reason, err.value.t) == ("survival_range", 0.0)


def _history_failure_setup(setup, reason):
    """A Setup whose history half fails with ``reason``: doubled discounted
    birth kernels amplify the histories until a newborn sample reaches -1, and
    a predator interaction kernel that turns negative at old ages makes
    quad(g2*x1) nonpositive once the young prey surplus of SQ has aged."""
    eq = setup.eq
    if reason == "psi_admissibility":
        return replace(setup, eq=replace(eq, ktilde=2.0 * eq.ktilde))
    g = eq.kernels.g.copy()
    g[1] *= 1.0 - 2.5 * eq.grid.nodes
    return replace(setup, eq=replace(eq, kernels=types.SimpleNamespace(g=g)))


DIVERGING = SimConfig(t_final=2.0, ic=ICSpec(kind="SQ"),
                      controller=ControllerSpec(kind="control_a", eps=0.2, beta=5000.0))


@pytest.mark.parametrize("reason, ic, t_fail", [
    ("nan_guard", "SQ", 0.02),
    ("psi_admissibility", "SQ", 1.01),
    ("psi_admissibility", "FQ", 1.01),
    ("prey_collapse", "SQ", 0.43),
    ("prey_collapse", "FQ", 0.0),
])
def test_transformed_march_fails_where_its_stepwise_oracle_fails(setup100, reason, ic, t_fail):
    # the history half is marched before the eta loop; its failures are
    # raised at the step where the stepwise march meets them, after that
    # step's eta and u checks, with the same reason and t
    if reason == "nan_guard":
        setup, cfg = setup100, DIVERGING
    else:
        setup = _history_failure_setup(setup100, reason)
        cfg = SimConfig(t_final=3.0, controller=OPEN, ic=ICSpec(kind=ic))
    with pytest.raises(NumericalError) as marched:
        simulate_transformed(setup, cfg)
    with pytest.raises(NumericalError) as stepped:
        march_transformed(setup, cfg)
    assert (marched.value.reason, marched.value.t) == (stepped.value.reason, stepped.value.t)
    assert marched.value.reason == reason
    assert marched.value.t == pytest.approx(t_fail, abs=1e-12)


def test_direct_records_reduce_across_blocks(setup100):
    # psi_min and G are reduced a block of records at a time; at
    # snapshot steps on both sides of a block boundary they equal, to 1e-12,
    # the shape deviations of the snapshot profiles, reduced one by one.  A
    # record off by one step moves them by about 1e-8 (psi_min) and 2e-4 (G)
    block = _block_len(setup100.grid.n_nodes)
    da, eq = setup100.grid.da, setup100.eq
    steps = (0, block - 1, block, block + 1, 2 * block + 5)
    traj = simulate_direct(setup100, SimConfig(
        t_final=steps[-1] * da, controller=OPEN, ic=ICSpec(kind="SQ"),
        snapshot_times=tuple(s * da for s in steps)))
    assert len(traj.times) == steps[-1] + 1
    for step, (_, x) in zip(steps, traj.snapshots):
        psi = shape_deviation(x, eq.x_star, pi_functional(x, setup100.adj)[:, None])
        assert np.max(np.abs(traj.psi_min[step] - psi.min(axis=-1))) <= 1e-12, step
        g = g_fn(psi, setup100.sigma, setup100.grid)
        assert np.max(np.abs((traj.G1[step], traj.G2[step]) - g)) <= 1e-12, step


@pytest.mark.parametrize("n_cells, n_steps", [
    pytest.param(30, 2 * _RENEWAL_BLOCK + 5, id="ages_within_a_block"),
    pytest.param(100, 2 * _RENEWAL_BLOCK + 5, id="ages_beyond_a_block"),
    pytest.param(100, _RENEWAL_BLOCK // 2 + 1, id="run_within_a_block"),
])
@pytest.mark.parametrize("solver", ["direct", "transformed"])
def test_renewal_blocks_match_the_stepwise_renewal(setup100, solver, n_cells, n_steps):
    # the renewal marches a block of steps per product with the last n - 1
    # samples, also when fewer than n - 1 ages fit in a block or the run
    # ends inside its first one; on both sides of the block boundaries its
    # samples are the one-step renewal's to 1e-12 relative
    setup = setup100 if n_cells == 100 else make_setup(n_cells)
    if solver == "direct":
        _, s, _, _, wk, d = _direct_ops(setup)
        z0 = ic_from_spec(ICSpec(kind="SQ"), setup.eq).x / s
    else:
        _, wk, d = _transformed_ops(setup.eq)
        z0 = transformed_ic(ICSpec(kind="SQ"), setup).psi
    got = _march_histories(z0, n_steps, wk, d)
    ref = march_histories_stepwise(z0, n_steps, wk, d)
    k = _RENEWAL_BLOCK
    for step in (1, k - 1, k, k + 1, 2 * k + 5, n_steps):
        if step <= n_steps:
            assert np.max(np.abs(got[step] - ref[step])) <= 1e-12 * np.max(np.abs(ref[step])), step


def test_histories_are_reduced_once_on_first_read(setup100, monkeypatch):
    # G and psi_min are reduced from a run's histories on their first read,
    # once for that run: the criteria that read neither reduce nothing, and
    # the values are bitwise those of the reduction called directly
    calls = []
    reduce = simulate._reduce_histories

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(simulate, "_reduce_histories", counted)
    ctx = acceptance.VerifyContext(n_cells=acceptance.MIN_CELLS)
    for check in (acceptance.criterion_03_conservation, acceptance.criterion_05_control_a_fq,
                  acceptance.criterion_06_control_a_sq,
                  acceptance.criterion_07_control_b_positive):
        check(ctx)
    assert calls == []
    # the first read of a run's G reduces that run once; later reads of it
    # reduce nothing
    for count, run in enumerate(acceptance.REFERENCE_RUNS, 1):
        traj = ctx.direct_run(*run)
        g1 = traj.G1
        assert len(calls) == count, run
        psi_min, G = reduce(*calls[-1])
        assert g1.tobytes() == G[0].tobytes(), run
        assert traj.psi_min.tobytes() == psi_min.tobytes(), run
        assert traj.G2.tobytes() == G[1].tobytes(), run
    for run in acceptance.REFERENCE_RUNS:
        ctx.direct_run(*run).G1
    assert len(calls) == len(acceptance.REFERENCE_RUNS)
    # a run keeps its histories until it is dropped
    kept = simulate_transformed(setup100, SimConfig(t_final=0.5, controller=OPEN,
                                                     ic=ICSpec(kind="SQ")))
    gc.collect()
    g1 = kept.G1
    assert len(calls) == len(acceptance.REFERENCE_RUNS) + 1
    assert g1.tobytes() == reduce(*calls[-1])[1][0].tobytes()


def test_direct_kernel_no_births():
    grid = AgeGrid(A=1.0, n_cells=16)
    x = np.linspace(1.0, 2.0, grid.n_nodes)
    # species data (one-cell survival, w*k on nodes 1.., newborn denominator)
    no_births = (np.ones(grid.n_cells), np.zeros(grid.n_cells), 1.0)
    out = _transport(x, no_births, 0.0, grid.da)
    assert out[0] == 0.0  # no birth kernel, no newborns


def test_direct_kernel_pure_transport():
    grid = AgeGrid(A=1.0, n_cells=16)
    x = np.linspace(1.0, 2.0, grid.n_nodes)
    no_losses = (np.ones(grid.n_cells), np.zeros(grid.n_cells), 1.0)
    out = _transport(x, no_losses, 0.0, grid.da)
    assert np.array_equal(out[1:], x[:-1])


def test_direct_kernel_rejects_coarse_renewal():
    grid = AgeGrid(A=1.0, n_cells=2)
    ones = np.ones((2, grid.n_nodes))
    k = np.full((2, grid.n_nodes), 5.0)  # w0*k0 = 0.25*5 > 1
    kernels = kernels_from_tables(grid, ones, k, ones)
    state = PopulationState(t=0.0, x=ones.copy())
    with pytest.raises(NumericalError, match="coarse") as err:
        step_direct(state, 0.1, kernels, grid.da)
    assert err.value.reason == "renewal_weight"


@pytest.mark.parametrize("solver", ["direct", "transformed"])
def test_simulate_rejects_coarse_renewal_at_t0(setup100, solver):
    # w0*k(0) = 0.005*300 > 1 for the direct kernel k1 or the discounted
    # kernel ktilde1; both loops report it at t = 0 with the same message
    big = np.full(setup100.grid.n_nodes, 300.0)
    if solver == "direct":
        k = np.array([big, setup100.kernels.k[1]])
        setup = replace(setup100, kernels=replace(setup100.kernels, k=k))
        run, ic = simulate_direct, ICSpec(kind="FQ")
    else:
        ktilde = np.array([big, setup100.eq.ktilde[1]])
        setup = replace(setup100, eq=replace(setup100.eq, ktilde=ktilde))
        run, ic = simulate_transformed, ICSpec(kind="eta", eta0=(0.1, -0.1))
    with pytest.raises(NumericalError, match="kernel at age 0 reaches 1.5 ") as err:
        run(setup, SimConfig(t_final=0.1, controller=OPEN, ic=ic))
    assert err.value.reason == "renewal_weight"
    assert err.value.t == 0.0


def test_direct_snapshot_does_not_alias_table_ic(setup100):
    eq = setup100.eq
    x = eq.x_star * [[1.1], [0.9]]
    traj = simulate_direct(
        setup100, SimConfig(t_final=0.1, controller=OPEN,
                            ic=ICSpec(kind="table", x=x), snapshot_times=(0.0,)),
    )
    # the snapshot is rebuilt from eta and the scaled march: the start to
    # rounding, in an array of its own
    t0, s = traj.snapshots[0]
    assert t0 == 0.0 and np.max(np.abs(s - x) / x) <= 1e-14
    assert not np.shares_memory(s, x)


def test_step_transformed_zero_history_is_invariant(setup200):
    eq, grid = setup200.eq, setup200.grid
    ts = transformed_ic(ICSpec(kind="eta", eta0=(0.4, -0.3)), setup200)
    nxt = step_transformed(ts, eq.u_star, eq, grid.da)
    assert np.max(np.abs(nxt.psi[0])) < 1e-14
    assert np.max(np.abs(nxt.psi[1])) < 1e-14


def test_step_transformed_origin_fixed_point(setup200):
    eq, grid = setup200.eq, setup200.grid
    ts = transformed_ic(ICSpec(kind="eta", eta0=(0.0, 0.0)), setup200)
    nxt = step_transformed(ts, eq.u_star, eq, grid.da)
    assert np.max(np.abs(nxt.eta)) < 1e-12


def test_step_transformed_matches_species_reference(setup100):
    # from a start with nonzero histories, so that the second Heun stage must
    # read the renewed histories; the kernel multiplies by 1/j1 where the
    # reference divides by j1, so eta agrees to rounding
    eq, grid = setup100.eq, setup100.grid
    ts = transformed_ic(ICSpec(kind="SQ"), setup100)
    ref = (ts.eta, *ts.psi)
    for _ in range(100):
        ts = step_transformed(ts, 0.12, eq, grid.da)
        ref = transformed_step_reference(*ref, 0.12, eq)
    assert np.array_equal(ts.psi[0], ref[1]) and np.array_equal(ts.psi[1], ref[2])
    assert np.allclose(ts.eta, ref[0], rtol=1e-13, atol=0.0)


def test_history_sup_decays(setup200):
    # the shape deviations of the prey-surplus start shrink between t=0 and t=5
    traj = simulate_transformed(
        setup200, SimConfig(t_final=5.0, controller=OPEN, ic=ICSpec(kind="FQ"),
                            snapshot_times=()),
    )
    assert traj.G1[-1] < 0.05 * traj.G1[0]
    assert traj.G2[-1] < 0.05 * traj.G2[0]


def test_history_exponential_envelope(setup200):
    # log of the weighted sup decreases essentially affinely in t
    traj = simulate_transformed(
        setup200, SimConfig(t_final=4.0, controller=OPEN, ic=ICSpec(kind="FQ")),
    )
    mask = traj.G1 > 1e-10
    t = traj.times[mask]
    logs = np.log(traj.G1[mask])
    slope = np.polyfit(t, logs, 1)[0]
    assert slope < -0.5


def test_simulate_direct_positivity_and_bc(setup400):
    traj = simulate_direct(
        setup400,
        SimConfig(t_final=20.0, controller=OPEN, ic=ICSpec(kind="FQ"),
                  snapshot_times=tuple(np.linspace(0, 20, 21))),
    )
    ks, grid = setup400.kernels, setup400.grid
    for t_snap, (x1, x2) in traj.snapshots:
        assert np.all(x1 > 0) and np.all(x2 > 0)
        if t_snap > 0:  # the initial profiles deliberately violate the BC
            assert bc_residual(x1, ks.k[0], grid) / x1[0] < 1e-3
            assert bc_residual(x2, ks.k[1], grid) / x2[0] < 1e-3
    assert np.all(traj.psi_min > -1.0)


@pytest.mark.parametrize("ic", ["FQ", "SQ"])
@pytest.mark.parametrize("run", [simulate_direct, simulate_transformed])
def test_recorded_g_at_t0_is_g_fn_of_the_start(setup100, run, ic):
    # the records and g_fn share one G kernel, so the first record equals
    # g_fn of the start's histories exactly
    traj = run(setup100, SimConfig(t_final=0.1, controller=OPEN, ic=ICSpec(kind=ic)))
    ts = to_transformed(ic_from_spec(ICSpec(kind=ic), setup100.eq), setup100.eq, setup100.adj)
    assert traj.G1[0] == g_fn(ts.psi[0], setup100.sigma[0], setup100.grid)
    assert traj.G2[0] == g_fn(ts.psi[1], setup100.sigma[1], setup100.grid)
    assert tuple(traj.psi_min[0]) == (ts.psi[0].min(), ts.psi[1].min())


def test_named_starts_are_their_formulas(setup100):
    # FQ, SQ and equilibrium are multiplier rows, bitwise equal to the
    # profiles x_star * exp(+-(1 + 2a)) and x_star they name
    eq, a = setup100.eq, setup100.grid.nodes
    up, down = np.exp(1.0 + 2.0 * a), np.exp(-1.0 - 2.0 * a)
    for kind, m1, m2 in (("FQ", up, down), ("SQ", down, up), ("equilibrium", 1.0, 1.0)):
        state = ic_from_spec(ICSpec(kind=kind), eq)
        assert np.array_equal(state.x[0], eq.x_star[0] * m1), kind
        assert np.array_equal(state.x[1], eq.x_star[1] * m2), kind


def test_simulate_records_monotone_times(setup100):
    traj = simulate_direct(
        setup100, SimConfig(t_final=1.0, controller=OPEN, ic=ICSpec(kind="FQ"),
                            record_every=7),
    )
    dt = np.diff(traj.times)
    assert np.all(dt > 0)
    assert len(traj.times) == len(traj.u) == len(traj.eta)
    # the final step is recorded even when it falls off the stride
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    both = simulate_transformed(
        setup100, SimConfig(t_final=1.0, controller=OPEN, ic=ICSpec(kind="FQ"),
                            record_every=7),
    )
    assert both.times[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("every", [3, 7])
@pytest.mark.parametrize("run", [simulate_direct, simulate_transformed])
def test_records_are_the_every_step_series_at_the_record_steps(setup100, run, every):
    # two runs: the records of every 3rd or 7th step and of the final step
    # 101, off both strides, are bitwise the stride-1 run's values there;
    # snapshot times come back sorted and deduplicated
    da, n_steps = setup100.grid.da, 101
    runs_of = [(ControllerSpec(kind="control_b", eps=0.01, beta=0.13, delta=0.2), "FQ"),
               (ControllerSpec(kind="measured", eps=0.2, beta=0.6), "SQ")]

    def runs(record_every):
        return [run(setup100, SimConfig(t_final=n_steps * da, controller=spec,
                                        ic=ICSpec(kind=ic), record_every=record_every,
                                        snapshot_times=(1.0, 0.0, 1.0, 0.25, 0.08)))
                for spec, ic in runs_of]

    steps = [*range(0, n_steps + 1, every), n_steps]
    for fine, coarse in zip(runs(1), runs(every)):
        for name in ("times", "eta", "u", "G1", "G2", "psi_min"):
            assert getattr(coarse, name).tobytes() == getattr(fine, name)[steps].tobytes(), name
        assert [t for t, _ in coarse.snapshots] == [s * da for s in (0, 8, 25, 100)]
        assert len(fine.snapshots) == 4
        for (t_c, x_c), (t_f, x_f) in zip(coarse.snapshots, fine.snapshots):
            assert t_c == t_f and x_c.tobytes() == x_f.tobytes()


def test_sim_config_rejects_bad_schedules():
    # an infinite horizon has no step count, and a stride must be an integer
    for t_final in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="t_final must be positive and finite"):
            SimConfig(t_final=t_final)
    for every in (3.0, "3", 0, -1):
        with pytest.raises(ValueError, match="record_every must be a positive integer"):
            SimConfig(t_final=1.0, record_every=every)
    assert SimConfig(t_final=1.0, record_every=np.int64(3)).record_every == 3
    # a snapshot time is a time of the run: never negative, never infinite;
    # times after t_final are kept in the config and skipped by the march
    for times in ((-0.5,), (0.0, -1e-12), (math.inf,), (1.0, math.nan), (-math.inf,)):
        with pytest.raises(ValueError, match="snapshot_times must be nonnegative and finite"):
            SimConfig(t_final=1.0, snapshot_times=times)
    assert SimConfig(t_final=1.0, snapshot_times=(0.0, 2.0)).snapshot_times == (0.0, 2.0)


def test_simulate_deterministic(setup100):
    cfg = SimConfig(t_final=2.0, controller=ControllerSpec(kind="control_a"),
                    ic=ICSpec(kind="FQ"))
    t1 = simulate_direct(setup100, cfg)
    t2 = simulate_direct(setup100, cfg)
    assert np.array_equal(t1.eta, t2.eta)
    assert np.array_equal(t1.u, t2.u)


def test_transformed_renewal_identity_enforced(setup200):
    # the newest history sample satisfies the discrete renewal sum exactly
    eq, grid = setup200.eq, setup200.grid
    ts = to_transformed(ic_from_spec(ICSpec(kind="FQ"), eq), eq, setup200.adj)
    w = grid.weights
    cur = ts
    for _ in range(30):
        cur = step_transformed(cur, eq.u_star, eq, grid.da)
    for psi, ktilde in zip(cur.psi, eq.ktilde):
        wk = w * ktilde
        resid = abs(psi[0] - wk @ psi)
        assert resid < 1e-8


def test_heun_second_order():
    # halving dt cuts the eta error against a fine reference by about 4
    def final_eta(n):
        setup = make_setup(n)
        traj = simulate_transformed(
            setup, SimConfig(t_final=5.0, controller=OPEN,
                             ic=ICSpec(kind="eta", eta0=(1.0, -1.0))),
        )
        return traj.eta[-1]

    ref = final_eta(800)
    e_coarse = np.max(np.abs(final_eta(100) - ref))
    e_fine = np.max(np.abs(final_eta(200) - ref))
    assert e_coarse / e_fine == pytest.approx(4.0, rel=0.25)


@pytest.fixture(scope="module")
def setup1600():
    return make_setup(1600)


@pytest.mark.parametrize(
    "kind, ic, lo, hi",
    [
        # a start that meets the renewal condition keeps the transport second order
        ("open_loop", "table", 3.5, 4.6),
        # FQ breaks the renewal condition: the O(da) error of the jump along
        # a = t persists
        ("open_loop", "FQ", 1.7, 2.8),
        # the held feedback is first order
        ("control_b", "FQ", 1.7, 2.8),
    ],
    ids=["open_loop-renewal", "open_loop-FQ", "control_b-FQ"],
)
def test_direct_convergence_order(kind, ic, lo, hi, setup100, setup200, setup400, setup1600):
    # error ratios per halving of da against an n = 1600 reference at t = 2,
    # for eta(T) and the relative profile error
    gains = dict(eps=0.01, beta=0.13, delta=0.2) if kind == "control_b" else {}

    def final(setup):
        eq = setup.eq
        spec = (ICSpec(kind="table", x=eq.x_star * [[2.0], [0.5]])
                if ic == "table" else ICSpec(kind=ic))
        traj = simulate_direct(setup, SimConfig(
            t_final=2.0, controller=ControllerSpec(kind=kind, **gains), ic=spec,
            record_every=10**6, snapshot_times=(2.0,)))
        return traj.eta[-1], traj.snapshots[-1][1]

    eta_ref, x_ref = final(setup1600)
    errors = []
    for setup in (setup100, setup200, setup400):
        eta, xs = final(setup)
        stride = 1600 // setup.grid.n_cells
        profile = max(np.max(np.abs(x - r[::stride]) / r[::stride]) for x, r in zip(xs, x_ref))
        errors.append((np.max(np.abs(eta - eta_ref)), profile))
    errors = np.array(errors)
    ratios = errors[:-1] / errors[1:]
    assert np.all((lo <= ratios) & (ratios <= hi)), ratios


def test_cross_validate_small_grid(setup100):
    disc = cross_validate(
        setup100, SimConfig(t_final=5.0, controller=OPEN, ic=ICSpec(kind="FQ")),
    )
    assert disc < 1e-2


def test_cross_validate_equilibrium_start(setup400, setup100):
    # both solvers hold the fixed point; the residual drift is the direct
    # solver's O(dt^2) transport error, about 9e-7 at n=400
    cfg = SimConfig(t_final=5.0, controller=OPEN, ic=ICSpec(kind="equilibrium"))
    assert cross_validate(setup400, cfg) < 1e-6
    assert cross_validate(setup100, cfg) < 16 * 1e-6 * 1.5  # same at (dt*4)^2


def test_open_loop_conservation_short(setup200):
    traj = simulate_transformed(
        setup200,
        SimConfig(t_final=10.0, controller=OPEN, ic=ICSpec(kind="eta", eta0=(1.0, -1.0))),
    ).finalize_lyapunov(setup200.eq)
    drift = np.max(np.abs(traj.V0 - traj.V0[0])) / traj.V0[0]
    assert drift < 1e-3


def test_measured_controller_run(setup100):
    # the sensor-based approximation steers the state toward equilibrium too
    cfg = SimConfig(
        t_final=8.0,
        controller=ControllerSpec(kind="measured", sensor="interaction"),
        ic=ICSpec(kind="FQ"),
    )
    for run in (simulate_direct, simulate_transformed):
        traj = run(setup100, cfg)
        assert np.all(np.isfinite(traj.u))
        assert np.linalg.norm(traj.eta[-1]) < 0.1 * np.linalg.norm(traj.eta[0])


def test_controller_negative_dilution_recorded(setup200):
    cfg = SimConfig(t_final=6.0, controller=ControllerSpec(kind="control_a"),
                    ic=ICSpec(kind="SQ"))
    assert simulate_direct(setup200, cfg).u.min() < 0.0
    assert simulate_transformed(setup200, cfg).u.min() < 0.0


@pytest.mark.parametrize(
    "spec, lo, hi",
    [
        # the measured law holds a smooth function of the profiles: second order
        (ControllerSpec(kind="measured"), 3.0, np.inf),
        # both solvers hold u alike; from SQ, which breaks the renewal
        # condition, the direct eta is offset by ln(P1/P0) of the start's
        # jump, O(da), so the gap of an eta law is first order in dt
        (ControllerSpec(kind="control_b", eps=0.01, beta=0.13, delta=0.2), 1.6, 2.5),
    ],
)
def test_cross_validate_closed_loop_order(spec, lo, hi, setup100, setup200):
    cfg = SimConfig(t_final=5.0, controller=spec, ic=ICSpec(kind="SQ"))
    ratio = cross_validate(setup100, cfg) / cross_validate(setup200, cfg)
    assert lo <= ratio <= hi


# What the solvers' agreement measures: they differ in the mortality
# quadrature and the eta offset of a start that breaks the renewal condition,
# and in nothing else


@pytest.mark.parametrize("n", [100, 200, 400])
def test_one_mortality_quadrature_makes_the_solvers_agree(n):
    # kernels_from_tables takes cum_mu as the trapezoid cumulative(mu) that
    # the direct survival takes, so ktilde and the direct renewal weights
    # share one quadrature: the open-loop FQ profiles then agree to rounding
    # (1.2e-14, 2.9e-14 and 6.2e-14 at n 100, 200 and 400), where the
    # closed-form cum_mu leaves 4.5e-5, 1.1e-5 and 2.8e-6
    ref = make_setup(n)
    k = ref.kernels
    setup = build_setup(kernels_from_tables(k.grid, k.mu, k.k, k.g), ref.eq.u_star)
    cfg = SimConfig(t_final=10.0, controller=OPEN, ic=ICSpec(kind="FQ"))
    assert cross_validate(setup, cfg) <= 1e-12
    assert cross_validate(ref, cfg) >= 1e-6


def test_direct_eta_is_offset_by_the_start_jump(setup100, setup200, setup400):
    # from FQ, which breaks the renewal condition, the direct Pi jumps once,
    # when step 1 solves the newborn node, so the direct eta stays offset
    # from the transformed one by ln(P1/P0) of the loss-free direct march
    # discounted by zeta.  The offset is first order in da; what is left is
    # second order: 7.8e-6, 2.0e-6, 5.0e-7 and 1.2e-7 at n 100 to 800
    offsets, remainders = [], []
    for setup in (setup100, setup200, setup400, make_setup(800)):
        eq = setup.eq
        cfg = SimConfig(t_final=2.0, controller=OPEN, ic=ICSpec(kind="FQ"))
        x0 = ic_from_spec(cfg.ic, eq).x
        dt, _, species = _direct_step_ops(setup.kernels)
        x1 = _transport(x0, species, 0.0, dt)
        offset = np.log(pi_functional(x1, setup.adj) / pi_functional(x0, setup.adj)) - eq.zeta * dt
        gap = simulate_direct(setup, cfg).eta - simulate_transformed(setup, cfg).eta
        offsets.append(np.max(np.abs(offset)))
        remainders.append(np.max(np.abs(gap[1:] - offset)))
    offsets, remainders = np.array(offsets), np.array(remainders)
    assert np.all(remainders[:-1] / remainders[1:] >= 3.0), remainders
    assert np.all(offsets[:-1] / offsets[1:] <= 2.5), offsets


@pytest.mark.parametrize("kind, gains", [("control_a", acceptance.REFERENCE_GAINS_A),
                                         ("control_b", acceptance.REFERENCE_GAINS_B)],
                         ids=["control_a", "control_b"])
def test_cross_validate_closed_loop_second_order_from_a_renewal_start(
        kind, gains, setup100, setup200, setup400):
    # x_star*(2, 0.5) meets the renewal condition, so neither solver's start
    # jumps and no eta offset opens: the closed-loop gap falls by 4.00 per
    # halving for both laws, where from SQ it falls by 1.97 and 1.98
    # (test_cross_validate_closed_loop_order)
    gaps = np.array([
        cross_validate(setup, SimConfig(
            t_final=5.0, controller=ControllerSpec(kind=kind, **gains),
            ic=ICSpec(kind="table", x=setup.eq.x_star * [[2.0], [0.5]])))
        for setup in (setup100, setup200, setup400)])
    assert np.all(gaps[:-1] / gaps[1:] >= 3.0), gaps
