import numpy as np
import pytest

from predprey.errors import NumericalError
from predprey.model import PopulationState, bc_residual, quad
from predprey.simulate import ICSpec, ic_from_spec
from predprey.transform import (
    TransformedState,
    check_S,
    pi_functional,
    reconstruct,
    to_transformed,
)
from predprey.lyapunov import g_fn

from oracles import zero_history


def test_pi0_boundary_values(setup400):
    adj = setup400.adj
    assert adj.pi0[0, -1] == 0.0
    assert adj.pi0[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert adj.pi0[1, 0] == pytest.approx(1.0, abs=1e-6)
    assert adj.denom[0] > 0


def test_pi0_solves_adjoint_identity(setup400):
    # centered-difference residual of
    # pi0' - (mu + zeta) pi0 + k(a) pi0(0) = 0 on interior nodes
    eq, ks, grid = setup400.eq, setup400.kernels, setup400.grid
    pi0 = setup400.adj.pi0[0]
    da = grid.da
    dpi = (pi0[2:] - pi0[:-2]) / (2.0 * da)
    interior = slice(1, -1)
    residual = dpi - (ks.mu[0, interior] + eq.zeta[0]) * pi0[interior] + ks.k[0, interior] * pi0[0]
    assert np.max(np.abs(residual)) < 1e-3


def test_pi_functional_equilibrium_is_one(setup400):
    eq = setup400.eq
    assert pi_functional(eq.x_star, setup400.adj) == pytest.approx([1.0, 1.0], abs=1e-6)


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_pi_functional_homogeneous(setup400, c):
    eq = setup400.eq
    base = pi_functional(eq.x_star, setup400.adj)
    scaled = pi_functional(c * eq.x_star, setup400.adj)
    assert scaled == pytest.approx(c * base, rel=1e-12)


@pytest.mark.parametrize("fill", [0.0, -1.0, np.nan])
def test_pi_functional_guard(setup400, fill):
    # the one Pi formula of both solvers rejects a profile it cannot log
    with pytest.raises(NumericalError) as err:
        pi_functional(np.full((2, setup400.grid.n_nodes), fill), setup400.adj)
    assert err.value.reason == "nan_guard"


def test_pi_functional_prey_surplus_profile(setup400):
    eq, grid = setup400.eq, setup400.grid
    x = eq.x_star * np.exp(1.0 + 2.0 * grid.nodes)
    val = pi_functional(x, setup400.adj)[0]
    assert val == pytest.approx(np.exp(1.57), rel=0.01)


def test_to_transformed_equilibrium_maps_to_origin(setup400):
    eq = setup400.eq
    state = PopulationState(t=0.0, x=eq.x_star.copy())
    ts = to_transformed(state, eq, setup400.adj)
    assert np.max(np.abs(ts.eta)) < 1e-12
    assert np.max(np.abs(ts.psi[0])) < 1e-12
    assert np.max(np.abs(ts.psi[1])) < 1e-12


@pytest.mark.parametrize("kind,expected", [("FQ", (1.57, -1.41)), ("SQ", (-1.41, 1.57))])
def test_to_transformed_reference_ics(setup400, kind, expected):
    eq = setup400.eq
    ts = to_transformed(ic_from_spec(ICSpec(kind=kind), eq), eq, setup400.adj)
    assert ts.eta[0] == pytest.approx(expected[0], abs=0.01)
    assert ts.eta[1] == pytest.approx(expected[1], abs=0.01)
    assert ts.psi[0].min() > -1.0
    assert ts.psi[1].min() > -1.0


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_to_transformed_homogeneity(setup400, c):
    # scaling a species shifts eta by ln c and leaves the shape history alone
    eq = setup400.eq
    base_state = ic_from_spec(ICSpec(kind="FQ"), eq)
    ts0 = to_transformed(base_state, eq, setup400.adj)
    scaled = PopulationState(t=0.0, x=c * base_state.x)
    ts1 = to_transformed(scaled, eq, setup400.adj)
    assert ts1.eta[0] - ts0.eta[0] == pytest.approx(np.log(c), abs=1e-12)
    assert ts1.eta[1] - ts0.eta[1] == pytest.approx(np.log(c), abs=1e-12)
    assert np.max(np.abs(ts1.psi[0] - ts0.psi[0])) < 1e-12
    assert np.max(np.abs(ts1.psi[1] - ts0.psi[1])) < 1e-12


def test_to_transformed_rejects_nonpositive(setup400):
    eq = setup400.eq
    bad = PopulationState(t=0.0, x=eq.x_star * [[0.0], [1.0]])
    with pytest.raises(Exception):
        to_transformed(bad, eq, setup400.adj)


def test_reconstruct_identities(setup400):
    eq, grid = setup400.eq, setup400.grid
    ts = to_transformed(PopulationState(t=0.0, x=eq.x_star.copy()), eq, setup400.adj)
    back = reconstruct(ts, eq)
    assert np.max(np.abs(back.x[0] - eq.x_star[0])) < 1e-12

    ts.eta = np.array([np.log(2.0), 0.0])
    ts.psi = zero_history(grid)
    doubled = reconstruct(ts, eq)
    assert np.allclose(doubled.x[0], 2.0 * eq.x_star[0], rtol=1e-14)
    assert np.allclose(doubled.x[1], eq.x_star[1], rtol=1e-14)


def test_roundtrip_random_smooth_profiles(setup400):
    eq = setup400.eq
    a = setup400.grid.nodes
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.uniform(-1.0, 1.0, size=6)
        m1 = np.exp(c[0] + c[1] * a + c[2] * np.sin(2 * np.pi * a))
        m2 = np.exp(c[3] + c[4] * a + c[5] * np.cos(np.pi * a))
        state = PopulationState(t=0.0, x=eq.x_star * [m1, m2])
        back = reconstruct(to_transformed(state, eq, setup400.adj), eq)
        assert np.max(np.abs(back.x[0] - state.x[0]) / state.x[0]) < 1e-10
        assert np.max(np.abs(back.x[1] - state.x[1]) / state.x[1]) < 1e-10


def test_reconstruct_rejects_inadmissible_history(setup400):
    grid = setup400.grid
    with pytest.raises(ValueError, match="-1"):
        psi = -1.5 * np.ones((2, grid.n_nodes))
        TransformedState(t=0.0, eta=np.zeros(2), psi=psi).validate(grid)


def test_v_bounded_by_g(setup400):
    # |v(psi)| <= G(psi, sigma) for admissible histories, where
    # v = ln(1 + quad(g_bar * psi)) with the unit-mass interaction densities
    # g_bar_1 = g1*x2_star / quad(g1*x2_star) and g_bar_2 = g2*x1_star / quad(g2*x1_star)
    grid, ks, eq = setup400.grid, setup400.kernels, setup400.eq
    gbars = [g / quad(g, grid) for g in ks.g * eq.x_star[::-1]]
    sigma = setup400.sigma[0]
    rng = np.random.default_rng(5)
    for _ in range(100):
        psi = rng.uniform(-0.8, 2.0, size=grid.n_nodes)
        for gb in gbars:
            v = np.log(1.0 + quad(gb * psi, grid))
            assert abs(v) <= g_fn(psi, sigma, grid) + 1e-12


def test_check_S_zero_history(setup400):
    p_res, renewal = check_S(zero_history(setup400.grid), setup400.eq.ktilde, setup400.grid)
    assert np.all(p_res == 0.0) and np.all(renewal == 0.0)


def test_check_S_reference_ics(setup400):
    # P vanishes by construction of the normalization; the renewal residual
    # equals the initial profile's own birth-condition defect (these profiles
    # are deliberately renewal-incompatible, so it is O(1) at t = 0)
    eq, grid = setup400.eq, setup400.grid
    for kind in ("FQ", "SQ"):
        state = ic_from_spec(ICSpec(kind=kind), eq)
        ts = to_transformed(state, eq, setup400.adj)
        p_res, renewal = check_S(ts.psi, eq.ktilde, grid)
        assert np.all(p_res < 1e-3)
        predicted = bc_residual(state.x, eq.kernels.k, grid) / (eq.x0_star * np.exp(ts.eta))
        assert renewal == pytest.approx(predicted, abs=1e-10)
        assert np.all(renewal > 0.1)  # the defect really is order one here


def test_check_S_renewal_zero_for_compatible_profile(setup400):
    # the steady profile satisfies the renewal condition, so both residuals
    # vanish for any scaling of it
    eq, grid = setup400.eq, setup400.grid
    state = PopulationState(t=0.0, x=eq.x_star * [[3.0], [0.5]])
    ts = to_transformed(state, eq, setup400.adj)
    p_res, renewal = check_S(ts.psi[0], eq.ktilde[0], grid)
    assert p_res < 1e-12 and renewal < 1e-12


def test_to_transformed_warns_on_mismatched_adjoints(setup400, setup100):
    # adjoint weights built for a different setpoint break the normalization
    # guarantee; the extraction warns instead of aborting
    from predprey.equilibrium import compute_equilibrium
    from predprey.transform import compute_pi0

    eq = setup400.eq
    other = compute_equilibrium(setup400.kernels, 0.05)
    wrong_adj = compute_pi0(other)
    state = PopulationState(t=0.0, x=eq.x_star.copy())
    with pytest.warns(UserWarning, match="membership residual"):
        to_transformed(state, eq, wrong_adj)


def test_check_S_constant_history_fubini(setup400):
    # psi == 1: P -> 1 by exchanging the order of integration, renewal
    # residual |1 - quad(ktilde)| ~ 0
    eq, grid = setup400.eq, setup400.grid
    p_res, renewal = check_S(np.ones(grid.n_nodes), eq.ktilde[0], grid)
    assert p_res == pytest.approx(1.0, abs=1e-4)
    assert renewal < 1e-9
