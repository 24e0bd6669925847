import numpy as np
import pytest
from hypothesis import given, strategies as st

from predprey.errors import NumericalError
from predprey.model import (
    AgeGrid,
    PopulationState,
    bc_residual,
    build_kernels,
    cumulative,
    kernels_from_tables,
    quad,
)

from oracles import satisfies_bc


def test_grid_basic():
    grid = AgeGrid(A=1.0, n_cells=4)
    assert grid.da == 0.25
    assert grid.n_nodes == 5
    assert np.allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == grid.A
    assert np.all(np.diff(grid.nodes) > 0)


@pytest.mark.parametrize("bad", [dict(A=0.0, n_cells=10), dict(A=-1.0, n_cells=10),
                                 dict(A=1.0, n_cells=0)])
def test_grid_rejects_bad_parameters(bad):
    with pytest.raises(ValueError):
        AgeGrid(**bad)


def test_quad_constant():
    grid = AgeGrid(A=1.0, n_cells=7)
    assert quad(np.ones(grid.n_nodes), grid) == pytest.approx(1.0, abs=1e-14)


def test_quad_parabola_second_order():
    # closed-form antiderivative: int_0^1 0.4(a - a^2) da = 0.4/6
    exact = 0.4 / 6.0
    errs = []
    for n in (50, 100, 200):
        grid = AgeGrid(A=1.0, n_cells=n)
        a = grid.nodes
        errs.append(abs(quad(0.4 * (a - a**2), grid) - exact))
    assert errs[0] < 1e-4
    # error contracts by ~4x per grid doubling
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_quad_exponential_second_order():
    exact = 3.0 * (1.0 - np.exp(-1.0))
    assert exact == pytest.approx(1.89636, abs=5e-6)
    errs = []
    for n in (50, 100, 200):
        grid = AgeGrid(A=1.0, n_cells=n)
        errs.append(abs(quad(3.0 * np.exp(-grid.nodes), grid) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_quad_exact_for_piecewise_linear():
    grid = AgeGrid(A=2.0, n_cells=8)
    f = np.abs(grid.nodes - 1.0)  # kink on a node
    assert quad(f, grid) == pytest.approx(1.0, abs=1e-14)


def test_quad_length_mismatch():
    grid = AgeGrid(A=1.0, n_cells=10)
    with pytest.raises(ValueError, match="shape"):
        quad(np.ones(5), grid)


@given(
    st.lists(st.floats(-10, 10), min_size=11, max_size=11),
    st.lists(st.floats(-10, 10), min_size=11, max_size=11),
    st.floats(-5, 5),
    st.floats(-5, 5),
)
def test_quad_linearity(f_vals, g_vals, alpha, beta):
    grid = AgeGrid(A=1.0, n_cells=10)
    f = np.array(f_vals)
    g = np.array(g_vals)
    lhs = quad(alpha * f + beta * g, grid)
    rhs = alpha * quad(f, grid) + beta * quad(g, grid)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_cumulative_matches_quad_at_endpoint():
    grid = AgeGrid(A=1.0, n_cells=64)
    f = np.exp(grid.nodes)
    c = cumulative(f, grid)
    assert c[0] == 0.0
    assert c[-1] == pytest.approx(quad(f, grid), abs=1e-13)


def test_build_kernels_samples():
    grid = AgeGrid(A=1.0, n_cells=10)
    ks = build_kernels(0.5, 3.0, 0.4, 0.5, 3.0, 0.4, grid)
    assert ks.mu[0, 0] == pytest.approx(0.5)
    assert ks.g[0, 0] == 0.0 and ks.g[0, -1] == pytest.approx(0.0, abs=1e-15)
    assert ks.k[0, -1] == pytest.approx(3.0 * np.exp(-1.0), abs=1e-12)
    assert ks.k[0, -1] == pytest.approx(1.10364, abs=5e-6)


def test_build_kernels_rejects_nonpositive_shape():
    grid = AgeGrid(A=1.0, n_cells=10)
    with pytest.raises(ValueError, match="positive"):
        build_kernels(0.0, 3.0, 0.4, 0.5, 3.0, 0.4, grid)


@pytest.mark.parametrize("mu_bar", [0.1, 0.5, 2.0])
@pytest.mark.parametrize("k_bar", [0.5, 3.0])
@pytest.mark.parametrize("g_bar", [0.1, 0.4, 1.0])
def test_build_kernels_nonnegative_grid(mu_bar, k_bar, g_bar):
    grid = AgeGrid(A=1.0, n_cells=33)
    ks = build_kernels(mu_bar, k_bar, g_bar, mu_bar, k_bar, g_bar, grid)
    for arr in (*ks.mu, *ks.k, *ks.g):
        assert np.all(arr >= 0)


def test_cum_mu_exact_vs_trapezoid():
    grid = AgeGrid(A=1.0, n_cells=200)
    ks = build_kernels(0.5, 3.0, 0.4, 0.5, 3.0, 0.4, grid)
    exact = ks.cum_mu[0]
    assert exact[0] == 0.0
    assert exact[-1] == pytest.approx(0.5 * (np.e - 1.0), abs=1e-14)
    approx = cumulative(ks.mu[0], grid)
    assert np.max(np.abs(exact - approx)) < 1e-5


def test_kernels_from_tables_rejects_negative():
    grid = AgeGrid(A=1.0, n_cells=4)
    ones = np.ones((2, grid.n_nodes))
    with pytest.raises(ValueError, match="nonnegative"):
        kernels_from_tables(grid, ones, ones, -ones)


def test_bc_residual_zero_kernel():
    grid = AgeGrid(A=1.0, n_cells=20)
    x = np.ones(grid.n_nodes)
    k = np.zeros(grid.n_nodes)
    assert bc_residual(x, k, grid) == pytest.approx(1.0)


def test_bc_residual_equilibrium_profile(setup400):
    eq = setup400.eq
    res = bc_residual(eq.x_star[0], setup400.kernels.k[0], setup400.grid)
    assert res / eq.x0_star[0] < 1e-6
    assert satisfies_bc(eq.x_star[0], setup400.kernels.k[0], setup400.grid)


def test_bc_residual_doubled_boundary(setup400):
    eq = setup400.eq
    x = eq.x_star[0].copy()
    x[0] *= 2.0
    res = bc_residual(x, setup400.kernels.k[0], setup400.grid)
    # doubling the newborn node shifts the residual by about x(0)/2: the
    # boundary node also enters the birth integral with weight w0*k(0)
    expected = eq.x0_star[0] * (1.0 - setup400.grid.weights[0] * setup400.kernels.k[0, 0])
    assert res == pytest.approx(expected, rel=1e-9)
    assert res == pytest.approx(eq.x0_star[0], rel=5e-3)


def test_population_state_positivity():
    grid = AgeGrid(A=1.0, n_cells=5)
    good = PopulationState(t=0.0, x=np.ones((2, 6)))
    good.validate(grid)
    bad = PopulationState(t=0.0, x=np.array([np.ones(6), np.zeros(6)]))
    with pytest.raises(NumericalError):
        bad.validate(grid)
