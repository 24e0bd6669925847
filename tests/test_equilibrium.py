from dataclasses import replace

import numpy as np
import pytest

from predprey.equilibrium import (
    compute_equilibrium,
    open_loop_jacobian,
    open_loop_jacobian_eigs,
    solve_lotka_sharpe,
)
from predprey.config import EquilibriumBlock, ModelBlock, kernels_from_model
from predprey.errors import InfeasibleSetpointError, NumericalError
from predprey.model import AgeGrid, bc_residual, build_kernels, quad

from conftest import make_setup


def _bisect_scalar(f, lo, hi, tol=1e-13):
    # independent scalar root finder used as an oracle
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < tol:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_zero_mortality_unit_kernel_gives_zero():
    grid = AgeGrid(A=1.0, n_cells=100)
    zeta = solve_lotka_sharpe(np.zeros(grid.n_nodes), np.ones(grid.n_nodes), grid)
    assert zeta == pytest.approx(0.0, abs=1e-10)


def test_zero_mortality_double_kernel_matches_closed_form_oracle():
    # oracle: solve 2*(1 - e^{-z})/z = 1 by scalar bisection on the closed form
    oracle = _bisect_scalar(lambda z: 2.0 * (1.0 - np.exp(-z)) / z - 1.0, 0.5, 3.0)
    assert oracle == pytest.approx(1.5936, abs=1e-4)
    grid = AgeGrid(A=1.0, n_cells=400)
    zeta = solve_lotka_sharpe(np.zeros(grid.n_nodes), 2.0 * np.ones(grid.n_nodes), grid)
    assert zeta == pytest.approx(oracle, abs=1e-5)


def test_reference_kernels_exponent(setup400):
    eq = setup400.eq
    assert eq.zeta[0] == pytest.approx(1.17, abs=0.01)
    assert eq.zeta[1] == pytest.approx(1.17, abs=0.01)


def test_discounted_kernel_normalized():
    # zeta is bisected to the last bits, evaluating F as quad evaluates the
    # discounted kernel, so its unit mass holds to 2 ulp
    for n in (50, 100, 400, 800, 1600):
        kernels = kernels_from_model(ModelBlock(n_cells=n))
        eq = compute_equilibrium(kernels, EquilibriumBlock.u_star)
        assert np.all(np.abs(quad(eq.ktilde, kernels.grid) - 1.0) <= 4.5e-16), n


def test_solver_rejects_a_birth_kernel_without_positive_integral():
    grid = AgeGrid(A=1.0, n_cells=20)
    k = np.zeros(grid.n_nodes)
    with pytest.raises(ValueError, match="positive integral"):
        solve_lotka_sharpe(np.zeros(grid.n_nodes), k, grid)


@pytest.mark.parametrize("n_cells, k0, k_rest", [
    (2, 5.0, 5.0),     # w0*k(0) = 1.25 >= 1: the age-0 births alone renew
    (20, 1.0, 0.0),    # births only at age 0: F is constant in zeta
], ids=["age0_weight_above_one", "births_only_at_age0"])
def test_solver_reports_a_missing_root(n_cells, k0, k_rest):
    grid = AgeGrid(A=1.0, n_cells=n_cells)
    k = np.full(grid.n_nodes, k_rest)
    k[0] = k0
    with pytest.raises(NumericalError, match="no renewal exponent") as err:
        solve_lotka_sharpe(np.zeros(grid.n_nodes), k, grid)
    assert err.value.reason == "lotka_sharpe_bracket"


def test_both_species_solve_as_each_alone():
    # the (2, n) call returns each species' (n,) result bitwise
    grid = AgeGrid(A=1.0, n_cells=400)
    ks = build_kernels(0.5, 3.0, 0.4, 0.8, 4.5, 0.3, grid)
    for cum_mu in (ks.cum_mu, None):
        both = solve_lotka_sharpe(ks.mu, ks.k, grid, cum_mu)
        assert both.shape == (2,)
        for i in range(2):
            alone = solve_lotka_sharpe(ks.mu[i], ks.k[i], grid,
                                       None if cum_mu is None else cum_mu[i])
            assert isinstance(alone, float) and both[i] == alone
    assert both[0] != both[1]


def test_reference_equilibrium_values(setup400):
    eq = setup400.eq
    assert eq.lambda1 == pytest.approx(0.98, abs=0.01)
    assert eq.lambda2 == pytest.approx(1.02, abs=0.01)
    assert eq.x0_star[0] == pytest.approx(33.81, abs=0.1)
    assert eq.x0_star[1] == pytest.approx(35.19, abs=0.1)


def test_setpoint_identities_exact(setup400):
    eq = setup400.eq
    assert eq.zeta[0] - eq.lambda2 == pytest.approx(eq.u_star, abs=1e-8)
    assert eq.zeta[1] - 1.0 / eq.lambda1 == pytest.approx(eq.u_star, abs=1e-8)
    assert 0.0 < eq.u_star < min(eq.zeta)


def test_profiles_positive_and_renewal_consistent(setup400):
    eq, ks, grid = setup400.eq, setup400.kernels, setup400.grid
    assert np.all(eq.x_star[0] > 0) and np.all(eq.x_star[1] > 0)
    assert bc_residual(eq.x_star[0], ks.k[0], grid) / eq.x0_star[0] < 1e-9
    assert bc_residual(eq.x_star[1], ks.k[1], grid) / eq.x0_star[1] < 1e-9


def test_harvest_helps_the_prey(setup400):
    # more equilibrium dilution -> larger prey newborn density, fewer predators
    ks = setup400.kernels
    lo = compute_equilibrium(ks, 0.10)
    hi = compute_equilibrium(ks, 0.15)
    assert lo.x0_star[0] < hi.x0_star[0]
    assert lo.x0_star[1] > hi.x0_star[1]


def test_predator_newborns_vanish_at_upper_feasibility(setup400):
    ks = setup400.kernels
    z_min = min(setup400.eq.zeta)
    eq_near = compute_equilibrium(ks, z_min - 1e-6)
    assert eq_near.x0_star[1] < 1e-4 * setup400.eq.x0_star[1]


def test_infeasible_setpoint_raises(setup400):
    with pytest.raises(InfeasibleSetpointError) as err:
        compute_equilibrium(setup400.kernels, 1.5)
    assert "0" in str(err.value) and "1.17" in str(err.value)
    lo, hi = err.value.interval
    assert lo == 0.0
    assert hi == pytest.approx(1.17, abs=0.01)


def test_exponent_grid_convergence_is_second_order():
    # refining the grid changes zeta at O(da^2); the increments contract ~4x
    zetas = {}
    for n in (200, 400, 800, 1600):
        grid = AgeGrid(A=1.0, n_cells=n)
        ks = build_kernels(0.5, 3.0, 0.4, 0.5, 3.0, 0.4, grid)
        zetas[n] = solve_lotka_sharpe(ks.mu[0], ks.k[0], grid, ks.cum_mu[0])
    d1 = abs(zetas[400] - zetas[200])
    d2 = abs(zetas[800] - zetas[400])
    d3 = abs(zetas[1600] - zetas[800])
    assert d1 / d2 == pytest.approx(4.0, rel=0.15)
    assert d2 / d3 == pytest.approx(4.0, rel=0.15)
    assert d3 < 1e-5


def test_equilibrium_values_grid_converged(setup400):
    fine = make_setup(800).eq
    eq = setup400.eq
    assert abs(fine.lambda1 - eq.lambda1) < 1e-3 * eq.lambda1
    assert abs(fine.x0_star[0] - eq.x0_star[0]) < 1e-3 * eq.x0_star[0]


def test_open_loop_eigs_symmetric_case(setup400):
    eq = setup400.eq
    eigs = open_loop_jacobian_eigs(replace(eq, lambda1=1.0, lambda2=1.0))
    assert eigs[0] == pytest.approx(1j)
    assert eigs[1] == pytest.approx(-1j)


def test_open_loop_eigs_match_matrix(setup400):
    eq = setup400.eq
    closed = open_loop_jacobian_eigs(eq)
    solved = np.linalg.eigvals(open_loop_jacobian(eq))
    assert sorted(np.asarray(closed).imag) == pytest.approx(sorted(solved.imag), abs=1e-12)
    assert abs(closed[0].imag) == pytest.approx(np.sqrt(eq.lambda2 / eq.lambda1), abs=1e-12)
    assert abs(closed[0].imag) == pytest.approx(1.0202, abs=1e-3)


def test_open_loop_eigs_quad_ratio(setup400):
    eq = setup400.eq
    synthetic = replace(eq, lambda1=1.0, lambda2=4.0)
    eigs = open_loop_jacobian_eigs(synthetic)
    assert eigs[0] == pytest.approx(2j)
