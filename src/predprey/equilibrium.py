"""Lotka-Sharpe exponents and the coexistence equilibrium.

The renewal exponent zeta of each species solves

    F(zeta) = quad(k(a) * exp(-integral_0^a mu - zeta*a)) = 1,

which has a unique real root because F is strictly decreasing.  Given a
feasible dilution setpoint u_star, the steady profiles, interaction integrals
and newborn densities follow in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSetpointError, NumericalError
from .model import AgeGrid, KernelSet, check_grid_fn, cumulative, quad


F_TOL = 1e-12
MAX_ITER = 200
BRACKET = (-10.0, 10.0)
MAX_DOUBLINGS = 60


def solve_lotka_sharpe(mu, k, grid: AgeGrid, cum_mu: np.ndarray | None = None) -> float:
    """Solve quad(k * exp(-cum_mu - zeta*a)) = 1 for the real exponent zeta.

    Bisection to |F - 1| <= F_TOL on a bracket found by doubling outward from
    BRACKET; the cumulative mortality integral is built once (or passed in
    when an exact closed form is available).
    """
    mu = check_grid_fn(mu, grid, "mu")
    k = check_grid_fn(k, grid, "k")
    if np.any(mu < 0):
        raise ValueError("mortality kernel must be nonnegative")
    if not quad(k, grid) > 0:
        raise ValueError("birth kernel must have a strictly positive integral")
    if cum_mu is None:
        cum_mu = cumulative(mu, grid)
    a = grid.nodes
    w = grid.weights

    def F(zeta: float) -> float:
        with np.errstate(over="ignore"):
            return float(w @ (k * np.exp(-cum_mu - zeta * a)))

    # F is strictly decreasing: F(lo) > 1 > F(hi) brackets the root.
    lo, hi = BRACKET
    f_lo, f_hi = F(lo), F(hi)
    for _ in range(MAX_DOUBLINGS):
        if f_lo > 1.0:
            break
        lo = 2.0 * lo if lo < 0 else -1.0
        f_lo = F(lo)
    for _ in range(MAX_DOUBLINGS):
        if f_hi < 1.0:
            break
        hi = 2.0 * hi if hi > 0 else 1.0
        f_hi = F(hi)
    if not (f_lo > 1.0 > f_hi):
        raise NumericalError(
            "could not bracket the renewal exponent: "
            f"F({lo:.3g})={f_lo:.6g}, F({hi:.3g})={f_hi:.6g}",
            reason="lotka_sharpe_bracket",
        )

    zeta = 0.5 * (lo + hi)
    for _ in range(MAX_ITER):
        zeta = 0.5 * (lo + hi)
        f_mid = F(zeta)
        if abs(f_mid - 1.0) <= F_TOL:
            return zeta
        if f_mid > 1.0:
            lo = zeta
        else:
            hi = zeta
    raise NumericalError(
        f"bisection did not reach |F - 1| <= {F_TOL:g} in {MAX_ITER} iterations "
        f"(last F={F(zeta):.15g})",
        reason="lotka_sharpe_tolerance",
    )


@dataclass(frozen=True)
class Equilibrium:
    """Steady state of the two-species system at dilution u_star.

    ``xtilde`` holds the unit-newborn profiles exp(-zeta*a - cum_mu),
    ``ktilde`` the discounted birth kernels (unit integral) and ``x_star`` the
    steady profiles x0_star * xtilde; ``zeta`` and ``x0_star`` are (2,).
    """

    grid: AgeGrid
    kernels: KernelSet
    u_star: float
    zeta: np.ndarray
    lambda1: float
    lambda2: float
    x0_star: np.ndarray
    x_star: np.ndarray
    xtilde: np.ndarray
    ktilde: np.ndarray


def compute_equilibrium(kernels: KernelSet, u_star: float) -> Equilibrium:
    """Construct the full equilibrium for a feasible dilution setpoint."""
    grid = kernels.grid
    zeta = np.array([solve_lotka_sharpe(mu, k, grid, cm)
                     for mu, k, cm in zip(kernels.mu, kernels.k, kernels.cum_mu)])
    xtilde = np.exp(-zeta[:, None] * grid.nodes - kernels.cum_mu)

    z_min = float(zeta.min())
    if not 0.0 < u_star < z_min:
        raise InfeasibleSetpointError(u_star, (0.0, z_min))

    # each species' unit-newborn profile against the other's interaction
    # kernel: the prey's against g2, the predator's against g1
    overlap = quad(kernels.g[::-1] * xtilde, grid)
    if not np.all(overlap > 0):
        raise NumericalError(
            "interaction kernels do not overlap the steady profiles",
            reason="degenerate_interaction",
        )
    x0_star = np.array([1.0 / ((zeta[1] - u_star) * overlap[0]),
                        (zeta[0] - u_star) / overlap[1]])
    x_star = x0_star[:, None] * xtilde
    lambda1, lambda2 = quad(kernels.g[::-1] * x_star, grid).tolist()
    return Equilibrium(
        grid=grid,
        kernels=kernels,
        u_star=float(u_star),
        zeta=zeta,
        lambda1=lambda1,
        lambda2=lambda2,
        x0_star=x0_star,
        x_star=x_star,
        xtilde=xtilde,
        ktilde=kernels.k * xtilde,
    )


def open_loop_jacobian(eq: Equilibrium) -> np.ndarray:
    """Linearization of the uncontrolled reduced dynamics at the origin."""
    return np.array([[0.0, -eq.lambda2], [1.0 / eq.lambda1, 0.0]])


def open_loop_jacobian_eigs(eq: Equilibrium) -> tuple[complex, complex]:
    """Eigenvalues +/- i*sqrt(lambda2/lambda1) from the 2x2 characteristic polynomial."""
    omega = np.sqrt(eq.lambda2 / eq.lambda1)
    return complex(0.0, omega), complex(0.0, -omega)
