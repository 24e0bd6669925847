"""Lotka-Sharpe exponents and the coexistence equilibrium.

The renewal exponent zeta of each species solves

    F(zeta) = quad(k(a) * exp(-integral_0^a mu - zeta*a)) = 1,

which has a unique real root exactly when w0*k(0) < 1 and births reach a
positive age.  It is bisected from a closed-form bracket, so the discounted
birth kernels have quad(ktilde) = 1 to rounding.  Given a feasible dilution
setpoint u_star, the steady profiles, interaction integrals and newborn
densities follow in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSetpointError, NumericalError
from .model import AgeGrid, KernelSet, bisect, check_grid_fn, cumulative, quad, row_dot


F_TOL = 1e-12


def solve_lotka_sharpe(mu, k, grid: AgeGrid, cum_mu: np.ndarray | None = None):
    """Solve quad(k * exp(-cum_mu - zeta*a)) = 1 for the real exponent zeta:
    a float for kernels (n,), a (2,) array, bitwise the rows alone, for (2, n).

    With c = w*k*exp(-cum_mu), C = sum c, abar = sum(c*a)/C and c0 = w0*k(0),
    F(zeta) = sum c*exp(-zeta*a) falls strictly from +inf to c0 when abar > 0,
    so a root exists exactly when c0 < 1 and abar > 0.  It lies in
    [ln C / abar, max(0, ln((C - c0)/(1 - c0)) / da)]: F(ln C / abar) >= 1 by
    Jensen's inequality, and F(zeta) <= c0 + (C - c0) exp(-zeta*da) for
    zeta >= 0.  ``bisect`` halves that bracket with F evaluated as quad
    evaluates the discounted kernel, so the kernel's unit mass holds to
    rounding; |F - 1| <= F_TOL is checked after.  ``cum_mu`` is built here
    unless an exact closed form is passed in.
    """
    mu = check_grid_fn(mu, grid, "mu")
    k = check_grid_fn(k, grid, "k")
    if np.any(mu < 0):
        raise ValueError("mortality kernel must be nonnegative")
    if not np.all(quad(k, grid) > 0):
        raise ValueError("birth kernel must have a strictly positive integral")
    if cum_mu is None:
        cum_mu = cumulative(mu, grid)
    a = grid.nodes
    w = grid.weights

    def F(zeta):
        with np.errstate(over="ignore"):
            return row_dot(k * np.exp(-np.multiply.outer(zeta, a) - cum_mu), w)

    c = w * k * np.exp(-cum_mu)
    mass, moment, c0 = c.sum(axis=-1), row_dot(c, a), c[..., 0]
    if not np.all((c0 < 1.0) & (moment > 0)):
        raise NumericalError(
            f"no renewal exponent: w0*k(0) = {np.ravel(c0).tolist()} must be below 1, "
            "and births must reach a positive age",
            reason="lotka_sharpe_bracket",
        )
    lo = np.log(mass) * mass / moment
    hi = np.maximum(0.0, np.log((mass - c0) / (1.0 - c0)) / grid.da)
    lo, hi = bisect(lambda z: F(z) > 1.0, lo, hi)
    zeta = 0.5 * (lo + hi)
    defect = np.abs(F(zeta) - 1.0)
    if not np.all(defect <= F_TOL):
        raise NumericalError(
            f"bisection did not reach |F - 1| <= {F_TOL:g} (|F - 1| = "
            f"{np.ravel(defect).tolist()})",
            reason="lotka_sharpe_tolerance",
        )
    return float(zeta) if zeta.ndim == 0 else zeta


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
    zeta = solve_lotka_sharpe(kernels.mu, kernels.k, grid, kernels.cum_mu)
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
