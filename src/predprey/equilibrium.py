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

    ``xtilde1``/``xtilde2`` are the unit-newborn profiles exp(-zeta*a - cum_mu);
    ``ktilde1``/``ktilde2`` the discounted birth kernels (unit integral).
    """

    grid: AgeGrid
    kernels: KernelSet
    u_star: float
    zeta1: float
    zeta2: float
    lambda1: float
    lambda2: float
    x0_star: tuple[float, float]
    x1_star: np.ndarray
    x2_star: np.ndarray
    xtilde1: np.ndarray
    xtilde2: np.ndarray
    ktilde1: np.ndarray
    ktilde2: np.ndarray

    def x_star(self, i: int) -> np.ndarray:
        return self.x1_star if i == 1 else self.x2_star

    def ktilde(self, i: int) -> np.ndarray:
        return self.ktilde1 if i == 1 else self.ktilde2

    def zeta(self, i: int) -> float:
        return self.zeta1 if i == 1 else self.zeta2


def compute_equilibrium(kernels: KernelSet, u_star: float) -> Equilibrium:
    """Construct the full equilibrium for a feasible dilution setpoint."""
    grid = kernels.grid
    a = grid.nodes
    zeta = {}
    xtilde = {}
    ktilde = {}
    for i in (1, 2):
        cm = kernels.cum_mu(i)
        zeta[i] = solve_lotka_sharpe(kernels.mu(i), kernels.k(i), grid, cm)
        xtilde[i] = np.exp(-zeta[i] * a - cm)
        ktilde[i] = kernels.k(i) * xtilde[i]

    z_min = min(zeta[1], zeta[2])
    if not 0.0 < u_star < z_min:
        raise InfeasibleSetpointError(u_star, (0.0, z_min))

    int_g2_xt1 = quad(kernels.g2 * xtilde[1], grid)
    int_g1_xt2 = quad(kernels.g1 * xtilde[2], grid)
    if not (int_g2_xt1 > 0 and int_g1_xt2 > 0):
        raise NumericalError(
            "interaction kernels do not overlap the steady profiles",
            reason="degenerate_interaction",
        )
    x10 = 1.0 / ((zeta[2] - u_star) * int_g2_xt1)
    x20 = (zeta[1] - u_star) / int_g1_xt2
    x1_star = x10 * xtilde[1]
    x2_star = x20 * xtilde[2]
    lambda1 = quad(kernels.g2 * x1_star, grid)
    lambda2 = quad(kernels.g1 * x2_star, grid)
    return Equilibrium(
        grid=grid,
        kernels=kernels,
        u_star=float(u_star),
        zeta1=zeta[1],
        zeta2=zeta[2],
        lambda1=lambda1,
        lambda2=lambda2,
        x0_star=(x10, x20),
        x1_star=x1_star,
        x2_star=x2_star,
        xtilde1=xtilde[1],
        xtilde2=xtilde[2],
        ktilde1=ktilde[1],
        ktilde2=ktilde[2],
    )


def open_loop_jacobian(eq: Equilibrium) -> np.ndarray:
    """Linearization of the uncontrolled reduced dynamics at the origin."""
    return np.array([[0.0, -eq.lambda2], [1.0 / eq.lambda1, 0.0]])


def open_loop_jacobian_eigs(eq: Equilibrium) -> tuple[complex, complex]:
    """Eigenvalues +/- i*sqrt(lambda2/lambda1) from the 2x2 characteristic polynomial."""
    omega = np.sqrt(eq.lambda2 / eq.lambda1)
    return complex(0.0, omega), complex(0.0, -omega)
