"""Change of variables between population profiles and (eta, psi) states.

Each species' profile is split into a scalar log-abundance

    eta_i = ln Pi_i[x_i],   Pi_i[x] = quad(pi0_i * x) / quad(a * k_i * x_i_star),

and an age-shape deviation history psi_i with

    psi_i(t - a) = x_i(a, t) / (x_i_star(a) * Pi_i[x_i]) - 1,

so that x_i(a, t) = x_i_star(a) * exp(eta_i(t)) * (1 + psi_i(t - a)).  Both
species go through each formula in one call, on the layout of ``model``.

Histories are sampled at the grid nodes with newest-first indexing:
``psi[..., j]`` holds psi(t - a_j), so ``psi[..., 0]`` is the current value
and ``psi[..., -1]`` the oldest one at t - A.  The sampling step equals the
age step, which keeps every delayed lookup on-grid.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .equilibrium import Equilibrium
from .errors import NumericalError
from .model import (AgeGrid, PopulationState, check_grid_fn, check_species_fn, quad, row_dot,
                    tail_integral)


@dataclass(frozen=True)
class AdjointData:
    """Zero-eigenvalue adjoint weights pi0 (2, n), their trapezoid-weighted
    form w*pi0, and the normalizing denominators (2,)."""

    pi0: np.ndarray
    wpi0: np.ndarray
    denom: np.ndarray


def compute_pi0(eq: Equilibrium) -> AdjointData:
    """Adjoint weight pi0(a) = integral_a^A k(s) exp(Lam(a) - Lam(s)) ds.

    Lam is the cumulative renewal-plus-mortality integral zeta*a + int_0^a mu,
    so k*exp(-Lam) is ktilde and one tail integral of it avoids the O(n^2)
    double loop: pi0 = exp(Lam) * int_a^A ktilde.  By the renewal condition
    pi0(0) = 1 and pi0(A) = 0.

    The normalizer integral_0^A a k x_star equals quad(pi0 * x_star) after
    integration by parts; the by-parts form is used because it makes the
    discrete normalization Pi[x_star] = 1 exact instead of O(da^2).
    """
    grid = eq.grid
    lam = eq.zeta[:, None] * grid.nodes + eq.kernels.cum_mu
    pi0 = np.exp(lam) * tail_integral(eq.ktilde, grid)
    denom = quad(pi0 * eq.x_star, grid)
    return AdjointData(pi0=pi0, wpi0=grid.weights * pi0, denom=denom)


def shape_deviation(x, x_star, pi_val, out=None):
    """psi = x / (x_star * Pi[x]) - 1, the age-shape deviation of a profile;
    ``out``, an array of the profiles' shape, takes it in place of a fresh
    one."""
    ratio = np.divide(x, np.multiply(x_star, pi_val, out=out), out=out)
    return np.subtract(ratio, 1.0, out=out)


def profile(x_star, eta, psi):
    """x = x_star * exp(eta) * (1 + psi), the profile of a transformed state."""
    return x_star * np.exp(eta) * (1.0 + psi)


def pi_functional(x, adj: AdjointData):
    """Weighted total abundances Pi[x] = quad(pi0 * x) / denom of profiles x
    (..., 2, n), one per species, broadcast over the leading axes.

    Strictly positive and finite for a valid profile; anything else raises a
    ``NumericalError`` tagged ``nan_guard``.
    """
    val = row_dot(x, adj.wpi0) / adj.denom
    if not all(0.0 < v < np.inf for v in val.ravel().tolist()):
        raise NumericalError("nonpositive or non-finite abundance functional",
                             reason="nan_guard")
    return val


@dataclass
class TransformedState:
    """Log-abundances ``eta`` (2,) and the shape-deviation histories ``psi``
    (2, n), newest first."""

    t: float
    eta: np.ndarray
    psi: np.ndarray

    def validate(self, grid: AgeGrid) -> "TransformedState":
        self.psi = check_species_fn(self.psi, grid, "history samples")
        if np.any(self.psi <= -1.0):
            raise ValueError(
                f"history contains a sample <= -1 (min {self.psi.min():.6g}); "
                "the profile it encodes is nonpositive"
            )
        return self


P_RESIDUAL_TOL = 1e-3


def to_transformed(state: PopulationState, eq: Equilibrium, adj: AdjointData) -> TransformedState:
    """Extract (eta, psi) from a positive population state.

    The normalization guarantees P(psi) = 0 for the extracted histories; a
    violation beyond P_RESIDUAL_TOL indicates an inconsistent setup and is
    reported as a warning rather than an error (user-supplied profiles are
    allowed to be only approximately compatible).
    """
    grid = eq.grid
    state.validate(grid)
    pival = pi_functional(state.x, adj)
    ts = TransformedState(t=state.t, eta=np.log(pival),
                          psi=shape_deviation(state.x, eq.x_star, pival[:, None])).validate(grid)
    p_res, _ = check_S(ts.psi, eq.ktilde, grid)
    for i in np.flatnonzero(p_res > P_RESIDUAL_TOL):
        warnings.warn(
            f"extracted history of species {i + 1} has membership residual "
            f"P = {p_res[i]:.3g} > {P_RESIDUAL_TOL:g}",
            stacklevel=2,
        )
    return ts


def reconstruct(ts: TransformedState, eq: Equilibrium) -> PopulationState:
    """Rebuild the population profiles from (eta, psi) with ``profile``."""
    return PopulationState(t=ts.t, x=profile(eq.x_star, ts.eta[:, None], ts.psi)).validate(eq.grid)


def check_S(psi, ktilde, grid: AgeGrid):
    """Residuals of the invariant-set conditions for histories psi.

    Returns (|P(psi)|, |psi(0) - quad(ktilde * psi)|), floats for one history
    and (2,) arrays for one per species, where

        P(psi) = quad(psi(-a) * int_a^A ktilde) / quad(a * ktilde).

    P vanishes identically for histories produced by the transformation; the
    renewal residual vanishes only when the underlying profile satisfies the
    birth boundary condition.
    """
    ktilde = check_grid_fn(ktilde, grid, "ktilde")
    tail = tail_integral(ktilde, grid)
    p_val = quad(psi * tail, grid) / quad(grid.nodes * ktilde, grid)
    return np.abs(p_val), np.abs(psi[..., 0] - quad(ktilde * psi, grid))
