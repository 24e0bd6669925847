"""Change of variables between population profiles and (eta, psi) states.

Each species' profile is split into a scalar log-abundance

    eta_i = ln Pi_i[x_i],   Pi_i[x] = quad(pi0_i * x) / quad(a * k_i * x_i_star),

and an age-shape deviation history psi_i with

    psi_i(t - a) = x_i(a, t) / (x_i_star(a) * Pi_i[x_i]) - 1,

so that x_i(a, t) = x_i_star(a) * exp(eta_i(t)) * (1 + psi_i(t - a)).

History buffers are sampled at the grid nodes with newest-first indexing:
``samples[j]`` holds psi(t - a_j), so ``samples[0]`` is the current value and
``samples[-1]`` the oldest one at t - A.  The sampling step equals the age
step, which keeps every delayed lookup on-grid.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .equilibrium import Equilibrium
from .errors import NumericalError
from .model import AgeGrid, PopulationState, check_grid_fn, quad, row_dot, tail_integral


@dataclass(frozen=True)
class AdjointData:
    """Zero-eigenvalue adjoint weight pi0, its trapezoid-weighted form w*pi0,
    and the normalizing denominator."""

    pi0: np.ndarray
    wpi0: np.ndarray
    denom: float


def compute_pi0(eq: Equilibrium, species: int) -> AdjointData:
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
    lam = eq.zeta(species) * grid.nodes + eq.kernels.cum_mu(species)
    pi0 = np.exp(lam) * tail_integral(eq.ktilde(species), grid)
    denom = quad(pi0 * eq.x_star(species), grid)
    return AdjointData(pi0=pi0, wpi0=grid.weights * pi0, denom=denom)


def shape_deviation(x, x_star, pi_val):
    """psi = x / (x_star * Pi[x]) - 1, the age-shape deviation of a profile."""
    return x / (x_star * pi_val) - 1.0


def profile(x_star, eta, psi):
    """x = x_star * exp(eta) * (1 + psi), the profile of a transformed state."""
    return x_star * np.exp(eta) * (1.0 + psi)


def stack_adjoints(adj: tuple[AdjointData, AdjointData]) -> AdjointData:
    """Both species' adjoint data on a leading species axis, so that
    ``pi_functional`` evaluates (..., 2, n) profiles in one call."""
    return AdjointData(pi0=np.array([a.pi0 for a in adj]),
                       wpi0=np.array([a.wpi0 for a in adj]),
                       denom=np.array([a.denom for a in adj]))


def pi_functional(x, adj: AdjointData):
    """Weighted total abundance Pi[x] = quad(pi0 * x) / denom along the last
    axis of x, broadcast over the leading ones (a float for one profile).

    Strictly positive and finite for a valid profile; anything else raises a
    ``NumericalError`` tagged ``nan_guard``.
    """
    val = row_dot(x, adj.wpi0) / adj.denom
    if not all(0.0 < v < np.inf for v in val.ravel().tolist()):
        raise NumericalError("nonpositive or non-finite abundance functional",
                             reason="nan_guard")
    return val


@dataclass
class HistoryBuffer:
    """Trailing window of psi values over [t - A, t], newest first."""

    grid: AgeGrid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = check_grid_fn(self.samples, self.grid, "history samples")
        if np.any(self.samples <= -1.0):
            raise ValueError(
                f"history contains a sample <= -1 (min {self.samples.min():.6g}); "
                "the profile it encodes is nonpositive"
            )


@dataclass
class TransformedState:
    """Pair (eta1, eta2) plus the two shape-deviation histories."""

    t: float
    eta: np.ndarray
    psi1: HistoryBuffer
    psi2: HistoryBuffer


P_RESIDUAL_TOL = 1e-3


def to_transformed(
    state: PopulationState,
    eq: Equilibrium,
    adj: tuple[AdjointData, AdjointData],
) -> TransformedState:
    """Extract (eta, psi) from a positive population state.

    The normalization guarantees P(psi) = 0 for the extracted histories; a
    violation beyond P_RESIDUAL_TOL indicates an inconsistent setup and is
    reported as a warning rather than an error (user-supplied profiles are
    allowed to be only approximately compatible).
    """
    grid = eq.grid
    state.validate(grid)
    xs = (state.x1, state.x2)
    eta = np.empty(2)
    buffers = []
    for i in (1, 2):
        pival = pi_functional(xs[i - 1], adj[i - 1])
        eta[i - 1] = np.log(pival)
        buffers.append(HistoryBuffer(grid, shape_deviation(xs[i - 1], eq.x_star(i), pival)))
        p_res, _ = check_S(buffers[-1], eq.ktilde(i), grid)
        if p_res > P_RESIDUAL_TOL:
            warnings.warn(
                f"extracted history of species {i} has membership residual "
                f"P = {p_res:.3g} > {P_RESIDUAL_TOL:g}",
                stacklevel=2,
            )
    return TransformedState(t=state.t, eta=eta, psi1=buffers[0], psi2=buffers[1])


def reconstruct(ts: TransformedState, eq: Equilibrium) -> PopulationState:
    """Rebuild the population profiles from (eta, psi) with ``profile``."""
    x1 = profile(eq.x1_star, ts.eta[0], ts.psi1.samples)
    x2 = profile(eq.x2_star, ts.eta[1], ts.psi2.samples)
    return PopulationState(t=ts.t, x1=x1, x2=x2).validate(eq.grid)


def check_S(psi: HistoryBuffer, ktilde, grid: AgeGrid) -> tuple[float, float]:
    """Residuals of the invariant-set conditions for a history buffer.

    Returns (|P(psi)|, |psi(0) - quad(ktilde * psi)|) where

        P(psi) = quad(psi(-a) * int_a^A ktilde) / quad(a * ktilde).

    P vanishes identically for histories produced by the transformation; the
    renewal residual vanishes only when the underlying profile satisfies the
    birth boundary condition.
    """
    ktilde = check_grid_fn(ktilde, grid, "ktilde")
    tail = tail_integral(ktilde, grid)
    p_val = quad(psi.samples * tail, grid) / quad(grid.nodes * ktilde, grid)
    renewal = abs(float(psi.samples[0]) - quad(ktilde * psi.samples, grid))
    return abs(float(p_val)), renewal
