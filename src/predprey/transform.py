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
from .model import AgeGrid, KernelSet, PopulationState, check_grid_fn, cumulative, quad


@dataclass(frozen=True)
class AdjointData:
    """Zero-eigenvalue adjoint weight pi0 and the normalizing denominator."""

    pi0: np.ndarray
    denom: float


def compute_pi0(eq: Equilibrium, species: int) -> AdjointData:
    """Adjoint weight pi0(a) = integral_a^A k(s) exp(Lam(a) - Lam(s)) ds.

    Lam is the cumulative renewal-plus-mortality integral zeta*a + int_0^a mu.
    A single cached cumulative of k*exp(-Lam) avoids the O(n^2) double loop:
    pi0 = exp(Lam) * (Kc(A) - Kc(a)).  By the renewal condition pi0(0) = 1 and
    pi0(A) = 0.

    The normalizer integral_0^A a k x_star equals quad(pi0 * x_star) after
    integration by parts; the by-parts form is used because it makes the
    discrete normalization Pi[x_star] = 1 exact instead of O(da^2).
    """
    grid = eq.grid
    lam = eq.zeta(species) * grid.nodes + eq.kernels.cum_mu(species)
    kexp = eq.kernels.k(species) * np.exp(-lam)  # equals ktilde(species)
    kc = cumulative(kexp, grid)
    pi0 = np.exp(lam) * (kc[-1] - kc)
    denom = quad(pi0 * eq.x_star(species), grid)
    return AdjointData(pi0=pi0, denom=denom)


def pi_functional(x, adj: AdjointData, grid: AgeGrid) -> float:
    """Weighted total abundance Pi[x]; strictly positive for valid profiles."""
    val = quad(adj.pi0 * np.asarray(x, dtype=float), grid) / adj.denom
    if not val > 0:
        raise ValueError(
            f"Pi functional returned {val:.6g}; the input profile is not a "
            "valid (positive) population density"
        )
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


def zero_history(grid: AgeGrid) -> HistoryBuffer:
    return HistoryBuffer(grid, np.zeros(grid.n_nodes))


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
        pival = pi_functional(xs[i - 1], adj[i - 1], grid)
        eta[i - 1] = np.log(pival)
        psi = xs[i - 1] / (eq.x_star(i) * pival) - 1.0
        buffers.append(HistoryBuffer(grid, psi))
        p_res, _ = check_S(buffers[-1], eq.ktilde(i), grid)
        if p_res > P_RESIDUAL_TOL:
            warnings.warn(
                f"extracted history of species {i} has membership residual "
                f"P = {p_res:.3g} > {P_RESIDUAL_TOL:g}",
                stacklevel=2,
            )
    return TransformedState(t=state.t, eta=eta, psi1=buffers[0], psi2=buffers[1])


def reconstruct(ts: TransformedState, eq: Equilibrium) -> PopulationState:
    """Rebuild the population profiles: x_i = x_i_star * exp(eta_i) * (1 + psi_i)."""
    x1 = eq.x1_star * np.exp(ts.eta[0]) * (1.0 + ts.psi1.samples)
    x2 = eq.x2_star * np.exp(ts.eta[1]) * (1.0 + ts.psi2.samples)
    return PopulationState(t=ts.t, x1=x1, x2=x2).validate(eq.grid)


def g_bar(kernels: KernelSet, eq: Equilibrium) -> tuple[np.ndarray, np.ndarray]:
    """Unit-mass interaction densities g_i * x_j_star / quad(g_i * x_j_star).

    Pairing is cross-species: g_bar_1 weighs the predator steady profile,
    g_bar_2 the prey one.
    """
    grid = eq.grid
    num1 = kernels.g1 * eq.x2_star
    num2 = kernels.g2 * eq.x1_star
    d1 = quad(num1, grid)
    d2 = quad(num2, grid)
    if not (d1 > 0 and d2 > 0):
        raise ValueError("degenerate interaction kernels: zero normalizing integral")
    return num1 / d1, num2 / d2


def v_map(psi: HistoryBuffer, gbar_paired: np.ndarray, grid: AgeGrid) -> float:
    """Log of the paired-average perturbation: ln(1 + quad(g_bar * psi)).

    For species 1 the paired density is g_bar_2, and conversely; the caller
    supplies the paired array.
    """
    m = quad(gbar_paired * psi.samples, grid)
    arg = 1.0 + m
    if not arg > 0:
        raise ValueError(
            f"history is outside the admissible set: 1 + quad(g_bar*psi) = {arg:.6g} <= 0"
        )
    return float(np.log(arg))


def check_S(psi: HistoryBuffer, ktilde, grid: AgeGrid) -> tuple[float, float]:
    """Residuals of the invariant-set conditions for a history buffer.

    Returns (|P(psi)|, |psi(0) - quad(ktilde * psi)|) where

        P(psi) = quad(psi(-a) * int_a^A ktilde) / quad(a * ktilde).

    P vanishes identically for histories produced by the transformation; the
    renewal residual vanishes only when the underlying profile satisfies the
    birth boundary condition.
    """
    ktilde = check_grid_fn(ktilde, grid, "ktilde")
    kc = cumulative(ktilde, grid)
    tail = kc[-1] - kc  # int_a^A ktilde
    p_val = quad(psi.samples * tail, grid) / quad(grid.nodes * ktilde, grid)
    renewal = abs(float(psi.samples[0]) - quad(ktilde * psi.samples, grid))
    return abs(float(p_val)), renewal
