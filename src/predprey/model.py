"""Age grids, trapezoid quadrature, and the model kernels.

Populations are carried as plain numpy arrays sampled on a uniform
:class:`AgeGrid`; all age integrals in the package go through :func:`quad`
(composite trapezoid, exact for piecewise-linear integrands) so that every
module shares one discrete calculus.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class AgeGrid:
    """Uniform discretization of age in [0, A] with ``n_cells`` intervals."""

    A: float
    n_cells: int

    def __post_init__(self):
        if not self.A > 0:
            raise ValueError(f"maximum age A must be positive, got {self.A}")
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be a positive integer, got {self.n_cells}")

    @property
    def da(self) -> float:
        return self.A / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @cached_property
    def nodes(self) -> np.ndarray:
        a = np.linspace(0.0, self.A, self.n_nodes)
        a.flags.writeable = False
        return a

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite trapezoid weights: quad(f) == weights @ f."""
        w = np.full(self.n_nodes, self.da)
        w[0] = w[-1] = 0.5 * self.da
        w.flags.writeable = False
        return w


def check_grid_fn(f, grid: AgeGrid, name: str = "grid function") -> np.ndarray:
    """Validate an array against its grid (length and finiteness)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n_nodes,):
        raise ValueError(
            f"{name} has shape {f.shape}, expected ({grid.n_nodes},) for "
            f"n_cells={grid.n_cells}"
        )
    if not np.all(np.isfinite(f)):
        raise ValueError(f"{name} contains non-finite values")
    return f


def quad(f, grid: AgeGrid) -> float:
    """Integrate f over [0, A] by the composite trapezoid rule."""
    f = check_grid_fn(f, grid)
    return float(grid.weights @ f)


def cumulative(f, grid: AgeGrid) -> np.ndarray:
    """Running trapezoid integral of f from 0 to each node (starts at 0)."""
    f = check_grid_fn(f, grid)
    out = np.zeros_like(f)
    out[1:] = np.cumsum(grid.da * (f[1:] + f[:-1]) / 2.0)
    return out


@dataclass(frozen=True)
class KernelShapeParams:
    """Shape parameters of the closed-form kernel family.

    mu_i(a) = mu_bar_i * exp(a), k_i(a) = k_bar_i * exp(-a),
    g_i(a) = g_bar_i * (a - a^2).
    """

    mu_bar: tuple[float, float]
    k_bar: tuple[float, float]
    g_bar: tuple[float, float]


@dataclass(frozen=True)
class KernelSet:
    """Mortality, birth and interaction kernels for both species.

    Kernels are sampled on the grid; when built from the closed-form family
    the shape parameters are kept so the cumulative mortality integral can be
    evaluated exactly instead of by running quadrature.
    """

    grid: AgeGrid
    mu1: np.ndarray
    k1: np.ndarray
    g1: np.ndarray
    mu2: np.ndarray
    k2: np.ndarray
    g2: np.ndarray
    params: KernelShapeParams | None = None

    def __post_init__(self):
        for name in ("mu1", "k1", "g1", "mu2", "k2", "g2"):
            arr = check_grid_fn(getattr(self, name), self.grid, name)
            object.__setattr__(self, name, arr)
            if np.any(arr < 0):
                raise ValueError(f"kernel {name} must be nonnegative everywhere")
            if not quad(arr, self.grid) > 0:
                raise ValueError(f"kernel {name} must have a strictly positive integral")

    def mu(self, i: int) -> np.ndarray:
        return self.mu1 if i == 1 else self.mu2

    def k(self, i: int) -> np.ndarray:
        return self.k1 if i == 1 else self.k2

    def cum_mu(self, i: int) -> np.ndarray:
        """Cumulative mortality integral from 0 to each node.

        Exact for the closed-form family (mu_bar * (exp(a) - 1)); trapezoid
        otherwise.
        """
        if self.params is not None:
            return self.params.mu_bar[i - 1] * np.expm1(self.grid.nodes)
        return cumulative(self.mu(i), self.grid)


def build_kernels(
    mu_bar_1: float,
    k_bar_1: float,
    g_bar_1: float,
    mu_bar_2: float,
    k_bar_2: float,
    g_bar_2: float,
    grid: AgeGrid,
) -> KernelSet:
    """Sample the closed-form kernel family on the grid.

    All shape parameters must be strictly positive.  The interaction shape
    a - a^2 is nonnegative only for A <= 1; larger grids are rejected by the
    kernel nonnegativity check.
    """
    shape = {
        "mu_bar_1": mu_bar_1, "k_bar_1": k_bar_1, "g_bar_1": g_bar_1,
        "mu_bar_2": mu_bar_2, "k_bar_2": k_bar_2, "g_bar_2": g_bar_2,
    }
    for name, val in shape.items():
        if not val > 0:
            raise ValueError(f"kernel shape parameter {name} must be positive, got {val}")
    a = grid.nodes
    params = KernelShapeParams(
        mu_bar=(mu_bar_1, mu_bar_2), k_bar=(k_bar_1, k_bar_2), g_bar=(g_bar_1, g_bar_2)
    )
    return KernelSet(
        grid=grid,
        mu1=mu_bar_1 * np.exp(a),
        k1=k_bar_1 * np.exp(-a),
        g1=g_bar_1 * (a - a**2),
        mu2=mu_bar_2 * np.exp(a),
        k2=k_bar_2 * np.exp(-a),
        g2=g_bar_2 * (a - a**2),
        params=params,
    )


def kernels_from_tables(grid, mu1, k1, g1, mu2, k2, g2) -> KernelSet:
    """Build a KernelSet from user-supplied tabulated kernels."""
    return KernelSet(
        grid=grid,
        mu1=np.asarray(mu1, dtype=float),
        k1=np.asarray(k1, dtype=float),
        g1=np.asarray(g1, dtype=float),
        mu2=np.asarray(mu2, dtype=float),
        k2=np.asarray(k2, dtype=float),
        g2=np.asarray(g2, dtype=float),
        params=None,
    )


def bc_residual(x, k, grid: AgeGrid) -> float:
    """Absolute defect of the renewal boundary condition x(0) = quad(k*x)."""
    x = check_grid_fn(x, grid, "x")
    k = check_grid_fn(k, grid, "k")
    return abs(float(x[0]) - quad(k * x, grid))


DEFAULT_BC_TOL = 1e-6


def satisfies_bc(x, k, grid: AgeGrid, tol_bc: float = DEFAULT_BC_TOL) -> bool:
    """Relative renewal-condition check: residual <= tol_bc * x(0)."""
    x = check_grid_fn(x, grid, "x")
    return bc_residual(x, k, grid) <= tol_bc * abs(float(x[0]))


@dataclass
class PopulationState:
    """Population densities of both species at one instant."""

    t: float
    x1: np.ndarray
    x2: np.ndarray

    def validate(self, grid: AgeGrid) -> "PopulationState":
        self.x1 = check_grid_fn(self.x1, grid, "x1")
        self.x2 = check_grid_fn(self.x2, grid, "x2")
        if self.t < 0:
            raise ValueError(f"time must be nonnegative, got {self.t}")
        if np.any(self.x1 <= 0) or np.any(self.x2 <= 0):
            raise NumericalError(
                "population densities must be strictly positive at every node",
                t=self.t,
                reason="nonpositive_density",
            )
        return self
