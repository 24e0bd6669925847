"""Age grids, trapezoid quadrature, and the model kernels.

Populations are carried as plain numpy arrays sampled on a uniform
:class:`AgeGrid`; all age integrals in the package are composite trapezoid
sums (:func:`quad`, or :func:`row_dot` against the weights in the step
kernels), exact for piecewise-linear integrands, so that every module shares
one discrete calculus.

Species layout: every per-species array over age is one (2, n) array,
species first (row 0 the prey, row 1 the predator) and age last.  That holds
for the kernels, the steady and unit-newborn profiles, the adjoint weights,
the densities, the shape-deviation histories, the sensor kernels and the
snapshots; per-species scalars such as zeta and x0_star are (2,) arrays.  A
batch of runs adds a leading axis, (B, 2, n).  The age calculus reduces
along the last axis, so one call serves both species.
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
    """Validate one function of age, (n,), or one per species, (2, n),
    against its grid (length and finiteness).  Returns it C-contiguous: a
    ``row_dot`` against a strided row sums in another order."""
    f = np.ascontiguousarray(f, dtype=float)
    if f.shape not in ((grid.n_nodes,), (2, grid.n_nodes)):
        raise ValueError(
            f"{name} has shape {f.shape}, expected ({grid.n_nodes},) or "
            f"(2, {grid.n_nodes}) for n_cells={grid.n_cells}"
        )
    if not np.all(np.isfinite(f)):
        raise ValueError(f"{name} contains non-finite values")
    return f


def check_species_fn(f, grid: AgeGrid, name: str) -> np.ndarray:
    """Validate a per-species array: one (2, n) row per species."""
    f = check_grid_fn(f, grid, name)
    if f.ndim != 2:
        raise ValueError(f"{name} has shape {f.shape}, expected (2, {grid.n_nodes})")
    return f


def _row_dot_matmul(x, w):
    return (x[..., None, :] @ w[..., None])[..., 0, 0]


# Dot products along the last axis, broadcast over the leading ones.  Each is
# summed as one 1-D dot, so a row of a stacked array gives bitwise the value it
# gives alone; ``x @ w`` on a matrix sums in another order.  numpy >= 2 has the
# gufunc; before it, a (1, n) @ (n, 1) matmul per row takes the same 1-D dot.
row_dot = getattr(np, "vecdot", _row_dot_matmul)


def quad(f, grid: AgeGrid):
    """Integrate f over [0, A] by the composite trapezoid rule: a float for
    one function, a (2,) array for one per species."""
    q = row_dot(check_grid_fn(f, grid), grid.weights)
    return float(q) if q.ndim == 0 else q


def cumulative(f, grid: AgeGrid) -> np.ndarray:
    """Running trapezoid integral of f from 0 to each node (starts at 0)."""
    f = check_grid_fn(f, grid)
    out = np.zeros_like(f)
    out[..., 1:] = np.cumsum(grid.da * (f[..., 1:] + f[..., :-1]) / 2.0, axis=-1)
    return out


def tail_integral(f, grid: AgeGrid) -> np.ndarray:
    """Trapezoid integral of f from each node to A (ends at 0)."""
    c = cumulative(f, grid)
    return c[..., -1:] - c


@dataclass(frozen=True)
class KernelSet:
    """Mortality ``mu``, birth ``k`` and interaction ``g`` kernels, each (2, n).

    ``cum_mu`` holds the cumulative mortality integral from 0 to each node, as
    its builder gives it: exact for the closed-form family, the running
    trapezoid sum for tables.
    """

    grid: AgeGrid
    mu: np.ndarray
    k: np.ndarray
    g: np.ndarray
    cum_mu: np.ndarray

    def __post_init__(self):
        for name in ("mu", "k", "g"):
            arr = check_species_fn(getattr(self, name), self.grid, name)
            object.__setattr__(self, name, arr)
            for i, row in enumerate(arr, start=1):
                if np.any(row < 0):
                    raise ValueError(f"kernel {name}{i} must be nonnegative everywhere")
                if not quad(row, self.grid) > 0:
                    raise ValueError(f"kernel {name}{i} must have a strictly positive integral")


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

    mu_i(a) = mu_bar_i * exp(a), k_i(a) = k_bar_i * exp(-a),
    g_i(a) = g_bar_i * (a - a^2); the cumulative mortality is the exact
    mu_bar_i * (exp(a) - 1).  All shape parameters must be strictly positive.
    The interaction shape a - a^2 is nonnegative only for A <= 1; larger
    grids are rejected by the kernel nonnegativity check.
    """
    shape = {
        "mu_bar_1": mu_bar_1, "k_bar_1": k_bar_1, "g_bar_1": g_bar_1,
        "mu_bar_2": mu_bar_2, "k_bar_2": k_bar_2, "g_bar_2": g_bar_2,
    }
    for name, val in shape.items():
        if not val > 0:
            raise ValueError(f"kernel shape parameter {name} must be positive, got {val}")
    a = grid.nodes
    # (mu_bar, k_bar, g_bar), each a (2, 1) column over the species
    mu_bar, k_bar, g_bar = np.array([[mu_bar_1, k_bar_1, g_bar_1],
                                     [mu_bar_2, k_bar_2, g_bar_2]]).T[..., None]
    return KernelSet(grid=grid, mu=mu_bar * np.exp(a), k=k_bar * np.exp(-a),
                     g=g_bar * (a - a**2), cum_mu=mu_bar * np.expm1(a))


def kernels_from_tables(grid: AgeGrid, mu, k, g) -> KernelSet:
    """Build a KernelSet from tabulated (2, n) kernels; the cumulative
    mortality is their running trapezoid sum."""
    return KernelSet(grid=grid, mu=mu, k=k, g=g, cum_mu=cumulative(mu, grid))


def bc_residual(x, k, grid: AgeGrid):
    """Absolute defect of the renewal boundary condition x(0) = quad(k*x):
    a float for one profile, a (2,) array for one per species."""
    x = check_grid_fn(x, grid, "x")
    k = check_grid_fn(k, grid, "k")
    return np.abs(x[..., 0] - quad(k * x, grid))


@dataclass
class PopulationState:
    """Population densities ``x`` (2, n) of both species at one instant."""

    t: float
    x: np.ndarray

    def validate(self, grid: AgeGrid) -> "PopulationState":
        self.x = check_species_fn(self.x, grid, "x")
        if self.t < 0:
            raise ValueError(f"time must be nonnegative, got {self.t}")
        if np.any(self.x <= 0):
            raise NumericalError(
                "population densities must be strictly positive at every node",
                t=self.t,
                reason="nonpositive_density",
            )
        return self
