"""Independent reference computations that only the tests use.

Each one reaches a quantity of the package by a second route, so a test can
check that both routes agree.
"""
import numpy as np

from predprey.controllers import control_A, control_B, phi
from predprey.equilibrium import Equilibrium
from predprey.lyapunov import LyapConfig, phi_lower_bound
from predprey.model import quad


def hyperbola_boundary(q1, cfg: LyapConfig, eq: Equilibrium):
    """saturated boundary in exponentiated variables q_i = e^{eta_i} - 1."""
    q1 = np.asarray(q1, dtype=float)
    s = -phi_lower_bound(cfg)
    return (1.0 / (1.0 + q1) - (1.0 + eq.lambda1 * s)) / (
        (1.0 + cfg.eps) * eq.lambda1 * eq.lambda2
    )


def closed_loop_rhs(kind: str, gains, eq: Equilibrium):
    """Vector field of the reduced closed loop, for cross-checks."""

    def f(eta):
        eta = np.asarray(eta, dtype=float)
        phi1, phi2 = phi(eta, eq)
        if kind == "control_a":
            u = control_A(eta, gains, eq)
        elif kind == "control_b":
            u = control_B(eta, gains, eq)
        else:
            raise ValueError(f"unsupported controller kind {kind!r}")
        return np.stack([eq.u_star - u - phi2, eq.u_star - u + phi1], axis=-1)

    return f


def fd_jacobian(f, x0, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian for validating the closed forms."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    cols = []
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = h
        cols.append((np.asarray(f(x0 + dx)) - np.asarray(f(x0 - dx))) / (2.0 * h))
    return np.column_stack(cols)


def sensor_equilibrium_closed_form(c1, c2, eq: Equilibrium) -> tuple[float, float]:
    """The y_i_star closed forms written on the unit-newborn profiles."""
    grid = eq.grid
    y1 = quad(np.asarray(c1, dtype=float) * eq.xtilde1, grid) / (
        (eq.zeta2 - eq.u_star) * quad(eq.kernels.g2 * eq.xtilde1, grid)
    )
    y2 = (eq.zeta1 - eq.u_star) * quad(np.asarray(c2, dtype=float) * eq.xtilde2, grid) / quad(
        eq.kernels.g1 * eq.xtilde2, grid
    )
    return y1, y2
