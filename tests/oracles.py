"""Independent reference computations that only the tests use.

Each one reaches a quantity of the package by a second route, so a test can
check that both routes agree.  The trajectory and profile checks below them
(zero_history, satisfies_bc, conservation_check, g_decrease_violations) and
the one-step forms of the solver kernels have no caller in the package, so
they live here too.
"""
import numpy as np

from predprey.controllers import GainsA, control_A, control_B, phi
from predprey.equilibrium import Equilibrium
from predprey.errors import NumericalError
from predprey.lyapunov import LyapConfig, bounds_H, phi_lower_bound, v1, validate_lyap_config
from predprey.model import AgeGrid, KernelSet, PopulationState, bc_residual, check_grid_fn, quad
from predprey.simulate import (
    _direct_ops,
    _direct_update,
    _interaction_losses,
    _transformed_ops,
    _transformed_update,
)
from predprey.transform import TransformedState


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
    (xt1, xt2), (g1, g2), (zeta1, zeta2) = eq.xtilde, eq.kernels.g, eq.zeta
    y1 = quad(np.asarray(c1, dtype=float) * xt1, grid) / (
        (zeta2 - eq.u_star) * quad(g2 * xt1, grid)
    )
    y2 = (zeta1 - eq.u_star) * quad(np.asarray(c2, dtype=float) * xt2, grid) / quad(
        g1 * xt2, grid
    )
    return y1, y2


def zero_history(grid: AgeGrid) -> np.ndarray:
    """Flat (2, n) histories: the shape deviations of the steady profiles."""
    return np.zeros((2, grid.n_nodes))


DEFAULT_BC_TOL = 1e-6


def satisfies_bc(x, k, grid: AgeGrid, tol_bc: float = DEFAULT_BC_TOL) -> bool:
    """Relative renewal-condition check: residual <= tol_bc * x(0)."""
    x = check_grid_fn(x, grid, "x")
    return bc_residual(x, k, grid) <= tol_bc * abs(float(x[0]))


def conservation_check(traj) -> float:
    """Max relative drift rate |dV0/dt| / V0(0) along an open-loop run."""
    if traj.V0 is None:
        raise ValueError("trajectory lacks a V0 series")
    ref = abs(traj.V0[0])
    if ref == 0.0:
        ref = 1.0
    dV = np.abs(np.diff(traj.V0) / np.diff(traj.times))
    return float(np.max(dV) / ref)


G_DEFECT_ALLOWANCE = 10.0


def g_decrease_violations(traj, cfg: LyapConfig, tol_frac: float = 0.1,
                          defect_allowance: float = G_DEFECT_ALLOWANCE) -> tuple[int, int]:
    """Count steps where G_i fails its exponential decrease within tolerance.

    The bound G(t+dt) <= G(t)*(1 - sigma*(1 - tol_frac)*dt) carries an
    additive allowance defect_allowance*dt^2*G(0) per step: the trapezoid
    renewal leaks its conserved projection at O(dt^2) per step, which
    accumulates into a small persistent floor that the multiplicative bound
    alone would flag forever.
    """
    dt = np.diff(traj.times)
    counts = []
    for series, sigma in ((traj.G1, cfg.sigma1), (traj.G2, cfg.sigma2)):
        if series is None:
            raise ValueError("trajectory lacks recorded G series")
        atol = defect_allowance * dt**2 * (series[0] if series[0] > 0 else 1.0)
        bound = series[:-1] * (1.0 + (-sigma + tol_frac * sigma) * dt) + atol
        counts.append(int(np.count_nonzero(series[1:] > bound)))
    return counts[0], counts[1]


# ---------------------------------------------------------------------------
# one step of each solver kernel, and the interaction losses of one state, in
# pure-function form: unbatched states through the kernels the runs march


def interaction_terms(state: PopulationState, kernels: KernelSet) -> tuple[float, float]:
    """Loss rates (I1, I2): predation pressure on the prey and starvation
    pressure 1/quad(g2*x1) on the predator."""
    try:
        i1, i2 = _interaction_losses(state.x, kernels.grid.weights * kernels.g)
    except NumericalError as err:
        raise NumericalError(str(err), t=state.t, reason=err.reason) from None
    return float(i1), float(i2)


def _step(solver: str, owner, build_ops, update, state, u, dt: float, t: float):
    """One step of ``update``.  dt must equal the age step; a
    ``NumericalError`` is re-raised with t."""
    if abs(dt - owner.grid.da) > 1e-12 * owner.grid.da:
        raise ValueError(f"the {solver} solver requires dt equal to the age step")
    try:
        return update(state, u, build_ops(owner))
    except NumericalError as err:
        raise NumericalError(str(err), t=t, reason=err.reason) from None


def step_direct(state: PopulationState, u: float, kernels: KernelSet, dt: float) -> PopulationState:
    """One characteristic step of the direct solver."""
    x = _step("direct", kernels, _direct_ops, _direct_update, state.x, u, dt, state.t)
    return PopulationState(t=state.t + dt, x=x)


def step_transformed(ts: TransformedState, u: float, eq: Equilibrium, dt: float) -> TransformedState:
    """One step of the transformed solver."""
    with np.errstate(over="ignore"):
        eta, psi = _step("transformed", eq, _transformed_ops, _transformed_update,
                         (ts.eta, ts.psi), u, dt, ts.t)
    return TransformedState(t=ts.t + dt, eta=eta, psi=psi).validate(eq.grid)


def transformed_step_reference(eta, psi1, psi2, u: float, eq: Equilibrium):
    """One transformed step written species by species on Python floats: the
    renewal solve of each history, then Heun's method on eta with the
    interaction integrals of the old histories, then of the new ones."""
    w, dt = eq.grid.weights, eq.grid.da
    (g1, g2), (x1_star, x2_star), (zeta1, zeta2) = eq.kernels.g, eq.x_star, eq.zeta
    new = []
    for psi, ktilde in zip((psi1, psi2), eq.ktilde):
        wk = w * ktilde
        new.append(np.concatenate(([float(wk[1:] @ psi[:-1]) / (1.0 - wk[0])], psi[:-1])))

    def rate(e, p1, p2):
        j2 = float((w * g1 * x2_star) @ (1.0 + p2))
        j1 = float((w * g2 * x1_star) @ (1.0 + p1))
        return np.array([zeta1 - u - np.exp(e[1]) * j2, zeta2 - u - np.exp(-e[0]) / j1])

    f1 = rate(eta, psi1, psi2)
    f2 = rate(eta + dt * f1, *new)
    return eta + 0.5 * dt * (f1 + f2), new[0], new[1]


# ---------------------------------------------------------------------------
# the sampled search for the ROA level c*, kept as the reference of the
# closed-form candidate set in lyapunov.roa_estimate


def u_zero_curve(eta1, cfg: LyapConfig, eq: Equilibrium):
    """eta2 on which control A vanishes; nan where u > 0 for every eta2."""
    eta1 = np.asarray(eta1, dtype=float)
    arg = 1.0 + (
        np.exp(-eta1) - 1.0 - eq.lambda1 * eq.u_star / cfg.beta
    ) / ((1.0 + cfg.eps) * eq.lambda1 * eq.lambda2)
    out = np.full_like(arg, np.nan)
    ok = arg > 0
    out[ok] = np.log(arg[ok])
    return out


def phi_bound_curve(eta1, cfg: LyapConfig, eq: Equilibrium):
    """eta2 on which varphi equals its saturated lower bound; nan where undefined."""
    eta1 = np.asarray(eta1, dtype=float)
    phi1 = (1.0 - np.exp(-eta1)) / eq.lambda1
    arg = 1.0 + (phi_lower_bound(cfg) - phi1) / ((1.0 + cfg.eps) * eq.lambda2)
    out = np.full_like(arg, np.nan)
    ok = arg > 0
    out[ok] = np.log(arg[ok])
    return out


def _refine_min(param_eval, s_lo, s_hi, rounds=4, n=2001):
    """Dense-sample a parametric boundary piece and zoom on its V1 minimum."""
    best = (np.inf, None)
    for _ in range(rounds):
        s = np.linspace(s_lo, s_hi, n)
        eta, vals = param_eval(s)
        if vals.size == 0 or np.all(np.isnan(vals)):
            return best
        j = int(np.nanargmin(vals))
        if vals[j] < best[0]:
            best = (float(vals[j]), eta[j])
        lo_j, hi_j = max(j - 1, 0), min(j + 1, len(s) - 1)
        s_lo, s_hi = s[lo_j], s[hi_j]
    return best


def sampled_roa_min(cfg: LyapConfig, eq: Equilibrium):
    """(c*, argmin eta, piece label) by sampling each boundary piece densely
    and refining locally."""
    validate_lyap_config(cfg, eq)
    h1, h2 = bounds_H(cfg, eq)
    span = 4.0 + 2.0 * max(h1, h2)

    def mask_other(eta, skip):
        keep = np.ones(eta.shape[0], dtype=bool)
        if skip != "H1":
            keep &= eta[:, 0] >= -h1 - 1e-12
        if skip != "H2":
            keep &= eta[:, 1] <= h2 + 1e-12
        if skip != "curve":
            if cfg.mode == "gradient":
                u_val = control_A(eta, GainsA(cfg.eps, cfg.beta), eq)
                keep &= u_val >= -1e-12
            else:
                p1, p2 = phi(eta, eq)
                keep &= p1 + (1.0 + cfg.eps) * p2 >= phi_lower_bound(cfg) - 1e-12
        return keep

    curve_fn = u_zero_curve if cfg.mode == "gradient" else phi_bound_curve
    curve_label = "u_zero" if cfg.mode == "gradient" else "phi_bound"

    def eval_h1_line(s):
        eta = np.column_stack([np.full_like(s, -h1), s])
        vals = np.asarray(v1(eta, cfg.eps, eq), dtype=float)
        vals[~mask_other(eta, "H1")] = np.nan
        return eta, vals

    def eval_h2_line(s):
        eta = np.column_stack([s, np.full_like(s, h2)])
        vals = np.asarray(v1(eta, cfg.eps, eq), dtype=float)
        vals[~mask_other(eta, "H2")] = np.nan
        return eta, vals

    def eval_curve(s):
        e2 = curve_fn(s, cfg, eq)
        eta = np.column_stack([s, e2])
        vals = np.asarray(v1(eta, cfg.eps, eq), dtype=float)
        vals[np.isnan(e2)] = np.nan
        vals[~mask_other(eta, "curve")] = np.nan
        return eta, vals

    best = (np.inf, None, None)
    for label, ev, (s_lo, s_hi) in (
        ("H1", eval_h1_line, (-span, min(h2, span))),
        ("H2", eval_h2_line, (-h1, span)),
        (curve_label, eval_curve, (-h1, span)),
    ):
        val, arg = _refine_min(ev, s_lo, s_hi)
        if arg is not None and val < best[0]:
            best = (val, arg, label)
    return best
