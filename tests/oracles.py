"""Independent reference computations that only the tests use.

Each one reaches a quantity of the package by a second route, so a test can
check that both routes agree.  The trajectory and profile checks below them
(zero_history, satisfies_bc, conservation_check, g_decrease_violations) and
the one-step forms of the solver kernels have no caller in the package, so
they live here too.
"""
import numpy as np

from predprey.controllers import (BoundController, GainsA, control_A, control_B, control_measured,
                                 phi)
from predprey.equilibrium import Equilibrium
from predprey.errors import NumericalError
from predprey.lyapunov import LyapConfig, g_fn, v1
from predprey.model import (AgeGrid, KernelSet, PopulationState, bc_residual, check_grid_fn, quad,
                            row_dot)
from predprey.simulate import (
    _failure,
    _heun_eta,
    _renewal_weights,
    _transformed_ops,
    ic_from_spec,
    transformed_ic,
)
from predprey.transform import TransformedState, pi_functional, profile, shape_deviation


def saturated_k(cfg: LyapConfig) -> float:
    """K of the saturated mode, the varphi bound -sqrt(beta^2/varpi^2 - delta^2)."""
    return -np.sqrt(cfg.beta**2 / cfg.varpi**2 - cfg.delta**2)


def hyperbola_boundary(q1, cfg: LyapConfig, eq: Equilibrium):
    """saturated boundary in exponentiated variables q_i = e^{eta_i} - 1."""
    q1 = np.asarray(q1, dtype=float)
    s = -saturated_k(cfg)
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


def contraction_integral(ktilde, kappa: float, sigma: float, grid: AgeGrid) -> float:
    """J(kappa, sigma) = int_0^A |ktilde - z*kappa*int_a^A ktilde| e^{sigma*a} da
    with z = 1/int_0^A a*ktilde, each integral a trapezoid sum written out
    cell by cell (the tail summed from A down)."""
    a, da = grid.nodes, grid.da

    def trapezoid(f):
        return da * float(np.sum(f[:-1] + f[1:])) / 2.0

    cells = da * (ktilde[:-1] + ktilde[1:]) / 2.0
    tail = np.append(np.cumsum(cells[::-1])[::-1], 0.0)
    z = 1.0 / trapezoid(a * ktilde)
    return trapezoid(np.abs(ktilde - z * kappa * tail) * np.exp(sigma * a))


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
# pure-function form: unbatched states stepped one at a time, the stepwise
# references of the marches, which take the parts of each step that read
# neither eta nor u once per run


def _interaction_losses(x, wg):
    """The loss rates (..., 2) of profiles x (..., 2, n): quad(g1*x2) on the
    prey and 1/quad(g2*x1) on the predator; wg (2, n) holds the
    trapezoid-weighted g1 and g2."""
    q = row_dot(x[..., ::-1, :], wg)
    if not all(v > 0 for v in q[..., 1].ravel().tolist()):
        raise _failure("prey_collapse", ~(q[..., 1] > 0))
    q[..., 1] = 1.0 / q[..., 1]
    return q


def interaction_terms(state: PopulationState, kernels: KernelSet) -> tuple[float, float]:
    """Loss rates (I1, I2): predation pressure on the prey and starvation
    pressure 1/quad(g2*x1) on the predator."""
    try:
        i1, i2 = _interaction_losses(state.x, kernels.grid.weights * kernels.g)
    except NumericalError as err:
        raise NumericalError(str(err), t=state.t, reason=err.reason) from None
    return float(i1), float(i2)


def _renew(moved, wk, d):
    """The profile one step on, age last: ``moved`` (..., n - 1), nodes
    0..n-2 carried one node along the characteristics, fills nodes 1.., and
    the newborn node solves the trapezoid renewal sum: row_dot(moved, w*k) / d."""
    out = np.empty(moved.shape[:-1] + (moved.shape[-1] + 1,))
    out[..., 1:] = moved
    out[..., 0] = row_dot(moved, wk) / d
    return out


def _direct_step_ops(kernels: KernelSet):
    """Step-invariant arrays of the direct step: dt, the weighted interaction
    kernels w*g, and the species data of ``_transport``: the one-cell survival
    exp(-mu_avg*dt) of the cell-averaged mortality and the renewal weights."""
    w, dt = kernels.grid.weights, kernels.grid.da
    mu_avg = 0.5 * (kernels.mu[:, :-1] + kernels.mu[:, 1:])
    return dt, w * kernels.g, (np.exp(-mu_avg * dt), *_renewal_weights(w, kernels.k))


def _transport(x, species, loss, dt: float) -> np.ndarray:
    """Shift x one node along the characteristics (the last axis) with the
    survival factor times exp(-loss*dt), then solve the newborn node from the
    trapezoid renewal sum.  ``loss`` broadcasts against x[..., 0]."""
    survival, wk, d = species
    moved = x[..., :-1] * survival
    moved *= np.exp(loss * -dt)[..., None]
    return _renew(moved, wk, d)


def _direct_update(x, u, ops):
    """Predictor pass with the losses frozen at t, then the corrected step with
    step-averaged interaction losses; u frozen.  x is (..., 2, n) and u
    broadcasts against its losses (..., 2)."""
    dt, wg, species = ops
    i = _interaction_losses(x, wg)
    j = _interaction_losses(_transport(x, species, u + i, dt), wg)
    return _transport(x, species, u + 0.5 * (i + j), dt)


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
    x = _step("direct", kernels, _direct_step_ops, _direct_update, state.x, u, dt, state.t)
    return PopulationState(t=state.t + dt, x=x)


def _transformed_step_ops(eq: Equilibrium):
    """dt, zeta and the history arrays of ``_transformed_ops``."""
    return eq.grid.da, eq.zeta, _transformed_ops(eq)


def _transformed_update(state, u, ops):
    """One step of (eta, psi), the stepwise reference of the march's history
    half: renew the histories, check the newborn node, take the interaction
    integrals at both ends, then the march's Heun step on eta."""
    eta, psi = state
    dt, zeta, (wg, wk, d) = ops
    psi_new = _renew(psi[..., :-1], wk, d)
    if any(v <= -1.0 for v in psi_new[..., 0].ravel().tolist()):
        raise _failure("psi_admissibility", psi_new[..., 0] <= -1.0)
    q = _interaction_losses(1.0 + np.array((psi, psi_new)), wg)
    eta = _heun_eta(tuple(eta.tolist()), u, q[0].tolist(), q[1].tolist(), dt, zeta.tolist())
    return np.array(eta), psi_new


def step_transformed(ts: TransformedState, u: float, eq: Equilibrium, dt: float) -> TransformedState:
    """One step of the transformed solver."""
    with np.errstate(over="ignore"):
        eta, psi = _step("transformed", eq, _transformed_step_ops, _transformed_update,
                         (ts.eta, ts.psi), u, dt, ts.t)
    return TransformedState(t=ts.t + dt, eta=eta, psi=psi).validate(eq.grid)


def _march_stepwise(setup, cfg, state, observe, advance):
    """One run as a loop of one-step kernels, with the march's control law,
    records, snapshots and checks: ``observe(state, t)`` gives eta, the
    histories and a callable giving the profiles of a state, and
    ``advance(state, u, t)`` the next state.  The measured law takes its
    sensor outputs from the state's profiles, where the march takes them
    from eta and the sensor factors.  A failure raises the
    ``NumericalError`` the march raises, with its reason and t.  Returns the
    times, eta, u, G (2, R), psi_min (R, 2) and snapshots of the records."""
    eq, grid, dt = setup.eq, setup.grid, setup.grid.da
    n_steps = max(int(round(cfg.t_final / dt)), 1)
    snap_steps = {int(round(t / dt)) for t in cfg.snapshot_times}
    controller = BoundController(cfg.controller, eq)
    out = {"times": [], "eta": [], "u": [], "G": [], "psi_min": []}
    snapshots = []
    for step in range(n_steps + 1):
        t = step * dt  # the march's t, not a running sum of dt
        eta, psi, x = observe(state, t)
        if not np.all(np.isfinite(eta)):
            raise NumericalError("non-finite eta", t=t, reason="nan_guard")
        if controller.sensors is None:
            u = controller.u_from_eta(*eta)
        else:
            y = row_dot(x(), grid.weights * controller.sensors.c)
            if np.any(y <= 0):
                raise NumericalError("measurements must be strictly positive", t=t,
                                     reason="measurement_nonpositive")
            u = control_measured(y, controller.sensors, controller.gains_a, eq)
        if not np.isfinite(u):
            raise NumericalError("non-finite u", t=t, reason="nan_guard")
        if step % cfg.record_every == 0 or step == n_steps:
            for name, value in (("times", t), ("eta", eta), ("u", u),
                                ("G", g_fn(psi, setup.sigma, grid)),
                                ("psi_min", psi.min(axis=-1))):
                out[name].append(value)
        if step in snap_steps:
            snapshots.append((t, x()))
        if step == n_steps:
            break
        state = advance(state, u, t)
    return (*(np.array(out[name]) for name in ("times", "eta", "u")),
            np.array(out["G"]).T, np.array(out["psi_min"]), snapshots)


def march_transformed(setup, cfg):
    """One transformed run as a loop of ``step_transformed``: the stepwise
    reference of ``simulate_transformed`` (``_march_stepwise``)."""
    eq = setup.eq

    def observe(ts, t):
        return ts.eta, ts.psi, lambda: profile(eq.x_star, ts.eta[:, None], ts.psi)

    def advance(ts, u, t):
        ts.t = t
        return step_transformed(ts, u, eq, setup.grid.da)

    return _march_stepwise(setup, cfg, transformed_ic(cfg.ic, setup), observe, advance)


def march_direct(setup, cfg):
    """One direct run as a loop of ``step_direct`` on the profiles, with eta
    and the histories taken from each step's profiles: the stepwise
    reference of ``simulate_direct`` (``_march_stepwise``)."""
    eq = setup.eq

    def observe(x, t):
        try:
            p = pi_functional(x, setup.adj)
        except NumericalError as err:
            raise NumericalError(str(err), t=t, reason=err.reason) from None
        return np.log(p), shape_deviation(x, eq.x_star, p[:, None]), lambda: x

    def advance(x, u, t):
        return step_direct(PopulationState(t=t, x=x), u, setup.kernels, setup.grid.da).x

    return _march_stepwise(setup, cfg, ic_from_spec(cfg.ic, eq).x, observe, advance)


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
    arg = 1.0 + (saturated_k(cfg) - phi1) / ((1.0 + cfg.eps) * eq.lambda2)
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
    h1, h2 = cfg.H1, cfg.H2
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
                keep &= p1 + (1.0 + cfg.eps) * p2 >= saturated_k(cfg) - 1e-12
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
