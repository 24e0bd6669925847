"""Time integration of the population system, in two equivalent forms.

One loop, ``_march``, drives both solvers: it holds the control value over
each step, records, takes snapshots and re-raises errors with t.  Each solver
gives it a start state, an ``observe`` and a step kernel ``update(state, u,
ops)`` whose step-invariant arrays ``ops`` are built once per run; the
pure-function steps ``step_direct`` and ``step_transformed`` call the same
kernels.

Direct kernel
    Marches the density profiles along characteristics.  The time step is
    locked to the age step, so transport is an exact one-node shift combined
    with an exponential loss factor: trapezoid-averaged mortality plus the
    dilution and interaction losses, the latter averaged over the step by a
    predictor pass.  The newborn node is solved implicitly from the trapezoid
    renewal sum, which keeps the discrete birth identity exact.  Its observe
    evaluates the Pi functionals, hence eta, once per step.

Transformed kernel
    Marches the log-abundances by Heun's two-stage method, evaluating the
    history-dependent interaction integrals at both step endpoints, and
    advances each shape-deviation history through the discrete renewal
    identity (again with the newest node moved to the left side).  dt = da
    makes every delayed lookup land exactly on a stored sample, so the delay
    integrals involve no interpolation.

The accuracy model is second order in transport, in the eta update and in the
interaction coupling; the control value is evaluated once per step and held,
so closed loops are first order in the feedback coupling.  Runs are
deterministic: a fixed configuration reproduces bitwise-identical output.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .controllers import BoundController, ControllerSpec
from .equilibrium import Equilibrium, compute_equilibrium
from .errors import NumericalError
from .lyapunov import find_sigma, g_fn_weights, h_fn, SIGMA_SAFETY
from .model import AgeGrid, KernelSet, PopulationState
from .transform import (
    AdjointData,
    HistoryBuffer,
    TransformedState,
    compute_pi0,
    g_bar,
    to_transformed,
)


@dataclass(frozen=True)
class Setup:
    """Everything derived from (kernels, u_star) that simulations share."""

    grid: AgeGrid
    kernels: KernelSet
    eq: Equilibrium
    adj: tuple[AdjointData, AdjointData]
    gbar1: np.ndarray
    gbar2: np.ndarray
    sigma: tuple[float, float]
    kappa: tuple[float, float]


def build_setup(kernels: KernelSet, u_star: float) -> Setup:
    eq = compute_equilibrium(kernels, u_star)
    adj = (compute_pi0(eq, 1), compute_pi0(eq, 2))
    gbar1, gbar2 = g_bar(kernels, eq)
    kap1, sig1 = find_sigma(eq.ktilde1, kernels.grid)
    kap2, sig2 = find_sigma(eq.ktilde2, kernels.grid)
    return Setup(
        grid=kernels.grid,
        kernels=kernels,
        eq=eq,
        adj=adj,
        gbar1=gbar1,
        gbar2=gbar2,
        sigma=(SIGMA_SAFETY * sig1, SIGMA_SAFETY * sig2),
        kappa=(kap1, kap2),
    )


@dataclass(frozen=True)
class ICSpec:
    """Initial profiles: named multiplier families, custom ones, or tables.

    kinds:
      ``FQ``           x1 = x1*exp(1+2a), x2 = x2*exp(-1-2a)  (prey surplus)
      ``SQ``           the species swap of FQ                 (predator surplus)
      ``equilibrium``  start at the steady state
      ``multiplier``   x_i = x_i_star * exp(offset_i + slope_i * a)
      ``table``        explicit positive profiles
      ``eta``          transformed start (eta0, flat histories)
    """

    kind: str = "FQ"
    log_offset: tuple[float, float] = (0.0, 0.0)
    log_slope: tuple[float, float] = (0.0, 0.0)
    x1: np.ndarray | None = None
    x2: np.ndarray | None = None
    eta0: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        kinds = ("FQ", "SQ", "equilibrium", "multiplier", "table", "eta")
        if self.kind not in kinds:
            raise ValueError(f"unknown IC kind {self.kind!r}; expected one of {kinds}")


def ic_from_spec(spec: ICSpec, eq: Equilibrium) -> PopulationState:
    """Materialize the initial population profiles."""
    a = eq.grid.nodes
    if spec.kind == "FQ":
        m1, m2 = np.exp(1.0 + 2.0 * a), np.exp(-1.0 - 2.0 * a)
    elif spec.kind == "SQ":
        m1, m2 = np.exp(-1.0 - 2.0 * a), np.exp(1.0 + 2.0 * a)
    elif spec.kind == "equilibrium":
        m1 = m2 = np.ones_like(a)
    elif spec.kind == "multiplier":
        m1 = np.exp(spec.log_offset[0] + spec.log_slope[0] * a)
        m2 = np.exp(spec.log_offset[1] + spec.log_slope[1] * a)
    elif spec.kind == "table":
        if spec.x1 is None or spec.x2 is None:
            raise ValueError("table IC needs explicit x1 and x2 profiles")
        return PopulationState(
            t=0.0, x1=np.asarray(spec.x1, float), x2=np.asarray(spec.x2, float)
        ).validate(eq.grid)
    else:
        raise ValueError("eta ICs only make sense for the transformed solver")
    return PopulationState(t=0.0, x1=eq.x1_star * m1, x2=eq.x2_star * m2).validate(eq.grid)


def transformed_ic(spec: ICSpec, setup: Setup) -> TransformedState:
    if spec.kind == "eta":
        zeros = np.zeros(setup.grid.n_nodes)
        return TransformedState(
            t=0.0,
            eta=np.asarray(spec.eta0, dtype=float).copy(),
            psi1=HistoryBuffer(setup.grid, zeros.copy()),
            psi2=HistoryBuffer(setup.grid, zeros.copy()),
        )
    return to_transformed(ic_from_spec(spec, setup.eq), setup.eq, setup.adj)


def interaction_terms(state: PopulationState, kernels: KernelSet) -> tuple[float, float]:
    """Loss rates (I1, I2): predation pressure on the prey and starvation
    pressure 1/quad(g2*x1) on the predator."""
    w = kernels.grid.weights
    return _interaction_losses(state.x1, state.x2, w * kernels.g1, w * kernels.g2, t=state.t)


def _interaction_losses(x1, x2, wg1, wg2, t=None) -> tuple[float, float]:
    i1 = float(wg1 @ x2)
    i2_denom = float(wg2 @ x1)
    if not i2_denom > 0:
        raise NumericalError(
            "prey collapse: quad(g2*x1) is nonpositive, the predator loss "
            "term is singular",
            t=t,
            reason="prey_collapse",
        )
    return i1, 1.0 / i2_denom


@dataclass(frozen=True)
class SimConfig:
    """One simulation run; dt is locked to the grid spacing."""

    t_final: float
    controller: ControllerSpec = ControllerSpec()
    ic: ICSpec = ICSpec()
    record_every: int = 1
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.t_final > 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")


@dataclass
class Trajectory:
    """Recorded time series of one run, plus sparse profile snapshots."""

    times: np.ndarray
    eta: np.ndarray
    u: np.ndarray
    G1: np.ndarray | None = None
    G2: np.ndarray | None = None
    psi_min: np.ndarray | None = None
    V0: np.ndarray | None = None
    V1: np.ndarray | None = None
    V: np.ndarray | None = None
    snapshots: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def finalize_lyapunov(self, eq: Equilibrium, lyap_cfg=None) -> "Trajectory":
        """Fill V0/V1/V columns from the recorded eta and G series."""
        from .lyapunov import v0 as _v0, v1 as _v1

        self.V0 = np.asarray(_v0(self.eta, eq), dtype=float)
        eps = lyap_cfg.eps if lyap_cfg is not None else 0.0
        self.V1 = np.asarray(_v1(self.eta, eps, eq), dtype=float)
        if lyap_cfg is not None and self.G1 is not None:
            self.V = (
                self.V1
                + lyap_cfg.gamma1 / lyap_cfg.sigma1 * h_fn(self.G1)
                + lyap_cfg.gamma2 / lyap_cfg.sigma2 * h_fn(self.G2)
            )
        else:
            self.V = np.full_like(self.V0, np.nan)
        return self


class _Recorder:
    def __init__(self, setup: Setup, cfg: SimConfig, n_steps: int, dt: float):
        self.setup = setup
        self.cfg = cfg
        # one slot per stride plus the final step when it is off-stride
        n_rec = n_steps // cfg.record_every + 1
        if n_steps % cfg.record_every:
            n_rec += 1
        self.times = np.empty(n_rec)
        self.eta = np.empty((n_rec, 2))
        self.u = np.empty(n_rec)
        self.G1 = np.empty(n_rec)
        self.G2 = np.empty(n_rec)
        self.psi_min = np.empty((n_rec, 2))
        self.snapshots = []
        self.k = 0
        self.w1 = g_fn_weights(setup.grid, setup.sigma[0])
        self.w2 = g_fn_weights(setup.grid, setup.sigma[1])
        self.snap_steps = {
            int(round(ts / dt)) for ts in cfg.snapshot_times if 0 <= ts <= n_steps * dt + 1e-9
        }

    def record(self, t, eta, u, psi1, psi2):
        j = self.k
        self.times[j] = t
        self.eta[j] = eta
        self.u[j] = u
        m1, m2 = float(psi1.min()), float(psi2.min())
        self.psi_min[j] = (m1, m2)
        self.G1[j] = np.max(np.abs(psi1) * self.w1) / (1.0 + min(0.0, m1))
        self.G2[j] = np.max(np.abs(psi2) * self.w2) / (1.0 + min(0.0, m2))
        self.k += 1

    def build(self, solver: str) -> Trajectory:
        n = self.k
        meta = {
            "solver": solver,
            "controller": self.cfg.controller.kind,
            "ic": self.cfg.ic.kind,
            "n_cells": self.setup.grid.n_cells,
            "dt": self.setup.grid.da,
        }
        return Trajectory(
            times=self.times[:n],
            eta=self.eta[:n],
            u=self.u[:n],
            G1=self.G1[:n],
            G2=self.G2[:n],
            psi_min=self.psi_min[:n],
            snapshots=self.snapshots,
            meta=meta,
        )


def _march(setup: Setup, cfg: SimConfig, solver: str, state, observe, update, make_ops) -> Trajectory:
    """The time loop of both solvers.  ``observe(state)`` returns eta and two
    zero-argument callables giving (psi1, psi2) and (x1, x2), so each is built
    only when a record, the control law or a snapshot needs it.  ``make_ops()``
    builds the kernel's step-invariant arrays inside the error re-raise, so a
    grid too coarse for a birth kernel is reported at t = 0."""
    dt = setup.grid.da
    n_steps = max(int(round(cfg.t_final / dt)), 1)
    controller = BoundController(cfg.controller, setup.eq, setup.adj)
    rec = _Recorder(setup, cfg, n_steps, dt)
    t = 0.0
    try:
        ops = make_ops()
        for step in range(n_steps + 1):
            eta, psi, profiles = observe(state)
            if controller.needs_profiles:
                u = controller.u_from_state(*profiles())
            else:
                u = controller.u_from_eta(eta)
            if not np.isfinite(u):
                raise NumericalError("non-finite value in the control loop",
                                     reason="nan_guard")
            if step % cfg.record_every == 0 or step == n_steps:
                rec.record(t, eta, u, *psi())
            if step in rec.snap_steps:
                rec.snapshots.append((t, *profiles()))
            if step == n_steps:
                break
            state = update(state, u, ops)
            t = (step + 1) * dt
    except NumericalError as err:
        raise NumericalError(str(err), t=t, reason=err.reason) from None
    return rec.build(solver)


def _step(solver: str, owner, build_ops, update, state, u, dt: float, t: float):
    """One step of ``update`` in pure-function form.  dt must equal the age
    step; a ``NumericalError`` is re-raised with t."""
    if abs(dt - owner.grid.da) > 1e-12 * owner.grid.da:
        raise ValueError(f"the {solver} solver requires dt equal to the age step")
    try:
        return update(state, u, build_ops(owner))
    except NumericalError as err:
        raise NumericalError(str(err), t=t, reason=err.reason) from None


def _renewal_weights(w, k):
    """The weighted birth kernel w*k on nodes 1.. and the newborn denominator
    1 - w0*k(0) of the implicit trapezoid renewal solve."""
    wk = w * k
    d = 1.0 - wk[0]
    if d <= 0.0:
        raise NumericalError(
            "grid too coarse for the birth kernel: trapezoid weight times "
            f"the kernel at age 0 reaches {wk[0]:.6g} >= 1",
            reason="renewal_weight",
        )
    return wk[1:], d


def step_direct(state: PopulationState, u: float, kernels: KernelSet, dt: float) -> PopulationState:
    """One characteristic step of the direct solver (pure-function form)."""
    x1, x2 = _step("direct", kernels, _direct_ops, _direct_update,
                   (state.x1, state.x2), u, dt, state.t)
    return PopulationState(t=state.t + dt, x1=x1, x2=x2)


def _direct_ops(kernels: KernelSet):
    """Step-invariant arrays of the direct step: dt, the weighted interaction
    kernels w*g1 and w*g2, and per species the cell-averaged mortality and
    the renewal weights."""
    w = kernels.grid.weights
    s1, s2 = ((0.5 * (mu[:-1] + mu[1:]), *_renewal_weights(w, k))
              for mu, k in ((kernels.mu1, kernels.k1), (kernels.mu2, kernels.k2)))
    return kernels.grid.da, w * kernels.g1, w * kernels.g2, s1, s2


def _transport(x, species, loss: float, dt: float) -> np.ndarray:
    """Shift x one node along the characteristics with its loss factor, then
    solve the newborn node from the trapezoid renewal sum."""
    mu_avg, wk, d = species
    out = np.empty_like(x)
    out[1:] = x[:-1] * np.exp(-(mu_avg + loss) * dt)
    out[0] = (wk @ out[1:]) / d
    return out


def _direct_update(state, u, ops):
    """Predictor pass with the losses frozen at t, then the corrected step with
    step-averaged interaction losses; u frozen."""
    x1, x2 = state
    dt, wg1, wg2, s1, s2 = ops
    i1, i2 = _interaction_losses(x1, x2, wg1, wg2)
    y1, y2 = _transport(x1, s1, u + i1, dt), _transport(x2, s2, u + i2, dt)
    j1, j2 = _interaction_losses(y1, y2, wg1, wg2)
    return (_transport(x1, s1, u + 0.5 * (i1 + j1), dt),
            _transport(x2, s2, u + 0.5 * (i2 + j2), dt))


def simulate_direct(setup: Setup, cfg: SimConfig) -> Trajectory:
    """Integrate the density profiles and record the transformed series."""
    eq = setup.eq
    w = setup.grid.weights
    wpi1, wpi2 = w * setup.adj[0].pi0, w * setup.adj[1].pi0
    den1, den2 = setup.adj[0].denom, setup.adj[1].denom
    xs1, xs2 = eq.x1_star, eq.x2_star

    def observe(state):
        # the Pi functionals, once per step: they give eta and psi, and catch
        # any non-finite profile
        x1, x2 = state
        p1 = float(wpi1 @ x1) / den1
        p2 = float(wpi2 @ x2) / den2
        if not (0.0 < p1 < np.inf and 0.0 < p2 < np.inf):
            raise NumericalError("nonpositive or non-finite abundance functional",
                                 reason="nan_guard")
        return (np.array([np.log(p1), np.log(p2)]),
                lambda: (x1 / (xs1 * p1) - 1.0, x2 / (xs2 * p2) - 1.0), lambda: state)

    # copied once, so snapshot 0 does not alias a table IC's arrays; the
    # kernel returns fresh arrays after that
    state = ic_from_spec(cfg.ic, eq)
    return _march(setup, cfg, "direct", (state.x1.copy(), state.x2.copy()), observe,
                  _direct_update, lambda: _direct_ops(setup.kernels))


def step_transformed(ts: TransformedState, u: float, eq: Equilibrium, dt: float) -> TransformedState:
    """One step of the transformed solver (pure-function form)."""
    with np.errstate(over="ignore"):
        eta, psi1, psi2 = _step("transformed", eq, _transformed_ops, _transformed_update,
                                (ts.eta, ts.psi1.samples, ts.psi2.samples), u, dt, ts.t)
    return TransformedState(t=ts.t + dt, eta=eta, psi1=HistoryBuffer(eq.grid, psi1),
                            psi2=HistoryBuffer(eq.grid, psi2))


def _transformed_ops(eq: Equilibrium):
    """Step-invariant arrays of the transformed step: dt, zeta1, zeta2, the
    weighted interaction kernels w*g1*x2_star and w*g2*x1_star, and per
    species the renewal weights of the discounted birth kernel."""
    w = eq.grid.weights
    kernels = eq.kernels
    return (eq.grid.da, eq.zeta1, eq.zeta2,
            w * kernels.g1 * eq.x2_star, w * kernels.g2 * eq.x1_star,
            _renewal_weights(w, eq.ktilde1), _renewal_weights(w, eq.ktilde2))


def _shift_history(psi, wk, d):
    new = float(wk @ psi[:-1]) / d
    if new <= -1.0:
        raise NumericalError(
            "history admissibility lost: renewal produced a sample <= -1",
            reason="psi_admissibility",
        )
    out = np.empty_like(psi)
    out[0], out[1:] = new, psi[:-1]
    return out


def _transformed_update(state, u, ops):
    """Heun step on eta with the history integrals at both endpoints; u frozen."""
    eta, psi1, psi2 = state
    dt, zeta1, zeta2, wg1x2, wg2x1, s1, s2 = ops
    psi1_new = _shift_history(psi1, *s1)
    psi2_new = _shift_history(psi2, *s2)

    def rhs(e, p1, p2):
        j2 = float(wg1x2 @ (1.0 + p2))
        j1 = float(wg2x1 @ (1.0 + p1))
        if not (j1 > 0 and j2 > 0):
            raise NumericalError(
                "history drove an interaction integral nonpositive",
                reason="prey_collapse",
            )
        return np.array([zeta1 - u - np.exp(e[1]) * j2, zeta2 - u - np.exp(-e[0]) / j1])

    f1 = rhs(eta, psi1, psi2)
    pred = eta + dt * f1
    f2 = rhs(pred, psi1_new, psi2_new)
    eta_new = eta + 0.5 * dt * (f1 + f2)
    return eta_new, psi1_new, psi2_new


def simulate_transformed(setup: Setup, cfg: SimConfig) -> Trajectory:
    """Integrate (eta, psi) and reconstruct profiles for snapshots."""
    xs1, xs2 = setup.eq.x1_star, setup.eq.x2_star

    def observe(state):
        eta, psi1, psi2 = state
        if not np.all(np.isfinite(eta)):
            raise NumericalError("non-finite value in the control loop",
                                 reason="nan_guard")
        return eta, lambda: (psi1, psi2), lambda: (xs1 * np.exp(eta[0]) * (1.0 + psi1),
                                                   xs2 * np.exp(eta[1]) * (1.0 + psi2))

    ts0 = transformed_ic(cfg.ic, setup)
    # a diverging run overflows exp(eta) in the rhs; the loop's nan guard
    # reports it, with t, in place of a RuntimeWarning
    with np.errstate(over="ignore"):
        return _march(setup, cfg, "transformed",
                      (ts0.eta, ts0.psi1.samples, ts0.psi2.samples),
                      observe, _transformed_update, lambda: _transformed_ops(setup.eq))


def cross_validate(setup: Setup, cfg: SimConfig, n_snapshots: int = 21) -> float:
    """Max relative profile discrepancy between the two solvers.

    Runs both integrators on the same configuration and compares the density
    profiles at shared snapshot times.
    """
    cfg2 = replace(cfg, snapshot_times=tuple(np.linspace(0.0, cfg.t_final, n_snapshots)))
    td = simulate_direct(setup, cfg2)
    tt = simulate_transformed(setup, cfg2)
    if len(td.snapshots) != len(tt.snapshots):
        raise NumericalError("solvers recorded different snapshot sets",
                             reason="snapshot_mismatch")
    worst = 0.0
    for (t_d, x1d, x2d), (t_t, x1t, x2t) in zip(td.snapshots, tt.snapshots):
        if abs(t_d - t_t) > 1e-9:
            raise NumericalError("snapshot times diverged between solvers",
                                 reason="snapshot_mismatch")
        worst = max(
            worst,
            float(np.max(np.abs(x1d - x1t) / x1d)),
            float(np.max(np.abs(x2d - x2t) / x2d)),
        )
    return worst
