"""Time integration of the population system, in two equivalent forms.

Direct solver
    Marches the density profiles along characteristics.  The time step is
    locked to the age step, so transport is an exact one-node shift combined
    with an exponential loss factor: trapezoid-averaged mortality plus the
    dilution and interaction losses, the latter averaged over the step by a
    predictor pass.  The newborn node is solved implicitly from the trapezoid
    renewal sum, which keeps the discrete birth identity exact.  One kernel,
    ``_direct_update``, is this step for both ``step_direct`` and the
    ``simulate_direct`` loop.  The loop evaluates the Pi functionals, hence
    eta, once per step; the controller and the recorder share them.

Transformed solver
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

from dataclasses import dataclass, field

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
        self._snap_steps = sorted(
            {int(round(ts / dt)) for ts in cfg.snapshot_times if 0 <= ts <= n_steps * dt + 1e-9}
        )

    def want_snapshot(self, step: int) -> bool:
        return bool(self._snap_steps) and step in self._snap_steps

    def record(self, t, eta, u, psi1, psi2):
        j = self.k
        self.times[j] = t
        self.eta[j] = eta
        self.u[j] = u
        m1 = min(0.0, float(psi1.min()))
        m2 = min(0.0, float(psi2.min()))
        self.psi_min[j] = (psi1.min(), psi2.min())
        self.G1[j] = np.max(np.abs(psi1) * self.w1) / (1.0 + m1)
        self.G2[j] = np.max(np.abs(psi2) * self.w2) / (1.0 + m2)
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


def _n_steps(t_final: float, dt: float) -> int:
    n = int(round(t_final / dt))
    return max(n, 1)


def step_direct(state: PopulationState, u: float, kernels: KernelSet, dt: float) -> PopulationState:
    """One characteristic step of the direct solver (pure-function form)."""
    grid = kernels.grid
    if abs(dt - grid.da) > 1e-12 * grid.da:
        raise ValueError("the direct solver requires dt equal to the age step")
    try:
        x1, x2 = _direct_update(state.x1, state.x2, u, _direct_ops(kernels))
    except NumericalError as err:
        raise NumericalError(str(err), t=state.t, reason=err.reason) from None
    return PopulationState(t=state.t + dt, x1=x1, x2=x2)


def _direct_ops(kernels: KernelSet):
    """Step-invariant arrays of the direct step: dt, the weighted interaction
    kernels w*g1 and w*g2, and per species the cell-averaged mortality, the
    weighted birth kernel w*k on nodes 1.. and the newborn denominator
    1 - w0*k(0) of the implicit renewal solve."""
    w = kernels.grid.weights
    species = []
    for mu, k in ((kernels.mu1, kernels.k1), (kernels.mu2, kernels.k2)):
        wk = w * k
        d = 1.0 - wk[0]
        if d <= 0.0:
            raise NumericalError(
                "grid too coarse for the birth kernel: trapezoid weight times "
                f"k(0) reaches {wk[0]:.6g} >= 1",
                reason="renewal_weight",
            )
        species.append((0.5 * (mu[:-1] + mu[1:]), wk[1:], d))
    return kernels.grid.da, w * kernels.g1, w * kernels.g2, species[0], species[1]


def _transport(x, species, loss: float, dt: float) -> np.ndarray:
    """Shift x one node along the characteristics with its loss factor, then
    solve the newborn node from the trapezoid renewal sum."""
    mu_avg, wk, d = species
    out = np.empty_like(x)
    out[1:] = x[:-1] * np.exp(-(mu_avg + loss) * dt)
    out[0] = (wk @ out[1:]) / d
    return out


def _direct_update(x1, x2, u, ops):
    """Predictor pass with the losses frozen at t, then the corrected step with
    step-averaged interaction losses; u frozen."""
    dt, wg1, wg2, s1, s2 = ops
    i1, i2 = _interaction_losses(x1, x2, wg1, wg2)
    y1, y2 = _transport(x1, s1, u + i1, dt), _transport(x2, s2, u + i2, dt)
    j1, j2 = _interaction_losses(y1, y2, wg1, wg2)
    return (_transport(x1, s1, u + 0.5 * (i1 + j1), dt),
            _transport(x2, s2, u + 0.5 * (i2 + j2), dt))


def simulate_direct(setup: Setup, cfg: SimConfig) -> Trajectory:
    """Integrate the density profiles and record the transformed series."""
    grid, eq = setup.grid, setup.eq
    dt = grid.da
    n_steps = _n_steps(cfg.t_final, dt)
    controller = BoundController(cfg.controller, eq, setup.adj)
    rec = _Recorder(setup, cfg, n_steps, dt)
    ops = _direct_ops(setup.kernels)

    state = ic_from_spec(cfg.ic, eq)
    x1, x2 = state.x1.copy(), state.x2.copy()
    w = grid.weights
    wpi1, wpi2 = w * setup.adj[0].pi0, w * setup.adj[1].pi0
    den1, den2 = setup.adj[0].denom, setup.adj[1].denom
    xs1, xs2 = eq.x1_star, eq.x2_star

    t = 0.0
    for step in range(n_steps + 1):
        # Pi functionals, once per step: they give eta for the controller
        # and psi for the recorder, and catch any non-finite profile.
        p1 = float(wpi1 @ x1) / den1
        p2 = float(wpi2 @ x2) / den2
        if not (0.0 < p1 < np.inf and 0.0 < p2 < np.inf):
            raise NumericalError("nonpositive or non-finite abundance functional",
                                 t=t, reason="nan_guard")
        eta = np.array([np.log(p1), np.log(p2)])
        if controller.needs_profiles:
            u = controller.u_from_state(x1, x2)
        else:
            u = controller.u_from_eta(eta)
        if not np.isfinite(u):
            raise NumericalError("non-finite value in the control loop", t=t,
                                 reason="nan_guard")
        if step % cfg.record_every == 0 or step == n_steps:
            rec.record(t, eta, u, x1 / (xs1 * p1) - 1.0, x2 / (xs2 * p2) - 1.0)
        if rec.want_snapshot(step):
            rec.snapshots.append((t, x1.copy(), x2.copy()))
        if step == n_steps:
            break
        try:
            x1, x2 = _direct_update(x1, x2, u, ops)
        except NumericalError as err:
            raise NumericalError(str(err), t=t, reason=err.reason) from None
        t = (step + 1) * dt

    return rec.build("direct")


def step_transformed(ts: TransformedState, u: float, eq: Equilibrium, dt: float) -> TransformedState:
    """One step of the transformed solver (pure-function form)."""
    grid = eq.grid
    if abs(dt - grid.da) > 1e-12 * grid.da:
        raise ValueError("the transformed solver requires dt equal to the age step")
    kernels = eq.kernels
    w = grid.weights
    wg1x2 = w * kernels.g1 * eq.x2_star
    wg2x1 = w * kernels.g2 * eq.x1_star
    wk1, wk2 = w * eq.ktilde1, w * eq.ktilde2
    eta, psi1, psi2 = _transformed_update(
        ts.eta, ts.psi1.samples, ts.psi2.samples, u, eq, dt,
        wg1x2, wg2x1, wk1, wk2,
    )
    return TransformedState(
        t=ts.t + dt,
        eta=eta,
        psi1=HistoryBuffer(grid, psi1),
        psi2=HistoryBuffer(grid, psi2),
    )


def _shift_history(psi, wk, d):
    new = float(wk[1:] @ psi[:-1]) / d
    if new <= -1.0:
        raise NumericalError(
            "history admissibility lost: renewal produced a sample <= -1",
            reason="psi_admissibility",
        )
    out = np.empty_like(psi)
    out[0], out[1:] = new, psi[:-1]
    return out


def _transformed_update(eta, psi1, psi2, u, eq, dt, wg1x2, wg2x1, wk1, wk2):
    """Heun step on eta with the history integrals at both endpoints; u frozen."""
    d1, d2 = 1.0 - wk1[0], 1.0 - wk2[0]
    if d1 <= 0.0 or d2 <= 0.0:
        raise NumericalError(
            "grid too coarse for the discounted birth kernel (renewal solve "
            "needs w0*ktilde(0) < 1)",
            reason="renewal_weight",
        )
    psi1_new = _shift_history(psi1, wk1, d1)
    psi2_new = _shift_history(psi2, wk2, d2)

    def rhs(e, p1, p2):
        j2 = float(wg1x2 @ (1.0 + p2))
        j1 = float(wg2x1 @ (1.0 + p1))
        if not (j1 > 0 and j2 > 0):
            raise NumericalError(
                "history drove an interaction integral nonpositive",
                reason="prey_collapse",
            )
        return np.array(
            [
                eq.zeta1 - u - np.exp(e[1]) * j2,
                eq.zeta2 - u - np.exp(-e[0]) / j1,
            ]
        )

    f1 = rhs(eta, psi1, psi2)
    pred = eta + dt * f1
    f2 = rhs(pred, psi1_new, psi2_new)
    eta_new = eta + 0.5 * dt * (f1 + f2)
    return eta_new, psi1_new, psi2_new


def simulate_transformed(setup: Setup, cfg: SimConfig) -> Trajectory:
    """Integrate (eta, psi) and reconstruct profiles for snapshots."""
    grid, kernels, eq = setup.grid, setup.kernels, setup.eq
    dt = grid.da
    n_steps = _n_steps(cfg.t_final, dt)
    controller = BoundController(cfg.controller, eq, setup.adj)
    rec = _Recorder(setup, cfg, n_steps, dt)

    ts0 = transformed_ic(cfg.ic, setup)
    eta = ts0.eta.copy()
    psi1 = ts0.psi1.samples.copy()
    psi2 = ts0.psi2.samples.copy()
    w = grid.weights
    wg1x2 = w * kernels.g1 * eq.x2_star
    wg2x1 = w * kernels.g2 * eq.x1_star
    wk1, wk2 = w * eq.ktilde1, w * eq.ktilde2
    xs1, xs2 = eq.x1_star, eq.x2_star

    t = 0.0
    for step in range(n_steps + 1):
        if controller.needs_profiles:
            x1 = xs1 * np.exp(eta[0]) * (1.0 + psi1)
            x2 = xs2 * np.exp(eta[1]) * (1.0 + psi2)
            u = controller.u_from_state(x1, x2)
        else:
            u = controller.u_from_eta(eta)
        if not (np.isfinite(u) and np.all(np.isfinite(eta))):
            raise NumericalError("non-finite value in the control loop", t=t,
                                 reason="nan_guard")
        if step % cfg.record_every == 0 or step == n_steps:
            rec.record(t, eta, u, psi1, psi2)
        if rec.want_snapshot(step):
            rec.snapshots.append(
                (t, xs1 * np.exp(eta[0]) * (1.0 + psi1), xs2 * np.exp(eta[1]) * (1.0 + psi2))
            )
        if step == n_steps:
            break
        try:
            eta, psi1, psi2 = _transformed_update(
                eta, psi1, psi2, u, eq, dt, wg1x2, wg2x1, wk1, wk2
            )
        except NumericalError as err:
            raise NumericalError(str(err), t=t, reason=err.reason) from None
        t = (step + 1) * dt

    return rec.build("transformed")


def cross_validate(setup: Setup, cfg: SimConfig, n_snapshots: int = 21) -> float:
    """Max relative profile discrepancy between the two solvers.

    Runs both integrators on the same configuration and compares the density
    profiles at shared snapshot times.
    """
    snaps = tuple(np.linspace(0.0, cfg.t_final, n_snapshots))
    cfg2 = SimConfig(
        t_final=cfg.t_final,
        controller=cfg.controller,
        ic=cfg.ic,
        record_every=cfg.record_every,
        snapshot_times=snaps,
    )
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
