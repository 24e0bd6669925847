"""Time integration of the population system, in two equivalent forms.

One loop, ``_march``, drives both solvers: it checks the batch, holds the
control value over each step, records, takes snapshots and re-raises errors
with t.  Each solver gives it a start, an ``observe`` and a step kernel
``update(state, u, ops)`` whose step-invariant ``ops`` are built once per run.
Both kernels renew their age profiles with ``_renew`` and take their
interaction integrals from ``_interaction_losses``.

Both solvers march a batch of B runs on a leading axis: eta is (B, 2), u a
(B, 1) column, and the densities, shape deviations and profiles are
(B, 2, n), the layout of ``model`` with the batch in front.  The rows of a
batch share one Setup, t_final, record_every and snapshot times; each has its
own controller and start, and each group of rows with one controller
evaluates its law once per step.  ``simulate_direct`` and
``simulate_transformed`` are the batches of one of ``simulate_direct_batch``
and ``simulate_transformed_batch``.  Every age integral of a row is one 1-D
dot (``row_dot``) and all else is elementwise, so a row of a batch reproduces
its run alone bitwise.  A row that fails stops the batch with its reason and
t: the earliest failing step, and within it the first check that fails.
Which row failed is not reported.

Direct kernel
    Marches the density profiles along characteristics.  The time step is
    locked to the age step, so transport is an exact one-node shift combined
    with an exponential loss factor: the one-cell survival of the
    trapezoid-averaged mortality, precomputed per run, times the exponential
    of the dilution and interaction losses, the latter averaged over the step
    by a predictor pass.  The newborn node is solved implicitly from the
    trapezoid renewal sum, which keeps the discrete birth identity exact.  Its
    observe evaluates the Pi functionals, hence eta, once per step.

Transformed kernel
    Marches the log-abundances by Heun's two-stage method, evaluating the
    history-dependent interaction integrals at both step endpoints, and
    advances each shape-deviation history through the discrete renewal
    identity (the same solve, with survival 1 and no loss).  dt = da
    makes every delayed lookup land exactly on a stored sample, so the delay
    integrals involve no interpolation.

The accuracy model is second order in transport, in the eta update and in the
interaction coupling; the control value is evaluated once per step and held,
so closed loops are first order in the feedback coupling.  Second order in
transport needs a start that meets the renewal condition x(0) = quad(k*x): a
start that breaks it (FQ, SQ) puts a jump on the characteristic a = t, whose
O(da) error persists, so such runs converge at first order.  Runs are
deterministic: a fixed configuration reproduces bitwise-identical output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .controllers import BoundController, ControllerSpec
from .equilibrium import Equilibrium, compute_equilibrium
from .errors import NumericalError
from .lyapunov import find_sigma, g_fn_weights, g_kernel, v0, v1, v_composite, SIGMA_SAFETY
from .model import AgeGrid, KernelSet, PopulationState, row_dot
from .transform import (
    AdjointData,
    TransformedState,
    compute_pi0,
    pi_functional,
    profile,
    shape_deviation,
    to_transformed,
)


@dataclass(frozen=True)
class Setup:
    """Everything derived from (kernels, u_star) that simulations share."""

    grid: AgeGrid
    kernels: KernelSet
    eq: Equilibrium
    adj: AdjointData
    sigma: tuple[float, float]
    kappa: tuple[float, float]


def build_setup(kernels: KernelSet, u_star: float) -> Setup:
    eq = compute_equilibrium(kernels, u_star)
    (kap1, sig1), (kap2, sig2) = (find_sigma(kt, kernels.grid) for kt in eq.ktilde)
    return Setup(
        grid=kernels.grid,
        kernels=kernels,
        eq=eq,
        adj=compute_pi0(eq),
        sigma=(SIGMA_SAFETY * sig1, SIGMA_SAFETY * sig2),
        kappa=(kap1, kap2),
    )


@dataclass(frozen=True)
class ICSpec:
    """Initial profiles: named multiplier families, custom ones, or tables.

    kinds:
      ``multiplier``   x_i = x_i_star * exp(offset_i + slope_i * a)
      ``FQ``           offsets (1, -1), slopes (2, -2)  (prey surplus)
      ``SQ``           the species swap of FQ           (predator surplus)
      ``equilibrium``  offsets and slopes 0: the steady state
      ``table``        explicit positive profiles x (2, n)
      ``eta``          transformed start (eta0, flat histories)

    FQ, SQ and equilibrium are rows of ``NAMED_STARTS``.
    """

    kind: str = "FQ"
    log_offset: tuple[float, float] = (0.0, 0.0)
    log_slope: tuple[float, float] = (0.0, 0.0)
    x: np.ndarray | None = None
    eta0: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        kinds = ("FQ", "SQ", "equilibrium", "multiplier", "table", "eta")
        if self.kind not in kinds:
            raise ValueError(f"unknown IC kind {self.kind!r}; expected one of {kinds}")


# (log_offset, log_slope) of the named multiplier starts
NAMED_STARTS = {
    "FQ": ((1.0, -1.0), (2.0, -2.0)),
    "SQ": ((-1.0, 1.0), (-2.0, 2.0)),
    "equilibrium": ((0.0, 0.0), (0.0, 0.0)),
}


def ic_from_spec(spec: ICSpec, eq: Equilibrium) -> PopulationState:
    """Materialize the initial population profiles."""
    if spec.kind in NAMED_STARTS or spec.kind == "multiplier":
        offset, slope = NAMED_STARTS.get(spec.kind, (spec.log_offset, spec.log_slope))
        # an overflowing multiplier is reported by the finiteness check
        with np.errstate(over="ignore"):
            x = eq.x_star * np.exp(np.reshape(offset, (2, 1))
                                   + np.multiply.outer(slope, eq.grid.nodes))
    elif spec.kind == "table":
        if spec.x is None:
            raise ValueError("table IC needs explicit profiles x")
        x = spec.x
    else:
        raise ValueError("eta ICs only make sense for the transformed solver")
    return PopulationState(t=0.0, x=x).validate(eq.grid)


def transformed_ic(spec: ICSpec, setup: Setup) -> TransformedState:
    if spec.kind == "eta":
        return TransformedState(t=0.0, eta=np.array(spec.eta0, dtype=float),
                                psi=np.zeros((2, setup.grid.n_nodes)))
    return to_transformed(ic_from_spec(spec, setup.eq), setup.eq, setup.adj)


def _interaction_losses(x, wg):
    """The loss rates (..., 2) of profiles x (..., 2, n): quad(g1*x2) on the
    prey and 1/quad(g2*x1) on the predator; wg (2, n) holds the
    trapezoid-weighted g1 and g2."""
    q = row_dot(x[..., ::-1, :], wg)
    if not all(v > 0 for v in q[..., 1].ravel().tolist()):
        raise NumericalError(
            "prey collapse: quad(g2*x1) is nonpositive, the predator loss "
            "term is singular",
            reason="prey_collapse",
        )
    q[..., 1] = 1.0 / q[..., 1]
    return q


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
        self.V0 = np.asarray(v0(self.eta, eq), dtype=float)
        eps = lyap_cfg.eps if lyap_cfg is not None else 0.0
        self.V1 = np.asarray(v1(self.eta, eps, eq), dtype=float)
        if lyap_cfg is not None and self.G1 is not None:
            self.V = v_composite(self.eta, self.G1, self.G2, lyap_cfg, eq)
        else:
            self.V = np.full_like(self.V0, np.nan)
        return self


class _Recorder:
    """The recorded series of a batch of runs, rows on the leading axis."""

    def __init__(self, setup: Setup, cfgs, n_steps: int, dt: float):
        self.setup = setup
        self.cfgs = cfgs
        every = cfgs[0].record_every
        # one slot per stride plus the final step when it is off-stride
        n_rec = n_steps // every + 1
        if n_steps % every:
            n_rec += 1
        n_rows = len(cfgs)
        self.times = np.empty(n_rec)
        self.eta = np.empty((n_rows, n_rec, 2))
        self.u = np.empty((n_rows, n_rec))
        self.G = np.empty((n_rows, 2, n_rec))
        self.psi_min = np.empty((n_rows, n_rec, 2))
        self.snapshots = [[] for _ in cfgs]
        self.k = 0
        self.weights = g_fn_weights(setup.grid, setup.sigma)
        self.snap_steps = {
            int(round(ts / dt)) for ts in cfgs[0].snapshot_times if 0 <= ts <= n_steps * dt + 1e-9
        }

    def record(self, t, eta, u, psi):
        """eta (B, 2), u (B, 1) and the shape deviations psi (B, 2, n)."""
        j = self.k
        self.times[j] = t
        self.eta[:, j] = eta
        self.u[:, j] = u[:, 0]
        m = psi.min(axis=-1)
        self.psi_min[:, j] = m
        self.G[:, :, j] = g_kernel(psi, self.weights, m)
        self.k += 1

    def snapshot(self, t, profiles):
        for snaps, x in zip(self.snapshots, profiles):
            snaps.append((t, x))

    def build(self, solver: str) -> list[Trajectory]:
        n = self.k
        return [
            Trajectory(
                times=self.times[:n],
                eta=self.eta[b, :n],
                u=self.u[b, :n],
                G1=self.G[b, 0, :n],
                G2=self.G[b, 1, :n],
                psi_min=self.psi_min[b, :n],
                snapshots=self.snapshots[b],
                meta={
                    "solver": solver,
                    "controller": cfg.controller.kind,
                    "ic": cfg.ic.kind,
                    "n_cells": self.setup.grid.n_cells,
                    "dt": self.setup.grid.da,
                },
            )
            for b, cfg in enumerate(self.cfgs)
        ]


def _controller_groups(cfgs, eq: Equilibrium):
    """One ``BoundController`` per distinct controller of the batch, with the
    rows it drives as an index into the batch axis.  A lone row is indexed by
    its integer, the single-run fast path: a law costs about half as much on
    one state as on a (1, 2) slice."""
    rows: dict[ControllerSpec, list[int]] = {}
    for b, cfg in enumerate(cfgs):
        rows.setdefault(cfg.controller, []).append(b)
    groups = []
    for spec, idx in rows.items():
        if len(idx) == 1:
            index = idx[0]
        elif len(idx) == len(cfgs):
            index = slice(None)
        else:
            index = np.array(idx)
        groups.append((BoundController(spec, eq), index))
    return groups


def _march(setup: Setup, cfgs, solver: str, start, observe, update, make_ops) -> list[Trajectory]:
    """The time loop of both solvers, over a batch of runs that must share
    one schedule.  ``start(cfgs)`` builds the start state.  ``observe(state)``
    returns eta (B, 2) and two zero-argument callables giving the shape
    deviations and the profiles, each (B, 2, n), so each is built only when a
    record, the control law or a snapshot needs it.  ``update(state, u, ops)``
    takes u as a (B, 1) column.  ``make_ops()`` builds the kernel's
    step-invariant arrays inside the error re-raise, so a grid too coarse for
    a birth kernel is reported at t = 0."""
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("a batch needs at least one run")
    if len({(c.t_final, c.record_every, c.snapshot_times) for c in cfgs}) > 1:
        raise ValueError("the runs of a batch must share t_final, record_every "
                         "and snapshot_times")
    cfg = cfgs[0]
    dt = setup.grid.da
    n_steps = max(int(round(cfg.t_final / dt)), 1)
    controllers = _controller_groups(cfgs, setup.eq)
    rec = _Recorder(setup, cfgs, n_steps, dt)
    state = start(cfgs)
    u = np.empty((len(cfgs), 1))
    t = 0.0
    try:
        ops = make_ops()
        for step in range(n_steps + 1):
            eta, psi, profiles = observe(state)
            for controller, rows in controllers:
                if controller.needs_profiles:
                    u[rows, 0] = controller.u_from_state(profiles()[rows])
                else:
                    u[rows, 0] = controller.u_from_eta(eta[rows])
            if not all(map(math.isfinite, u.ravel().tolist())):
                raise NumericalError("non-finite value in the control loop",
                                     reason="nan_guard")
            if step % cfg.record_every == 0 or step == n_steps:
                rec.record(t, eta, u, psi())
            if step in rec.snap_steps:
                rec.snapshot(t, profiles())
            if step == n_steps:
                break
            state = update(state, u, ops)
            t = (step + 1) * dt
    except NumericalError as err:
        raise NumericalError(str(err), t=t, reason=err.reason) from None
    return rec.build(solver)


def _renewal_weights(w, k):
    """The weighted birth kernels w*k on nodes 1.. and the newborn
    denominators 1 - w0*k(0) of ``_renew``, for the kernels k (2, n)."""
    wk = w * k
    if wk[:, 0].max() >= 1.0:
        raise NumericalError(
            "grid too coarse for the birth kernel: trapezoid weight times "
            f"the kernel at age 0 reaches {wk[:, 0].max():.6g} >= 1",
            reason="renewal_weight",
        )
    return np.ascontiguousarray(wk[:, 1:]), 1.0 - wk[:, 0]


def _renew(moved, wk, d):
    """The profile one step on, age last: ``moved`` (..., n - 1), nodes
    0..n-2 carried one node along the characteristics, fills nodes 1.., and
    the newborn node solves the trapezoid renewal sum: row_dot(moved, w*k) / d."""
    out = np.empty(moved.shape[:-1] + (moved.shape[-1] + 1,))
    out[..., 1:] = moved
    out[..., 0] = row_dot(moved, wk) / d
    return out


def _direct_ops(kernels: KernelSet):
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


def simulate_direct(setup: Setup, cfg: SimConfig) -> Trajectory:
    """Integrate the density profiles and record the transformed series: the
    batch of one run."""
    return simulate_direct_batch(setup, [cfg])[0]


def simulate_direct_batch(setup: Setup, cfgs) -> list[Trajectory]:
    """Integrate several runs of one Setup as one (B, 2, n) march.

    The rows share ``t_final``, ``record_every`` and ``snapshot_times``; each
    has its own controller and start.  Returns one Trajectory per row, in the
    order of ``cfgs``; each agrees bitwise with the row's run alone.  A
    failing row stops the batch with its reason and t.
    """
    eq = setup.eq

    def start(cfgs):
        # a fresh array, so snapshot 0 does not alias a table IC's array; the
        # kernel returns fresh arrays after that
        return np.array([ic_from_spec(c.ic, eq).x for c in cfgs])

    def observe(x):
        # the Pi functionals, once per step: they give eta and psi, and catch
        # any non-finite profile
        p = pi_functional(x, setup.adj)
        return np.log(p), lambda: shape_deviation(x, eq.x_star, p[..., None]), lambda: x

    return _march(setup, cfgs, "direct", start, observe, _direct_update,
                  lambda: _direct_ops(setup.kernels))


def _transformed_ops(eq: Equilibrium):
    """Step-invariant arrays of the transformed step: dt, zeta, the weighted
    interaction kernels w*g*x_star[::-1], each species' kernel against the
    other's steady profile, and the renewal weights of the discounted birth
    kernels."""
    w = eq.grid.weights
    return (eq.grid.da, eq.zeta, w * eq.kernels.g * eq.x_star[::-1],
            *_renewal_weights(w, eq.ktilde))


# exp(eta[..., ::-1] * _FLIP) = (e^{eta2}, e^{-eta1})
_FLIP = np.array([1.0, -1.0])


def _transformed_update(state, u, ops):
    """Heun step on eta with the history integrals at both endpoints; u frozen.
    eta is (..., 2), the histories (..., 2, n), and u broadcasts against eta."""
    eta, psi = state
    dt, zeta, wg, wk, d = ops
    psi_new = _renew(psi[..., :-1], wk, d)
    if any(v <= -1.0 for v in psi_new[..., 0].ravel().tolist()):
        raise NumericalError(
            "history admissibility lost: renewal produced a sample <= -1",
            reason="psi_admissibility",
        )
    # (j2, 1/j1) at both endpoints in one call, as they do not depend on eta;
    # j2, the predator row's integral of g1 * x_star * (1 + psi), needs no
    # check: every sample is > -1, checked at the start and on each new node
    q = _interaction_losses(1.0 + np.array((psi, psi_new)), wg)
    zu = zeta - u
    f1 = zu - np.exp(eta[..., ::-1] * _FLIP) * q[0]
    f2 = zu - np.exp((eta + dt * f1)[..., ::-1] * _FLIP) * q[1]
    return eta + 0.5 * dt * (f1 + f2), psi_new


def simulate_transformed(setup: Setup, cfg: SimConfig) -> Trajectory:
    """Integrate (eta, psi) and reconstruct profiles for snapshots: the batch
    of one run."""
    return simulate_transformed_batch(setup, [cfg])[0]


def simulate_transformed_batch(setup: Setup, cfgs) -> list[Trajectory]:
    """Integrate several runs of one Setup as one march of eta (B, 2) and the
    histories (B, 2, n), with the contract of ``simulate_direct_batch``."""
    def start(cfgs):
        starts = [transformed_ic(c.ic, setup) for c in cfgs]
        return np.array([s.eta for s in starts]), np.array([s.psi for s in starts])

    def observe(state):
        eta, psi = state
        if not all(map(math.isfinite, eta.ravel().tolist())):
            raise NumericalError("non-finite value in the control loop",
                                 reason="nan_guard")
        return eta, lambda: psi, lambda: profile(setup.eq.x_star, eta[..., None], psi)

    # a diverging run overflows exp(eta) in the kernel; the loop's nan guard
    # reports it, with t, in place of a RuntimeWarning
    with np.errstate(over="ignore"):
        return _march(setup, cfgs, "transformed", start, observe, _transformed_update,
                      lambda: _transformed_ops(setup.eq))


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
    for (t_d, xd), (t_t, xt) in zip(td.snapshots, tt.snapshots):
        if abs(t_d - t_t) > 1e-9:
            raise NumericalError("snapshot times diverged between solvers",
                                 reason="snapshot_mismatch")
        worst = max(worst, float(np.max(np.abs(xd - xt) / xd)))
    return worst
