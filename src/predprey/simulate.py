"""Time integration of the population system, in two equivalent forms.

One loop, ``_march``, drives both solvers: it checks the batch, holds the
control value over each step, records, takes snapshots and re-raises errors
with t.  Each solver gives it a start and a kernel, built once per run, that
observes its state and steps it.  Both solvers solve their newborn nodes by
the renewal sum of ``_renew`` and take their interaction integrals from
``_loss_integrals``.

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
t: the earliest failing step, and within it the first check that fails.  The
error's ``row`` is the first batch row that fails that check.

Direct kernel
    Marches the density profiles along characteristics.  The time step is
    locked to the age step, so transport is an exact one-node shift combined
    with an exponential loss factor: the one-cell survival of the
    trapezoid-averaged mortality, precomputed per run, times the exponential
    of the dilution and interaction losses, the latter averaged over the step
    by a predictor pass.  The newborn node is solved implicitly from the
    trapezoid renewal sum, which keeps the discrete birth identity exact.  Its
    observe evaluates the Pi functionals, hence eta, once per step.  Each
    record keeps the profiles and Pi values, and psi_min and G are reduced
    once per block of records.

Transformed kernel
    Marches the log-abundances by Heun's two-stage method, evaluating the
    history-dependent interaction integrals at both step endpoints, and
    advances each shape-deviation history through the discrete renewal
    identity (the same solve, with survival 1 and no loss).  dt = da
    makes every delayed lookup land exactly on a stored sample, so the delay
    integrals involve no interpolation.  The histories read neither eta nor
    u, so this half is marched once per run, before the eta loop: one
    (B, 2, n_steps + n) array holds the histories of every step, and the
    interaction integrals, psi_min and G are reduced from it in blocks of
    steps.  The loop keeps only eta; a history failure found up front is
    raised when the loop reaches its step.

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
from numpy.lib.stride_tricks import sliding_window_view

from .controllers import BoundController, ControllerSpec
from .equilibrium import Equilibrium, compute_equilibrium
from .errors import NumericalError, first_row
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


# the two integrators, by the name a config gives them
SOLVERS = ("direct", "transformed")

# (log_offset, log_slope) of the named multiplier starts
NAMED_STARTS = {
    "FQ": ((1.0, -1.0), (2.0, -2.0)),
    "SQ": ((-1.0, 1.0), (-2.0, 2.0)),
    "equilibrium": ((0.0, 0.0), (0.0, 0.0)),
}


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
        kinds = (*NAMED_STARTS, "multiplier", "table", "eta")
        if self.kind not in kinds:
            raise ValueError(f"unknown IC kind {self.kind!r}; expected one of {kinds}")


def multiplier_profiles(eq: Equilibrium, offset, slope) -> np.ndarray:
    """The multiplier profiles x_i = x_i_star * exp(offset_i + slope_i * a),
    (..., 2, n) for offsets and slopes (..., 2).  An overflowing multiplier is
    left to the finiteness check of whoever uses the profiles."""
    offset, slope = np.asarray(offset, dtype=float), np.asarray(slope, dtype=float)
    with np.errstate(over="ignore"):
        return eq.x_star * np.exp(offset[..., None] + slope[..., None] * eq.grid.nodes)


def ic_from_spec(spec: ICSpec, eq: Equilibrium) -> PopulationState:
    """Materialize the initial population profiles."""
    if spec.kind in NAMED_STARTS or spec.kind == "multiplier":
        offset, slope = NAMED_STARTS.get(spec.kind, (spec.log_offset, spec.log_slope))
        x = multiplier_profiles(eq, offset, slope)
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


# the messages of the per-row checks of the history-dependent terms
_FAILURES = {
    "prey_collapse": "prey collapse: quad(g2*x1) is nonpositive, the predator loss "
                     "term is singular",
    "psi_admissibility": "history admissibility lost: renewal produced a sample <= -1",
}


def _failure(reason: str, bad) -> NumericalError:
    """The error of a failed per-row check, with its first failing row."""
    return NumericalError(_FAILURES[reason], reason=reason, row=first_row(bad))


def _check_finite(values):
    """The loop's nan guard on eta (B, 2) or u (B, 1)."""
    if not all(map(math.isfinite, values.ravel().tolist())):
        raise NumericalError("non-finite value in the control loop", reason="nan_guard",
                             row=first_row(~np.isfinite(values)))


def _loss_integrals(x, wg):
    """(quad(g1*x2), quad(g2*x1)), (..., 2), of profiles x (..., 2, n); wg
    (2, n) holds the trapezoid-weighted g1 and g2."""
    return row_dot(x[..., ::-1, :], wg)


def _interaction_losses(x, wg):
    """The loss rates (..., 2) of profiles x (..., 2, n): quad(g1*x2) on the
    prey and 1/quad(g2*x1) on the predator, from ``_loss_integrals``."""
    q = _loss_integrals(x, wg)
    if not all(v > 0 for v in q[..., 1].ravel().tolist()):
        raise _failure("prey_collapse", ~(q[..., 1] > 0))
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


# The recorder and the history half reduce their (B, 2, n) samples a block
# of K steps or records at a time, in (B, K, 2, n) scratch arrays of this many
# elements (256 KB), which stay in cache and are allocated once per run.
_BLOCK = 1 << 15


def _block_len(rows: int, n: int) -> int:
    return max(1, _BLOCK // (rows * 2 * n))


class _Recorder:
    """The recorded series of a batch of runs, rows on the leading axis.

    psi_min and G are reduced a block of records at a time by ``reduce``: the
    direct solver's records keep their profiles and Pi values in a block
    (``record``), and the transformed solver hands over the histories of every
    step before its loop (``reduce_steps``)."""

    def __init__(self, setup: Setup, cfgs, n_steps: int, dt: float):
        self.setup = setup
        self.cfgs = cfgs
        self.every = every = cfgs[0].record_every
        # one slot per stride plus the final step when it is off-stride
        n_rec = n_steps // every + 1
        if n_steps % every:
            n_rec += 1
        n_rows, n = len(cfgs), setup.grid.n_nodes
        self.n_rec = n_rec
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
        self.block = _block_len(n_rows, n)
        self.scratch = np.empty((n_rows, self.block, 2, n))
        self.kept_block = None  # the direct solver's (x, Pi[x]) of a block of records

    def record(self, t, eta, u, kept=None):
        """eta (B, 2), u (B, 1) and, from the direct solver, the profiles x
        (B, 2, n) and their Pi values (B, 2) as ``kept``."""
        j = self.k
        self.times[j] = t
        self.eta[:, j] = eta
        self.u[:, j] = u[:, 0]
        self.k += 1
        if kept is None:
            return
        if self.kept_block is None:
            self.kept_block = (np.empty_like(self.scratch), np.empty(self.scratch.shape[:-1]))
        xs, ps = self.kept_block
        i = j % self.block
        xs[:, i], ps[:, i] = kept
        if i + 1 == self.block or self.k == self.n_rec:
            psi = shape_deviation(xs[:, :i + 1], self.setup.eq.x_star, ps[:, :i + 1, :, None],
                                  out=self.scratch[:, :i + 1])
            self.reduce(j - i, psi, out=xs[:, :i + 1])

    def reduce(self, j0, psi, out):
        """psi_min and G of the records from j0 on, from their histories psi
        (B, K, 2, n); ``out``, of psi's shape, is scratch for ``g_kernel``."""
        j1 = j0 + psi.shape[1]
        m = psi.min(axis=-1)
        self.psi_min[:, j0:j1] = m
        self.G[:, :, j0:j1] = g_kernel(psi, self.weights, m, out=out).swapaxes(1, 2)

    def reduce_steps(self, psi):
        """psi_min and G of every record from the histories of every step,
        psi (B, n_steps + 1, 2, n)."""
        on = psi[:, ::self.every]
        for j0 in range(0, on.shape[1], self.block):
            block = on[:, j0:j0 + self.block]
            self.reduce(j0, block, self.scratch[:, :block.shape[1]])
        if self.n_rec > on.shape[1]:
            self.reduce(self.n_rec - 1, psi[:, -1:], self.scratch[:, :1])

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


def _march(setup: Setup, cfgs, solver: str, start, kernel) -> list[Trajectory]:
    """The time loop of both solvers, over a batch of runs that must share
    one schedule.  ``start(cfgs)`` builds the start state, and
    ``kernel(start, rec, n_steps)`` the loop's state and its two step
    functions, inside the error re-raise, so a grid too coarse for a birth
    kernel is reported at t = 0.  ``observe(state, step)`` returns eta
    (B, 2), a zero-argument callable giving the profiles (B, 2, n), built only
    when the control law or a snapshot needs them, and what ``rec.record``
    keeps of the state.  ``update(state, u, step)`` takes u as a (B, 1)
    column."""
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
        state, observe, update = kernel(state, rec, n_steps)
        for step in range(n_steps + 1):
            eta, profiles, kept = observe(state, step)
            for controller, rows in controllers:
                if controller.needs_profiles:
                    u[rows, 0] = controller.u_from_state(profiles()[rows])
                else:
                    u[rows, 0] = controller.u_from_eta(eta[rows])
            _check_finite(u)
            if step % cfg.record_every == 0 or step == n_steps:
                rec.record(t, eta, u, kept)
            if step in rec.snap_steps:
                rec.snapshot(t, profiles())
            if step == n_steps:
                break
            state = update(state, u, step)
            t = (step + 1) * dt
    except NumericalError as err:
        raise NumericalError(str(err), t=t, reason=err.reason, row=err.row) from None
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

    def kernel(x, rec, n_steps):
        ops = _direct_ops(setup.kernels)

        def observe(x, step):
            # the Pi functionals, once per step: they give eta, and the
            # recorder's shape deviations, and catch any non-finite profile
            p = pi_functional(x, setup.adj)
            return np.log(p), lambda: x, (x, p)

        def update(x, u, step):
            return _direct_update(x, u, ops)

        return x, observe, update

    return _march(setup, cfgs, "direct", start, kernel)


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


def _heun_eta(eta, u, q0, q1, dt, zeta):
    """Heun step on eta (..., 2) with the loss rates q0 and q1 of
    ``_interaction_losses`` at the step's two ends; u frozen, broadcasting
    against eta."""
    zu = zeta - u
    f1 = zu - np.exp(eta[..., ::-1] * _FLIP) * q0
    f2 = zu - np.exp((eta + dt * f1)[..., ::-1] * _FLIP) * q1
    return eta + 0.5 * dt * (f1 + f2)


def _march_histories(psi0, n_steps: int, wk, d):
    """The histories of every step in one array, newest node first: from
    psi0 (B, 2, n), ext (B, 2, n_steps + n) holds the histories of step s as
    ext[..., n_steps - s:n_steps - s + n].  Each newborn is the renewal sum of
    ``_renew`` over the previous step's history."""
    n = psi0.shape[-1]
    ext = np.empty(psi0.shape[:-1] + (n_steps + n,))
    ext[..., n_steps:] = psi0
    for i in range(n_steps - 1, -1, -1):
        ext[..., i] = row_dot(ext[..., i + 1:i + n], wk) / d
    return ext


def _history_integrals(psi, wg):
    """``_loss_integrals`` (S, B, 2) of the profiles 1 + psi of the histories
    psi (B, S, 2, n), a block of steps at a time: each dot runs over a
    contiguous row, as it does on one profile."""
    rows, n_steps, _, n = psi.shape
    q = np.empty((n_steps, rows, 2))
    block = _block_len(rows, n)
    buf = np.empty((rows, block, 2, n))
    for s0 in range(0, n_steps, block):
        s1 = min(s0 + block, n_steps)
        q[s0:s1] = _loss_integrals(np.add(1.0, psi[:, s0:s1], out=buf[:, :s1 - s0]),
                                   wg).swapaxes(0, 1)
    return q


def _history_half(psi0, n_steps: int, ops, rec: _Recorder):
    """March the histories psi0 (B, 2, n) over every step at once: they read
    neither eta nor u.  Fills the records' psi_min and G, and returns the
    histories of every step (B, n_steps + 1, 2, n), a view; the loss rates q
    (n_steps + 1, B, 2) at every step; and the step whose update meets the
    first failure, with its error (n_steps and None when none fails).

    The failure is the one the stepwise march meets: the update of step s
    checks the newborn of step s + 1 for admissibility, then the loss rates
    at both ends of the step for prey collapse."""
    _, _, wg, wk, d = ops
    # a diverging history may overflow or divide by zero, also past its first
    # failure; the checks below, or the loop's nan guard on eta, report it
    with np.errstate(all="ignore"):
        ext = _march_histories(psi0, n_steps, wk, d)
        psi = sliding_window_view(ext, psi0.shape[-1], axis=-1)[:, :, ::-1].transpose(0, 2, 1, 3)
        q = _history_integrals(psi, wg)
        # quad(g1*x2) needs no check: every sample of an admissible history
        # is > -1, checked at the start and on each newborn
        collapse = ~(q[..., 1] > 0)
        q[..., 1] = 1.0 / q[..., 1]
        rec.reduce_steps(psi)
    fail, err = n_steps, None
    inadmissible = ext[..., :n_steps] <= -1.0  # index i: the newborn of step n_steps - i
    bad = np.flatnonzero(inadmissible.any(axis=(0, 1)))
    if bad.size:
        fail = n_steps - 1 - bad[-1]
        err = _failure("psi_admissibility", inadmissible[..., bad[-1]])
    bad = np.flatnonzero(collapse.any(axis=1))
    if bad.size and max(bad[0] - 1, 0) < fail:
        fail = max(bad[0] - 1, 0)
        err = _failure("prey_collapse", collapse[fail:fail + 2].T)
    return psi, q, fail, err


def simulate_transformed(setup: Setup, cfg: SimConfig) -> Trajectory:
    """Integrate (eta, psi) and reconstruct profiles for snapshots: the batch
    of one run."""
    return simulate_transformed_batch(setup, [cfg])[0]


def simulate_transformed_batch(setup: Setup, cfgs) -> list[Trajectory]:
    """Integrate several runs of one Setup as one march of eta (B, 2) and the
    histories (B, 2, n), with the contract of ``simulate_direct_batch``."""
    x_star = setup.eq.x_star

    def start(cfgs):
        starts = [transformed_ic(c.ic, setup) for c in cfgs]
        return np.array([s.eta for s in starts]), np.array([s.psi for s in starts])

    def kernel(state, rec, n_steps):
        eta0, psi0 = state
        ops = _transformed_ops(setup.eq)
        dt, zeta = ops[:2]
        psi, q, fail, err = _history_half(psi0, n_steps, ops, rec)

        def observe(eta, step):
            _check_finite(eta)
            return eta, lambda: profile(x_star, eta[..., None], psi[:, step]), None

        def update(eta, u, step):
            if step == fail:
                raise err
            return _heun_eta(eta, u, q[step], q[step + 1], dt, zeta)

        return eta0, observe, update

    # a diverging run overflows exp(eta) in the kernel; the loop's nan guard
    # reports it, with t, in place of a RuntimeWarning
    with np.errstate(over="ignore"):
        return _march(setup, cfgs, "transformed", start, kernel)


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
