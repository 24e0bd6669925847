"""Time integration of the population system, in two equivalent forms.

One loop, ``_march``, drives both solvers over a batch of B runs that share
one Setup, t_final, record_every and snapshot times; each row has its own
controller and start.  Each solver gives the loop a start and a half: all
that reads neither eta nor u, marched once for the whole batch before the
loop, with the batch in front of the layout of ``model`` ((B, 2, n)
densities, shape deviations and profiles).  Both halves march their samples
with ``_march_histories``.  A profile is e^{eta} times a factor that reads
neither, so the half also reduces that factor's age integrals of every step:
the interaction integrals and the measured law's sensor factors.  The loop
then marches one row after the other: it keeps the row's eta as two floats,
evaluates the row's law on them, holds u over the step and steps eta by
``_heun_eta``, with numpy only for exp and expm1, and stores each step's eta
and u.  The records, their psi_min and G, and the snapshots are taken from the
stored arrays and the half's histories after the loop.

Every age integral of a row is one 1-D dot (``row_dot``) and all else is
elementwise, so a row of a batch reproduces its run alone bitwise;
``simulate_direct`` and ``simulate_transformed`` are batches of one.  A row
that fails stops the batch with its reason and t: the earliest failing step
over all rows, and within it the first check that fails, in the order eta
non-finite, a typed error of the law, u non-finite, the half's failure.  The
error's ``row`` is the first row that fails that check.

Direct kernel
    Marches the density profiles along characteristics.  The time step is
    locked to the age step, so transport is an exact one-node shift combined
    with an exponential loss factor: the one-cell survival of the
    trapezoid-averaged mortality times exp(-(u + loss)*dt), the interaction
    losses averaged over the step by a predictor pass.  The newborn node is
    solved implicitly from the trapezoid renewal sum, which keeps the discrete
    birth identity exact.  Transport and renewal are linear and the losses
    scale a whole species, so each profile is x = C*y, with y the march
    without harvest or interaction losses, discounted by zeta: y reads
    neither u nor eta.  Divided by the discounted cumulative survival S,
    z = y/S is a pure one-node shift with newborn weights w*k*S, marched
    into one (B, 2, n_steps + n) array as the transformed histories are.
    The Pi values P and the loss integrals Q of every step are reduced
    from it, and after the loop psi_min and G of the records.
    eta = log C + log P follows the transformed solver's Heun step with
    zeta + log(P_{s+1}/P_s)/dt and the loss rates (Q1/P2, P1/Q2), and the
    profiles are e^{eta}/P * S * z.  A prey collapse found up front is raised
    when the loop reaches its step, and an S out of the floating-point range
    at t = 0 (``survival_range``).

Transformed kernel
    Marches the log-abundances by Heun's two-stage method, evaluating the
    history-dependent interaction integrals at both step endpoints, and
    advances each shape-deviation history through the discrete renewal
    identity (the same solve, with survival 1 and no loss).  dt = da
    makes every delayed lookup land exactly on a stored sample, so the delay
    integrals involve no interpolation.  The histories read neither eta nor
    u: one (B, 2, n_steps + n) array holds those of every step, the
    interaction integrals are reduced from it in blocks of steps, and after
    the loop psi_min and G in blocks of records.  A history failure found up
    front is raised when the loop reaches its step.

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
import numbers
import operator
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .controllers import BoundController, ControllerSpec, FloatOps
from .equilibrium import Equilibrium, compute_equilibrium
from .errors import NumericalError, first_row
from .lyapunov import find_sigma, g_fn_weights, g_kernel, v0, v1, v_composite, SIGMA_SAFETY
from .model import AgeGrid, KernelSet, PopulationState, cumulative, row_dot
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

    FQ, SQ and equilibrium are rows of ``NAMED_STARTS``.  ``log_offset``,
    ``log_slope`` and ``eta0`` are each two finite numbers, whatever the kind.
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
        for name in ("log_offset", "log_slope", "eta0"):
            pair = getattr(self, name)
            try:
                ok = len(pair) == 2 and all(isinstance(v, numbers.Real) and math.isfinite(v)
                                            for v in pair)
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(f"{name} must be two finite numbers, got {pair!r}")


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


# the messages of the per-row checks of the half and of the eta loop
_FAILURES = {
    "prey_collapse": "prey collapse: quad(g2*x1) is nonpositive, the predator loss "
                     "term is singular",
    "psi_admissibility": "history admissibility lost: renewal produced a sample <= -1",
    "nan_guard": "non-finite value in the control loop",
}


def _failure(reason: str, bad=None) -> NumericalError:
    """The error of a failed per-row check, with its first failing row, if
    ``bad`` marks the failing rows."""
    return NumericalError(_FAILURES[reason], reason=reason, row=first_row(bad))


@dataclass(frozen=True)
class SimConfig:
    """One simulation run; dt is locked to the grid spacing.  Snapshot times
    are nonnegative and finite; those after t_final are skipped."""

    t_final: float
    controller: ControllerSpec = ControllerSpec()
    ic: ICSpec = ICSpec()
    record_every: int = 1
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        try:
            every = operator.index(self.record_every)
        except TypeError:
            every = 0
        if every < 1:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every!r}")
        if not all(0 <= ts < math.inf for ts in self.snapshot_times):
            raise ValueError("snapshot_times must be nonnegative and finite, got "
                             f"{self.snapshot_times}")


@dataclass
class Trajectory:
    """Recorded time series of one run, plus sparse profile snapshots."""

    times: np.ndarray
    eta: np.ndarray
    u: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    psi_min: np.ndarray
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
        if lyap_cfg is not None:
            self.V = v_composite(self.eta, self.G1, self.G2, lyap_cfg, eq)
        else:
            self.V = np.full_like(self.V0, np.nan)
        return self


# The transformed solver's loss integrals and the records' psi_min and G are
# reduced a block of K steps or records at a time, in (B, K, 2, n) scratch
# arrays of this many elements (256 KB), which stay in cache and are allocated
# once per run.
_BLOCK = 1 << 15


def _block_len(rows: int, n: int) -> int:
    return max(1, _BLOCK // (rows * 2 * n))


def _record_steps(n_steps: int, every: int) -> np.ndarray:
    """The recorded steps: every ``every``-th step, and the final one."""
    steps = np.arange(0, n_steps + 1, every)
    return steps if steps[-1] == n_steps else np.append(steps, n_steps)


def _reduce_histories(setup: Setup, histories, steps, rows: int):
    """psi_min (B, K, 2) and G (B, 2, K) at the steps ``steps`` (K,), a block
    of steps at a time: ``histories(block, out)`` gives their histories
    (B, K', 2, n), and may fill ``out``, scratch of that shape."""
    n = setup.grid.n_nodes
    weights = g_fn_weights(setup.grid, setup.sigma)
    psi_min = np.empty((rows, len(steps), 2))
    G = np.empty((rows, 2, len(steps)))
    block = _block_len(rows, n)
    scratch = np.empty((rows, block, 2, n))
    for j0 in range(0, len(steps), block):
        j1 = min(j0 + block, len(steps))
        out = scratch[:, :j1 - j0]
        psi = histories(steps[j0:j1], out)
        psi_min[:, j0:j1] = m = psi.min(axis=-1)
        G[:, :, j0:j1] = g_kernel(psi, weights, m, out=out).swapaxes(1, 2)
    return psi_min, G


def _heun_eta(eta, u, q0, q1, dt, zeta):
    """Heun step on one state's eta = (eta1, eta2), floats, with u frozen,
    zeta = (zeta1, zeta2) and the loss rates q0 and q1 at the step's two
    ends, each a pair per unit of (e^{eta2}, e^{-eta1}).  exp is numpy's, as
    in the laws (``FloatOps``)."""
    exp = FloatOps.exp
    e1, e2 = eta
    z1, z2 = zeta[0] - u, zeta[1] - u
    f1 = z1 - exp(e2) * q0[0]
    f2 = z2 - exp(-e1) * q0[1]
    g1 = z1 - exp(e2 + dt * f2) * q1[0]
    g2 = z2 - exp(-(e1 + dt * f1)) * q1[1]
    h = 0.5 * dt
    return e1 + h * (f1 + g1), e2 + h * (f2 + g2)


def _march_row(eta, controller, r, row, zeta, q, dt, last, etas, us):
    """March batch row ``row``'s eta, two floats, to step ``last``: check eta,
    evaluate the law, check u, store both and take the Heun step with u held.
    The row's zeta, q and sensor factors r (steps, B, 2; None for an eta law),
    etas and us go through memoryviews, whose items are floats.  Returns None,
    or the first failure as (step, check, error), checks numbered in order."""
    e1_out, e2_out, u_out = (memoryview(a) for a in (etas[row, :, 0], etas[row, :, 1], us[row]))
    z1, z2, q1, q2 = (memoryview(a[:, row, i]) for a in (zeta, q) for i in (0, 1))
    r1, r2 = (None, None) if r is None else (memoryview(r[:, row, i]) for i in (0, 1))
    for step in range(last + 1):
        e1, e2 = eta
        if not (math.isfinite(e1) and math.isfinite(e2)):
            return step, 0, _failure("nan_guard")
        e1_out[step], e2_out[step] = eta
        try:
            u = (controller.u_from_eta(e1, e2) if r1 is None
                 else controller.u_from_state(e1, e2, r1[step], r2[step]))
        except NumericalError as err:
            return step, 1, err
        if not math.isfinite(u):
            return step, 2, _failure("nan_guard")
        u_out[step] = u
        if step < last:
            eta = _heun_eta(eta, u, (q1[step], q2[step]), (q1[step + 1], q2[step + 1]), dt,
                            (z1[step], z2[step]))


def _march(setup: Setup, cfgs, solver: str, start, half) -> list[Trajectory]:
    """The time loop of both solvers, over a batch of runs that must share
    one schedule.  ``start(cfgs)`` builds the start state.  ``half(start,
    n_steps)`` marches, once for the whole batch and inside the error
    re-raise (so a grid too coarse for a birth kernel is reported at t = 0),
    all that reads neither eta nor u, and returns:

    - eta at t = 0, (B, 2)
    - zeta and the loss rates q of ``_heun_eta``, (B, 2) indexed by step
    - ``integrals(w)``, the integrals (n_steps + 1, B, 2) of every step's
      profiles over e^{eta} against weights w (2, n): the sensor factors r
    - ``profiles(eta, step)``, the profiles (B, 2, n) of the batch with eta
      (B, 2), called only for the snapshots
    - ``histories(steps, out)``, the histories at the steps, as
      ``_reduce_histories`` takes them
    - the step whose update meets the half's first failure, and its error
      (n_steps and None when none fails).

    Then each row marches (``_march_row``) up to the earliest failure found
    so far, which it replaces if it fails earlier, or at that step by an
    earlier check; the failure left is raised with its t and row."""
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("a batch needs at least one run")
    if len({(c.t_final, c.record_every, c.snapshot_times) for c in cfgs}) > 1:
        raise ValueError("the runs of a batch must share t_final, record_every "
                         "and snapshot_times")
    cfg = cfgs[0]
    dt = setup.grid.da
    n_steps = max(int(round(cfg.t_final / dt)), 1)
    controllers = {spec: BoundController(spec, setup.eq)
                   for spec in dict.fromkeys(c.controller for c in cfgs)}
    etas = np.empty((len(cfgs), n_steps + 1, 2))
    us = np.empty((len(cfgs), n_steps + 1))
    # a diverging run overflows exp(eta) in the Heun step; the nan guard
    # reports it, with t, in place of a RuntimeWarning
    with np.errstate(over="ignore"):
        state = start(cfgs)
        try:
            eta0, zeta, q, integrals, profiles, histories, fail, failure = half(state, n_steps)
        except NumericalError as err:
            raise NumericalError(str(err), t=0.0, reason=err.reason, row=err.row) from None
        # a failing half leaves nonsense past its failure, which no law reads
        with np.errstate(all="ignore"):
            sensed = {spec: integrals(bound.weights) for spec, bound in controllers.items()
                      if bound.sensors is not None}
        # the earliest failure (step, check, row, error); the half's checks last
        best = (fail, 3, None if failure is None else failure.row, failure)
        for b, c in enumerate(cfgs):
            found = _march_row(tuple(eta0[b].tolist()), controllers[c.controller],
                               sensed.get(c.controller), b, zeta, q, dt, best[0], etas, us)
            if found is not None and found[:2] < best[:2]:
                best = (found[0], found[1], b, found[2])
        step, _, row, err = best
        if err is not None:
            raise NumericalError(str(err), t=step * dt, reason=err.reason, row=row)
        snap_steps = sorted({int(round(ts / dt)) for ts in cfg.snapshot_times
                             if ts <= n_steps * dt + 1e-9})
        snapshots = [(s * dt, profiles(etas[:, s], s)) for s in snap_steps]
    steps = _record_steps(n_steps, cfg.record_every)
    # the halves mute the floating-point warnings of their histories, and so
    # does their reduction
    with np.errstate(all="ignore"):
        psi_min, G = _reduce_histories(setup, histories, steps, len(cfgs))
    times, etas, us = steps * dt, etas[:, steps], us[:, steps]
    return [
        Trajectory(times=times, eta=etas[b], u=us[b], G1=G[b, 0], G2=G[b, 1],
                   psi_min=psi_min[b], snapshots=[(t, x[b]) for t, x in snapshots],
                   meta={"solver": solver, "controller": c.controller.kind, "ic": c.ic.kind,
                         "n_cells": setup.grid.n_cells, "dt": dt})
        for b, c in enumerate(cfgs)
    ]


def _renewal_weights(w, k):
    """The weighted birth kernels w*k on nodes 1.. and the newborn
    denominators 1 - w0*k(0) of the renewal sum, for the kernels k (2, n)."""
    wk = w * k
    if wk[:, 0].max() >= 1.0:
        raise NumericalError(
            "grid too coarse for the birth kernel: trapezoid weight times "
            f"the kernel at age 0 reaches {wk[:, 0].max():.6g} >= 1",
            reason="renewal_weight",
        )
    return np.ascontiguousarray(wk[:, 1:]), 1.0 - wk[:, 0]


def _march_histories(z0, n_steps: int, wk, d):
    """The samples of every step of a march that carries each sample one
    node along unchanged and solves the newborn node from the trapezoid
    renewal sum row_dot(z[..., :-1], w*k) / d over the previous step.  From
    z0 (B, 2, n), one (B, 2, n_steps + n) array holds the samples of step s
    at [..., n_steps - s:n_steps - s + n]; returns its windows, the samples
    of every step (B, n_steps + 1, 2, n)."""
    n = z0.shape[-1]
    ext = np.empty(z0.shape[:-1] + (n_steps + n,))
    ext[..., n_steps:] = z0
    for i in range(n_steps - 1, -1, -1):
        ext[..., i] = row_dot(ext[..., i + 1:i + n], wk) / d
    return sliding_window_view(ext, n, axis=-1)[:, :, ::-1].transpose(0, 2, 1, 3)


def _prey_collapse(q, fail, err):
    """The earlier of the failure (fail, err) and the first prey collapse in
    the loss integrals q (n_steps + 1, B, 2) of every step: the update of
    step s reads them at both its ends, and quad(g2*x1) must be positive."""
    collapse = ~(q[..., 1] > 0)
    bad = np.flatnonzero(collapse.any(axis=1))
    if bad.size and max(bad[0] - 1, 0) < fail:
        fail = max(bad[0] - 1, 0)
        err = _failure("prey_collapse", collapse[fail:fail + 2].T)
    return fail, err


def _direct_ops(setup: Setup):
    """Step-invariant arrays of the direct march: dt; the discounted
    survival S (2, n), exp(-zeta*a) times the product of the one-cell
    survivals of the cell-averaged mortality from age 0; and the weights of
    the scaled profiles z = y/S, with y the profiles marched without harvest
    or interaction losses and discounted by zeta: w*pi0*S of Pi, w*g[::-1]*S
    of the loss integrals and the renewal weights of w*k*S."""
    grid, kernels = setup.grid, setup.kernels
    s = np.exp(-(setup.eq.zeta[:, None] * grid.nodes + cumulative(kernels.mu, grid)))
    if not np.all((0.0 < s) & (s < np.inf)):
        raise NumericalError(
            "the discounted survival exp(-zeta*a - int mu) of the direct march leaves "
            f"the floating-point range: min {s.min():.6g}, max {s.max():.6g}",
            reason="survival_range",
        )
    w = grid.weights
    return (grid.da, s, setup.adj.wpi0 * s, w * kernels.g[::-1] * s,
            *_renewal_weights(w, kernels.k * s))


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
        return np.array([ic_from_spec(c.ic, eq).x for c in cfgs])

    def half(x0, n_steps):
        dt, s, wpi, wg, wk, d = _direct_ops(setup)
        # the start's Pi and histories, as to_transformed takes them
        p0 = pi_functional(x0, setup.adj)
        # a collapsing or diverging march divides by zero or overflows; the
        # collapse check or the loop's nan guard on eta reports it
        with np.errstate(all="ignore"):
            z = _march_histories(x0 / s, n_steps, wk, d)
            p = row_dot(z, wpi) / setup.adj.denom
            p[:, 0] = p0
            p, lq = (np.ascontiguousarray(a.swapaxes(0, 1)) for a in (p, row_dot(z, wg)[..., ::-1]))
            fail, err = _prey_collapse(lq, n_steps, None)
            # x = C*S*z with eta = log C + log P: the loss rates per unit of
            # (e^{eta2}, e^{-eta1}) are (Q1/P2, P1/Q2), and zeta gains the
            # growth of P
            q = np.stack((lq[..., 0] / p[..., 1], p[..., 0] / lq[..., 1]), axis=-1)
            zeta = eq.zeta + np.log(p[1:] / p[:-1]) / dt
            eta0 = np.log(p[0])

        def integrals(w):
            return row_dot(z, w * s).swapaxes(0, 1) / p

        def profiles(eta, step):
            return s * z[:, step] * (np.exp(eta) / p[step])[..., None]

        def histories(steps, out):
            # the shape deviations of the profiles, but at t = 0 the start's own
            psi = shape_deviation(z[:, steps], eq.x_star / s, p[steps].swapaxes(0, 1)[..., None],
                                  out=out)
            if steps[0] == 0:
                psi[:, 0] = shape_deviation(x0, eq.x_star, p0[..., None])
            return psi

        return eta0, zeta, q, integrals, profiles, histories, fail, err

    return _march(setup, cfgs, "direct", start, half)


def _transformed_ops(eq: Equilibrium):
    """Step-invariant arrays of the transformed histories: the weighted
    interaction kernels w*g*x_star[::-1], each species' kernel against the
    other's steady profile, and the renewal weights of the discounted birth
    kernels."""
    w = eq.grid.weights
    return w * eq.kernels.g * eq.x_star[::-1], *_renewal_weights(w, eq.ktilde)


def _history_integrals(psi, w):
    """The integrals row_dot(1 + psi, w) (S, B, 2) of the histories psi
    (B, S, 2, n) against the age weights w (2, n), a block of steps at a
    time: each dot runs over a contiguous row, as it does on one profile."""
    rows, n_steps, _, n = psi.shape
    q = np.empty((n_steps, rows, 2))
    block = _block_len(rows, n)
    buf = np.empty((rows, block, 2, n))
    for s0 in range(0, n_steps, block):
        s1 = min(s0 + block, n_steps)
        q[s0:s1] = row_dot(np.add(1.0, psi[:, s0:s1], out=buf[:, :s1 - s0]),
                           w).swapaxes(0, 1)
    return q


def _history_half(psi0, n_steps: int, ops):
    """March the histories psi0 (B, 2, n) over every step at once: they read
    neither eta nor u.  Returns the histories of every step
    (B, n_steps + 1, 2, n), a view; the loss rates q (n_steps + 1, B, 2) at
    every step; and the step whose update meets the first failure, with its
    error (n_steps and None when none fails).

    The failure is the one the stepwise march meets: the update of step s
    checks the newborn of step s + 1 for admissibility, then the loss rates
    at both ends of the step for prey collapse."""
    wg, wk, d = ops
    # a diverging history may overflow or divide by zero, also past its first
    # failure; the checks below, or the loop's nan guard on eta, report it
    with np.errstate(all="ignore"):
        psi = _march_histories(psi0, n_steps, wk, d)
        q = _history_integrals(psi, wg[::-1])[..., ::-1]  # (quad(g1*x2), quad(g2*x1))
        # quad(g1*x2) needs no check: every sample of an admissible history
        # is > -1, checked at the start and on each newborn
        fail, err = n_steps, None
        inadmissible = psi[:, 1:, :, 0] <= -1.0  # index s: the newborn of step s + 1
        bad = np.flatnonzero(inadmissible.any(axis=(0, 2)))
        if bad.size:
            fail, err = bad[0], _failure("psi_admissibility", inadmissible[:, bad[0]])
        fail, err = _prey_collapse(q, fail, err)
        q[..., 1] = 1.0 / q[..., 1]
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

    def half(state, n_steps):
        eta0, psi0 = state
        psi, q, fail, err = _history_half(psi0, n_steps, _transformed_ops(setup.eq))

        def integrals(w):
            return _history_integrals(psi, w * x_star)

        def profiles(eta, step):
            return profile(x_star, eta[..., None], psi[:, step])

        def histories(steps, out):
            return psi[:, steps]

        zeta = np.broadcast_to(setup.eq.zeta, (n_steps, *eta0.shape))
        return eta0, zeta, q, integrals, profiles, histories, fail, err

    return _march(setup, cfgs, "transformed", start, half)


def cross_validate(setup: Setup, cfg: SimConfig, n_snapshots: int = 21) -> float:
    """Max relative profile discrepancy between the two solvers.

    Runs both integrators on the same configuration and compares the density
    profiles at shared snapshot times.
    """
    cfg2 = replace(cfg, snapshot_times=tuple(np.linspace(0.0, cfg.t_final, n_snapshots)))
    td = simulate_direct(setup, cfg2)
    tt = simulate_transformed(setup, cfg2)
    return max(float(np.max(np.abs(xd - xt) / xd))
               for (_, xd), (_, xt) in zip(td.snapshots, tt.snapshots, strict=True))
