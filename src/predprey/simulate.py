"""Time integration of the population system, in two equivalent forms.

One loop, ``_march``, drives both solvers over one run.  Each solver gives
the loop a start and a half: all that reads neither eta nor u, marched before
the loop on the layout of ``model``, with the steps in front ((steps, 2, n)
profiles and shape deviations).  Both halves march their samples with
``_march_histories``, a block of steps per matrix product.  A profile is
e^{eta} times a factor that reads neither, so the half also takes that
factor's age integrals of every step, one ``row_dot`` on the view of every
step's samples: the interaction integrals and the measured law's sensor
factors.  The loop then keeps eta as two floats, evaluates the law on them
(on ``FloatOps``, the stdlib's float primitives), holds u over the step,
takes Heun's step in the loop body on ``math.exp`` and stores each step's
eta and u.  The records and the snapshots are taken from the stored arrays
and the half's histories after the loop.  The records' psi_min and G are
reduced from the histories on their first read.

A run that fails raises its reason and t: the earliest failing step, and
within it the first check that fails, in the order eta non-finite, a typed
error of the law, u non-finite, the half's failure.

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
    into one (2, n_steps + n) array as the transformed histories are.
    The Pi values P and the loss integrals Q of every step are reduced
    from it, and on first read psi_min and G of the records.
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
    u: one (2, n_steps + n) array holds those of every step.  The
    interaction integrals of the profiles x_star*(1 + psi) are summed on its
    view as row_dot(psi, w) + sum(w), and on first read psi_min and G are
    reduced in blocks of records.  A history failure found up front is
    raised when the loop reaches its step.

What the solvers' agreement measures
    The two share ``_march_histories``, the eta loop and the held u, so
    ``cross_validate`` sees only the two places where they differ:

    - the mortality quadrature: the direct survival S takes the trapezoid
      ``cumulative(mu)``, the transformed ktilde the exact ``cum_mu``.  Their
      renewal weights differ by max|cumulative(mu) - cum_mu|, 7.2e-6 at
      n 100 and 1.1e-7 at n 800; with S from ``cum_mu`` the open-loop FQ
      profiles agree to 1.6e-14 at n 200.
    - the eta offset: the direct eta is ln Pi of the discrete profile.  From
      a start that breaks the renewal condition (FQ, SQ), the direct Pi jumps
      once, at step 1, when the newborn node is solved, so the direct eta
      stays offset from the transformed one by ln(P_1/P_0) of the loss-free
      march, O(da) per species.  The profiles still agree: the transformed
      psi carries the jump.

The accuracy model is second order in transport, in the eta update and in the
interaction coupling; the control value is evaluated once per step and held,
so closed loops are first order in the feedback coupling.  Second order in
transport needs a start that meets the renewal condition x(0) = quad(k*x): a
start that breaks it (FQ, SQ) puts a jump on the characteristic a = t, whose
O(da) error persists, so such runs converge at first order.  Runs are
deterministic: a fixed configuration reproduces bitwise-identical output.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .controllers import BoundController, ControllerSpec
from .equilibrium import Equilibrium, compute_equilibrium
from .errors import NumericalError
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


# the messages of the checks of the half and of the eta loop
_FAILURES = {
    "prey_collapse": "prey collapse: quad(g2*x1) is nonpositive, the predator loss "
                     "term is singular",
    "psi_admissibility": "history admissibility lost: renewal produced a sample <= -1",
    "nan_guard": "non-finite value in the control loop",
}


def _failure(reason: str) -> NumericalError:
    """The error of a failed check of the half or of the eta loop."""
    return NumericalError(_FAILURES[reason], reason=reason)


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
    """Recorded time series of one run, plus sparse profile snapshots.

    ``G1``, ``G2`` and ``psi_min`` are read-only: the rows of G (2, R) and
    psi_min (R, 2), which ``reduced()`` reduces on the first read."""

    times: np.ndarray
    eta: np.ndarray
    u: np.ndarray
    reduced: Callable[[], tuple[np.ndarray, np.ndarray]] = field(repr=False, compare=False)
    V0: np.ndarray | None = None
    V1: np.ndarray | None = None
    V: np.ndarray | None = None
    snapshots: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    G1 = property(lambda self: self.reduced()[1][0])
    G2 = property(lambda self: self.reduced()[1][1])
    psi_min = property(lambda self: self.reduced()[0])

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


# The records' psi_min and G are reduced a block of K records at a time, in a
# (K, 2, n) scratch array of this many elements (256 KB), which stays in cache
# and is allocated once per run.
_BLOCK = 1 << 15


def _block_len(n: int) -> int:
    return max(1, _BLOCK // (2 * n))


def _record_steps(n_steps: int, every: int) -> np.ndarray:
    """The recorded steps: every ``every``-th step, and the final one."""
    steps = np.arange(0, n_steps + 1, every)
    return steps if steps[-1] == n_steps else np.append(steps, n_steps)


def _reduce_histories(setup: Setup, histories, steps):
    """psi_min (K, 2) and G (2, K) at the steps ``steps`` (K,), a block of
    steps at a time: ``histories(block, out)`` gives their histories
    (K', 2, n), and may fill ``out``, scratch of that shape."""
    n = setup.grid.n_nodes
    weights = g_fn_weights(setup.grid, setup.sigma)
    psi_min = np.empty((len(steps), 2))
    G = np.empty((2, len(steps)))
    block = _block_len(n)
    scratch = np.empty((block, 2, n))
    for j0 in range(0, len(steps), block):
        j1 = min(j0 + block, len(steps))
        out = scratch[:j1 - j0]
        psi = histories(steps[j0:j1], out)
        psi_min[j0:j1] = m = psi.min(axis=-1)
        G[:, j0:j1] = g_kernel(psi, weights, m, out=out).T
    return psi_min, G


def _march_eta(eta, controller, r, zeta, q, dt, last, etas, us):
    """March eta, two floats, to step ``last``: check eta, evaluate the law,
    check u, store both and take Heun's step with u held, zeta = (zeta1,
    zeta2) and the loss rates q at the step's two ends, each a pair per unit
    of (e^{eta2}, e^{-eta1}).  zeta, q and the sensor factors r (steps, 2;
    None for an eta law), etas and us go through memoryviews, whose items are
    floats.  Where ``math.exp`` overflows the step sets eta to nan, which the
    next step's check reports.  Returns None, or the first failure as (step,
    error)."""
    e1_out, e2_out, u_out = (memoryview(a) for a in (etas[:, 0], etas[:, 1], us))
    zeta1, zeta2, q1, q2 = (memoryview(a[:, i]) for a in (zeta, q) for i in (0, 1))
    r1, r2 = (None, None) if r is None else (memoryview(r[:, i]) for i in (0, 1))
    exp, h = math.exp, 0.5 * dt
    e1, e2 = eta
    for step in range(last + 1):
        if not (math.isfinite(e1) and math.isfinite(e2)):
            return step, _failure("nan_guard")
        e1_out[step], e2_out[step] = e1, e2
        try:
            u = (controller.u_from_eta(e1, e2) if r1 is None
                 else controller.u_from_state(e1, e2, r1[step], r2[step]))
        except NumericalError as err:
            return step, err
        if not math.isfinite(u):
            return step, _failure("nan_guard")
        u_out[step] = u
        if step < last:
            z1, z2 = zeta1[step] - u, zeta2[step] - u
            try:
                f1 = z1 - exp(e2) * q1[step]
                f2 = z2 - exp(-e1) * q2[step]
                g1 = z1 - exp(e2 + dt * f2) * q1[step + 1]
                g2 = z2 - exp(-(e1 + dt * f1)) * q2[step + 1]
            except OverflowError:
                e1 = e2 = math.nan
            else:
                e1, e2 = e1 + h * (f1 + g1), e2 + h * (f2 + g2)


def _march(setup: Setup, cfg: SimConfig, solver: str, half) -> Trajectory:
    """The time loop of both solvers over one run.  ``half(n_steps)``
    marches from the run's start, inside the error re-raise (so a grid too
    coarse for a birth kernel is reported at t = 0), all that reads neither
    eta nor u, and returns:

    - eta at t = 0, (2,)
    - zeta and the loss rates q of the Heun step, (2,) indexed by step
    - ``integrals(w)``, the integrals (n_steps + 1, 2) of every step's
      profiles over e^{eta} against weights w (2, n): the sensor factors r
    - ``profiles(eta, step)``, the profiles (2, n) with eta (2,), called only
      for the snapshots
    - ``histories(steps, out)``, the histories at the steps, as
      ``_reduce_histories`` takes them, at the records on the first read
      of G or psi_min
    - the step whose update meets the half's first failure, and its error
      (n_steps and None when none fails).

    Then eta marches (``_march_eta``) up to that step; its own first
    failure, or else the half's, is raised with its t."""
    dt = setup.grid.da
    n_steps = max(int(round(cfg.t_final / dt)), 1)
    controller = BoundController(cfg.controller, setup.eq)
    etas = np.empty((n_steps + 1, 2))
    us = np.empty(n_steps + 1)
    # a diverging run overflows or divides by zero in the half or the Heun
    # step, and a failing half leaves nonsense past its failure, which no law
    # reads; the half's checks and the loop's nan guard report the failure,
    # with t, in place of a RuntimeWarning
    with np.errstate(all="ignore"):
        try:
            eta0, zeta, q, integrals, profiles, histories, fail, failure = half(n_steps)
        except NumericalError as err:
            raise NumericalError(str(err), t=0.0, reason=err.reason) from None
        r = None if controller.sensors is None else integrals(controller.weights)
        step, err = (_march_eta(tuple(eta0.tolist()), controller, r, zeta, q, dt, fail, etas, us)
                     or (fail, failure))
        if err is not None:
            raise NumericalError(str(err), t=step * dt, reason=err.reason)
        snap_steps = sorted({int(round(ts / dt)) for ts in cfg.snapshot_times
                             if ts <= n_steps * dt + 1e-9})
        snapshots = [(s * dt, profiles(etas[s], s)) for s in snap_steps]
    steps = _record_steps(n_steps, cfg.record_every)

    @functools.cache
    def reduced():
        # the halves mute the floating-point warnings of their histories, and
        # so does their reduction
        with np.errstate(all="ignore"):
            return _reduce_histories(setup, histories, steps)
    return Trajectory(times=steps * dt, eta=etas[steps], u=us[steps], reduced=reduced,
                      snapshots=snapshots,
                      meta={"solver": solver, "controller": cfg.controller.kind,
                            "ic": cfg.ic.kind, "n_cells": setup.grid.n_cells, "dt": dt})


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


# The renewal is marched this many steps at a time: one product of a fixed
# (K, n - 1) map per species.
_RENEWAL_BLOCK = 32


def _renewal_map(c, rows: int):
    """The map M (rows, n - 1) from a step's samples at ages 0..n-2 to the
    newborns of the next ``rows`` steps, for the renewal weights c (n - 1,):
    M[r] = H[r] + sum_{j < min(r, n - 1)} c_j M[r - 1 - j], H[r, m] = c_{r + m}."""
    m = len(c)
    out = np.zeros((rows, m))
    for r in range(rows):
        j = min(r, m)
        out[r, :m - j] = c[j:]
        out[r] += c[:j][::-1] @ out[r - j:r]
    return out


def _march_histories(z0, n_steps: int, wk, d):
    """The samples of every step of a march that carries each sample one
    node along unchanged and solves the newborn node from the trapezoid
    renewal sum row_dot(z[..., :-1], w*k) / d over the previous step.  From
    z0 (2, n), one (2, n_steps + n) array holds the samples of step s at
    [:, n_steps - s:n_steps - s + n]; returns its windows, the samples of
    every step (n_steps + 1, 2, n).  The newborns of up to ``_RENEWAL_BLOCK``
    steps are one ``_renewal_map`` product per species."""
    n = z0.shape[-1]
    ext = np.empty((2, n_steps + n))
    ext[:, n_steps:] = z0
    # reversed, as ext stores the newborns: the last row is the next step's
    rows = min(_RENEWAL_BLOCK, n_steps)
    maps = [np.ascontiguousarray(_renewal_map(c, rows)[::-1]) for c in wk / d[:, None]]
    for i in range(n_steps, 0, -rows):
        k = min(rows, i)
        for species, m in enumerate(maps):
            ext[species, i - k:i] = m[-k:] @ ext[species, i:i + n - 1]
    return sliding_window_view(ext, n, axis=-1)[:, ::-1].swapaxes(0, 1)


def _prey_collapse(q, fail, err):
    """The earlier of the failure (fail, err) and the first prey collapse in
    the loss integrals q (n_steps + 1, 2) of every step: the update of step
    s reads them at both its ends, and quad(g2*x1) must be positive."""
    bad = np.flatnonzero(~(q[:, 1] > 0))
    if bad.size and max(bad[0] - 1, 0) < fail:
        fail, err = max(bad[0] - 1, 0), _failure("prey_collapse")
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
    """Integrate the density profiles and record the transformed series."""
    eq = setup.eq
    x0 = ic_from_spec(cfg.ic, eq).x

    def half(n_steps):
        dt, s, wpi, wg, wk, d = _direct_ops(setup)
        # the start's Pi and histories, as to_transformed takes them
        p0 = pi_functional(x0, setup.adj)
        # a collapsing or diverging march divides by zero or overflows, muted
        # by _march; the collapse check or the loop's nan guard on eta reports it
        z = _march_histories(x0 / s, n_steps, wk, d)
        p = row_dot(z, wpi) / setup.adj.denom
        p[0] = p0
        lq = row_dot(z, wg)[:, ::-1]
        fail, err = _prey_collapse(lq, n_steps, None)
        # x = C*S*z with eta = log C + log P: the loss rates per unit of
        # (e^{eta2}, e^{-eta1}) are (Q1/P2, P1/Q2), and zeta gains the
        # growth of P
        q = np.stack((lq[:, 0] / p[:, 1], p[:, 0] / lq[:, 1]), axis=-1)
        zeta = eq.zeta + np.log(p[1:] / p[:-1]) / dt
        eta0 = np.log(p[0])

        def integrals(w):
            return row_dot(z, w * s) / p

        def profiles(eta, step):
            return s * z[step] * (np.exp(eta) / p[step])[:, None]

        def histories(steps, out):
            # the shape deviations of the profiles, but at t = 0 the start's own
            psi = shape_deviation(z[steps], eq.x_star / s, p[steps][..., None], out=out)
            if steps[0] == 0:
                psi[0] = shape_deviation(x0, eq.x_star, p0[:, None])
            return psi

        return eta0, zeta, q, integrals, profiles, histories, fail, err

    return _march(setup, cfg, "direct", half)


def _transformed_ops(eq: Equilibrium):
    """Step-invariant arrays of the transformed histories: the weighted
    interaction kernels w*g*x_star[::-1], each species' kernel against the
    other's steady profile, and the renewal weights of the discounted birth
    kernels."""
    w = eq.grid.weights
    return w * eq.kernels.g * eq.x_star[::-1], *_renewal_weights(w, eq.ktilde)


def simulate_transformed(setup: Setup, cfg: SimConfig) -> Trajectory:
    """Integrate (eta, psi) and reconstruct profiles for snapshots."""
    eq = setup.eq
    start = transformed_ic(cfg.ic, setup)

    def half(n_steps):
        wg, wk, d = _transformed_ops(eq)
        # a diverging history may overflow or divide by zero, also past its
        # first failure, muted by _march; the checks below, or the loop's nan
        # guard on eta, report it
        psi = _march_histories(start.psi, n_steps, wk, d)

        def dots(w):
            # row_dot(1 + psi, w) of every step, summed on the view
            return row_dot(psi, w) + w.sum(axis=-1)

        q = dots(wg[::-1])[..., ::-1]  # (quad(g1*x2), quad(g2*x1))
        # the update of step s checks the newborn of step s + 1 for
        # admissibility, then the loss rates at both ends of the step for
        # prey collapse; quad(g1*x2) needs no check: every sample of an
        # admissible history is > -1, checked at the start and on each newborn
        fail, err = n_steps, None
        bad = np.flatnonzero((psi[1:, :, 0] <= -1.0).any(axis=1))
        if bad.size:
            fail, err = bad[0], _failure("psi_admissibility")
        fail, err = _prey_collapse(q, fail, err)
        q[:, 1] = 1.0 / q[:, 1]

        def integrals(w):
            return dots(w * eq.x_star)

        def profiles(eta, step):
            return profile(eq.x_star, eta[:, None], psi[step])

        def histories(steps, out):
            return psi[steps]

        zeta = np.broadcast_to(eq.zeta, (n_steps, 2))
        return start.eta, zeta, q, integrals, profiles, histories, fail, err

    return _march(setup, cfg, "transformed", half)


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
