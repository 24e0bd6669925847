"""Acceptance checks: one callable per criterion, shared by tests and the CLI.

Each criterion returns a :class:`CriterionResult`; ``REGISTRY`` holds them in
definition order, the order they are reported in.  A context object caches the
expensive pieces (setups, simulations) so several criteria can share one run.
The ``criterion`` decorator gives each check its id and name, and skips
the checks that need a converged grid below ``MIN_CELLS``, with an
explanatory message, instead of letting them fail cryptically.

``CRITERION_GROUPS`` splits the criteria into two groups of about equal cost
that share no cached run but the Setup, and ``run_criteria`` runs one group:
``predprey verify`` runs the two at once when two CPUs are usable.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import EquilibriumBlock, ModelBlock, kernels_from_model
from .controllers import ControllerSpec, GainsA, GainsB, control_A, control_B_floor, phi
from .equilibrium import compute_equilibrium, open_loop_jacobian, open_loop_jacobian_eigs
from .lyapunov import (
    LyapConfig,
    closed_loop_jacobian,
    control_b_discriminant,
    dini_check,
    lambda_min_q,
    lyap_config_for,
    q_matrix,
    roa_estimate,
    v_full,
    verify_level_set,
)
from .model import bc_residual, bisect
from .simulate import (
    NAMED_STARTS,
    ICSpec,
    SimConfig,
    build_setup,
    cross_validate,
    ic_from_spec,
    multiplier_profiles,
    simulate_direct,
    simulate_transformed,
)
from .transform import check_S, pi_functional, reconstruct, shape_deviation, to_transformed

MIN_CELLS = 100

REFERENCE_GAINS_A = dict(eps=0.2, beta=0.6)
REFERENCE_GAINS_B = dict(eps=0.01, beta=0.13, delta=0.2)

# the closed-loop reference runs of criteria 03 and 05-07, (controller, start),
# each marched over t in [0, REFERENCE_T_FINAL]
REFERENCE_RUNS = (
    ("open_loop", "FQ"),
    ("control_a", "FQ"),
    ("control_a", "SQ"),
    ("control_b", "FQ"),
    ("control_b", "SQ"),
)
REFERENCE_T_FINAL = 20.0

# the criteria by id, in two groups of about equal cost that share no cached
# run; the first holds every criterion that calls ``ctx.direct_run``, so the
# reference runs stay in the process that runs the first group, the command's
# own, where the benchmark's tracer counts their steps and law calls
CRITERION_GROUPS = (
    ("01", "02", "03", "04", "05", "06", "07", "12"),
    ("08", "09", "10", "11", "13"),
)


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str
    skipped: bool = False

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return f"{self.status} {self.cid} {self.name}: {self.detail}"


class VerifyContext:
    """Lazily built and cached setups/simulations for the criteria, on the
    reference ``[model]`` at ``n_cells`` cells and the setpoint ``u_star``."""

    def __init__(self, n_cells: int = ModelBlock.n_cells, u_star: float = EquilibriumBlock.u_star):
        self.n_cells = n_cells
        self.u_star = u_star
        self._cache: dict = {}

    def detached(self) -> VerifyContext:
        """A context that starts from what this one has cached and then keeps
        its own cache, for a job that runs beside another on this one."""
        other = VerifyContext(self.n_cells, self.u_star)
        other._cache = dict(self._cache)
        return other

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def setup(self, n_cells: int | None = None):
        n = self.n_cells if n_cells is None else n_cells
        return self._get(("setup", n), lambda: build_setup(
            kernels_from_model(ModelBlock(n_cells=n)), self.u_star))

    def direct_run(self, kind: str, ic: str):
        """The reference run (kind, ic) of ``REFERENCE_RUNS``, marched on its
        first call."""
        if (kind, ic) not in REFERENCE_RUNS:
            raise KeyError(f"({kind!r}, {ic!r}) is not one of the REFERENCE_RUNS")
        return self._get(("direct", kind, ic), lambda: simulate_direct(self.setup(), SimConfig(
            t_final=REFERENCE_T_FINAL, controller=self._controller(kind), ic=ICSpec(kind=ic))))

    def _controller(self, kind: str) -> ControllerSpec:
        if kind == "control_a":
            return ControllerSpec(kind=kind, **REFERENCE_GAINS_A)
        if kind == "control_b":
            return ControllerSpec(kind=kind, **REFERENCE_GAINS_B)
        return ControllerSpec(kind="open_loop")

    def lyap_config(self, kind: str) -> LyapConfig:
        """The analysis of the reference controller ``kind``."""
        def build():
            setup = self.setup()
            return lyap_config_for(self._controller(kind), setup.eq, setup.sigma)
        return self._get(("lyap", kind), build)

    def roa(self, kind: str):
        return self._get(
            ("roa", kind), lambda: roa_estimate(self.lyap_config(kind), self.setup().eq)
        )

    def scaled_ic_inside(self, kind: str) -> ICSpec:
        """FQ's multiplier direction, scaled by bisection so that
        V(eta0, psi0) <= 0.9 * c_star."""
        def build():
            offset, slope = NAMED_STARTS["FQ"]
            s = float(bisect_scale(self.setup(), self.lyap_config(kind),
                                   0.9 * self.roa(kind).c_star, [offset], [slope])[0])
            return ICSpec(kind="multiplier", log_offset=tuple(s * o for o in offset),
                          log_slope=tuple(s * k for k in slope))
        return self._get(("scaled_ic", kind), build)


def multiplier_v(setup, cfg: LyapConfig, scale, offset, slope) -> np.ndarray:
    """V(eta0, psi0) of the multiplier starts x_i = x_i_star *
    exp(s*offset_i + s*slope_i*a), one per row of the (B,) scales s and the
    (B, 2) directions offset and slope, in one stacked call."""
    s = np.asarray(scale, dtype=float)[:, None]
    x = multiplier_profiles(setup.eq, s * np.asarray(offset, dtype=float),
                            s * np.asarray(slope, dtype=float))
    p = pi_functional(x, setup.adj)
    return v_full(np.log(p), shape_deviation(x, setup.eq.x_star, p[..., None]), cfg, setup.eq)


def bisect_scale(setup, cfg: LyapConfig, level: float, offset, slope) -> np.ndarray:
    """Per row of the (B, 2) directions, the scale s in [0, 1] with
    ``multiplier_v`` <= level that 60 bisection rounds reach from below."""
    return bisect(lambda s: multiplier_v(setup, cfg, s, offset, slope) <= level,
                  np.zeros(len(offset)), np.ones(len(offset)))[0]


_CRITERIA: list = []


def criterion(cid: str, name: str, needs_grid: bool = False):
    """Turn a check ``ctx -> (passed, detail)`` into criterion ``cid`` and
    register it; ``REGISTRY`` holds the criteria in definition order.  With
    ``needs_grid`` it is skipped below MIN_CELLS, where it has not converged."""
    def wrap(check):
        @functools.wraps(check)
        def run(ctx: VerifyContext) -> CriterionResult:
            if needs_grid and ctx.n_cells < MIN_CELLS:
                return CriterionResult(
                    cid, name, passed=False, skipped=True,
                    detail=f"resolution too low (n_cells={ctx.n_cells} < {MIN_CELLS}); "
                    f"rerun with model.n_cells >= {MIN_CELLS}",
                )
            passed, detail = check(ctx)
            return CriterionResult(cid, name, bool(passed), detail)
        run.cid = cid  # functools.wraps carries it onto a wrapper of run
        _CRITERIA.append(run)
        return run
    return wrap


@criterion("01", "lotka-sharpe-exponent", needs_grid=True)
def criterion_01_lotka_sharpe(ctx: VerifyContext):
    eq = ctx.setup().eq
    ok = bool(np.all(np.abs(eq.zeta - 1.17) <= 0.01))
    return ok, f"zeta1={eq.zeta[0]:.6f}, zeta2={eq.zeta[1]:.6f} (target 1.17 +/- 0.01)"


@criterion("02", "equilibrium-values", needs_grid=True)
def criterion_02_equilibrium(ctx: VerifyContext):
    eq = ctx.setup().eq
    # zeta1 = lambda2 + u_star and zeta2 = 1/lambda1 + u_star
    defects = np.abs(eq.zeta - [eq.lambda2, 1.0 / eq.lambda1] - eq.u_star)
    checks = [
        abs(eq.lambda1 - 0.98) <= 0.01,
        abs(eq.lambda2 - 1.02) <= 0.01,
        abs(eq.x0_star[0] - 33.81) <= 0.1,
        abs(eq.x0_star[1] - 35.19) <= 0.1,
        np.all(defects <= 1e-6),
    ]
    return all(checks), (
        f"lambda=({eq.lambda1:.4f}, {eq.lambda2:.4f}), "
        f"x*(0)=({eq.x0_star[0]:.3f}, {eq.x0_star[1]:.3f}), "
        f"identity defects=({defects[0]:.2e}, {defects[1]:.2e})"
    )


@criterion("03", "open-loop-conservation", needs_grid=True)
def criterion_03_conservation(ctx: VerifyContext):
    setup = ctx.setup()
    eta0 = to_transformed(
        ic_from_spec(ICSpec(kind="FQ"), setup.eq), setup.eq, setup.adj
    ).eta
    traj = simulate_transformed(
        setup,
        SimConfig(t_final=20.0, controller=ControllerSpec(kind="open_loop"),
                  ic=ICSpec(kind="eta", eta0=tuple(eta0))),
    ).finalize_lyapunov(setup.eq)
    drift = float(np.max(np.abs(traj.V0 - traj.V0[0])) / traj.V0[0])

    orbit = ctx.direct_run("open_loop", "FQ")
    dist = np.linalg.norm(orbit.eta - orbit.eta[0], axis=1)
    # estimated period: first local minimum of the return distance after the
    # initial excursion
    start = int(np.searchsorted(orbit.times, 3.0))
    interior = np.where(
        (dist[start + 1 : -1] <= dist[start:-2]) & (dist[start + 1 : -1] <= dist[start + 2 :])
    )[0]
    j = start + 1 + int(interior[0]) if interior.size else int(np.argmin(dist[start:])) + start
    ret = float(dist[j])
    period = float(orbit.times[j])
    ok = drift < 1e-3 and ret < 0.05
    return ok, (
        f"V0 drift {drift:.2e} (< 1e-3); orbit return {ret:.4f} at estimated "
        f"period t={period:.2f} (< 0.05)"
    )


@criterion("04", "open-loop-linearization")
def criterion_04_linearization(ctx: VerifyContext):
    setup = ctx.setup()
    kernels = setup.kernels
    eigs_closed = open_loop_jacobian_eigs(setup.eq)
    eigs_solve = np.linalg.eigvals(open_loop_jacobian(setup.eq))
    err = min(
        abs(eigs_closed[0] - eigs_solve[0]) + abs(eigs_closed[1] - eigs_solve[1]),
        abs(eigs_closed[0] - eigs_solve[1]) + abs(eigs_closed[1] - eigs_solve[0]),
    )
    omegas = []
    for us in (0.05, 0.10, 0.15):
        eq_us = compute_equilibrium(kernels, us)
        omegas.append(abs(open_loop_jacobian_eigs(eq_us)[0].imag))
    decreasing = omegas[0] > omegas[1] > omegas[2]
    ok = err <= 1e-6 and decreasing
    return ok, (
        f"eig defect {err:.2e} (<= 1e-6); omega(u*)={[f'{w:.4f}' for w in omegas]} decreasing"
    )


@criterion("05", "control-a-prey-surplus", needs_grid=True)
def criterion_05_control_a_fq(ctx: VerifyContext):
    traj = ctx.direct_run("control_a", "FQ")
    nrm = np.linalg.norm(traj.eta, axis=1)
    tail = float(nrm[traj.times >= 10.0].max())
    u_min = float(traj.u.min())
    ok = tail <= 0.05 and u_min > 0.0
    return ok, f"max|eta| for t>=10 is {tail:.4f} (<= 0.05); min u {u_min:.4f} (> 0)"


@criterion("06", "control-a-predator-surplus", needs_grid=True)
def criterion_06_control_a_sq(ctx: VerifyContext):
    traj = ctx.direct_run("control_a", "SQ")
    u_min = float(traj.u.min())
    final = float(np.linalg.norm(traj.eta[-1]))
    ok = u_min < 0.0 and final <= 0.05
    return ok, f"min u {u_min:.4f} (< 0, dilution goes negative); |eta(20)|={final:.2e} (<= 0.05)"


@criterion("07", "control-b-positivity", needs_grid=True)
def criterion_07_control_b_positive(ctx: VerifyContext):
    floor = control_B_floor(GainsB(**REFERENCE_GAINS_B), ctx.setup().eq)
    mins = {}
    for ic in ("FQ", "SQ"):
        traj = ctx.direct_run("control_b", ic)
        mins[ic] = float(traj.u.min())
    traj_sq = ctx.direct_run("control_b", "SQ")
    final = float(np.linalg.norm(traj_sq.eta[-1]))
    ok = all(v >= floor for v in mins.values()) and floor > 0 and final <= 0.1
    return ok, (
        f"min u FQ={mins['FQ']:.4f}, SQ={mins['SQ']:.4f} (>= floor {floor:.4f} > 0); "
        f"|eta(20)| SQ={final:.2e} (<= 0.1)"
    )


@criterion("08", "lambda-min-closed-form")
def criterion_08_lambda_min(ctx: VerifyContext):
    worst_special = 0.0
    worst_value = 0.0
    for eps in (0.1, 0.2, 1.0):
        beta = eps / (2.0 * (1.0 + eps))
        lam = lambda_min_q(eps, beta)
        eigs = np.sort(np.linalg.eigvalsh(q_matrix(eps, beta)))
        # Q is diagonal at this beta: eigenvalues are exactly
        # {eps/(2(1+eps)), eps(1+eps)/2}, the smaller being the first.
        worst_special = max(worst_special, abs(lam - eigs[0]))
        worst_value = max(
            worst_value,
            abs(lam - eps / (2.0 * (1.0 + eps))),
            abs(eigs[1] - eps * (1.0 + eps) / 2.0),
        )
    eps_axis = np.linspace(0.05, 2.0, 50)
    eps_grid = np.repeat(eps_axis, 50)
    beta_grid = np.outer(eps_axis / (4 * (1 + eps_axis)), np.linspace(1.01, 4.0, 50)).ravel()
    qs, lam = np.empty((eps_grid.size, 2, 2)), np.empty(eps_grid.size)
    for i, (eps, beta) in enumerate(zip(eps_grid, beta_grid)):
        qs[i], lam[i] = q_matrix(eps, beta), lambda_min_q(eps, beta)
    worst_grid = float(np.max(np.abs(lam - np.linalg.eigvalsh(qs)[:, 0])))
    ok = worst_special <= 1e-12 and worst_value <= 1e-12 and worst_grid <= 1e-12
    return ok, (
        f"special-beta defect {worst_special:.2e}, eigenvalue-pair defect "
        f"{worst_value:.2e}, 50x50 grid defect {worst_grid:.2e} (all <= 1e-12)"
    )


@criterion("09", "representation-equivalence", needs_grid=True)
def criterion_09_equivalence(ctx: VerifyContext):
    discs = {}
    for n in (200, 400):
        setup = ctx.setup(n_cells=n)
        discs[n] = cross_validate(
            setup,
            SimConfig(t_final=10.0, controller=ControllerSpec(kind="open_loop"),
                      ic=ICSpec(kind="FQ")),
        )
    ok = discs[200] < 1e-2 and discs[400] < discs[200]
    # the solvers differ only in the mortality quadrature and the eta offset,
    # and the profiles see only the quadrature: trapezoid against exact int mu
    return ok, (f"profile gap from the mortality quadrature, trapezoid (direct) vs exact "
                f"(transformed), n=200: {discs[200]:.2e} (< 1e-2), n=400: {discs[400]:.2e} "
                "(smaller)")


@criterion("10", "transform-roundtrip-and-membership", needs_grid=True)
def criterion_10_roundtrip(ctx: VerifyContext):
    setup = ctx.setup()
    eq, grid = setup.eq, setup.grid
    worst_rt = 0.0
    worst_p = 0.0
    worst_renewal_evolved = 0.0
    min_psi = np.inf
    bc_link = 0.0
    # each start evolved past one age window, where the renewal identity holds
    for ick in ("FQ", "SQ"):
        traj = simulate_transformed(setup, SimConfig(
            t_final=1.5, controller=ControllerSpec(kind="open_loop"), ic=ICSpec(kind=ick),
            snapshot_times=(1.5,)))
        state = ic_from_spec(ICSpec(kind=ick), eq)
        ts = to_transformed(state, eq, setup.adj)
        back = reconstruct(ts, eq)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.x - state.x) / state.x)))
        min_psi = min(min_psi, float(ts.psi.min()))
        p_res, renewal = check_S(ts.psi, eq.ktilde, grid)
        worst_p = max(worst_p, float(p_res.max()))
        predicted = bc_residual(state.x, eq.kernels.k, grid) / (eq.x0_star * np.exp(ts.eta))
        bc_link = max(bc_link, float(np.max(np.abs(renewal - predicted))))
        _, x_late = traj.snapshots[-1]
        ts_late = to_transformed(ic_from_spec(ICSpec(kind="table", x=x_late), eq), eq, setup.adj)
        _, renewal = check_S(ts_late.psi, eq.ktilde, grid)
        worst_renewal_evolved = max(worst_renewal_evolved, float(renewal.max()))
    ok = (
        worst_rt < 1e-10
        and min_psi > -1.0
        and worst_p < 1e-3
        and worst_renewal_evolved < 1e-8
        and bc_link < 1e-9
    )
    return ok, (
        f"roundtrip {worst_rt:.2e} (< 1e-10); min psi {min_psi:.3f} (> -1); "
        f"P residual {worst_p:.2e} (< 1e-3); renewal residual after one window "
        f"{worst_renewal_evolved:.2e} (< 1e-8); the t=0 renewal residual equals "
        f"the IC's own birth-condition defect to {bc_link:.2e} (these ICs do not "
        "satisfy the renewal condition, so it is O(1) at t=0 by design)"
    )


@criterion("11", "lyapunov-decrease", needs_grid=True)
def criterion_11_decrease(ctx: VerifyContext):
    setup = ctx.setup()
    eq = setup.eq
    details = []
    ok = True
    for kind in ("control_a", "control_b"):
        traj = simulate_transformed(setup, SimConfig(
            t_final=12.0, controller=ctx._controller(kind), ic=ctx.scaled_ic_inside(kind)))
        cfg = ctx.lyap_config(kind)
        traj.finalize_lyapunov(eq, cfg)
        if traj.V[0] > ctx.roa(kind).c_star:
            ok = False
            details.append(f"{cfg.mode}: initial V outside the level set")
            continue
        viol = dini_check(traj, cfg, eq)
        ok = ok and viol <= 1e-2
        details.append(f"{cfg.mode} dini violation {viol:.2e} (<= 1e-2)")

    rng = np.random.default_rng(42)
    gains = GainsA(**REFERENCE_GAINS_A)
    q = q_matrix(gains.eps, gains.beta)
    worst = 0.0
    for eta in rng.uniform(-2.0, 2.0, size=(100, 2)):
        p1, p2 = phi(eta, eq)
        u = control_A(eta, gains, eq)
        v1dot = p1 * (eq.u_star - u - p2) + (1 + gains.eps) * p2 * (eq.u_star - u + p1)
        pv = np.array([p1, p2])
        worst = max(worst, abs(v1dot + pv @ q @ pv))
    ok = ok and worst <= 1e-10
    details.append(f"reduced-model identity defect {worst:.2e} (<= 1e-10)")
    return ok, "; ".join(details)


@criterion("12", "control-b-damping")
def criterion_12_damping(ctx: VerifyContext):
    eq = ctx.setup().eq
    g_small = GainsB(eps=0.01, beta=0.13, delta=0.01)
    g_ref = GainsB(**REFERENCE_GAINS_B)
    g_zero = GainsB(eps=0.01, beta=0.0, delta=0.2)
    _, eig_small = closed_loop_jacobian("control_b", g_small, eq)
    _, eig_ref = closed_loop_jacobian("control_b", g_ref, eq)
    _, eig_zero = closed_loop_jacobian("control_b", g_zero, eq)
    disc_small = control_b_discriminant(g_small, eq)
    disc_ref = control_b_discriminant(g_ref, eq)
    checks = [
        disc_small > 0,
        np.all(np.abs(eig_small.imag) < 1e-12),
        np.all(eig_small.real < 0),
        disc_ref < 0,
        np.all(np.abs(eig_ref.imag) > 0),
        np.all(eig_ref.real < 0),
        np.all(eig_zero.real < 0),
    ]
    return np.all(checks), (
        f"delta=0.01: eigs real negative (disc {disc_small:.1f} > 0); "
        f"delta=0.2: complex, Re={eig_ref[0].real:.3f} < 0; beta=0: Hurwitz "
        f"(Re={eig_zero[0].real:.4f})"
    )


@criterion("13", "roa-level-set-geometry", needs_grid=True)
def criterion_13_roa_geometry(ctx: VerifyContext):
    cfg = ctx.lyap_config("control_a")
    result = ctx.roa("control_a")
    violations = verify_level_set(result, cfg, ctx.setup().eq, n_grid=400)
    ok = violations == 0
    return ok, (
        f"c*={result.c_star:.5f} attained on {result.active_piece}; "
        f"{violations} membership violations on a 400x400 grid (expect 0)"
    )


REGISTRY = tuple(_CRITERIA)


def run_criteria(ctx: VerifyContext, ids) -> list[CriterionResult]:
    """The results of the criteria ``ids`` on ``ctx``, in ``REGISTRY`` order."""
    # reads the module global, which a tracer may swap for wrapped criteria;
    # those are closures that cannot be pickled, so a pool job names its
    # criteria by id
    return [criterion(ctx) for criterion in REGISTRY if criterion.cid in ids]
