"""Lyapunov functions, decrease certificates, and region-of-attraction estimates.

Each feedback law has one analysis mode, ``gradient`` for control A and
``saturated`` for control B, and ``lyap_config_for`` builds its
``LyapConfig``.  Both modes share the composite functional
V = V1(eta) + sum_i (gamma_i/sigma_i) h(G_i(psi_i)) and the shape of the
region: the box eta1 >= -H1, eta2 <= H2, cut by the one curve
varphi = phi_1 + (1+eps)*phi_2 > K.  In the gradient mode K = -u_star/beta,
where control A stays positive; in the saturated mode K is the varphi bound
-sqrt(beta^2/varpi^2 - delta^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controllers import _ETA_CLIP, ControllerSpec, GainsA, GainsB, big_phi, phi
from .equilibrium import Equilibrium
from .errors import GainConstraintError, NumericalError
from .model import AgeGrid, bisect, check_grid_fn, quad, tail_integral


# ---------------------------------------------------------------------------
# scalar Lyapunov functions on eta


def v0(eta, eq: Equilibrium):
    """Drift-free invariant of the uncontrolled reduced dynamics."""
    p1, p2 = big_phi(eta, eq)
    return p1 + p2


def v1(eta, eps: float, eq: Equilibrium):
    """Weighted candidate V1 = Phi_1 + (1+eps)*Phi_2."""
    p1, p2 = big_phi(eta, eq)
    return p1 + (1.0 + eps) * p2


def q_matrix(eps: float, beta: float) -> np.ndarray:
    """Symmetric decrease form of control A on the reduced model.

    Defined by the identity dV1/dt = -[phi1 phi2] Q [phi1 phi2]^T along the
    closed loop, which fixes the off-diagonal as (2*beta*(1+eps) - eps)/2;
    the spectrum is insensitive to the sign of that entry.
    """
    GainsA(eps=eps, beta=beta)  # validates positivity constraints
    off = (2.0 * beta * (1.0 + eps) - eps) / 2.0
    return np.array([[beta, off], [off, beta * (1.0 + eps) ** 2]])


def lambda_min_q(eps: float, beta: float) -> float:
    """Smaller eigenvalue of the decrease form, by rationalized closed form."""
    return GainsA(eps=eps, beta=beta).lambda_min_q()


# ---------------------------------------------------------------------------
# h and the history functionals


# h sums its series a block of entries at a time, up to this many elements
# (256 KB) of terms in one array.
_H_BLOCK = 1 << 15
# ln 2^55: an entry stops where every later term is below 2^-55 of its sum
_H_TAIL = 55.0 * math.log(2.0)
# per unit p^2, the terms n = 2 of (2p)^n/n! and p^n/n!; per unit p/(n+1),
# the ratios of their next terms
_H_FIRST = np.array([[2.0], [0.5]])
_H_RATIO = np.array([[2.0], [1.0]])


def h_fn(p):
    """Radially unbounded weight h(p) = integral_0^p (e^z - 1)^2 / z dz.

    Summed exactly as the series h(p) = sum_{n>=2} (2^n - 2) p^n / (n * n!),
    which follows from (e^z - 1)^2 = sum_{n>=2} (2^n - 2) z^n / n!.  Every
    term is positive, so the partial sums carry no cancellation.  Each entry
    stops at its own last term, where ``_h_last`` proves every later term
    below half an ulp of the sum: summing on would return the same float.
    Each entry sums its own terms, left to right, whatever the other entries
    of the array.  Broadcasts over arrays and returns a float for scalar
    input; h is inf where (e^p - 1)^2 overflows (p above ~354.9) and nan for
    nan.
    """
    p = np.asarray(p, dtype=float)
    if (p < 0).any():
        raise ValueError("h is defined for nonnegative arguments")
    with np.errstate(over="ignore"):
        overflow = np.isinf(np.expm1(p) ** 2)
    q = np.where(overflow, 0.0, p).ravel()
    # sorted by their last rows, descending, a block's first entry has the
    # most rows
    last = _h_last(q)
    order = np.argsort(last)[::-1]
    out = np.empty_like(q)
    start = 0
    while start < q.size:
        block = order[start:start + _H_BLOCK // (2 * (last[order[start]] + 1))]
        out[block] = _h_sums(q[block], last[block])
        start += len(block)
    out[overflow.ravel()] = np.inf
    out = out.reshape(p.shape)
    return float(out) if out.ndim == 0 else out


def _h_last(p):
    """The row of the last term that h's series keeps at each p >= 0 (nan
    counts as 0), the term n = 2 + last.

    With x = 2p, the terms t_n = (2^n - 2) p^n / (n * n!) fall by
    t_{n+1}/t_n <= x/(n+1).  From j = max(2, ceil(x)) on that ratio is at
    most 1, and the terms past n = j + m - 1 are at most
    t_j * prod_{i=1..m} x/(j + i).  The log of that product is at most
    -(m*a + m^2/(2j + 2m/3)), with a = ln(j/x): sum ln(1 + i/j) is at least
    the integral j*phi(m/j), and phi(u) = (1+u)ln(1+u) - u is at least
    u^2/(2 + 2u/3).  The least m at which this reaches -_H_TAIL is the
    positive root of a quadratic.  The partial sum is at least t_j, and half
    an ulp of it exceeds 2^-54 of it, so every later term rounds away, with
    a factor 2 to spare for the rounding of the terms and of this root.
    """
    # x is floored to keep j/x finite; one term is kept below the floor
    x = np.fmax(2.0 * p, 1e-300)
    j = np.fmax(np.ceil(x), 2.0)
    a = np.log(j / x)
    # m^2 (1/2 + a/3) + m b - jL = 0 with L = _H_TAIL and b = ja - L/3, its
    # positive root written without cancellation
    b = j * a - _H_TAIL / 3.0
    m = 2.0 * _H_TAIL * j / (b + np.sqrt(b * b + j * (2.0 * _H_TAIL + 4.0 * _H_TAIL / 3.0 * a)))
    return (j + np.ceil(m)).astype(np.intp) - 3


def _h_sums(q, last):
    """h's series of the entries q (e,), each summed up to its row ``last``
    (e,), sorted descending, left to right, in one block of every term up to
    the first entry's row.  (2p)^n/n! and p^n/n! follow by ratio recursion,
    each an accumulate along the terms; their difference is
    (2^n - 2) p^n/n! without forming 2^n, which overflows past n = 1023."""
    e, rows = len(q), last[0] + 1
    n = np.arange(2.0, rows + 2.0)[:, None]
    series = np.empty((rows, 2, e))
    # the two series at n = 2, then the ratios of the next terms
    series[0] = _H_FIRST * q * q
    np.divide(_H_RATIO * q, n[1:, None], out=series[1:])
    np.multiply.accumulate(series, axis=0, out=series)
    sums = np.add.accumulate((series[:, 0] - 2.0 * series[:, 1]) / n, axis=0)
    return sums[last, np.arange(e)]


def g_fn(psi, sigma, grid: AgeGrid):
    """Exponentially weighted sup of a history, penalized by its worst dip.

    G = max_a |psi(-a)| e^{sigma (A - a)} / (1 + min(0, min psi)), along the
    last axis: a float for one history, a (2,) array for the (2, n) histories
    with a (2,) sigma.
    """
    psi = np.asarray(psi, dtype=float)
    s_min = psi.min(axis=-1)
    if np.any(s_min <= -1.0):
        raise ValueError("history contains a sample <= -1; G is undefined")
    g = g_kernel(psi, g_fn_weights(grid, sigma), s_min)
    return float(g) if g.ndim == 0 else g


def g_kernel(samples, weights, s_min, out=None):
    """G from the history samples, the weights of ``g_fn_weights`` and the
    samples' minimum, which the caller has at hand; no admissibility check.
    Reduces along the last axis and broadcasts over the leading ones (a float
    for one history).  ``out``, an array of the samples' shape, takes the
    weighted samples in place of a fresh one."""
    weighted = np.multiply(np.abs(samples, out=out), weights, out=out)
    return weighted.max(axis=-1) / (1.0 + np.minimum(0.0, s_min))


def g_fn_weights(grid: AgeGrid, sigma) -> np.ndarray:
    """Precomputed weights exp(sigma*(A - a)) for evaluating G in a tight loop;
    a (2,) sigma gives one row per species."""
    return np.exp(np.multiply.outer(sigma, grid.A - grid.nodes))


# ---------------------------------------------------------------------------
# birth-kernel contraction constants (kappa, sigma)


class AssumptionUnverifiable(NumericalError):
    """The birth-kernel contraction could not be certified at this resolution."""


SIGMA_MAX = 50.0
SIGMA_REL_GAP = 1e-6


def find_sigma(ktilde, grid: AgeGrid) -> tuple[float, float]:
    """Certify the birth-kernel contraction and its decay exponent.

    Minimizes J(kappa) = quad(|ktilde - z*kappa*int_a^A ktilde|) exactly: on
    the nodes with a positive tail, J = sum_j w_j z tail_j |r_j - kappa| plus
    a constant, with r_j = ktilde_j / (z tail_j).  That is convex and
    piecewise linear in kappa, so the weighted median of r_j is a minimizer.
    If the minimum is below one, the largest sigma with the
    exp(sigma*a)-weighted integral still below one is located by bisection;
    the weighted integral at the returned sigma lies in [1 - SIGMA_REL_GAP, 1)
    unless it stays below one up to SIGMA_MAX.

    This loop, not ``bisect``, because its stop rule fixes sigma, and sigma
    weights every recorded G: bisecting sigma to the last bit moves it by
    2.1-3.9e-7 relative at n_cells 200-800, and G by about 1e-6 relative.
    """
    ktilde = check_grid_fn(ktilde, grid, "ktilde")
    a = grid.nodes
    tail = tail_integral(ktilde, grid)
    z = 1.0 / quad(a * ktilde, grid)

    def J(kappa: float, sigma: float = 0.0) -> float:
        return quad(np.abs(ktilde - z * kappa * tail) * np.exp(sigma * a), grid)

    pos = tail > 0
    slope = grid.weights[pos] * z * tail[pos]
    ratio = ktilde[pos] / (z * tail[pos])
    order = np.argsort(ratio)
    mass = np.cumsum(slope[order])
    best_kappa = float(ratio[order][np.searchsorted(mass, 0.5 * mass[-1])])
    best_val = J(best_kappa)
    if not best_val < 1.0:
        raise AssumptionUnverifiable(
            "birth-kernel contraction unverifiable at this resolution: "
            f"min J(kappa) = {best_val:.6g} >= 1",
            reason="contraction_unverifiable",
        )

    if J(best_kappa, SIGMA_MAX) < 1.0:
        return best_kappa, SIGMA_MAX
    # J at s_lo comes from the round that set it; J(kappa, 0) is best_val
    s_lo, s_hi, j_lo = 0.0, SIGMA_MAX, best_val
    while j_lo < 1.0 - SIGMA_REL_GAP:
        s_mid = 0.5 * (s_lo + s_hi)
        j_mid = J(best_kappa, s_mid)
        if j_mid < 1.0:
            s_lo, j_lo = s_mid, j_mid
        else:
            s_hi = s_mid
    if s_lo == 0.0:
        raise AssumptionUnverifiable(
            "no positive decay exponent found: weighted integral exceeds one "
            "immediately",
            reason="contraction_unverifiable",
        )
    return best_kappa, s_lo


# ---------------------------------------------------------------------------
# composite functional and regions

SIGMA_SAFETY = 0.9
GAMMA_SAFETY = 2.0


@dataclass(frozen=True)
class LyapConfig:
    """The Lyapunov analysis of one feedback law: the weights of V and the
    region they certify.

    ``lyap_config_for`` builds it, and nothing ``dataclasses.replace``s it,
    since the stored region H1, H2, K would go stale.  mode ``gradient`` pairs
    with control A gains, ``saturated`` with control B gains (which add delta
    and the analysis constant varpi).  sigma1 and sigma2 are the certified
    decay exponents (``Setup.sigma``): the same values weight h(G_i) in V and
    enter G_i itself.
    """

    mode: str
    eps: float
    beta: float
    gamma1: float
    gamma2: float
    sigma1: float
    sigma2: float
    delta: float | None
    varpi: float | None
    H1: float
    H2: float
    K: float


def gamma_circ(eps: float, beta: float) -> float:
    """Reference weight (1+eps) / (2*lambda_min(Q)) of the gradient mode."""
    return GainsA(eps=eps, beta=beta).gamma_circ()


def gamma_lower_bounds(mode: str, eps: float, beta: float, eq: Equilibrium,
                       varpi: float | None = None) -> tuple[float, float]:
    if mode == "gradient":
        gc = gamma_circ(eps, beta)
        return gc / eq.lambda1**2, eq.lambda2**2 * gc
    if varpi is None:
        raise GainConstraintError("saturated gamma bounds need the analysis constant varpi")
    lo1 = 2.0 * (1.0 + eps) / (eps * eq.lambda1**2)
    lo2 = 2.0 * eq.lambda2**2 * (1.0 + eps) / eps + 1.0 / varpi
    return lo1, lo2


# the analysis mode of each controller kind; the other kinds have none
ANALYSIS_MODE = {"control_a": "gradient", "measured": "gradient", "control_b": "saturated"}


def lyap_config_for(spec: ControllerSpec, eq: Equilibrium, sigma: tuple[float, float],
                    gamma1: float | None = None, gamma2: float | None = None,
                    varpi: float | None = None) -> LyapConfig | None:
    """The analysis of a controller, or None for a kind without one.

    The mode is the one ANALYSIS_MODE gives the kind, at the spec's gains and
    the certified sigma (``Setup.sigma``).  Unset weights take their
    defaults: each gamma GAMMA_SAFETY times its lower bound and, in the
    saturated mode, varpi = beta/(2*delta).  Every inequality is checked
    once, in this order: the gains; in the saturated mode beta > 0 (at
    beta = 0 the default varpi is 0, and the gamma2 bound divides by it) and
    0 < varpi < beta/delta; sigma > 0; each gamma above its lower bound; and
    H1, H2 > 0.
    """
    mode = ANALYSIS_MODE.get(spec.kind)
    if mode is None:
        return None
    eps, beta, delta = spec.eps, spec.beta, None
    if mode == "gradient":
        GainsA(eps=eps, beta=beta)
        varpi = None
    else:
        delta = spec.delta
        GainsB(eps=eps, beta=beta, delta=delta)
        if not beta > 0:
            raise GainConstraintError("saturated mode requires beta > 0")
        if varpi is None:
            varpi = beta / (2.0 * delta)
        if not 0.0 < varpi < beta / delta:
            raise GainConstraintError(
                f"saturated mode requires 0 < varpi < beta/delta = "
                f"{beta / delta:.6g}; got varpi={varpi}"
            )
    for name, value in zip(("sigma1", "sigma2"), sigma):
        if not value > 0:
            raise GainConstraintError(f"{name} must be positive")
    lo1, lo2 = gamma_lower_bounds(mode, eps, beta, eq, varpi)
    gamma1 = GAMMA_SAFETY * lo1 if gamma1 is None else gamma1
    gamma2 = GAMMA_SAFETY * lo2 if gamma2 is None else gamma2
    for name, value, lo in (("gamma1", gamma1, lo1), ("gamma2", gamma2, lo2)):
        if not value > lo:
            raise GainConstraintError(
                f"{name} must exceed its lower bound {lo:.6g} strictly; got {value:.6g}"
            )
    if mode == "gradient":
        gc = gamma_circ(eps, beta)
        h1 = math.log(eq.lambda1 * math.sqrt(gamma1 / gc))
        h2 = math.log(math.sqrt(gamma2 / gc) / eq.lambda2)
        k_level = -eq.u_star / beta
    else:
        scale = eps / (2.0 * (1.0 + eps))
        h1 = math.log(eq.lambda1 * math.sqrt(scale * gamma1))
        h2 = math.log(math.sqrt(scale * (gamma2 - 1.0 / varpi)) / eq.lambda2)
        k_level = -math.sqrt(beta**2 / varpi**2 - delta**2)
    if not (h1 > 0 and h2 > 0):
        raise GainConstraintError(
            f"region bounds must be positive, got H1={h1:.6g}, H2={h2:.6g}; "
            "increase gamma1/gamma2"
        )
    return LyapConfig(mode=mode, eps=eps, beta=beta, gamma1=gamma1, gamma2=gamma2,
                      sigma1=sigma[0], sigma2=sigma[1], delta=delta, varpi=varpi,
                      H1=h1, H2=h2, K=k_level)


def v_composite(eta, g1, g2, cfg: LyapConfig, eq: Equilibrium):
    """V = V1(eta) + (gamma1/sigma1) h(G1) + (gamma2/sigma2) h(G2) from G values.

    Broadcasts over eta[..., 2] with matching G arrays.
    """
    return (v1(eta, cfg.eps, eq) + cfg.gamma1 / cfg.sigma1 * h_fn(g1)
            + cfg.gamma2 / cfg.sigma2 * h_fn(g2))


def v_full(eta, psi, cfg: LyapConfig, eq: Equilibrium):
    """V of states (eta, psi), eta (..., 2) and the histories psi (..., 2, n),
    with G_i at the configured sigma_i; a float for one state."""
    g = g_fn(psi, (cfg.sigma1, cfg.sigma2), eq.grid)
    v = v_composite(eta, g[..., 0], g[..., 1], cfg, eq)
    return float(v) if np.ndim(v) == 0 else v


def region_membership(eta, cfg: LyapConfig, eq: Equilibrium):
    """Membership in the region of ``cfg``; broadcasts over eta[..., 2], and
    histories never enter."""
    eta = np.asarray(eta, dtype=float)
    phi1, phi2 = phi(eta, eq)
    varphi = phi1 + (1.0 + cfg.eps) * phi2
    return (eta[..., 0] >= -cfg.H1) & (eta[..., 1] <= cfg.H2) & (varphi > cfg.K)


def constraint_curve(eta1, cfg: LyapConfig, eq: Equilibrium):
    """eta2 on which varphi = K, decreasing in eta1; nan where varphi > K for every eta2."""
    eta1 = np.asarray(eta1, dtype=float)
    phi1 = -np.expm1(-eta1) / eq.lambda1
    arg = 1.0 + (cfg.K - phi1) / ((1.0 + cfg.eps) * eq.lambda2)
    out = np.full_like(arg, np.nan)
    ok = arg > 0
    out[ok] = np.log(arg[ok])
    return out


def _curve_stationary_eta1(cfg: LyapConfig, eq: Equilibrium) -> list[float]:
    """eta1 of the stationary points of V1 on the curve varphi = K.

    There e^eta1 - 1 = 1 - e^-eta2, so a = e^eta1 solves
    (c - 1 + K*lambda1) a^2 + (3 - c - 2*K*lambda1) a - 2 = 0 with
    c = (1+eps)*lambda1*lambda2, and each root a in (0, 2) lies on the curve.
    The roots are q/A and -2/q with the cancellation-free q; if A = 0, -2/q
    is the linear root.
    """
    c = (1.0 + cfg.eps) * eq.lambda1 * eq.lambda2
    qa = c - 1.0 + cfg.K * eq.lambda1
    qb = 3.0 - c - 2.0 * cfg.K * eq.lambda1
    # V1 has a least value on the curve, so the roots are real; the clamp
    # only absorbs rounding at a double root
    q = -0.5 * (qb + math.copysign(math.sqrt(max(qb * qb + 8.0 * qa, 0.0)), qb))
    roots = [-2.0 / q] if q != 0.0 else []
    if qa != 0.0:
        roots.append(q / qa)
    return [math.log(a) for a in roots if 0.0 < a < 2.0]


# ---------------------------------------------------------------------------
# region-of-attraction level set

CURVE_LABEL = {"gradient": "u_zero", "saturated": "phi_bound"}
PIECE_SAMPLES = 3333


@dataclass
class RoaResult:
    mode: str
    c_star: float
    argmin_eta: np.ndarray
    active_piece: str
    pieces: dict  # label -> (eta array (m,2), V1 values (m,))


def roa_estimate(cfg: LyapConfig, eq: Equilibrium) -> RoaResult:
    """Largest invariant level c* of V1 inside the region of ``cfg``.

    The region constraints involve eta only and the history terms of V are
    nonnegative, so c* is the minimum of V1 over the region's boundary: the
    lines eta1 = -H1 and eta2 = H2 and the curve varphi = K.  V1 is separable
    and convex with minimum 0 at the origin, and the curve decreases in eta1,
    so the candidates are finite.  On a line, V1 is least at (-H1, 0) or
    (0, H2), or else at the line's end on the curve; along the curve V1 grows
    without bound, so its least value is at a stationary point or at an end.
    No end is needed: K < 0 puts (0, H2) in the region, below every other
    point of eta2 = H2, and where the curve passes above (-H1, 0), V1 falls
    along it away from eta1 = -H1.  So c* is the least V1 over (-H1, 0),
    (0, H2) and the curve's stationary points (_curve_stationary_eta1), each
    evaluated on its piece with the other constraints masking the infeasible
    ones.  Each piece is also sampled at PIECE_SAMPLES points for tables and
    plots.
    """
    h1, h2 = cfg.H1, cfg.H2
    span = 4.0 + 2.0 * max(h1, h2)
    curve = CURVE_LABEL[cfg.mode]

    def evaluate(label, s):
        """The piece's points at parameters s, and V1 there (inf where infeasible)."""
        if label == "H1":
            eta = np.column_stack([np.full_like(s, -h1), s])
        elif label == "H2":
            eta = np.column_stack([s, np.full_like(s, h2)])
        else:
            eta = np.column_stack([s, constraint_curve(s, cfg, eq)])
        keep = ~np.isnan(eta[:, 1])
        if label != "H1":
            keep &= eta[:, 0] >= -h1 - 1e-12
        if label != "H2":
            keep &= eta[:, 1] <= h2 + 1e-12
        if label != curve:
            p1, p2 = phi(eta, eq)
            keep &= p1 + (1.0 + cfg.eps) * p2 >= cfg.K - 1e-12
        return eta, np.where(keep, v1(eta, cfg.eps, eq), np.inf)

    pieces = {}
    best = (np.inf, None, None)
    for label, (s_lo, s_hi), candidates in (
        ("H1", (-span, min(h2, span)), [0.0]),
        ("H2", (-h1, span), [0.0]),
        (curve, (-h1, span), _curve_stationary_eta1(cfg, eq)),
    ):
        eta, vals = evaluate(label, np.linspace(s_lo, s_hi, PIECE_SAMPLES))
        keep = np.isfinite(vals)
        pieces[label] = (eta[keep], vals[keep])
        for point, val in zip(*evaluate(label, np.array(candidates, dtype=float))):
            if val < best[0]:
                best = (float(val), point, label)

    return RoaResult(
        mode=cfg.mode,
        c_star=best[0],
        argmin_eta=np.asarray(best[1]),
        active_piece=best[2],
        pieces=pieces,
    )


def level_ray_bound(c: float, eps: float, eq: Equilibrium, dirs) -> np.ndarray:
    """Per unit direction d (..., 2), the radius (c + 1/lambda1 + (1+eps)*lambda2)
    / (|d1|/lambda1 + (1+eps)*lambda2*|d2|), at which V1 >= c: within the
    clamp of eta, Phi_1 >= (|e1| - 1)/lambda1 and Phi_2 >= lambda2*(|e2| - 1)."""
    d1, d2 = np.abs(np.moveaxis(np.asarray(dirs, dtype=float), -1, 0))
    weight = (1.0 + eps) * eq.lambda2
    return (c + 1.0 / eq.lambda1 + weight) / (d1 / eq.lambda1 + weight * d2)


def level_contour(c: float, eps: float, eq: Equilibrium, n_rays: int = 400) -> np.ndarray:
    """Closed polyline of V1 = c, traced by radial bisection from the origin
    up to ``level_ray_bound``: V1 is convex with minimum 0 at the origin.

    V1 reads eta clamped to |eta_i| <= ``_ETA_CLIP``, so its least value on
    the clamp's edge, at (+-clip, 0) or (0, +-clip), bounds the levels whose
    contour lies inside the clamp; a level at or past it raises a
    ``NumericalError`` tagged ``level_beyond_clamp``."""
    if not c > 0:
        raise ValueError(f"level must be positive, got {c}")
    edge = _ETA_CLIP * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    limit = float(np.min(v1(edge, eps, eq)))
    if not c < limit:
        raise NumericalError(
            f"level {c:.6g} has no contour inside the eta clamp |eta_i| <= {_ETA_CLIP:g}: "
            f"V1 reaches only {limit:.6g} on its edge",
            reason="level_beyond_clamp",
        )
    angles = np.linspace(0.0, 2.0 * np.pi, n_rays, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    r_lo, r_hi = bisect(lambda r: v1(r[:, None] * dirs, eps, eq) < c, np.zeros(n_rays),
                        level_ray_bound(c, eps, eq, dirs))
    r = 0.5 * (r_lo + r_hi)
    pts = r[:, None] * dirs
    return np.vstack([pts, pts[:1]])


def verify_level_set(result: RoaResult, cfg: LyapConfig, eq: Equilibrium,
                     n_grid: int = 400) -> int:
    """Count grid points with V1 < c_star that fall outside the region.

    Zero violations certifies the level-set construction on an n_grid^2 mesh
    covering the sublevel set.
    """
    contour = level_contour(result.c_star, cfg.eps, eq, n_rays=200)
    lo = contour.min(axis=0) * 1.3 - 0.1
    hi = contour.max(axis=0) * 1.3 + 0.1
    e1 = np.linspace(lo[0], hi[0], n_grid)
    e2 = np.linspace(lo[1], hi[1], n_grid)
    E1, E2 = np.meshgrid(e1, e2)
    eta = np.stack([E1, E2], axis=-1)
    vals = v1(eta, cfg.eps, eq)
    member = region_membership(eta, cfg, eq)
    return int(np.count_nonzero((vals < result.c_star) & ~member))


# ---------------------------------------------------------------------------
# decrease checks along trajectories

DINI_ALLOWANCE = 5.0


def decrease_rate(eta, g1_val, g2_val, cfg: LyapConfig, eq: Equilibrium):
    """Certified decrease W(eta, G) >= -D+V of the active mode."""
    phi1, phi2 = phi(eta, eq)
    eg1 = np.expm1(np.asarray(g1_val, dtype=float))
    eg2 = np.expm1(np.asarray(g2_val, dtype=float))
    tail = 0.5 * cfg.gamma1 * eg1**2 + 0.5 * cfg.gamma2 * eg2**2
    if cfg.mode == "gradient":
        lam = lambda_min_q(cfg.eps, cfg.beta)
        return 0.5 * lam * (phi1**2 + phi2**2) + tail
    varphi = phi1 + (1.0 + cfg.eps) * phi2
    neg = np.minimum(0.0, varphi)
    sat = varphi**2 / np.sqrt(cfg.delta**2 + neg**2)
    return cfg.eps / (2.0 * (1.0 + cfg.eps)) * phi2**2 + 0.5 * cfg.beta * sat + tail


def dini_check(traj, cfg: LyapConfig, eq: Equilibrium) -> float:
    """Worst forward-difference violation of D+V <= -W along a trajectory.

    Returns max over steps of dV/dt + W minus the O(dt) allowance
    DINI_ALLOWANCE * dt * (1 + |V|); nonpositive (up to a small tolerance)
    certifies the decrease numerically.
    """
    if traj.V is None:
        raise ValueError("trajectory lacks recorded Lyapunov series")
    t = traj.times
    dt = np.diff(t)
    dV = np.diff(traj.V) / dt
    w = decrease_rate(traj.eta[:-1], traj.G1[:-1], traj.G2[:-1], cfg, eq)
    allowance = DINI_ALLOWANCE * dt * (1.0 + np.abs(traj.V[:-1]))
    return float(np.max(dV + w - allowance))


# ---------------------------------------------------------------------------
# closed-loop linearizations


def closed_loop_jacobian(kind: str, gains, eq: Equilibrium) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian at the origin of the reduced closed loop, with eigenvalues.

    control A: d/deta of (-beta*phi1 - (1+beta(1+eps))*phi2,
                          (1-beta)*phi1 - beta(1+eps)*phi2);
    control B: the saturated law linearizes with slope k = beta/delta.
    """
    lam1, lam2 = eq.lambda1, eq.lambda2
    if kind == "control_a":
        eps, beta = gains.eps, gains.beta
        jac = np.array(
            [
                [-beta / lam1, -(1.0 + beta * (1.0 + eps)) * lam2],
                [(1.0 - beta) / lam1, -beta * (1.0 + eps) * lam2],
            ]
        )
    elif kind == "control_b":
        eps = gains.eps
        k = gains.beta / gains.delta
        jac = np.array(
            [
                [-k / lam1, -(1.0 + eps) * lam2 * (1.0 + k)],
                [(1.0 - k) / lam1, -eps * lam2 - k * (1.0 + eps) * lam2],
            ]
        )
    else:
        raise ValueError(f"no closed-loop Jacobian for controller kind {kind!r}")
    tr = jac[0, 0] + jac[1, 1]
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    disc = complex(tr * tr - 4.0 * det)
    root = np.sqrt(disc)
    eigs = np.array([(tr + root) / 2.0, (tr - root) / 2.0])
    return jac, eigs


def control_b_discriminant(gains: GainsB, eq: Equilibrium) -> float:
    """Damping indicator of the saturated loop; positive means real poles."""
    k = gains.beta / gains.delta
    lam1, lam2 = eq.lambda1, eq.lambda2
    s_coeff = k * (1.0 / lam1 + lam2) + gains.eps * lam2 * (1.0 + k)
    return s_coeff**2 - 4.0 * (1.0 + gains.eps * (1.0 + k)) * lam2 / lam1
