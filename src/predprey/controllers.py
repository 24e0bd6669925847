"""Dilution feedback laws and their gain constraints.

The eta laws act on the log-abundance pair eta through the saturating
functions phi_1, phi_2; the measured law acts on sensor outputs
y_i = e^{eta_i}*r_i of the profiles, r_i the sensor factors.  Each law is one
formula over a namespace ``ops`` of five primitives: the public laws
(``control_A``, ``control_B``, ``phi``, ``control_measured``) pass numpy and
broadcast over arrays for analysis and region plots, and
``BoundController.u_from_eta`` and ``u_from_state``, which the simulation
calls once per step, pass ``FloatOps``, the stdlib's, and run on floats.  The
two forms of a law agree to rounding: their exp and expm1 may differ in the
last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import Equilibrium
from .errors import GainConstraintError, NumericalError
from .model import check_species_fn, quad

# Exponent clamp: keeps exp() finite for absurd eta without affecting any
# realistic state (phi saturates long before |eta| = 700).
_ETA_CLIP = 700.0


class FloatOps:
    """The primitives of the laws on floats, from the stdlib: on a finite
    float each is the array primitive of its name to rounding (min and max
    treat nan otherwise; the simulation's nan guard runs first).  exp returns
    inf where ``math.exp`` overflows, as the array exp does, so a diverging
    march reaches its nan guard; the laws' expm1 reads a clamped eta and
    cannot overflow."""

    @staticmethod
    def exp(x):
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf

    expm1, minimum, maximum, sqrt = math.expm1, min, max, math.sqrt


def _clamp(e, ops):
    return ops.minimum(ops.maximum(e, -_ETA_CLIP), _ETA_CLIP)


def clamp_eta(eta):
    """eta (..., 2) as floats clamped to [-700, 700]: bitwise np.clip, which
    costs several times as much, and nan stays nan."""
    return _clamp(np.asarray(eta, dtype=float), np)


def _phi(e1, e2, eq: Equilibrium, ops):
    """(phi_1, phi_2) of the clamped components e1, e2."""
    return -ops.expm1(-e1) / eq.lambda1, eq.lambda2 * ops.expm1(e2)


def phi(eta, eq: Equilibrium):
    """Saturating state functions (phi_1, phi_2).

    phi_1 = (1 - exp(-eta1))/lambda1 <= 1/lambda1 and
    phi_2 = lambda2*(exp(eta2) - 1) >= -lambda2.
    """
    e = clamp_eta(eta)
    return _phi(e[..., 0], e[..., 1], eq, np)


def big_phi(eta, eq: Equilibrium):
    """Integrals of phi from 0: both nonnegative, zero only at zero.

    expm1 keeps the small-argument quadratic behavior accurate; the clamp to
    zero removes the last ulp of cancellation noise.
    """
    e = clamp_eta(eta)
    e1, e2 = e[..., 0], e[..., 1]
    p1 = np.maximum(0.0, (np.expm1(-e1) + e1) / eq.lambda1)
    p2 = np.maximum(0.0, eq.lambda2 * (np.expm1(e2) - e2))
    return p1, p2


@dataclass(frozen=True)
class GainsA:
    """Gains of the unrestricted gradient feedback (control A)."""

    eps: float
    beta: float

    def __post_init__(self):
        if not 0 < self.eps < math.inf:
            raise GainConstraintError(
                f"control A requires eps > 0 and finite, got eps={self.eps}"
            )
        bound = self.eps / (4.0 * (1.0 + self.eps))
        if not self.beta > bound:
            raise GainConstraintError(
                "control A requires beta > eps/(4*(1+eps)) = "
                f"{bound:.6g} for a positive definite decrease form; got beta={self.beta}"
            )
        # the analysis weighs the histories by gamma_circ: past the range of a
        # float it overflows, or lambda_min(Q) rounds to 0
        try:
            finite = self.gamma_circ() < math.inf
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise GainConstraintError(
                "control A's analysis needs a finite reference weight "
                f"(1+eps)/(2*lambda_min(Q)); eps={self.eps} and beta={self.beta} "
                "overflow it"
            )

    def lambda_min_q(self) -> float:
        """Smaller eigenvalue of the decrease form (``lyapunov.q_matrix``), by
        rationalized closed form, in Python floats: past their range it
        raises and does not warn."""
        eps, beta = float(self.eps), float(self.beta)
        c = 1.0 + (1.0 + eps) ** 2
        num = eps * (4.0 * (1.0 + eps) * beta - eps)
        disc = beta * beta * c * c - num
        return 0.5 * num / (beta * c + math.sqrt(disc))

    def gamma_circ(self) -> float:
        """Reference weight (1+eps) / (2*lambda_min(Q)) of the gradient mode."""
        return (1.0 + self.eps) / (2.0 * self.lambda_min_q())


@dataclass(frozen=True)
class GainsB:
    """Gains of the saturated positive-dilution feedback (control B)."""

    eps: float
    beta: float
    delta: float

    def __post_init__(self):
        if not self.eps > 0:
            raise GainConstraintError(f"control B requires eps > 0, got eps={self.eps}")
        if self.beta < 0:
            raise GainConstraintError(f"control B requires beta >= 0, got beta={self.beta}")
        if not self.delta > 0:
            raise GainConstraintError(f"control B requires delta > 0, got delta={self.delta}")

    def validate(self, eq: Equilibrium) -> "GainsB":
        lhs = self.eps * eq.lambda2 + self.beta
        if not lhs < eq.u_star:
            raise GainConstraintError(
                "control B requires eps*lambda2 + beta < u_star to keep the "
                f"dilution positive; got {lhs:.6g} >= u_star = {eq.u_star:.6g}"
            )
        return self


def _components(eta):
    """The two components of eta (..., 2), as float arrays."""
    eta = np.asarray(eta, dtype=float)
    return eta[..., 0], eta[..., 1]


def _control_a(e1, e2, gains: GainsA, eq: Equilibrium, ops):
    phi1, phi2 = _phi(_clamp(e1, ops), _clamp(e2, ops), eq, ops)
    return eq.u_star + gains.beta * (phi1 + (1.0 + gains.eps) * phi2)


def control_A(eta, gains: GainsA, eq: Equilibrium):
    """u = u_star + beta*(phi_1 + (1+eps)*phi_2); may go negative."""
    return _control_a(*_components(eta), gains, eq, np)


def _control_b(e1, e2, gains: GainsB, eq: Equilibrium, ops):
    phi1, phi2 = _phi(_clamp(e1, ops), _clamp(e2, ops), eq, ops)
    varphi = phi1 + (1.0 + gains.eps) * phi2
    neg = ops.minimum(0.0, varphi)
    return eq.u_star + gains.eps * phi2 + gains.beta * varphi / ops.sqrt(
        gains.delta**2 + neg * neg
    )


def control_B(eta, gains: GainsB, eq: Equilibrium):
    """Saturated law u = u_star + eps*phi_2 + beta*varphi/sqrt(delta^2 + min(0,varphi)^2).

    Under the gain constraint eps*lambda2 + beta < u_star the value stays
    above u_star - eps*lambda2 - beta > 0 for every state.
    """
    return _control_b(*_components(eta), gains, eq, np)


def control_B_floor(gains: GainsB, eq: Equilibrium) -> float:
    """Analytic lower bound u_star - eps*lambda2 - beta of control B."""
    return eq.u_star - gains.eps * eq.lambda2 - gains.beta


@dataclass(frozen=True)
class SensorSpec:
    """Sensor kernels ``c`` (2, n) with their equilibrium outputs ``y_star`` (2,)."""

    c: np.ndarray
    y_star: np.ndarray


def sensor_equilibrium(c, eq: Equilibrium) -> SensorSpec:
    """Equilibrium outputs y_i_star for the sensor kernels c (2, n).

    Stored as quad(c_i * x_i_star); this agrees with the closed forms

        y1* = quad(c1*xt1) / ((zeta2 - u*) quad(g2*xt1)),
        y2* = (zeta1 - u*) quad(c2*xt2) / quad(g1*xt2),

    because the newborn densities are built from the same integrals.
    """
    grid = eq.grid
    c = check_species_fn(c, grid, "sensor kernels")
    for i, row in enumerate(c, start=1):
        if np.any(row < 0):
            raise ValueError(f"sensor kernel c{i} must be nonnegative")
        if not quad(row, grid) > 0:
            raise ValueError(f"sensor kernel c{i} must have a positive integral")
    return SensorSpec(c=c, y_star=quad(c * eq.x_star, grid))


_NONPOSITIVE = "measurements must be strictly positive"


def _control_measured(y1, y2, y_star, gains: GainsA, eq: Equilibrium):
    term1 = (1.0 - y_star[0] / y1) / eq.lambda1
    term2 = (1.0 + gains.eps) * eq.lambda2 * (1.0 - y2 / y_star[1])
    return eq.u_star + gains.beta * (term1 - term2)


def control_measured(y, sensors: SensorSpec, gains: GainsA, eq: Equilibrium):
    """Measurement-based approximation of control A from the scalar outputs
    y (..., 2), one per species.

    Exact when the shape deviations vanish; otherwise it neglects their
    decaying contribution, so no stability guarantee is attached.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError(_NONPOSITIVE)
    return _control_measured(y[..., 0], y[..., 1], sensors.y_star, gains, eq)


KINDS = ("open_loop", "control_a", "control_b", "measured")

# the sensor kernels c (2, n) of each sensor choice of the measured law
SENSORS = {
    "interaction": lambda eq: eq.kernels.g[::-1],  # c_i = g_j
    "birth": lambda eq: eq.kernels.k,  # c_i = k_i
    "uniform": lambda eq: np.ones((2, eq.grid.n_nodes)),
}


@dataclass(frozen=True)
class ControllerSpec:
    """Tagged choice of feedback law plus its gains."""

    kind: str = "open_loop"
    eps: float = 0.2
    beta: float = 0.6
    delta: float = 0.2
    sensor: str = "interaction"  # one of SENSORS

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GainConstraintError(
                f"unknown controller kind {self.kind!r}; expected one of {KINDS}"
            )


class BoundController:
    """A ControllerSpec bound to an equilibrium.

    The eta laws are evaluated by ``u_from_eta`` on one state's two
    components, the measured law by ``u_from_state`` on them and the state's
    two sensor factors.  Gain constraints are checked here, once, so the
    per-step evaluations stay unguarded.
    """

    def __init__(self, spec: ControllerSpec, eq: Equilibrium):
        self.spec = spec
        self.eq = eq
        self.gains_a = None
        self.gains_b = None
        self.sensors = None
        if spec.kind in ("control_a", "measured"):
            self.gains_a = GainsA(eps=spec.eps, beta=spec.beta)
        if spec.kind == "control_b":
            self.gains_b = GainsB(eps=spec.eps, beta=spec.beta, delta=spec.delta).validate(eq)
        if spec.kind == "measured":
            if spec.sensor not in SENSORS:
                raise GainConstraintError(
                    f"unknown sensor choice {spec.sensor!r}; expected one of {tuple(SENSORS)}"
                )
            self.sensors = sensor_equilibrium(SENSORS[spec.sensor](eq), eq)
            self.weights = eq.grid.weights * self.sensors.c
            self._y_star = tuple(self.sensors.y_star.tolist())

    def u_from_eta(self, eta1, eta2):
        """u, a float, of the state (eta1, eta2), two finite floats: the
        public array law's u of that state, to rounding."""
        kind = self.spec.kind
        if kind == "open_loop":
            return self.eq.u_star
        if kind == "control_a":
            return _control_a(eta1, eta2, self.gains_a, self.eq, FloatOps)
        if kind == "control_b":
            return _control_b(eta1, eta2, self.gains_b, self.eq, FloatOps)
        raise GainConstraintError(
            "the measurement-based law needs sensor factors, not eta alone"
        )

    def u_from_state(self, eta1, eta2, r1, r2):
        """The measured law's u, a float: ``control_measured``, to rounding,
        of the outputs y_i = e^{eta_i}*r_i, the profiles' dots with
        ``weights`` (w*c), of the finite floats eta1, eta2 and sensor factors
        r1, r2.  A y_i <= 0 raises a ``NumericalError`` tagged
        ``measurement_nonpositive``."""
        if self.sensors is None:
            raise GainConstraintError(f"the {self.spec.kind} law acts on eta alone")
        y1, y2 = FloatOps.exp(eta1) * r1, FloatOps.exp(eta2) * r2
        if y1 <= 0 or y2 <= 0:
            raise NumericalError(_NONPOSITIVE, reason="measurement_nonpositive")
        return _control_measured(y1, y2, self._y_star, self.gains_a, self.eq)
