"""Dilution feedback laws and their gain constraints.

All laws act on the log-abundance pair eta through the saturating functions
phi_1, phi_2; evaluation broadcasts over numpy arrays so sweeps and region
plots can run vectorized.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import Equilibrium
from .errors import GainConstraintError
from .model import check_species_fn, quad, row_dot

# Exponent clamp: keeps exp() finite for absurd eta without affecting any
# realistic state (phi saturates long before |eta| = 700).
_ETA_CLIP = 700.0


def _e_neg(eta1):
    return np.exp(-np.clip(eta1, -_ETA_CLIP, _ETA_CLIP))


def _e_pos(eta2):
    return np.exp(np.clip(eta2, -_ETA_CLIP, _ETA_CLIP))


def phi(eta, eq: Equilibrium):
    """Saturating state functions (phi_1, phi_2).

    phi_1 = (1 - exp(-eta1))/lambda1 <= 1/lambda1 and
    phi_2 = lambda2*(exp(eta2) - 1) >= -lambda2.
    """
    eta = np.asarray(eta, dtype=float)
    phi1 = -np.expm1(-np.clip(eta[..., 0], -_ETA_CLIP, _ETA_CLIP)) / eq.lambda1
    phi2 = eq.lambda2 * np.expm1(np.clip(eta[..., 1], -_ETA_CLIP, _ETA_CLIP))
    return phi1, phi2


def big_phi(eta, eq: Equilibrium):
    """Integrals of phi from 0: both nonnegative, zero only at zero.

    expm1 keeps the small-argument quadratic behavior accurate; the clamp to
    zero removes the last ulp of cancellation noise.
    """
    eta = np.asarray(eta, dtype=float)
    e1 = np.clip(eta[..., 0], -_ETA_CLIP, _ETA_CLIP)
    e2 = np.clip(eta[..., 1], -_ETA_CLIP, _ETA_CLIP)
    p1 = np.maximum(0.0, (np.expm1(-e1) + e1) / eq.lambda1)
    p2 = np.maximum(0.0, eq.lambda2 * (np.expm1(e2) - e2))
    return p1, p2


@dataclass(frozen=True)
class GainsA:
    """Gains of the unrestricted gradient feedback (control A)."""

    eps: float
    beta: float

    def __post_init__(self):
        if not self.eps > 0:
            raise GainConstraintError(
                f"control A requires eps > 0, got eps={self.eps}"
            )
        bound = self.eps / (4.0 * (1.0 + self.eps))
        if not self.beta > bound:
            raise GainConstraintError(
                "control A requires beta > eps/(4*(1+eps)) = "
                f"{bound:.6g} for a positive definite decrease form; got beta={self.beta}"
            )


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


def control_A(eta, gains: GainsA, eq: Equilibrium):
    """u = u_star + beta*(phi_1 + (1+eps)*phi_2); may go negative."""
    phi1, phi2 = phi(eta, eq)
    return eq.u_star + gains.beta * (phi1 + (1.0 + gains.eps) * phi2)


def control_B(eta, gains: GainsB, eq: Equilibrium):
    """Saturated law u = u_star + eps*phi_2 + beta*varphi/sqrt(delta^2 + min(0,varphi)^2).

    Under the gain constraint eps*lambda2 + beta < u_star the value stays
    above u_star - eps*lambda2 - beta > 0 for every state.
    """
    phi1, phi2 = phi(eta, eq)
    varphi = phi1 + (1.0 + gains.eps) * phi2
    neg = np.minimum(0.0, varphi)
    # neg * neg, not neg**2: numpy squares a scalar by pow and an array by
    # x*x, so one state would round differently alone and in a batch
    return eq.u_star + gains.eps * phi2 + gains.beta * varphi / np.sqrt(
        gains.delta**2 + neg * neg
    )


def control_B_floor(gains: GainsB, eq: Equilibrium) -> float:
    """Analytic lower bound u_star - eps*lambda2 - beta of control B."""
    return eq.u_star - gains.eps * eq.lambda2 - gains.beta


def control_fblin(eta, k1: float, k2: float, eq: Equilibrium):
    """Exact feedback-linearizing law; kept for comparison runs only."""
    if not (k1 > 0 and k2 > 0):
        raise GainConstraintError(f"linearizing gains must be positive, got k1={k1}, k2={k2}")
    eta = np.asarray(eta, dtype=float)
    e1, e2 = eta[..., 0], eta[..., 1]
    phi1, phi2 = phi(eta, eq)
    den = eq.lambda2 * _e_pos(e2) + _e_neg(e1) / eq.lambda1
    num = (
        -k1 * (e1 - e2)
        + k2 * (phi1 + phi2)
        + eq.lambda2 * _e_pos(e2) * phi1
        - _e_neg(e1) / eq.lambda1 * phi2
    )
    return eq.u_star + num / den


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


def control_measured(y, sensors: SensorSpec, gains: GainsA, eq: Equilibrium):
    """Measurement-based approximation of control A from the scalar outputs
    y (..., 2), one per species.

    Exact when the shape deviations vanish; otherwise it neglects their
    decaying contribution, so no stability guarantee is attached.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("measurements must be strictly positive")
    term1 = (1.0 - sensors.y_star[0] / y[..., 0]) / eq.lambda1
    term2 = (1.0 + gains.eps) * eq.lambda2 * (1.0 - y[..., 1] / sensors.y_star[1])
    return eq.u_star + gains.beta * (term1 - term2)


KINDS = ("open_loop", "control_a", "control_b", "feedback_linearizing", "measured")


@dataclass(frozen=True)
class ControllerSpec:
    """Tagged choice of feedback law plus its gains."""

    kind: str = "open_loop"
    eps: float = 0.2
    beta: float = 0.6
    delta: float = 0.2
    k1: float = 1.0
    k2: float = 2.0
    sensor: str = "interaction"  # interaction: c_i = g_j; birth: c_i = k_i; uniform

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GainConstraintError(
                f"unknown controller kind {self.kind!r}; expected one of {KINDS}"
            )


class BoundController:
    """A ControllerSpec bound to an equilibrium.

    The eta-based laws are evaluated by ``u_from_eta``, the measurement-based
    law by ``u_from_state`` on the population profiles.  Both broadcast over
    leading axes: eta of shape (..., 2) and profiles of shape (..., 2, n) give
    u of shape (...), a float for one state.  Gain constraints are checked here,
    once, so the per-step evaluations stay unguarded.
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
            self.sensors = sensor_equilibrium(self._sensor_kernels(), eq)
            self._wc = eq.grid.weights * self.sensors.c

    def _sensor_kernels(self):
        k = self.eq.kernels
        if self.spec.sensor == "interaction":
            return k.g[::-1]
        if self.spec.sensor == "birth":
            return k.k
        if self.spec.sensor == "uniform":
            return np.ones((2, self.eq.grid.n_nodes))
        raise GainConstraintError(
            f"unknown sensor choice {self.spec.sensor!r}; expected "
            "interaction, birth or uniform"
        )

    @property
    def needs_profiles(self) -> bool:
        return self.spec.kind == "measured"

    def u_from_eta(self, eta):
        kind = self.spec.kind
        if kind == "open_loop":
            return self.eq.u_star
        if kind == "control_a":
            return control_A(eta, self.gains_a, self.eq)
        if kind == "control_b":
            return control_B(eta, self.gains_b, self.eq)
        if kind == "feedback_linearizing":
            return control_fblin(eta, self.spec.k1, self.spec.k2, self.eq)
        raise GainConstraintError(
            "the measurement-based law needs population profiles, not eta"
        )

    def u_from_state(self, x):
        if not self.needs_profiles:
            raise GainConstraintError(
                f"the {self.spec.kind} law acts on eta, not on population profiles"
            )
        return control_measured(row_dot(x, self._wc), self.sensors, self.gains_a, self.eq)
