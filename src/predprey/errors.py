"""Exception types shared across the package."""


class PredPreyError(Exception):
    """Base class for all package errors."""


class ConfigError(PredPreyError):
    """Invalid configuration: bad schema, bad value, or violated gain constraint."""


class GainConstraintError(ConfigError):
    """A feedback-gain inequality is violated; the message echoes the inequality."""


class InfeasibleSetpointError(ConfigError):
    """Requested equilibrium dilution lies outside the admissible interval."""

    def __init__(self, u_star, interval):
        self.u_star = u_star
        self.interval = interval
        super().__init__(
            f"equilibrium dilution u_star={u_star:.6g} is infeasible: the renewal "
            f"exponents require u_star in (0, min(zeta1, zeta2)) = "
            f"({interval[0]:.6g}, {interval[1]:.6g})"
        )

    def __reduce__(self):
        # its args hold the message only, which __init__ does not take
        return type(self), (self.u_star, self.interval)


class NumericalError(PredPreyError):
    """A simulation or solve failed numerically.

    Carries a machine-readable record: the time of failure and a reason tag.
    """

    def __init__(self, message, t=None, reason=None):
        self.t = t
        self.reason = reason
        if t is not None:
            message = f"{message} (t={t:.6g})"
        super().__init__(message)


class VerificationFailure(PredPreyError):
    """One or more acceptance checks failed in `predprey verify`."""
