"""Two-species age-structured predator-prey simulation and dilution control."""

from .model import (
    AgeGrid,
    KernelSet,
    PopulationState,
    bc_residual,
    build_kernels,
    kernels_from_tables,
    quad,
)
from .equilibrium import (
    Equilibrium,
    compute_equilibrium,
    open_loop_jacobian_eigs,
    solve_lotka_sharpe,
)
from .transform import (
    AdjointData,
    TransformedState,
    check_S,
    compute_pi0,
    pi_functional,
    reconstruct,
    to_transformed,
)
from .controllers import (
    ControllerSpec,
    GainsA,
    GainsB,
    SensorSpec,
    control_A,
    control_B,
    control_measured,
    sensor_equilibrium,
)
from .simulate import (
    ICSpec,
    Setup,
    SimConfig,
    Trajectory,
    build_setup,
    cross_validate,
    ic_from_spec,
    simulate_direct,
    simulate_transformed,
)
from . import lyapunov

__version__ = "0.1.0"

__all__ = [
    "AgeGrid",
    "KernelSet",
    "PopulationState",
    "bc_residual",
    "build_kernels",
    "kernels_from_tables",
    "quad",
    "Equilibrium",
    "compute_equilibrium",
    "open_loop_jacobian_eigs",
    "solve_lotka_sharpe",
    "AdjointData",
    "TransformedState",
    "check_S",
    "compute_pi0",
    "pi_functional",
    "reconstruct",
    "to_transformed",
    "ControllerSpec",
    "GainsA",
    "GainsB",
    "SensorSpec",
    "control_A",
    "control_B",
    "control_measured",
    "sensor_equilibrium",
    "ICSpec",
    "Setup",
    "SimConfig",
    "Trajectory",
    "build_setup",
    "cross_validate",
    "ic_from_spec",
    "simulate_direct",
    "simulate_transformed",
    "lyapunov",
]
