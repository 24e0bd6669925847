"""Run configuration: INI-style file, schema validation, env overrides.

The file is plain ``configparser`` syntax (``[section]`` headers and
``key = value`` lines).  Every key has a default, unknown sections or keys
are rejected, and any value can be overridden from the environment through
variables named ``PREDPREY_<SECTION>_<KEY>`` (upper case).  Re-emitting the
effective configuration with :func:`effective_ini` materializes all defaults
and round-trips losslessly.  ``[controller]`` is a ``ControllerSpec`` as it
stands, and :func:`kernels_from_model` turns ``[model]`` into kernels.
"""
from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .controllers import KINDS, SENSORS, ControllerSpec
from .errors import ConfigError
from .model import AgeGrid, KernelSet, build_kernels, kernels_from_tables
from .simulate import NAMED_STARTS, SOLVERS

ENV_PREFIX = "PREDPREY"


@dataclass(frozen=True)
class ModelBlock:
    A: float = 1.0
    n_cells: int = 400
    mu_bar_1: float = 0.5
    k_bar_1: float = 3.0
    g_bar_1: float = 0.4
    mu_bar_2: float = 0.5
    k_bar_2: float = 3.0
    g_bar_2: float = 0.4
    kernel_table: str = ""  # optional CSV: a,mu1,k1,g1,mu2,k2,g2


@dataclass(frozen=True)
class EquilibriumBlock:
    u_star: float = 0.15


@dataclass(frozen=True)
class SimulationBlock:
    t_final: float = 20.0
    ic: str = "FQ"
    ic_log_offset_1: float = 0.0
    ic_log_slope_1: float = 0.0
    ic_log_offset_2: float = 0.0
    ic_log_slope_2: float = 0.0
    record_every: int = 1
    solver: str = "direct"  # direct | transformed | both


@dataclass(frozen=True)
class LyapunovBlock:
    gamma1: float = 0.0  # 0 means "use the default (twice the lower bound)"
    gamma2: float = 0.0
    varpi: float = 0.0  # 0 means beta/(2*delta)


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"
    profile_times: tuple[float, ...] = (0.0, 2.0, 5.0, 10.0, 20.0)


@dataclass(frozen=True)
class SweepBlock:
    controller: tuple[str, ...] = ()
    ic: tuple[str, ...] = ()
    eps: tuple[float, ...] = ()
    beta: tuple[float, ...] = ()
    delta: tuple[float, ...] = ()
    u_star: tuple[float, ...] = ()
    workers: int = 0  # 0 means "use the usable CPUs"


@dataclass(frozen=True)
class RunConfig:
    model: ModelBlock = field(default_factory=ModelBlock)
    equilibrium: EquilibriumBlock = field(default_factory=EquilibriumBlock)
    # the CLI runs control A unless told otherwise; ControllerSpec() is open loop
    controller: ControllerSpec = ControllerSpec(kind="control_a")
    simulation: SimulationBlock = field(default_factory=SimulationBlock)
    lyapunov: LyapunovBlock = field(default_factory=LyapunovBlock)
    output: OutputBlock = field(default_factory=OutputBlock)
    sweep: SweepBlock = field(default_factory=SweepBlock)


# every key's default, and each section's block type, in file order
_DEFAULTS = RunConfig()
_SECTIONS = {f.name: type(getattr(_DEFAULTS, f.name)) for f in fields(RunConfig)}

_CHOICES = {
    ("controller", "kind"): KINDS,
    ("controller", "sensor"): tuple(SENSORS),
    ("simulation", "ic"): (*NAMED_STARTS, "multiplier"),
    ("simulation", "solver"): (*SOLVERS, "both"),
}

# the (section, key) each [sweep] list overrides, in sweep_index.csv column order;
# every value of a list is parsed and checked as that key
SWEEP_AXES = {
    "controller": ("controller", "kind"),
    "ic": ("simulation", "ic"),
    "eps": ("controller", "eps"),
    "beta": ("controller", "beta"),
    "delta": ("controller", "delta"),
    "u_star": ("equilibrium", "u_star"),
}


def _parse_scalar(raw: str, pytype, where: str):
    raw = raw.strip()
    try:
        if pytype is int:
            return int(raw)
        if pytype is float:
            return float(raw)
        return raw
    except ValueError as err:
        raise ConfigError(f"bad value for {where}: {err}") from None


def _apply_entry(blocks: dict, section: str, key: str, raw: str):
    if section not in _SECTIONS:
        raise ConfigError(
            f"unknown config section [{section}]; expected one of "
            f"{sorted(_SECTIONS)}"
        )
    cls = _SECTIONS[section]
    # configparser lowercases keys; match field names case-insensitively
    names = {f.name.lower(): f.name for f in fields(cls)}
    if key.lower() not in names:
        raise ConfigError(
            f"unknown key {key!r} in section [{section}]; expected one of "
            f"{sorted(names.values())}"
        )
    key = names[key.lower()]
    where = f"{section}.{key}"
    target = SWEEP_AXES[key] if section == "sweep" and key in SWEEP_AXES else (section, key)
    default = getattr(getattr(_DEFAULTS, target[0]), target[1])
    if isinstance(getattr(getattr(_DEFAULTS, section), key), tuple):
        items = [s for s in (part.strip() for part in raw.split(",")) if s]
        elem = type(default[0]) if isinstance(default, tuple) else type(default)
        value = tuple(_parse_scalar(s, elem, where) for s in items)
    else:
        value = _parse_scalar(raw, type(default), where)
    choice = _CHOICES.get(target)
    for item in value if isinstance(value, tuple) else (value,):
        if choice is not None and item not in choice:
            raise ConfigError(f"{where} must be one of {choice}, got {item!r}")
    blocks[section][key] = value


def load_config(path: str | None = None, env: dict | None = None,
                text: str | None = None) -> RunConfig:
    """Parse a config file (or raw text), then apply environment overrides."""
    env = os.environ if env is None else env
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if text is not None:
            parser.read_string(text)
        elif path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as err:
        raise ConfigError(f"config syntax error: {err}") from None

    blocks: dict[str, dict] = {name: {} for name in _SECTIONS}
    for section in parser.sections():
        for key, raw in parser.items(section):
            _apply_entry(blocks, section.lower(), key.lower(), raw)

    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            var = f"{ENV_PREFIX}_{section.upper()}_{f.name.upper()}"
            if var in env:
                _apply_entry(blocks, section, f.name, env[var])

    try:
        cfg = RunConfig(**{name: replace(getattr(_DEFAULTS, name), **blocks[name])
                           for name in _SECTIONS})
    except TypeError as err:
        raise ConfigError(f"config construction failed: {err}") from None
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    m = cfg.model
    if not m.A > 0:
        raise ConfigError(f"model.A must be positive, got {m.A}")
    if m.n_cells < 1:
        raise ConfigError(f"model.n_cells must be >= 1, got {m.n_cells}")
    if not cfg.equilibrium.u_star > 0:
        raise ConfigError(f"equilibrium.u_star must be positive, got {cfg.equilibrium.u_star}")
    if not 0 < cfg.simulation.t_final < np.inf:
        raise ConfigError("simulation.t_final must be positive and finite, got "
                          f"{cfg.simulation.t_final}")
    if cfg.simulation.record_every < 1:
        raise ConfigError("simulation.record_every must be a positive integer")
    for key in ("ic_log_offset_1", "ic_log_slope_1", "ic_log_offset_2", "ic_log_slope_2"):
        value = getattr(cfg.simulation, key)
        if not np.isfinite(value):
            raise ConfigError(f"simulation.{key} must be finite, got {value}")
    if not all(t >= 0 for t in cfg.output.profile_times):
        raise ConfigError(f"output.profile_times must be >= 0, got {cfg.output.profile_times}")
    if cfg.sweep.workers < 0:
        raise ConfigError("sweep.workers must be nonnegative")


def kernels_from_model(model: ModelBlock) -> KernelSet:
    """The kernels of ``[model]`` on its age grid; a kernel table that cannot
    be read, or kernels the model rejects, are reported as ``ConfigError``."""
    grid = AgeGrid(A=model.A, n_cells=model.n_cells)
    try:
        if not model.kernel_table:
            return build_kernels(model.mu_bar_1, model.k_bar_1, model.g_bar_1,
                                 model.mu_bar_2, model.k_bar_2, model.g_bar_2, grid)
        table = np.loadtxt(model.kernel_table, delimiter=",", skiprows=1)
        if table.shape != (grid.n_nodes, 7):
            raise ConfigError(
                f"kernel table {model.kernel_table} must have {grid.n_nodes} rows and "
                "7 columns (a,mu1,k1,g1,mu2,k2,g2)"
            )
        if not np.allclose(table[:, 0], grid.nodes, atol=1e-12):
            raise ConfigError("kernel table ages do not match the grid nodes")
        # columns mu1,k1,g1,mu2,k2,g2 as (mu, k, g), each (2, n)
        return kernels_from_tables(grid, *table[:, 1:].T.reshape(2, 3, -1).swapaxes(0, 1))
    except (OSError, ValueError) as err:
        raise ConfigError(f"[model] kernels rejected: {err}") from None


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def effective_ini(cfg: RunConfig) -> str:
    """Emit the configuration with every default materialized."""
    out = io.StringIO()
    for section, cls in _SECTIONS.items():
        block = getattr(cfg, section)
        out.write(f"[{section}]\n")
        for f in fields(cls):
            out.write(f"{f.name} = {_format_value(getattr(block, f.name))}\n")
        out.write("\n")
    return out.getvalue()


def sweep_axes(cfg: RunConfig) -> dict[str, tuple]:
    """The non-empty [sweep] lists, keyed by the dotted key each overrides."""
    return {f"{section}.{key}": getattr(cfg.sweep, name)
            for name, (section, key) in SWEEP_AXES.items() if getattr(cfg.sweep, name)}


def override(cfg: RunConfig, **section_updates) -> RunConfig:
    """Functional update: override(cfg, controller={'kind': 'control_b'})."""
    updates = {}
    for section, kv in section_updates.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        updates[section] = replace(getattr(cfg, section), **kv)
    return replace(cfg, **updates)
