"""Run configuration: INI-style file, schema validation, env overrides.

The file is plain ``configparser`` syntax (``[section]`` headers and
``key = value`` lines).  Every key has a default, unknown sections or keys
are rejected, and any value can be overridden from the environment through
variables named ``PREDPREY_<SECTION>_<KEY>`` (upper case).  Re-emitting the
effective configuration with :func:`effective_ini` materializes all defaults
and round-trips losslessly.
"""
from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError

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
class ControllerBlock:
    kind: str = "control_a"
    eps: float = 0.2
    beta: float = 0.6
    delta: float = 0.2
    k1: float = 1.0
    k2: float = 2.0
    sensor: str = "interaction"


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
    mode: str = "auto"  # auto | gradient | saturated
    gamma1: float = 0.0  # 0 means "use the default (twice the lower bound)"
    gamma2: float = 0.0
    sigma1: float = 0.0  # 0 means "use the certified value"
    sigma2: float = 0.0
    varpi: float = 0.0  # 0 means beta/(2*delta)


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"
    plot: bool = False
    profile_times: tuple[float, ...] = (0.0, 2.0, 5.0, 10.0, 20.0)


@dataclass(frozen=True)
class SweepBlock:
    controller: tuple[str, ...] = ()
    ic: tuple[str, ...] = ()
    eps: tuple[float, ...] = ()
    beta: tuple[float, ...] = ()
    delta: tuple[float, ...] = ()
    u_star: tuple[float, ...] = ()
    workers: int = 0  # 0 means "use the cpu count"


@dataclass(frozen=True)
class RunConfig:
    model: ModelBlock = field(default_factory=ModelBlock)
    equilibrium: EquilibriumBlock = field(default_factory=EquilibriumBlock)
    controller: ControllerBlock = field(default_factory=ControllerBlock)
    simulation: SimulationBlock = field(default_factory=SimulationBlock)
    lyapunov: LyapunovBlock = field(default_factory=LyapunovBlock)
    output: OutputBlock = field(default_factory=OutputBlock)
    sweep: SweepBlock = field(default_factory=SweepBlock)


_SECTIONS = {
    "model": ModelBlock,
    "equilibrium": EquilibriumBlock,
    "controller": ControllerBlock,
    "simulation": SimulationBlock,
    "lyapunov": LyapunovBlock,
    "output": OutputBlock,
    "sweep": SweepBlock,
}

_CHOICES = {
    ("controller", "kind"): (
        "open_loop",
        "control_a",
        "control_b",
        "feedback_linearizing",
        "measured",
    ),
    ("controller", "sensor"): ("interaction", "birth", "uniform"),
    ("simulation", "ic"): ("FQ", "SQ", "equilibrium", "multiplier"),
    ("simulation", "solver"): ("direct", "transformed", "both"),
    ("lyapunov", "mode"): ("auto", "gradient", "saturated"),
}
# each sweep axis value overrides one key and must pass that key's choices
_CHOICES[("sweep", "controller")] = _CHOICES[("controller", "kind")]
_CHOICES[("sweep", "ic")] = _CHOICES[("simulation", "ic")]


def _parse_scalar(raw: str, pytype, where: str):
    raw = raw.strip()
    try:
        if pytype is bool:
            low = raw.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if pytype is int:
            return int(raw)
        if pytype is float:
            return float(raw)
        return raw
    except ValueError as err:
        raise ConfigError(f"bad value for {where}: {err}") from None


def _parse_value(raw: str, default, where: str):
    if isinstance(default, tuple):
        items = [s for s in (part.strip() for part in raw.split(",")) if s]
        elem = float if (default == () or isinstance(default[0], float)) else str
        if where.startswith("sweep.controller") or where.startswith("sweep.ic"):
            elem = str
        return tuple(_parse_scalar(s, elem, where) for s in items)
    return _parse_scalar(raw, type(default), where)


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
    default = getattr(cls(), key)
    value = _parse_value(raw, default, f"{section}.{key}")
    choice = _CHOICES.get((section, key))
    for item in value if isinstance(value, tuple) else (value,):
        if choice is not None and item not in choice:
            raise ConfigError(f"{section}.{key} must be one of {choice}, got {item!r}")
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
        cfg = RunConfig(**{name: cls(**blocks[name]) for name, cls in _SECTIONS.items()})
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
    if not cfg.simulation.t_final > 0:
        raise ConfigError(f"simulation.t_final must be positive, got {cfg.simulation.t_final}")
    if cfg.simulation.record_every < 1:
        raise ConfigError("simulation.record_every must be a positive integer")
    if cfg.sweep.workers < 0:
        raise ConfigError("sweep.workers must be nonnegative")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
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


def override(cfg: RunConfig, **section_updates) -> RunConfig:
    """Functional update: override(cfg, controller={'kind': 'control_b'})."""
    updates = {}
    for section, kv in section_updates.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        updates[section] = replace(getattr(cfg, section), **kv)
    return replace(cfg, **updates)
