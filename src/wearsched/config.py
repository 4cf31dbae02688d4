"""Experiment configuration: YAML files with strict validation, dotted-path
overrides, and the model objects they describe.

Sections: ``system`` (explicit matrices, or the two-dimensional benchmark
family selected by ``beta``), ``channel``, ``truncation``, ``solver``,
``simulate``. Unknown keys are rejected so typos cannot silently change an
experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .channel import ChannelModel
from .errors import ConfigError, WearschedError
from .linear_model import SystemModel
from .mdp import Truncation

SOLVER_METHODS = ("rvi", "spi", "threshold-heuristic")


@dataclass(frozen=True)
class SimulateConfig:
    epochs: int = 100_000
    seed: int = 0
    replications: int = 1


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A validated configuration: the models it describes, each built once,
    the solver method, the simulation settings, and ``echo``, the normalized
    configuration, which loads again to this run. Two configs are the same
    experiment when their echoes are equal."""

    system: SystemModel
    channel: ChannelModel
    truncation: Truncation
    method: str
    simulate: SimulateConfig
    echo: dict


def _field_error(path: str, message: str) -> ConfigError:
    return ConfigError(field=path, message=message)


def _require_keys(section: dict, path: str, known: set[str], required: set[str]) -> None:
    for k in section:
        if k not in known:
            raise _field_error(f"{path}.{k}", "unknown key")
    for k in required:
        if k not in section:
            raise _field_error(f"{path}.{k}", "missing required key")


def _number(section: dict, path: str, key: str, default=None, *, integer=False, minimum=None,
            maximum=None, strict_min=False):
    if key not in section:
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _field_error(f"{path}.{key}", f"expected a number, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise _field_error(f"{path}.{key}", f"expected a finite number, got {v!r}")
    if integer and int(v) != v:
        raise _field_error(f"{path}.{key}", f"expected an integer, got {v!r}")
    if minimum is not None and (v <= minimum if strict_min else v < minimum):
        op = ">" if strict_min else ">="
        raise _field_error(f"{path}.{key}", f"must be {op} {minimum}, got {v!r}")
    if maximum is not None and v > maximum:
        raise _field_error(f"{path}.{key}", f"must be <= {maximum}, got {v!r}")
    return int(v) if integer else float(v)


def _matrix(section: dict, path: str, key: str):
    v = section.get(key)
    if v is None:
        return None
    try:
        m = np.array(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _field_error(f"{path}.{key}", f"expected a matrix (list of rows): {exc}") from exc
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise _field_error(f"{path}.{key}", "expected a matrix (list of rows)")
    return m


def _build_system(section: dict) -> SystemModel:
    try:
        if "beta" in section:
            a = np.array([[float(section["beta"]), 0.5], [0.0, 0.8]])
            return SystemModel(A=a, C=np.array([[1.0, 1.0]]), Q=np.eye(2), R=np.array([[1.0]]))
        return SystemModel(A=section["a"], C=section["c"], Q=section["q"], R=section["r"])
    except WearschedError as exc:
        raise _field_error("system", str(exc)) from exc


def _validate_system(section, path="system") -> dict:
    if not isinstance(section, dict):
        raise _field_error(path, "expected a mapping")
    if "beta" in section:
        _require_keys(section, path, {"beta"}, {"beta"})
        _number(section, path, "beta", minimum=0.0, strict_min=True)
        return {"beta": float(section["beta"])}
    _require_keys(section, path, {"a", "c", "q", "r"}, {"a", "c", "q", "r"})
    out = {}
    for key in ("a", "c", "q", "r"):
        m = _matrix(section, path, key)
        if m is None:
            raise _field_error(f"{path}.{key}", "missing required key")
        out[key] = m.tolist()
    return out


def _validate_channel(section, path="channel") -> dict:
    if not isinstance(section, dict):
        raise _field_error(path, "expected a mapping")
    known = {"theta_max", "theta_min", "alpha", "tau_d", "delta_r"}
    _require_keys(section, path, known, known)
    theta_max = _number(section, path, "theta_max", minimum=0.0, maximum=1.0)
    theta_min = _number(section, path, "theta_min", minimum=0.0, maximum=1.0)
    if theta_min > theta_max:
        raise _field_error(f"{path}.theta_min", f"theta_min={theta_min} exceeds theta_max={theta_max}")
    return {
        "theta_max": theta_max,
        "theta_min": theta_min,
        "alpha": _number(section, path, "alpha", minimum=0.0, strict_min=True),
        "tau_d": _number(section, path, "tau_d", integer=True, minimum=2),
        "delta_r": _number(section, path, "delta_r", integer=True, minimum=2),
    }


def _validate_truncation(section, path="truncation") -> dict:
    if not isinstance(section, dict):
        raise _field_error(path, "expected a mapping")
    known = {"tau_max", "delta_max"}
    _require_keys(section, path, known, known)
    return {
        "tau_max": _number(section, path, "tau_max", integer=True, minimum=1),
        "delta_max": _number(section, path, "delta_max", integer=True, minimum=1),
    }


def _validate_solver(section, path="solver") -> dict:
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise _field_error(path, "expected a mapping")
    _require_keys(section, path, {"method"}, set())
    method = section.get("method", "rvi")
    if method not in SOLVER_METHODS:
        raise _field_error(f"{path}.method", f"must be one of {SOLVER_METHODS}, got {method!r}")
    return {"method": method}


def _validate_simulate(section, path="simulate") -> dict:
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise _field_error(path, "expected a mapping")
    known = {"epochs", "seed", "replications"}
    _require_keys(section, path, known, set())
    return {
        "epochs": _number(section, path, "epochs", SimulateConfig.epochs, integer=True, minimum=1),
        "seed": _number(
            section, path, "seed", SimulateConfig.seed, integer=True, minimum=0, maximum=2**64 - 1
        ),
        "replications": _number(
            section, path, "replications", SimulateConfig.replications, integer=True, minimum=1
        ),
    }


def validate_config_dict(data: dict) -> ExperimentConfig:
    """Validate a raw configuration mapping and build the models it describes.

    Each section validator returns its section normalized, and together
    they are the config echo. The channel and truncation validators check
    every invariant of ``ChannelModel`` and ``Truncation``; the system model
    is built here, and the grid's headroom for one wear step and one renewal
    downtime is checked here. So every invalid configuration fails with a
    field-annotated error before any work starts.
    """
    if not isinstance(data, dict):
        raise ConfigError(field="<root>", message="configuration must be a mapping")
    known = {"system", "channel", "truncation", "solver", "simulate"}
    for k in data:
        if k not in known:
            raise _field_error(k, "unknown section")
    for k in ("system", "channel", "truncation"):
        if k not in data:
            raise _field_error(k, "missing required section")

    echo = {
        "system": _validate_system(data["system"]),
        "channel": _validate_channel(data["channel"]),
        "truncation": _validate_truncation(data["truncation"]),
        "solver": _validate_solver(data.get("solver")),
        "simulate": _validate_simulate(data.get("simulate")),
    }
    system = _build_system(echo["system"])
    channel, truncation = echo["channel"], echo["truncation"]
    # Headroom: every action has an in-range successor before clamping dominates.
    headroom = (("tau_max", "tau_d", "wear per transmission"), ("delta_max", "delta_r", "the renewal downtime"))
    for bound, step, what in headroom:
        if truncation[bound] < 1 + channel[step]:
            raise _field_error(
                f"truncation.{bound}",
                f"{bound}={truncation[bound]} leaves no headroom for {what} (need >= {1 + channel[step]})",
            )
    return ExperimentConfig(
        system=system,
        channel=ChannelModel(**channel),
        truncation=Truncation(**truncation),
        method=echo["solver"]["method"],
        simulate=SimulateConfig(**echo["simulate"]),
        echo=echo,
    )


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply repeatable ``--set section.key=value`` overrides to a raw mapping.

    Values parse as YAML scalars/lists, so ``--set channel.alpha=0.05`` and
    ``--set system.c=[[1.0,1.0]]`` both work.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(field=item, message="override must look like section.key=value")
        dotted, value = item.split("=", 1)
        keys = dotted.strip().split(".")
        if not all(keys):
            raise ConfigError(field=dotted, message="empty key path in override")
        try:
            parsed = yaml.safe_load(value)
        except yaml.YAMLError as exc:
            raise ConfigError(field=dotted, message=f"unparseable value {value!r}: {exc}") from exc
        if isinstance(parsed, str):
            # YAML 1.1 leaves bare scientific notation like 1e-8 as a string.
            try:
                parsed = float(parsed)
            except ValueError:
                pass
        node = data
        for k in keys[:-1]:
            nxt = node.get(k)
            if nxt is None:
                nxt = {}
                node[k] = nxt
            if not isinstance(nxt, dict):
                raise ConfigError(field=dotted, message=f"cannot descend into non-mapping {k!r}")
            node = nxt
        node[keys[-1]] = parsed
    return data


def load_config(path: str | Path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Load, override and validate an experiment configuration file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(field="<config>", message=f"configuration file not found: {p}")
    try:
        data = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(field="<config>", message=f"invalid YAML: {exc}") from exc
    if data is None:
        data = {}
    if overrides:
        if not isinstance(data, dict):
            raise ConfigError(field="<root>", message="configuration must be a mapping")
        data = apply_overrides(data, overrides)
    return validate_config_dict(data)
