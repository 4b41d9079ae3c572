"""Experiment configuration: YAML schema, validation, sweeps, manifests."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import scipy
import yaml

from .blas import blas_threads
from .charfun import MAX_FOCK_DIM
from .grids import load_mode_samples
from .states import state_library

__all__ = [
    "ConfigError",
    "load_config",
    "load_recipe",
    "dump_config",
    "config_hash",
    "validate_config",
    "sweep_axes",
    "set_by_path",
    "get_by_path",
    "RunManifest",
    "FLOAT_FORMAT",
]

# 17 significant digits, scientific: round-trips float64 exactly, so CSV
# output is byte-reproducible.
FLOAT_FORMAT = "{:.16e}"

_DEVICE_KEYS = {
    "identity": set(),
    "squeezer": {"r", "center", "width"},
    "opo": {"detuning", "decay", "pump"},
    "opa": {"gain", "pump_center_detuning", "pump_spectral_width"},
    "twpa": {"n_stages", "per_stage_gain", "total_gain", "stage"},
}


class ConfigError(ValueError):
    """Configuration failed validation; message carries the offending key."""


def load_config(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return cfg


def load_recipe(name: str) -> dict:
    """Load one of the bundled experiment recipes by name."""
    ref = resources.files("pulse_squeeze").joinpath(f"recipes/{name}.yaml")
    if not ref.is_file():
        available = sorted(
            p.name[:-5]
            for p in resources.files("pulse_squeeze").joinpath("recipes").iterdir()
            if p.name.endswith(".yaml")
        )
        raise ConfigError(f"unknown recipe {name!r}; available: {', '.join(available)}")
    return yaml.safe_load(ref.read_text(encoding="utf-8"))


def dump_config(cfg: dict) -> str:
    """Canonical serialization; parse -> dump -> parse is the identity."""
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()


def get_by_path(cfg: dict, dotted: str):
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    return node


def set_by_path(cfg: dict, dotted: str, value) -> dict:
    out = copy.deepcopy(cfg)
    node = out
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = value
    return out


def _axis_values(axis: dict) -> np.ndarray:
    if "values" in axis:
        return np.asarray([float(v) for v in axis["values"]])
    start, stop = float(axis["start"]), float(axis["stop"])
    points = int(axis["points"])
    if axis.get("log", False):
        if min(start, stop) <= 0:
            raise ValueError("log spacing needs positive start and stop")
        return np.geomspace(start, stop, points)
    return np.linspace(start, stop, points)


def sweep_axes(cfg: dict) -> list[tuple[str, np.ndarray]]:
    sweep = cfg.get("sweep") or {}
    axes = sweep.get("axes") or []
    return [(ax["name"], _axis_values(ax)) for ax in axes]


def validate_config(cfg: dict) -> None:
    """Raise ConfigError naming the bad key; silent on success."""
    device = cfg.get("device")
    if not isinstance(device, dict) or "kind" not in device:
        raise ConfigError("device.kind: missing")
    kind = device["kind"]
    if kind not in _DEVICE_KEYS:
        raise ConfigError(f"device.kind: unknown device {kind!r}")
    allowed = _DEVICE_KEYS[kind] | {"kind"}
    for key in device:
        if key not in allowed:
            raise ConfigError(f"device.{key}: not a parameter of device {kind!r}")
    grid = cfg.get("grid")
    for key in ("t_start", "t_end", "n_points"):
        if not isinstance(grid, dict) or key not in grid:
            raise ConfigError(f"grid.{key}: missing")
    if "input" not in cfg or "state" not in cfg["input"]:
        raise ConfigError("input.state: missing")
    try:
        state_library(cfg["input"]["state"])
    except KeyError as exc:
        raise ConfigError(f"input.state: missing parameter {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"input.state: {exc}") from None
    fock_dim = cfg.get("fock_dim")
    if fock_dim is not None and (type(fock_dim) is not int or not 1 <= fock_dim <= MAX_FOCK_DIM):
        raise ConfigError(f"fock_dim: need an integer in 1..{MAX_FOCK_DIM}, got {fock_dim!r}")
    mode = cfg.get("output_mode", "auto_v1")
    if mode not in ("auto_v1", "auto_v2") and not mode.startswith("file:"):
        raise ConfigError(f"output_mode: unknown selector {mode!r}")
    if mode.startswith("file:"):
        try:
            rows = len(load_mode_samples(mode[5:]))
        except (OSError, ValueError, IndexError) as exc:
            raise ConfigError(f"output_mode: cannot read mode file: {exc}") from None
        if rows != grid["n_points"]:
            raise ConfigError(f"output_mode: {rows} rows, grid.n_points is {grid['n_points']}")
    axes = (cfg.get("sweep") or {}).get("axes") or []
    if len(axes) > 2:
        raise ConfigError("sweep.axes: at most two sweep axes are supported")
    for i, ax in enumerate(axes):
        name = ax.get("name")
        if not name:
            raise ConfigError(f"sweep.axes[{i}].name: missing")
        try:
            get_by_path(cfg, name)
        except KeyError:
            raise ConfigError(
                f"sweep.axes[{i}].name: {name!r} does not exist for this config"
            ) from None
        if "values" not in ax and not {"start", "stop", "points"} <= set(ax):
            raise ConfigError(
                f"sweep.axes[{i}]: need either 'values' or 'start/stop/points'"
            )
        try:
            values = _axis_values(ax)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"sweep.axes[{i}]: {exc}") from None
        if values.size == 0:
            raise ConfigError(f"sweep.axes[{i}]: no values")


def _run_environment() -> dict:
    """What a run's speed and parallel layout depend on: cores, the thread
    count of each loaded OpenBLAS, the sweep worker setting, versions."""
    return {
        "cores": os.cpu_count(),
        "blas_threads": blas_threads(),
        "PULSE_SQUEEZE_WORKERS": os.environ.get("PULSE_SQUEEZE_WORKERS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class RunManifest:
    """Record of one CLI run: config identity, emitted files, failures and
    the environment it ran in."""

    config_hash: str
    tool_version: str
    created_utc: str = field(
        default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    )
    files: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    environment: dict = field(default_factory=_run_environment)

    def add_file(self, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.files[path.name] = digest

    def write(self, path: Path) -> None:
        payload = {
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "created_utc": self.created_utc,
            "files": self.files,
            "failures": self.failures,
            "environment": self.environment,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
