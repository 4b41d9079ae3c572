"""Experiment configuration: YAML schema, validation, sweeps, manifests.

One table per config block declares its keys; the same parsers validate a
config and feed the pipeline's builders.  The device and the input state each
have one table of kinds: a block's ``kind`` picks its row, which parses the other
keys to the kind's builder (a device's takes the grid, a state's no argument)."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import time
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import scipy
import yaml

from .blas import blas_threads
from .charfun import MAX_FOCK_DIM
from .devices import (GaussianPump, OpaParams, OpoParams, TwpaParams, build_opa, build_opo,
                      build_twpa)
from .grids import TemporalGrid, gaussian_mode, integral, load_mode_samples
from .kernels import ideal_squeezer_kernels, identity_kernels
from .states import (DEFAULT_DIM, coherent_state, even_cat_state, fock_state, squeezed_state,
                     vacuum_state)

__all__ = [
    "ConfigError",
    "load_config",
    "load_recipe",
    "dump_config",
    "config_hash",
    "dump_hash",
    "validate_config",
    "parse_config",
    "sweep_axes",
    "set_by_path",
    "RunManifest",
    "FLOAT_FORMAT",
]

# 17 significant digits, scientific: round-trips float64 exactly, so CSV
# output is byte-reproducible.
FLOAT_FORMAT = "%.16e"


# libyaml's loader and dumper where PyYAML was built with it: the same
# constructors and resolvers, so the same dicts and the same text, about
# eight times faster than the pure-Python classes.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class ConfigError(ValueError):
    """Configuration failed validation; message carries the offending key."""


def load_config(path: str | Path) -> dict:
    """The YAML mapping in ``path``; an unreadable file or invalid YAML is a
    ConfigError naming the path, on one line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.load(fh, Loader=_LOADER)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {' '.join(str(exc).split())}") from None
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
    return yaml.load(ref.read_text(encoding="utf-8"), Loader=_LOADER)


def dump_config(cfg: dict) -> str:
    """Canonical serialization; parse -> dump -> parse is the identity."""
    return yaml.dump(cfg, Dumper=_DUMPER, sort_keys=True, default_flow_style=False)


def config_hash(cfg: dict) -> str:
    return dump_hash(dump_config(cfg))


def dump_hash(text: str) -> str:
    """``config_hash`` of the config whose :func:`dump_config` is ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()


def set_by_path(cfg: dict, dotted: str, value) -> dict:
    """A copy of ``cfg`` with its key ``dotted`` set to ``value``, sharing
    what is off that path; KeyError if ``cfg`` has no such key."""
    head, _, rest = dotted.partition(".")
    if not isinstance(cfg, dict) or head not in cfg:
        raise KeyError(dotted)
    return {**cfg, head: set_by_path(cfg[head], rest, value) if rest else value}


REQUIRED = object()  # the default of a key that must be given
_FIELD = re.compile(r"[\w.\[\]]+")  # a key path, such as pump.width or axes[0]


class Key(NamedTuple):
    convert: Callable  # the value's conversion, such as float or a nested Block
    default: object = REQUIRED  # None: the key may be left out, and stays None


def _named(key: str, convert: Callable, value):
    """``convert(value)``; its error ``"field: problem"`` (how blocks and
    parameter objects name what they reject) reads ``"key.field: problem"``."""
    try:
        return convert(value)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        head, sep, problem = str(exc).partition(": ")
        if sep and _FIELD.fullmatch(head):
            raise ValueError(f"{key}.{head}: {problem}") from None
        raise ValueError(f"{key}: {exc}") from None


@dataclass(frozen=True)
class Block:
    """A config mapping: rejects a missing (or null) or unknown key, converts
    each value, defaults too, and passes them to ``make`` by keyword."""

    keys: dict
    make: Callable = SimpleNamespace

    def __call__(self, raw):
        if not isinstance(raw, dict):
            raise ValueError(f"need a mapping, got {raw!r}")
        for key in raw:
            if key not in self.keys:
                raise ValueError(f"{key}: unknown key")
        values = {}
        for key, (convert, default) in self.keys.items():
            value = default if raw.get(key) is None else raw[key]
            if value is REQUIRED:
                raise ValueError(f"{key}: missing")
            values[key] = None if value is None else _named(key, convert, value)
        return self.make(**values)


def _positive(value) -> float:
    value = float(value)
    if not value > 0:
        raise ValueError(f"must be positive, got {value}")
    return value


def _twpa(n_stages, stage, total_gain, per_stage_gain) -> TwpaParams:
    if total_gain is None and per_stage_gain is None:
        raise ValueError("total_gain: a twpa needs total_gain or per_stage_gain")
    if total_gain is not None and per_stage_gain is not None:
        raise ConfigError("device.total_gain and device.per_stage_gain: "
                          "a twpa takes one of the two, not both")
    if per_stage_gain is None:
        per_stage_gain = total_gain / max(n_stages, 1)  # TwpaParams rejects n_stages < 1
    return TwpaParams(stage, n_stages, per_stage_gain)


def _axis(name, values, start, stop, points, log) -> tuple[str, np.ndarray]:
    if values is None:
        if None in (start, stop, points):
            raise ValueError("need either 'values' or 'start/stop/points'")
        if log and min(start, stop) <= 0:
            raise ValueError("log spacing needs positive start and stop")
        values = (np.geomspace if log else np.linspace)(start, stop, points)
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("no values")
    return name, values


def _sweep(axes: list) -> list[tuple[str, np.ndarray]]:
    if len(axes) > 2:
        raise ValueError("axes: at most two sweep axes are supported")
    return [_named(f"axes[{i}]", _AXIS, axis) for i, axis in enumerate(axes)]


def _run(grid, output_mode, fock_dim, **blocks) -> SimpleNamespace:
    if not 1 <= fock_dim <= MAX_FOCK_DIM:
        raise ValueError(f"fock_dim: need an integer in 1..{MAX_FOCK_DIM}, got {fock_dim}")
    if output_mode.startswith("file:"):
        try:
            rows = len(load_mode_samples(output_mode[5:]))
        except (OSError, ValueError, IndexError) as exc:
            raise ValueError(f"output_mode: cannot read mode file: {exc}") from None
        if rows != grid.n_points:
            raise ValueError(f"output_mode: {rows} rows, grid.n_points is {grid.n_points}")
    elif output_mode not in ("auto_v1", "auto_v2"):
        raise ValueError(f"output_mode: unknown selector {output_mode!r}")
    return SimpleNamespace(grid=grid, output_mode=output_mode, fock_dim=fock_dim, **blocks)


def _kind(table: dict, noun: str) -> Callable:
    """A block's parser: its ``kind`` picks the ``table`` row that parses the other keys."""
    def parse(raw):
        if not isinstance(raw, dict):
            raise ValueError(f"need a mapping, got {raw!r}")
        kind = raw.get("kind")
        if kind not in table:
            raise ValueError("kind: " + ("missing" if kind is None else f"unknown {noun} {kind!r}"))
        return table[kind]({key: v for key, v in raw.items() if key != "kind"})
    return parse


def _binds(build: Callable, params: Callable) -> Callable:
    """A device row's ``make``: ``build`` with ``params(**values)`` bound; it takes the grid."""
    return lambda **values: partial(build, params(**values))


def _squeezer(r, center, width) -> Callable:
    return lambda grid: ideal_squeezer_kernels(grid, gaussian_mode(grid, center, width), r)


_OPO = Block({"detuning": Key(float, 0.0), "decay": Key(float, 1.0), "pump": Key(Block(
    {"area": Key(float), "center": Key(float, 0.0), "width": Key(float)}, GaussianPump))},
    OpoParams)
_DEVICES = {
    "identity": Block({}, lambda: identity_kernels),
    "squeezer": Block({"r": Key(float), "center": Key(float, 0.0), "width": Key(_positive, 1.0)},
                      _squeezer),
    "opo": Block(_OPO.keys, _binds(build_opo, OpoParams)),
    "opa": Block({"gain": Key(float), "pump_center_detuning": Key(float, 0.0),
                  "pump_spectral_width": Key(float)}, _binds(build_opa, OpaParams)),
    "twpa": Block({"n_stages": Key(integral), "stage": Key(_OPO),
                   "total_gain": Key(float, None), "per_stage_gain": Key(float, None)},
                  _binds(build_twpa, _twpa)),
}
# A state row's ``make`` binds the converted values to the builder by keyword.
_DIM = Key(integral, DEFAULT_DIM)
_STATES = {
    "vacuum": Block({"dim": _DIM}, partial(partial, vacuum_state)),
    "fock": Block({"n": Key(integral), "dim": _DIM}, partial(partial, fock_state)),
    "coherent": Block({"alpha": Key(complex), "dim": _DIM}, partial(partial, coherent_state)),
    "even_cat": Block({"alpha": Key(complex), "dim": _DIM}, partial(partial, even_cat_state)),
    "squeezed": Block({"r": Key(float), "dim": _DIM}, partial(partial, squeezed_state)),
}

_AXIS = Block({"name": Key(str), "values": Key(list, None), "start": Key(float, None),
               "stop": Key(float, None), "points": Key(integral, None), "log": Key(bool, False)},
              _axis)
CONFIG = Block({
    "name": Key(str, None),
    "device": Key(_kind(_DEVICES, "device")),
    "grid": Key(Block({"t_start": Key(float), "t_end": Key(float), "n_points": Key(integral)},
                      TemporalGrid)),
    "input": Key(Block({"state": Key(_kind(_STATES, "state")), "pulse": Key(
        Block({"center": Key(float, 0.0), "width": Key(_positive, 1.0)}), {})})),
    "output_mode": Key(str, "auto_v1"),
    "fock_dim": Key(integral, 40),
    "sweep": Key(Block({"axes": Key(list, [])}, _sweep), {}),
}, _run)


def parse_config(cfg: dict, block: str | None = None):
    """``cfg`` parsed; with ``block``, ``cfg`` is that top-level block of a
    config (``device`` parses to its builder, which takes the grid).  A
    ConfigError names the first bad key."""
    try:
        return CONFIG(cfg) if block is None else _named(block, CONFIG.keys[block].convert, cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def sweep_axes(cfg: dict) -> list[tuple[str, np.ndarray]]:
    return parse_config(cfg).sweep


def validate_config(cfg: dict) -> None:
    """Raise ConfigError naming the bad key; silent on success.

    Parses the config and builds its input state.  For each value of each
    sweep axis, parses the top-level block the axis changes with the value
    substituted, checks it against the other blocks and builds the state it sets."""
    run = parse_config(cfg)
    try:
        _named("input.state", lambda build: build(), run.input.state)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for i, (name, values) in enumerate(run.sweep):
        block = name.split(".")[0]
        for value in values:
            try:
                point = set_by_path(cfg, name, float(value))
                point_run = _run(**{**vars(run), block: parse_config(point[block], block)})
                if name.startswith("input.state."):
                    _named("input.state", lambda build: build(), point_run.input.state)
            except KeyError:
                raise ConfigError(
                    f"sweep.axes[{i}].name: {name!r} does not exist for this config"
                ) from None
            except ValueError as exc:
                raise ConfigError(f"sweep.axes[{i}]: at {name} = {value}: {exc}") from None


def _run_environment() -> dict:
    """What a run's speed and parallel layout depend on: cores, the worker
    setting, the pool size used (1 in-process; a command that starts a pool
    sets it), versions."""
    return {
        "cores": os.cpu_count(),
        "PULSE_SQUEEZE_WORKERS": os.environ.get("PULSE_SQUEEZE_WORKERS"),
        "workers": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class RunManifest:
    """Record of one CLI run: config identity, emitted files, failures and
    the environment it ran in.  ``write`` adds the thread count of each
    OpenBLAS loaded by then, so a pool the run loaded late is listed too."""

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
            "environment": {**self.environment, "blas_threads": blas_threads()},
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
