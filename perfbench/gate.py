"""Correctness gate: parse one run's output files, check them against the
recorded reference values and against physical invariants.

Outputs and references are flat dicts from a key such as
`n1@-3.0,0.02` (quantity @ axis values) to a float.  `reference.json`
holds a value for every point of the fig3ab and fig3ef axes the workloads
draw from, so every seed is compared against references, not only the
default one.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

# |value - reference| <= rtol * |reference| + atol, per quantity.  A BLAS
# thread layout alone moves the occupations by ~3e-16 relative, so these
# sit far below any change in the physics and far above round-off.
TOLERANCES = {
    "occupation": {"rtol": 1e-9, "atol": 1e-12},
    "metrics": {"rtol": 1e-7, "atol": 1e-10},
    "rho": {"rtol": 0.0, "atol": 1e-9},
    "wigner": {"rtol": 1e-7, "atol": 0.0},
}
# Relative change applied to one reference value by `perturbed`: physically
# negligible, yet far outside every tolerance above.
PERTURBATION = 1e-4


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _read_csv(path: Path) -> tuple[dict, list[str], np.ndarray]:
    meta, rows, header = {}, [], None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, np.asarray(rows, dtype=float)


def _kind(key: str) -> str:
    prefix = key.partition(".")[0]
    return prefix if prefix in ("metrics", "rho", "wigner") else "occupation"


def read_outputs(command: str, out: Path) -> dict[str, float]:
    """Flatten the data files one CLI command wrote into `out`."""
    values = {}
    if command == "sweep":
        for quantity in ("n1", "ratio"):
            _meta, header, table = _read_csv(out / f"heatmap_{quantity}.csv")
            cols = [float(v) for v in header[1:]]
            for row in table:
                for col, value in zip(cols, row[1:]):
                    values[f"{quantity}@{float(row[0])!r},{col!r}"] = float(value)
    elif command == "modes":
        _meta, header, table = _read_csv(out / "occupations.csv")
        for row in table:
            for name, value in zip(header[1:], row[1:]):
                values[f"{name}@{float(row[0])!r}"] = float(value)
    elif command == "state":
        for name, value in json.loads((out / "metrics.json").read_text()).items():
            values[f"metrics.{name}"] = float(value)
        _meta, _header, re_part = _read_csv(out / "rho_re.csv")
        _meta, _header, im_part = _read_csv(out / "rho_im.csv")
        rho = re_part + 1j * im_part
        values["rho.trace"] = float(np.real(np.trace(rho)))
        values["rho.min_eig"] = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
        values["rho.hermiticity"] = float(np.abs(rho - rho.conj().T).max())
        meta, _header, wigner = _read_csv(out / "wigner.csv")
        # "x_axis: [-6.0, 6.0] x 129"; the p axis is the same square grid.
        span, _, count = meta["x_axis"].partition(" x ")
        lo, hi = (float(v) for v in span.strip("[]").split(","))
        step = (hi - lo) / (int(count) - 1)
        values["wigner.integral"] = float(wigner.sum() * step * step)
    else:
        raise ValueError(f"no gate for command {command!r}")
    return values


def invariant_problems(values: dict[str, float]) -> list[tuple[str, str]]:
    """Physical invariants every point must satisfy, whatever its parameters."""
    problems = [(k, f"{v!r} is not finite") for k, v in values.items() if not np.isfinite(v)]
    for key, v in values.items():
        quantity = key.split("@")[0]
        if quantity == "n1" and not v > 0.0:
            problems.append((key, f"{v!r}: expected n1 > 0"))
        if quantity in ("ratio", "metrics.ratio") and not 0.5 - 1e-12 <= v <= 1.0 + 1e-12:
            problems.append((key, f"{v!r}: expected ratio in [0.5, 1]"))
    checks = {
        "metrics.commutator": lambda v: abs(v - 1.0) <= 1e-6,
        "rho.trace": lambda v: abs(v - 1.0) <= 1e-9,
        "rho.min_eig": lambda v: v >= -1e-9,
        "rho.hermiticity": lambda v: v <= 1e-12,
    }
    for key, ok in checks.items():
        if key in values and not ok(values[key]):
            problems.append((key, f"{values[key]!r} violates its invariant"))
    return problems


def reference_problems(
    values: dict[str, float], reference: dict[str, float]
) -> list[tuple[str, str]]:
    problems = []
    for key, v in values.items():
        if key == "rho.hermiticity":
            continue  # an invariant only: its size is round-off
        if key not in reference:
            problems.append((key, "no reference value"))
            continue
        ref = reference[key]
        tol = TOLERANCES[_kind(key)]
        if not abs(v - ref) <= tol["rtol"] * abs(ref) + tol["atol"]:
            problems.append((key, f"{v!r}, reference {ref!r}"))
    return problems


def point_of(key: str) -> str:
    """The parameter point a key belongs to: its axis values, or the single
    point of a `state` run."""
    return key.partition("@")[2] or "state"


def check(
    command: str, out: Path, reference: dict[str, float]
) -> tuple[dict, list[tuple[str, str]]]:
    """Return the run's values and every (key, message) problem the gate finds."""
    values = read_outputs(command, out)
    return values, invariant_problems(values) + reference_problems(values, reference)


def perturbed(reference: dict[str, float], values: dict[str, float]) -> dict[str, float]:
    """A copy of `reference` with the value of the first compared key moved."""
    bad = copy.copy(reference)
    key = next((k for k in values if k in reference and k != "rho.hermiticity"), None)
    if key is not None:
        bad[key] = reference[key] * (1.0 + PERTURBATION) + PERTURBATION
    return bad
