"""Shared experiment engine behind the CLI commands and the acceptance suite.

A point run goes: build device kernels -> coherence split -> pick the
output mode -> five-coefficient decomposition -> characteristic-function
propagation -> metrics (and optionally Fock/Wigner reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charfun import (
    CharFunction,
    CharGrid,
    char_of_state,
    fock_from_char,
    overlap,
    propagate_char,
    rotate_char,
    wigner_from_char,
)
from .coherence import (
    InputMoments,
    ModeSpectrum,
    input_moments,
    occupation_ratio,
    seeded_vacuum_split,
)
from .decomposition import OutputDecomposition, decompose_output_mode
from .devices import (
    GaussianPump,
    OpaParams,
    OpoParams,
    TwpaParams,
    build_opa,
    build_opo,
    build_twpa,
)
from .grids import ModeFunction, TemporalGrid, gaussian_mode, load_mode_samples, normalize
from .kernels import BogoliubovKernels, ideal_squeezer_kernels, identity_kernels
from .metrics import (
    SqueezeFitResult,
    gaussian_covariance,
    mean_photon_number,
    optimize_squeeze_fidelity,
    purity,
    squeeze_target_evaluator,
)
from .states import QuantumState, state_library

__all__ = [
    "PointResult",
    "grid_from_config",
    "device_from_config",
    "input_mode_from_config",
    "input_state_from_config",
    "select_output_mode",
    "align_amplified_axis",
    "run_modes",
    "run_state_analysis",
]

# The theta + pi alignment candidate must beat theta by more than this
# relative margin; below it the two scores differ by summation round-off.
ALIGN_TIE_RTOL = 1e-12
# Squeeze parameters of the fit targets that settle the alignment.
ALIGN_PROBE_RS = (0.5, 1.0, 1.5)


@dataclass
class PointResult:
    """Everything a single experiment point produces."""

    spectrum: ModeSpectrum
    moments: InputMoments
    decomposition: OutputDecomposition | None = None
    chi_out: CharFunction | None = field(default=None, repr=False)
    rho_out: QuantumState | None = field(default=None, repr=False)
    fit: SqueezeFitResult | None = None
    metrics: dict = field(default_factory=dict)


def grid_from_config(cfg: dict) -> TemporalGrid:
    return TemporalGrid(
        float(cfg["t_start"]), float(cfg["t_end"]), int(cfg["n_points"])
    )


def device_from_config(cfg: dict, grid: TemporalGrid) -> BogoliubovKernels:
    """Build kernels for the configured device.

    ``identity`` and ``squeezer`` are reference elements used for checks;
    the physical devices are ``opo``, ``opa`` and ``twpa``.
    """
    kind = cfg.get("kind")
    if kind == "identity":
        return identity_kernels(grid)
    if kind == "squeezer":
        mode = gaussian_mode(
            grid, float(cfg.get("center", 0.0)), float(cfg.get("width", 1.0))
        )
        return ideal_squeezer_kernels(grid, mode, float(cfg["r"]))
    if kind == "opo":
        return build_opo(_opo_params(cfg), grid)
    if kind == "opa":
        return build_opa(
            OpaParams(
                gain=float(cfg["gain"]),
                pump_center_detuning=float(cfg.get("pump_center_detuning", 0.0)),
                pump_spectral_width=float(cfg["pump_spectral_width"]),
            ),
            grid,
        )
    if kind == "twpa":
        n_stages = int(cfg["n_stages"])
        per_stage = cfg.get("per_stage_gain")
        if per_stage is None:
            per_stage = float(cfg["total_gain"]) / n_stages
        return build_twpa(
            TwpaParams(
                stage=_opo_params(cfg.get("stage", cfg)),
                n_stages=n_stages,
                per_stage_gain=float(per_stage),
            ),
            grid,
        )
    raise ValueError(f"unknown device kind {kind!r}")


def _opo_params(cfg: dict) -> OpoParams:
    pump = cfg["pump"]
    return OpoParams(
        detuning=float(cfg.get("detuning", 0.0)),
        decay=float(cfg.get("decay", 1.0)),
        pump=GaussianPump(
            area=float(pump["area"]),
            center=float(pump.get("center", 0.0)),
            width=float(pump["width"]),
        ),
    )


def input_mode_from_config(cfg: dict, grid: TemporalGrid) -> ModeFunction:
    pulse = cfg.get("pulse", {})
    return gaussian_mode(
        grid, float(pulse.get("center", 0.0)), float(pulse.get("width", 1.0))
    )


def input_state_from_config(cfg: dict) -> QuantumState:
    return state_library(cfg.get("state", {"kind": "vacuum"}))


def select_output_mode(
    spectrum: ModeSpectrum, selector: str, grid: TemporalGrid | None = None
) -> ModeFunction:
    """Resolve auto_v1 / auto_v2 / file:PATH against the computed spectrum.

    Seeded modes take precedence; a vacuum-seeded run falls back to the
    squeezed-vacuum ladder.  ``file:PATH`` loads an explicit mode (CSV
    columns t, re, im) and normalizes it on the grid.
    """
    if selector.startswith("file:"):
        if grid is None:
            raise ValueError("an explicit mode file needs the grid")
        amplitudes = load_mode_samples(selector[5:])
        if len(amplitudes) != grid.n_points:
            raise ValueError(
                f"mode file has {len(amplitudes)} samples, grid has {grid.n_points}"
            )
        mode, _ = normalize(ModeFunction(grid, amplitudes))
        return mode
    pool = spectrum.seeded if spectrum.seeded else spectrum.vacuum
    if selector == "auto_v1":
        if not pool:
            raise ValueError("output field carries no occupation to select a mode from")
        return pool[0][1]
    if selector == "auto_v2":
        if len(pool) < 2:
            raise ValueError("no second occupied mode available")
        return pool[1][1]
    raise ValueError(f"unknown output mode selector {selector!r}")


def align_amplified_axis(
    chi: CharFunction, input_state: QuantumState
) -> tuple[CharFunction, float]:
    """Rotate the state so its amplified quadrature matches the fit family.

    The output-mode eigenvector carries an arbitrary global phase, which
    shows up as a phase-space rotation of the propagated state.  The
    principal axis of the covariance fixes the rotation up to pi; the
    remaining two candidates are settled by a coarse fidelity probe.  The
    theta + pi candidate is chi(-beta e^{i theta}) = conj(chi(beta e^{i theta})),
    so it is the first candidate conjugated, and it wins only by more than
    round-off: a parity-symmetric state such as the even cat scores both
    alike.  Near-isotropic states (no measurable squeezing) are left
    untouched: their principal axis is covariance noise.
    """
    vx, vp, c = gaussian_covariance(chi)
    half_spread = np.sqrt(0.25 * (vx - vp) ** 2 + c * c)
    mean = 0.5 * (vx + vp)
    if half_spread < 0.025 * mean:
        return chi, 0.0
    theta = 0.5 * np.arctan2(2.0 * c, vx - vp)
    phis = (theta, theta + np.pi)
    first = rotate_char(chi, theta)
    mirrored = CharFunction(
        first.grid, np.conj(first.values), lambda b: first(-np.asarray(b, dtype=complex))
    )
    rots = [first, mirrored]
    scores = [-np.inf, -np.inf]
    # One probe target at a time, scored against both candidates.
    for r in ALIGN_PROBE_RS:
        target = first.grid.sample(squeeze_target_evaluator(input_state, r))
        scores = [max(score, overlap(rot, target)) for score, rot in zip(scores, rots)]
    best = 1 if scores[1] - scores[0] > ALIGN_TIE_RTOL * abs(scores[0]) else 0
    return rots[best], float(phis[best])


def run_modes(
    kernels: BogoliubovKernels, u: ModeFunction, state: QuantumState
) -> PointResult:
    """Coherence split only: occupations and mode shapes."""
    moments = input_moments(state)
    spectrum = seeded_vacuum_split(kernels, u, moments)
    metrics = {
        "n1": spectrum.seeded[0][0] if spectrum.seeded else 0.0,
        "n2": spectrum.seeded[1][0] if len(spectrum.seeded) > 1 else 0.0,
        "seeded_total": spectrum.seeded_total,
        "vacuum_total": spectrum.vacuum_total,
    }
    if spectrum.seeded:
        metrics["ratio"] = occupation_ratio(spectrum)
    return PointResult(spectrum=spectrum, moments=moments, metrics=metrics)


def run_state_analysis(
    kernels: BogoliubovKernels,
    u: ModeFunction,
    state: QuantumState,
    output_mode: str = "auto_v1",
    fock_dim: int = 0,
) -> PointResult:
    """Full pipeline for the state in one output mode.

    ``fock_dim > 0`` additionally reconstructs the density matrix (and is
    needed for the rho/Wigner exports); metrics themselves are computed in
    the characteristic picture.
    """
    result = run_modes(kernels, u, state)
    # Diagonalize the vacuum ladder now, before the chi stages allocate
    # their grids, so its n x n workspace is not part of their peak memory.
    vacuum = result.spectrum.vacuum
    result.metrics["m1"] = vacuum[0][0] if vacuum else 0.0
    v = select_output_mode(result.spectrum, output_mode, kernels.grid)
    decomp = decompose_output_mode(kernels, u, v)
    # Anchor the output mode's global phase to the input carrier: rotate v
    # so the seeded coefficient A is real non-negative.  Eigenvector phases
    # are otherwise arbitrary and would rotate the output state in phase
    # space (a dispersive device must return the input state exactly).
    if abs(decomp.A) > 1e-12 and abs(np.angle(decomp.A)) > 1e-12:
        v = ModeFunction(v.grid, v.amplitudes * np.exp(1j * np.angle(decomp.A)))
        decomp = decompose_output_mode(kernels, u, v)
    chi_u = char_of_state(state)
    chi_out = propagate_char(decomp, chi_u)
    chi_out, rotation = align_amplified_axis(chi_out, state)
    fit = optimize_squeeze_fidelity(chi_out, state)
    result.decomposition = decomp
    result.chi_out = chi_out
    result.fit = fit
    result.metrics.update(
        {
            "purity": purity(chi_out),
            "mean_photon": mean_photon_number(chi_out),
            "best_fidelity": fit.best_fidelity,
            "best_r": fit.best_r,
            "p_gain": fit.p_gain,
            "rotation": rotation,
            "commutator": decomp.commutator(),
        }
    )
    if fock_dim:
        result.rho_out = fock_from_char(chi_out, fock_dim)
    return result


def wigner_for_display(chi: CharFunction):
    """Wigner map in the figure frame (amplified quadrature along p).

    The pi/2 rotation chi(beta) -> chi(i beta) maps chi's grid onto the grid
    with its axes swapped, value [i, j] coming from [n - 1 - j, i], so it is
    an index permutation with no re-evaluation."""
    g = chi.grid
    turned = CharGrid(g.im_extent, g.im_n_side, g.extent, g.n_side)
    quarter = CharFunction(
        turned, chi.values[::-1, :].T, lambda b: chi(1j * np.asarray(b, dtype=complex))
    )
    return wigner_from_char(quarter)
