"""Shared experiment engine behind the CLI commands and the acceptance suite.

A point run goes: build device kernels -> coherence split -> pick the
output mode -> five-coefficient decomposition -> characteristic-function
propagation -> metrics (and optionally Fock/Wigner reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .charfun import (
    CharFunction,
    fock_from_char,
    output_channel,
    overlaps,
    propagate_char,
    state_evaluator,
    wigner_from_char,
)
# Not called here: perfbench's LAYER_CALLS wraps it by name on this module.
from .charfun import char_of_state  # noqa: F401
from .coherence import (
    InputMoments,
    ModeSpectrum,
    input_moments,
    occupation_ratio,
    seeded_vacuum_split,
)
from .config import CONFIG, parse_config
from .decomposition import OutputDecomposition, decompose_output_mode
from .grids import ModeFunction, TemporalGrid, gaussian_mode, load_mode_samples, normalize
from .kernels import BogoliubovKernels
from .metrics import (
    SqueezeFitResult,
    gaussian_covariance,
    mean_photon_number,
    optimize_squeeze_fidelity,
    purity,
    squeeze_target_evaluator,
)
from .states import QuantumState

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
    return parse_config(cfg, "grid")


def device_from_config(cfg: dict, grid: TemporalGrid) -> BogoliubovKernels:
    """Kernels of the configured device on ``grid``: the device table in
    ``config`` parses ``cfg`` to its kind's builder.

    ``identity`` and ``squeezer`` are reference elements used for checks;
    the physical devices are ``opo``, ``opa`` and ``twpa``.
    """
    return parse_config(cfg, "device")(grid)


def input_mode_from_config(cfg: dict, grid: TemporalGrid) -> ModeFunction:
    pulse = parse_config(cfg, "input").pulse
    return gaussian_mode(grid, pulse.center, pulse.width)


def input_state_from_config(cfg: dict) -> QuantumState:
    return parse_config(cfg, "input").state()


def select_output_mode(
    spectrum: ModeSpectrum, selector: str, grid: TemporalGrid | None = None
) -> ModeFunction:
    """Resolve auto_v1 / auto_v2 / file:PATH against the computed spectrum.

    Seeded modes take precedence; a vacuum-seeded run falls back to the
    squeezed-vacuum ladder, of which it reads the head of one or two pairs.
    ``file:PATH`` loads an explicit mode (CSV columns t, re, im) and
    normalizes it on the grid.
    """
    if selector.startswith("file:"):
        if grid is None:
            raise ValueError("an explicit mode file needs the grid")
        mode, _ = normalize(ModeFunction(grid, load_mode_samples(selector[5:])))
        return mode
    if selector not in ("auto_v1", "auto_v2"):
        raise ValueError(f"unknown output mode selector {selector!r}")
    index = int(selector == "auto_v2")
    pool = spectrum.seeded or spectrum.head(index + 1)
    if len(pool) <= index:
        raise ValueError("no second occupied mode available" if index else
                         "output field carries no occupation to select a mode from")
    return pool[index][1]


def align_amplified_axis(
    decomp: OutputDecomposition, state: QuantumState
) -> tuple[CharFunction, float]:
    """The output chi of ``decomp`` on the input ``state``, turned by the
    returned angle so its amplified quadrature matches the fit family, and
    sampled once.

    The principal axis of the output channel's covariance fixes the turn up
    to pi, and the chi turned by theta is that of ``decomp.rephased(-theta)``.
    The theta + pi candidate is chi(-beta e^{i theta}) = conj(chi(beta e^{i theta})),
    so it is the first candidate conjugated, and it wins a coarse fidelity
    probe only by more than round-off: a parity-symmetric state such as the
    even cat scores both alike.  Near-isotropic states (no measurable
    squeezing) are left unturned: their principal axis is covariance noise.
    """
    vx, vp, c = gaussian_covariance(output_channel(decomp, state_evaluator(state)))
    half_spread = np.sqrt(0.25 * (vx - vp) ** 2 + c * c)
    mean = 0.5 * (vx + vp)
    if half_spread < 0.025 * mean:
        return propagate_char(decomp, state), 0.0
    theta = 0.5 * np.arctan2(2.0 * c, vx - vp)
    phis = (theta, theta + np.pi)
    first = propagate_char(decomp.rephased(-theta), state)
    mirrored = CharFunction(first.grid, np.conj(first.values), first.evaluator.then(-np.eye(2)))
    rots = [first, mirrored]
    probes = [squeeze_target_evaluator(state, r) for r in ALIGN_PROBE_RS]
    scores = [overlaps(rot, probes).max() for rot in rots]
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
    output_mode: str = CONFIG.keys["output_mode"].default,
    fock_dim: int = 0,
) -> PointResult:
    """Full pipeline for the state in one output mode.

    ``fock_dim > 0`` additionally reconstructs the density matrix (and is
    needed for the rho/Wigner exports); metrics themselves are computed in
    the characteristic picture.
    """
    result = run_modes(kernels, u, state)
    # Solve the head of the vacuum ladder that the run reads now, before the
    # chi stages allocate their grids: m1, and for a vacuum-seeded run the
    # one or two pairs auto_v1 or auto_v2 picks from.  A head that falls
    # back to the full ladder then keeps its workspace out of their peak
    # memory.
    spectrum = result.spectrum
    head = spectrum.head(2 if output_mode == "auto_v2" and not spectrum.seeded else 1)
    result.metrics["m1"] = head[0][0] if head else 0.0
    v = select_output_mode(spectrum, output_mode, kernels.grid)
    decomp = decompose_output_mode(kernels, u, v)
    # Anchor the output mode's global phase to the input carrier: rephase the
    # row so the seeded coefficient A is real non-negative.  Eigenvector
    # phases are otherwise arbitrary and would rotate the output state in
    # phase space (a dispersive device must return the input state exactly).
    if abs(decomp.A) > 1e-12 and abs(np.angle(decomp.A)) > 1e-12:
        decomp = decomp.rephased(-np.angle(decomp.A))
    chi_out, rotation = align_amplified_axis(decomp, state)
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

    The quarter turn chi(beta) -> chi(i beta) sends W(x, p) to W(-p, x): on the
    square symmetric window of ``wigner_from_char``, ``[i, j] <- [n-1-j, i]``."""
    w = wigner_from_char(chi)
    return replace(w, values=w.values[::-1, :].T)
