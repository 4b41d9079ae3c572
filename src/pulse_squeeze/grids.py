"""Uniform grids, wave-packet mode functions and Hermitian kernel algebra.

Everything downstream (device kernels, coherence functions, mode
decompositions) is discretized on a uniform axis with rectangle-rule
quadrature of weight ``dt``.  The axis label is deliberately opaque: cavity
devices use it as time, single-pass amplifiers as frequency.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TemporalGrid",
    "ModeFunction",
    "HermitianKernel",
    "GridMismatchError",
    "DegenerateModeError",
    "inner_product",
    "normalize",
    "orthogonal_complement",
    "gaussian_mode",
    "load_mode_samples",
    "integral",
]

# Residual norms below this are treated as "contained in the span".
SPAN_TOL = 1e-12
# Grids with as many points whose ends differ by at most this are equal.
GRID_END_TOL = 1e-12


class GridMismatchError(ValueError):
    """Raised when two objects living on different grids are combined."""


class DegenerateModeError(ValueError):
    """Raised when an operation needs a nonzero mode but got (numerically) zero."""


def integral(value) -> int:
    """``value`` as an int if it is an integral number, such as the float
    8.0 a sweep axis gives; anything else is rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer():
        raise ValueError(f"need an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class TemporalGrid:
    """Uniform discretization of the time (or frequency) axis.

    Parameters
    ----------
    t_start, t_end : float
        First and last sample point, in units of the problem's rate scale
        (1/gamma for cavity devices, 1/sigma_u for spectral ones).
    n_points : int
        Number of samples, at least 2.
    """

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError(f"n_points: must be >= 2, got {self.n_points}")
        if not self.t_end > self.t_start:
            raise ValueError(f"t_end: must exceed t_start, got {self.t_end} <= {self.t_start}")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)

    def __eq__(self, other):
        if not isinstance(other, TemporalGrid):
            return NotImplemented
        # Scalar arithmetic, not np.isclose: every grid check runs this.
        return (
            self.n_points == other.n_points
            and abs(self.t_start - other.t_start) <= GRID_END_TOL
            and abs(self.t_end - other.t_end) <= GRID_END_TOL
        )

    def __hash__(self):
        return hash(self.n_points)  # equal grids' ends may round apart


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("operands live on different grids")


@dataclass(frozen=True)
class ModeFunction:
    """Complex wave-packet amplitude sampled on a grid.

    A mode is physically meaningful when dt-normalized,
    ``sum(|f|^2) * dt == 1``; use :func:`normalize` to enforce that.
    """

    grid: TemporalGrid
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.grid.n_points,):
            raise ValueError(
                f"amplitudes shape {amp.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )
        object.__setattr__(self, "amplitudes", amp)

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dt))


@dataclass(frozen=True)
class HermitianKernel:
    """Two-point Hermitian kernel K(x1, x2) sampled on a grid.

    The kernel is symmetrized on construction to absorb the round-off left
    behind by long composition chains; inputs further than ``atol`` from
    Hermitian are rejected.
    """

    grid: TemporalGrid
    entries: np.ndarray = field(repr=False)
    atol: float = 1e-10

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        n = self.grid.n_points
        if m.shape != (n, n):
            raise ValueError(f"entries shape {m.shape} does not match grid ({n} points)")
        dev = np.linalg.norm(m - m.conj().T)
        scale = max(np.linalg.norm(m), 1.0)
        if dev > self.atol * scale:
            raise ValueError(
                f"kernel is not Hermitian: relative deviation {dev / scale:.3e}"
            )
        object.__setattr__(self, "entries", 0.5 * (m + m.conj().T))

    def trace(self) -> float:
        """dt-weighted trace, i.e. the total occupation the kernel carries."""
        return float(np.real(np.trace(self.entries)) * self.grid.dt)


def inner_product(a: ModeFunction, b: ModeFunction) -> complex:
    """Quadrature inner product ``<a, b> = sum_i conj(a_i) b_i dt``.

    Conjugate-symmetric: ``inner_product(a, b) == conj(inner_product(b, a))``.
    """
    _check_same_grid(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes) * a.grid.dt)


def normalize(f: ModeFunction) -> tuple[ModeFunction, float]:
    """Return ``(f / ||f||, ||f||)`` under the dt-weighted norm."""
    nrm = f.norm
    if nrm < SPAN_TOL:
        raise DegenerateModeError("cannot normalize a zero-norm mode")
    return ModeFunction(f.grid, f.amplitudes / nrm), nrm


def orthogonal_complement(
    f: ModeFunction, basis: list[ModeFunction]
) -> tuple[ModeFunction | None, float]:
    """Project ``f`` onto the orthogonal complement of ``span(basis)``.

    The basis must be mutually orthonormal.  Returns the normalized
    residual mode and its pre-normalization norm; the mode is ``None``
    (norm 0.0) when ``f`` is contained in the span to within ``SPAN_TOL``.
    """
    residual = f.amplitudes.copy()
    for b in basis:
        _check_same_grid(f, b)
        residual -= inner_product(b, f) * b.amplitudes
    # Second orthogonalization pass: classical Gram-Schmidt loses
    # orthogonality for nearly dependent inputs.
    mode = ModeFunction(f.grid, residual)
    for b in basis:
        mode = ModeFunction(f.grid, mode.amplitudes - inner_product(b, mode) * b.amplitudes)
    nrm = mode.norm
    if nrm < SPAN_TOL:
        return None, 0.0
    return ModeFunction(f.grid, mode.amplitudes / nrm), nrm


def _pin_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest component is real positive."""
    k = int(np.argmax(np.abs(vec)))
    ph = vec[k]
    if abs(ph) == 0.0:
        return vec
    return vec * (abs(ph) / ph)


def _clamp_negative(vals: np.ndarray, tol: float) -> np.ndarray:
    """Descending eigenvalues of a positive-semidefinite kernel, round-off
    negatives (within ``tol`` of the largest) clamped to zero; larger raise."""
    top = max(vals[0], 0.0) if len(vals) else 0.0
    if np.any(vals < -tol * max(top, 1e-300)):
        raise ValueError(
            f"kernel has a significant negative eigenvalue: {vals.min():.3e} "
            f"(largest {top:.3e})"
        )
    return np.clip(vals, 0.0, None)


def gaussian_mode(grid: TemporalGrid, center: float, width: float) -> ModeFunction:
    """Unit-normalized Gaussian wave packet exp(-(t-center)^2 / (2 width^2))."""
    if width <= 0:
        raise ValueError("width must be positive")
    t = grid.points
    amp = np.exp(-((t - center) ** 2) / (2.0 * width**2)).astype(complex)
    mode, _ = normalize(ModeFunction(grid, amp))
    return mode


def load_mode_samples(path) -> np.ndarray:
    """Complex mode samples from a CSV file with columns t, re[, im]; lines
    starting with ``#`` are comments."""
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return data[:, 1] + 1j * (data[:, 2] if data.shape[1] > 2 else 0.0)
