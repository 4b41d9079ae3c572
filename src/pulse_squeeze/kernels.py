"""Kernel pairs (F, G) for multi-mode Bogoliubov transformations.

A device acting on a continuum field maps the input operators as

    a_out(x) = int dx' F(x, x') a_in(x') + int dx' G*(x, x') a_in^dag(x'),

which on a grid becomes ``a_out = (F a_in + G* a_in^dag) dt`` with the
delta function stored explicitly as ``identity / dt``.  Commutator
preservation pins the two symplectic conditions checked by
:func:`verify_symplectic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import (
    DegenerateModeError,
    GridMismatchError,
    ModeFunction,
    TemporalGrid,
)

__all__ = [
    "BogoliubovKernels",
    "PullbackResult",
    "SymplecticReport",
    "identity_kernels",
    "ideal_squeezer_kernels",
    "compose",
    "verify_symplectic",
    "pullback_output_mode",
    "apply_to_mode",
]

# A pullback with xi below this is treated as purely dispersive (no g mode).
DISPERSIVE_XI_TOL = 1e-9


@dataclass(frozen=True)
class BogoliubovKernels:
    """Transfer object for a quadratic optical element.

    ``F`` and ``G`` hold the sampled kernels F(x, x') and G(x, x'); the
    operator action carries the quadrature weight dt, so the identity map
    stores ``F = eye / dt``.  Both are float64 when both arrays passed in
    are real, as the builders that know their kernels are real pass them
    (:func:`identity_kernels`, a resonant OPO and a resonant TWPA), and
    complex128 otherwise.  Consumers branch on that dtype, never on the
    values: a real pair takes real arithmetic throughout.
    """

    grid: TemporalGrid
    F: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.grid.n_points
        dtype = complex if np.iscomplexobj(self.F) or np.iscomplexobj(self.G) else float
        F = np.ascontiguousarray(np.asarray(self.F, dtype=dtype))
        G = np.ascontiguousarray(np.asarray(self.G, dtype=dtype))
        if F.shape != (n, n) or G.shape != (n, n):
            raise ValueError("F and G must be n x n for an n-point grid")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "G", G)

    @cached_property
    def vacuum_total(self) -> float:
        """Photons the device emits with no input, ``dt^2 ||G||_F^2``: the
        trace of the squeezed-vacuum part of g1.  It depends on the device
        alone, so it is computed once per kernel pair, by one ``vdot`` that
        makes no n x n temporary."""
        g = self.G.ravel()
        return self.grid.dt**2 * float(np.vdot(g, g).real)


@dataclass(frozen=True)
class SymplecticReport:
    """Frobenius-relative residuals of the two commutator-preservation conditions."""

    commutator_residual: float
    pairing_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.commutator_residual, self.pairing_residual)


@dataclass(frozen=True)
class PullbackResult:
    """Input-side picture ``a_v_out = zeta a_f + xi a_g^dag`` of an output mode.

    ``zeta`` and ``xi`` are real non-negative (phases live in f and g) and
    satisfy ``zeta^2 - xi^2 = 1``; ``g`` is None for dispersive kernels.
    """

    zeta: float
    f: ModeFunction
    xi: float
    g: ModeFunction | None


def identity_kernels(grid: TemporalGrid) -> BogoliubovKernels:
    """Zero-interaction element: F is the grid delta, G vanishes."""
    n = grid.n_points
    return BogoliubovKernels(grid, np.eye(n) / grid.dt, np.zeros((n, n)))


def ideal_squeezer_kernels(
    grid: TemporalGrid, mode: ModeFunction, r: float
) -> BogoliubovKernels:
    """Single-mode squeezer acting only on ``mode``.

    The seeded mode transforms as ``a -> cosh(r) a + sinh(r) a^dag`` while
    every orthogonal mode passes through unchanged.
    """
    if mode.grid != grid:
        raise GridMismatchError("mode does not live on the target grid")
    if not np.isfinite(r):
        raise ValueError("squeeze parameter must be finite")
    u = mode.amplitudes
    n = grid.n_points
    F = np.eye(n, dtype=complex) / grid.dt + (np.cosh(r) - 1.0) * np.outer(u, u.conj())
    g_star = np.sinh(r) * np.outer(u, u)
    return BogoliubovKernels(grid, F, g_star.conj())


def _to_quadrature(k: BogoliubovKernels) -> np.ndarray:
    """Real 2n x 2n map of the quadratures ``(x, p)``, ``a = (x + i p) / sqrt(2)``.

    With ``H = G* dt`` and ``F dt`` split into real and imaginary parts,
    ``M = [[Fr + Hr, Hi - Fi], [Fi + Hi, Fr - Hr]]``.  A real pair leaves the
    off-diagonal blocks zero; its ``imag`` would be two n x n arrays of zeros.
    """
    n = k.grid.n_points
    dt = k.grid.dt
    m = np.zeros((2 * n, 2 * n))
    np.add(k.F.real, k.G.real, out=m[:n, :n])
    np.subtract(k.F.real, k.G.real, out=m[n:, n:])
    if np.iscomplexobj(k.F):
        np.add(k.F.imag, k.G.imag, out=m[:n, n:])
        np.negative(m[:n, n:], out=m[:n, n:])
        np.subtract(k.F.imag, k.G.imag, out=m[n:, :n])
    m *= dt
    return m


def _from_quadrature(m: np.ndarray, grid: TemporalGrid) -> BogoliubovKernels:
    """Inverse of :func:`_to_quadrature`:
    ``F = (M11 + M22 + i (M21 - M12)) / (2 dt)`` and
    ``G* = (M11 - M22 + i (M21 + M12)) / (2 dt)``."""
    n = grid.n_points
    scale = 0.5 / grid.dt
    m11, m12, m21, m22 = m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]
    F = np.empty((n, n), dtype=complex)
    G = np.empty((n, n), dtype=complex)
    np.multiply(m11 + m22, scale, out=F.real)
    np.multiply(m21 - m12, scale, out=F.imag)
    np.multiply(m11 - m22, scale, out=G.real)
    np.multiply(m21 + m12, -scale, out=G.imag)
    return BogoliubovKernels(grid, F, G)


def _quadrature_power(k: BogoliubovKernels, power: int) -> BogoliubovKernels:
    """Kernels of ``k`` applied ``power`` times: ``np.linalg.matrix_power``
    of the real 2n x 2n quadrature map (:func:`_to_quadrature`), about
    log2(power) squarings.  ``k`` is released before the power.  A detuned
    TWPA chain folds this way; a resonant one never forms its maps (see
    ``devices.build_twpa``).
    """
    grid = k.grid
    m = _to_quadrature(k)
    del k
    return _from_quadrature(np.linalg.matrix_power(m, power), grid)


def compose(second: BogoliubovKernels, first: BogoliubovKernels) -> BogoliubovKernels:
    """Kernels of ``second`` applied after ``first``.

    One real product of the two quadrature maps (:func:`_to_quadrature`),
    half the flops of the four complex n x n products of
    ``F = (F2 F1 + G2* G1) dt``, ``G = (F2* G1 + G2 F1) dt``, which it
    matches to within 3e-15 of the largest entry.  Products of symplectic
    maps stay symplectic to round-off: a 100-stage TWPA chain of detuned
    stages, folded by the 2n x 2n power (:func:`_quadrature_power`),
    measures a ``verify_symplectic`` residual of 6.9e-14 at n = 256.  A
    resonant chain is no product of maps: ``devices.build_twpa`` raises its
    stage's f-circulant symbol, within 7.6e-15 of the largest F entry of a
    long-double power at 100 stages (n = 128), where powers of the maps
    were off by 1.7e-13.
    """
    if second.grid != first.grid:
        raise GridMismatchError("cannot compose kernels on different grids")
    return _from_quadrature(_to_quadrature(second) @ _to_quadrature(first), first.grid)


def verify_symplectic(k: BogoliubovKernels) -> SymplecticReport:
    """Residuals of ``F F^dag - G* G^T = delta`` and ``F (G*)^T = G* F^T``.

    Both conditions are blocks of ``M Omega M^T - Omega``, ``Omega = [[0, I],
    [-I, 0]]``, for the quadrature map ``M`` (:func:`_to_quadrature`).  One
    real product ``X = M[:, :n] M[:, n:]^T`` gives ``M Omega M^T = X - X^T``,
    read from the blocks of ``X`` (``M`` released).  With ``A = F dt``,
    ``B = G* dt`` and ``asym(a) = (a - a^T)/2``,

        A A^dag - B B^dag - I = (X12 - X21 + X12^T - X21^T)/2 - I + i asym(X11 + X22),
        A B^T - B A^T = -asym(X12 + X21) + i asym(X11 - X22).

    Each residual is the Frobenius norm of its left side over sqrt(n), the
    norm of the grid delta.
    """
    n = k.grid.n_points
    m = _to_quadrature(k)
    x = m[:, :n] @ m[:, n:].T
    del m
    x11, x12, x21, x22 = x[:n, :n], x[:n, n:], x[n:, :n], x[n:, n:]
    norm = np.linalg.norm
    asym_norm = lambda a: norm(a - a.T) / 2
    sym = x12 - x21
    sym += sym.T  # numpy copies the overlapping transpose first
    sym[np.diag_indices(n)] -= 2.0
    c1 = np.hypot(norm(sym) / 2, asym_norm(x11 + x22))
    c2 = np.hypot(asym_norm(x12 + x21), asym_norm(x11 - x22))
    return SymplecticReport(
        commutator_residual=float(c1 / np.sqrt(n)),
        pairing_residual=float(c2 / np.sqrt(n)),
    )


def _times(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``a @ z`` for a complex vector ``z``.  A real ``a`` multiplies the
    ``(n, 2)`` real view of ``z``, so it is never cast to a complex copy."""
    if np.iscomplexobj(a):
        return a @ z
    return (a @ np.ascontiguousarray(z).view(float).reshape(-1, 2)).view(complex).ravel()


def apply_to_mode(k: BogoliubovKernels, u: ModeFunction) -> tuple[np.ndarray, np.ndarray]:
    """Forward images ``(F u, G u)`` (dt-weighted), unnormalized.

    These are the seeded-field amplitudes entering the output coherence
    function for an input occupying ``u``.
    """
    if u.grid != k.grid:
        raise GridMismatchError("mode does not live on the kernel grid")
    dt = k.grid.dt
    return dt * _times(k.F, u.amplitudes), dt * _times(k.G, u.amplitudes)


def pullback_output_mode(k: BogoliubovKernels, v: ModeFunction) -> PullbackResult:
    """Express the output-mode operator of ``v`` through input-mode operators.

    Computes ``f*(x) = sum_x' v*(x') F(x', x) dt / zeta`` and
    ``g(x) = sum_x' v*(x') G*(x', x) dt / xi`` with zeta, xi the
    pre-normalization norms, so that ``a_v_out = zeta a_f + xi a_g^dag``.
    """
    if v.grid != k.grid:
        raise GridMismatchError("mode does not live on the kernel grid")
    dt = k.grid.dt
    # conj() of a real kernel is the kernel itself, so a real pair is read in place.
    f_raw = dt * _times(k.F.conj().T, v.amplitudes)
    g_raw = dt * _times(k.G.conj().T, v.amplitudes.conj())
    f_mode = ModeFunction(k.grid, f_raw)
    zeta = f_mode.norm
    if zeta < DISPERSIVE_XI_TOL:
        raise DegenerateModeError(
            "pullback produced zeta = 0, which violates commutator preservation"
        )
    f = ModeFunction(k.grid, f_raw / zeta)
    g_mode = ModeFunction(k.grid, g_raw)
    xi = g_mode.norm
    if xi < DISPERSIVE_XI_TOL:
        return PullbackResult(zeta=zeta, f=f, xi=0.0, g=None)
    return PullbackResult(zeta=zeta, f=f, xi=xi, g=ModeFunction(k.grid, g_raw / xi))

