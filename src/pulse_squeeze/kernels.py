"""Kernel pairs (F, G) for multi-mode Bogoliubov transformations.

A device acting on a continuum field maps the input operators as

    a_out(x) = int dx' F(x, x') a_in(x') + int dx' G*(x, x') a_in^dag(x'),

which on a grid becomes ``a_out = (F a_in + G* a_in^dag) dt`` with the
delta function stored explicitly as ``identity / dt``.  Commutator
preservation pins the two symplectic conditions checked by
:func:`verify_symplectic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "CirculantKernels",
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


class BogoliubovKernels:
    """Transfer object for a quadratic optical element.

    ``F`` and ``G`` hold the sampled kernels F(x, x') and G(x, x'); the
    operator action carries the quadrature weight dt, so the identity map
    stores ``F = eye / dt``.  ``dtype`` is float64 when both arrays passed in
    are real, as the builders that know their kernels are real pass them
    (:func:`identity_kernels`; a resonant cavity is a :class:`CirculantKernels`),
    and complex128 otherwise.  Consumers branch on ``dtype``, never on the
    arrays: a real pair takes real arithmetic throughout.

    :meth:`times` is the one product protocol: F, G, F^T or G^T times a
    vector or a thin block.  The images, the pullback and the ladder head go
    through it; a kernel pair held in a cheaper form than two n x n arrays
    (:class:`CirculantKernels`) fills ``F`` and ``G`` only for the consumers
    that read them whole: ``verify_symplectic``, ``compose``, the vacuum
    kernel, ``g1_total`` and the full ladder.
    """

    def __init__(self, grid: TemporalGrid, F: np.ndarray, G: np.ndarray):
        n = grid.n_points
        dtype = np.dtype(complex if np.iscomplexobj(F) or np.iscomplexobj(G) else float)
        F = np.ascontiguousarray(F, dtype=dtype)
        G = np.ascontiguousarray(G, dtype=dtype)
        if F.shape != (n, n) or G.shape != (n, n):
            raise ValueError("F and G must be n x n for an n-point grid")
        self.grid, self.dtype, self.F, self.G = grid, dtype, F, G

    def __repr__(self) -> str:
        return f"{type(self).__name__}(grid={self.grid!r}, dtype={self.dtype})"

    def times(self, kernel: str, y: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``K y``, or ``K^T y`` when ``transpose``, for ``kernel`` "F" or "G"
        (the sampled kernel, no dt) and ``y`` a vector or an (n, k) block."""
        a = self.F if kernel == "F" else self.G
        return _times(a.T if transpose else a, y)

    @cached_property
    def vacuum_total(self) -> float:
        """Photons the device emits with no input, ``dt^2 ||G||_F^2``: the
        trace of the squeezed-vacuum part of g1.  It depends on the device
        alone, so it is computed once per kernel pair: here by one ``vdot``
        that makes no n x n temporary, and for :class:`CirculantKernels` from
        G's row tiles, without filling G."""
        g = self.G.ravel()
        return self.grid.dt**2 * float(np.vdot(g, g).real)


# Rows per tile of a CirculantKernels fill or ``vacuum_total``.
_FILL_ROWS = 32


class CirculantKernels(BogoliubovKernels):
    """Real kernels whose quadrature maps are f-circulant up to a diagonal scale.

    The x map ``X = (F + G) dt`` is ``E T+ E^-1`` and the p map ``P = (F - G)
    dt`` is ``E^-1 T- E``, with ``E = diag(e^s)`` and ``T+-`` f-circulant:
    ``T[k, j] = c_(k-j)`` for ``k >= j`` and ``f c_(n+k-j)`` for ``k < j``,
    with first columns ``c+-`` and ``f = e^(+-A)``.  A resonant cavity is one
    (``devices._resonant_chain``, ``A`` its stage's pump area); it holds
    ``s``, ``c+-`` and ``A`` (``area``) alone, O(n) numbers.

    :meth:`times` uses ``T = R^-1 C R`` with ``R = diag(f^(k/n))`` and ``C``
    circulant with first column ``w_d = c_d f^(d/n)``, so ``X = D C+ D^-1``
    and ``P = D^-1 C- D`` with ``D = diag(e^r)``, ``r_k = s_k - k A / n``.
    Neither the circulant symbols nor ``D`` carry the wrapped corner's
    ``f``, so the products stay at round-off of their largest entry (2.7e-14
    at pump area 8, where FFTs of the Toeplitz form with ``E`` lost 2.3e-10).
    They are written in the split

        2 dt G = Ch U Ch - Ch V Sh + Sh V Ch - Sh U Sh,

    with ``Ch = diag(cosh r)``, ``Sh = diag(sinh r)`` and ``U``, ``V`` the
    circulants of the symbols' difference and sum (F swaps U and V), so a
    small G is never the difference of the two large products ``X y`` and
    ``P y``: without a pump, ``r = 0`` and ``C+ = C-``, and G y is exactly 0.
    Each product is two forward and two inverse real FFTs of length n.

    ``F`` and ``G`` are filled on first read, row tile by row tile, each
    entry as ``X = (e^s_k T+[k, j]) e^-s_j``, ``P = (e^-s_k T-[k, j]) e^s_j``,
    ``F = (X + P) / (2 dt)`` and ``G = (X - P) / (2 dt)``.  ``vacuum_total``
    sums the squares of the same G tiles without keeping them.
    """

    def __init__(self, grid: TemporalGrid, s: np.ndarray, c_plus: np.ndarray,
                 c_minus: np.ndarray, area: float):
        n = grid.n_points
        if s.shape != c_plus.shape or c_plus.shape != c_minus.shape or s.shape != (n,):
            raise ValueError("s and both first columns need n entries for an n-point grid")
        self.grid, self.dtype = grid, np.dtype(float)
        self.s, self.c_plus, self.c_minus, self.area = s, c_plus, c_minus, area

    @cached_property
    def _circulant(self) -> tuple:
        """``(cosh r, sinh r)`` as columns, and the real FFTs of ``(w+ - w-,
        w+ + w-) / (2 dt)`` for ``C y``; ``C^T`` takes their conjugates.  ``r``
        is centred between its extremes, which keeps ``cosh r`` smallest."""
        n = self.grid.n_points
        ramp = np.arange(n) * (self.area / n)
        r = self.s - ramp
        r -= 0.5 * (r.max() + r.min())
        plus = self.c_plus * np.exp(ramp)
        minus = self.c_minus * np.exp(-ramp)
        scale = 0.5 / self.grid.dt
        u, v = (np.fft.rfft(w * scale)[:, None] for w in (plus - minus, plus + minus))
        return np.cosh(r)[:, None], np.sinh(r)[:, None], u, v

    def times(self, kernel: str, y: np.ndarray, transpose: bool = False) -> np.ndarray:
        y = np.asarray(y)
        if np.iscomplexobj(y):
            return _on_real_view(lambda real: self.times(kernel, real, transpose), y)
        # With a = Ch y and b = Sh y, G y = Ch (U a - V b) + Sh (V a - U b) and
        # G^T y = Ch (U^T a + V^T b) - Sh (V^T a + U^T b).
        n = self.grid.n_points
        ch, sh, u, v = self._circulant
        if transpose:
            u, v = u.conj(), v.conj()
        p, q = (u, v) if kernel == "G" else (v, u)
        sign = 1.0 if transpose else -1.0
        block = y.reshape(n, -1)
        a = np.fft.rfft(ch * block, axis=0)
        b = np.fft.rfft(sh * block, axis=0)
        first = np.fft.irfft(p * a + sign * (q * b), n, axis=0)
        second = np.fft.irfft(q * a + sign * (p * b), n, axis=0)
        return (ch * first - sign * (sh * second)).reshape(y.shape)

    def _map_rows(self):
        """Row tiles ``(rows, X[rows], P[rows])`` of the two quadrature maps,
        in two buffers that each tile overwrites."""
        n = self.grid.n_points
        # Entry (k, j) of T reads the wrapped coefficients at n - 1 - k + j:
        # c_(k-j) from the reversed column, f c_(n+k-j) after it.
        window = np.lib.stride_tricks.sliding_window_view
        plus, minus = (window(np.concatenate([c[::-1], math.exp(sign * self.area) * c[:0:-1]]),
                              n)[::-1]
                       for sign, c in ((1.0, self.c_plus), (-1.0, self.c_minus)))
        grow, shrink = np.exp(self.s), np.exp(-self.s)
        x_buf, p_buf = np.empty((2, _FILL_ROWS, n))
        for k0 in range(0, n, _FILL_ROWS):
            rows = slice(k0, min(k0 + _FILL_ROWS, n))
            x, p = x_buf[: rows.stop - k0], p_buf[: rows.stop - k0]
            np.multiply(grow[rows, None], plus[rows], out=x)
            x *= shrink
            np.multiply(shrink[rows, None], minus[rows], out=p)
            p *= grow
            yield rows, x, p

    def _fill(self, combine) -> np.ndarray:
        n = self.grid.n_points
        scale = 0.5 / self.grid.dt
        out = np.empty((n, n))
        for rows, x, p in self._map_rows():
            combine(x, p, out=out[rows])
            out[rows] *= scale
        return out

    @cached_property
    def F(self) -> np.ndarray:
        return self._fill(np.add)

    @cached_property
    def G(self) -> np.ndarray:
        return self._fill(np.subtract)

    @cached_property
    def vacuum_total(self) -> float:
        """``dt^2 ||G||_F^2`` as ``||X - P||_F^2 / 4``, summed over the row
        tiles of the fill (3.3 ms at n = 1024, one tile of two 32 x n
        buffers at a time), within 4e-14 of a ``vdot`` of the filled G; an
        FFT correlation of ``e^(+-2s)`` would cancel ``||X||^2 + ||P||^2``
        against ``2 <X, P>``."""
        total = 0.0
        for _rows, x, p in self._map_rows():
            x -= p
            total += float(np.vdot(x, x))
        return 0.25 * total


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
    if k.dtype == complex:
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


def _on_real_view(op, z: np.ndarray) -> np.ndarray:
    """``op`` of a real linear map applied to a complex vector or block ``z``
    through its real view, two real columns per complex one, so a real
    operator is never cast to a complex copy."""
    z = np.ascontiguousarray(z)
    return np.ascontiguousarray(op(z.view(float).reshape(len(z), -1))).view(complex).reshape(
        z.shape)


def _times(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``a @ z`` for a vector or block ``z``; a real ``a`` takes the real view
    of a complex ``z``."""
    if np.iscomplexobj(a) or not np.iscomplexobj(z):
        return a @ z
    return _on_real_view(a.__matmul__, z)


def apply_to_mode(k: BogoliubovKernels, u: ModeFunction) -> tuple[np.ndarray, np.ndarray]:
    """Forward images ``(F u, G u)`` (dt-weighted), unnormalized.

    These are the seeded-field amplitudes entering the output coherence
    function for an input occupying ``u``.
    """
    if u.grid != k.grid:
        raise GridMismatchError("mode does not live on the kernel grid")
    dt = k.grid.dt
    return dt * k.times("F", u.amplitudes), dt * k.times("G", u.amplitudes)


def pullback_output_mode(k: BogoliubovKernels, v: ModeFunction) -> PullbackResult:
    """Express the output-mode operator of ``v`` through input-mode operators.

    Computes ``f*(x) = sum_x' v*(x') F(x', x) dt / zeta`` and
    ``g(x) = sum_x' v*(x') G*(x', x) dt / xi`` with zeta, xi the
    pre-normalization norms, so that ``a_v_out = zeta a_f + xi a_g^dag``.
    """
    if v.grid != k.grid:
        raise GridMismatchError("mode does not live on the kernel grid")
    dt = k.grid.dt
    # F^dag v = conj(F^T conj(v)) and G^dag conj(v) = conj(G^T v).
    f_raw = dt * np.conj(k.times("F", v.amplitudes.conj(), transpose=True))
    g_raw = dt * np.conj(k.times("G", v.amplitudes, transpose=True))
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

