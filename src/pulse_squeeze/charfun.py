"""Weyl characteristic functions: evaluation, propagation, and transforms.

Conventions, fixed once for the whole package:

    a = (x + i p) / sqrt(2)        [x, p] = i
    D(beta) = exp(beta a^dag - beta* a)
    chi(beta) = Tr[rho D(beta)]
    W(x, p) = (1 / 2 pi^2) int chi(beta) exp(beta* alpha - beta alpha*) d^2 beta,
              alpha = (x + i p) / sqrt(2),  normalized so int W dx dp = 1.

States propagate through an output-mode decomposition exactly in this
picture: the seeded part maps the argument of the input characteristic
function and every orthogonal port contributes a Gaussian vacuum factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .states import QuantumState

__all__ = [
    "CharGrid",
    "CharFunction",
    "WignerGrid",
    "JointCharFunction",
    "char_from_rho",
    "state_evaluator",
    "char_of_state",
    "propagate_char",
    "wigner_from_char",
    "fock_from_char",
    "resampled",
    "overlap",
    "rotate_char",
    "joint_two_mode_char",
]

BASE_EXTENT = 6.0
BASE_SPACING = 12.0 / 128.0
MAX_EXTENT = 34.0
BOUNDARY_TOL = 1e-4

# Fock reconstruction cap: displacement matrix elements above this size are
# not resolved by the default grid spacing.
MAX_FOCK_DIM = 60


@dataclass(frozen=True)
class CharGrid:
    """Square grid in the complex beta plane, symmetric about the origin."""

    extent: float
    n_side: int

    def __post_init__(self):
        if self.extent <= 0 or self.n_side < 3:
            raise ValueError("need positive extent and at least 3 points per side")
        if self.n_side % 2 == 0:
            raise ValueError("n_side must be odd so the grid contains beta = 0")

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.n_side)

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.n_side - 1)

    @property
    def weight(self) -> float:
        return self.spacing**2

    def mesh(self) -> np.ndarray:
        re, im = np.meshgrid(self.axis, self.axis, indexing="ij")
        return re + 1j * im

    @staticmethod
    def with_extent(extent: float, spacing: float = BASE_SPACING) -> "CharGrid":
        half = max(2, int(np.ceil(extent / spacing)))
        return CharGrid(half * spacing, 2 * half + 1)


@dataclass(frozen=True)
class CharFunction:
    """Sampled characteristic function plus its exact evaluator.

    ``values[i, j] = chi(axis[i] + 1j * axis[j])``.  Every chi the package
    builds is the input's chi mapped by a Gaussian channel, so the evaluator
    (closed form or Fock sum, composed with the channel) is always known and
    downstream transforms query chi off-grid through it.
    """

    grid: CharGrid
    values: np.ndarray = field(repr=False)
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_side, self.grid.n_side):
            raise ValueError("values shape does not match the grid")
        object.__setattr__(self, "values", v)

    def boundary_magnitude(self) -> float:
        v = np.abs(self.values)
        return float(max(v[0].max(), v[-1].max(), v[:, 0].max(), v[:, -1].max()))

    def __call__(self, beta: np.ndarray) -> np.ndarray:
        """Evaluate chi exactly at arbitrary points."""
        return self.evaluator(np.asarray(beta, dtype=complex))


@dataclass(frozen=True)
class WignerGrid:
    """Wigner function sampled on a phase-space rectangle.

    ``values[i, j] = W(x_axis[i], p_axis[j])``.
    """

    x_axis: np.ndarray = field(repr=False)
    p_axis: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def integral(self) -> float:
        dx = self.x_axis[1] - self.x_axis[0]
        dp = self.p_axis[1] - self.p_axis[0]
        return float(np.sum(self.values) * dx * dp)

    def at_origin(self) -> float:
        i = int(np.argmin(np.abs(self.x_axis)))
        j = int(np.argmin(np.abs(self.p_axis)))
        return float(self.values[i, j])


def _laguerre_seq(x: np.ndarray, d: int, count: int):
    """Yield associated Laguerre values L_a^{(d)}(x) for a = 0 .. count-1."""
    prev2 = None
    prev = np.ones_like(x)
    yield prev
    if count == 1:
        return
    curr = (1.0 + d) - x
    yield curr
    prev2, prev = prev, curr
    for a in range(2, count):
        curr = ((2.0 * a - 1.0 + d - x) * prev - (a - 1.0 + d) * prev2) / a
        yield curr
        prev2, prev = prev, curr


def char_from_rho(rho: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """chi(beta) = Tr[rho D(beta)] from displacement matrix elements.

    Uses the closed form <a+d|D|a> = sqrt(a!/(a+d)!) beta^d e^{-|b|^2/2}
    L_a^{(d)}(|b|^2) with the associated Laguerre recurrence; diagonals of
    rho that vanish are skipped.
    """
    beta = np.asarray(beta, dtype=complex)
    shape = beta.shape
    b = beta.ravel()
    x = np.abs(b) ** 2
    pref = np.exp(-0.5 * x)
    dim = rho.shape[0]
    out = np.zeros_like(b)
    for d in range(dim):
        diag = np.diagonal(rho, offset=d)
        live = np.abs(diag) > 1e-18
        if not live.any():
            continue
        bd = b**d
        bdm = (-b.conj()) ** d
        coeff = float(np.exp(-0.5 * gammaln(d + 1.0)))
        for a, lag in enumerate(_laguerre_seq(x, d, dim - d)):
            w = diag[a]
            if live[a]:
                base = (coeff * pref) * lag
                if d == 0:
                    out += w.real * base
                else:
                    out += base * (w * bd + np.conj(w) * bdm)
            coeff *= np.sqrt((a + 1.0) / (a + 1.0 + d))
    return out.reshape(shape)


def _auto_grid(
    evaluator,
    grid: CharGrid | None,
    what: str,
    boundary_tol: float = BOUNDARY_TOL,
    start: CharFunction | None = None,
) -> CharFunction:
    """Sample on the given grid, or grow the extent by 1.5x until chi has
    decayed: from ``BASE_EXTENT``, or from the grid of ``start``, a chi of
    ``evaluator`` that is already sampled."""
    if grid is not None:
        chi = CharFunction(grid, evaluator(grid.mesh()), evaluator)
        if chi.boundary_magnitude() > BOUNDARY_TOL:
            warnings.warn(
                f"{what}: |chi| = {chi.boundary_magnitude():.2e} at the grid "
                "boundary; results may alias",
                stacklevel=3,
            )
        return chi
    if start is None:
        extent = BASE_EXTENT
        g = CharGrid.with_extent(extent)
        chi = CharFunction(g, evaluator(g.mesh()), evaluator)
    else:
        # Auto-grown grids below the cap sit exactly on BASE_EXTENT * 1.5**k,
        # so growing from start's extent continues that same sequence.
        chi, extent = start, min(start.grid.extent, MAX_EXTENT)
    while chi.boundary_magnitude() > boundary_tol:
        if extent >= MAX_EXTENT:
            if chi.boundary_magnitude() > 1e-3:
                warnings.warn(
                    f"{what}: chi not decayed even at extent {extent:g}", stacklevel=3
                )
            break
        extent = min(extent * 1.5, MAX_EXTENT)
        g = CharGrid.with_extent(extent)
        chi = CharFunction(g, evaluator(g.mesh()), evaluator)
    return chi


def resampled(chi: CharFunction, tol: float, what: str) -> CharFunction:
    """``chi`` itself if it has decayed below ``tol`` at its boundary, else
    chi re-sampled through its evaluator on grids grown from its own extent
    up to ``MAX_EXTENT``.  ``what`` names the calling stage in warnings."""
    return _auto_grid(chi.evaluator, None, what, boundary_tol=tol, start=chi)


def state_evaluator(state: QuantumState) -> Callable[[np.ndarray], np.ndarray]:
    """Exact chi of a Fock-basis state: its closed form, else the Fock sum."""
    if state.char_eval is not None:
        return state.char_eval
    rho = state.rho
    return lambda b: char_from_rho(rho, b)


def char_of_state(state: QuantumState, grid: CharGrid | None = None) -> CharFunction:
    """Characteristic function of a Fock-basis state.

    The grid is enlarged automatically until the boundary magnitude falls
    below ``BOUNDARY_TOL`` (unless an explicit grid is passed, which only warns).
    """
    return _auto_grid(state_evaluator(state), grid, "char_of_state")


def propagate_char(decomp, chi_u: CharFunction, grid: CharGrid | None = None) -> CharFunction:
    """Characteristic function of the output-mode state.

    With the output operator ``A a_u + B a_u^dag + C a_k + D a_k^dag + E a_s``
    and vacuum in the k and s ports,

        chi_out(beta) = chi_u(beta A* - beta* B)
                        * exp(-|beta C* - beta* D|^2 / 2)
                        * exp(-|beta E*|^2 / 2).

    The input chi is queried through its exact evaluator.
    """
    A, B, C, D, E = decomp.A, decomp.B, decomp.C, decomp.D, decomp.E

    def evaluator(beta):
        beta = np.asarray(beta, dtype=complex)
        mu_u = beta * np.conj(A) - np.conj(beta) * B
        mu_k = beta * np.conj(C) - np.conj(beta) * D
        mu_s = beta * np.conj(E)
        vac = np.exp(-0.5 * (np.abs(mu_k) ** 2 + np.abs(mu_s) ** 2))
        return chi_u(mu_u) * vac

    return _auto_grid(evaluator, grid, "propagate_char")


def wigner_from_char(
    chi: CharFunction, extent: float = 6.0, n_side: int = 129
) -> WignerGrid:
    """Fourier transform chi to the Wigner function on an (x, p) rectangle.

    The kernel exp(beta* alpha - beta alpha*) is separable in (Re beta,
    Im beta), so the transform is two small matrix products and the output
    grid is free to differ from the beta grid.
    """
    if chi.boundary_magnitude() > 1e-3:
        warnings.warn(
            "chi has not decayed at the grid boundary; Wigner transform may alias",
            stacklevel=2,
        )
    axis = np.linspace(-extent, extent, n_side)
    u = chi.grid.axis  # Re beta
    v = chi.grid.axis  # Im beta
    # W(x,p) = (1/2 pi^2) sum_{u,v} chi e^{i sqrt2 (u p - v x)} h^2
    phase_p = np.exp(1j * np.sqrt(2.0) * np.outer(u, axis))
    phase_x = np.exp(-1j * np.sqrt(2.0) * np.outer(v, axis))
    # chi.values has indices [u, v]; contract v with phase_x then u with phase_p.
    inner = chi.values @ phase_x  # (u, x)
    w = (phase_p.T @ inner).T  # (x, p)
    values = np.real(w) * chi.grid.weight / (2.0 * np.pi**2)
    return WignerGrid(x_axis=axis, p_axis=axis, values=values)


def fock_from_char(chi: CharFunction, dim: int) -> QuantumState:
    """Invert the Weyl transform: rho = (1/pi) int chi(beta) D(-beta) d^2 beta.

    The reconstruction is Hermitized, tiny negative eigenvalues (quadrature
    round-off, above -1e-6) are clamped to zero, and the result is
    renormalized; larger negativity means the grid is too coarse and raises.
    """
    if dim > MAX_FOCK_DIM:
        raise ValueError(f"dim {dim} exceeds the supported cap {MAX_FOCK_DIM}")
    # Boundary truncation of the quadrature feeds straight into spurious
    # negativity of rho: resample on a reconstruction-grade grid.
    chi = resampled(chi, 1e-6, "fock_from_char")
    if chi.boundary_magnitude() > 1e-3:
        warnings.warn(
            "chi has not decayed at the grid boundary; reconstruction may alias",
            stacklevel=2,
        )
    b = chi.grid.mesh().ravel()
    vals = chi.values.ravel()
    x = np.abs(b) ** 2
    pref = np.exp(-0.5 * x)
    scale = chi.grid.weight / np.pi
    weighted = vals * pref
    rho = np.zeros((dim, dim), dtype=complex)
    for d in range(dim):
        bdm = (-b) ** d
        coeff = float(np.exp(-0.5 * gammaln(d + 1.0)))
        core = weighted * bdm
        for a, lag in enumerate(_laguerre_seq(x, d, dim - d)):
            rho[a + d, a] = scale * coeff * np.sum(core * lag)
            coeff *= np.sqrt((a + 1.0) / (a + 1.0 + d))
    rho = rho + np.tril(rho, -1).conj().T
    rho = 0.5 * (rho + rho.conj().T)

    eigvals, eigvecs = np.linalg.eigh(rho)
    if eigvals.min() < -1e-6:
        raise ValueError(
            f"reconstructed state has eigenvalue {eigvals.min():.3e}; "
            "the beta grid is too coarse for this dim"
        )
    eigvals = np.clip(eigvals, 0.0, None)
    rho = (eigvecs * eigvals) @ eigvecs.conj().T
    rho /= np.real(np.trace(rho))
    return QuantumState(rho)


def overlap(chi: CharFunction, target_values: np.ndarray) -> float:
    """Re (1/pi) int conj(chi(beta)) chi_target(beta) d^2 beta, which is
    Tr[rho rho_target] for states.  ``target_values`` is sampled on chi's grid."""
    weight = chi.grid.weight / np.pi
    return float(np.real(np.sum(np.conj(chi.values) * target_values)) * weight)


def rotate_char(chi: CharFunction, phi: float) -> CharFunction:
    """Phase-space rotation by ``phi``: the quadrature x_theta maps to
    x_(theta+phi), implemented as chi(beta) -> chi(beta e^{i phi})."""
    rot = np.exp(1j * phi)

    def evaluator(b):
        return chi(np.asarray(b, dtype=complex) * rot)

    return CharFunction(chi.grid, evaluator(chi.grid.mesh()), evaluator)


@dataclass(frozen=True)
class JointCharFunction:
    """Two-mode characteristic function chi(beta1, beta2) on a 4-D grid.

    ``values[i, j, k, l] = chi(axis[i] + 1j axis[j], axis[k] + 1j axis[l])``.
    """

    grid: CharGrid
    values: np.ndarray = field(repr=False)
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(
        repr=False, compare=False
    )

    def marginal(self, which: int) -> CharFunction:
        """Single-mode chi of one output mode (the other argument at 0)."""

        def evaluator(b):
            zero = np.zeros_like(b)
            return self.evaluator(b, zero) if which == 0 else self.evaluator(zero, b)

        return CharFunction(self.grid, evaluator(self.grid.mesh()), evaluator)

    def purity(self) -> float:
        """Global two-mode purity (1/pi^2) int |chi|^2 d^4 beta."""
        return float(
            np.sum(np.abs(self.values) ** 2) * self.grid.weight**2 / np.pi**2
        )


def joint_two_mode_char(
    kernels,
    u,
    v1,
    v2,
    chi_u: CharFunction,
    extent: float = 5.0,
    n_side: int = 33,
) -> JointCharFunction:
    """Joint state of two orthogonal output modes in the Weyl picture.

    Both output operators are pulled back onto one orthonormal input family
    ``{u, e_1, ...}``; each family mode contributes a displacement argument
    ``mu_e = sum_i (beta_i conj(P_ie) - beta_i* Q_ie)`` so that

        chi(b1, b2) = chi_u(mu_u) * prod_(e>0) exp(-|mu_e|^2 / 2).

    Setting one argument to zero recovers the single-mode propagation.
    """
    from .decomposition import pullback_rows
    from .grids import inner_product

    if abs(inner_product(v1, v2)) > 1e-8:
        raise ValueError("output modes must be orthogonal")
    _family, P, Q = pullback_rows(kernels, [v1, v2], u)

    def evaluator(b1, b2):
        b1 = np.asarray(b1, dtype=complex)
        b2 = np.asarray(b2, dtype=complex)
        mu_u = (
            b1 * np.conj(P[0, 0]) - np.conj(b1) * Q[0, 0]
            + b2 * np.conj(P[1, 0]) - np.conj(b2) * Q[1, 0]
        )
        out = chi_u(mu_u)
        for e in range(1, P.shape[1]):
            mu = (
                b1 * np.conj(P[0, e]) - np.conj(b1) * Q[0, e]
                + b2 * np.conj(P[1, e]) - np.conj(b2) * Q[1, e]
            )
            out = out * np.exp(-0.5 * np.abs(mu) ** 2)
        return out

    grid = CharGrid(extent, n_side)
    mesh = grid.mesh()
    b1 = mesh[:, :, None, None]
    b2 = mesh[None, None, :, :]
    values = evaluator(
        np.broadcast_to(b1, (n_side,) * 4).reshape(-1),
        np.broadcast_to(b2, (n_side,) * 4).reshape(-1),
    ).reshape((n_side,) * 4)
    return JointCharFunction(grid, values, evaluator)
