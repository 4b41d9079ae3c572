"""Weyl characteristic functions: evaluation, propagation, and transforms.

Conventions, fixed once for the whole package:

    a = (x + i p) / sqrt(2)        [x, p] = i
    D(beta) = exp(beta a^dag - beta* a)
    chi(beta) = Tr[rho D(beta)]
    W(x, p) = (1 / 2 pi^2) int chi(beta) exp(beta* alpha - beta alpha*) d^2 beta,
              alpha = (x + i p) / sqrt(2),  normalized so int W dx dp = 1.

Every chi the package builds is the input's exact chi through one Gaussian
channel (Weedbrook et al., RMP 84, 621 (2012)), a ``GaussianChannel``
chi(beta) = base(u, v) exp(-beta^T Y beta / 2) on real coordinates:
(u, v) = X (Re beta_1, Im beta_1, ...) are formed with real multiply-adds,
and ``base(u, v)`` is the input's exact chi at u + i v, a closed form
written on u and v or the Fock sum.  Propagation, squeezes and marginals
all compose as ``ch.then(R)``; ``CharGrid.sample`` hands the channel the
grid's two real axes, so no complex mesh is built.

One policy, ``_auto_grid``, sizes every chi grid; overlaps, the Fock
reconstruction and the Wigner transform work on the grid of the chi they get.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .blas import one_blas_thread
from .states import QuantumState, log_factorial

__all__ = [
    "GaussianChannel",
    "real_linear_map",
    "CharGrid",
    "CharFunction",
    "WignerGrid",
    "JointCharFunction",
    "char_from_rho",
    "state_evaluator",
    "char_of_state",
    "output_channel",
    "propagate_char",
    "wigner_from_char",
    "fock_from_char",
    "overlap",
    "joint_two_mode_char",
]

BASE_EXTENT = 6.0
BASE_SPACING = 12.0 / 128.0
MAX_EXTENT = 34.0
BOUNDARY_TOL = 1e-6  # |chi| at the edges, low enough for the fit and Fock sums

# Fock reconstruction cap: displacement matrix elements above this size are
# not resolved by the default grid spacing.
MAX_FOCK_DIM = 60
FOCK_TRACE_TOL = 1e-6  # fock_from_char warns when it captures a trace below 1 - this


def real_linear_map(p: complex, q: complex = 0.0) -> np.ndarray:
    """The real 2 x 2 matrix of beta -> p beta + q beta* on (Re beta, Im beta)."""
    a, b = p + q, 1j * (p - q)  # the images of beta = 1 and beta = i
    return np.array([[a.real, b.real], [a.imag, b.imag]])


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """chi(beta_1 .. beta_m) = base(u, v) * exp(-1/2 beta^T Y beta), called
    with m complex arrays of one shape, or through ``at`` with their 2m real
    coordinates.

    On the real coordinates (Re beta_1, Im beta_1, ...), ``X`` is the real
    2 x 2m map onto (u, v) and ``Y`` the real positive semidefinite 2m x 2m
    noise form.  ``base(u, v)`` is the input's exact chi at u + i v, on real
    arrays that broadcast together; ``GaussianChannel(base)`` is the
    identity.  Like every ``base`` in the package, it has chi(-beta) =
    conj(chi(beta))."""

    base: Callable[[np.ndarray, np.ndarray], np.ndarray]
    X: np.ndarray = field(default_factory=lambda: np.eye(2))
    Y: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))

    @staticmethod
    def from_rows(channel: "GaussianChannel", P, Q) -> "GaussianChannel":
        """The chi of m output modes a_i = sum_e P[i, e] a_e + Q[i, e] a_e^dag (P, Q
        m x F) of an orthonormal input family, mode 0 in the state of ``channel``
        and the rest in vacuum: chi(beta) = channel(mu_0) prod_(e>0)
        exp(-|mu_e|^2 / 2), mu_e = sum_i (beta_i conj(P[i, e]) - beta_i* Q[i, e])."""
        maps = [np.hstack([real_linear_map(np.conj(p), -q) for p, q in zip(pe, qe)])
                for pe, qe in zip(np.transpose(P), np.transpose(Q))]
        return channel.then(maps[0], sum(L.T @ L for L in maps[1:]))

    def then(self, R: np.ndarray, noise=0.0) -> "GaussianChannel":
        """The chi beta -> self(R beta) * exp(-1/2 beta^T noise beta):
        X -> X R and Y -> R^T Y R + noise."""
        return GaussianChannel(self.base, self.X @ R, R.T @ self.Y @ R + noise)

    def at(self, *coords: np.ndarray) -> np.ndarray:
        """chi at the real coordinates (Re beta_1, Im beta_1, ...), real arrays
        that broadcast together, such as a grid's axes ``re[:, None]`` and
        ``im[None, :]``.  Zero entries of X are skipped, so a diagonal X (the
        identity, an ideal squeeze) hands ``base`` the axes' own shapes."""
        u, v = (sum(c * x for c, x in zip(row, coords, strict=True) if c) for row in self.X)
        chi = self.base(u, v)
        if not self.Y.any():
            return chi
        form = sum(y * coords[i] * coords[j] for (i, j), y in np.ndenumerate(self.Y) if y)
        return chi * np.exp(-0.5 * form)

    def __call__(self, *betas: np.ndarray) -> np.ndarray:
        betas = [np.asarray(b, dtype=complex) for b in betas]
        return self.at(*(c for beta in betas for c in (beta.real, beta.imag)))


@dataclass(frozen=True)
class CharGrid:
    """Rectangle in the complex beta plane, symmetric about the origin.

    Both axes share one spacing; each has its own extent.  ``extent`` and
    ``n_side`` describe the Re beta axis, ``im_extent`` and ``im_n_side``
    the Im beta axis, which default to the square.  A squeezed chi is long
    on one axis and short on the other: the fig4 output state lives on
    727 x 129 points (extent 34.03 x 6.0) instead of 727 x 727.
    """

    extent: float
    n_side: int
    im_extent: float | None = None
    im_n_side: int | None = None

    def __post_init__(self):
        if self.im_extent is None:
            object.__setattr__(self, "im_extent", self.extent)
        if self.im_n_side is None:
            object.__setattr__(self, "im_n_side", self.n_side)
        for extent, n in ((self.extent, self.n_side), (self.im_extent, self.im_n_side)):
            if extent <= 0 or n < 3:
                raise ValueError("need positive extent and at least 3 points per side")
            if n % 2 == 0:
                raise ValueError("n_side must be odd so the grid contains beta = 0")
        im_spacing = 2.0 * self.im_extent / (self.im_n_side - 1)
        if abs(im_spacing - self.spacing) > 1e-12 * self.spacing:
            raise ValueError("both axes must share one spacing")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_side, self.im_n_side)

    @property
    def re_axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.n_side)

    @property
    def im_axis(self) -> np.ndarray:
        return np.linspace(-self.im_extent, self.im_extent, self.im_n_side)

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.n_side - 1)

    @property
    def weight(self) -> float:
        return self.spacing**2

    def mesh(self) -> np.ndarray:
        return self.re_axis[:, None] + 1j * self.im_axis[None, :]

    def sample(self, evaluator: GaussianChannel) -> np.ndarray:
        """The single-mode channel ``evaluator`` on the mesh, for a chi with
        ``chi(-beta) = conj(chi(beta))``.

        Every chi the package samples is ``Tr[rho D(beta)]`` of a density
        matrix, and ``D(beta)^dag = D(-beta)`` makes it Hermitian in this
        sense.  Rows ``0 .. half`` (Re beta <= 0, the beta = 0 row included)
        are evaluated, by ``evaluator.at`` on the contiguous real axes
        ``re[:half + 1, None]`` and ``im[None, :]``; every later row is the
        conjugate of its mirror image, beta -> -beta taking row i to
        n - 1 - i and column j to m - 1 - j.
        """
        half = self.n_side // 2
        values = np.empty(self.shape, dtype=complex)
        re, im = self.re_axis, self.im_axis
        values[: half + 1] = evaluator.at(re[: half + 1, None], im[None, :])
        values[half + 1 :] = np.conj(values[half - 1 :: -1, ::-1])
        return values

    @staticmethod
    def with_extent(extent: float, im_extent: float | None = None) -> "CharGrid":
        """The grid of spacing ``BASE_SPACING`` reaching at least ``extent`` on
        Re beta and ``im_extent`` (default: ``extent``) on Im beta."""
        im_extent = extent if im_extent is None else im_extent
        h = BASE_SPACING
        re_half, im_half = (max(2, int(np.ceil(e / h))) for e in (extent, im_extent))
        return CharGrid(re_half * h, 2 * re_half + 1, im_half * h, 2 * im_half + 1)


@dataclass(frozen=True)
class CharFunction:
    """Sampled characteristic function plus its exact evaluator.

    ``values[i, j] = chi(re_axis[i] + 1j * im_axis[j])``.  The evaluator is
    a single-mode ``GaussianChannel`` of the input's exact chi (closed form
    or Fock sum), so downstream transforms query chi off-grid through it and
    map it with ``evaluator.then``.
    """

    grid: CharGrid
    values: np.ndarray = field(repr=False)
    evaluator: GaussianChannel = field(repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape:
            raise ValueError("values shape does not match the grid")
        object.__setattr__(self, "values", v)

    def boundary_magnitude(self) -> float:
        """Largest |chi| on the four edges of the grid."""
        return max(self.edge_magnitudes())

    def edge_magnitudes(self) -> tuple[float, float]:
        """Largest |chi| on the Re beta = +-extent edges, and on the
        Im beta = +-im_extent edges."""
        v = self.values
        re_edges = max(np.abs(v[0]).max(), np.abs(v[-1]).max())
        im_edges = max(np.abs(v[:, 0]).max(), np.abs(v[:, -1]).max())
        return float(re_edges), float(im_edges)

    def __call__(self, beta: np.ndarray) -> np.ndarray:
        """Evaluate chi exactly at arbitrary points."""
        return self.evaluator(beta)


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
        coeff = float(np.exp(-0.5 * log_factorial(d)))
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


def _auto_grid(evaluator, what: str) -> CharFunction:
    """Sample ``evaluator`` on the grid where chi has decayed: the one policy
    for sizing every chi grid in the package.

    From ``BASE_EXTENT`` on both axes, each step grows by 1.5x only the axis
    whose own edges exceed ``BOUNDARY_TOL``, up to ``MAX_EXTENT``, so a chi
    whose |chi| is isotropic keeps a square grid.  A chi still above 1e-3 at
    the cap is kept and warned about; ``what`` names the stage."""
    extents = [BASE_EXTENT, BASE_EXTENT]
    while True:
        g = CharGrid.with_extent(*extents)
        chi = CharFunction(g, g.sample(evaluator), evaluator)
        grow = [
            edge > BOUNDARY_TOL and extent < MAX_EXTENT
            for edge, extent in zip(chi.edge_magnitudes(), extents)
        ]
        if not any(grow):
            break
        extents = [min(e * 1.5, MAX_EXTENT) if up else e for e, up in zip(extents, grow)]
    if chi.boundary_magnitude() > 1e-3:
        warnings.warn(
            f"{what}: chi not decayed even at extent {MAX_EXTENT:g}", stacklevel=3
        )
    return chi


def state_evaluator(state: QuantumState) -> GaussianChannel:
    """Exact chi of a Fock-basis state, its closed form else the Fock sum, as
    the identity channel."""
    return GaussianChannel(state.char_eval or (lambda u, v: char_from_rho(state.rho, u + 1j * v)))


def char_of_state(state: QuantumState) -> CharFunction:
    """Characteristic function of a Fock-basis state, on the grid where it
    has decayed below ``BOUNDARY_TOL``.  ``CharGrid.sample`` of
    ``state_evaluator(state)`` puts it on any other grid."""
    return _auto_grid(state_evaluator(state), "char_of_state")


def output_channel(decomp, channel: GaussianChannel) -> GaussianChannel:
    """The output-mode chi, unsampled.  With the output operator
    ``A a_u + B a_u^dag + C a_k + D a_k^dag + E a_s`` and vacuum in k and s,

        chi_out(beta) = chi_u(beta A* - beta* B)
                        * exp(-|beta C* - beta* D|^2 / 2 - |beta E*|^2 / 2),

    ``GaussianChannel.from_rows`` of the row (A, C, E | B, D, 0) on ``channel``."""
    A, B, C, D, E = decomp.row
    return GaussianChannel.from_rows(channel, [[A, C, E]], [[B, D, 0.0]])


def propagate_char(decomp, chi_u: CharFunction) -> CharFunction:
    """``output_channel`` of chi_u, sampled on the grid where it has decayed
    below ``BOUNDARY_TOL``.  A rotated output chi is the chi of a rephased
    row, ``decomp.rephased(-phi)``, and is sized like every other chi."""
    return _auto_grid(output_channel(decomp, chi_u.evaluator), "propagate_char")


def wigner_from_char(
    chi: CharFunction, extent: float = 6.0, n_side: int = 129
) -> WignerGrid:
    """Fourier transform chi to the Wigner function on an (x, p) rectangle.

    The kernel exp(beta* alpha - beta alpha*) is separable in (Re beta,
    Im beta), so the transform is two small matrix products, run on one
    BLAS thread, and the output grid is free to differ from the beta grid.
    """
    if chi.boundary_magnitude() > 1e-3:
        warnings.warn(
            "chi has not decayed at the grid boundary; Wigner transform may alias",
            stacklevel=2,
        )
    axis = np.linspace(-extent, extent, n_side)
    u = chi.grid.re_axis
    v = chi.grid.im_axis
    # W(x,p) = (1/2 pi^2) sum_{u,v} chi e^{i sqrt2 (u p - v x)} h^2
    phase_p = np.exp(1j * np.sqrt(2.0) * np.outer(u, axis))
    phase_x = np.exp(-1j * np.sqrt(2.0) * np.outer(v, axis))
    # chi.values has indices [u, v]; contract v with phase_x then u with phase_p.
    # One BLAS thread: the products' bits then do not depend on the thread count.
    with one_blas_thread():
        inner = chi.values @ phase_x  # (u, x)
        w = (phase_p.T @ inner).T  # (x, p)
    values = np.real(w) * chi.grid.weight / (2.0 * np.pi**2)
    return WignerGrid(x_axis=axis, p_axis=axis, values=values)


def fock_from_char(chi: CharFunction, dim: int) -> QuantumState:
    """Invert the Weyl transform: rho = (1/pi) int chi(beta) D(-beta) d^2 beta.

    The quadrature is summed once per distinct grid radius.  The matrix
    element <a+d|D(-beta)|a> is (-beta)^d e^{-|beta|^2/2} L_a^{(d)}(|beta|^2)
    up to a constant (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), and
    both axes share one spacing, so every grid point has |beta|^2 =
    spacing^2 (i^2 + j^2) for integer steps i, j.  So for each d,
    chi (-beta)^d is folded onto the distinct radii (two ``bincount`` passes
    over the grid), and the Laguerre recurrence runs on the radii alone:
    17,918 instead of 93,783 points on the 727 x 129 grid of the fig4
    state, for O(dim N_beta + dim^2 N_radii) work in all.

    The reconstruction is Hermitized, tiny negative eigenvalues (quadrature
    round-off, above -1e-6) are clamped to zero, and the result is
    renormalized; larger negativity means the grid is too coarse and raises.
    A captured trace below ``1 - FOCK_TRACE_TOL`` (a state reaching past
    ``dim``) is renormalized too, with a warning naming dim and trace.
    The quadrature runs on chi's own grid, as ``_auto_grid`` sized it.
    """
    if not 1 <= dim <= MAX_FOCK_DIM:
        raise ValueError(f"dim {dim} is outside the supported range 1..{MAX_FOCK_DIM}")
    if chi.boundary_magnitude() > 1e-3:
        warnings.warn(
            "chi has not decayed at the grid boundary; reconstruction may alias",
            stacklevel=2,
        )
    grid = chi.grid
    re_steps = np.arange(grid.n_side) - grid.n_side // 2
    im_steps = np.arange(grid.im_n_side) - grid.im_n_side // 2
    keys, radius_of = np.unique(
        (re_steps[:, None] ** 2 + im_steps[None, :] ** 2).ravel(), return_inverse=True
    )
    n_r = len(keys)
    x = grid.weight * keys
    pref = np.exp(-0.5 * x)
    minus_b = -grid.mesh().ravel()
    core = chi.values.ravel().copy()  # chi (-beta)^d, from d = 0 up
    scale = grid.weight / np.pi
    rho = np.zeros((dim, dim), dtype=complex)
    for d in range(dim):
        folded = np.empty((2, n_r))
        folded[0] = np.bincount(radius_of, weights=core.real, minlength=n_r)
        folded[1] = np.bincount(radius_of, weights=core.imag, minlength=n_r)
        folded *= pref
        coeff = float(np.exp(-0.5 * log_factorial(d)))
        for a, lag in enumerate(_laguerre_seq(x, d, dim - d)):
            re, im = folded @ lag
            rho[a + d, a] = scale * coeff * complex(re, im)
            coeff *= np.sqrt((a + 1.0) / (a + 1.0 + d))
        core *= minus_b
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
    trace = float(np.real(np.trace(rho)))
    if trace < 1.0 - FOCK_TRACE_TOL:
        warnings.warn(f"fock_from_char: dim {dim} captures trace {trace:.6g} of the state; "
                      "the density matrix is renormalised", stacklevel=2)
    rho /= trace
    return QuantumState(rho)


def overlap(chi: CharFunction, target_values: np.ndarray) -> float:
    """Re (1/pi) int conj(chi(beta)) chi_target(beta) d^2 beta, which is
    Tr[rho rho_target] for states.  ``target_values`` is sampled on chi's grid."""
    weight = chi.grid.weight / np.pi
    return float(np.real(np.sum(np.conj(chi.values) * target_values)) * weight)


@dataclass(frozen=True)
class JointCharFunction:
    """Two-mode characteristic function chi(beta1, beta2) on a 4-D grid.

    ``values[i, j, k, l] = chi(a[i] + 1j a[j], a[k] + 1j a[l])`` on the square
    grid's axis ``a = grid.re_axis``.
    """

    grid: CharGrid
    values: np.ndarray = field(repr=False)
    evaluator: GaussianChannel = field(repr=False, compare=False)

    def marginal(self, which: int) -> CharFunction:
        """Single-mode chi of one output mode (the other argument at 0)."""
        evaluator = self.evaluator.then(np.eye(4)[:, 2 * which : 2 * which + 2])
        return CharFunction(self.grid, self.grid.sample(evaluator), evaluator)

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
    ``{u, e_1, ...}``; the joint chi is ``GaussianChannel.from_rows`` of those
    rows on chi_u's channel, and its ``marginal`` is the single-mode chi.
    """
    from .decomposition import pullback_rows
    from .grids import inner_product

    if abs(inner_product(v1, v2)) > 1e-8:
        raise ValueError("output modes must be orthogonal")
    _family, P, Q = pullback_rows(kernels, [v1, v2], u)
    evaluator = GaussianChannel.from_rows(chi_u.evaluator, P, Q)
    grid = CharGrid(extent, n_side)
    b1, b2 = np.broadcast_arrays(grid.mesh()[:, :, None, None], grid.mesh()[None, None])
    return JointCharFunction(grid, evaluator(b1, b2), evaluator)
