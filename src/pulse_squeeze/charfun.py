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
all compose as ``ch.then(R)``; ``CharGrid.sample_half`` hands the channel
the grid's two real axes on the half plane Re beta <= 0, so no complex mesh
is built.

One policy, ``_auto_grid``, sizes every chi grid, growing it from edge
probes and sampling it once; overlaps and the Wigner transform work on the
grid of the chi they get.  The Fock reconstruction is exact for an input
whose chi is a sum of Gaussians (its ``GaussianTerm``), and folds chi on its
grid for any other input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .states import QuantumState, SeparableChi, log_factorial

__all__ = [
    "GaussianChannel",
    "real_linear_map",
    "CharGrid",
    "CharFunction",
    "WignerGrid",
    "char_from_rho",
    "state_evaluator",
    "char_of_state",
    "output_channel",
    "propagate_char",
    "wigner_from_char",
    "fock_from_char",
    "overlap",
    "overlaps",
]

BASE_EXTENT = 6.0
BASE_SPACING = 12.0 / 128.0
MAX_EXTENT = 34.0
BOUNDARY_TOL = 1e-6  # |chi| at the edges, low enough for the fit and Fock sums
NOT_DECAYED_TOL = 1e-3  # |chi| at the edges above which a stage warns of aliasing

# Rows of the mesh per channel evaluation in ``CharGrid.sample_half``: bounds
# the channel's full-shaped temporaries to a block of the grid.
SAMPLE_ROWS = 32

# Fock reconstruction cap: displacement matrix elements above this size are
# not resolved by the default grid spacing.
MAX_FOCK_DIM = 60
FOCK_TRACE_TOL = 1e-6  # fock_from_char warns when it captures a trace below 1 - this
FOCK_CUT_TOL = 1e-25  # most that fock_from_char's radius cut drops from any entry of rho


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

    def half_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The axes of rows ``0 .. half`` of the mesh (Re beta <= 0, the
        beta = 0 row included): ``re[:half + 1]`` and the whole ``im``."""
        return self.re_axis[: self.n_side // 2 + 1], self.im_axis

    def sample_half(
        self, evaluator: GaussianChannel, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The single-mode channel ``evaluator`` on rows ``0 .. half`` of the
        mesh, by ``evaluator.at`` on the contiguous real axes of
        ``half_axes``, ``re[rows, None]`` and ``im[None, :]``, written into
        ``out`` (default: a new array of the channel's dtype) ``SAMPLE_ROWS``
        rows at a time.  The channel is elementwise, so the blocks give the
        bits of one call on all the rows.

        Every chi the package samples is ``Tr[rho D(beta)]`` of a density
        matrix, and ``D(beta)^dag = D(-beta)`` makes it Hermitian,
        chi(-beta) = conj(chi(beta)), so these rows determine the rest: the
        overlaps and the Fock reconstruction read them alone."""
        re, im = self.half_axes()
        for start in range(0, len(re), SAMPLE_ROWS):
            block = evaluator.at(re[start : start + SAMPLE_ROWS, None], im[None, :])
            if out is None:
                out = np.empty((len(re), len(im)), dtype=block.dtype)
            out[start : start + SAMPLE_ROWS] = block
        return out

    def edge_magnitudes(self, evaluator: GaussianChannel) -> tuple[float, float]:
        """``CharFunction.edge_magnitudes`` of ``sample(evaluator)``, from
        the edge points of rows ``0 .. half`` alone: the Re beta = -extent
        row, and the Im beta = +-im_extent ends of every row.  The other
        rows are the conjugate mirror images of these, with the same |chi|,
        and each point takes the same arithmetic as in ``sample``."""
        re, im = self.half_axes()
        row = evaluator.at(re[:1, None], im[None, :])
        ends = evaluator.at(re[:, None], im[None, [0, -1]])
        return float(np.abs(row).max()), float(np.abs(ends).max())

    def sample(self, evaluator: GaussianChannel) -> np.ndarray:
        """The single-mode channel ``evaluator`` on the whole mesh: rows
        ``0 .. half`` by ``sample_half``, and every later row the conjugate
        of its mirror image, beta -> -beta taking row i to n - 1 - i and
        column j to m - 1 - j."""
        half = self.n_side // 2
        values = np.empty(self.shape, dtype=complex)
        self.sample_half(evaluator, values[: half + 1])
        np.conj(values[half - 1 :: -1, ::-1], out=values[half + 1 :])
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
    # a L_a = (2a - 1 + d - x) L_{a-1} - (a - 1 + d) L_{a-2}, evaluated in
    # that order but in place: the same bits with two fewer temporaries a step
    tail = np.empty_like(x)
    for a in range(2, count):
        curr = np.subtract(2.0 * a - 1.0 + d, x)
        curr *= prev
        curr -= np.multiply(a - 1.0 + d, prev2, out=tail)
        curr /= a
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
    whose |chi| is isotropic keeps a square grid.  Each step reads only the
    candidate grid's edges (``CharGrid.edge_magnitudes``), and the chosen
    grid is sampled once.  A chi above ``NOT_DECAYED_TOL`` at the cap is
    kept and warned about; ``what`` names the stage."""
    extents = [BASE_EXTENT, BASE_EXTENT]
    while True:
        g = CharGrid.with_extent(*extents)
        grow = [
            edge > BOUNDARY_TOL and extent < MAX_EXTENT
            for edge, extent in zip(g.edge_magnitudes(evaluator), extents)
        ]
        if not any(grow):
            break
        extents = [min(e * 1.5, MAX_EXTENT) if up else e for e, up in zip(extents, grow)]
    chi = CharFunction(g, g.sample(evaluator), evaluator)
    if chi.boundary_magnitude() > NOT_DECAYED_TOL:
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


def propagate_char(decomp, state: QuantumState) -> CharFunction:
    """``output_channel`` of the input state's exact chi, sampled on the grid
    where it has decayed below ``BOUNDARY_TOL``.  A rotated output chi is the
    chi of a rephased row, ``decomp.rephased(-phi)``, and is sized like every
    other chi."""
    return _auto_grid(output_channel(decomp, state_evaluator(state)), "propagate_char")


def wigner_from_char(
    chi: CharFunction, extent: float = 6.0, n_side: int = 129
) -> WignerGrid:
    """Fourier transform chi to the Wigner function on an (x, p) rectangle.

    The kernel exp(beta* alpha - beta alpha*) is separable in (Re beta,
    Im beta), so the transform is two small matrix products, and the output
    grid is free to differ from the beta grid.
    """
    if chi.boundary_magnitude() > NOT_DECAYED_TOL:
        warnings.warn(
            "chi has not decayed at the grid boundary; Wigner transform may alias",
            stacklevel=2,
        )
    axis = np.linspace(-extent, extent, n_side)
    u, v = chi.grid.half_axes()
    half = len(u) - 1
    # W(x,p) = (1/2 pi^2) Re sum_{u,v} chi e^{i sqrt2 (u p - v x)} h^2.  The
    # term at -beta is the conjugate of the term at beta (chi is Hermitian),
    # so the rows u < 0 count twice and the u = 0 row once.
    phase_p = np.outer(u, axis) * (1j * np.sqrt(2.0))
    np.exp(phase_p, out=phase_p)
    phase_p[:half] *= 2.0
    phase_x = np.exp(-1j * np.sqrt(2.0) * np.outer(v, axis))
    # chi.values has indices [u, v]; contract u with phase_p, then v with
    # phase_x, so the only intermediate is (p, v).
    w = ((phase_p.T @ chi.values[: half + 1]) @ phase_x).T  # (x, p)
    values = np.real(w) * chi.grid.weight / (2.0 * np.pi**2)
    return WignerGrid(x_axis=axis, p_axis=axis, values=values)


def _log_displacement_bound(dim: int) -> Callable[[float], float]:
    """x -> log of e^{-x/2} L_{dim-1}(-x), which bounds every |<m|D(beta)|n>|
    with m, n < dim at x = |beta|^2 >= dim - 1, and falls for x >= 2 (dim - 1).

    Normal ordering, D(beta) = e^{-x/2} e^{beta a^dag} e^{-beta* a}, gives
    |<m|D(beta)|n>| <= e^{-x/2} sqrt(m! n!) sum_k x^{(m+n)/2 - k} / (k! (m-k)! (n-k)!).
    Raising m by one multiplies term k by sqrt(x (m+1)) / (m+1-k) >= 1 once
    x >= m + 1, so every (m, n) is bounded by (dim-1, dim-1), whose sum is
    e^{-x/2} sum_j C(dim-1, j) x^j / j!; each term e^{-x/2} x^j falls for x > 2j.
    """
    j = np.arange(dim)
    log_coeffs = log_factorial(dim - 1) - log_factorial(dim - 1 - j) - 2.0 * log_factorial(j)

    def log_bound(x: float) -> float:
        terms = log_coeffs + j * np.log(x)
        top = terms.max()
        return float(-0.5 * x + top + np.log(np.exp(terms - top).sum()))

    return log_bound


def _fock_cut(dim: int, grid: CharGrid) -> float:
    """The smallest x_cut >= 2 (dim - 1), to bisection precision, at which
    (spacing^2 / pi) * (grid points) * bound(x_cut) <= ``FOCK_CUT_TOL``, with
    ``_log_displacement_bound``'s bound: as |chi| <= 1 and the bound falls
    past x_cut, the grid points with |beta|^2 > x_cut add less than
    ``FOCK_CUT_TOL`` to any entry of rho."""
    log_bound = _log_displacement_bound(dim)
    log_tol = np.log(FOCK_CUT_TOL * np.pi / (grid.weight * grid.n_side * grid.im_n_side))
    lo = hi = 2.0 * (dim - 1)
    while hi == 0.0 or log_bound(hi) > log_tol:
        lo, hi = hi, 2.0 * hi + 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if log_bound(mid) > log_tol else (lo, mid)
    return hi


def fock_from_char(chi: CharFunction, dim: int) -> QuantumState:
    """Invert the Weyl transform: rho = (1/pi) int chi(beta) D(-beta) d^2 beta.

    The input's kind alone picks the path.  When ``chi.evaluator.base``
    carries ``GaussianTerm`` (vacuum, coherent, squeezed vacuum, even cat),
    rho is exact and reads no grid (``_gaussian_sum_fock``); any other input
    (Fock n >= 1, a mixed rho) is folded on chi's grid (``_fock_fold``),
    which warns when chi has not decayed at the grid's edges.

    Closed form.  With the unnormalised coherent states sum_n z^n/sqrt(n!) |n>,

        sum_mn rho_mn s^m t^n / sqrt(m! n!)
            = e^{st} (1/pi) int chi(beta) e^{-s beta + t beta* - |beta|^2/2} d^2 beta.

    On w = (Re beta, Im beta), a term c exp(-a u^2/2 + p u - a2 v^2/2 + q v)
    of the base through the channel's X and Y is c exp(-w^T M w / 2 + h^T w)
    with M = X^T diag(a, a2) X + Y and h = X^T (p, q), and -s beta + t beta*
    is (Gamma z)^T w with z = (s, t) and Gamma = [[-1, 1], [-i, -i]].  The
    Gaussian integral, with K = M + I, makes the generating function
    C exp(z^T Q z / 2 + y^T z) with

        Q = Gamma^T K^-1 Gamma + [[0, 1], [1, 0]],   y = Gamma^T K^-1 h,
        C = 2 c e^{h^T K^-1 h / 2} / sqrt(det K),

    C formed from logs.  Matching powers of s and t (Miatto & Quesada,
    Quantum 4, 366 (2020)) gives rho_mn = b_mn from b_00 = C, row 0 by
    b_{0,n+1} = (y_1 b_{0,n} + Q_11 sqrt(n) b_{0,n-1}) / sqrt(n+1), and

        b_{m+1,n} = (y_0 b_mn + Q_00 sqrt(m) b_{m-1,n} + Q_01 sqrt(n) b_{m,n-1}) / sqrt(m+1),

    one recurrence per term, vectorised over n and over the terms, summed.

    Fold.  The quadrature runs on chi's own grid, as ``_auto_grid`` sized
    it, and skips only arithmetic that cannot reach rho:

    - Half plane.  chi(-beta) = conj(chi(beta)), so a mirror pair beta, -beta
      adds (-beta)^d [chi + (-1)^d conj(chi)] to the d-th diagonal: 2 Re chi
      (-beta)^d for even d, 2i Im chi (-beta)^d for odd d.  Only the rows
      Re beta <= 0 are folded; the Re beta = 0 row holds both members of its
      pairs and takes weight 1/2.
    - Radius cut.  Points with |beta|^2 > x_cut are dropped, where
      ``_fock_cut`` picks x_cut from a rigorous bound on the displacement
      matrix elements (``_log_displacement_bound``) so that everything dropped
      adds less than ``FOCK_CUT_TOL`` = 1e-25 to any entry of rho.  No result
      depends on the cut: fig4's chi (727 x 129 points, dim 60, x_cut 504)
      gives the same rho as the uncut full-plane sum to round-off.

    The matrix element <a+d|D(-beta)|a> is (-beta)^d e^{-|beta|^2/2}
    L_a^{(d)}(|beta|^2) up to a constant (Cahill & Glauber, Phys. Rev. 177,
    1857 (1969)), and both axes share one spacing, so every grid point has
    |beta|^2 = spacing^2 (i^2 + j^2) for integer steps i, j.  So for each d
    the kept points are folded onto their distinct radii (two ``bincount``
    passes), and the Laguerre recurrence runs on the radii alone.  The fold
    checks only that chi has decayed at the edges, not that the spacing
    resolves its oscillation.

    Either path gives the lower triangle.  The reconstruction is Hermitized,
    tiny negative eigenvalues (round-off, above -1e-6) are clamped to zero,
    and the result is renormalized; larger negativity means the grid is too
    coarse and raises.  A captured trace below ``1 - FOCK_TRACE_TOL`` (a
    state reaching past ``dim``) is renormalized too, with a warning naming
    dim and trace.
    """
    if not 1 <= dim <= MAX_FOCK_DIM:
        raise ValueError(f"dim {dim} is outside the supported range 1..{MAX_FOCK_DIM}")
    if getattr(chi.evaluator.base, "terms", ()):
        rho = _gaussian_sum_fock(chi.evaluator, dim)
    else:
        if chi.boundary_magnitude() > NOT_DECAYED_TOL:
            warnings.warn(
                "chi has not decayed at the grid boundary; reconstruction may alias",
                stacklevel=2,
            )
        rho = _fock_fold(chi, dim)
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


# -s beta + t beta* = (Gamma z)^T (Re beta, Im beta) with z = (s, t), and
# st = z^T SWAP z / 2: the generating function of ``fock_from_char``.
_GAMMA = np.array([[-1.0, 1.0], [-1j, -1j]])
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _gaussian_sum_fock(channel: GaussianChannel, dim: int) -> np.ndarray:
    """The lower triangle of rho for a single-mode chi ``channel`` whose base
    is a sum of ``GaussianTerm``, by ``fock_from_char``'s closed form."""
    log_c, a, p, a2, q = np.array(channel.base.terms, dtype=complex).T
    X = channel.X
    K = np.einsum("ji,tj,jk->tik", X, np.stack([a.real, a2.real], axis=1), X)
    K += channel.Y + np.eye(2)
    h = np.stack([p, q], axis=1) @ X  # X^T (p, q), one row per term
    K_inv = np.linalg.inv(K)
    k_h = np.einsum("tij,tj->ti", K_inv, h)
    Q = _GAMMA.T @ K_inv @ _GAMMA + _SWAP
    y = k_h @ _GAMMA
    log_C = np.log(2.0) + log_c + 0.5 * np.sum(h * k_h, axis=1) - 0.5 * np.log(np.linalg.det(K))
    roots = np.sqrt(np.arange(dim))
    b = np.zeros((dim, len(log_c), dim), dtype=complex)  # b[m, term, n]
    row = b[0]
    row[:, 0] = np.exp(log_C)
    for n in range(1, dim):
        step = y[:, 1] * row[:, n - 1]
        if n > 1:
            step += Q[:, 1, 1] * roots[n - 1] * row[:, n - 2]
        row[:, n] = step / roots[n]
    y0, q00, q01 = y[:, :1], Q[:, :1, 0], Q[:, :1, 1]
    for m in range(dim - 1):
        step = y0 * b[m]
        if m:
            step += (roots[m] * q00) * b[m - 1]
        step[:, 1:] += q01 * roots[1:] * b[m, :, :-1]
        b[m + 1] = step / roots[m + 1]
    return np.tril(b.sum(axis=1))


def _fock_fold(chi: CharFunction, dim: int) -> np.ndarray:
    """The lower triangle rho[a + d, a] of ``fock_from_char``'s quadrature,
    before Hermitizing and clamping."""
    grid = chi.grid
    half = grid.n_side // 2
    re_steps = np.arange(-half, 1)  # rows 0 .. half: Re beta <= 0
    im_steps = np.arange(grid.im_n_side) - grid.im_n_side // 2
    steps_sq = re_steps[:, None] ** 2 + im_steps[None, :] ** 2
    kept = steps_sq <= _fock_cut(dim, grid) / grid.weight
    keys, radius_of = np.unique(steps_sq[kept], return_inverse=True)
    n_r = len(keys)
    x = grid.weight * keys
    pref = np.exp(-0.5 * x)
    pair = 2.0 * chi.values[: half + 1]
    pair[half] *= 0.5
    pair = pair[kept]
    parts = (pair.real.copy(), pair.imag.copy())  # 2 Re chi, 2 Im chi
    minus_b = -(grid.re_axis[: half + 1, None] + 1j * grid.im_axis[None, :])[kept]
    power = np.ones_like(minus_b)  # (-beta)^d, from d = 0 up
    scale = grid.weight / np.pi
    rho = np.zeros((dim, dim), dtype=complex)
    folded = np.empty((2, n_r))
    for d in range(dim):
        # even d: 2 Re chi (-beta)^d; odd d: 2i Im chi (-beta)^d, folded as
        # Im chi (-beta)^d and turned by i below
        part = parts[d % 2]
        folded[0] = np.bincount(radius_of, weights=part * power.real, minlength=n_r)
        folded[1] = np.bincount(radius_of, weights=part * power.imag, minlength=n_r)
        folded *= pref
        turn = 1.0 if d % 2 == 0 else 1j
        coeff = float(np.exp(-0.5 * log_factorial(d)))
        for a, lag in enumerate(_laguerre_seq(x, d, dim - d)):
            re, im = folded @ lag
            rho[a + d, a] = scale * coeff * turn * complex(re, im)
            coeff *= np.sqrt((a + 1.0) / (a + 1.0 + d))
        power *= minus_b
    return rho


def overlap(chi: CharFunction, target: GaussianChannel | CharFunction,
            conjugate: bool = False) -> float:
    """Re (1/pi) int conj(chi(beta)) chi_target(beta) d^2 beta, which is
    Tr[rho rho_target] for states.  ``target`` is a channel, sampled here on
    rows ``0 .. half`` of chi's grid by ``CharGrid.sample_half``, or a chi on
    chi's own grid (``overlap(chi, chi)`` is the purity).

    Both chi are Hermitian, so a mirror pair beta, -beta adds the same
    Re(conj chi chi_target) twice: the sum is
    (h^2/pi) [2 sum_(rows < half) + sum_(row half)] over the half plane.
    A real target skips Im chi.  ``overlaps`` takes a batch of channels.

    ``conjugate`` scores conj(chi) instead, the chi turned by pi, from chi's
    own rows: negating a sum negates each of its roundings, so the bits are
    those of the conjugated copy."""
    half = chi.grid.n_side // 2
    if isinstance(target, CharFunction):
        if target.grid != chi.grid:
            raise ValueError("overlap needs both chi on one grid")
        target_half = target.values[: half + 1]
    else:
        target_half = chi.grid.sample_half(target)
    c = chi.values[: half + 1]
    rows = np.sum(c.real * target_half.real, axis=1)
    if np.iscomplexobj(target_half):
        imag = np.sum(c.imag * target_half.imag, axis=1)
        rows = rows - imag if conjugate else rows + imag
    return float((2.0 * np.sum(rows[:half]) + rows[half]) * chi.grid.weight / np.pi)


def overlaps(chi: CharFunction, targets: Sequence[GaussianChannel],
             conjugate: bool = False) -> np.ndarray:
    """``overlap`` of chi (or of its conjugate) with each channel of ``targets``.

    When the targets share a ``SeparableChi`` base, each through a diagonal
    X and no noise (the squeeze-fit targets and alignment probes of every
    closed-form input), target k on the half grid is sum_t a_tk (x) b_tk
    with a_tk = f_t(X_k[0, 0] re[:half + 1]) and b_tk = g_t(X_k[1, 1] im).
    The half-plane sum is then sum_t rowsum(a_t . ((W C) @ b_t)), W the row
    weights (2, ..., 2, 1) and C = Re chi for real factors or conj chi for
    complex ones: one matrix product for the batch, and no target is
    sampled on the mesh.  Any other batch (a Fock-sum input) samples each
    target by ``overlap``."""
    base = targets[0].base if targets else None
    if not isinstance(base, SeparableChi) or any(
            t.base is not base or t.X[0, 1] or t.X[1, 0] or t.Y.any() for t in targets):
        return np.array([overlap(chi, t, conjugate) for t in targets])
    re, im = chi.grid.half_axes()
    scales = np.array([t.X[0, 0] for t in targets]), np.array([t.X[1, 1] for t in targets])
    factors = base.factors(scales[0][:, None] * re, scales[1][:, None] * im)
    k = len(targets)
    a = np.stack([np.broadcast_to(f, (k, len(re))) for f, _ in factors])  # (t, k, rows)
    b = np.concatenate([np.broadcast_to(g, (k, len(im))) for _, g in factors])  # (t k, cols)
    c = chi.values[: len(re)]
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        c = c if conjugate else np.conj(c)
    else:
        c = c.real
    weights = np.full((len(re), 1), 2.0)
    weights[-1] = 1.0
    contracted = ((weights * c) @ b.T).T.reshape(a.shape)  # (t, k, rows)
    return np.einsum("tkr,tkr->k", a, contracted).real * (chi.grid.weight / np.pi)
