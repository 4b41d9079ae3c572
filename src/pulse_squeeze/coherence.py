"""Output coherence function and its seeded / squeezed-vacuum mode split.

The first-order coherence of the output field is assembled from the input
pulse's second moments and the device kernels:

    g1(x1, x2) = n f~*(x1) f~(x2) + m* f~*(x1) g~*(x2)
               + m g~(x1) f~(x2) + n g~(x1) g~*(x2)
               + sum_x' G(x1, x') G*(x2, x') dt

with ``f~ = F u`` and ``g~ = G u`` (dt-weighted) and n, m the input
occupation and anomalous moment.  The first four terms depend on the input
state and have rank at most two (a 2x2 problem gives their modes); the
last, the squeezed vacuum the device emits on its own, depends on the
device alone, and its mode ladder is solved only when read, and only for
the few eigenpairs above ``OCCUPATION_CUT`` of the total.

The ladder is the eigenproblem of the Gram matrix ``H H^dag``, with
``H = dt conj(G)``.  A Gaussian start block of a few dozen columns, two
applications of ``H H^dag`` and a Rayleigh-Ritz step (the range finder of
Halko, Martinsson & Tropp, SIAM Rev. 53, 217 (2011)) give its top pairs in
O(n^2 k) without forming the n x n matrix.  The start block is drawn from a
fixed counter stream (splitmix64 and Box-Muller, in numpy arithmetic, so a
ladder solve does not import ``numpy.random``); the certificate, not the
start, vouches for the result.  Ritz values never exceed the eigenvalues they
approximate, so ``vacuum_total`` minus the sum of the block's Ritz values
bounds every eigenvalue the block did not keep; the block is accepted when
that bound stays under the cut and each kept pair's residual is at
round-off, and grown from its kept count otherwise.  A ladder so wide that
its blocks would together pass the storage of n / 4 complex columns goes
to the dense solve instead, which forms the Gram matrix by one rank-k
update and solves it by a subset ``eigh``.

A reader of only the first few pairs (a ``state`` run reads one, or two to
pick a vacuum-seeded output mode) takes ``ModeSpectrum.head``: one narrow
block whose certificate covers those pairs alone, their residuals and the
bound on every other eigenvalue lying below the last of them.

Everything a ``state`` run or a sweep reads goes through the kernels'
product protocol (``BogoliubovKernels.times``): the images ``F u`` and
``G u`` (for a sweep's device group, of all its pulses in one block), and
the ladder blocks' products with G and G^T, for the head and the full
ladder alike.  With ``vacuum_total``, which a resonant cavity sums tile
by tile, these need no n x n matrix, so a resonant cavity
(``kernels.CirculantKernels``) never fills one for them.  The dense
ladder solve, the vacuum kernel and ``g1_total`` read the filled G.

A real G (float64 kernels: a resonant OPO or TWPA) keeps the whole ladder
real: the blocks are real with twice the columns in the same storage, and
the dense solve forms a real symmetric Gram matrix by ``syrk``; a complex
G takes complex blocks and ``herk``.  The branch reads the kernels'
``dtype``, never G itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .grids import HermitianKernel, ModeFunction, _clamp_negative, _pin_phase
from .kernels import BogoliubovKernels, apply_to_mode
from .states import QuantumState, destroy

__all__ = [
    "InputMoments",
    "ModeSpectrum",
    "input_moments",
    "g1_total",
    "vacuum_kernel",
    "seeded_vacuum_split",
    "single_mode_condition",
    "occupation_ratio",
]

# Occupations below this fraction of the total are reported as unpopulated.
OCCUPATION_CUT = 1e-8

# The ladder's block solve: the seed of its Gaussian start, its first width
# in complex columns (a real block has twice as many in the same storage),
# and the share of n its blocks may use together before the dense solve is
# the cheaper one.
LADDER_SEED = 2011
LADDER_START = 32
LADDER_SHARE = 4
# Columns per pair of a ladder head's block, complex for a complex G and
# real for a real one: the head's accuracy rests on the block's rank, not
# on its storage.
LADDER_HEAD = 16
# A kept Ritz pair is accepted when its residual is at round-off against the
# top value, and small against its gap to the other values: residual over
# gap bounds the angle to the true eigenvector (Davis-Kahan).
RITZ_RESIDUAL_TOL = 1e-13
RITZ_ANGLE_TOL = 1e-5

# The seeded kernel may dip slightly negative for states with |m| > n (the
# even cat exceeds the single-mode condition by ~1e-5 relative); anything
# below this relative level is a real error.
SEEDED_NEG_TOL = 1e-4


@dataclass(frozen=True)
class InputMoments:
    """Second moments of the input mode: n = <a^dag a>, m = <a a>."""

    n: float
    m: complex

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("occupation must be non-negative")
        bound = np.sqrt(self.n * (self.n + 1.0))
        if abs(self.m) > bound * (1.0 + 1e-9) + 1e-12:
            raise ValueError(
                f"|m| = {abs(self.m):.6g} violates the uncertainty bound "
                f"sqrt(n(n+1)) = {bound:.6g}"
            )


@dataclass(frozen=True)
class ModeSpectrum:
    """Occupations and mode shapes of the output field.

    ``seeded`` holds the (at most two) input-fed modes, ``vacuum`` the
    squeezed-vacuum ladder of ``kernels`` truncated at ``OCCUPATION_CUT`` of
    the total.  The ladder is solved the first time it is read, and only its
    eigenpairs above the cut are computed (``(lam, mode)`` pairs,
    descending), typically a dozen of n: by the certified block solve, or
    by the dense one when the ladder is too wide for it.  ``head(k)``
    gives its first k pairs, from a block of their own while the full
    ladder is unsolved.
    """

    seeded: list[tuple[float, ModeFunction]]
    seeded_total: float
    vacuum_total: float
    kernels: BogoliubovKernels = field(repr=False)
    _heads: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def total(self) -> float:
        return self.seeded_total + self.vacuum_total

    @cached_property
    def vacuum(self) -> list[tuple[float, ModeFunction]]:
        """Ladder eigenpairs above the cut: the descending, phase-pinned
        eigenpairs of :func:`vacuum_kernel`, dt-normalized.

        The matrix solved, ``vacuum_kernel(k).entries.T * dt``, is the Gram
        matrix ``H H^dag`` of ``H = dt conj(G)``, positive semidefinite by
        construction.  No
        eigenvalue exceeds its trace ``vacuum_total``, so a ladder whose
        total is within the cut is empty.  Otherwise :func:`_block_ladder`
        solves it from blocks of a few dozen columns and certifies the
        result; when its blocks would pass n / ``LADDER_SHARE`` columns
        (complex, or twice as many real ones),
        :func:`_dense_ladder` forms the matrix and solves it instead.
        """
        k = self.kernels
        dt = k.grid.dt
        cut = OCCUPATION_CUT * self.total
        if self.vacuum_total <= cut:
            return []
        pairs = _block_ladder(k, dt, self.vacuum_total, cut)
        if pairs is None:
            pairs = _dense_ladder(k.G, dt, cut)
        return self._modes(*pairs)

    def head(self, count: int) -> list[tuple[float, ModeFunction]]:
        """``vacuum[:count]``, without the rest of the ladder when it is not
        solved yet: one ``_ritz_block`` of ``LADDER_HEAD`` columns per pair,
        certified for its first ``count`` pairs alone.  A block past the
        ladder's block budget, or one that fails its certificate, falls back
        to the full ladder."""
        k = self.kernels
        cut = OCCUPATION_CUT * self.total
        cols = LADDER_HEAD * count
        per = 1 if k.dtype == complex else 2
        if ("vacuum" in self.__dict__ or self.vacuum_total <= cut
                or cols > per * (k.grid.n_points // LADDER_SHARE)):
            return self.vacuum[:count]
        if count not in self._heads:
            vals, vecs, certified = _ritz_block(k, k.grid.dt, self.vacuum_total, cut, cols, count)
            self._heads[count] = self._modes(vals, vecs) if certified else self.vacuum[:count]
        return self._heads[count]

    def _modes(self, vals, vecs) -> list[tuple[float, ModeFunction]]:
        grid = self.kernels.grid
        return [
            (float(lam), ModeFunction(grid, _pin_phase(vec) / np.sqrt(grid.dt)))
            for lam, vec in zip(vals, vecs.T)
        ]


def _block_ladder(k: BogoliubovKernels, dt: float, total: float, cut: float):
    """Descending ladder pairs ``(vals, vecs)`` of the kernels ``k`` above
    ``cut`` from the first certified block, or None when the blocks would
    together pass the storage of n / ``LADDER_SHARE`` complex columns.  The
    first block holds ``LADDER_START`` complex columns, or twice as many
    real ones when G is real.  A failed block of c columns sizes the next
    from its kept count m: ``max(c, 2 m) + 16`` columns, or three times as
    many when all its pairs were kept, since m then only bounds the ladder
    from below."""
    per = 1 if k.dtype == complex else 2
    budget = per * (k.grid.n_points // LADDER_SHARE)
    cols = per * LADDER_START
    while cols <= budget:
        budget -= cols
        vals, vecs, certified = _ritz_block(k, dt, total, cut, cols)
        if certified:
            return vals, vecs
        kept = len(vals)
        cols = 3 * cols if kept == cols else max(cols, 2 * kept) + 16
    return None


def _gaussian_block(rows: int, cols: int) -> np.ndarray:
    """A standard normal ``(rows, cols)`` block from ``LADDER_SEED``: the
    splitmix64 outputs of a counter, paired into uniforms by Box-Muller.
    The integers wrap in array arithmetic only, which raises no overflow."""
    size = rows * cols
    z = np.arange(1, size + size % 2 + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(LADDER_SEED)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    u1, u2 = (z >> np.uint64(11)).astype(float).reshape(2, -1) * 2.0**-53  # in [0, 1)
    radius, angle = np.sqrt(-2.0 * np.log1p(-u1)), 2.0 * np.pi * u2
    normal = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return normal[:size].reshape(rows, cols)


def _ritz_block(k: BogoliubovKernels, dt: float, total: float, cut: float, cols: int,
                count=None):
    """Ritz pairs above ``cut`` of a ``cols``-column block, at most
    ``count`` of them, and whether they are certified.  G acts through the
    kernels' product protocol (``BogoliubovKernels.times``), so a block
    fills no matrix.

    The block ``Omega`` is ``_gaussian_block``, drawn as ``2 cols`` reals
    viewed as ``cols`` complex columns for a complex G and as ``cols`` real
    columns for a real one.

    ``H x = dt conj(G conj(x))`` and ``H^dag x = dt G^T x`` act on the thin
    blocks only.  ``Q`` spans ``(H H^dag)^2 Omega``; with
    ``H^dag Q = W S Z^dag``, the Ritz values are ``S^2``, the Ritz vectors
    ``Q Z``, and ``H H^dag Q Z = H W S`` gives their residuals.  The Ritz
    values ``theta`` sit below the eigenvalues they approximate, so every
    eigenvalue not kept is at most the first value not kept plus
    ``total - sum(theta)``; certified means that bound is under the cut and
    every kept residual passes ``RITZ_RESIDUAL_TOL`` and ``RITZ_ANGLE_TOL``,
    the latter against the gap to the neighbouring kept values (below the
    last one, to the bound).  When ``count`` pairs are kept from a longer
    ladder, the bound need only lie below the last of them: the kept pairs
    are then the top ``count`` of the ladder.
    """
    n, is_complex, times = k.grid.n_points, k.dtype == complex, partial(k.times, "G")

    def h(x):
        return dt * np.conj(times(np.conj(x)))

    def h_adj(x):
        return dt * times(x, transpose=True)

    if is_complex:
        omega = _gaussian_block(n, 2 * cols).view(complex)
    else:
        omega = _gaussian_block(n, cols)
    q = np.linalg.qr(h(h_adj(omega)))[0]
    q = np.linalg.qr(h(h_adj(q)))[0]
    w, s, zh = np.linalg.svd(h_adj(q), full_matrices=False)
    theta = s**2
    kept = min(int(np.count_nonzero(theta > cut)), count or cols)
    vecs = q @ zh[:kept].conj().T
    residual = np.linalg.norm(h(w[:, :kept] * s[:kept]) - vecs * theta[:kept], axis=0)
    bound = (theta[kept] if kept < cols else 0.0) + (total - theta.sum())
    edges = np.concatenate([[np.inf], theta[:kept], [bound]])
    gap = np.minimum(edges[:-2] - edges[1:-1], edges[1:-1] - edges[2:])
    tol = np.minimum(RITZ_RESIDUAL_TOL * theta[0], RITZ_ANGLE_TOL * gap)
    limit = theta[kept - 1] if kept == count else cut
    return theta[:kept], vecs, bool(bound < limit and np.all(residual <= tol))


def _dense_ladder(g: np.ndarray, dt: float, cut: float):
    """Descending ladder pairs above ``cut`` from the formed Gram matrix: one
    rank-k update (``syrk`` for a real G, ``herk`` for a complex one) fills
    its lower triangle, the one the solve reads, and a solve restricted to
    ``(cut, inf)`` misses nothing but round-off."""
    import scipy.linalg.blas

    # syrk with trans=1 forms a^T a, herk with trans=2 a^H a; a = G^T is a
    # view, not a copy.
    if np.iscomplexobj(g):
        m = scipy.linalg.blas.zherk(dt**2, g.T, trans=2, lower=1)
    else:
        m = scipy.linalg.blas.dsyrk(dt**2, g.T, trans=1, lower=1)
    vals, vecs = scipy.linalg.eigh(m, subset_by_value=(cut, np.inf), overwrite_a=True)
    return vals[::-1], vecs[:, ::-1]


def input_moments(state: QuantumState) -> InputMoments:
    """Moments n = Tr[rho a^dag a], m = Tr[rho a a] in the truncated basis."""
    a = destroy(state.dim)
    top = float(np.real(np.trace(state.rho[-2:, -2:])))
    if top > 1e-4:
        warnings.warn(
            f"top two Fock levels carry population {top:.2e}; "
            "moments may be truncation-biased",
            stacklevel=2,
        )
    n = float(np.real(state.expect(a.conj().T @ a)))
    m = state.expect(a @ a)
    return InputMoments(n=max(n, 0.0), m=m)


def vacuum_kernel(k: BogoliubovKernels) -> HermitianKernel:
    """Squeezed-vacuum part of g1: the device's output with no input pulse."""
    dt = k.grid.dt
    vac = dt * (k.G @ k.G.conj().T)
    return HermitianKernel(k.grid, vac, atol=1e-8)


def g1_total(
    k: BogoliubovKernels, u: ModeFunction, moments: InputMoments
) -> HermitianKernel:
    """Full output coherence function for an input pulse in mode u."""
    fu, gu = apply_to_mode(k, u)
    n, m = moments.n, moments.m
    seeded = (
        n * np.outer(fu.conj(), fu)
        + np.conj(m) * np.outer(fu.conj(), gu.conj())
        + m * np.outer(gu, fu)
        + n * np.outer(gu, gu.conj())
    )
    total = seeded + vacuum_kernel(k).entries
    return HermitianKernel(k.grid, total, atol=1e-8)


def seeded_vacuum_split(
    k: BogoliubovKernels, fu: np.ndarray, gu: np.ndarray, moments: InputMoments
) -> ModeSpectrum:
    """Split g1 into input-seeded modes and squeezed-vacuum modes.

    ``fu`` and ``gu`` are the input pulse's dt-weighted images ``F u`` and
    ``G u`` on ``k``: one pulse from ``kernels.apply_to_mode``, or a column
    each of the images a sweep's device group takes of all its pulses at
    once (``kernels.apply_to_block``).  The input reaches the output through
    these two vectors alone.

    With ``V = [F u, conj(G u)] = Q R`` and ``M = [[n, m*], [m, n]]``, the
    seeded part of g1 is ``Q R M^T R^dag Q^dag``: the eigenpairs ``(lam, y)``
    of the 2x2 matrix ``dt R M^T R^dag`` give the seeded occupations and
    modes ``Q y``.
    """
    dt = k.grid.dt
    q, r = np.linalg.qr(np.column_stack([fu, gu.conj()]))
    mt = np.array([[moments.n, moments.m], [np.conj(moments.m), moments.n]])
    vals, vecs = np.linalg.eigh(dt * (r @ mt @ r.conj().T))
    try:
        vals = _clamp_negative(vals[::-1], SEEDED_NEG_TOL)
    except ValueError:
        if abs(moments.m) <= moments.n:
            raise
        raise ValueError(
            f"the input's |m| = {abs(moments.m):.6g} exceeds n = {moments.n:.6g}, so the "
            f"seeded part of g1 is indefinite (negative eigenvalue {vals[0]:.3e})") from None
    seeded_total = float(vals.sum())
    vacuum_total = k.vacuum_total
    cut = OCCUPATION_CUT * (seeded_total + vacuum_total)
    seeded = [
        (float(lam), ModeFunction(k.grid, _pin_phase(q @ y) / np.sqrt(dt)))
        for lam, y in zip(vals, vecs[:, ::-1].T)
        if lam > cut
    ]
    return ModeSpectrum(seeded, seeded_total, vacuum_total, kernels=k)


def single_mode_condition(moments: InputMoments) -> tuple[bool, float]:
    """Test n = |m|, the condition for the input to feed exactly one mode."""
    deviation = abs(moments.n - abs(moments.m)) / max(moments.n, 1e-12)
    return deviation < 1e-6, float(deviation)


def occupation_ratio(spectrum: ModeSpectrum) -> float:
    """Dominant-mode fraction n1 / (n1 + n2) of the seeded output."""
    if not spectrum.seeded:
        raise ValueError("no seeded modes: the input did not feed the output")
    n1 = spectrum.seeded[0][0]
    n2 = spectrum.seeded[1][0] if len(spectrum.seeded) > 1 else 0.0
    return float(n1 / (n1 + n2))
