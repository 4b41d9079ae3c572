"""Kernel builders for the three amplifier archetypes: OPO, OPA, TWPA.

The cavity device (OPO) is a chain of exactly symplectic steps per field
slice: a half-step of the internal detuning/gain dynamics, an exact
decay/exchange rotation between the cavity and the slice, and a second
half-step.  The initial-cavity port is closed by feeding the (vacuum)
end-of-window cavity back into it, which keeps the grid-to-grid map
symplectic to round-off instead of leaking one vacuum mode at the window
edge.  The chain converges to the continuum input-output kernels at second
order in dt.  A detuned OPO runs the chain slice by slice and returns
complex128 kernels.  At zero detuning the gain half-steps commute and the
cavity's x and p quadratures evolve apart, so the chain sums in closed form
to float64 kernels, with no loop over slices.

A TWPA is a chain of identical OPO stages.  A resonant stage (detuning 0)
never mixes x with p, and each of its quadrature maps is ``E T E^-1``: a
diagonal scale by the pump area ``C_k`` up to slice k around an
f-circulant Toeplitz ``T`` that all stages share.  The chain raises the
length-n symbol of ``T`` as a polynomial modulo ``z^n - f`` (about
log2(n_stages) convolutions) and fills F and G once; its kernels stay
real.  Against a long-double power of the float64 stage (n = 128, stage
area 4 / n_stages) it is off by 8.8e-16, 1.3e-15, 7.6e-15 and 7.6e-14 of
the largest F entry at 2, 7, 100 and 1000 stages; raising the two n x n
maps was off by 6.2e-15, 1.0e-14, 1.7e-13 and 2.9e-12.  A detuned stage
raises its full real 2n x 2n quadrature map (the map ``compose``
multiplies): about log2(n_stages) real squarings, half the flops of the
complex kernel products.  Powers of a symplectic map are symplectic, so
neither fold needs a re-projection.  Measured residuals of
``verify_symplectic`` (stage pump width 0.2, window [-10, 30]), resonant:
2.2e-14 at 100 stages of area 0.01 on 1024 points and 4.7e-14 on 256
points, 4.1e-13 at 1000 stages of area 0.001 on 256 points and 3.1e-13 on
512 (the n x n matrix powers read 2.3e-13, 3.1e-13, 3.4e-12 and 2.5e-12);
detuned (0.3): 6.9e-14 at 100 stages of area 0.01 on 256 points.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .grids import TemporalGrid
from .kernels import BogoliubovKernels, _quadrature_power, verify_symplectic

__all__ = [
    "GaussianPump",
    "OpoParams",
    "OpaParams",
    "TwpaParams",
    "GridTooShortError",
    "build_opo",
    "build_opa",
    "build_twpa",
    "default_opo_grid",
]

# Residual cavity amplitude / anomalous content tolerated at the window end.
RING_DOWN_TOL = 1e-3

_ERF = np.frompyfunc(math.erf, 1, 1)


def _erf(z: np.ndarray) -> np.ndarray:
    """The error function of each entry of ``z``."""
    return np.asarray(_ERF(z), dtype=float)


class GridTooShortError(ValueError):
    """Raised when the grid truncates the pump or the cavity ring-down."""


@dataclass(frozen=True)
class GaussianPump:
    """Gaussian drive pulse with a fixed integrated area.

    The profile is ``area / sqrt(2 pi width^2) * exp(-(t-center)^2 / (2 width^2))``
    so that the total pulse area equals ``area`` regardless of the width.
    """

    area: float
    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError(f"width: must be positive, got {self.width}")

    def profile(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        norm = self.area / np.sqrt(2.0 * np.pi * self.width**2)
        return norm * np.exp(-((t - self.center) ** 2) / (2.0 * self.width**2))

    def step_areas(self, grid: TemporalGrid) -> np.ndarray:
        """Exact pulse area inside each dt-slice centered on a grid point.

        Integrating analytically (rather than sampling the profile) keeps
        pumps much narrower than dt honest: the sum of slice areas is the
        full pulse area whenever the grid covers the pump support.
        """
        dt = grid.dt
        edges = np.linspace(grid.t_start - dt / 2, grid.t_end + dt / 2, grid.n_points + 1)
        z = (edges - self.center) / (np.sqrt(2.0) * self.width)
        cumulative = 0.5 * self.area * (1.0 + _erf(z))
        return np.diff(cumulative)


@dataclass(frozen=True)
class OpoParams:
    """Pulse-pumped degenerate OPO: detuning and decay in cavity units."""

    detuning: float
    decay: float
    pump: GaussianPump

    def __post_init__(self):
        if self.decay <= 0:
            raise ValueError(f"decay: the cavity decay rate must be positive, got {self.decay}")


@dataclass(frozen=True)
class OpaParams:
    """Single-pass amplifier in the frequency domain (no cavity).

    Detuning and spectral width are measured in units of the seed's
    spectral width; ``gain`` scales the pair-creation amplitude.
    """

    gain: float
    pump_center_detuning: float
    pump_spectral_width: float

    def __post_init__(self):
        if self.pump_spectral_width <= 0:
            raise ValueError(
                f"pump_spectral_width: must be positive, got {self.pump_spectral_width}")


@dataclass(frozen=True)
class TwpaParams:
    """Traveling-wave amplifier modeled as identical concatenated OPO stages."""

    stage: OpoParams
    n_stages: int
    per_stage_gain: float

    def __post_init__(self):
        if self.n_stages < 1:
            raise ValueError(f"n_stages: need at least one stage, got {self.n_stages}")


def default_opo_grid(gamma: float = 1.0, n_points: int = 1024) -> TemporalGrid:
    """Window covering the pump region and the cavity ring-down tail."""
    return TemporalGrid(-10.0 / gamma, 30.0 / gamma, n_points)


def _gain_half_step(delta: float, xi_bar: float, tau: float) -> tuple[complex, float]:
    """Entries (E11, E12) of exp(tau * [[-i delta, xi], [xi, i delta]]).

    The generator squares to (xi^2 - delta^2) * identity, giving a closed
    form; E22 = conj(E11) and E21 = E12.
    """
    w = xi_bar * xi_bar - delta * delta
    lam = np.sqrt(complex(w))
    z = lam * tau
    if abs(z) < 1e-8:
        ch = 1.0 + z * z / 2.0
        shf = tau * (1.0 + z * z / 6.0)
    else:
        ch = np.cosh(z)
        shf = np.sinh(z) / lam
    return complex(ch - 1j * delta * shf), float(np.real(xi_bar * shf))


def _check_ring_down(loop_norm: float, anomalous: float, gamma: float) -> None:
    """Raise when the cavity has not rung down at the window end: the loop
    gain of the initial-cavity port or the final anomalous content is above
    ``RING_DOWN_TOL``."""
    if loop_norm > RING_DOWN_TOL or anomalous > RING_DOWN_TOL:
        worst = max(loop_norm, anomalous)
        extend = 2.0 * np.log(worst / RING_DOWN_TOL) / gamma + 5.0 / gamma
        raise GridTooShortError(
            f"cavity ring-down truncated (residual {worst:.2e} > {RING_DOWN_TOL:g}); "
            f"extend t_end by about {extend:.3g}"
        )


def _covered_areas(pump: GaussianPump, grid: TemporalGrid) -> np.ndarray:
    """The pump area of each slice; raises when the window misses part of it."""
    areas = pump.step_areas(grid)
    missing = abs(float(areas.sum()) - pump.area)
    if missing > 1e-6 * max(abs(pump.area), 1e-12):
        raise GridTooShortError(
            f"grid covers only {areas.sum():.6g} of the pump area "
            f"{pump.area:.6g}; widen the window around t = {pump.center:g}"
        )
    return areas


def _resonant_pump(params: OpoParams, grid: TemporalGrid) -> tuple[np.ndarray, float, float]:
    """``C_k``, the pump area up to the middle of slice k, the total area
    ``A`` and ``log eta`` of a resonant cavity, after both grid checks.

    The final cavity rows are ``x_j = -s eta^(n-1-j) e^(A - C_j)`` and ``p_j``
    the same with ``-(A - C_j)``; the anomalous part is ``(x - p) / 2``.  The
    2 x 2 loop has singular values ``eta^n e^(+-A)``.
    """
    areas = _covered_areas(params.pump, grid)
    n = grid.n_points
    log_eta = -params.decay * grid.dt / 2.0
    mid = np.cumsum(areas) - 0.5 * areas
    total = float(areas.sum())
    eta = math.exp(log_eta)
    s = math.sqrt(1.0 - eta * eta)
    tail = np.exp((n - 1 - np.arange(n)) * log_eta)
    _check_ring_down(math.exp(n * log_eta + abs(total)),
                     s * float(np.linalg.norm(tail * np.sinh(total - mid))), params.decay)
    return mid, total, log_eta


def build_opo(params: OpoParams, grid: TemporalGrid) -> BogoliubovKernels:
    """Input-output kernels of a pulse-pumped OPO cavity.

    At ``detuning == 0`` the kernels are float64 and come in closed form
    (:func:`_resonant_opo`); otherwise the slice chain builds them as
    complex128 (:func:`_detuned_opo`).

    Raises
    ------
    GridTooShortError
        If the pump support sticks out of the window or the cavity has not
        rung down at the window end (residual above ``RING_DOWN_TOL``); the
        message suggests how far to extend the grid.
    """
    if params.detuning:
        return _detuned_opo(params, grid, _covered_areas(params.pump, grid))
    return _resonant_opo(grid, *_resonant_pump(params, grid))


def _detuned_opo(params: OpoParams, grid: TemporalGrid,
                 areas: np.ndarray) -> BogoliubovKernels:
    """The slice chain: per slice, a gain half-step, the exact cavity <->
    slice exchange and a second half-step, on complex coefficient rows."""
    n = grid.n_points
    dt = grid.dt
    xi_bar = areas / dt
    eta = math.exp(-params.decay * dt / 2.0)
    s = math.sqrt(1.0 - eta * eta)

    # Coefficient rows of the running cavity operator over the n field
    # slices plus the initial-cavity port (column n).  The emitted rows keep
    # the port column apart, so the closure below adds into the output rows
    # in place.
    phi = np.zeros(n + 1, dtype=complex)
    psi = np.zeros(n + 1, dtype=complex)
    phi[n] = 1.0
    out_f = np.empty((n, n), dtype=complex)
    out_g = np.empty((n, n), dtype=complex)
    port_f = np.empty(n, dtype=complex)
    port_g = np.empty(n, dtype=complex)

    for k in range(n):
        e11, e12 = _gain_half_step(params.detuning, xi_bar[k], dt / 2.0)
        phi, psi = e11 * phi + e12 * psi.conj(), e11 * psi + e12 * phi.conj()
        # Exact cavity <-> slice exchange; the emitted slice leaves before
        # the second half-step.
        out_f[k] = s * phi[:n]
        out_f[k, k] += eta
        port_f[k] = s * phi[n]
        out_g[k] = s * psi[:n]
        port_g[k] = s * psi[n]
        phi = eta * phi
        phi[k] -= s
        psi = eta * psi
        phi, psi = e11 * phi + e12 * psi.conj(), e11 * psi + e12 * phi.conj()

    loop = np.array([[phi[n], psi[n]], [np.conj(psi[n]), np.conj(phi[n])]])
    _check_ring_down(float(np.linalg.norm(loop, 2)), float(np.linalg.norm(psi[:n])),
                     params.decay)

    # Close the initial-cavity port c0 = sum_j alpha_j a_j + beta_j a_j^dag
    # with the (vacuum) final cavity field, c0 = phi_n c0 + psi_n c0^dag +
    # (the final rows), so the n x n map stays symplectic.  Its a_j rows
    # couple alpha with conj(beta): (I - loop) [alpha; conj beta] = [phi;
    # conj psi].  The loop gain is the ring-down residual, far below
    # RING_DOWN_TOL.
    alpha, beta_c = np.linalg.solve(np.eye(2) - loop, np.vstack([phi[:n], psi[:n].conj()]))
    out_f += port_f[:, None] * alpha
    out_f += port_g[:, None] * beta_c
    out_g += port_f[:, None] * beta_c.conj()
    out_g += port_g[:, None] * alpha.conj()
    out_f /= dt
    np.conjugate(out_g, out=out_g)
    out_g /= dt
    return BogoliubovKernels(grid, out_f, out_g)


# Row tiles of ``_resonant_opo``: at most _TILE_ROWS rows, and few enough
# that the cavity decay across a tile, |log eta| per row, adds at most
# _TILE_DECAY to the exponent of a tile-local factor.
_TILE_DECAY = 16.0
_TILE_ROWS = 64


def _resonant_opo(grid: TemporalGrid, mid: np.ndarray, total: float,
                  log_eta: float) -> BogoliubovKernels:
    """The slice chain at zero detuning, summed in closed form.

    Each gain half-step is then ``exp(a_k/2 sigma_x)`` (``a_k`` the pump
    area of slice k): the half-steps commute, and ``x = phi + psi`` and ``p
    = phi - psi`` evolve apart, scaled by ``e^(+a_k/2)`` and ``e^(-a_k/2)``.
    With ``C_k`` (``mid``) the pump area up to the middle of slice k, ``A``
    (``total``) the total area and ``eta = exp(log_eta)``, the x map ``X =
    (F + G) dt`` is

        X[k, j] = eta delta_kj - s^2 eta^(k-j-1) e^(C_k - C_j) / (1 - L)     (k > j)
        X[k, j] = eta delta_kj - s^2 eta^(n+k-j-1) e^(A + C_k - C_j) / (1 - L)   (k <= j)

    with loop gain ``L = eta^n e^A``: the lower triangle is the chain's
    emission, and the division by ``1 - L`` (and the upper triangle) the
    closure of the initial-cavity port.  ``P = (F - G) dt`` is the same
    with ``-C`` and ``-A``.  Past ``eta delta_kj``, every entry is the
    product of a row and a column factor, so F and G are written row tile
    by row tile as rank-2 products; each tile takes its exponents relative
    to its first row, so no factor overflows on a long window.
    """
    n = grid.n_points
    eta = math.exp(log_eta)

    # Rows: x, p.  kappa folds in -s^2 / (1 - L) and the 1 / (2 dt) of
    # F = (X + P) / (2 dt), G = (X - P) / (2 dt).
    sign = np.array([[1.0], [-1.0]])
    loop = np.exp(n * log_eta + sign * total)
    kappa = -(1.0 - eta * eta) * (0.5 / grid.dt) / (1.0 - loop)
    index = np.arange(n)
    tile = int(min(_TILE_ROWS, max(1.0, _TILE_DECAY / -log_eta)))
    upper = ~np.tri(tile, k=-1, dtype=bool)
    F = np.empty((n, n))
    G = np.empty((n, n))
    for k0 in range(0, n, tile):
        k1 = min(k0 + tile, n)
        # Row factors eta^(k-k0) e^(+-(C_k - C_k0)); column factors kappa
        # eta^(k0-1-j) e^(-+(C_j - C_k0)) below the diagonal and, for the
        # closure on and above it, the same times eta^n e^(+-A).  Powers of
        # eta are integer multiples of log_eta: a difference of two long
        # products would lose digits on a long window.
        d = sign * (mid - mid[k0])  # +-(C_j - C_k0)
        rows = np.exp(index[: k1 - k0] * log_eta + d[:, k0:k1])
        power = k0 - 1 - index
        cols = np.empty((2, n))
        cols[:, :k1] = kappa * np.exp(power[:k1] * log_eta - d[:, :k1])
        above = kappa * np.exp((power[k0:] + n) * log_eta + sign * total - d[:, k0:])
        cols[:, k1:] = above[:, k1 - k0:]
        above = above[:, : k1 - k0]  # the tile's diagonal block, k <= j
        keep = upper[: k1 - k0, : k1 - k0]
        # F = x + p and G = x - p as rank-2 products.  G takes the row
        # factors (x - p, p) and the column factors (x, x - p), so it is
        # exactly 0 without a pump.
        (x, p), (cx, cp), (ax, ap) = rows, cols, above
        for out, r, c, a in ((F, rows, cols, above),
                             (G, [x - p, p], [cx, cx - cp], [ax, ax - ap])):
            r = np.transpose(r)
            np.matmul(r, c, out=out[k0:k1])
            np.copyto(out[k0:k1, k0:k1], r @ a, where=keep)
    F.flat[:: n + 1] += eta / grid.dt
    return BogoliubovKernels(grid, F, G)


def build_opa(params: OpaParams, grid: TemporalGrid) -> BogoliubovKernels:
    """Kernels of a single-pass amplifier, grid interpreted as frequency.

    The pair-creation kernel ``J(w, w') = gain * exp(-(w + w' - 2 d)^2 /
    (2 s_p^2))`` (flat phase matching, pump detuned by ``d`` from the seed
    carrier) is real symmetric, so its real eigenvectors ``O`` are independent
    squeezers of strength ``sigma = 2 |lam| dw`` (the normal-mode form;
    Braunstein, PRA 71, 055801 (2005)): ``F dw = O cosh(sigma) O^T = cosh(2 dw
    J)`` is real symmetric and ``G dw = i O sign(lam) sinh(sigma) O^T = i
    sinh(2 dw J)`` imaginary symmetric, two real products stored as complex128.
    ``verify_symplectic`` still checks that ``O`` came out orthogonal and that
    cosh^2 - sinh^2 = 1 survived round-off, which a large exponent breaks.
    """
    w = grid.points
    dw = grid.dt
    J = params.gain * np.exp(
        -((w[:, None] + w[None, :] - 2.0 * params.pump_center_detuning) ** 2)
        / (2.0 * params.pump_spectral_width**2)
    )

    lam, O = np.linalg.eigh(J)
    sigma = 2.0 * np.abs(lam) * dw
    if sigma.max() > 300.0:
        raise ValueError(
            f"gain too large for this grid: squeeze exponent {sigma.max():.3g} "
            "would overflow; reduce gain or refine the grid"
        )
    F = (O * (np.cosh(sigma) / dw)) @ O.T
    G = 1j * ((O * (np.sign(lam) * np.sinh(sigma) / dw)) @ O.T)
    kernels = BogoliubovKernels(grid, F, G)

    report = verify_symplectic(kernels)
    if report.max_residual > 1e-5:
        raise ValueError(
            f"amplifier exponential lost symplecticity "
            f"(residual {report.max_residual:.2e}); gain too large for grid resolution"
        )
    return kernels


def build_twpa(params: TwpaParams, grid: TemporalGrid) -> BogoliubovKernels:
    """Fold ``n_stages`` identical OPO stages into one kernel pair.

    A resonant stage's quadrature maps are ``E T E^-1`` with ``E =
    diag(e^(+-C_k))`` and ``T`` f-circulant (:func:`_resonant_chain`), so the
    chain raises two length-n coefficient vectors to the power ``n_stages``
    and fills F and G once; it builds no stage kernels and multiplies no
    matrices.  A detuned stage mixes x with p: its real 2n x 2n quadrature
    map is raised by ``kernels._quadrature_power``.  Both run the stage's
    grid checks.  Against a long-double power of the float64 stage (n =
    128, stage area 4 / n_stages), the resonant fold is off by 8.8e-16,
    1.3e-15, 7.6e-15 and 7.6e-14 of the largest F entry at 2, 7, 100 and
    1000 stages, where raising the matrices was off by 6.2e-15 to 2.9e-12.
    The symplectic residual grows only by round-off (detuned: 6.9e-14 at
    100 stages, n = 256), so nothing is re-projected.
    One stage returns the stage kernels unchanged.
    """
    stage_params = dataclasses.replace(
        params.stage,
        pump=dataclasses.replace(params.stage.pump, area=params.per_stage_gain),
    )
    if params.n_stages == 1:
        return build_opo(stage_params, grid)
    if stage_params.detuning:
        return _quadrature_power(build_opo(stage_params, grid), params.n_stages)
    return _resonant_chain(grid, *_resonant_pump(stage_params, grid), params.n_stages)


def _circulant_power(c: np.ndarray, f: float, power: int) -> np.ndarray:
    """Coefficients of ``c(z)^power`` modulo ``z^n - f``, ``n = len(c)``.

    The f-circulant matrices ``sum_d c_d Z^d`` (``Z`` the down-shift whose
    wrapped corner entry is ``f``, so ``Z^n = f I``) multiply as these
    polynomials.  One product is a convolution whose top ``n - 1``
    coefficients wrap onto the bottom ones times ``f``; the power takes
    floor(log2(power)) squarings, plus one product for each set bit above
    the lowest.
    """
    n = len(c)

    def times(a, b):
        full = np.convolve(a, b)
        out = full[:n]
        out[:-1] += f * full[n:]
        return out

    result = None
    while True:
        if power & 1:
            result = c if result is None else times(result, c)
        power >>= 1
        if not power:
            return result
        c = times(c, c)


def _resonant_chain(grid: TemporalGrid, mid: np.ndarray, total: float, log_eta: float,
                    n_stages: int) -> BogoliubovKernels:
    """``n_stages`` resonant stages (:func:`_resonant_opo`) in closed form.

    The stage's x map is ``X = E T E^-1`` with ``E = diag(e^(C_k))`` and
    ``T[k, j] = c_(k-j)`` for ``k >= j``, ``f c_(n+k-j)`` for ``k < j``:
    f-circulant with ``f = e^A``, ``c_0 = eta - s^2 eta^(n-1) e^A / (1 -
    L)`` and ``c_d = -s^2 eta^(d-1) / (1 - L)`` for ``d >= 1``.  The p map
    takes ``-C`` and ``-A``.  All stages share ``E``, so ``X^N = E T^N
    E^-1``, and ``T^N`` is f-circulant again, with coefficients from
    :func:`_circulant_power`.  Its n x n entries are a strided Toeplitz view
    of the wrapped coefficients; scaled by ``e^(+-(C_k - C_j))`` they give
    ``X^N`` and ``P^N``, and ``F = (X^N + P^N) / (2 dt)``, ``G = (X^N -
    P^N) / (2 dt)``.  Each scale is a product of a row and a column factor
    centred on ``A / 2``, so no factor passes ``e^(A/2)``.  Without a pump
    both maps are the same bits, so G is exactly 0.
    """
    n = grid.n_points
    eta = math.exp(log_eta)
    index = np.arange(n)
    shifted = mid - 0.5 * total

    def chain_map(sign):
        """``X^N`` (sign 1) or ``P^N`` (sign -1)."""
        f = math.exp(sign * total)
        kappa = -(1.0 - eta * eta) / (1.0 - math.exp(n * log_eta + sign * total))
        c = kappa * np.exp((index - 1) * log_eta)
        c[0] = eta + kappa * math.exp((n - 1) * log_eta + sign * total)
        c = _circulant_power(c, f, n_stages)
        # Entry (k, j) reads wrapped[n - 1 - k + j]: c_(k-j) from the reversed
        # coefficients, f c_(n+k-j) after them.
        wrapped = np.concatenate([c[::-1], f * c[:0:-1]])
        toeplitz = np.lib.stride_tricks.sliding_window_view(wrapped, n)[::-1]
        m = np.exp(sign * shifted)[:, None] * toeplitz
        m *= np.exp(-sign * shifted)
        return m

    x, p = chain_map(1.0), chain_map(-1.0)
    g = x - p
    x += p
    del p
    scale = 0.5 / grid.dt
    x *= scale
    g *= scale
    return BogoliubovKernels(grid, x, g)
