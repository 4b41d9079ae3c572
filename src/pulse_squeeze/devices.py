"""Kernel builders for the three amplifier archetypes: OPO, OPA, TWPA.

The cavity device (OPO) is a chain of exactly symplectic steps per field
slice: a half-step of the internal detuning/gain dynamics, an exact
decay/exchange rotation between the cavity and the slice, and a second
half-step.  The initial-cavity port is closed by feeding the (vacuum)
end-of-window cavity back into it, which keeps the grid-to-grid map
symplectic to round-off instead of leaking one vacuum mode at the window
edge.  The chain converges to the continuum input-output kernels at second
order in dt.  A detuned OPO runs the chain slice by slice and returns
complex128 kernels.

A TWPA is a chain of identical OPO stages, and a resonant OPO is the chain
of one.  A resonant stage (detuning 0) never mixes x with p: its gain
half-steps commute, and each of its quadrature maps is ``E T E^-1``, a
diagonal scale by the pump area ``C_k`` up to slice k around an
f-circulant Toeplitz ``T`` that all stages share.  The chain raises the
length-n symbol of ``T`` as a polynomial modulo ``z^n - f`` (about
log2(n_stages) convolutions) and returns ``kernels.CirculantKernels``: the
pump profile, the first columns of the x and p maps and the stage's pump
area, O(n) numbers, whose products run by FFT and whose float64 F and G
are filled only when read.  Against a long-double power of the float64 stage (n = 128, stage
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
from .kernels import BogoliubovKernels, CirculantKernels, _quadrature_power, verify_symplectic

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

    At ``detuning == 0`` the cavity is a one-stage resonant chain
    (:func:`_resonant_chain`): float64 kernels held as their f-circulant
    first columns; otherwise the slice chain builds them as complex128
    (:func:`_detuned_opo`).

    Raises
    ------
    GridTooShortError
        If the pump support sticks out of the window or the cavity has not
        rung down at the window end (residual above ``RING_DOWN_TOL``); the
        message suggests how far to extend the grid.
    """
    if params.detuning:
        return _detuned_opo(params, grid, _covered_areas(params.pump, grid))
    return _resonant_chain(grid, *_resonant_pump(params, grid), 1)


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
    and keeps them as its kernels' first columns; it builds no stage kernels and
    multiplies no matrices.  A detuned stage mixes x with p: its real 2n x 2n quadrature
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
                    n_stages: int) -> CirculantKernels:
    """``n_stages`` resonant stages, as their quadrature maps' first columns.

    At zero detuning each gain half-step of the slice chain is ``exp(a_k/2
    sigma_x)`` (``a_k`` the pump area of slice k): the half-steps commute,
    and ``x = phi + psi`` and ``p = phi - psi`` evolve apart.  With ``C_k``
    (``mid``) the pump area up to the middle of slice k, ``A`` (``total``)
    and loop gain ``L = eta^n e^A``, the stage's x map is ``X = E T E^-1``
    with ``E = diag(e^(C_k))`` and ``T[k, j] = c_(k-j)`` for ``k >= j``, ``f
    c_(n+k-j)`` for ``k < j``: f-circulant with ``f = e^A``, ``c_0 = eta - s^2
    eta^(n-1) e^A / (1 - L)`` and ``c_d = -s^2 eta^(d-1) / (1 - L)`` for ``d
    >= 1`` (the lower triangle is the chain's emission, the division by ``1
    - L`` and the upper triangle the closure of the initial-cavity port).
    The p map takes ``-C`` and ``-A``.  All stages share ``E``, so ``X^N = E
    T^N E^-1``, and ``T^N`` is f-circulant again, with coefficients from
    :func:`_circulant_power`.  The kernels (:class:`CirculantKernels`) keep
    ``s = C - A / 2``, the first columns of ``T^N`` for x and p, and ``A``;
    centring ``s`` on ``A / 2`` keeps every scale of their fill below
    ``e^(A/2)``.  Without a pump both columns are the same bits, so G is
    exactly 0.
    """
    n = grid.n_points
    eta = math.exp(log_eta)
    index = np.arange(n)

    def column(sign):
        """The first column of ``T^N`` (sign 1) or of the p map's (sign -1)."""
        f = math.exp(sign * total)
        kappa = -(1.0 - eta * eta) / (1.0 - math.exp(n * log_eta + sign * total))
        c = kappa * np.exp((index - 1) * log_eta)
        c[0] = eta + kappa * math.exp((n - 1) * log_eta + sign * total)
        return _circulant_power(c, f, n_stages)

    return CirculantKernels(grid, mid - 0.5 * total, column(1.0), column(-1.0), total)
