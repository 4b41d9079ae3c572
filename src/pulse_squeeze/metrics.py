"""State-quality metrics: purity, fidelity, quadratures, squeeze fitting.

Metrics accept either a Fock-basis :class:`QuantumState` or a
:class:`CharFunction`; the phase-space paths use the quadrature identities

    Tr[rho^2]     = (1/pi) int |chi|^2 d^2 beta
    Tr[rho sigma] = (1/pi) int chi_rho conj(chi_sigma) d^2 beta

and derivatives of chi at the origin for moments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .charfun import CharFunction, char_of_state, overlap, state_evaluator
from .states import QuantumState, destroy

__all__ = [
    "SqueezeFitResult",
    "purity",
    "fidelity",
    "quadrature_moments",
    "quadrature_variance",
    "gaussian_covariance",
    "mean_photon_number",
    "squeeze_target_evaluator",
    "optimize_squeeze_fidelity",
]


@dataclass(frozen=True)
class SqueezeFitResult:
    """Best-fit ideal squeezing of the input state, gain measured on p."""

    best_r: float
    best_fidelity: float
    fidelity_curve: list[tuple[float, float]]

    @property
    def p_gain(self) -> float:
        return float(np.exp(self.best_r))


def _as_char(state) -> CharFunction:
    if isinstance(state, CharFunction):
        return state
    if isinstance(state, QuantumState):
        return char_of_state(state)
    raise TypeError(f"expected QuantumState or CharFunction, got {type(state)!r}")


def purity(state) -> float:
    """Tr[rho^2], from the density matrix or the overlap of chi with itself."""
    if isinstance(state, QuantumState):
        return float(np.real(np.trace(state.rho @ state.rho)))
    chi = _as_char(state)
    return overlap(chi, chi.values)


def fidelity(rho: QuantumState, target_pure: QuantumState) -> float:
    """Overlap <psi|rho|psi> with a pure target state."""
    if purity(target_pure) < 1.0 - 1e-6:
        raise ValueError("fidelity target must be pure")
    vals, vecs = np.linalg.eigh(target_pure.rho)
    psi = vecs[:, -1]
    d = min(rho.dim, len(psi))
    val = np.real(psi[:d].conj() @ rho.rho[:d, :d] @ psi[:d])
    return float(np.clip(val, 0.0, 1.0))


def quadrature_moments(state, angle: float) -> tuple[float, float]:
    """(<x_theta>, <x_theta^2>) for x_theta = (a e^{-i theta} + a^dag e^{i theta}) / sqrt2.

    From a state: Fock-operator averages.  From a characteristic function:
    five-point stencils on chi(i eps e^{i theta}), with the step refined so
    the truncation error stays near 1e-5 even for strongly amplified
    quadratures.
    """
    if isinstance(state, QuantumState):
        a = destroy(state.dim)
        x = (a * np.exp(-1j * angle) + a.conj().T * np.exp(1j * angle)) / np.sqrt(2.0)
        m1 = float(np.real(state.expect(x)))
        m2 = float(np.real(state.expect(x @ x)))
        return m1, m2

    chi = _as_char(state)

    def probe(h):
        eps = np.array([-2 * h, -h, 0.0, h, 2 * h])
        g = chi(1j * np.exp(1j * angle) * eps)
        d1 = (-g[4] + 8 * g[3] - 8 * g[1] + g[0]) / (12 * h)
        d2 = (-g[4] + 16 * g[3] - 30 * g[2] + 16 * g[1] - g[0]) / (12 * h * h)
        mean = float(np.imag(d1) / np.sqrt(2.0))
        second = float(-np.real(d2) / 2.0)
        return mean, second

    _, rough = probe(0.05)
    h = min(0.05, 0.06 / max(1.0, rough) ** 0.75)
    return probe(h)


def quadrature_variance(state, angle: float) -> float:
    """Variance of the rotated quadrature; vacuum baseline is 1/2."""
    m1, m2 = quadrature_moments(state, angle)
    return float(m2 - m1 * m1)


def gaussian_covariance(state) -> tuple[float, float, float]:
    """(Var x, Var p, Cov xp) from three quadrature angles."""
    vx = quadrature_variance(state, 0.0)
    vp = quadrature_variance(state, np.pi / 2.0)
    vd = quadrature_variance(state, np.pi / 4.0)
    return vx, vp, vd - 0.5 * (vx + vp)


def mean_photon_number(state) -> float:
    """<a^dag a>, from Fock operators or chi second moments."""
    if isinstance(state, QuantumState):
        a = destroy(state.dim)
        return float(np.real(state.expect(a.conj().T @ a)))
    _, x2 = quadrature_moments(state, 0.0)
    _, p2 = quadrature_moments(state, np.pi / 2.0)
    return float(max(0.0, 0.5 * (x2 + p2 - 1.0)))


def squeeze_target_evaluator(input_state: QuantumState, r: float):
    """chi of the input squeezed ideally with amplitude gain e^r.

    The single-mode transformation ``a -> cosh(r) a + sinh(r) a^dag`` maps
    the characteristic function as chi(beta) -> chi(beta cosh r - beta*
    sinh r).  In the package's quadrature convention this amplifies x; the
    amplified axis is displayed as p in figure conventions (one global
    pi/2 phase-space rotation relates the frames).
    """
    base = state_evaluator(input_state)
    ch, sh = np.cosh(r), np.sinh(r)

    def evaluator(b):
        b = np.asarray(b, dtype=complex)
        return base(b * ch - np.conj(b) * sh)

    return evaluator


def _default_r_grid() -> np.ndarray:
    # 40 points, log-spaced in p-quadrature amplitude gain over [1, 10].
    return np.log(np.logspace(0.0, 1.0, 40))


def optimize_squeeze_fidelity(
    rho_v1, input_state: QuantumState, r_grid=None
) -> SqueezeFitResult:
    """Fidelity of rho_v1 against ideally squeezed copies of the input.

    Sweeps the squeeze parameter over ``r_grid`` (default: 40 gains
    log-spaced in [1, 10]), refines once around the peak, and reports the
    maximum.  Fidelities are overlap quadratures in the characteristic
    picture, so non-Gaussian inputs need no Fock truncation; each target is
    sampled on the grid of ``rho_v1``'s chi.
    """
    chi_v = _as_char(rho_v1)

    if r_grid is None:
        r_grid = _default_r_grid()
    r_grid = np.asarray(sorted(set(float(r) for r in r_grid)))

    def fid(r):
        val = overlap(chi_v, chi_v.grid.sample(squeeze_target_evaluator(input_state, r)))
        return float(np.clip(val, 0.0, 1.0))

    curve = [(float(r), fid(r)) for r in r_grid]
    best_i = int(np.argmax([f for _, f in curve]))

    lo = curve[max(best_i - 1, 0)][0]
    hi = curve[min(best_i + 1, len(curve) - 1)][0]
    if hi > lo:
        for r in np.linspace(lo, hi, 17)[1:-1]:
            curve.append((float(r), fid(float(r))))
    curve.sort(key=lambda t: t[0])
    best_r, best_f = max(curve, key=lambda t: t[1])
    if best_r == curve[-1][0] and len(curve) > 1:
        warnings.warn(
            f"squeeze fit peaked at the edge of the r grid (r = {best_r:g}); "
            "extend r_grid",
            stacklevel=2,
        )
    return SqueezeFitResult(best_r=best_r, best_fidelity=best_f, fidelity_curve=curve)
