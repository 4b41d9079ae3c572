"""Single-mode quantum states in a truncated Fock basis.

The library states carry closed-form characteristic-function evaluators
where one exists; downstream phase-space code uses those to avoid both
interpolation and truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .grids import integral

__all__ = [
    "QuantumState",
    "DEFAULT_DIM",
    "destroy",
    "vacuum_state",
    "fock_state",
    "coherent_state",
    "even_cat_state",
    "squeezed_state",
    "parse_state",
    "state_library",
    "log_factorial",
]

DEFAULT_DIM = 60

# Population allowed beyond the truncation when building library states.
TAIL_TOL = 1e-6

_LGAMMA = np.frompyfunc(math.lgamma, 1, 1)


def log_factorial(n):
    """log n! of a non-negative integer, or of each entry of an integer array."""
    return np.asarray(_LGAMMA(np.asarray(n) + 1.0), dtype=float)[()]


@dataclass(frozen=True)
class QuantumState:
    """Density matrix in the number basis.

    ``char_eval``, when present, evaluates the Weyl characteristic function
    chi(beta) = Tr[rho D(beta)] in closed form at beta = u + i v, as
    ``char_eval(u, v)`` on real arrays that broadcast together: the ``base``
    protocol of ``charfun.GaussianChannel``.
    """

    rho: np.ndarray = field(repr=False)
    char_eval: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("rho must be a square matrix")
        herm = np.linalg.norm(rho - rho.conj().T)
        if herm > 1e-10 * max(np.linalg.norm(rho), 1.0):
            raise ValueError(f"rho is not Hermitian (deviation {herm:.3e})")
        rho = 0.5 * (rho + rho.conj().T)
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"rho has trace {tr!r}, expected 1")
        min_eig = float(np.linalg.eigvalsh(rho).min())
        if min_eig < -1e-8:
            raise ValueError(f"rho has a negative eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def expect(self, op: np.ndarray) -> complex:
        return complex(np.trace(self.rho @ op))


def destroy(dim: int) -> np.ndarray:
    """Truncated annihilation operator."""
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)


def _pure(coeffs: np.ndarray, char_eval=None) -> QuantumState:
    c = np.asarray(coeffs, dtype=complex)
    c = c / np.linalg.norm(c)
    return QuantumState(np.outer(c, c.conj()), char_eval=char_eval)


def vacuum_state(dim: int = DEFAULT_DIM) -> QuantumState:
    return fock_state(0, dim)


def fock_state(n: int, dim: int = DEFAULT_DIM) -> QuantumState:
    if not 0 <= n < dim:
        raise ValueError(f"Fock index {n} outside truncation {dim}")
    c = np.zeros(dim, complex)
    c[n] = 1.0
    eval_ = None
    if n == 1:
        eval_ = lambda u, v: np.exp(-0.5 * (u * u + v * v)) * (1.0 - (u * u + v * v))
    elif n == 0:
        eval_ = lambda u, v: np.exp(-0.5 * (u * u + v * v))
    return _pure(c, char_eval=eval_)


def _coherent_coeffs(alpha: complex, dim: int) -> np.ndarray:
    n = np.arange(dim)
    log_mag = n * np.log(np.abs(alpha) + 1e-300) - 0.5 * log_factorial(n)
    c = np.exp(log_mag - 0.5 * np.abs(alpha) ** 2) * np.exp(1j * n * np.angle(alpha))
    if np.abs(alpha) == 0:
        c = np.zeros(dim)
        c[0] = 1.0
    return c.astype(complex)


def _check_tail(c: np.ndarray, what: str):
    tail = float(np.sum(np.abs(c) ** 2)) if len(c) else 0.0
    # c here is normalized over the infinite basis; the missing weight is
    # 1 - captured.
    missing = max(0.0, 1.0 - tail)
    if missing > TAIL_TOL:
        raise ValueError(
            f"{what}: truncation keeps only {tail:.8f} of the population; "
            "increase dim"
        )


def coherent_state(alpha: complex, dim: int = DEFAULT_DIM) -> QuantumState:
    c = _coherent_coeffs(alpha, dim)
    _check_tail(c, f"coherent alpha={alpha}")
    a = complex(alpha)

    def char_eval(u, v):
        # exp(-|beta|^2 / 2) e^{i theta}, theta = 2 Im(beta alpha*)
        theta = 2.0 * (v * a.real - u * a.imag)
        return np.exp(-0.5 * (u * u + v * v)) * (np.cos(theta) + 1j * np.sin(theta))

    return _pure(c, char_eval=char_eval)


def even_cat_state(alpha: complex, dim: int = DEFAULT_DIM) -> QuantumState:
    """Even Schroedinger cat |alpha> + |-alpha>, norm 2(1 + exp(-2|alpha|^2))."""
    cp = _coherent_coeffs(alpha, dim)
    cm = _coherent_coeffs(-alpha, dim)
    norm_sq = 2.0 * (1.0 + np.exp(-2.0 * np.abs(alpha) ** 2))
    c = (cp + cm) / np.sqrt(norm_sq)
    _check_tail(c, f"even cat alpha={alpha}")
    ar, ai = 2.0 * complex(alpha).real, 2.0 * complex(alpha).imag

    def char_eval(u, v):
        # [2 e^{-|beta|^2/2} cos(2 Im beta alpha*) + e^{-|beta-2alpha|^2/2}
        #  + e^{-|beta+2alpha|^2/2}] / N: real, and no exponent is positive.
        # The two displaced terms are added first, so beta -> -beta, which
        # swaps them, gives the same bits.
        fringes = 2.0 * np.exp(-0.5 * (u * u + v * v)) * np.cos(v * ar - u * ai)
        lobes = (np.exp(-0.5 * ((u - ar) ** 2 + (v - ai) ** 2))
                 + np.exp(-0.5 * ((u + ar) ** 2 + (v + ai) ** 2)))
        return (fringes + lobes) / norm_sq

    return _pure(c, char_eval=char_eval)


def squeezed_state(r: float, dim: int = DEFAULT_DIM) -> QuantumState:
    """Squeezed vacuum with amplitude gain exp(r) in the p quadrature.

    Quadrature variances are exp(2r)/2 along p and exp(-2r)/2 along x;
    populations follow (2n)! / (2^n n!)^2 * tanh(r)^(2n) / cosh(r).
    """
    n_half = np.arange((dim + 1) // 2)
    log_mag = (
        0.5 * log_factorial(2 * n_half)
        - n_half * np.log(2.0)
        - log_factorial(n_half)
        + n_half * np.log(np.tanh(np.abs(r)) + 1e-300)
        - 0.5 * np.log(np.cosh(r))
    )
    c = np.zeros(dim, complex)
    c[2 * n_half] = np.exp(log_mag) * (-np.sign(r)) ** n_half
    _check_tail(c, f"squeezed r={r}")
    # |beta cosh r + beta* sinh r|^2 = u^2 e^{2r} + v^2 e^{-2r}
    grow, shrink = np.exp(2.0 * r), np.exp(-2.0 * r)
    return _pure(c, char_eval=lambda u, v: np.exp(-0.5 * (u * u * grow + v * v * shrink)))


# The parameters of each state kind, in the order its builder takes them
# before ``dim``, with their conversions.
_KINDS = {
    "vacuum": (vacuum_state, {}),
    "fock": (fock_state, {"n": integral}),
    "coherent": (coherent_state, {"alpha": complex}),
    "even_cat": (even_cat_state, {"alpha": complex}),
    "squeezed": (squeezed_state, {"r": float}),
}


def parse_state(spec: dict | str, dim: int = DEFAULT_DIM) -> partial:
    """Check a config-style specifier, ``{"kind": "fock", "n": 1}`` with an
    optional ``dim`` or a bare kind name; return its builder with the
    converted parameters bound.  A rejected key is named as ``key: problem``."""
    if not isinstance(spec, dict):
        spec = {"kind": spec}
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"kind: unknown state kind {kind!r}")
    build, params = _KINDS[kind]
    params = {**params, "dim": integral}
    for key in spec:
        if key != "kind" and key not in params:
            raise ValueError(f"{key}: not a parameter of a {kind} state")
    values = {"dim": dim, **spec}
    args = []
    for key, convert in params.items():
        if key not in values:
            raise ValueError(f"{key}: missing")
        try:
            args.append(convert(values[key]))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{key}: {exc}") from None
    return partial(build, *args)


def state_library(spec: dict | str, dim: int = DEFAULT_DIM) -> QuantumState:
    """Build a library state from a config-style specifier (see parse_state)."""
    return parse_state(spec, dim)()
