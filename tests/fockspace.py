"""Truncated-Fock circuit oracle for small instances.

Runs the three-mode beam-splitter/squeezer circuit of
:func:`pulse_squeeze.decomposition.reconstruct_row` on a ket tensor
``psi[u, k, s]``: each gate is a dim x dim (one mode) or dim^2 x dim^2 (two
modes) unitary contracted into its own modes, so no gate is ever embedded in
the dim^3-dimensional space.  A mixed input goes through as one ket per
eigenvector.  This is the independent cross-check for the
characteristic-function propagation path.

``full_plane_fock_fold`` is an independent grid oracle of
``charfun.fock_from_char``: the Weyl inversion
rho = (1/pi) int chi(beta) D(-beta) d^2 beta as a sum over every point of a
grid, which the tests sample at refined spacing.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from pulse_squeeze.states import QuantumState, destroy, log_factorial

__all__ = ["three_mode_output_state", "full_plane_fock_fold"]


def full_plane_fock_fold(chi, dim: int) -> np.ndarray:
    """rho[a + d, a] = (h^2/pi) sum_beta chi(beta) <a+d|D(-beta)|a> over every
    point of chi's grid, before Hermitizing and clamping (upper triangle 0).

    For each d, chi (-beta)^d is folded onto the distinct grid radii and the
    associated Laguerre recurrence, written out here apart from the
    package's, runs on the radii."""
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
        lag_prev, lag = np.zeros_like(x), np.ones_like(x)  # L_{a-1}^(d), L_a^(d)
        for a in range(dim - d):
            re, im = folded @ lag
            rho[a + d, a] = scale * coeff * complex(re, im)
            coeff *= np.sqrt((a + 1.0) / (a + 1.0 + d))
            # (a + 1) L_{a+1} = (2a + 1 + d - x) L_a - (a + d) L_{a-1}
            lag_prev, lag = lag, ((2.0 * a + 1.0 + d - x) * lag - (a + d) * lag_prev) / (a + 1.0)
        core *= minus_b
    return rho


def _two_mode_bs(dim: int, theta: float, phi: float) -> np.ndarray:
    """exp(theta (e^{i phi} a^dag b - e^{-i phi} a b^dag)) on H_a (x) H_b.

    Heisenberg action: U^dag a U = cos(theta) a + e^{i phi} sin(theta) b.
    The generator conserves n_a + n_b, so it is exponentiated one
    total-photon-number block at a time.
    """
    a = np.kron(destroy(dim), np.eye(dim))
    b = np.kron(np.eye(dim), destroy(dim))
    gen = theta * (np.exp(1j * phi) * a.conj().T @ b - np.exp(-1j * phi) * a @ b.conj().T)
    total = np.add.outer(np.arange(dim), np.arange(dim)).ravel()
    u = np.zeros_like(gen)
    for n in range(2 * dim - 1):
        block = np.ix_(total == n, total == n)
        u[block] = expm(gen[block])
    return u


def _single_mode_squeeze(dim: int, r: float) -> np.ndarray:
    """exp(r/2 (a^dag^2 - a^2)); Heisenberg: U^dag a U = cosh(r) a + sinh(r) a^dag."""
    a = destroy(dim)
    gen = 0.5 * r * (a.conj().T @ a.conj().T - a @ a)
    return expm(gen)


def _phase(dim: int, phi: float) -> np.ndarray:
    """exp(i phi n) on one mode (vacuum-port gauge)."""
    return np.diag(np.exp(1j * phi * np.arange(dim)))


def _apply(gate: np.ndarray, kets: np.ndarray, modes: tuple[int, ...]) -> np.ndarray:
    """Contract a gate on ``modes`` (0 = u, 1 = k, 2 = s) into ``kets[j, u, k, s]``."""
    axes = [m + 1 for m in modes]
    n = len(axes)
    g = gate.reshape((kets.shape[1],) * (2 * n))
    out = np.tensordot(g, kets, axes=(list(range(n, 2 * n)), axes))
    return np.moveaxis(out, list(range(n)), axes)


def three_mode_output_state(params: dict, rho_u: np.ndarray, dim: int) -> QuantumState:
    """Apply the circuit to rho_u (x) |0><0| (x) |0><0| and trace out the ports.

    ``rho_u`` is split into kets ``sqrt(w) |e>`` over its eigenvectors of
    positive weight; the reduced state of mode u is ``sum_j M_j M_j^dag`` with
    ``M_j`` the output ket j reshaped to dim x dim^2.
    """
    rho_u = np.asarray(rho_u, dtype=complex)
    if rho_u.shape != (dim, dim):
        raise ValueError(f"rho_u has shape {rho_u.shape}, expected ({dim}, {dim})")
    w, vecs = np.linalg.eigh(rho_u)
    keep = w > 0
    kets = np.zeros((int(keep.sum()), dim, dim, dim), dtype=complex)
    kets[:, :, 0, 0] = (vecs[:, keep] * np.sqrt(w[keep])).T
    circuit = [
        (_phase(dim, params.get("phi_u", 0.0)), (0,)),
        (_phase(dim, params.get("phi_k", 0.0)), (1,)),
        (_two_mode_bs(dim, params["theta1"], params["phi1"]), (0, 1)),
        (_single_mode_squeeze(dim, params["r2"]), (1,)),
        (_single_mode_squeeze(dim, params["r1"]), (0,)),
        (_two_mode_bs(dim, params["theta2"], params["phi2"]), (0, 1)),
        (_two_mode_bs(dim, params["theta3"], params["phi3"]), (0, 2)),
    ]
    for gate, modes in circuit:
        kets = _apply(gate, kets, modes)
    m = kets.transpose(1, 0, 2, 3).reshape(dim, -1)
    return QuantumState(m @ m.conj().T)
