"""Decomposition of an output-mode operator over the input mode and vacuum ports.

Pulling an output wave packet v back through a kernel pair gives
``a_v_out = zeta a_f + xi a_g^dag``.  Splitting f and g into components
parallel and orthogonal to the populated input mode u yields the
five-coefficient form

    a_v_out = A a_u + B a_u^dag + C a_k + D a_k^dag + E a_s,

with k and s orthonormal vacuum ports; commutator preservation forces
|A|^2 - |B|^2 + |C|^2 - |D|^2 + |E|^2 = 1.  The same row can be realized
as beam splitters and single-mode squeezers (a three-mode circuit), whose
parameters :func:`bloch_messiah_params` recovers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import ModeFunction, inner_product, orthogonal_complement
from .kernels import BogoliubovKernels, pullback_output_mode

__all__ = [
    "OutputDecomposition",
    "decompose_output_mode",
    "pullback_rows",
    "bloch_messiah_params",
    "reconstruct_row",
]


@dataclass(frozen=True)
class OutputDecomposition:
    """Coefficients and mode functions of one output-mode operator.

    The phase convention keeps zeta, xi, D and E real non-negative: mode
    phases are carried by f, g, h, k, s.  Absent modes (coefficient zero)
    are None.
    """

    A: complex
    B: complex
    C: complex
    D: float
    E: float
    zeta: float
    xi: float
    f: ModeFunction | None = field(repr=False, default=None)
    g: ModeFunction | None = field(repr=False, default=None)
    h: ModeFunction | None = field(repr=False, default=None)
    k: ModeFunction | None = field(repr=False, default=None)
    s: ModeFunction | None = field(repr=False, default=None)

    def commutator(self) -> float:
        return float(
            abs(self.A) ** 2
            - abs(self.B) ** 2
            + abs(self.C) ** 2
            - abs(self.D) ** 2
            + abs(self.E) ** 2
        )

    @property
    def row(self) -> np.ndarray:
        return np.array([self.A, self.B, self.C, self.D, self.E], dtype=complex)


def decompose_output_mode(
    k: BogoliubovKernels, u: ModeFunction, v: ModeFunction
) -> OutputDecomposition:
    """Express the output operator of ``v`` over ``u`` and vacuum ports.

    ``h`` is the part of f orthogonal to u, ``k`` the part of g orthogonal
    to u, and ``s`` the part of h orthogonal to both u and k; coefficients
    follow from the chain of overlaps.  Degenerate complements (mode
    contained in the span) zero the corresponding coefficients.
    """
    pb = pullback_output_mode(k, v)
    zeta, xi = pb.zeta, pb.xi
    f, g = pb.f, pb.g

    fu = np.conj(inner_product(u, f))  # <f, u>
    A = zeta * fu
    h, h_norm = orthogonal_complement(f, [u])

    if g is None:
        return OutputDecomposition(
            A=A, B=0.0 + 0.0j, C=0.0 + 0.0j, D=0.0, E=zeta * h_norm, zeta=zeta, xi=xi,
            f=f, g=None, h=h, k=None, s=h,
        )

    ug = inner_product(u, g)  # <u, g>
    B = xi * ug
    k_mode, k_norm = orthogonal_complement(g, [u])
    D = xi * k_norm

    if h is None:
        # f parallel to u: no squeezed-vacuum beam-splitter ports from f.
        return OutputDecomposition(
            A=A, B=B, C=0.0 + 0.0j, D=D, E=0.0, zeta=zeta, xi=xi,
            f=f, g=g, h=None, k=k_mode, s=None,
        )
    if k_mode is None:
        # g parallel to u: the h direction is a pure vacuum port.
        return OutputDecomposition(
            A=A, B=B, C=0.0 + 0.0j, D=D, E=zeta * h_norm, zeta=zeta, xi=xi,
            f=f, g=g, h=h, k=None, s=h,
        )

    hk = np.conj(inner_product(k_mode, h))  # <h, k>
    C = zeta * h_norm * hk
    s_mode, s_norm = orthogonal_complement(h, [u, k_mode])
    E = zeta * h_norm * (s_norm if s_mode is not None else 0.0)
    return OutputDecomposition(
        A=A, B=B, C=C, D=D, E=E, zeta=zeta, xi=xi,
        f=f, g=g, h=h, k=k_mode, s=s_mode,
    )


def pullback_rows(
    kernels: BogoliubovKernels, vs: list[ModeFunction], u: ModeFunction
) -> tuple[list[ModeFunction], np.ndarray, np.ndarray]:
    """Joint pullback of several output modes over one orthonormal input family.

    Returns ``(family, P, Q)`` with ``family[0] = u`` and

        a_{v_i, out} = sum_e P[i, e] a_{family[e]} + Q[i, e] a_{family[e]}^dag.
    """
    pbs = [pullback_output_mode(kernels, v) for v in vs]
    family = [u]
    for pb in pbs:
        for mode in (pb.f, pb.g):
            if mode is None:
                continue
            extra, _ = orthogonal_complement(mode, family)
            if extra is not None:
                family.append(extra)
    P = np.zeros((len(vs), len(family)), dtype=complex)
    Q = np.zeros((len(vs), len(family)), dtype=complex)
    for i, pb in enumerate(pbs):
        for e, mode in enumerate(family):
            P[i, e] = pb.zeta * np.conj(inner_product(mode, pb.f))
            if pb.g is not None:
                Q[i, e] = pb.xi * inner_product(mode, pb.g)
    return family, P, Q


def reconstruct_row(params: dict) -> np.ndarray:
    """Coefficient row (A, B, C, D, E) generated by the circuit parameters.

    The circuit (rightmost factor acting first on states) is

        U_{u,s}(t3, p3) U_{u,k}(t2, p2) S_u(r1) S_k(r2) U_{u,k}(t1, p1)
            R_k(phi_k) R_u(phi_u)

    with the beam splitter convention ``a -> cos(t) a + e^{ip} sin(t) b``
    and the squeezer convention ``a -> cosh(r) a + sinh(r) a^dag``
    (Heisenberg).  The two leading phase rotations fix conventions that
    real squeeze parameters cannot absorb: ``R_k`` rotates the k vacuum
    port (a no-op on the state, it acts on vacuum) and ``R_u`` is the
    carrier-phase convention of the input pulse.
    """
    t1, p1 = params["theta1"], params["phi1"]
    t2, p2 = params["theta2"], params["phi2"]
    t3, p3 = params["theta3"], params["phi3"]
    r1, r2 = params["r1"], params["r2"]
    pk = params.get("phi_k", 0.0)
    pu = params.get("phi_u", 0.0)
    c1, s1 = np.cos(t1), np.sin(t1)
    c2, s2 = np.cos(t2), np.sin(t2)
    c3, s3 = np.cos(t3), np.sin(t3)
    ch1, sh1 = np.cosh(r1), np.sinh(r1)
    ch2, sh2 = np.cosh(r2), np.sinh(r2)
    e1 = np.exp(1j * p1)
    e2 = np.exp(1j * p2)
    A = c3 * (c2 * ch1 * c1 - s2 * ch2 * s1 * e2 / e1) * np.exp(1j * pu)
    B = c3 * (c2 * sh1 * c1 - s2 * sh2 * s1 * e2 * e1) * np.exp(-1j * pu)
    C = c3 * (c2 * ch1 * s1 * e1 + s2 * ch2 * c1 * e2) * np.exp(1j * pk)
    D = c3 * (c2 * sh1 * s1 / e1 + s2 * sh2 * c1 * e2) * np.exp(-1j * pk)
    E = s3 * np.exp(1j * p3)
    return np.array([A, B, C, D, E], dtype=complex)


def _complete_row(row4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend one Bogoliubov row (A, C | B, D) to a full two-mode pair.

    Among all symplectically consistent second rows, the one with minimal
    squeeze weight |B2|^2 + |D2|^2 is chosen so that rank-deficient rows
    (e.g. an ideal squeezer) keep r2 = 0.
    """
    A, C, B, D = row4
    constraints = np.array(
        [
            [np.conj(A), np.conj(C), -np.conj(B), -np.conj(D)],
            [B, D, -A, -C],
        ],
        dtype=complex,
    )
    _, _, vh = np.linalg.svd(constraints)
    null = vh[2:].conj().T  # 4 x 2 basis of valid second rows
    sigma = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    qmat = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
    s_r = null.conj().T @ sigma @ null
    q_r = null.conj().T @ qmat @ null
    from scipy.linalg import eig as geig

    vals, vecs = geig(q_r, s_r)
    best = None
    for i in range(len(vals)):
        z = vecs[:, i]
        norm = np.real(z.conj() @ s_r @ z)
        if norm <= 1e-12:
            continue
        weight = np.real(z.conj() @ q_r @ z) / norm
        if best is None or weight < best[0]:
            best = (weight, z / np.sqrt(norm))
    if best is None:
        raise np.linalg.LinAlgError("no positive-norm completion found")
    a2, c2, b2, d2 = null @ best[1]
    amat = np.array([[A, C], [a2, c2]])
    bmat = np.array([[B, D], [b2, d2]])
    return amat, bmat


def _initial_guess(row4: np.ndarray) -> list[np.ndarray]:
    """Circuit-parameter starting points from a Bloch-Messiah style factoring."""
    guesses = []
    try:
        amat, _bmat = _complete_row(row4)
        vals, w2 = np.linalg.eigh(amat @ amat.conj().T)
        order = np.argsort(vals)[::-1]
        vals, w2 = vals[order], w2[:, order]
        rs = np.arccosh(np.sqrt(np.clip(vals, 1.0, None)))
        w1 = np.diag(1.0 / np.cosh(rs)) @ w2.conj().T @ amat
        t2 = float(np.arccos(np.clip(abs(w2[0, 0]), 0.0, 1.0)))
        p2 = float(np.angle(w2[0, 1]) - np.angle(w2[0, 0])) if abs(w2[0, 1]) > 1e-12 else 0.0
        t1 = float(np.arccos(np.clip(abs(w1[0, 0]), 0.0, 1.0)))
        p1 = float(np.angle(w1[0, 1]) - np.angle(w1[0, 0])) if abs(w1[0, 1]) > 1e-12 else 0.0
        guesses.append(np.array([t1, p1, t2, p2, rs[0], rs[1], 0.0, 0.0]))
        guesses.append(np.array([t1, p1, t2 + np.pi / 2, p2, rs[1], rs[0], 0.0, 0.0]))
    except np.linalg.LinAlgError:
        pass
    mag = float(np.linalg.norm([abs(row4[0]), abs(row4[1])]))
    r0 = float(np.arccosh(max(1.0, mag)))
    guesses.append(np.array([0.0, 0.0, 0.0, 0.0, r0, 0.0, 0.0, 0.0]))
    guesses.append(np.zeros(8))
    return guesses


def _wrap_angle(x: float) -> float:
    return float((x + np.pi) % (2.0 * np.pi) - np.pi)


def bloch_messiah_params(decomp: OutputDecomposition, tol: float = 1e-10) -> dict:
    """Beam-splitter/squeezer circuit parameters reproducing the row.

    Returns ``theta1, phi1, theta2, phi2, theta3, phi3, r1, r2`` plus the
    two convention phases ``phi_k`` (vacuum-port gauge, a no-op on the
    output state) and ``phi_u`` (input carrier phase) such that
    :func:`reconstruct_row` matches ``(A, B, C, D, E)``; without those
    phases, real squeeze parameters span too small a slice of the row
    manifold to reach generic decompositions.  The dict also carries a
    ``residual`` entry (max coefficient error) and a ``degenerate`` flag
    for rank-deficient rows handled by convention (xi = 0 keeps r2 = 0, a
    pure vacuum row pins theta3 = pi/2).
    """
    # Imported here: no CLI command fits a circuit, so the CLI never loads it.
    from scipy.optimize import least_squares

    row = decomp.row
    E = row[4]
    degenerate = decomp.xi == 0.0 or abs(abs(E) - 1.0) < 1e-12

    if abs(E) >= 1.0 - 1e-12:
        params = {
            "theta1": 0.0, "phi1": 0.0, "theta2": 0.0, "phi2": 0.0,
            "theta3": np.pi / 2, "phi3": float(np.angle(E)),
            "r1": 0.0, "r2": 0.0, "phi_k": 0.0, "phi_u": 0.0,
        }
        params["residual"] = float(np.abs(reconstruct_row(params) - row).max())
        params["degenerate"] = True
        return params

    theta3 = float(np.arcsin(np.clip(abs(E), 0.0, 1.0)))
    phi3 = float(np.angle(E)) if abs(E) > 1e-14 else 0.0
    c3 = np.cos(theta3)
    row4 = np.array([row[0], row[2], row[1], row[3]]) / c3  # (A', C', B', D')
    target = row[:4] / c3

    # Pure single-mode rows (C = D = E = 0 with A, B in phase) factor by hand.
    if (
        abs(row[2]) < 1e-14
        and abs(row[3]) < 1e-14
        and abs(E) < 1e-14
        and abs(row[1]) < 1e-14 * max(1.0, abs(row[0]))
        and abs(abs(row[0]) - 1.0) < 1e-12
    ):
        params = {
            "theta1": 0.0, "phi1": 0.0, "theta2": 0.0, "phi2": 0.0,
            "theta3": 0.0, "phi3": 0.0, "r1": 0.0, "r2": 0.0,
            "phi_k": 0.0, "phi_u": float(np.angle(row[0])),
        }
        params["residual"] = float(np.abs(reconstruct_row(params) - row).max())
        params["degenerate"] = degenerate
        return params

    def residual(x):
        params = {
            "theta1": x[0], "phi1": x[1], "theta2": x[2], "phi2": x[3],
            "theta3": 0.0, "phi3": 0.0, "r1": x[4], "r2": x[5],
            "phi_k": x[6], "phi_u": x[7],
        }
        with np.errstate(over="ignore", invalid="ignore"):
            got = reconstruct_row(params)[:4]
            diff = got - target
        out = np.concatenate([diff.real, diff.imag])
        return np.nan_to_num(out, nan=1e6, posinf=1e6, neginf=-1e6)

    scales = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 2.0])
    best_x, best_cost = None, np.inf
    solutions = []
    rng = np.random.default_rng(7)
    starts = _initial_guess(row4)
    min_trials = len(starts) + 6
    for trial in range(60):
        x0 = starts[trial] if trial < len(starts) else rng.normal(size=8) * scales
        sol = least_squares(
            residual, x0, method="lm",
            xtol=3e-16, ftol=3e-16, gtol=3e-16, max_nfev=4000,
        )
        cost = float(np.abs(sol.fun).max())
        if cost < best_cost:
            best_cost, best_x = cost, sol.x
        if cost < tol:
            solutions.append(sol.x)
        if trial + 1 >= min_trials and solutions:
            break
    if solutions:
        # Several discrete parameter sets reproduce the same row; prefer the
        # least-squeezed circuit (it keeps Fock-space cross-checks honest).
        best_x = min(solutions, key=lambda x: abs(x[4]) + abs(x[5]))
        best_cost = float(np.abs(residual(best_x)).max())
    if best_cost > 1e-8:
        warnings.warn(
            f"circuit factorization residual {best_cost:.2e} exceeds 1e-8",
            stacklevel=2,
        )
    x = best_x
    params = {
        "theta1": _wrap_angle(x[0]), "phi1": _wrap_angle(x[1]),
        "theta2": _wrap_angle(x[2]), "phi2": _wrap_angle(x[3]),
        "theta3": theta3, "phi3": phi3,
        "r1": float(x[4]), "r2": float(x[5]),
        "phi_k": _wrap_angle(x[6]), "phi_u": _wrap_angle(x[7]),
    }
    params["residual"] = float(np.abs(reconstruct_row(params) - row).max())
    params["degenerate"] = degenerate
    return params
