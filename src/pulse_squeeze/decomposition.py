"""The row of one output-mode operator over the input mode and vacuum ports.

Each output wave packet v sees the input pulse u through one row,

    a_v_out = A a_u + B a_u^dag + C a_k + D a_k^dag + E a_s,

with k and s orthonormal vacuum ports; commutator preservation forces
|A|^2 - |B|^2 + |C|^2 - |D|^2 + |E|^2 = 1.  :func:`decompose_output_mode`
reads the row off the pullback ``a_v_out = zeta a_f + xi a_g^dag`` of v
through a kernel pair.  The same row can be realized as beam splitters and
single-mode squeezers (a three-mode circuit, a Bloch-Messiah
factorisation), whose parameters :func:`bloch_messiah_params` recovers in
closed form.  With ``x = (A, C) / cos(theta3)`` and
``y = (B, D) / cos(theta3)`` the circuit reads ``x = P V`` and
``y = Q V*`` with V in U(2) and P, Q the squeezed beam-splitter row.  The
first column u of V^dag must make ``x . u`` and ``conj(y) . u`` real,
so ``u^dag N u = 0`` with ``N = (M - M^dag) / 2i`` and ``M = y x^T``:
the exact solutions form one circle, and the fit takes its least-squeezed
point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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

# Points of the solution circle that the least-squeezed search starts from.
FAMILY_POINTS = 720


@dataclass(frozen=True)
class OutputDecomposition:
    """The row ``(A, B, C, D, E)`` of one output-mode operator,
    ``a_v_out = A a_u + B a_u^dag + C a_k + D a_k^dag + E a_s``.

    u is the input mode, k and s are vacuum ports whose phases are chosen
    so that D and E are real non-negative.
    """

    A: complex
    B: complex
    C: complex
    D: float
    E: float

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


def _overlap(a: ModeFunction | None, b: ModeFunction | None) -> complex:
    """``<a, b>``, or 0 when either mode is absent."""
    return 0j if a is None or b is None else inner_product(a, b)


def decompose_output_mode(
    k: BogoliubovKernels, u: ModeFunction, v: ModeFunction
) -> OutputDecomposition:
    """Express the output operator of ``v`` over ``u`` and vacuum ports.

    With the pullback ``a_v_out = zeta a_f + xi a_g^dag``, the port ``k``
    is the part of g orthogonal to u and ``s`` the part of f orthogonal to
    u and k.  Each coefficient is one overlap: A = zeta <u,f>*,
    B = xi <u,g>, C = zeta <k,f>*, D = xi ||g - <u,g> u||,
    E = zeta Re <s,f>; a port contained in the span is absent and
    contributes 0.
    """
    pb = pullback_output_mode(k, v)
    f, g = pb.f, pb.g
    k_mode, k_norm = orthogonal_complement(g, [u]) if g is not None else (None, 0.0)
    s, _ = orthogonal_complement(f, [m for m in (u, k_mode) if m is not None])
    return OutputDecomposition(
        A=pb.zeta * np.conj(inner_product(u, f)),
        B=pb.xi * _overlap(u, g),
        C=pb.zeta * np.conj(_overlap(k_mode, f)),
        D=pb.xi * k_norm,
        E=pb.zeta * _overlap(s, f).real,
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


_KEYS = ("theta1", "phi1", "theta2", "phi2", "r1", "r2", "phi_k", "phi_u")


def _family(x: np.ndarray, y: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Circuit parameters (ordered as ``_KEYS``) at the circle angles ``ts``.

    N = (M - M^dag) / 2i with M = y x^T is never definite, so with its
    eigenpairs (l-, e-), (l+, e+) the circle u^dag N u = 0 is
    u(t) = cos(a) e+ + e^{it} sin(a) e- with tan(a)^2 = l+ / (-l-).  One
    row per angle (a single row when N = 0, where every u qualifies), NaN
    where u gives no circuit (tanh r1 or tanh r2 at or above 1:
    cos(theta2)^2 outside [0, 1]).
    """
    m = np.outer(y, x)
    lam, vecs = np.linalg.eigh((m - m.conj().T) / 2j)
    flat = np.abs(lam).max() <= 1e-14 * np.abs(m).max()
    # Round-off below 1e-14 of N would otherwise tilt the circle by its root.
    lam = np.where(np.abs(lam) < 1e-14 * np.abs(lam).max(), 0.0, lam)
    if flat:
        # N = 0 (y a real multiple of conj(x)): every u qualifies; take conj(x).
        us = (x.conj() / np.linalg.norm(x))[None, :]
    else:
        a = np.arctan2(np.sqrt(max(lam[1], 0.0)), np.sqrt(max(-lam[0], 0.0)))
        us = np.cos(a) * vecs[:, 1] + np.exp(1j * ts)[:, None] * np.sin(a) * vecs[:, 0]
    p = us @ x
    us = us * np.exp(-1j * np.angle(p))[:, None]
    p0, q0 = np.abs(p), (us @ y.conj()).real  # x . u >= 0 and conj(y) . u
    if not flat and lam.min() * lam.max() == 0.0:
        # y = c conj(x) with complex c: the circle shrinks to the u with
        # x . u = conj(y) . u = 0, so theta2 = pi/2 and r1 is free.
        p0, q0 = np.zeros_like(p0), np.zeros_like(q0)
    w = np.stack([-us[:, 1].conj(), us[:, 0].conj()], axis=1)  # unit, orthogonal to u
    xw, yw = w @ x, w.conj() @ y
    if flat:
        xw, yw = np.zeros_like(xw), np.zeros_like(yw)  # theta2 = 0: r2 is free
    # Phase u1 = e^{i gamma} w so that (y . conj(u1)) / (x . u1) = tanh(r2) >= 0.
    gamma = 0.5 * (np.angle(yw) - np.angle(xw))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.arctanh(np.where(p0 > 0.0, q0 / p0, 0.0))
        r2 = np.arctanh(np.where(np.abs(xw) > 0.0, np.abs(yw / xw), 0.0))
    theta2 = np.arctan2(np.sqrt(np.maximum(np.abs(xw) ** 2 - np.abs(yw) ** 2, 0.0)),
                        np.sqrt(np.maximum(p0**2 - q0**2, 0.0)))
    # V = [conj(u); conj(u1)] read off as theta1, phi1, phi_k, phi_u.
    phi_u = -np.angle(us[:, 0])
    phi_k = -phi_u - gamma
    out = np.stack([
        np.arctan2(np.abs(us[:, 1]), np.abs(us[:, 0])), -np.angle(us[:, 1]) - phi_k,
        theta2, np.angle(xw) + gamma, r1, r2, phi_k, phi_u,
    ], axis=1)
    out[~(np.isfinite(r1) & np.isfinite(r2))] = np.nan
    return out


def _weight(x: np.ndarray, y: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """r1^2 + r2^2 at the circle angles ``ts``, inf where there is no circuit."""
    family = _family(x, y, ts)
    return np.nan_to_num(family[:, 4] ** 2 + family[:, 5] ** 2, nan=np.inf)


def _least_squeezed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The point of the solution circle with the least r1^2 + r2^2.

    ``FAMILY_POINTS`` even angles find the arcs of the circle that give a
    circuit.  Bisection adds each arc's ends, where r1 or r2 runs off to
    infinity: a nearly degenerate row sweeps r1 or r2 through 0 next to an
    end, within a sliver of the circle that no even angle may land in.
    Golden-section search then refines every local minimum of these
    samples, all of them at once.
    """
    step = 2.0 * np.pi / FAMILY_POINTS
    ts = step * np.arange(-1, FAMILY_POINTS + 1)  # wraps once each way
    family = _family(x, y, ts)
    valid = np.isfinite(family[:, 4])
    if len(family) == 1 or not valid.any():
        return family[0]
    edge = np.flatnonzero(valid[1:] != valid[:-1])
    good = np.where(valid[edge], ts[edge], ts[edge + 1])
    bad = np.where(valid[edge], ts[edge + 1], ts[edge])
    for _ in range(45):
        mid = 0.5 * (good + bad)
        ok = np.isfinite(_weight(x, y, mid))
        good, bad = np.where(ok, mid, good), np.where(ok, bad, mid)
    ts = np.sort(np.concatenate([ts, good]))
    w = _weight(x, y, ts)
    j = np.flatnonzero((w[1:-1] < w[:-2]) & (w[1:-1] <= w[2:])) + 1
    lo, hi = ts[j - 1], ts[j + 1]
    golden = 0.5 * (np.sqrt(5.0) - 1.0)
    for _ in range(45):
        left, right = hi - golden * (hi - lo), lo + golden * (hi - lo)
        w = _weight(x, y, np.concatenate([left, right]))
        lower = w[: len(j)] < w[len(j):]
        lo, hi = np.where(lower, lo, left), np.where(lower, right, hi)
    ts = np.concatenate([ts, 0.5 * (lo + hi)])
    return _family(x, y, ts[[np.argmin(_weight(x, y, ts))]])[0]


def _wrap_angle(x: float) -> float:
    return float((x + np.pi) % (2.0 * np.pi) - np.pi)


def bloch_messiah_params(decomp: OutputDecomposition) -> dict:
    """Beam-splitter/squeezer circuit parameters reproducing the row.

    Returns ``theta1, phi1, theta2, phi2, theta3, phi3, r1, r2`` plus the
    two convention phases ``phi_k`` (vacuum-port gauge, a no-op on the
    output state) and ``phi_u`` (input carrier phase) such that
    :func:`reconstruct_row` matches ``(A, B, C, D, E)``.

    theta3 = arcsin|E|; with ``x = (A, C) / cos(theta3)`` and
    ``y = (B, D) / cos(theta3)`` the circuit is ``x = P V``, ``y = Q V*``
    with ``P = (c2 cosh r1, s2 e^{i phi2} cosh r2)``,
    ``Q = (c2 sinh r1, s2 e^{i phi2} sinh r2)`` and V in U(2).  Writing
    ``V^dag = [u | u1]``, the exact solutions are the points of the circle
    ``u^dag N u = 0``, ``N = (y x^T - conj(x) y^dag) / 2i``, and each u
    gives every parameter in closed form.  The rule: take the point of
    the circle with the least ``r1^2 + r2^2`` (:func:`_least_squeezed`),
    then polish it once with Levenberg-Marquardt.

    The dict also carries a ``residual`` entry (max coefficient error) and
    a ``degenerate`` flag for rank-deficient rows (B = D = 0, or a pure
    vacuum row, which pins theta3 = pi/2).  Raises ``ValueError`` when
    |E| > 1: the last beam splitter cannot carry it.
    """
    # Imported here: no CLI command fits a circuit, so the CLI never loads it.
    from scipy.optimize import least_squares

    row = decomp.row
    E = row[4]
    if abs(E) > 1.0 + 1e-12:
        raise ValueError(
            f"|E| = {abs(E):.6g} > 1: the circuit's last beam splitter cannot realise this row"
        )
    degenerate = (decomp.B == 0.0 and decomp.D == 0.0) or abs(abs(E) - 1.0) < 1e-12

    if abs(E) >= 1.0 - 1e-12:
        params = dict.fromkeys(_KEYS, 0.0)
        params.update(theta3=np.pi / 2, phi3=float(np.angle(E)))
        params["residual"] = float(np.abs(reconstruct_row(params) - row).max())
        params["degenerate"] = True
        return params

    theta3 = float(np.arcsin(abs(E)))
    phi3 = float(np.angle(E)) if abs(E) > 1e-14 else 0.0
    target = row[:4] / np.cos(theta3)
    x, y = target[[0, 2]], target[[1, 3]]
    x0 = _least_squeezed(x, y)
    if np.isnan(x0).any():
        raise ValueError(f"no circuit reproduces the row (commutator {decomp.commutator():.6g})")

    def residual(z):
        params = dict(zip(_KEYS, z), theta3=0.0, phi3=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            diff = reconstruct_row(params)[:4] - target
        # The weak pull to x0 keeps the polish from sliding along the family
        # (or along a free r1 or r2), where the row gives no gradient.
        out = np.concatenate([diff.real, diff.imag, 1e-8 * (z - x0)])
        return np.nan_to_num(out, nan=1e6, posinf=1e6, neginf=-1e6)

    z = least_squares(
        residual, x0, method="lm", xtol=3e-16, ftol=3e-16, gtol=3e-16, max_nfev=4000
    ).x
    params = {key: (float(v) if key in ("r1", "r2") else _wrap_angle(v)) for key, v in zip(_KEYS, z)}
    params.update(theta3=theta3, phi3=phi3)
    params["residual"] = float(np.abs(reconstruct_row(params) - row).max())
    if params["residual"] > 1e-8:
        warnings.warn(
            f"circuit factorization residual {params['residual']:.2e} exceeds 1e-8",
            stacklevel=2,
        )
    params["degenerate"] = degenerate
    return params
