from dataclasses import dataclass, field

import numpy as np
import pytest

from pulse_squeeze.charfun import CharFunction, CharGrid, GaussianChannel, state_evaluator
from pulse_squeeze.devices import GaussianPump, OpoParams, build_opo, default_opo_grid
from pulse_squeeze.grids import (
    ModeFunction,
    TemporalGrid,
    _clamp_negative,
    _pin_phase,
    gaussian_mode,
    inner_product,
    orthogonal_complement,
)
from pulse_squeeze.kernels import pullback_output_mode


@pytest.fixture(scope="session")
def grid():
    """Standard cavity-unit window at module-test resolution."""
    return default_opo_grid(1.0, 512)


@pytest.fixture(scope="session")
def u_mode(grid):
    return gaussian_mode(grid, 0.0, 1.0)


@pytest.fixture(scope="session")
def opo_kernels(grid):
    """A representative pumped cavity: detuned, moderate gain."""
    return build_opo(OpoParams(0.2, 1.0, GaussianPump(1.2, 0.0, 0.3)), grid)


@pytest.fixture(scope="session")
def freq_grid():
    return TemporalGrid(-8.0, 8.0, 256)


def random_mode(grid, rng, envelope_center=0.0, envelope_width=6.0):
    """Normalized random complex mode localized inside the grid."""
    from pulse_squeeze.grids import normalize

    raw = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    raw *= np.exp(-((grid.points - envelope_center) ** 2) / (2 * envelope_width**2))
    mode, _ = normalize(ModeFunction(grid, raw))
    return mode


def reference_compose(second, first):
    """Complex-kernel composition, the oracle for ``kernels.compose``:
    ``F = (F2 F1 + G2* G1) dt``, ``G = (F2* G1 + G2 F1) dt``."""
    from pulse_squeeze.kernels import BogoliubovKernels

    dt = first.grid.dt
    F = (second.F @ first.F + second.G.conj() @ first.G) * dt
    G = (second.F.conj() @ first.G + second.G @ first.F) * dt
    return BogoliubovKernels(first.grid, F, G)


def reference_symplectic(k):
    """Complex-kernel residuals, the oracle for ``kernels.verify_symplectic``:
    ``F F^dag - G* G^T = delta`` and ``F (G*)^T = G* F^T``, each as a Frobenius
    norm over that of the grid delta, ``sqrt(n) / dt``."""
    from pulse_squeeze.kernels import SymplecticReport

    dt = k.grid.dt
    n = k.grid.n_points
    delta_norm = np.sqrt(n) / dt
    gs = k.G.conj()
    c1 = dt * (k.F @ k.F.conj().T - gs @ gs.conj().T)
    c1[np.diag_indices(n)] -= 1.0 / dt
    c2 = dt * (k.F @ gs.T - gs @ k.F.T)
    return SymplecticReport(
        commutator_residual=float(np.linalg.norm(c1) / delta_norm),
        pairing_residual=float(np.linalg.norm(c2) / delta_norm),
    )


def opa_pair_kernel(params, grid):
    """The OPA's real symmetric pair-creation kernel J(w, w') on ``grid``."""
    w = grid.points
    return params.gain * np.exp(
        -((w[:, None] + w[None, :] - 2.0 * params.pump_center_detuning) ** 2)
        / (2.0 * params.pump_spectral_width**2)
    )


def reference_opa(params, grid):
    """The Takagi construction, the oracle for ``devices.build_opa``: the
    phases e^{-i pi/4 sign(lam)} absorb -2i sign(lam) into J's eigenvectors,
    ``U = O e^{-i pi/4 sign(lam)}``, so that ``F dw = U cosh(sigma) U^dag`` and
    ``G* dw = U sinh(sigma) U^T`` by two complex products."""
    from pulse_squeeze.kernels import BogoliubovKernels

    dw = grid.dt
    lam, O = np.linalg.eigh(opa_pair_kernel(params, grid))
    sigma = 2.0 * np.abs(lam) * dw
    U = O * np.exp(-1j * np.pi / 4.0 * np.sign(lam))[None, :]
    f_b = (U * np.cosh(sigma)[None, :]) @ U.conj().T
    g_star_b = (U * np.sinh(sigma)[None, :]) @ U.T
    return BogoliubovKernels(grid, f_b / dw, g_star_b.conj() / dw)


# Negative eigenvalues of a nominally positive kernel larger (in magnitude)
# than this fraction of the top eigenvalue indicate a real error.
NEGATIVE_EIG_TOL = 1e-8


def eigendecompose(kernel):
    """Mode decomposition ``K(x1, x2) = sum_i lam_i conj(v_i(x1)) v_i(x2)`` of a
    ``HermitianKernel`` by one dense ``eigh``, the oracle for the vacuum ladder
    and the seeded split.

    Eigenvalues are sorted descending, round-off negatives clamped to zero
    (``NEGATIVE_EIG_TOL``), and the modes are orthonormal under
    ``inner_product``.
    """
    dt = kernel.grid.dt
    # K(x1,x2) = sum lam conj(v(x1)) v(x2) means the matrix transpose is the
    # standard `sum lam v v^dag` form; diagonalize with the dt measure folded
    # in so eigenvectors come out as dt-normalized grid functions.
    m = kernel.entries.T * dt
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    vals = _clamp_negative(vals[order], NEGATIVE_EIG_TOL)
    vecs = vecs[:, order]
    out = []
    for i in range(len(vals)):
        amp = _pin_phase(vecs[:, i]) / np.sqrt(dt)
        out.append((float(vals[i]), ModeFunction(kernel.grid, amp)))
    return out


def pullback_rows(kernels, vs, u):
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


@dataclass(frozen=True)
class JointCharFunction:
    """Two-mode characteristic function chi(beta1, beta2) on a 4-D grid.

    ``values[i, j, k, l] = chi(a[i] + 1j a[j], a[k] + 1j a[l])`` on the square
    grid's axis ``a = grid.re_axis``.
    """

    grid: CharGrid
    values: np.ndarray = field(repr=False)
    evaluator: GaussianChannel = field(repr=False, compare=False)

    def marginal(self, which):
        """Single-mode chi of one output mode (the other argument at 0)."""
        evaluator = self.evaluator.then(np.eye(4)[:, 2 * which : 2 * which + 2])
        return CharFunction(self.grid, self.grid.sample(evaluator), evaluator)

    def purity(self):
        """Global two-mode purity (1/pi^2) int |chi|^2 d^4 beta."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.weight**2 / np.pi**2)


def joint_two_mode_char(kernels, u, v1, v2, state, extent=5.0, n_side=33):
    """Joint state of two orthogonal output modes in the Weyl picture, the
    two-mode check on ``propagate_char``.

    Both output operators are pulled back onto one orthonormal input family
    ``{u, e_1, ...}``; the joint chi is ``GaussianChannel.from_rows`` of those
    rows on the input state's channel, and its ``marginal`` is the
    single-mode chi.
    """
    if abs(inner_product(v1, v2)) > 1e-8:
        raise ValueError("output modes must be orthogonal")
    _family, P, Q = pullback_rows(kernels, [v1, v2], u)
    evaluator = GaussianChannel.from_rows(state_evaluator(state), P, Q)
    grid = CharGrid(extent, n_side)
    b1, b2 = np.broadcast_arrays(grid.mesh()[:, :, None, None], grid.mesh()[None, None])
    return JointCharFunction(grid, evaluator(b1, b2), evaluator)


def long_double_chain(stage, n_stages):
    """F and G of ``n_stages`` copies of a real, resonant ``stage``: its x and
    p maps, ``(F +- G) dt``, raised by repeated squaring in long double.  Each
    product is an einsum against the transposed right factor: it keeps the
    long-double sum and runs faster than ``@`` on long-double arrays."""
    dt = np.longdouble(stage.grid.dt)
    f, g = stage.F.astype(np.longdouble), stage.G.astype(np.longdouble)

    def times(a, b):
        return np.einsum("ij,kj->ik", a, np.ascontiguousarray(b.T))

    def power(m, n):
        result = None
        while n:
            if n & 1:
                result = m if result is None else times(result, m)
            n >>= 1
            if n:
                m = times(m, m)
        return result

    x, p = power((f + g) * dt, n_stages), power((f - g) * dt, n_stages)
    return (x + p) / (2 * dt), (x - p) / (2 * dt)


def max_relative_difference(a, b):
    """Largest kernel difference of two pairs, relative to the largest entry of ``a``."""
    scale = max(np.abs(a.F).max(), np.abs(a.G).max())
    return max(np.abs(a.F - b.F).max(), np.abs(a.G - b.G).max()) / scale


def reference_propagated_chi(decomp, base):
    """The explicit single-mode propagation, the oracle for ``propagate_char``:
    ``base(beta A* - beta* B) exp(-|beta C* - beta* D|^2 / 2 - |beta E*|^2 / 2)``."""
    A, B, C, D, E = decomp.row

    def chi(beta):
        beta = np.asarray(beta, dtype=complex)
        mu_k = beta * np.conj(C) - np.conj(beta) * D
        mu_s = beta * np.conj(E)
        vac = np.exp(-0.5 * (np.abs(mu_k) ** 2 + np.abs(mu_s) ** 2))
        return base(beta * np.conj(A) - np.conj(beta) * B) * vac

    return chi


def reference_squeezed_chi(base, r):
    """The explicit ideal squeeze, the oracle for ``squeeze_target_evaluator``:
    ``base(beta cosh r - beta* sinh r)``."""
    ch, sh = np.cosh(r), np.sinh(r)
    return lambda beta: base(np.asarray(beta, dtype=complex) * ch - np.conj(beta) * sh)


def reference_rotated_chi(chi, phi):
    """The rotate-then-sample path, the oracle for a rephased row: ``chi``'s
    evaluator rotated by ``phi``, chi(beta) -> chi(beta e^{i phi}), and sampled
    on a grid of its own."""
    from pulse_squeeze.charfun import _auto_grid, real_linear_map

    rotated = chi.evaluator.then(real_linear_map(np.exp(1j * phi)))
    return _auto_grid(rotated, "reference_rotated_chi")


# The library states' closed forms written on complex beta, as independent
# copies of the real-coordinate ``char_eval`` of each state.


def reference_fock_chi(n):
    """Vacuum (n = 0) and single photon (n = 1): e^{-|b|^2/2} L_n(|b|^2)."""
    if n == 0:
        return lambda b: np.exp(-0.5 * np.abs(b) ** 2)
    return lambda b: np.exp(-0.5 * np.abs(b) ** 2) * (1.0 - np.abs(b) ** 2)


def reference_coherent_chi(alpha):
    """Coherent state: e^{-|b|^2/2} e^{b alpha* - b* alpha}."""
    a = complex(alpha)
    return lambda b: np.exp(-0.5 * np.abs(b) ** 2) * np.exp(b * np.conj(a) - np.conj(b) * a)


def reference_even_cat_chi(alpha):
    """Even cat |alpha> + |-alpha>: four Gaussians, each exponent assembled
    before exponentiating (the cross terms overflow on their own)."""
    a = complex(alpha)
    norm_sq = 2.0 * (1.0 + np.exp(-2.0 * np.abs(a) ** 2))

    def chi(b):
        b = np.asarray(b, dtype=complex)
        half = -0.5 * np.abs(b) ** 2
        drift = b * np.conj(a) - np.conj(b) * a
        cross = b * np.conj(a) + np.conj(b) * a
        off = 2.0 * np.abs(a) ** 2
        return (np.exp(half + drift) + np.exp(half - drift)
                + np.exp(half + cross - off) + np.exp(half - cross - off)) / norm_sq

    return chi


def reference_squeezed_vacuum_chi(r):
    """Squeezed vacuum: e^{-|b cosh r + b* sinh r|^2 / 2}."""
    ch, sh = np.cosh(r), np.sinh(r)

    def chi(b):
        b = np.asarray(b, dtype=complex)
        return np.exp(-0.5 * np.abs(b * ch + np.conj(b) * sh) ** 2)

    return chi


def reference_full_plane_wigner(chi, extent=6.0, n_side=129):
    """The Wigner transform summed over every grid point, the oracle for
    ``wigner_from_char``'s half-plane sum: W(x, p) = (h^2 / 2 pi^2) Re
    sum_(u, v) chi(u + i v) e^{i sqrt2 (u p - v x)}, as two matrix products."""
    axis = np.linspace(-extent, extent, n_side)
    phase_p = np.exp(1j * np.sqrt(2.0) * np.outer(chi.grid.re_axis, axis))
    phase_x = np.exp(-1j * np.sqrt(2.0) * np.outer(chi.grid.im_axis, axis))
    w = (phase_p.T @ (chi.values @ phase_x)).T  # (x, p)
    return np.real(w) * chi.grid.weight / (2.0 * np.pi**2)
