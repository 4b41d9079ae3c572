import numpy as np
import pytest

from pulse_squeeze.devices import GaussianPump, OpoParams, build_opo, default_opo_grid
from pulse_squeeze.grids import TemporalGrid, gaussian_mode


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
    from pulse_squeeze.grids import ModeFunction, normalize

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
