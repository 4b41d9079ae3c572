import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from pulse_squeeze.charfun import (
    CharGrid,
    char_from_rho,
    char_of_state,
    fock_from_char,
    joint_two_mode_char,
    propagate_char,
    rotate_char,
    wigner_from_char,
)
from pulse_squeeze.coherence import input_moments, seeded_vacuum_split
from pulse_squeeze.decomposition import OutputDecomposition, decompose_output_mode
from pulse_squeeze.grids import orthogonal_complement
from pulse_squeeze.kernels import ideal_squeezer_kernels, identity_kernels
from pulse_squeeze.states import (
    coherent_state,
    destroy,
    even_cat_state,
    fock_state,
    squeezed_state,
    state_library,
    vacuum_state,
)


class TestStateLibrary:
    def test_fock_one_matrix(self):
        rho = fock_state(1, 10).rho
        expected = np.zeros((10, 10))
        expected[1, 1] = 1.0
        assert np.allclose(rho, expected)

    def test_coherent_mean_photon(self):
        state = coherent_state(2.0, 60)
        n_op = np.diag(np.arange(60)).astype(complex)
        assert np.real(state.expect(n_op)) == pytest.approx(4.0, abs=1e-8)

    def test_cat_mean_photon(self):
        state = even_cat_state(2.5, 60)
        n_op = np.diag(np.arange(60)).astype(complex)
        assert np.real(state.expect(n_op)) == pytest.approx(
            6.25 * np.tanh(6.25), abs=1e-6
        )

    def test_cat_normalization_constant(self):
        # |alpha> + |-alpha> carries squared norm 2(1 + exp(-2 alpha^2))
        alpha = 1.3
        state = even_cat_state(alpha, 40)
        c_even = np.diag(state.rho).real
        coh = np.abs(np.exp(-alpha**2 / 2) * alpha ** np.arange(40)
                     / np.sqrt(np.exp(gammaln(np.arange(40) + 1)))) ** 2
        norm = 2.0 * (1.0 + np.exp(-2.0 * alpha**2))
        assert np.allclose(c_even[::2], 4.0 * coh[::2] / norm, atol=1e-12)

    def test_squeezed_populations(self):
        r = 0.5
        pops = np.diag(squeezed_state(r, 40).rho).real
        n = np.arange(20)
        expected = (
            np.exp(gammaln(2 * n + 1) - 2 * n * np.log(2.0) - 2 * gammaln(n + 1))
            * np.tanh(r) ** (2 * n)
            / np.cosh(r)
        )
        assert np.abs(pops[::2] - expected).max() < 1e-12
        assert np.abs(pops[1::2]).max() == 0.0

    def test_truncation_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            coherent_state(5.0, 20)
        with pytest.raises(ValueError):
            fock_state(25, 20)

    def test_library_dispatch(self):
        assert state_library({"kind": "fock", "n": 1, "dim": 12}).dim == 12
        assert state_library("vacuum").rho[0, 0] == 1.0
        with pytest.raises(ValueError, match="unknown state"):
            state_library({"kind": "gkp"})


class TestCharFunctions:
    def test_vacuum_gaussian(self):
        chi = char_of_state(vacuum_state(10))
        beta = chi.grid.mesh()
        assert np.abs(chi.values - np.exp(-0.5 * np.abs(beta) ** 2)).max() < 1e-12

    def test_fock_one_laguerre(self):
        chi = char_of_state(fock_state(1, 10))
        beta = chi.grid.mesh()
        expected = np.exp(-0.5 * np.abs(beta) ** 2) * (1.0 - np.abs(beta) ** 2)
        assert np.abs(chi.values - expected).max() < 1e-12

    def test_coherent_displacement_phase(self):
        alpha = 1.0 - 0.5j
        chi = char_of_state(coherent_state(alpha, 50))
        rng = np.random.default_rng(0)
        pts = rng.normal(size=20).view(complex) * 2
        expected = np.exp(-0.5 * np.abs(pts) ** 2) * np.exp(
            pts * np.conj(alpha) - np.conj(pts) * alpha
        )
        assert np.abs(chi(pts) - expected).max() < 1e-10

    def test_recurrence_matches_closed_forms(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=30).view(complex) * 2.5
        for state in (coherent_state(1.5, 60), even_cat_state(2.0, 60), squeezed_state(0.6, 60)):
            assert np.abs(char_from_rho(state.rho, pts) - state.char_eval(pts)).max() < 1e-8

    def test_normalization_and_hermiticity(self):
        chi = char_of_state(even_cat_state(2.0, 60))
        mid = chi.grid.n_side // 2
        assert chi.values[mid, mid] == pytest.approx(1.0, abs=1e-9)
        assert np.abs(chi.values - chi.values[::-1, ::-1].conj()).max() < 1e-8

    def test_explicit_small_grid_warns(self):
        with pytest.warns(UserWarning, match="boundary"):
            char_of_state(coherent_state(2.0, 60), grid=CharGrid(2.0, 33))


class TestPropagateChar:
    def test_identity_decomposition(self, grid, u_mode):
        state = even_cat_state(1.5, 50)
        d = decompose_output_mode(identity_kernels(grid), u_mode, u_mode)
        chi_u = char_of_state(state)
        chi_out = propagate_char(d, chi_u, grid=chi_u.grid)
        assert np.abs(chi_out.values - chi_u.values).max() < 1e-12

    def test_squeezer_on_vacuum(self, grid, u_mode):
        r = 0.7
        k = ideal_squeezer_kernels(grid, u_mode, r)
        d = decompose_output_mode(k, u_mode, u_mode)
        chi_out = propagate_char(d, char_of_state(vacuum_state(20)))
        beta = chi_out.grid.mesh()
        expected = np.exp(-0.5 * np.abs(beta * np.cosh(r) - np.conj(beta) * np.sinh(r)) ** 2)
        assert np.abs(chi_out.values - expected).max() < 1e-12

    def test_loss_like_decomposition(self):
        # A = sqrt(eta), D = sqrt(1 - eta): a beam splitter onto vacuum
        eta = 0.6
        d = OutputDecomposition(
            A=np.sqrt(eta), B=0.0, C=0.0, D=np.sqrt(1 - eta), E=0.0,
            zeta=1.0, xi=np.sqrt(1 - eta),
            overlap_fu=1.0, overlap_ug=0.0, overlap_hk=0.0,
        )
        alpha = 1.4 + 0.3j
        chi_out = propagate_char(d, char_of_state(coherent_state(alpha, 50)))
        target = coherent_state(np.sqrt(eta) * alpha, 50)
        assert np.abs(chi_out.values - target.char_eval(chi_out.grid.mesh())).max() < 1e-10

    def test_origin_pinned(self, grid, u_mode, opo_kernels):
        d = decompose_output_mode(opo_kernels, u_mode, u_mode)
        chi_out = propagate_char(d, char_of_state(fock_state(1, 20)))
        mid = chi_out.grid.n_side // 2
        assert chi_out.values[mid, mid] == pytest.approx(1.0, abs=1e-12)


def _wigner_parity_oracle(rho, points):
    """Displaced-parity Wigner values, via dense expm displacements.

    With the package normalization (int W dx dp = 1, alpha = (x+ip)/sqrt2)
    the prefactor is 1/pi, not the 2/pi of the d^2alpha convention.
    """
    dim = rho.shape[0]
    a = destroy(dim)
    parity = np.diag((-1.0) ** np.arange(dim))
    out = []
    for alpha in points:
        d_op = expm(alpha * a.conj().T - np.conj(alpha) * a)
        out.append(1.0 / np.pi * np.real(np.trace(d_op.conj().T @ rho @ d_op @ parity)))
    return np.array(out)


class TestWigner:
    def test_vacuum_origin_value(self):
        w = wigner_from_char(char_of_state(vacuum_state(10)))
        assert w.at_origin() == pytest.approx(1.0 / np.pi, abs=1e-6)
        assert w.integral() == pytest.approx(1.0, abs=1e-3)

    def test_fock_one_negative_origin(self):
        w = wigner_from_char(char_of_state(fock_state(1, 10)))
        assert w.at_origin() == pytest.approx(-1.0 / np.pi, abs=1e-6)
        assert w.integral() == pytest.approx(1.0, abs=1e-3)

    def test_cat_against_parity_oracle(self):
        state = even_cat_state(2.5, 60)
        w = wigner_from_char(char_of_state(state))
        # sample on grid nodes: the fringe axis, the lobes, and off-axis
        mid = len(w.x_axis) // 2
        idx = [(mid, mid), (mid, mid + 4), (mid, mid + 9), (mid + 3, mid + 2),
               (mid + 38, mid), (mid - 38, mid + 1), (mid + 6, mid - 7), (mid, mid + 19)]
        xs = np.array([w.x_axis[i] for i, _ in idx])
        ps = np.array([w.p_axis[j] for _, j in idx])
        alphas = (xs + 1j * ps) / np.sqrt(2.0)
        oracle = _wigner_parity_oracle(state.rho, alphas)
        sampled = np.array([w.values[i, j] for i, j in idx])
        assert np.abs(sampled - oracle).max() < 1e-4

    def test_fringes_oscillate_along_p(self):
        w = wigner_from_char(char_of_state(even_cat_state(2.5, 60)))
        i0 = int(np.argmin(np.abs(w.x_axis)))
        cut = w.values[i0]
        # interference fringes flip sign repeatedly at x = 0
        assert (np.abs(np.diff(np.sign(cut[np.abs(cut) > 1e-3]))) > 0).sum() >= 6

    def test_rotation_moves_quadratures(self):
        state = squeezed_state(0.6, 50)
        chi = char_of_state(state)
        from pulse_squeeze.metrics import quadrature_variance

        rot = rotate_char(chi, np.pi / 2.0)
        assert quadrature_variance(rot, 0.0) == pytest.approx(
            quadrature_variance(chi, np.pi / 2.0), abs=1e-5
        )


class TestFockFromChar:
    def test_vacuum_round_trip(self):
        rec = fock_from_char(char_of_state(vacuum_state(16)), 16)
        assert abs(rec.rho[0, 0] - 1.0) < 1e-6

    def test_fock_one_round_trip(self):
        rec = fock_from_char(char_of_state(fock_state(1, 16)), 16)
        assert abs(rec.rho[1, 1] - 1.0) < 1e-5

    def test_cat_round_trips_both_ways(self):
        state = even_cat_state(2.0, 50)
        chi = char_of_state(state)
        rec = fock_from_char(chi, 50)
        assert np.abs(rec.rho - state.rho).max() < 1e-6
        chi_back = char_of_state(rec, grid=chi.grid)
        assert np.abs(chi_back.values - chi.values).max() < 1e-5

    def test_squeezed_vacuum_populations(self, grid, u_mode):
        r = 0.5
        k = ideal_squeezer_kernels(grid, u_mode, r)
        d = decompose_output_mode(k, u_mode, u_mode)
        chi_out = propagate_char(d, char_of_state(vacuum_state(20)))
        rec = fock_from_char(chi_out, 30)
        pops = np.diag(rec.rho).real
        n = np.arange(15)
        expected = (
            np.exp(gammaln(2 * n + 1) - 2 * n * np.log(2.0) - 2 * gammaln(n + 1))
            * np.tanh(r) ** (2 * n)
            / np.cosh(r)
        )
        assert np.abs(pops[::2] - expected).max() < 1e-4

    def test_dim_cap(self):
        with pytest.raises(ValueError, match="cap"):
            fock_from_char(char_of_state(vacuum_state(10)), 61)


class TestJointTwoModeChar:
    def test_identity_product_state(self, grid, u_mode):
        rng = np.random.default_rng(3)
        from conftest import random_mode

        w, _ = orthogonal_complement(random_mode(grid, rng), [u_mode])
        state = coherent_state(1.2, 40)
        chi_u = char_of_state(state)
        joint = joint_two_mode_char(identity_kernels(grid), u_mode, u_mode, w, chi_u)
        b = joint.grid.mesh()
        chi1 = joint.evaluator(b, np.zeros_like(b))
        assert np.abs(chi1 - state.char_eval(b)).max() < 1e-10
        chi2 = joint.evaluator(np.zeros_like(b), b)
        assert np.abs(chi2 - np.exp(-0.5 * np.abs(b) ** 2)).max() < 1e-10

    @pytest.mark.filterwarnings("ignore:propagate_char")
    def test_marginal_matches_single_mode(self, grid, u_mode, opo_kernels):
        state = fock_state(1, 20)
        mom = input_moments(state)
        sp = seeded_vacuum_split(opo_kernels, u_mode, mom)
        v1, v2 = sp.seeded[0][1], sp.seeded[1][1]
        chi_u = char_of_state(state)
        joint = joint_two_mode_char(opo_kernels, u_mode, v1, v2, chi_u)
        d = decompose_output_mode(opo_kernels, u_mode, v1)
        single = propagate_char(d, chi_u, grid=joint.grid)
        marg = joint.marginal(0)
        assert np.abs(marg.values - single.values).max() < 1e-8
        # off the joint grid, the marginal evaluates exactly like the
        # single-mode propagated evaluator
        rng = np.random.default_rng(5)
        beta = rng.uniform(-3.0, 3.0, 64) + 1j * rng.uniform(-3.0, 3.0, 64)
        assert np.abs(marg(beta) - single(beta)).max() < 1e-8

    def test_entanglement_of_seeded_pair(self, grid, u_mode, opo_kernels):
        # Fock input through the amplifier: the joint state of the seeded
        # pair is purer than the v1 marginal alone
        from pulse_squeeze.metrics import purity

        state = fock_state(1, 20)
        sp = seeded_vacuum_split(opo_kernels, u_mode, input_moments(state))
        v1, v2 = sp.seeded[0][1], sp.seeded[1][1]
        chi_u = char_of_state(state)
        joint = joint_two_mode_char(opo_kernels, u_mode, v1, v2, chi_u, extent=6.0, n_side=49)
        marg = joint.marginal(0)
        assert purity(marg) < joint.purity() - 0.05

    def test_requires_orthogonal_modes(self, grid, u_mode, opo_kernels):
        with pytest.raises(ValueError, match="orthogonal"):
            joint_two_mode_char(opo_kernels, u_mode, u_mode, u_mode, char_of_state(vacuum_state(10)))
