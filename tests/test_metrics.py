import numpy as np
import pytest

from pulse_squeeze.charfun import char_of_state, overlap, propagate_char
from pulse_squeeze.coherence import InputMoments, seeded_vacuum_split
from pulse_squeeze.decomposition import decompose_output_mode
from pulse_squeeze.devices import GaussianPump, OpoParams, build_opo
from pulse_squeeze.kernels import ideal_squeezer_kernels
from pulse_squeeze.metrics import (
    fidelity,
    gaussian_covariance,
    mean_photon_number,
    optimize_squeeze_fidelity,
    purity,
    quadrature_variance,
    squeeze_target_evaluator,
)
from pulse_squeeze.states import (
    QuantumState,
    coherent_state,
    even_cat_state,
    fock_state,
    squeezed_state,
    vacuum_state,
)


class TestPurity:
    @pytest.mark.parametrize(
        "state",
        [vacuum_state(20), fock_state(1, 20), coherent_state(1.5, 40), even_cat_state(2.0, 50)],
    )
    def test_pure_states(self, state):
        assert purity(state) == pytest.approx(1.0, abs=1e-6)
        assert purity(char_of_state(state)) == pytest.approx(1.0, abs=1e-4)

    def test_equal_mixture(self):
        rho = np.zeros((10, 10), complex)
        rho[0, 0] = rho[1, 1] = 0.5
        assert purity(QuantumState(rho)) == pytest.approx(0.5)

    def test_fock_and_char_paths_agree(self, grid, u_mode, opo_kernels):
        from pulse_squeeze.charfun import fock_from_char

        d = decompose_output_mode(opo_kernels, u_mode, u_mode)
        chi = propagate_char(d, fock_state(1, 20))
        rec = fock_from_char(chi, 40)
        assert purity(chi) == pytest.approx(purity(rec), abs=1e-4)

    def test_vacuum_seeded_thermal_matches_gaussian_formula(self, grid, u_mode):
        # single squeezed-vacuum mode: purity from rho equals the Gaussian
        # covariance-determinant identity
        k = build_opo(OpoParams(0.0, 1.0, GaussianPump(1.0, 0.0, 0.5)), grid)
        sp = seeded_vacuum_split(k, u_mode, InputMoments(0.0, 0.0))
        d = decompose_output_mode(k, u_mode, sp.vacuum[0][1])
        chi = propagate_char(d, vacuum_state(20))
        vx, vp, cxp = gaussian_covariance(chi)
        gaussian = 1.0 / (2.0 * np.sqrt(vx * vp - cxp**2))
        assert purity(chi) == pytest.approx(gaussian, abs=1e-3)


class TestFidelity:
    def test_self_fidelity(self):
        state = even_cat_state(1.5, 40)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_states(self):
        assert fidelity(vacuum_state(10), fock_state(1, 10)) == pytest.approx(0.0, abs=1e-12)

    def test_coherent_vs_vacuum(self):
        assert fidelity(coherent_state(1.0, 40), vacuum_state(40)) == pytest.approx(
            np.exp(-1.0), abs=1e-9
        )

    def test_mixed_target_rejected(self):
        rho = np.zeros((10, 10), complex)
        rho[0, 0] = rho[1, 1] = 0.5
        with pytest.raises(ValueError, match="pure"):
            fidelity(vacuum_state(10), QuantumState(rho))


class TestQuadratures:
    def test_vacuum_baseline(self):
        for theta in (0.0, 0.7, np.pi / 2):
            assert quadrature_variance(vacuum_state(15), theta) == pytest.approx(0.5, abs=1e-10)

    def test_fock_one(self):
        assert quadrature_variance(fock_state(1, 15), 1.0) == pytest.approx(1.5, abs=1e-10)

    def test_squeezed_state_axes(self):
        r = 0.8
        state = squeezed_state(r, 60)
        assert quadrature_variance(state, np.pi / 2) == pytest.approx(np.exp(2 * r) / 2, rel=1e-8)
        assert quadrature_variance(state, 0.0) == pytest.approx(np.exp(-2 * r) / 2, rel=1e-8)
        chi = char_of_state(state)
        assert quadrature_variance(chi, np.pi / 2) == pytest.approx(np.exp(2 * r) / 2, abs=1e-4)
        assert quadrature_variance(chi, 0.0) == pytest.approx(np.exp(-2 * r) / 2, abs=1e-5)

    def test_heisenberg_product(self, grid, u_mode, opo_kernels):
        d = decompose_output_mode(opo_kernels, u_mode, u_mode)
        chi = propagate_char(d, fock_state(1, 20))
        vx = quadrature_variance(chi, 0.3)
        vp = quadrature_variance(chi, 0.3 + np.pi / 2)
        assert vx * vp >= 0.25 - 1e-4

    def test_coherent_mean_subtracted(self):
        state = coherent_state(2.0, 60)
        # displaced state still has vacuum variance
        assert quadrature_variance(state, 0.0) == pytest.approx(0.5, abs=1e-8)
        assert quadrature_variance(char_of_state(state), 0.0) == pytest.approx(0.5, abs=1e-4)


class TestMeanPhotonNumber:
    def test_basics(self):
        assert mean_photon_number(vacuum_state(10)) == 0.0
        assert mean_photon_number(fock_state(1, 10)) == pytest.approx(1.0)

    def test_squeezer_output_bookkeeping(self, grid, u_mode):
        r = 0.8
        k = ideal_squeezer_kernels(grid, u_mode, r)
        d = decompose_output_mode(k, u_mode, u_mode)
        chi = propagate_char(d, fock_state(1, 20))
        expected = np.cosh(r) ** 2 + 2 * np.sinh(r) ** 2
        assert mean_photon_number(chi) == pytest.approx(expected, abs=1e-4)


class TestOptimizeSqueezeFidelity:
    def test_unsqueezed_input_picks_zero(self):
        state = even_cat_state(1.5, 40)
        fit = optimize_squeeze_fidelity(state, state, r_grid=np.linspace(0.0, 1.0, 11))
        assert fit.best_r == pytest.approx(0.0, abs=1e-9)
        assert fit.best_fidelity == pytest.approx(1.0, abs=1e-6)

    def test_recovers_known_squeeze(self):
        from pulse_squeeze.charfun import _auto_grid

        input_state = even_cat_state(2.0, 50)
        target_eval = squeeze_target_evaluator(input_state, 0.7)
        chi = _auto_grid(target_eval, "test")
        fit = optimize_squeeze_fidelity(chi, input_state)
        assert fit.best_fidelity == pytest.approx(1.0, abs=1e-4)
        assert fit.best_r == pytest.approx(0.7, abs=5e-3)

    def test_curve_contains_refinement(self):
        state = coherent_state(0.5, 30)
        fit = optimize_squeeze_fidelity(state, state, r_grid=np.linspace(0.0, 1.0, 9))
        assert len(fit.fidelity_curve) > 9
        assert fit.best_fidelity == max(f for _, f in fit.fidelity_curve)

    def test_edge_peak_warns(self):
        input_state = vacuum_state(20)
        target_eval = squeeze_target_evaluator(input_state, 1.5)
        from pulse_squeeze.charfun import _auto_grid

        chi = _auto_grid(target_eval, "test")
        with pytest.warns(UserWarning, match="edge"):
            optimize_squeeze_fidelity(chi, input_state, r_grid=np.linspace(0.0, 0.5, 6))

    def test_target_transform_matches_fock_squeezer(self):
        # chi(beta cosh r - beta* sinh r) is the Eq.-(1)-type squeezed input
        from scipy.linalg import expm
        from pulse_squeeze.states import destroy

        r = 0.6
        input_state = fock_state(1, 40)
        a = destroy(80)
        s_op = expm(0.5 * r * (a.conj().T @ a.conj().T - a @ a))
        psi = np.zeros(80, complex)
        psi[1] = 1.0
        psi = s_op @ psi
        rho = QuantumState(np.outer(psi, psi.conj()))
        pts = (np.random.default_rng(0).normal(size=30) * 0.8).view(complex)
        from pulse_squeeze.charfun import char_from_rho

        lhs = squeeze_target_evaluator(input_state, r)(pts)
        rhs = char_from_rho(rho.rho, pts)
        assert np.abs(lhs - rhs).max() < 1e-8

    @pytest.mark.parametrize("state", [even_cat_state(2.0, 50), coherent_state(1.0 - 0.5j, 40)],
                             ids=["cat", "coherent-complex"])
    def test_contracted_fit_matches_sampled_fit(self, grid, u_mode, state, monkeypatch):
        # The 40 grid values and 15 refinements, one contraction a round,
        # against the same fit with each target sampled by ``overlap``.
        from pulse_squeeze import metrics

        k = ideal_squeezer_kernels(grid, u_mode, 1.3)
        chi = propagate_char(decompose_output_mode(k, u_mode, u_mode), state)
        fit = optimize_squeeze_fidelity(chi, state)
        monkeypatch.setattr(metrics, "overlaps",
                            lambda c, targets: np.array([overlap(c, t) for t in targets]))
        sampled = optimize_squeeze_fidelity(chi, state)
        assert len(fit.fidelity_curve) == len(sampled.fidelity_curve) == 55
        for (r, f), (r_sampled, f_sampled) in zip(fit.fidelity_curve, sampled.fidelity_curve):
            assert r == r_sampled and abs(f - f_sampled) <= 1e-14 * f_sampled
        assert fit.best_r == sampled.best_r

    def test_p_gain_reporting(self):
        fit = optimize_squeeze_fidelity(vacuum_state(10), vacuum_state(10),
                                        r_grid=np.linspace(0.0, 0.3, 4))
        assert fit.p_gain == pytest.approx(np.exp(fit.best_r))
