import numpy as np
import pytest

from pulse_squeeze.charfun import char_of_state, propagate_char
from pulse_squeeze.decomposition import decompose_output_mode
from pulse_squeeze.grids import DegenerateModeError, TemporalGrid, gaussian_mode, inner_product
from pulse_squeeze.devices import (
    GaussianPump,
    OpaParams,
    OpoParams,
    TwpaParams,
    build_opa,
    build_opo,
    build_twpa,
)
from pulse_squeeze.kernels import (
    BogoliubovKernels,
    _from_quadrature,
    _quadrature_power,
    _to_quadrature,
    apply_to_mode,
    compose,
    ideal_squeezer_kernels,
    identity_kernels,
    pullback_output_mode,
    verify_symplectic,
)
from pulse_squeeze.states import coherent_state

from conftest import (
    max_relative_difference,
    pullback_rows,
    random_mode,
    reference_compose,
    reference_symplectic,
)


class TestIdentity:
    def test_transports_any_mode(self, grid, u_mode):
        k = identity_kernels(grid)
        fu, gu = apply_to_mode(k, u_mode)
        assert np.allclose(fu, u_mode.amplitudes)
        assert np.abs(gu).max() == 0.0
        pb = pullback_output_mode(k, u_mode)
        assert pb.zeta == pytest.approx(1.0, abs=1e-12)
        assert pb.xi == 0.0
        assert np.allclose(pb.f.amplitudes, u_mode.amplitudes)

    def test_symplectic_exact(self, grid):
        rep = verify_symplectic(identity_kernels(grid))
        assert rep.commutator_residual == 0.0
        assert rep.pairing_residual == 0.0

    def test_left_identity_of_compose(self, grid, opo_kernels):
        composed = compose(identity_kernels(grid), opo_kernels)
        scale = np.abs(opo_kernels.F).max()
        assert np.abs(composed.F - opo_kernels.F).max() < 1e-12 * scale
        assert np.abs(composed.G - opo_kernels.G).max() < 1e-12 * scale


class TestIdealSqueezer:
    def test_zero_squeeze_is_identity(self, grid, u_mode):
        k = ideal_squeezer_kernels(grid, u_mode, 0.0)
        ident = identity_kernels(grid)
        assert np.allclose(k.F, ident.F)
        assert np.allclose(k.G, ident.G)

    def test_seeded_coefficients(self, grid, u_mode):
        k = ideal_squeezer_kernels(grid, u_mode, 1.0)
        pb = pullback_output_mode(k, u_mode)
        assert pb.zeta == pytest.approx(np.cosh(1.0), abs=1e-9)
        assert pb.xi == pytest.approx(np.sinh(1.0), abs=1e-9)
        assert abs(inner_product(pb.f, u_mode)) == pytest.approx(1.0, abs=1e-10)
        assert abs(inner_product(pb.g, u_mode)) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_mean_photon_number(self, grid, u_mode):
        # <a^dag a> of the seeded mode after squeezing vacuum is sinh^2(r)
        k = ideal_squeezer_kernels(grid, u_mode, 1.0)
        dt = grid.dt
        vac = dt * (k.G @ k.G.conj().T)
        occupation = np.real(np.trace(vac)) * dt
        assert occupation == pytest.approx(np.sinh(1.0) ** 2, rel=1e-9)

    def test_orthogonal_modes_pass_through(self, grid, u_mode):
        rng = np.random.default_rng(0)
        from pulse_squeeze.grids import orthogonal_complement

        w, _ = orthogonal_complement(random_mode(grid, rng), [u_mode])
        k = ideal_squeezer_kernels(grid, u_mode, 1.3)
        pb = pullback_output_mode(k, w)
        assert pb.zeta == pytest.approx(1.0, abs=1e-9)
        assert pb.xi == 0.0


def _kernel_pair(name, grid, freq_grid, u_mode, opo_kernels):
    """Two kernels on one grid: OPO, OPA and ideal-squeezer combinations."""
    if name == "opo-opo":
        return opo_kernels, build_opo(OpoParams(-0.4, 1.0, GaussianPump(0.8, 1.0, 0.5)), grid)
    if name == "opo-squeezer":
        return opo_kernels, ideal_squeezer_kernels(grid, u_mode, 0.7)
    if name == "squeezer-opo":
        return ideal_squeezer_kernels(grid, u_mode, 0.7), opo_kernels
    opa = build_opa(OpaParams(0.4, 0.3, 2.0), freq_grid)
    if name == "opa-opa":
        return opa, build_opa(OpaParams(0.2, -0.5, 1.0), freq_grid)
    return opa, ideal_squeezer_kernels(freq_grid, gaussian_mode(freq_grid, 0.5, 1.0), -0.4)


PAIRS = ["opo-opo", "opo-squeezer", "squeezer-opo", "opa-opa", "opa-squeezer"]


class TestQuadrature:
    @pytest.mark.parametrize("name", PAIRS)
    def test_compose_matches_complex_reference(self, name, grid, freq_grid, u_mode, opo_kernels):
        second, first = _kernel_pair(name, grid, freq_grid, u_mode, opo_kernels)
        expected = reference_compose(second, first)
        assert max_relative_difference(expected, compose(second, first)) < 1e-13

    @pytest.mark.parametrize("name", PAIRS)
    def test_round_trip(self, name, grid, freq_grid, u_mode, opo_kernels):
        for k in _kernel_pair(name, grid, freq_grid, u_mode, opo_kernels):
            back = _from_quadrature(_to_quadrature(k), k.grid)
            assert max_relative_difference(k, back) < 1e-15

    @pytest.mark.parametrize("f_phase, g_phase", [(1.0, 1.0), (1.0, 1j), (1j, 1.0)])
    def test_power_matches_repeated_compose(self, freq_grid, f_phase, g_phase):
        # The squeezer's kernels are complex128, so every phase takes the
        # full 2n x 2n power; an imaginary F or G mixes x with p.
        k = ideal_squeezer_kernels(freq_grid, gaussian_mode(freq_grid, 0.5, 1.0), 0.4)
        k = BogoliubovKernels(freq_grid, k.F * f_phase, k.G * g_phase)
        expected = k
        for _ in range(4):
            expected = reference_compose(k, expected)
        assert max_relative_difference(expected, _quadrature_power(k, 5)) < 1e-13


class TestCompose:
    def test_squeeze_parameters_add(self, grid, u_mode):
        k1 = ideal_squeezer_kernels(grid, u_mode, 0.6)
        k2 = ideal_squeezer_kernels(grid, u_mode, 0.9)
        pb = pullback_output_mode(compose(k2, k1), u_mode)
        assert pb.zeta == pytest.approx(np.cosh(1.5), abs=1e-9)
        assert pb.xi == pytest.approx(np.sinh(1.5), abs=1e-9)

    def test_associativity(self, grid, u_mode, opo_kernels):
        a = opo_kernels
        b = ideal_squeezer_kernels(grid, u_mode, 0.5)
        c = identity_kernels(grid)
        lhs = compose(a, compose(b, c))
        rhs = compose(compose(a, b), c)
        scale = np.abs(lhs.F).max()
        assert np.abs(lhs.F - rhs.F).max() < 1e-8 * scale
        assert np.abs(lhs.G - rhs.G).max() < 1e-8 * scale

    def test_residuals_bounded_under_composition(self, grid, u_mode, opo_kernels):
        b = ideal_squeezer_kernels(grid, u_mode, 0.7)
        ra = verify_symplectic(opo_kernels).max_residual
        rb = verify_symplectic(b).max_residual
        rc = verify_symplectic(compose(opo_kernels, b)).max_residual
        assert rc <= ra + rb + 1e-8

    def test_state_level_two_stage_oracle(self, grid, u_mode, opo_kernels):
        """chi through compose(X, Y) equals chi chained through Y then X."""
        x = opo_kernels
        y = ideal_squeezer_kernels(grid, u_mode, 0.4)
        rng = np.random.default_rng(7)
        v = random_mode(grid, rng, envelope_center=2.0)
        state = coherent_state(1.2, 40)
        chi_u = char_of_state(state)

        d_tot = decompose_output_mode(compose(x, y), u_mode, v)
        chi_single = propagate_char(d_tot, state)

        # stage 1: v through x over an intermediate orthonormal family
        family_x, P1, Q1 = pullback_rows(x, [v], u_mode)
        # stage 2: each intermediate mode through y over the final family
        family_y, P2, Q2 = pullback_rows(y, family_x, u_mode)

        def chi_two_stage(beta):
            beta = np.asarray(beta, dtype=complex)
            mus = [
                beta * np.conj(P1[0, e]) - np.conj(beta) * Q1[0, e]
                for e in range(len(family_x))
            ]
            out = np.ones_like(beta)
            for g in range(len(family_y)):
                nu = np.zeros_like(beta)
                for j, mu in enumerate(mus):
                    nu = nu + mu * np.conj(P2[j, g]) - np.conj(mu) * Q2[j, g]
                if g == 0:
                    out = out * chi_u(nu)
                else:
                    out = out * np.exp(-0.5 * np.abs(nu) ** 2)
            return out

        pts = rng.normal(size=40).view(complex) * 1.5
        assert np.abs(chi_single(pts) - chi_two_stage(pts)).max() < 1e-8


@pytest.fixture(scope="module")
def symplectic_cases(grid, u_mode, opo_kernels, freq_grid):
    F = opo_kernels.F.copy()
    F[0, 1] += 0.1
    stage = OpoParams(0.0, 1.0, GaussianPump(1.0, 0.0, 0.2))
    return {
        "identity": identity_kernels(grid),
        "squeezer": ideal_squeezer_kernels(grid, u_mode, 2.0),
        "opo": opo_kernels,
        "corrupted_opo": BogoliubovKernels(grid, F, opo_kernels.G),
        "opa": build_opa(OpaParams(0.4, 0.0, 2.0), freq_grid),
        "twpa": build_twpa(TwpaParams(stage, 100, 0.05), TemporalGrid(-10.0, 30.0, 256)),
    }


class TestVerifySymplectic:
    @pytest.mark.parametrize(
        "name", ["identity", "squeezer", "opo", "corrupted_opo", "opa", "twpa"]
    )
    def test_matches_complex_reference(self, symplectic_cases, name):
        # Residuals at round-off differ with the summation order: the OPA's
        # quadrature map has norm 44 and measures 2.3e-14 here, 1.5e-14 there.
        k = symplectic_cases[name]
        got, want = verify_symplectic(k), reference_symplectic(k)
        for g, w in [
            (got.commutator_residual, want.commutator_residual),
            (got.pairing_residual, want.pairing_residual),
        ]:
            assert abs(g - w) <= 1e-12 * w + 1e-13

    def test_squeezer_analytic(self, grid, u_mode):
        rep = verify_symplectic(ideal_squeezer_kernels(grid, u_mode, 2.0))
        assert rep.max_residual < 1e-10

    def test_detects_corruption(self, grid, opo_kernels):
        clean = verify_symplectic(opo_kernels).max_residual
        F = opo_kernels.F.copy()
        F[0, 1] += 0.1
        bad = BogoliubovKernels(grid, F, opo_kernels.G)
        residual = verify_symplectic(bad).max_residual
        assert residual > 1e-4
        assert residual > 1e3 * clean

    def test_peak_memory_near_quadrature_map(self):
        # The map M and the product X are each 2n x 2n (33.6 MB at n = 1024);
        # M is released once X is formed, and the residuals are read from
        # X's blocks without forming X - X^T.
        import tracemalloc

        n = 1024
        k = identity_kernels(TemporalGrid(-10.0, 30.0, n))
        map_bytes = (2 * n) ** 2 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            verify_symplectic(k)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * map_bytes

    def test_dispersive_kernels_unitary(self, grid):
        from pulse_squeeze.devices import GaussianPump, OpoParams, build_opo

        k = build_opo(OpoParams(0.4, 1.0, GaussianPump(0.0, 0.0, 0.5)), grid)
        assert np.abs(k.G).max() == 0.0
        dt = grid.dt
        delta = np.eye(grid.n_points) / dt
        residual = np.linalg.norm(dt * (k.F @ k.F.conj().T) - delta)
        assert residual / np.linalg.norm(delta) < 1e-6


class TestPullback:
    def test_commutator_identity_for_device(self, grid, opo_kernels):
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = random_mode(grid, rng, envelope_center=rng.uniform(-2, 6))
            pb = pullback_output_mode(opo_kernels, v)
            assert pb.zeta**2 - pb.xi**2 == pytest.approx(1.0, abs=1e-6)

    def test_phases_carried_by_modes(self, grid, u_mode, opo_kernels):
        rng = np.random.default_rng(9)
        v = random_mode(grid, rng)
        pb = pullback_output_mode(opo_kernels, v)
        assert pb.zeta > 0
        assert pb.xi >= 0
        assert pb.f.norm == pytest.approx(1.0, abs=1e-10)
        if pb.g is not None:
            assert pb.g.norm == pytest.approx(1.0, abs=1e-10)

    def test_zero_zeta_rejected(self, grid, u_mode):
        n = grid.n_points
        bad = BogoliubovKernels(grid, np.zeros((n, n)), np.zeros((n, n)))
        with pytest.raises(DegenerateModeError):
            pullback_output_mode(bad, u_mode)


class TestRealKernels:
    def test_real_pair_stays_real(self, grid):
        n = grid.n_points
        real = BogoliubovKernels(grid, np.eye(n), np.zeros((n, n)))
        assert real.F.dtype == real.G.dtype == np.float64
        assert identity_kernels(grid).F.dtype == np.float64
        # One complex array makes both complex.
        mixed = BogoliubovKernels(grid, np.eye(n), np.zeros((n, n), complex))
        assert mixed.F.dtype == mixed.G.dtype == np.complex128

    @pytest.mark.parametrize("image", [apply_to_mode, pullback_output_mode])
    def test_real_kernel_images_make_no_complex_copy(self, image):
        # At n = 1024 a complex copy of one real kernel is 16.8 MB; the real
        # kernel multiplies the mode's (n, 2) real view instead.
        import tracemalloc

        n = 1024
        grid = TemporalGrid(-10.0, 30.0, n)
        rng = np.random.default_rng(4)
        k = BogoliubovKernels(grid, rng.normal(size=(n, n)), rng.normal(size=(n, n)))
        u = random_mode(grid, rng)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            image(k, u)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_real_quadrature_map_reads_no_imaginary_part(self):
        # A real pair's off-diagonal blocks are zero; reading F.imag and G.imag
        # would allocate two n x n arrays of zeros (2.1 MB each at n = 512)
        # on top of the 8.4 MB map.
        import tracemalloc

        n = 512
        grid = TemporalGrid(-10.0, 30.0, n)
        rng = np.random.default_rng(5)
        k = BogoliubovKernels(grid, rng.normal(size=(n, n)), rng.normal(size=(n, n)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            m = _to_quadrature(k)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * m.nbytes
        complex_pair = BogoliubovKernels(grid, k.F.astype(complex), k.G.astype(complex))
        assert np.array_equal(m, _to_quadrature(complex_pair))
