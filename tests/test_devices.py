import numpy as np
import pytest
from scipy.special import erf

from pulse_squeeze.coherence import InputMoments, seeded_vacuum_split, vacuum_kernel
from pulse_squeeze.devices import (
    GaussianPump,
    GridTooShortError,
    OpaParams,
    OpoParams,
    TwpaParams,
    build_opa,
    build_opo,
    build_twpa,
    default_opo_grid,
    _erf,
)
from pulse_squeeze.grids import (
    ModeFunction,
    TemporalGrid,
    gaussian_mode,
    inner_product,
    normalize,
)
from pulse_squeeze.kernels import (
    _from_quadrature,
    _to_quadrature,
    apply_to_mode,
    compose,
    verify_symplectic,
)

from conftest import eigendecompose, max_relative_difference, random_mode, reference_compose


class TestGaussianPump:
    def test_profile_area_on_grid(self, grid):
        pump = GaussianPump(area=1.5, center=0.0, width=0.5)
        sampled = np.sum(pump.profile(grid.points)) * grid.dt
        assert sampled == pytest.approx(1.5, abs=1e-6)

    def test_step_areas_exact_for_narrow_pump(self, grid):
        # pointwise sampling of a sub-resolution pump is meaningless, the
        # per-slice integrals still sum to the full area
        pump = GaussianPump(area=1.0, center=0.1234, width=1e-3)
        assert pump.step_areas(grid).sum() == pytest.approx(1.0, abs=1e-9)

    def test_step_areas_sum_to_area(self, grid):
        for width in (0.05, 0.5, 1.0):
            pump = GaussianPump(area=1.7, center=0.3, width=width)
            assert pump.step_areas(grid).sum() == pytest.approx(1.7, rel=1e-14)

    def test_erf_matches_scipy(self):
        z = np.linspace(-40.0, 40.0, 200_001)
        assert np.max(np.abs(_erf(z) - erf(z))) <= 5e-16

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianPump(1.0, 0.0, 0.0)


class TestBuildOpo:
    def test_passive_cavity_conserves_photons(self, grid):
        k = build_opo(OpoParams(0.0, 1.0, GaussianPump(0.0, 0.0, 0.5)), grid)
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = random_mode(grid, rng)
            fu, gu = apply_to_mode(k, u)
            assert np.abs(gu).max() == 0.0
            assert np.sum(np.abs(fu) ** 2) * grid.dt == pytest.approx(1.0, abs=1e-6)

    def test_monochromatic_all_pass(self, grid):
        k = build_opo(OpoParams(0.0, 1.0, GaussianPump(0.0, 0.0, 0.5)), grid)
        # rows well inside the window approximate the stationary filter
        row = k.F[400] * grid.dt
        modulus = np.abs(np.fft.fft(row))
        assert np.abs(modulus - 1.0).max() < 1e-3

    def test_short_pump_emits_ring_down_mode(self):
        grid = default_opo_grid(1.0, 1024)
        k = build_opo(OpoParams(0.0, 1.0, GaussianPump(1.0, 0.0, 0.01)), grid)
        pairs = eigendecompose(vacuum_kernel(k))
        occupations = np.array([lam for lam, _ in pairs])
        assert occupations[0] / occupations.sum() > 0.99
        t = grid.points
        ring = np.where(t >= 0.0, np.exp(-0.5 * t), 0.0).astype(complex)
        ring_mode, _ = normalize(ModeFunction(grid, ring))
        assert abs(inner_product(ring_mode, pairs[0][1])) ** 2 > 0.99

    def test_symplectic_random_parameters(self, grid):
        rng = np.random.default_rng(1)
        for _ in range(3):
            params = OpoParams(
                detuning=rng.uniform(-2, 2),
                decay=1.0,
                pump=GaussianPump(rng.uniform(0.2, 2.0), 0.0, rng.uniform(0.05, 1.5)),
            )
            assert verify_symplectic(build_opo(params, grid)).max_residual < 1e-5

    def test_pump_outside_grid_rejected(self, grid):
        with pytest.raises(GridTooShortError, match="pump"):
            build_opo(OpoParams(0.0, 1.0, GaussianPump(1.0, -9.8, 2.0)), grid)

    def test_truncated_ring_down_rejected(self, grid):
        with pytest.raises(GridTooShortError, match="extend"):
            build_opo(OpoParams(0.0, 1.0, GaussianPump(1.0, 28.0, 0.1)), grid)

    def test_resolution_convergence(self):
        # seeded occupations move by < 1% when the grid is doubled
        occupations = {}
        for n in (512, 1024):
            grid = default_opo_grid(1.0, n)
            k = build_opo(OpoParams(0.0, 1.0, GaussianPump(1.5, 0.0, 0.3)), grid)
            u = gaussian_mode(grid, 0.0, 1.0)
            sp = seeded_vacuum_split(k, u, InputMoments(1.0, 0.0))
            occupations[n] = [lam for lam, _ in sp.seeded]
        for a, b in zip(occupations[512], occupations[1024]):
            assert abs(a - b) / b < 0.01

    def test_time_reversal_sanity(self):
        # Mirroring the pump and negating the detuning transposes the
        # process across the time mirror: F_rev(t, t') = F*(-t', -t) and
        # G_rev(t, t') = G(-t', -t).  (Mode shapes themselves cannot simply
        # mirror: the cavity always rings down forward in time.)
        grid = TemporalGrid(-20.0, 20.0, 512)
        k_fwd = build_opo(OpoParams(0.5, 1.0, GaussianPump(1.2, -5.0, 0.4)), grid)
        k_rev = build_opo(OpoParams(-0.5, 1.0, GaussianPump(1.2, 5.0, 0.4)), grid)
        f_expected = k_fwd.F[::-1, ::-1].T.conj()
        g_expected = k_fwd.G[::-1, ::-1].T
        assert np.abs(k_rev.F - f_expected).max() < 1e-3 * np.abs(k_rev.F).max()
        assert np.abs(k_rev.G - g_expected).max() < 1e-3 * np.abs(k_rev.G).max()


class TestBuildOpa:
    def test_zero_gain_is_identity(self, freq_grid):
        k = build_opa(OpaParams(0.0, 0.0, 2.0), freq_grid)
        ident_f = np.eye(freq_grid.n_points) / freq_grid.dt
        assert np.abs(k.F - ident_f).max() < 1e-12 / freq_grid.dt
        assert np.abs(k.G).max() < 1e-12 / freq_grid.dt

    def test_symplectic(self, freq_grid):
        for gain, det, width in [(0.3, 0.0, 2.0), (0.6, 1.0, 0.5), (0.2, 2.0, 5.0)]:
            k = build_opa(OpaParams(gain, det, width), freq_grid)
            assert verify_symplectic(k).max_residual < 1e-5

    def test_narrow_pump_pairs_mirror_frequencies(self, freq_grid):
        delta = 0.7
        k = build_opa(OpaParams(0.4, delta, 0.05), freq_grid)
        g = np.abs(k.G)
        i, j = np.unravel_index(np.argmax(g), g.shape)
        w = freq_grid.points
        assert w[i] + w[j] == pytest.approx(2 * delta, abs=3 * freq_grid.dt)

    def test_broad_resonant_pump_single_mode(self, freq_grid):
        from pulse_squeeze.coherence import input_moments, occupation_ratio
        from pulse_squeeze.states import fock_state

        k = build_opa(OpaParams(0.3, 0.0, 2.0), freq_grid)
        u = gaussian_mode(freq_grid, 0.0, 1.0)
        sp = seeded_vacuum_split(k, u, input_moments(fock_state(1, 20)))
        assert occupation_ratio(sp) > 0.99
        assert sp.seeded[0][0] > 10.0  # high gain together with single-mode

    def test_excessive_gain_rejected(self, freq_grid):
        with pytest.raises(ValueError, match="gain too large"):
            build_opa(OpaParams(1e4, 0.0, 2.0), freq_grid)


@pytest.fixture(scope="module")
def chain_grid():
    return TemporalGrid(-10.0, 30.0, 256)


@pytest.fixture(scope="module")
def stage():
    return OpoParams(0.0, 1.0, GaussianPump(1.0, 0.0, 0.2))


class TestBuildTwpa:
    def test_single_stage_equals_opo(self, chain_grid, stage):
        k1 = build_twpa(TwpaParams(stage, 1, 0.05), chain_grid)
        ko = build_opo(
            OpoParams(0.0, 1.0, GaussianPump(0.05, 0.0, 0.2)), chain_grid
        )
        assert np.array_equal(k1.F, ko.F)
        assert np.array_equal(k1.G, ko.G)

    @pytest.mark.parametrize("n_stages", [2, 64])
    def test_two_stages_equal_composition(self, chain_grid, stage, n_stages):
        k2 = build_twpa(TwpaParams(stage, n_stages, 0.05), chain_grid)
        ko = build_twpa(TwpaParams(stage, n_stages // 2, 0.05), chain_grid)
        kc = compose(ko, ko)
        scale = np.abs(kc.F).max()
        assert np.abs(k2.F - kc.F).max() < 1e-10 * scale
        assert np.abs(k2.G - kc.G).max() < 1e-10 * scale

    def test_gain_monotone_in_stages(self, chain_grid, stage):
        u = gaussian_mode(chain_grid, 0.0, 1.0)
        gains = []
        for n_stages in (10, 30, 100):
            k = build_twpa(TwpaParams(stage, n_stages, 0.02), chain_grid)
            fu, _ = apply_to_mode(k, u)
            gains.append(np.sum(np.abs(fu) ** 2) * chain_grid.dt)
        assert gains[0] < gains[1] < gains[2]

    @pytest.mark.parametrize("n_stages", [2, 3, 5, 7, 100])
    @pytest.mark.parametrize("detuning", [0.0, 0.6])
    def test_matches_stage_by_stage_fold(self, n_stages, detuning):
        grid = TemporalGrid(-10.0, 30.0, 128)
        stage = OpoParams(detuning, 1.0, GaussianPump(1.0, 0.0, 0.2))
        k = build_twpa(TwpaParams(stage, n_stages, 0.02), grid)
        one = build_twpa(TwpaParams(stage, 1, 0.02), grid)
        expected = one
        for _ in range(n_stages - 1):
            expected = reference_compose(one, expected)
        assert max_relative_difference(expected, k) < 1e-10

    @pytest.mark.parametrize("n_stages", [2, 7, 100, 1000])
    def test_resonant_chain_matches_full_quadrature_power(self, n_stages):
        # A resonant stage has real kernels, so the chain takes the two n x n
        # block powers; the oracle raises the full 2n x 2n quadrature map.
        grid = TemporalGrid(-10.0, 30.0, 128)
        stage = OpoParams(0.0, 1.0, GaussianPump(1.0, 0.0, 0.2))
        per_stage = 4.0 / n_stages
        k = build_twpa(TwpaParams(stage, n_stages, per_stage), grid)
        one = build_twpa(TwpaParams(stage, 1, per_stage), grid)
        assert not one.F.imag.any() and not one.G.imag.any()
        expected = _from_quadrature(np.linalg.matrix_power(_to_quadrature(one), n_stages), grid)
        scale = np.abs(expected.F).max()
        assert np.abs(k.F - expected.F).max() < 1e-13 * scale
        assert np.abs(k.G - expected.G).max() < 1e-13 * scale

    def test_resonant_stage_kernels_are_real(self):
        # Every resonant recipe folds its chain by the block powers; a detuned
        # stage mixes x with p and keeps the full quadrature power.
        grid = TemporalGrid(-10.0, 30.0, 128)
        pump = GaussianPump(0.05, 0.0, 0.2)
        resonant = build_opo(OpoParams(0.0, 1.0, pump), grid)
        assert not resonant.F.imag.any() and not resonant.G.imag.any()
        detuned = build_opo(OpoParams(0.6, 1.0, pump), grid)
        assert detuned.F.imag.any() and detuned.G.imag.any()

    @pytest.mark.parametrize(
        "detuning, shapes", [(0.0, [(128, 128)] * 2), (0.6, [(256, 256)])])
    def test_fold_raises_blocks_only_for_real_kernels(self, monkeypatch, detuning, shapes):
        # n = 128: two n x n block powers when resonant, one 2n x 2n power when detuned
        grid = TemporalGrid(-10.0, 30.0, 128)
        stage = OpoParams(detuning, 1.0, GaussianPump(1.0, 0.0, 0.2))
        raised = []
        power = np.linalg.matrix_power

        def spy(m, n):
            raised.append(m.shape)
            return power(m, n)

        monkeypatch.setattr(np.linalg, "matrix_power", spy)
        build_twpa(TwpaParams(stage, 10, 0.02), grid)
        assert raised == shapes

    def test_long_chain_symplectic(self, chain_grid, stage):
        k = build_twpa(TwpaParams(stage, 100, 0.05), chain_grid)
        assert verify_symplectic(k).max_residual < 1e-10
        k = build_twpa(TwpaParams(stage, 1000, 0.005), chain_grid)
        assert verify_symplectic(k).max_residual < 1e-10
