import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from pulse_squeeze import devices
from pulse_squeeze.coherence import (
    InputMoments,
    input_moments,
    seeded_vacuum_split,
    vacuum_kernel,
)
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
    BogoliubovKernels,
    apply_to_mode,
    compose,
    identity_kernels,
    pullback_output_mode,
    verify_symplectic,
)
from pulse_squeeze.states import fock_state

from conftest import (
    eigendecompose,
    long_double_chain,
    max_relative_difference,
    opa_pair_kernel,
    random_mode,
    reference_compose,
    reference_opa,
)


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
            assert verify_symplectic(build_opo(params, grid)).max_residual < 1e-12

    @pytest.mark.parametrize("t_end", [20.0, 30.0])
    def test_detuned_port_closure_symplectic(self, t_end):
        # The closure couples alpha with conj(beta); solving it for (alpha,
        # beta) left residuals of 1.3e-7 (t_end 20) and 8.6e-10 (t_end 30).
        grid = TemporalGrid(-10.0, t_end, 256)
        k = build_opo(OpoParams(0.3, 1.0, GaussianPump(3.0, 0.0, 0.3)), grid)
        assert verify_symplectic(k).max_residual < 1e-12

    def test_detuned_peak_memory(self):
        # The closure adds into the emitted rows in place and keeps the port
        # column apart: 1.54x the returned kernels at n = 512, where rows that
        # carried the port column and a closure into new arrays peaked at 3.0x.
        grid = default_opo_grid(1.0, 512)
        tracemalloc.start()
        try:
            k = build_opo(OpoParams(0.3, 1.0, GaussianPump(1.5, 0.0, 0.1)), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k.F.dtype == k.G.dtype == np.complex128
        assert peak < 2.0 * (k.F.nbytes + k.G.nbytes)

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
            sp = seeded_vacuum_split(k, *apply_to_mode(k, u), InputMoments(1.0, 0.0))
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


def _chain_twin(params):
    """The same device at detuning 1e-300: it takes the complex slice chain,
    whose imaginary parts underflow out of every real part."""
    return dataclasses.replace(params, detuning=1e-300)


# (window, n, pump area, pump width) of a resonant OPO.
CLOSED_FORM_CASES = [
    ((-10.0, 30.0), 64, 0.08, 0.01),
    ((-10.0, 30.0), 256, 8.0, 0.3),
    ((-10.0, 30.0), 1024, 1.5, 0.1),
    ((-12.0, 30.0), 512, 1.5, 0.02),
    ((-12.0, 30.0), 512, 8.0, 2.0),
    ((-30.0, 50.0), 1024, 1.0, 0.01),
    ((-30.0, 50.0), 512, 0.08, 4.0),
    ((-30.0, 50.0), 256, 8.0, 4.0),
    ((-10.0, 2000.0), 1024, 1.5, 0.3),
    ((-10.0, 2000.0), 256, 0.08, 2.0),
]


class TestResonantClosedForm:
    """The resonant OPO in closed form against the slice chain."""

    @pytest.mark.parametrize("window, n, area, width", CLOSED_FORM_CASES)
    def test_matches_slice_chain(self, window, n, area, width):
        # fig4, fig3ab and fig2a windows, and a window whose eta^n underflows
        grid = TemporalGrid(*window, n)
        params = OpoParams(0.0, 1.0, GaussianPump(area, 0.0, width))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            k = build_opo(params, grid)
        chain = build_opo(_chain_twin(params), grid)
        assert k.F.dtype == k.G.dtype == np.float64
        scale = max(np.abs(chain.F).max(), np.abs(chain.G).max())
        assert np.abs(k.F - chain.F).max() <= 1e-13 * scale
        assert np.abs(k.G - chain.G).max() <= 1e-13 * scale
        assert k.vacuum_total == pytest.approx(chain.vacuum_total, rel=1e-12)

    @pytest.mark.parametrize("window, pump, match", [
        ((-10.0, 30.0), (1.0, -9.8, 2.0), "pump"),
        ((-10.0, 30.0), (1.0, 28.0, 0.1), "extend"),
        ((-10.0, 30.0), (8.0, 10.0, 1.0), "extend"),
        ((-10.0, 20.0), (8.0, 10.0, 1.0), "extend"),
    ])
    def test_grid_too_short_messages_match_chain(self, window, pump, match):
        grid = TemporalGrid(*window, 256)
        params = OpoParams(0.0, 1.0, GaussianPump(*pump))
        with pytest.raises(GridTooShortError, match=match) as closed:
            build_opo(params, grid)
        with pytest.raises(GridTooShortError) as chain:
            build_opo(_chain_twin(params), grid)
        assert str(closed.value) == str(chain.value)

    def test_takes_no_slice_step(self, monkeypatch):
        def step(*_args):
            raise AssertionError("slice step taken")

        monkeypatch.setattr(devices, "_gain_half_step", step)
        build_opo(OpoParams(0.0, 1.0, GaussianPump(1.5, 0.0, 0.1)), default_opo_grid(1.0, 128))
        with pytest.raises(AssertionError, match="slice step"):
            build_opo(OpoParams(0.3, 1.0, GaussianPump(1.5, 0.0, 0.1)), default_opo_grid(1.0, 128))

    def test_peak_memory(self):
        # The slice chain peaks at 3.0x the kernels it returns.  The resonant
        # cavity holds only its symbols, so building it stays far below one
        # kernel, and each first read of F or G fills that one array in row
        # tiles.
        grid = default_opo_grid(1.0, 1024)
        tracemalloc.start()
        try:
            k = build_opo(OpoParams(0.0, 1.0, GaussianPump(1.5, 0.0, 0.1)), grid)
            peaks = [tracemalloc.get_traced_memory()[1]]
            for name in ("F", "G"):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                getattr(k, name)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        one = k.F.nbytes
        assert k.G.nbytes == one
        assert peaks[0] < 1.5 * (k.F.nbytes + k.G.nbytes)
        assert peaks[0] < 0.05 * one
        assert max(peaks[1:]) < 1.5 * one


def _resonant_devices():
    """The ten closed-form OPO cases and resonant chains of 2, 100 and 1000
    stages at total gains 0.5 and 8 (n = 256), as builders by name."""
    devices = {
        f"opo-{window}-{n}-{area}-{width}": (
            lambda window=window, n=n, area=area, width=width: build_opo(
                OpoParams(0.0, 1.0, GaussianPump(area, 0.0, width)), TemporalGrid(*window, n)))
        for window, n, area, width in CLOSED_FORM_CASES
    }
    for n_stages in (2, 100, 1000):
        for gain in (0.5, 8.0):
            devices[f"twpa-{n_stages}-{gain}"] = (
                lambda n_stages=n_stages, gain=gain: build_twpa(
                    TwpaParams(OpoParams(0.0, 1.0, GaussianPump(1.0, 0.0, 0.2)), n_stages,
                               gain / n_stages), TemporalGrid(-10.0, 30.0, 256)))
    return devices


RESONANT = _resonant_devices()


@pytest.fixture
def raise_errors():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        yield


def _products(k, y):
    """``(name, transpose, K y)`` through the product protocol, for F, G and
    their transposes."""
    return [(name, transpose, k.times(name, y, transpose))
            for name in ("F", "G") for transpose in (False, True)]


@pytest.mark.usefixtures("raise_errors")
class TestResonantOperator:
    """A resonant cavity's FFT products, fills and ``vacuum_total``."""

    @pytest.mark.parametrize("name", list(RESONANT))
    def test_products_match_filled_kernels(self, name):
        k = RESONANT[name]()
        n = k.grid.n_points
        rng = np.random.default_rng(7)
        blocks = (rng.normal(size=(n, 16)), rng.normal(size=n) + 1j * rng.normal(size=n))
        products = [_products(k, y) for y in blocks]
        assert not {"F", "G"} & k.__dict__.keys()  # the FFT products fill nothing
        for y, results in zip(blocks, products):
            for kernel, transpose, got in results:
                dense = getattr(k, kernel)
                want = (dense.T if transpose else dense) @ y
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("gain", [0.5, 8.0])
    def test_hundred_stage_products_match_long_double_chain(self, gain):
        grid = TemporalGrid(-10.0, 30.0, 256)
        stage = OpoParams(0.0, 1.0, GaussianPump(1.0, 0.0, 0.2))
        k = build_twpa(TwpaParams(stage, 100, gain / 100), grid)
        expected = dict(zip("FG", long_double_chain(
            build_twpa(TwpaParams(stage, 1, gain / 100), grid), 100)))
        # Against the F image's largest entry, as the chain's own error is
        # measured against F's (the G images at gain 0.5 are 150x smaller,
        # and the filled G is as far off them as the FFT products).
        y = np.random.default_rng(8).normal(size=(256, 16)).astype(np.longdouble)
        scale = np.abs(expected["F"] @ y).max()
        for kernel, transpose, got in _products(k, y.astype(float)):
            dense = expected[kernel]
            want = (dense.T if transpose else dense) @ y
            assert np.abs(got - want).max() <= 1e-13 * scale

    @pytest.mark.parametrize("build", [
        lambda grid: build_opo(OpoParams(0.0, 1.0, GaussianPump(0.0, 0.0, 0.3)), grid),
        lambda grid: build_twpa(
            TwpaParams(OpoParams(0.0, 1.0, GaussianPump(0.0, 0.0, 0.3)), 10, 0.0), grid),
    ])
    def test_g_products_vanish_without_pump(self, build):
        k = build(default_opo_grid(1.0, 256))
        rng = np.random.default_rng(9)
        for y in (rng.normal(size=(256, 16)), rng.normal(size=256) + 1j * rng.normal(size=256)):
            for kernel, _transpose, got in _products(k, y):
                assert (kernel == "F") == bool(got.any())
        assert k.vacuum_total == 0.0

    @pytest.mark.parametrize("name", ["opo-(-10.0, 30.0)-1024-1.5-0.1", "twpa-100-8.0"])
    def test_fill_is_the_elementwise_map_sum(self, name):
        # Entry (k, j) of each map reads its wrapped first column, c_(k-j)
        # then f c_(n+k-j), at n - 1 - k + j, scaled by e^(+-s_k) and
        # e^(-+s_j) in that order; F and G are their sum and difference over
        # 2 dt.  The tiled fill repeats these operations.
        k = RESONANT[name]()
        n = k.grid.n_points
        index = n - 1 - np.arange(n)[:, None] + np.arange(n)
        plus, minus = (np.concatenate([c[::-1], math.exp(sign * k.area) * c[:0:-1]])
                       for sign, c in ((1.0, k.c_plus), (-1.0, k.c_minus)))
        x = np.exp(k.s)[:, None] * plus[index]
        x *= np.exp(-k.s)
        p = np.exp(-k.s)[:, None] * minus[index]
        p *= np.exp(k.s)
        scale = 0.5 / k.grid.dt
        assert np.array_equal(k.G, (x - p) * scale)
        assert np.array_equal(k.F, (x + p) * scale)

    @pytest.mark.parametrize("name", list(RESONANT))
    def test_vacuum_total_matches_long_double_sum(self, name):
        k = RESONANT[name]()
        total = k.vacuum_total
        g = k.G.astype(np.longdouble)
        want = float(np.sum(g * g) * np.longdouble(k.grid.dt) ** 2)
        assert total == pytest.approx(want, rel=1e-12)


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
        sp = seeded_vacuum_split(k, *apply_to_mode(k, u), input_moments(fock_state(1, 20)))
        assert occupation_ratio(sp) > 0.99
        assert sp.seeded[0][0] > 10.0  # high gain together with single-mode

    def test_excessive_gain_rejected(self, freq_grid):
        with pytest.raises(ValueError, match="gain too large"):
            build_opa(OpaParams(1e4, 0.0, 2.0), freq_grid)

    # Broad resonant, detuned and narrow pumps.
    PUMPS = [OpaParams(0.3, 0.0, 2.0), OpaParams(0.6, 1.0, 0.5), OpaParams(0.4, 0.7, 0.05)]

    @pytest.mark.parametrize("params", PUMPS)
    def test_matrix_functions_of_pump_kernel(self, params):
        """F dw = cosh(2 dw J) and G dw = i sinh(2 dw J), by matrix exponentials
        that never diagonalize J."""
        from scipy.linalg import expm

        grid = TemporalGrid(-8.0, 8.0, 128)
        dw = grid.dt
        J = opa_pair_kernel(params, grid)
        grow, shrink = expm(2.0 * dw * J), expm(-2.0 * dw * J)
        expected = BogoliubovKernels(grid, (grow + shrink) / (2.0 * dw),
                                     1j * (grow - shrink) / (2.0 * dw))
        assert max_relative_difference(expected, build_opa(params, grid)) < 1e-12

    @pytest.mark.parametrize("params", PUMPS)
    def test_real_f_and_imaginary_g(self, params, freq_grid):
        k = build_opa(params, freq_grid)
        assert k.F.dtype == complex and k.G.dtype == complex
        assert not k.F.imag.any()
        assert not k.G.real.any()

    @pytest.mark.parametrize("params", PUMPS)
    def test_matches_takagi_construction(self, params, freq_grid):
        k = build_opa(params, freq_grid)
        assert max_relative_difference(reference_opa(params, freq_grid), k) < 1e-13


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
    def test_resonant_chain_matches_long_double_power(self, n_stages):
        # The oracle raises the float64 stage's x and p maps, (F +- G) dt, by
        # repeated squaring in long double.  Raising them in float64 misses
        # this bound at every n_stages (6.2e-15 of the largest F entry at 2
        # stages, 1.7e-13 at 100, 2.9e-12 at 1000); the symbol fold reads
        # 8.8e-16, 1.3e-15, 7.6e-15 and 7.6e-14 at 2, 7, 100 and 1000.
        assert np.finfo(np.longdouble).eps < 1e-18
        grid = TemporalGrid(-10.0, 30.0, 128)
        stage = OpoParams(0.0, 1.0, GaussianPump(1.0, 0.0, 0.2))
        per_stage = 4.0 / n_stages
        k = build_twpa(TwpaParams(stage, n_stages, per_stage), grid)
        one = build_twpa(TwpaParams(stage, 1, per_stage), grid)
        expected_f, expected_g = long_double_chain(one, n_stages)
        bound = 1e-15 * n_stages * np.abs(expected_f).max()
        assert np.abs(k.F - expected_f).max() < bound
        assert np.abs(k.G - expected_g).max() < bound

    def test_resonant_stage_kernels_are_real(self):
        # Every resonant recipe folds its chain from the stage's symbol; a
        # detuned stage mixes x with p and keeps the full quadrature power.
        # The builder knows which: a resonant stage and its chain store float64.
        grid = TemporalGrid(-10.0, 30.0, 128)
        pump = GaussianPump(0.05, 0.0, 0.2)
        resonant = build_opo(OpoParams(0.0, 1.0, pump), grid)
        assert resonant.F.dtype == resonant.G.dtype == np.float64
        detuned = build_opo(OpoParams(0.6, 1.0, pump), grid)
        assert detuned.F.dtype == detuned.G.dtype == np.complex128
        assert detuned.F.imag.any() and detuned.G.imag.any()
        for detuning, dtype in ((0.0, np.float64), (0.6, np.complex128)):
            chain = build_twpa(TwpaParams(OpoParams(detuning, 1.0, pump), 10, 0.02), grid)
            assert chain.F.dtype == chain.G.dtype == dtype

    @pytest.mark.parametrize("detuning, shapes", [(0.0, []), (0.6, [(256, 256)])])
    def test_fold_raises_blocks_only_for_real_kernels(self, monkeypatch, detuning, shapes):
        # n = 128: a resonant chain raises its stage's symbol and no matrix;
        # a detuned chain raises its one 2n x 2n quadrature map.
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


def _as_complex(k):
    """The same kernels on the complex path."""
    return BogoliubovKernels(k.grid, k.F.astype(complex), k.G.astype(complex))


class TestRealPath:
    """Real kernels against the complex path.

    A resonant builder's oracle is the same device at detuning 1e-300: it
    takes the complex path (the OPO's slice chain, where the resonant OPO
    is built in closed form), and its imaginary parts underflow out of
    every real part.  The 100-stage chain's oracle is instead the long-double
    power of its real stage's maps: the complex path would raise the 2n x 2n
    quadrature map in float64, whose own error is most of the bound.  The
    consumers (images, pullback, vacuum ladder) are checked on the same
    kernels cast to complex, so they differ in their own arithmetic only.
    """

    @pytest.fixture(scope="class")
    def pairs(self):
        grid = default_opo_grid(1.0, 512)

        def twpa(detuning, n_stages, area=2.0):
            stage = OpoParams(detuning, 1.0, GaussianPump(1.0, 0.0, 0.2))
            return build_twpa(TwpaParams(stage, n_stages, area / n_stages), grid)

        def opo(detuning):
            return build_opo(OpoParams(detuning, 1.0, GaussianPump(1.2, 0.0, 0.3)), grid)

        ident = identity_kernels(grid)
        return {
            "opo": (opo(0.0), opo(1e-300)),
            "twpa-2": (twpa(0.0, 2), twpa(1e-300, 2)),
            "twpa-100": (twpa(0.0, 100), long_double_chain(twpa(0.0, 1, 2.0 / 100), 100)),
            "identity": (ident, _as_complex(ident)),
        }

    @pytest.mark.parametrize(
        "name, tol", [("opo", 1e-13), ("twpa-2", 1e-13), ("twpa-100", 1e-12), ("identity", 0.0)])
    def test_builder_matches_complex_path(self, pairs, name, tol):
        # The 100-stage oracle is the long-double power of its stage's maps,
        # which the real chain matches to 2.5e-15 of the largest F entry.  The
        # complex path's 2n x 2n float64 power is itself 7.8e-13 off that
        # power (in G), so a different BLAS summation order could push it
        # past the bound with no fault in the chain.
        real, oracle = pairs[name]
        assert real.F.dtype == real.G.dtype == np.float64
        want_f, want_g = oracle if name == "twpa-100" else (oracle.F, oracle.G)
        assert want_f.dtype == want_g.dtype == (
            np.longdouble if name == "twpa-100" else np.complex128)
        scale = max(np.abs(want_f).max(), np.abs(want_g).max())
        assert np.abs(real.F - want_f).max() <= tol * scale
        assert np.abs(real.G - want_g).max() <= tol * scale
        want_total = float(real.grid.dt**2 * np.sum(np.abs(want_g) ** 2))
        assert real.vacuum_total == pytest.approx(want_total, rel=1e-11)

    @pytest.mark.parametrize("name", ["opo", "twpa-2", "twpa-100", "identity"])
    def test_images_pullback_and_ladder_match_complex_path(self, pairs, name):
        real = pairs[name][0]
        oracle = _as_complex(real)
        grid = real.grid
        u = random_mode(grid, np.random.default_rng(23))
        for got, want in zip(apply_to_mode(real, u), apply_to_mode(oracle, u)):
            assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)
        got, want = pullback_output_mode(real, u), pullback_output_mode(oracle, u)
        assert got.zeta == pytest.approx(want.zeta, rel=1e-13)
        assert got.xi == pytest.approx(want.xi, rel=1e-13)
        assert abs(inner_product(got.f, want.f)) >= 1 - 1e-13
        assert (got.g is None) == (want.g is None) == (name == "identity")
        if got.g is not None:
            assert abs(inner_product(got.g, want.g)) >= 1 - 1e-13

        # The ladder: values, the kept part of the vacuum kernel (which a
        # rotation inside a near-degenerate pair leaves alone; the 100-stage
        # chain has a pair 1.2e-10 of the top value apart), and every mode
        # whose neighbours are at least 1e-6 of the top value away.
        moments = input_moments(fock_state(1, 30))
        v_in = gaussian_mode(grid, 0.0, 1.0)
        ladders = [seeded_vacuum_split(k, *apply_to_mode(k, v_in), moments).vacuum
                   for k in (real, oracle)]
        assert len(ladders[0]) == len(ladders[1])
        assert (len(ladders[0]) > 0) == (name != "identity")
        if not ladders[0]:
            return
        vals = [np.array([lam for lam, _ in ladder]) for ladder in ladders]
        top = vals[1][0]
        assert np.abs(vals[0] - vals[1]).max() <= 1e-13 * top
        kept = [(vecs * lam) @ vecs.conj().T
                for lam, vecs in ((v, np.array([m.amplitudes for _, m in ladder]).T)
                                  for v, ladder in zip(vals, ladders))]
        assert np.abs(kept[0] - kept[1]).max() <= 1e-13 * np.abs(kept[1]).max()
        edges = np.concatenate([[np.inf], vals[1], [0.0]])
        gap = np.minimum(edges[:-2] - edges[1:-1], edges[1:-1] - edges[2:])
        for (_, v), (_, w), g in zip(*ladders, gap):
            if g >= 1e-6 * top:
                assert abs(inner_product(v, w)) >= 1 - 1e-13
