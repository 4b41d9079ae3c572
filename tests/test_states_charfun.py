import math
import re
import warnings

import numpy as np
import pytest
from conftest import (
    joint_two_mode_char,
    random_mode,
    reference_coherent_chi,
    reference_even_cat_chi,
    reference_fock_chi,
    reference_full_plane_wigner,
    reference_propagated_chi,
    reference_squeezed_chi,
    reference_squeezed_vacuum_chi,
)
from fockspace import full_plane_fock_fold, three_mode_output_state
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from pulse_squeeze.charfun import (
    BASE_EXTENT,
    BASE_SPACING,
    BOUNDARY_TOL,
    FOCK_CUT_TOL,
    MAX_EXTENT,
    MAX_FOCK_DIM,
    SAMPLE_ROWS,
    CharFunction,
    CharGrid,
    GaussianChannel,
    _auto_grid,
    _fock_cut,
    _fock_fold,
    _gaussian_sum_fock,
    _log_displacement_bound,
    char_from_rho,
    char_of_state,
    fock_from_char,
    output_channel,
    overlap,
    overlaps,
    propagate_char,
    real_linear_map,
    state_evaluator,
    wigner_from_char,
)
from pulse_squeeze.coherence import input_moments, seeded_vacuum_split
from pulse_squeeze.config import load_recipe, parse_config
from pulse_squeeze.decomposition import OutputDecomposition, decompose_output_mode
from pulse_squeeze.devices import OpaParams, build_opa
from pulse_squeeze.grids import gaussian_mode, orthogonal_complement
from pulse_squeeze.kernels import apply_to_mode, ideal_squeezer_kernels, identity_kernels
from pulse_squeeze.states import (
    DEFAULT_DIM,
    QuantumState,
    SeparableChi,
    coherent_state,
    destroy,
    even_cat_state,
    fock_state,
    log_factorial,
    squeezed_state,
    vacuum_state,
)


def test_log_factorial_matches_gammaln():
    n = np.arange(121)
    np.testing.assert_allclose(log_factorial(n), gammaln(n + 1.0), rtol=1e-15, atol=0)
    assert log_factorial(7) == pytest.approx(math.log(5040.0), rel=1e-15)


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
        def build(state):
            return parse_config({"state": state}, "input").state()

        assert build({"kind": "fock", "n": 1, "dim": 12}).dim == 12
        vacuum = build({"kind": "vacuum"})
        assert vacuum.rho[0, 0] == 1.0 and vacuum.dim == DEFAULT_DIM
        # a null value counts as missing, so a null dim takes the default
        assert build({"kind": "coherent", "alpha": 1.0, "dim": None}).dim == DEFAULT_DIM
        with pytest.raises(ValueError, match="unknown state"):
            build({"kind": "gkp"})


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
        for state in (vacuum_state(60), fock_state(1, 60), coherent_state(1.5, 60),
                      even_cat_state(2.0, 60), squeezed_state(0.6, 60)):
            assert state.char_eval is not None
            got = state_evaluator(state)(pts)
            assert np.abs(char_from_rho(state.rho, pts) - got).max() < 1e-8

    @pytest.mark.parametrize(
        "state, reference",
        [
            (vacuum_state(10), reference_fock_chi(0)),
            (fock_state(1, 10), reference_fock_chi(1)),
            (coherent_state(1.5, 60), reference_coherent_chi(1.5)),
            (coherent_state(-2.0 + 1.3j, 60), reference_coherent_chi(-2.0 + 1.3j)),
            (even_cat_state(2.5, 60), reference_even_cat_chi(2.5)),
            (even_cat_state(1.2 - 2.1j, 60), reference_even_cat_chi(1.2 - 2.1j)),
            (squeezed_state(0.6, 60), reference_squeezed_vacuum_chi(0.6)),
            (squeezed_state(-0.9, 60), reference_squeezed_vacuum_chi(-0.9)),
        ],
        ids=["vacuum", "fock1", "coherent", "coherent-complex", "cat", "cat-complex",
             "squeezed", "squeezed-negative"],
    )
    def test_closed_forms_match_complex_copies(self, state, reference):
        # Scattered points out to |beta| = 60, where every exponent of the
        # old complex forms is far past underflow; the broadcast axes that
        # squeeze targets hand the closed form on the half plane of fig4's
        # output grid; and that grid's full-shaped (u, v) through a rotated
        # output channel.  None raises an overflow or an invalid value.
        from pulse_squeeze.metrics import squeeze_target_evaluator

        rng = np.random.default_rng(2)
        radius = np.concatenate([rng.uniform(0.0, 8.0, 400), rng.uniform(8.0, 60.0, 400),
                                 np.full(40, 60.0)])
        beta = radius * np.exp(2j * np.pi * rng.uniform(size=radius.size))
        point_sets = [(beta.real, beta.imag)]
        grid = CharGrid(34.03125, 727, 6.0, 129)  # fig4's output chi grid
        re, im = grid.re_axis[:, None], grid.im_axis[None, :]
        for r in (0.0, 1.3, 2.3):
            X = squeeze_target_evaluator(state, r).X
            assert X[0, 1] == 0.0 and X[1, 0] == 0.0
            point_sets.append((X[0, 0] * re[: grid.n_side // 2 + 1], X[1, 1] * im))
        row = OutputDecomposition(1.3 + 0.2j, 0.6 - 0.3j, 0.4j, 0.5, 0.2).rephased(0.7)
        X = output_channel(row, state_evaluator(state)).X
        assert np.all(X != 0.0)
        point_sets.append((X[0, 0] * re + X[0, 1] * im, X[1, 0] * re + X[1, 1] * im))
        for u, v in point_sets:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                got = state.char_eval(u, v)
                want = reference(u + 1j * v)
            assert got.shape == want.shape
            assert _close(got, want, 1e-14)

    def test_normalization_and_hermiticity(self):
        chi = char_of_state(even_cat_state(2.0, 60))
        origin = (chi.grid.n_side // 2, chi.grid.im_n_side // 2)
        assert chi.values[origin] == pytest.approx(1.0, abs=1e-9)
        assert np.abs(chi.values - chi.values[::-1, ::-1].conj()).max() < 1e-8

    def test_squeezed_vacuum_at_cap_warns_once(self, grid, u_mode):
        # exp(-beta^2 e^{-2r} / 2) is still 0.02 at Re beta = 34 for r = 2.5
        k = ideal_squeezer_kernels(grid, u_mode, 2.5)
        d = decompose_output_mode(k, u_mode, u_mode)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            chi = propagate_char(d, vacuum_state(20))
        messages = [str(w.message) for w in caught]
        assert messages == ["propagate_char: chi not decayed even at extent 34"]
        assert chi.boundary_magnitude() > 1e-3


class TestCharGridSample:
    def _evaluators(self, u_mode, opo_kernels):
        library = {
            "vacuum": vacuum_state(10),
            "fock 1": fock_state(1, 10),
            "coherent": coherent_state(1.0 - 0.7j, 40),
            "even cat": even_cat_state(2.0, 60),
            "squeezed": squeezed_state(0.6, 60),
        }
        evaluators = [(name, state_evaluator(s)) for name, s in library.items()]
        rng = np.random.default_rng(5)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T / np.trace(m @ m.conj().T).real
        evaluators.append(("random mixed", state_evaluator(QuantumState(rho))))
        d = decompose_output_mode(opo_kernels, u_mode, u_mode)
        chi_out = propagate_char(d, fock_state(1, 20))
        evaluators.append(("opo output", chi_out.evaluator))
        return evaluators

    @pytest.mark.filterwarnings("ignore:propagate_char")
    @pytest.mark.parametrize(
        "grid_",
        [
            CharGrid.with_extent(6.0),
            CharGrid(5.0, 65),
            CharGrid.with_extent(9.0, 4.0),
            CharGrid.with_extent(3.0, 7.0),
        ],
    )
    def test_matches_full_mesh(self, grid_, u_mode, opo_kernels):
        half = grid_.n_side // 2
        for name, evaluator in self._evaluators(u_mode, opo_kernels):
            values = grid_.sample(evaluator)
            full = evaluator(grid_.mesh())
            assert np.abs(values - full).max() < 1e-14, name
            assert np.array_equal(values[half + 1 :], np.conj(values[half - 1 :: -1, ::-1])), name

    @pytest.mark.filterwarnings("ignore:propagate_char")
    @pytest.mark.parametrize("state", [fock_state(1, 20), even_cat_state(2.0, 60)],
                             ids=["fock1", "cat"])
    def test_noisy_channel_matches_call_bit_for_bit(self, state, u_mode, opo_kernels):
        d = decompose_output_mode(opo_kernels, u_mode, u_mode)
        channel = propagate_char(d, state).evaluator
        assert channel.Y.any()
        for grid_ in (CharGrid.with_extent(6.0), CharGrid.with_extent(9.0, 4.0)):
            assert np.array_equal(grid_.sample(channel), channel(grid_.mesh()))

    def test_evaluates_one_half(self):
        grid_ = CharGrid(3.0, 9)
        shapes = []

        def base(u, v):
            shapes.append(np.broadcast(u, v).shape)
            return np.exp(-0.5 * (u * u + v * v))

        grid_.sample(GaussianChannel(base))
        assert shapes == [(5, 9)]

    def test_evaluates_blocks_of_rows(self):
        # 70 half rows: two full blocks and a short one, into one array of
        # the channel's dtype
        grid_ = CharGrid(3.0, 139, 1.0, 47)
        shapes = []

        def base(u, v):
            shapes.append(np.broadcast(u, v).shape)
            return np.exp(-0.5 * (u * u + v * v))

        half = grid_.sample_half(GaussianChannel(base))
        assert shapes == [(SAMPLE_ROWS, 47), (SAMPLE_ROWS, 47), (70 - 2 * SAMPLE_ROWS, 47)]
        assert half.shape == (70, 47) and half.dtype == np.float64

    @pytest.mark.parametrize("name", ["cat", "fock1"])
    def test_fig4_blocks_match_one_call_bit_for_bit(self, name, fig4_runs):
        # fig4's output channel on its chi grid, whose 364 half rows are not
        # a multiple of the block, with the cat or a Fock-1 input
        chi, evaluator = fig4_runs["cat"]
        if name == "fock1":
            evaluator = GaussianChannel(state_evaluator(fock_state(1, 60)).base,
                                        evaluator.X, evaluator.Y)
        re, im = chi.grid.half_axes()
        assert len(re) == 364 and len(re) % SAMPLE_ROWS
        one_call = evaluator.at(re[:, None], im[None, :])
        assert np.array_equal(chi.grid.sample_half(evaluator), one_call)
        if name == "cat":
            assert np.array_equal(chi.values[: len(re)], one_call)


class TestRectangularGrid:
    @pytest.mark.parametrize(
        "state, extent",
        [(vacuum_state(10), 6.0), (coherent_state(1.0 + 0.5j, 20), 6.0),
         (fock_state(20, 40), 13.5)],
        ids=["vacuum", "coherent", "fock20"],
    )
    def test_isotropic_chi_keeps_square_grid(self, state, extent):
        evaluator = state_evaluator(state)
        chi = _auto_grid(evaluator, "test")
        square = CharGrid.with_extent(extent)
        assert chi.grid == square
        assert (chi.grid.n_side, chi.grid.im_n_side) == (square.n_side, square.n_side)
        assert np.array_equal(chi.values, square.sample(evaluator))

    def test_squeezed_chi_gets_rectangle(self, grid, u_mode):
        chi = self._squeezed_output(grid, u_mode, vacuum_state(20))
        re_edges, im_edges = chi.edge_magnitudes()
        # chi is long on Re beta and compressed by e^-r on Im beta
        assert chi.grid.n_side > 2 * chi.grid.im_n_side
        assert chi.grid.im_extent == BASE_EXTENT
        assert im_edges < 1e-30
        assert re_edges < BOUNDARY_TOL
        assert chi.grid.spacing == pytest.approx(BASE_SPACING, rel=1e-15)
        assert chi.values.shape == chi.grid.shape

    def test_rejects_mixed_spacing(self):
        with pytest.raises(ValueError, match="one spacing"):
            CharGrid(5.0, 65, 5.0, 33)

    @staticmethod
    def _squeezed_output(grid, u_mode, state, r=1.3):
        k = ideal_squeezer_kernels(grid, u_mode, r)
        d = decompose_output_mode(k, u_mode, u_mode)
        return propagate_char(d, state)

    @staticmethod
    def _on_enclosing_square(chi):
        square = CharGrid(chi.grid.extent, chi.grid.n_side)
        assert square.extent >= chi.grid.im_extent
        return CharFunction(square, square.sample(chi.evaluator), chi.evaluator)

    def test_quadratures_match_enclosing_square(self, grid, u_mode):
        from pulse_squeeze.metrics import optimize_squeeze_fidelity, squeeze_target_evaluator

        state = fock_state(1, 20)
        rect = self._squeezed_output(grid, u_mode, state)
        square = self._on_enclosing_square(rect)
        assert rect.grid.im_n_side < square.grid.im_n_side
        assert rect.boundary_magnitude() < 1e-6

        rho_rect = fock_from_char(rect, 20).rho
        rho_square = fock_from_char(square, 20).rho
        assert np.abs(rho_rect - rho_square).max() < 1e-14

        target = squeeze_target_evaluator(state, 1.2)
        assert overlap(rect, target) == pytest.approx(overlap(square, target), abs=1e-14)

        r_grid = np.linspace(1.0, 1.6, 7)
        fit_rect = optimize_squeeze_fidelity(rect, state, r_grid=r_grid)
        fit_square = optimize_squeeze_fidelity(square, state, r_grid=r_grid)
        assert fit_rect.best_r == fit_square.best_r
        for (r1, f1), (r2, f2) in zip(fit_rect.fidelity_curve, fit_square.fidelity_curve):
            assert r1 == r2 and abs(f1 - f2) < 1e-14

    def test_propagated_chi_decays_below_tolerance(self, grid, u_mode):
        chi = self._squeezed_output(grid, u_mode, fock_state(1, 20))
        assert chi.boundary_magnitude() < 1e-6

    def test_fock_and_fit_keep_chi_grid(self, grid, u_mode, monkeypatch):
        from pulse_squeeze.metrics import optimize_squeeze_fidelity

        state = fock_state(1, 20)
        chi = self._squeezed_output(grid, u_mode, state)
        grown, read = [], []
        with_extent, half_axes = CharGrid.with_extent, CharGrid.half_axes
        monkeypatch.setattr(
            CharGrid, "with_extent", staticmethod(lambda *a: grown.append(a) or with_extent(*a))
        )
        # the fit evaluates its targets on the half-plane axes of chi's grid
        monkeypatch.setattr(CharGrid, "half_axes", lambda g: read.append(g) or half_axes(g))
        fock_from_char(chi, 20)
        optimize_squeeze_fidelity(chi, state, r_grid=np.linspace(1.0, 1.6, 7))
        assert grown == []
        # the closed-form targets are contracted per axis, one batch per
        # round: the 7 grid points, then the refinement around the peak
        assert len(read) == 2 and all(g == chi.grid for g in read)

    def test_quarter_turn_is_rephased_row(self, grid, u_mode):
        from pulse_squeeze import pipeline

        d = decompose_output_mode(ideal_squeezer_kernels(grid, u_mode, 0.9), u_mode, u_mode)
        state = coherent_state(1.0 + 0.5j, 30)
        chi = propagate_char(d, state)
        assert chi.grid.n_side != chi.grid.im_n_side
        shown = pipeline.wigner_for_display(chi)
        reference = wigner_from_char(propagate_char(d.rephased(-np.pi / 2.0), state))
        assert np.abs(shown.values - reference.values).max() < 1e-14


class TestPropagateChar:
    def test_identity_decomposition(self, grid, u_mode):
        state = even_cat_state(1.5, 50)
        d = decompose_output_mode(identity_kernels(grid), u_mode, u_mode)
        chi_u = char_of_state(state)
        out = propagate_char(d, state).evaluator
        assert np.abs(chi_u.grid.sample(out) - chi_u.values).max() < 1e-12

    def test_squeezer_on_vacuum(self, grid, u_mode):
        r = 0.7
        k = ideal_squeezer_kernels(grid, u_mode, r)
        d = decompose_output_mode(k, u_mode, u_mode)
        chi_out = propagate_char(d, vacuum_state(20))
        beta = chi_out.grid.mesh()
        expected = np.exp(-0.5 * np.abs(beta * np.cosh(r) - np.conj(beta) * np.sinh(r)) ** 2)
        assert np.abs(chi_out.values - expected).max() < 1e-12

    def test_loss_like_decomposition(self):
        # A = sqrt(eta), C = sqrt(1 - eta): a beam splitter onto vacuum
        eta = 0.6
        d = OutputDecomposition(A=np.sqrt(eta), B=0.0, C=np.sqrt(1 - eta), D=0.0, E=0.0)
        assert d.commutator() == pytest.approx(1.0, abs=1e-15)
        alpha = 1.4 + 0.3j
        chi_out = propagate_char(d, coherent_state(alpha, 50))
        expected = reference_coherent_chi(np.sqrt(eta) * alpha)(chi_out.grid.mesh())
        assert np.abs(chi_out.values - expected).max() < 1e-10

    def test_origin_pinned(self, grid, u_mode, opo_kernels):
        d = decompose_output_mode(opo_kernels, u_mode, u_mode)
        chi_out = propagate_char(d, fock_state(1, 20))
        origin = (chi_out.grid.n_side // 2, chi_out.grid.im_n_side // 2)
        assert chi_out.values[origin] == pytest.approx(1.0, abs=1e-12)


def _bases():
    """Exact input chi: a closed form and a Fock sum, each with its own oracle."""
    rng = np.random.default_rng(11)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = m @ m.conj().T / np.trace(m @ m.conj().T).real
    cat = even_cat_state(2.0, 50)
    return [(cat, reference_even_cat_chi(2.0)),
            (QuantumState(rho), lambda b: char_from_rho(rho, b))]


def _random_betas(rng, n=200, reach=3.0):
    return rng.uniform(-reach, reach, n) + 1j * rng.uniform(-reach, reach, n)


def _apply(R, beta):
    """R acting on beta as the real vector (Re beta, Im beta)."""
    return (R[0, 0] * beta.real + R[0, 1] * beta.imag) + 1j * (
        R[1, 0] * beta.real + R[1, 1] * beta.imag
    )


def _row_channel(state, d):
    """The single-mode channel of the row (A, C, E | B, D, 0)."""
    A, B, C, D, E = d.row
    return GaussianChannel.from_rows(state_evaluator(state), [[A, C, E]], [[B, D, 0.0]])


def _close(got, want, rtol):
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestGaussianChannel:
    @pytest.fixture(scope="class")
    def decomps(self, grid, u_mode, opo_kernels, freq_grid):
        """Generic rows (all five coefficients nonzero): random output modes
        of an OPO and an OPA."""
        rng = np.random.default_rng(21)
        opa = build_opa(OpaParams(0.4, 0.3, 2.0), freq_grid)
        u_opa = gaussian_mode(freq_grid, 0.0, 1.0)
        out = [decompose_output_mode(opo_kernels, u_mode, random_mode(grid, rng, 0.0, 2.0))
               for _ in range(2)]
        out += [decompose_output_mode(opa, u_opa, random_mode(freq_grid, rng, 0.0, 2.0))
                for _ in range(2)]
        for d in out:
            assert min(abs(c) for c in d.row) > 1e-3
        return out

    def test_propagation_matches_explicit_formula(self, decomps):
        rng = np.random.default_rng(4)
        for state, base in _bases():
            for d in decomps:
                beta = _random_betas(rng)
                got = propagate_char(d, state).evaluator(beta)
                assert _close(got, reference_propagated_chi(d, base)(beta), 1e-13)

    def test_squeeze_target_matches_explicit_formula(self):
        from pulse_squeeze.metrics import squeeze_target_evaluator

        rng = np.random.default_rng(6)
        for state, base in _bases():
            for r in rng.uniform(0.0, 2.3, 4):
                beta = _random_betas(rng)
                got = squeeze_target_evaluator(state, r)(beta)
                assert _close(got, reference_squeezed_chi(base, r)(beta), 1e-13)

    def test_then_is_nested_evaluation(self, decomps):
        rng = np.random.default_rng(8)
        state, _ = _bases()[0]
        ch = _row_channel(state, decomps[0])
        R1, R2 = rng.normal(size=(2, 2, 2)) * 0.8
        noise = rng.normal(size=(2, 2))
        noise = noise @ noise.T
        beta = _random_betas(rng)
        nested = ch(_apply(R1, _apply(R2, beta)))
        assert _close(ch.then(R1).then(R2)(beta), nested, 1e-12)
        form = np.einsum("in,ij,jn->n", [beta.real, beta.imag], noise, [beta.real, beta.imag])
        assert _close(ch.then(R1, noise)(beta), ch(_apply(R1, beta)) * np.exp(-0.5 * form),
                      1e-12)

    def test_four_quarter_turns_are_identity(self, decomps):
        rng = np.random.default_rng(9)
        state, _ = _bases()[1]
        ch = _row_channel(state, decomps[2])
        exact, rounded = ch, ch
        for _ in range(4):
            exact = exact.then(real_linear_map(1j))
            rounded = rounded.then(real_linear_map(np.exp(0.5j * np.pi)))
        assert np.array_equal(exact.X, ch.X) and np.array_equal(exact.Y, ch.Y)
        assert np.abs(rounded.X - ch.X).max() < 1e-15 * np.abs(ch.X).max()
        beta = _random_betas(rng)
        assert _close(rounded(beta), ch(beta), 1e-14)

    def test_noisy_channel_is_hermitian(self, decomps):
        # CharGrid.sample fills half the grid from chi(-beta) = conj(chi(beta)).
        rng = np.random.default_rng(10)
        for state, _ in _bases():
            for d in decomps:
                ch = _row_channel(state, d)
                assert ch.Y.any()
                beta = _random_betas(rng)
                assert _close(ch(-beta), np.conj(ch(beta)), 1e-14)


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

    @pytest.mark.parametrize("name", ["vacuum", "fock1", "coherent-complex", "cat",
                                      "cat-complex", "squeezed"])
    def test_half_plane_matches_full_plane_sum(self, name):
        chi = char_of_state(TestPerAxisOverlaps.STATES[name])
        want = reference_full_plane_wigner(chi)
        got = wigner_from_char(chi).values
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_rotation_moves_quadratures(self):
        state = squeezed_state(0.6, 50)
        chi = char_of_state(state)
        from pulse_squeeze.metrics import quadrature_variance

        quarter_turn = OutputDecomposition(1.0, 0.0, 0.0, 0.0, 0.0).rephased(-np.pi / 2.0)
        rot = propagate_char(quarter_turn, state)
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
        chi_back = chi.grid.sample(state_evaluator(rec))
        assert np.abs(chi_back - chi.values).max() < 1e-5

    def test_squeezed_vacuum_populations(self, grid, u_mode):
        r = 0.5
        k = ideal_squeezer_kernels(grid, u_mode, r)
        d = decompose_output_mode(k, u_mode, u_mode)
        chi_out = propagate_char(d, vacuum_state(20))
        rec = fock_from_char(chi_out, 30)
        pops = np.diag(rec.rho).real
        n = np.arange(15)
        expected = (
            np.exp(gammaln(2 * n + 1) - 2 * n * np.log(2.0) - 2 * gammaln(n + 1))
            * np.tanh(r) ** (2 * n)
            / np.cosh(r)
        )
        assert np.abs(pops[::2] - expected).max() < 1e-4

    def test_matches_grid_sum_oracle(self):
        # rho_mn = (h^2/pi) sum_beta chi(beta) <m|D(-beta)|n> over every grid
        # point, with the displacement matrix elements from scipy's Laguerre
        # polynomials.  The state has no rotational symmetry, so the angular
        # phases count; the grid is off the with_extent sequence, and chi has
        # decayed below 1e-6 at its boundary.  The chi is the Fock sum of the
        # state's rho, an input with no Gaussian terms, so fock_from_char
        # folds it on the grid.
        dim = 20
        state = coherent_state(1.0 + 0.5j, dim)
        g, ev = CharGrid(5.6, 65), state_evaluator(QuantumState(state.rho))
        chi = CharFunction(g, g.sample(ev), ev)
        assert chi.boundary_magnitude() < 1e-6
        alpha = -chi.grid.mesh().ravel()
        x = np.abs(alpha) ** 2
        gauss = chi.values.ravel() * np.exp(-0.5 * x)
        oracle = np.empty((dim, dim), dtype=complex)
        for m in range(dim):
            for n in range(dim):
                lo, d = min(m, n), abs(m - n)
                phase = alpha**d if m >= n else (-np.conj(alpha)) ** d
                norm = np.exp(0.5 * (gammaln(lo + 1.0) - gammaln(lo + d + 1.0)))
                element = norm * phase * eval_genlaguerre(lo, d, x)
                oracle[m, n] = np.sum(gauss * element)
        oracle *= chi.grid.weight / np.pi
        assert np.abs(oracle - oracle.conj().T).max() < 1e-14
        assert np.abs(oracle - state.rho).max() < 1e-5
        # This coarse grid leaves eigenvalues near -1e-8 in the sum, so the
        # oracle goes through the same clamp and renormalisation.
        eigvals, eigvecs = np.linalg.eigh(oracle)
        assert eigvals.min() > -1e-6
        clamped = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.conj().T
        expected = clamped / np.trace(clamped).real
        assert np.abs(fock_from_char(chi, dim).rho - expected).max() < 1e-12

    def test_low_trace_warns_with_its_trace(self):
        # |alpha|^2 = 9: dim 5 holds the Poisson weight of n = 0..4.
        chi = char_of_state(coherent_state(3.0, 40))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = fock_from_char(chi, 5)
        (message,) = [str(w.message) for w in caught]
        found = re.fullmatch(r"fock_from_char: dim 5 captures trace (\S+) of the state; "
                             r"the density matrix is renormalised", message)
        assert found is not None, message
        poisson = sum(math.exp(-9.0) * 9.0**n / math.factorial(n) for n in range(5))
        assert float(found.group(1)) == pytest.approx(poisson, rel=1e-5)
        assert np.trace(rec.rho).real == pytest.approx(1.0, abs=1e-12)

    def test_ample_dim_does_not_warn(self):
        chi = char_of_state(coherent_state(1.0 + 0.5j, 40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = fock_from_char(chi, 40)
        assert np.abs(rec.rho - coherent_state(1.0 + 0.5j, 40).rho).max() < 1e-6

    @pytest.mark.parametrize("dim", [0, MAX_FOCK_DIM + 1])
    def test_dim_cap(self, dim):
        with pytest.raises(ValueError, match=rf"outside the supported range 1\.\.{MAX_FOCK_DIM}"):
            fock_from_char(char_of_state(vacuum_state(10)), dim)


# fig4 as shipped and with the input and device changes its CI steps run:
# config path -> value.
FIG4_VARIANTS = {
    "cat": {},
    "detuned": {"device.detuning": 0.7},
    "coherent": {"input.state": {"kind": "coherent", "alpha": 2.5, "dim": 60}},
    "squeezed": {"input.state": {"kind": "squeezed", "r": 0.5, "dim": 60},
                 "device.pump.area": 0.0},
    "vacuum-v1": {"input.state": {"kind": "vacuum", "dim": 60}},
    "vacuum-v2": {"input.state": {"kind": "vacuum", "dim": 60}, "output_mode": "auto_v2"},
    "fock1": {"input.state": {"kind": "fock", "n": 1, "dim": 60}},
    "cat-complex": {"input.state": {"kind": "even_cat", "alpha": "2+1j", "dim": 60}},
    "coherent-4.5": {"input.state": {"kind": "coherent", "alpha": 4.5, "dim": 60}},
}


@pytest.fixture(scope="module")
def fig4_runs():
    """Each ``FIG4_VARIANTS`` state run (no Fock reconstruction): its aligned
    output chi and the evaluator of its one ``_auto_grid`` call."""
    from pulse_squeeze import charfun, pipeline
    from pulse_squeeze.config import set_by_path

    auto_grid, sized = charfun._auto_grid, []
    charfun._auto_grid = lambda ev, what: sized.append(ev) or auto_grid(ev, what)
    runs = {}
    try:
        for name, changes in FIG4_VARIANTS.items():
            cfg = load_recipe("fig4")
            for path, value in changes.items():
                cfg = set_by_path(cfg, path, value)
            run = parse_config(cfg)
            kernels = pipeline.device_from_config(cfg["device"], run.grid)
            u = pipeline.input_mode_from_config(cfg["input"], run.grid)
            state = pipeline.input_state_from_config(cfg["input"])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                chi = pipeline.run_state_analysis(kernels, u, state, run.output_mode).chi_out
            (evaluator,) = sized
            sized.clear()
            runs[name] = chi, evaluator
    finally:
        charfun._auto_grid = auto_grid
    return runs


@pytest.fixture(scope="module")
def fig4_chi(fig4_runs):
    """fig4's aligned output chi, on the 727 x 129 grid the state run samples."""
    return fig4_runs["cat"][0]


class TestFig4Wigner:
    @pytest.mark.parametrize("name", list(FIG4_VARIANTS))
    def test_half_plane_matches_full_plane_sum(self, name, fig4_runs):
        # |W| <= 1/pi for every state; coherent-4.5's output lies outside the
        # window, where W is below 1e-8 of that
        chi = fig4_runs[name][0]
        want = reference_full_plane_wigner(chi)
        got = wigner_from_char(chi).values
        assert np.abs(got - want).max() <= 1e-14 / np.pi
        if name == "cat":
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _largest_radius_sq(grid):
    return grid.extent**2 + grid.im_extent**2


class TestFockFold:
    """``fock_from_char``'s half-plane, radius-cut fold against the uncut
    full-plane sum, ``fockspace.full_plane_fock_fold``, before the clamp."""

    def test_fig4_output_where_the_cut_bites(self, fig4_chi):
        assert fig4_chi.grid.shape == (727, 129)
        assert _fock_cut(60, fig4_chi.grid) < _largest_radius_sq(fig4_chi.grid)
        raw = _fock_fold(fig4_chi, 60)
        assert np.abs(raw - full_plane_fock_fold(fig4_chi, 60)).max() <= 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 20, 40])
    def test_rectangular_squeezed_fock_one(self, grid, u_mode, dim):
        chi = TestRectangularGrid._squeezed_output(grid, u_mode, fock_state(1, 20))
        assert chi.grid.extent >= 20.0 and chi.grid.n_side > chi.grid.im_n_side
        assert _fock_cut(dim, chi.grid) < _largest_radius_sq(chi.grid)
        raw = _fock_fold(chi, dim)
        assert np.abs(raw - full_plane_fock_fold(chi, dim)).max() <= 1e-15

    def test_coherent_state_grid(self):
        state = coherent_state(1.0 + 0.5j, 20)
        g, ev = CharGrid(5.6, 65), state_evaluator(state)
        chi = CharFunction(g, g.sample(ev), ev)
        raw = _fock_fold(chi, 20)
        assert np.abs(raw - full_plane_fock_fold(chi, 20)).max() <= 1e-15

    @pytest.mark.parametrize("dim", range(1, MAX_FOCK_DIM + 1))
    def test_bound_below_tolerance_and_falling_past_the_cut(self, dim):
        grid = CharGrid.with_extent(MAX_EXTENT)
        x_cut = _fock_cut(dim, grid)
        assert x_cut >= 2.0 * (dim - 1)
        points = grid.n_side * grid.im_n_side
        per_point = FOCK_CUT_TOL * np.pi / (grid.weight * points)
        past = x_cut + np.linspace(0.0, 4.0 * x_cut + 100.0, 400)
        bounds = np.array([_log_displacement_bound(dim)(x) for x in past])
        assert bounds[0] <= np.log(per_point)
        assert np.all(np.diff(bounds) < 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 7, 30, 60])
    def test_bound_holds_for_every_matrix_element(self, dim):
        # |<m|D(beta)|n>| = sqrt(n!/m!) x^{(m-n)/2} e^{-x/2} |L_n^{(m-n)}(x)|, m >= n
        m, n = np.tril_indices(dim)
        log_bound = _log_displacement_bound(dim)
        for x in np.linspace(max(dim - 1.0, 0.5), _fock_cut(dim, CharGrid(34.0, 727)), 25):
            log_element = (0.5 * (gammaln(n + 1.0) - gammaln(m + 1.0))
                           + 0.5 * (m - n) * np.log(x) - 0.5 * x
                           + np.log(np.abs(eval_genlaguerre(n, m - n, x)) + 1e-300))
            assert log_element.max() <= log_bound(x) + 1e-12


class TestHalfPlaneOverlap:
    """``overlap`` and ``purity`` read rows 0 .. half; the full-plane sums
    over every grid point are their oracle."""

    @staticmethod
    def _full_plane(chi, target_full):
        return float(np.real(np.sum(np.conj(chi.values) * target_full))
                     * chi.grid.weight / np.pi)

    def _cases(self, grid, u_mode):
        from pulse_squeeze.metrics import squeeze_target_evaluator

        coherent = coherent_state(1.0 + 0.5j, 30)
        square = char_of_state(coherent)
        fock1 = fock_state(1, 20)
        rect = TestRectangularGrid._squeezed_output(grid, u_mode, fock1)
        assert square.grid.n_side == square.grid.im_n_side
        assert rect.grid.n_side > rect.grid.im_n_side
        return [(square, squeeze_target_evaluator(coherent, 0.4)),
                (rect, squeeze_target_evaluator(fock1, 1.2))]

    def test_overlap_matches_full_plane_sum(self, grid, u_mode):
        cases = self._cases(grid, u_mode)
        for chi, target in cases:
            half = overlap(chi, target)
            full = self._full_plane(chi, chi.grid.sample(target))
            assert abs(half - full) <= 1e-15 * abs(full)
        (square, _), (rect, _) = cases
        with pytest.raises(ValueError, match="one grid"):
            overlap(square, rect)

    def test_purity_matches_full_plane_sum(self, grid, u_mode):
        from pulse_squeeze.metrics import purity

        for chi, _ in self._cases(grid, u_mode):
            full = self._full_plane(chi, chi.values)
            assert abs(purity(chi) - full) <= 1e-15 * abs(full)


class TestPerAxisOverlaps:
    """``overlaps`` contracts the squeeze-fit targets of a closed-form input
    from per-axis factors; the sampled ``overlap`` of each target is its
    oracle."""

    STATES = {
        "vacuum": vacuum_state(20),
        "fock1": fock_state(1, 20),
        "coherent": coherent_state(1.5, 40),
        "coherent-complex": coherent_state(1.0 - 0.7j, 40),
        "cat": even_cat_state(2.5, 60),
        "cat-complex": even_cat_state(1.2 - 2.1j, 60),
        "squeezed": squeezed_state(0.6, 60),
    }

    @pytest.mark.parametrize("name", list(STATES))
    def test_matches_sampled_overlap(self, name, grid, u_mode, monkeypatch):
        from pulse_squeeze.metrics import _default_r_grid, squeeze_target_evaluator

        state = self.STATES[name]
        assert isinstance(state.char_eval, SeparableChi)
        targets = [squeeze_target_evaluator(state, r) for r in _default_r_grid()]
        own = char_of_state(state)
        extent = max(own.grid.extent, own.grid.im_extent)
        square = CharGrid.with_extent(extent)
        rect = TestRectangularGrid._squeezed_output(grid, u_mode, state)
        assert rect.grid.n_side > rect.grid.im_n_side
        for chi in (own, CharFunction(square, square.sample(own.evaluator), own.evaluator), rect):
            want = np.array([overlap(chi, target) for target in targets])
            sampled = []
            monkeypatch.setattr(CharGrid, "sample_half", lambda g, ev: sampled.append(ev))
            got = overlaps(chi, targets)
            monkeypatch.undo()
            assert sampled == []
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("name", [*STATES, "coherent-rho"])
    def test_conjugate_scores_the_conjugated_copy_bit_for_bit(self, name, grid, u_mode):
        # the alignment's theta + pi candidate, scored from the first's rows;
        # coherent-rho is a complex chi without a closed form, so each target
        # is sampled
        from pulse_squeeze.metrics import squeeze_target_evaluator

        state = self.STATES.get(name) or QuantumState(coherent_state(1.0 - 0.7j, 30).rho)
        chi = TestRectangularGrid._squeezed_output(grid, u_mode, state)
        mirrored = CharFunction(chi.grid, np.conj(chi.values), chi.evaluator.then(-np.eye(2)))
        targets = [squeeze_target_evaluator(state, r) for r in (0.5, 1.3)]
        assert np.array_equal(overlaps(chi, targets, conjugate=True), overlaps(mirrored, targets))

    def test_fock_sum_input_samples_each_target(self, grid, u_mode):
        from pulse_squeeze.metrics import squeeze_target_evaluator

        state = fock_state(2, 20)
        assert state.char_eval is None
        chi = TestRectangularGrid._squeezed_output(grid, u_mode, state)
        targets = [squeeze_target_evaluator(state, r) for r in (0.5, 1.3)]
        got = overlaps(chi, targets)
        assert got.tolist() == [overlap(chi, target) for target in targets]

    def test_chi_is_the_sum_of_its_factor_products(self):
        # The closed form is the factors' one definition: calling it sums
        # their products pairwise, (t0 + t1) + (t2 + t3) for the cat.
        rng = np.random.default_rng(8)
        u, v = rng.normal(size=(2, 50)) * 3.0
        for state in self.STATES.values():
            terms = [f * g for f, g in state.char_eval.factors(u, v)]
            assert len(terms) in (1, 2, 4)
            want = terms[0] if len(terms) == 1 else terms[0] + terms[1]
            if len(terms) == 4:
                want = want + (terms[2] + terms[3])
            assert np.array_equal(state.char_eval(u, v), want)


class TestJointTwoModeChar:
    def test_identity_product_state(self, grid, u_mode):
        rng = np.random.default_rng(3)
        w, _ = orthogonal_complement(random_mode(grid, rng), [u_mode])
        state = coherent_state(1.2, 40)
        joint = joint_two_mode_char(identity_kernels(grid), u_mode, u_mode, w, state)
        b = joint.grid.mesh()
        chi1 = joint.evaluator(b, np.zeros_like(b))
        assert np.abs(chi1 - reference_coherent_chi(1.2)(b)).max() < 1e-10
        chi2 = joint.evaluator(np.zeros_like(b), b)
        assert np.abs(chi2 - np.exp(-0.5 * np.abs(b) ** 2)).max() < 1e-10

    @pytest.mark.filterwarnings("ignore:propagate_char")
    def test_marginal_matches_single_mode(self, grid, u_mode, opo_kernels):
        state = fock_state(1, 20)
        mom = input_moments(state)
        sp = seeded_vacuum_split(opo_kernels, *apply_to_mode(opo_kernels, u_mode), mom)
        v1, v2 = sp.seeded[0][1], sp.seeded[1][1]
        joint = joint_two_mode_char(opo_kernels, u_mode, v1, v2, state)
        d = decompose_output_mode(opo_kernels, u_mode, v1)
        single = propagate_char(d, state)
        marg = joint.marginal(0)
        assert np.abs(marg.values - joint.grid.sample(single.evaluator)).max() < 1e-8
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
        sp = seeded_vacuum_split(opo_kernels, *apply_to_mode(opo_kernels, u_mode),
                                 input_moments(state))
        v1, v2 = sp.seeded[0][1], sp.seeded[1][1]
        joint = joint_two_mode_char(opo_kernels, u_mode, v1, v2, state, extent=6.0, n_side=49)
        marg = joint.marginal(0)
        assert purity(marg) < joint.purity() - 0.05

    def test_requires_orthogonal_modes(self, grid, u_mode, opo_kernels):
        with pytest.raises(ValueError, match="orthogonal"):
            joint_two_mode_char(opo_kernels, u_mode, u_mode, u_mode, vacuum_state(10))


def _full_sample_grid(evaluator):
    """The grid ``_auto_grid`` chose when it sampled every candidate grid in
    full and read its edges off the samples."""
    extents = [BASE_EXTENT, BASE_EXTENT]
    while True:
        g = CharGrid.with_extent(*extents)
        chi = CharFunction(g, g.sample(evaluator), evaluator)
        grow = [edge > BOUNDARY_TOL and extent < MAX_EXTENT
                for edge, extent in zip(chi.edge_magnitudes(), extents)]
        if not any(grow):
            return g
        extents = [min(e * 1.5, MAX_EXTENT) if up else e for e, up in zip(extents, grow)]


class TestEdgeProbes:
    """``_auto_grid`` decides each growth step from the candidate grid's
    edges; sampling every candidate in full is its oracle."""

    LIBRARY = {
        "vacuum": vacuum_state(20),
        "fock1": fock_state(1, 20),
        "fock2": fock_state(2, 20),
        "coherent": coherent_state(2.0, 40),
        "coherent-complex": coherent_state(1.0 - 0.7j, 40),
        "coherent-4.5": coherent_state(4.5, 60),
        "cat": even_cat_state(2.5, 60),
        "cat-complex": even_cat_state(2.0 + 1.0j, 60),
        "squeezed": squeezed_state(0.8, 60),
        "squeezed-minus": squeezed_state(-0.5, 60),
    }

    @pytest.mark.parametrize("name", list(LIBRARY))
    def test_library_state(self, name):
        evaluator = state_evaluator(self.LIBRARY[name])
        chi = char_of_state(self.LIBRARY[name])
        assert chi.grid == _full_sample_grid(evaluator)
        assert np.array_equal(chi.values, chi.grid.sample(evaluator))

    @pytest.mark.parametrize("name", list(FIG4_VARIANTS))
    def test_fig4_output(self, name, fig4_runs):
        chi, evaluator = fig4_runs[name]
        assert chi.grid == _full_sample_grid(evaluator)

    def test_probes_read_the_sampled_edges(self, fig4_chi):
        assert fig4_chi.grid.edge_magnitudes(fig4_chi.evaluator) == fig4_chi.edge_magnitudes()

    def test_samples_the_chosen_grid_once(self, monkeypatch):
        sampled = []
        sample = CharGrid.sample
        monkeypatch.setattr(CharGrid, "sample", lambda g, ev: sampled.append(g) or sample(g, ev))
        chi = char_of_state(squeezed_state(0.8, 60))
        assert chi.grid.im_extent > 2.0 * chi.grid.extent
        assert sampled == [chi.grid]


def _refined(grid, extent_scale=1.0):
    """``grid`` at half its spacing, its extents scaled by ``extent_scale``."""
    h = 0.5 * grid.spacing
    re_half, im_half = (round(e * extent_scale / h) for e in (grid.extent, grid.im_extent))
    return CharGrid(re_half * h, 2 * re_half + 1, im_half * h, 2 * im_half + 1)


def _clamped(raw):
    """``fock_from_char``'s Hermitize and clamp of a lower triangle, before
    the renormalisation."""
    rho = raw + np.tril(raw, -1).conj().T
    rho = 0.5 * (rho + rho.conj().T)
    eigvals, eigvecs = np.linalg.eigh(rho)
    return (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.conj().T


def _reconstructed(chi, dim):
    """``fock_from_char(chi, dim)`` under ``np.errstate(all="raise")``, its
    trace warning kept quiet."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "fock_from_char: dim")
        return fock_from_char(chi, dim).rho


class TestGaussianSumFock:
    """``fock_from_char`` of an input whose chi is a sum of Gaussians is
    exact: a fold of the same output chi at half the spacing, on a grid
    grown 1.5x past where chi has decayed, and the Fock-circuit oracle are
    its oracles."""

    STATES = {
        "vacuum": vacuum_state(60),
        "coherent": coherent_state(2.0, 60),
        "coherent-complex": coherent_state(2.0 + 1.0j, 60),
        "squeezed-0.5": squeezed_state(0.5, 60),
        "squeezed-minus-0.5": squeezed_state(-0.5, 60),
        "squeezed-0.8": squeezed_state(0.8, 60),
        "squeezed-minus-0.8": squeezed_state(-0.8, 60),
        "cat": even_cat_state(2.5, 60),
        "cat-complex": even_cat_state(2.0 + 1.0j, 60),
    }
    CHANNELS = ("identity", "squeezer", "fig4", "fig4-mirror")

    @staticmethod
    def _channel(state, name, fig4_chi):
        evaluator = state_evaluator(state)
        if name == "identity":
            return evaluator
        if name == "squeezer":
            return output_channel(OutputDecomposition(np.cosh(0.9), np.sinh(0.9), 0.0, 0.0, 0.0),
                                  evaluator)
        fig4 = GaussianChannel(evaluator.base, fig4_chi.evaluator.X, fig4_chi.evaluator.Y)
        return fig4 if name == "fig4" else fig4.then(-np.eye(2))

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("name", list(STATES))
    def test_matches_refined_fold(self, name, channel, fig4_chi):
        dim = 20
        evaluator = self._channel(self.STATES[name], channel, fig4_chi)
        chi = _auto_grid(evaluator, "test")
        fine = _refined(chi.grid, 1.5)
        folded = full_plane_fock_fold(CharFunction(fine, fine.sample(evaluator), evaluator), dim)
        with np.errstate(all="raise"):
            raw = _gaussian_sum_fock(evaluator, dim)
        assert np.abs(raw - folded).max() <= 1e-13
        want = _clamped(folded)
        rho = _reconstructed(chi, dim)
        assert np.abs(rho * np.trace(want).real - want).max() <= 1e-13

    def test_matches_circuit_oracle(self):
        # Inputs and circuits weak enough that the oracle's dim-20 truncation
        # stays below 2e-10 on the 8 x 8 block compared.
        from pulse_squeeze.decomposition import reconstruct_row

        dim, block = 20, 8
        quiet = dict.fromkeys(("theta1", "phi1", "theta2", "phi2", "theta3", "phi3", "r2"), 0.0)
        circuits = {
            "identity": dict(quiet, r1=0.0),
            "squeezer": dict(quiet, r1=0.2),
            "generic": {"theta1": 0.7, "phi1": 0.4, "theta2": 0.5, "phi2": -1.1, "theta3": 0.3,
                        "phi3": 2.0, "r1": 0.2, "r2": -0.1, "phi_k": 0.6, "phi_u": -0.8},
        }
        states = [vacuum_state(dim), coherent_state(0.6, dim), coherent_state(0.5 - 0.3j, dim),
                  squeezed_state(0.2, dim), squeezed_state(-0.2, dim),
                  even_cat_state(0.8, dim), even_cat_state(0.7 + 0.4j, dim)]
        for circuit, params in circuits.items():
            row = OutputDecomposition(*reconstruct_row(params))
            for state in states:
                oracle = three_mode_output_state(params, state.rho, dim).rho[:block, :block]
                evaluator = output_channel(row, state_evaluator(state))
                with np.errstate(all="raise"):
                    raw = _gaussian_sum_fock(evaluator, dim)
                got = (raw + np.tril(raw, -1).conj().T)[:block, :block]
                tol = 1e-14 if circuit == "identity" else 2e-10
                assert np.abs(got - oracle).max() <= tol, circuit

    def test_displaced_output_does_not_alias(self, fig4_runs):
        # A coherent alpha = 4.5 input leaves fig4's output chi oscillating
        # near the grid's Nyquist rate: the fold on the grid _auto_grid sizes
        # (decayed below 1e-6 at its edges) was 8.5e-7 off in rho and
        # captured trace 1.31e-5 at dim 60, against the exact 6.71e-6.
        chi, _ = fig4_runs["coherent-4.5"]
        assert chi.boundary_magnitude() < BOUNDARY_TOL
        fine = _refined(chi.grid)
        want = _clamped(full_plane_fock_fold(
            CharFunction(fine, fine.sample(chi.evaluator), chi.evaluator), 60))
        assert np.trace(want).real == pytest.approx(6.70625e-6, rel=1e-6)
        rho = _reconstructed(chi, 60)
        assert np.abs(rho * np.trace(want).real - want).max() <= 1e-13

    def test_terms_give_the_factors(self):
        rng = np.random.default_rng(11)
        u, v = rng.normal(size=(2, 200)) * 3.0
        for name, state in self.STATES.items():
            terms = state.char_eval.terms
            assert len(terms) == (4 if name.startswith("cat") else 1)
            got = sum(np.exp(t.log_c - 0.5 * t.a * u * u + t.p * u - 0.5 * t.a2 * v * v + t.q * v)
                      for t in terms)
            assert _close(got, state.char_eval(u, v), 1e-14), name

    def test_fold_runs_only_without_terms(self, grid, u_mode, monkeypatch):
        from pulse_squeeze import charfun

        folded, fold = [], charfun._fock_fold
        monkeypatch.setattr(charfun, "_fock_fold",
                            lambda chi, dim: folded.append(dim) or fold(chi, dim))
        for state in self.STATES.values():
            _reconstructed(char_of_state(state), 10)
        assert folded == []
        mixed = np.diag([0.5, 0.3, 0.2]).astype(complex)
        mixed[0, 1] = mixed[1, 0] = 0.1
        for state in (fock_state(1, 20), fock_state(2, 20), QuantumState(mixed)):
            assert not getattr(state_evaluator(state).base, "terms", ())
            chi = TestRectangularGrid._squeezed_output(grid, u_mode, state, r=0.4)
            _reconstructed(chi, 10)
        assert folded == [10, 10, 10]
