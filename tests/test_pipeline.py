import numpy as np
import pytest
from conftest import reference_rotated_chi

from pulse_squeeze import charfun, pipeline
from pulse_squeeze.charfun import propagate_char
from pulse_squeeze.config import load_recipe, set_by_path
from pulse_squeeze.decomposition import OutputDecomposition
from pulse_squeeze.devices import GaussianPump, OpoParams, build_opo
from pulse_squeeze.grids import gaussian_mode
from pulse_squeeze.metrics import gaussian_covariance
from pulse_squeeze.pipeline import (
    align_amplified_axis,
    device_from_config,
    grid_from_config,
    input_mode_from_config,
    input_state_from_config,
    run_state_analysis,
)
from pulse_squeeze.states import coherent_state, even_cat_state, fock_state


# Calls counted in a state run; ``_auto_grid`` samples every chi grid.
COUNTED = {"decompose_output_mode": pipeline, "propagate_char": pipeline, "_auto_grid": charfun}
# One decomposition; one chi sampling: the output's.
ONCE = {"decompose_output_mode": 1, "propagate_char": 1, "_auto_grid": 1}


def _run_counted(kernels, u, state):
    """``run_state_analysis`` with its calls of the ``COUNTED`` functions counted."""
    calls = dict.fromkeys(COUNTED, 0)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name, module in COUNTED.items():
            mp.setattr(module, name, counted(name, getattr(module, name)))
        result = run_state_analysis(kernels, u, state)
    return result, calls


@pytest.fixture(scope="module")
def detuned_fig4():
    """fig4 at device.detuning 0.7, where the aligned output state is turned
    by 0.617 rad, run once with its decompositions and propagations counted."""
    cfg = set_by_path(load_recipe("fig4"), "device.detuning", 0.7)
    grid = grid_from_config(cfg["grid"])
    state = input_state_from_config(cfg["input"])
    kernels = device_from_config(cfg["device"], grid)
    result, calls = _run_counted(kernels, input_mode_from_config(cfg["input"], grid), state)
    return result, calls, state


@pytest.fixture(scope="module")
def dispersive(grid):
    return build_opo(OpoParams(0.5, 1.0, GaussianPump(0.0, 0.0, 0.5)), grid)


class TestDispersiveTransport:
    @pytest.mark.parametrize(
        "state",
        [coherent_state(1.5 + 0.4j, 50), even_cat_state(2.0, 50), fock_state(1, 30)],
        ids=["coherent", "cat", "fock1"],
    )
    def test_state_survives_unchanged(self, grid, u_mode, dispersive, state):
        res = run_state_analysis(dispersive, u_mode, state)
        assert res.metrics["best_fidelity"] == pytest.approx(1.0, abs=1e-4)
        assert res.metrics["best_r"] == pytest.approx(0.0, abs=1e-2)
        assert res.metrics["purity"] == pytest.approx(1.0, abs=1e-4)

    def test_seeded_coefficient_anchored_real(self, grid, u_mode, dispersive):
        res = run_state_analysis(dispersive, u_mode, coherent_state(1.0, 40))
        assert np.imag(res.decomposition.A) == pytest.approx(0.0, abs=1e-10)
        assert np.real(res.decomposition.A) > 0

    def test_isotropic_state_decomposed_and_sampled_once(self, grid, u_mode, dispersive):
        res, calls = _run_counted(dispersive, u_mode, coherent_state(1.0, 40))
        assert res.metrics["rotation"] == 0.0  # the near-isotropic branch
        assert calls == ONCE


class TestStateAnalysis:
    def test_squeezer_pipeline_metrics(self, grid, u_mode):
        from pulse_squeeze.kernels import ideal_squeezer_kernels

        k = ideal_squeezer_kernels(grid, u_mode, 0.9)
        res = run_state_analysis(k, u_mode, even_cat_state(1.5, 50))
        assert res.metrics["best_fidelity"] == pytest.approx(1.0, abs=1e-4)
        assert res.metrics["p_gain"] == pytest.approx(np.exp(0.9), rel=2e-2)
        assert res.metrics["commutator"] == pytest.approx(1.0, abs=1e-6)

    def test_fock_reconstruction_requested(self, grid, u_mode, opo_kernels):
        res = run_state_analysis(opo_kernels, u_mode, fock_state(1, 20), fock_dim=24)
        assert res.rho_out is not None
        assert res.rho_out.dim == 24
        assert np.real(np.trace(res.rho_out.rho)) == pytest.approx(1.0, abs=1e-8)

    def test_align_puts_large_variance_first(self, grid, u_mode):
        from pulse_squeeze.states import squeezed_state

        identity_row = OutputDecomposition(1.0, 0.0, 0.0, 0.0, 0.0)
        aligned, _phi = align_amplified_axis(identity_row, squeezed_state(0.7, 50))
        vx, vp, _ = gaussian_covariance(aligned)
        assert vx > vp  # fit family amplifies x in package conventions


class TestLadderHeadInStateRuns:
    @staticmethod
    def _fig4(state=None):
        cfg = load_recipe("fig4")
        if state is not None:
            cfg = set_by_path(cfg, "input.state", state)
        grid = grid_from_config(cfg["grid"])
        return (device_from_config(cfg["device"], grid), input_mode_from_config(cfg["input"], grid),
                input_state_from_config(cfg["input"]))

    @staticmethod
    def _no_full_ladder(monkeypatch):
        from pulse_squeeze import coherence

        def never(*args):
            raise AssertionError("a state run reads only the head of the ladder")

        monkeypatch.setattr(coherence, "_block_ladder", never)
        monkeypatch.setattr(coherence, "_dense_ladder", never)

    def test_seeded_run_solves_only_the_head(self, monkeypatch):
        # fig4's cat feeds the output mode; the ladder gives m1 alone.
        from pulse_squeeze.coherence import ModeSpectrum

        kernels, u, state = self._fig4()
        self._no_full_ladder(monkeypatch)
        result = run_state_analysis(kernels, u, state)
        monkeypatch.undo()
        assert result.spectrum.seeded and "vacuum" not in result.spectrum.__dict__
        full = ModeSpectrum([], 0.0, kernels.vacuum_total, kernels=kernels).vacuum
        assert result.metrics["m1"] == pytest.approx(full[0][0], rel=1e-14)

    @pytest.mark.parametrize("selector, index", [("auto_v1", 0), ("auto_v2", 1)])
    def test_vacuum_seeded_mode_from_head(self, selector, index, monkeypatch):
        from pulse_squeeze.coherence import InputMoments, ModeSpectrum, seeded_vacuum_split
        from pulse_squeeze.grids import inner_product

        kernels, u, _ = self._fig4({"kind": "vacuum", "dim": 60})
        spectrum = seeded_vacuum_split(kernels, u, InputMoments(0.0, 0.0))
        self._no_full_ladder(monkeypatch)
        mode = pipeline.select_output_mode(spectrum, selector)
        monkeypatch.undo()
        assert list(spectrum._heads) == [index + 1]
        full = ModeSpectrum([], 0.0, kernels.vacuum_total, kernels=kernels).vacuum
        assert abs(inner_product(full[index][1], mode)) >= 1 - 1e-13


class TestDetunedFig4:
    def test_decomposed_and_sampled_once(self, detuned_fig4):
        _result, calls, _state = detuned_fig4
        assert calls == ONCE

    def test_aligned_chi_matches_rotate_then_sample(self, detuned_fig4):
        result, _calls, state = detuned_fig4
        # the parent path: sample the output chi, take its principal axis,
        # then rotate the sampled chi's evaluator and sample it again
        sampled = propagate_char(result.decomposition, state)
        vx, vp, c = gaussian_covariance(sampled)
        theta = 0.5 * np.arctan2(2.0 * c, vx - vp)
        assert theta > 0.5  # a real rotation, unlike fig4's own
        assert abs(result.metrics["rotation"] - theta) < 1e-12
        oracle = reference_rotated_chi(sampled, theta)
        assert result.chi_out.grid == oracle.grid
        scale = np.abs(oracle.values).max()
        assert np.abs(result.chi_out.values - oracle.values).max() < 1e-13 * scale


class TestAlignAmplifiedAxis:
    @staticmethod
    def _through_squeezer(grid, u_mode, r):
        """The squeezer's row."""
        from pulse_squeeze.decomposition import decompose_output_mode
        from pulse_squeeze.kernels import ideal_squeezer_kernels

        d = decompose_output_mode(ideal_squeezer_kernels(grid, u_mode, r), u_mode, u_mode)
        return d

    @staticmethod
    def _principal_angle(chi):
        vx, vp, c = gaussian_covariance(chi)
        return 0.5 * np.arctan2(2.0 * c, vx - vp)

    @pytest.mark.parametrize("r", [0.6, 0.9, 1.3])
    def test_parity_tie_keeps_theta(self, grid, u_mode, r):
        # The even cat is parity symmetric: theta and theta + pi score alike
        # up to round-off, and the tie goes to theta.
        cat = even_cat_state(2.0, 50)
        d = self._through_squeezer(grid, u_mode, r)
        aligned, phi = align_amplified_axis(d, cat)
        assert phi == self._principal_angle(propagate_char(d, cat))
        assert abs(phi) < 1e-6

    def test_mirror_candidate_wins_when_better(self, grid, u_mode):
        state = coherent_state(1.0 + 0.3j, 40)
        d = self._through_squeezer(grid, u_mode, 0.9)
        chi = propagate_char(d, state)
        flipped_row = d.rephased(-np.pi)  # the output state turned by pi
        flipped = propagate_char(flipped_row, state)
        aligned, phi = align_amplified_axis(flipped_row, state)
        assert phi == pytest.approx(self._principal_angle(flipped) + np.pi, abs=1e-12)
        assert abs(phi - np.pi) < 1e-6
        # aligning undoes the flip, up to the covariance estimate of theta
        beta = chi.grid.mesh()[::9, ::9]
        assert np.abs(aligned(beta) - chi(beta)).max() < 1e-4
        assert np.abs(flipped(beta) - chi(beta)).max() > 0.5
        # the unflipped state keeps theta
        assert abs(align_amplified_axis(d, state)[1]) < 1e-6


class TestDeviceDispatch:
    def test_grid_and_device_from_config(self):
        grid = grid_from_config({"t_start": -10.0, "t_end": 30.0, "n_points": 64})
        for cfg in (
            {"kind": "identity"},
            {"kind": "squeezer", "r": 0.5},
            {"kind": "opo", "detuning": 0.0, "decay": 1.0,
             "pump": {"area": 0.5, "center": 0.0, "width": 0.5}},
            {"kind": "twpa", "n_stages": 2, "total_gain": 0.1,
             "stage": {"detuning": 0.0, "decay": 1.0,
                       "pump": {"area": 0.05, "center": 0.0, "width": 0.3}}},
        ):
            k = device_from_config(cfg, grid)
            assert k.grid == grid

    def test_unknown_device_rejected(self):
        grid = grid_from_config({"t_start": -2.0, "t_end": 2.0, "n_points": 16})
        with pytest.raises(ValueError, match="unknown device"):
            device_from_config({"kind": "wormhole"}, grid)
