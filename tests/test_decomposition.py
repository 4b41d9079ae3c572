import numpy as np
import pytest

from pulse_squeeze.charfun import fock_from_char, propagate_char
from pulse_squeeze.coherence import input_moments, seeded_vacuum_split
from pulse_squeeze.decomposition import (
    FAMILY_POINTS,
    OutputDecomposition,
    _family,
    _KEYS,
    bloch_messiah_params,
    decompose_output_mode,
    reconstruct_row,
)
from pulse_squeeze.devices import (
    GaussianPump,
    OpaParams,
    OpoParams,
    build_opa,
    build_opo,
    default_opo_grid,
)
from pulse_squeeze.grids import ModeFunction, TemporalGrid, gaussian_mode
from pulse_squeeze.kernels import apply_to_mode, ideal_squeezer_kernels, identity_kernels
from pulse_squeeze.states import QuantumState, coherent_state, destroy, fock_state

from conftest import pullback_rows, random_mode, reference_rotated_chi
from fockspace import three_mode_output_state


class TestDecomposeOutputMode:
    def test_identity(self, grid, u_mode):
        d = decompose_output_mode(identity_kernels(grid), u_mode, u_mode)
        assert d.A == pytest.approx(1.0, abs=1e-10)
        assert d.B == 0.0
        assert d.C == 0.0
        assert d.D == 0.0
        assert d.E == 0.0

    def test_ideal_squeezer_recovers_single_mode_form(self, grid, u_mode):
        r = 0.9
        d = decompose_output_mode(ideal_squeezer_kernels(grid, u_mode, r), u_mode, u_mode)
        assert d.A == pytest.approx(np.cosh(r), abs=1e-9)
        assert d.B == pytest.approx(np.sinh(r), abs=1e-9)
        assert abs(d.C) == 0.0
        assert d.D == pytest.approx(0.0, abs=1e-9)
        assert d.E == pytest.approx(0.0, abs=2e-5)  # f || u up to round-off

    def test_commutator_identity_on_device_modes(self, grid, u_mode, opo_kernels):
        sp = seeded_vacuum_split(opo_kernels, *apply_to_mode(opo_kernels, u_mode),
                                 input_moments(fock_state(1, 30)))
        for _, v in sp.seeded:
            d = decompose_output_mode(opo_kernels, u_mode, v)
            assert d.commutator() == pytest.approx(1.0, abs=1e-6)

    def test_commutator_identity_random_modes(self, grid, u_mode, opo_kernels):
        rng = np.random.default_rng(0)
        for _ in range(6):
            v = random_mode(grid, rng, envelope_center=rng.uniform(-1, 4))
            d = decompose_output_mode(opo_kernels, u_mode, v)
            assert d.commutator() == pytest.approx(1.0, abs=1e-6)

    def test_dispersive_case_zeroes_squeeze_ports(self, grid, u_mode):
        k = build_opo(OpoParams(0.5, 1.0, GaussianPump(0.0, 0.0, 0.5)), grid)
        rng = np.random.default_rng(1)
        v = random_mode(grid, rng)
        d = decompose_output_mode(k, u_mode, v)
        assert d.B == 0.0
        assert d.C == 0.0
        assert d.D == 0.0
        assert abs(d.A) ** 2 + d.E**2 == pytest.approx(1.0, abs=1e-9)

    def test_mode_phases_leave_d_e_real(self, grid, u_mode, opo_kernels):
        rng = np.random.default_rng(2)
        v = random_mode(grid, rng)
        d = decompose_output_mode(opo_kernels, u_mode, v)
        assert isinstance(d.D, float) and d.D >= 0.0
        assert isinstance(d.E, float) and d.E >= 0.0

    @pytest.mark.parametrize("psi", [0.3, -2.0, np.pi])
    def test_rephased_row_is_the_rephased_mode(self, grid, u_mode, opo_kernels, psi):
        # e^{i psi} a_v is the operator of the mode v e^{-i psi}, and its chi is
        # the output chi turned by -psi
        v = random_mode(grid, np.random.default_rng(3), 1.0, 2.0)
        d = decompose_output_mode(opo_kernels, u_mode, v)
        turned = ModeFunction(grid, v.amplitudes * np.exp(-1j * psi))
        rephased = d.rephased(psi)
        direct = decompose_output_mode(opo_kernels, u_mode, turned)
        assert np.abs(rephased.row - direct.row).max() < 1e-12
        assert isinstance(rephased.D, float) and isinstance(rephased.E, float)
        assert rephased.commutator() == pytest.approx(d.commutator(), abs=1e-14)
        state = coherent_state(0.8 + 0.4j, 30)
        oracle = reference_rotated_chi(propagate_char(d, state), -psi)
        chi = propagate_char(rephased, state)
        assert chi.grid == oracle.grid
        assert np.abs(chi.values - oracle.values).max() < 1e-13

    @pytest.mark.parametrize("device", ["identity", "squeezer", "dispersive", "opo", "opa"])
    def test_matches_joint_pullback(self, device, grid, u_mode, opo_kernels, freq_grid):
        # The five coefficients are the one-mode pullback row over {u, k, s}:
        # A and B are its u entries, and C, D, E carry the rest of P and Q.
        # Those three identities hold only if k and s are orthonormal and
        # orthogonal to u.
        u = u_mode
        if device == "identity":
            k = identity_kernels(grid)
        elif device == "squeezer":
            k = ideal_squeezer_kernels(grid, u_mode, 0.9)
        elif device == "dispersive":
            k = build_opo(OpoParams(0.5, 1.0, GaussianPump(0.0, 0.0, 0.5)), grid)
        elif device == "opo":
            k = opo_kernels
        else:
            k = build_opa(OpaParams(0.4, 0.3, 2.0), freq_grid)
            u = gaussian_mode(freq_grid, 0.0, 1.0)
        rng = np.random.default_rng(8)
        for _ in range(3):
            v = random_mode(k.grid, rng, 0.0, 2.0)
            d = decompose_output_mode(k, u, v)
            _modes, P, Q = pullback_rows(k, [v], u)
            p, q = P[0, 1:], Q[0, 1:]
            assert abs(d.A - P[0, 0]) < 1e-12
            assert abs(d.B - Q[0, 0]) < 1e-12
            assert abs(abs(d.C) ** 2 + d.E**2 - np.sum(np.abs(p) ** 2)) < 1e-12
            assert abs(d.D**2 - np.sum(np.abs(q) ** 2)) < 1e-12
            assert abs(d.C * d.D - np.sum(p * q)) < 1e-12


class TestBlochMessiahParams:
    def test_identity_all_zero(self, grid, u_mode):
        d = decompose_output_mode(identity_kernels(grid), u_mode, u_mode)
        p = bloch_messiah_params(d)
        for key in ("theta1", "theta2", "theta3", "r1", "r2"):
            assert p[key] == pytest.approx(0.0, abs=1e-9)
        assert p["residual"] < 1e-9

    def test_ideal_squeezer_parameters(self, grid, u_mode):
        d = decompose_output_mode(ideal_squeezer_kernels(grid, u_mode, 1.2), u_mode, u_mode)
        p = bloch_messiah_params(d)
        assert p["r1"] == pytest.approx(1.2, abs=1e-8)
        assert abs(p["r2"]) < 1e-8
        assert p["residual"] < 1e-8

    def test_random_device_rows_reconstruct(self, grid, u_mode, opo_kernels):
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = random_mode(grid, rng, envelope_center=rng.uniform(0, 3))
            d = decompose_output_mode(opo_kernels, u_mode, v)
            p = bloch_messiah_params(d)
            assert p["residual"] < 1e-8
            assert np.abs(reconstruct_row(p) - d.row).max() < 1e-8

    def test_dispersive_flagged_degenerate(self, grid, u_mode):
        k = build_opo(OpoParams(0.5, 1.0, GaussianPump(0.0, 0.0, 0.5)), grid)
        rng = np.random.default_rng(5)
        d = decompose_output_mode(k, u_mode, random_mode(grid, rng))
        p = bloch_messiah_params(d)
        assert p["degenerate"]
        assert abs(p["r2"]) < 1e-9
        assert p["residual"] < 1e-8

    def test_rejects_row_beyond_last_beam_splitter(self, freq_grid):
        # The last beam splitter carries E = sin(theta3), so |E| > 1 has no circuit.
        k = build_opa(OpaParams(0.4, 0.0, 2.0), freq_grid)
        v = random_mode(freq_grid, np.random.default_rng(0))
        d = decompose_output_mode(k, gaussian_mode(freq_grid, 0.0, 1.0), v)
        assert d.E > 1.0
        with pytest.raises(ValueError, match=r"\|E\| = 1\.09"):
            bloch_messiah_params(d)

    def test_device_rows_fit_to_round_off_at_least_squeezing(self):
        # Seeded and vacuum-ladder modes plus random modes of two OPOs and two
        # OPAs, squeezing up to r of about 3.  Each fit reproduces its row and
        # squeezes no more than the least-squeezed point of its solution family.
        grid = default_opo_grid(1.0, 256)
        fgrid = TemporalGrid(-8.0, 8.0, 128)
        devices = [
            (build_opo(OpoParams(0.2, 1.0, GaussianPump(1.2, 0.0, 0.3)), grid),
             gaussian_mode(grid, 0.0, 1.0)),
            (build_opo(OpoParams(-0.3, 1.0, GaussianPump(1.6, 0.0, 0.5)), grid),
             gaussian_mode(grid, -0.5, 1.0)),
            (build_opa(OpaParams(0.3, 0.2, 2.0), fgrid), gaussian_mode(fgrid, 0.0, 1.0)),
            (build_opa(OpaParams(0.4, 0.0, 2.0), fgrid), gaussian_mode(fgrid, 0.0, 1.0)),
        ]
        rng = np.random.default_rng(9)
        fits = []
        for k, u in devices:
            sp = seeded_vacuum_split(k, *apply_to_mode(k, u), input_moments(fock_state(1, 10)))
            vs = [mode for _, mode in sp.seeded[:2] + sp.vacuum[:2]]
            vs += [random_mode(k.grid, rng, 0.0, 2.0) for _ in range(3)]
            for v in vs:
                d = decompose_output_mode(k, u, v)
                if d.E <= 1.0:
                    fits.append((d, bloch_messiah_params(d)))
        assert len(fits) >= 20
        assert max(max(abs(p["r1"]), abs(p["r2"])) for _, p in fits) > 2.5
        for d, p in fits:
            assert np.abs(reconstruct_row(p) - d.row).max() <= 1e-12
            target = d.row[:4] / np.cos(p["theta3"])
            family = _family(target[[0, 2]], target[[1, 3]], _circle(FAMILY_POINTS))
            least = np.nanmin(family[:, 4] ** 2 + family[:, 5] ** 2)
            assert abs(p["r1"] ** 2 + p["r2"] ** 2 - least) <= 1e-3 * least

    @pytest.mark.parametrize("theta2", [0.0, np.pi / 2])
    def test_squeezer_outside_the_row_is_left_at_zero(self, theta2):
        # theta2 = 0 hides the k squeezer from the row, theta2 = pi/2 the u
        # squeezer: the fit sets the hidden one to 0 and keeps the other.
        rng = np.random.default_rng(12)
        hidden, kept = ("r2", "r1") if theta2 == 0.0 else ("r1", "r2")
        for _ in range(5):
            params, d = _random_circuit(rng, theta2=theta2)
            p = bloch_messiah_params(d)
            assert np.abs(reconstruct_row(p) - d.row).max() <= 1e-12
            assert abs(p[hidden]) < 1e-9
            assert abs(abs(p[kept]) - abs(params[kept])) < 1e-9

    def test_no_circuit_squeezes_less_than_the_fit(self):
        # Rows made by random circuits: the fit reproduces each one and its
        # r1^2 + r2^2 never exceeds that of the circuit that made the row.
        rng = np.random.default_rng(11)
        for _ in range(40):
            params, d = _random_circuit(rng)
            p = bloch_messiah_params(d)
            assert np.abs(reconstruct_row(p) - d.row).max() <= 1e-12
            assert p["r1"] ** 2 + p["r2"] ** 2 <= (params["r1"] ** 2 + params["r2"] ** 2) * (1 + 1e-3)

    def test_least_squeezed_point_of_narrow_and_near_degenerate_rows(self):
        # Rows whose least-squeezed point hides from the FAMILY_POINTS even
        # angles: six of circuits with r1, r2 up to 2.5 (row 980 has 8 of
        # the angles on its one narrow arc; on row 748, theta2 near 0, r1
        # sweeps through 0 within 3e-4 rad of an arc end) and one of an OPO
        # with |E| = 0.9997 (21 angles on its arc).  Each fit reproduces its
        # row and squeezes no more than the circuit that made it, nor than
        # the least of 72,000 points of its circle.
        rng = np.random.default_rng(0)
        rows = [_random_circuit(rng, r_max=2.5) for _ in range(1209)]
        cases = [(d, params["r1"] ** 2 + params["r2"] ** 2)
                 for params, d in (rows[i] for i in (45, 748, 931, 980, 1173, 1208))]
        grid = default_opo_grid(1.0, 256)
        rng = np.random.default_rng(1)
        for _ in range(34):
            v = random_mode(grid, rng, rng.uniform(-2.0, 8.0), rng.uniform(0.3, 3.0))
        k = build_opo(OpoParams(0.2, 1.0, GaussianPump(1.2, 0.0, 0.3)), grid)
        d = decompose_output_mode(k, gaussian_mode(grid, 0.0, 1.0), v)
        assert 0.999 < d.E < 1.0
        cases.append((d, np.inf))  # no circuit made this row
        for d, circuit in cases:
            p = bloch_messiah_params(d)
            assert np.abs(reconstruct_row(p) - d.row).max() <= 1e-12
            weight = p["r1"] ** 2 + p["r2"] ** 2
            assert weight <= circuit * (1 + 1e-3)
            target = d.row[:4] / np.cos(p["theta3"])
            family = _family(target[[0, 2]], target[[1, 3]], _circle(72000))
            assert weight <= np.nanmin(family[:, 4] ** 2 + family[:, 5] ** 2) * (1 + 1e-4)


def _random_circuit(rng, r_max=1.5, **fixed):
    """Random circuit parameters, with ``fixed`` overriding, and the row they make."""
    params = dict(zip(_KEYS, rng.uniform(-np.pi, np.pi, 8)), theta3=rng.uniform(0.0, 1.2), phi3=0.0)
    params.update(r1=rng.uniform(-r_max, r_max), r2=rng.uniform(-r_max, r_max), **fixed)
    row = reconstruct_row(params)
    return params, OutputDecomposition(*row[:4], row[4].real)


def _circle(points):
    """``points`` even angles around the solution circle."""
    return 2.0 * np.pi * np.arange(points) / points


class TestFockSpaceOracle:
    def test_char_propagation_matches_circuit(self, grid, u_mode):
        # one weak decomposition, compared at dim 8 with oracle headroom
        k = build_opo(OpoParams(0.1, 1.0, GaussianPump(0.3, 0.0, 0.4)), grid)
        sp = seeded_vacuum_split(k, *apply_to_mode(k, u_mode), input_moments(fock_state(1, 20)))
        d = decompose_output_mode(k, u_mode, sp.seeded[0][1])
        p = bloch_messiah_params(d)
        assert p["residual"] < 1e-8

        dim = 8
        rng = np.random.default_rng(6)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        pure = np.zeros((dim, dim), complex)
        pure[:3, :3] = np.outer(psi, psi.conj())
        # the mixed input goes through the oracle as one ket per eigenvector
        mixed = 0.7 * pure
        mixed[1, 1] += 0.3

        for rho_u in (pure, mixed):
            oracle = three_mode_output_state(p, np.pad(rho_u, ((0, 12), (0, 12))), 20)
            chi_out = propagate_char(d, QuantumState(rho_u))
            rec = fock_from_char(chi_out, dim)
            block = oracle.rho[:dim, :dim]
            block = block / np.real(np.trace(block))
            dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rec.rho - block)))
            assert dist < 1e-4

    def test_oracle_matches_heisenberg_moments(self):
        # a_out = A a + B a^dag + C a_k + D a_k^dag + E a_s with vacuum ports:
        # <a_out> = A alpha + B alpha* and <a_out^dag a_out> = |<a_out>|^2 + |B|^2 + |D|^2.
        # The squeezing is weak enough that the dim-20 truncation shows at ~1e-13.
        p = {
            "theta1": 0.7, "phi1": 0.4, "theta2": 0.5, "phi2": -1.1,
            "theta3": 0.3, "phi3": 2.0, "r1": 0.2, "r2": -0.1,
            "phi_k": 0.6, "phi_u": -0.8,
        }
        A, B, _C, D, _E = reconstruct_row(p)
        alpha = 0.5 - 0.3j
        dim = 20
        out = three_mode_output_state(p, coherent_state(alpha, dim).rho, dim)
        a = destroy(dim)
        mean = A * alpha + B * np.conj(alpha)
        assert abs(out.expect(a) - mean) < 1e-10
        n_out = abs(mean) ** 2 + abs(B) ** 2 + abs(D) ** 2
        assert abs(out.expect(a.conj().T @ a) - n_out) < 1e-10

    def test_rejects_mis_sized_input(self):
        p = {"theta1": 0.0, "phi1": 0.0, "theta2": 0.0, "phi2": 0.0,
             "theta3": 0.0, "phi3": 0.0, "r1": 0.0, "r2": 0.0}
        with pytest.raises(ValueError):
            three_mode_output_state(p, fock_state(0, 6).rho, 8)
