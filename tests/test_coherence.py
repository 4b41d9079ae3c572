import numpy as np
import pytest

from pulse_squeeze.coherence import (
    OCCUPATION_CUT,
    InputMoments,
    g1_total,
    input_moments,
    occupation_ratio,
    seeded_vacuum_split,
    single_mode_condition,
    vacuum_kernel,
)
from pulse_squeeze.grids import ModeFunction, inner_product
from pulse_squeeze.kernels import apply_to_mode, ideal_squeezer_kernels, identity_kernels
from pulse_squeeze.states import (
    QuantumState,
    coherent_state,
    even_cat_state,
    fock_state,
    squeezed_state,
)

from conftest import eigendecompose


class TestInputMoments:
    def test_coherent(self):
        m = input_moments(coherent_state(2.0, 60))
        assert m.n == pytest.approx(4.0, abs=1e-10)
        assert m.m == pytest.approx(4.0, abs=1e-10)

    def test_fock_one(self):
        m = input_moments(fock_state(1, 30))
        assert m.n == pytest.approx(1.0)
        assert m.m == 0.0

    def test_even_cat(self):
        m = input_moments(even_cat_state(2.5, 60))
        assert m.n == pytest.approx(6.25 * np.tanh(6.25), abs=1e-9)
        assert m.m == pytest.approx(6.25, abs=1e-9)

    def test_truncation_warning(self):
        # coherent alpha=2 in a 7-level space leaves real weight at the top
        rho = np.abs(coherent_state(2.0, 40).rho[:7, :7])
        rho = rho / np.trace(rho)
        with pytest.warns(UserWarning, match="truncation"):
            input_moments(QuantumState(rho))

    def test_uncertainty_bound_enforced(self):
        with pytest.raises(ValueError, match="uncertainty"):
            InputMoments(n=1.0, m=2.0 + 0.0j)


class TestG1Total:
    def test_identity_device(self, grid, u_mode):
        m = input_moments(coherent_state(1.5, 40))
        g1 = g1_total(identity_kernels(grid), u_mode, m)
        pairs = eigendecompose(g1)
        assert pairs[0][0] == pytest.approx(m.n, rel=1e-9)
        assert pairs[1][0] == pytest.approx(0.0, abs=1e-9)
        assert abs(inner_product(pairs[0][1], u_mode)) == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_input_leaves_vacuum_term(self, grid, u_mode, opo_kernels):
        g1 = g1_total(opo_kernels, u_mode, InputMoments(0.0, 0.0))
        vac = vacuum_kernel(opo_kernels)
        assert np.abs(g1.entries - vac.entries).max() < 1e-12 * np.abs(vac.entries).max()

    def test_squeezer_photon_bookkeeping(self, grid, u_mode):
        r = 0.8
        k = ideal_squeezer_kernels(grid, u_mode, r)
        g1 = g1_total(k, u_mode, input_moments(fock_state(1, 30)))
        expected = np.cosh(r) ** 2 + 2 * np.sinh(r) ** 2
        assert g1.trace() == pytest.approx(expected, rel=1e-9)

    def test_positive_semidefinite(self, grid, u_mode, opo_kernels):
        rng = np.random.default_rng(0)
        for _ in range(3):
            n = rng.uniform(0, 4)
            m = rng.uniform(0, 1) * np.sqrt(n * (n + 1)) * np.exp(2j * np.pi * rng.random())
            g1 = g1_total(opo_kernels, u_mode, InputMoments(n, m))
            vals = np.linalg.eigvalsh(g1.entries)
            assert vals.min() > -1e-8 * vals.max()

    def test_linear_in_moments(self, grid, u_mode, opo_kernels):
        rng = np.random.default_rng(1)
        base = g1_total(opo_kernels, u_mode, InputMoments(0.0, 0.0)).entries
        n1, n2 = rng.uniform(0.2, 2, size=2)
        m1 = 0.5 * np.sqrt(n1 * (n1 + 1)) * np.exp(2j * np.pi * rng.random())
        m2 = 0.5 * np.sqrt(n2 * (n2 + 1)) * np.exp(2j * np.pi * rng.random())
        g_a = g1_total(opo_kernels, u_mode, InputMoments(n1, m1)).entries - base
        g_b = g1_total(opo_kernels, u_mode, InputMoments(n2, m2)).entries - base
        g_sum = g1_total(opo_kernels, u_mode, InputMoments(n1 + n2, m1 + m2)).entries - base
        assert np.abs(g_sum - g_a - g_b).max() < 1e-10 * np.abs(g_sum).max()


class TestSeededVacuumSplit:
    def test_coherent_feeds_one_mode(self, grid, u_mode, opo_kernels):
        sp = seeded_vacuum_split(opo_kernels, *apply_to_mode(opo_kernels, u_mode),
                                 input_moments(coherent_state(1.5, 40)))
        assert len(sp.seeded) == 1

    def test_fock_feeds_two_modes(self, grid, u_mode, opo_kernels):
        sp = seeded_vacuum_split(opo_kernels, *apply_to_mode(opo_kernels, u_mode),
                                 input_moments(fock_state(1, 30)))
        assert len(sp.seeded) == 2

    def test_vacuum_feeds_none(self, grid, u_mode, opo_kernels):
        sp = seeded_vacuum_split(opo_kernels, *apply_to_mode(opo_kernels, u_mode),
                                 InputMoments(0.0, 0.0))
        assert sp.seeded == []
        assert sp.vacuum_total > 0

    def test_rank_at_most_two(self, grid, u_mode, opo_kernels):
        rng = np.random.default_rng(2)
        dt = grid.dt
        for _ in range(5):
            n = rng.uniform(0.1, 5)
            m = rng.uniform(0, 1) * np.sqrt(n * (n + 1)) * np.exp(2j * np.pi * rng.random())
            g1 = g1_total(opo_kernels, u_mode, InputMoments(n, m))
            seeded = g1.entries - vacuum_kernel(opo_kernels).entries
            vals = np.sort(np.abs(np.linalg.eigvalsh(dt * seeded)))[::-1]
            assert vals[2] < 1e-8 * vals[0]

    def test_trace_consistency(self, grid, u_mode, opo_kernels):
        m = input_moments(fock_state(1, 30))
        g1 = g1_total(opo_kernels, u_mode, m)
        sp = seeded_vacuum_split(opo_kernels, *apply_to_mode(opo_kernels, u_mode), m)
        total = sp.seeded_total + sp.vacuum_total
        assert total == pytest.approx(g1.trace(), rel=1e-6)

    def test_seeded_modes_orthonormal(self, grid, u_mode, opo_kernels):
        sp = seeded_vacuum_split(opo_kernels, *apply_to_mode(opo_kernels, u_mode),
                                 input_moments(fock_state(1, 30)))
        v1, v2 = sp.seeded[0][1], sp.seeded[1][1]
        assert abs(inner_product(v1, v1)) == pytest.approx(1.0, abs=1e-9)
        assert abs(inner_product(v1, v2)) < 1e-9

    def test_matches_dense_oracle(self, grid, u_mode, opo_kernels):
        # Dense oracle: diagonalize the n x n seeded part g1 - vacuum directly.
        rng = np.random.default_rng(4)
        psi = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = np.zeros((12, 12), complex)
        rho[:6, :6] = psi @ psi.conj().T
        cases = [
            (opo_kernels, input_moments(coherent_state(1.5, 40))),
            (opo_kernels, input_moments(fock_state(1, 30))),
            (opo_kernels, input_moments(QuantumState(rho / np.trace(rho)))),
            # |m| slightly above n: the seeded part dips just below zero
            (opo_kernels, input_moments(even_cat_state(2.5, 60))),
            (opo_kernels, InputMoments(0.0, 0.0)),
            (identity_kernels(grid), input_moments(fock_state(1, 30))),
        ]
        dt = grid.dt
        for k, moments in cases:
            g1 = g1_total(k, u_mode, moments)
            cut = OCCUPATION_CUT * g1.trace()
            vals, vecs = np.linalg.eigh(dt * (g1.entries - vacuum_kernel(k).entries).T)
            vals, vecs = vals[::-1], vecs[:, ::-1] / np.sqrt(dt)
            sp = seeded_vacuum_split(k, *apply_to_mode(k, u_mode), moments)
            assert len(sp.seeded) == np.count_nonzero(vals > cut)
            for (lam, v), lam_dense, vec in zip(sp.seeded, vals, vecs.T):
                assert abs(lam - lam_dense) <= 1e-12 * vals[0]
                assert abs(inner_product(v, ModeFunction(grid, vec))) >= 1 - 1e-9

    def test_squeezed_input_raises(self, u_mode, opo_kernels):
        # |m| > n: the seeded part is indefinite, not a coherence function
        with pytest.raises(ValueError, match="negative eigenvalue"):
            seeded_vacuum_split(opo_kernels, *apply_to_mode(opo_kernels, u_mode),
                                input_moments(squeezed_state(0.6, 40)))



class TestBlockImages:
    """A sweep's device group takes its pulses' images in one block
    (``apply_to_block``); each column splits as one pulse's images from
    ``apply_to_mode`` do: bit for bit on a resonant cavity's FFT products,
    within 1e-13 on dense kernels (1e-12 for the mode shapes), whose one
    matrix product sums in another order."""

    @pytest.fixture(scope="class")
    def devices(self, grid, opo_kernels, freq_grid):
        from pulse_squeeze.devices import GaussianPump, OpaParams, OpoParams, build_opa, build_opo

        resonant = build_opo(OpoParams(0.0, 1.0, GaussianPump(1.5, 0.0, 0.1)), grid)
        return {"resonant opo": (resonant, 0.0), "detuned opo": (opo_kernels, 1e-13),
                "opa": (build_opa(OpaParams(0.5, 1.0, 2.0), freq_grid), 1e-13)}

    @pytest.mark.parametrize("name", ["resonant opo", "detuned opo", "opa"])
    def test_columns_split_as_one_pulse(self, devices, name):
        from pulse_squeeze.grids import gaussian_mode
        from pulse_squeeze.kernels import CirculantKernels, apply_to_block

        k, rtol = devices[name]
        assert isinstance(k, CirculantKernels) == (rtol == 0.0)
        pulses = [gaussian_mode(k.grid, center, width)
                  for center in (-3.0, -1.0, 0.0, 0.5) for width in (0.5, 1.0)]
        fu, gu = apply_to_block(k, np.column_stack([u.amplitudes for u in pulses]))
        moments = input_moments(fock_state(1, 30))
        for j, u in enumerate(pulses):
            one = apply_to_mode(k, u)
            for block, image in zip((fu[:, j], gu[:, j]), one):
                assert np.abs(block - image).max() <= rtol * np.abs(image).max()
            got = seeded_vacuum_split(k, fu[:, j], gu[:, j], moments)
            want = seeded_vacuum_split(k, *one, moments)
            assert len(got.seeded) == len(want.seeded) == 2
            for (lam, v), (lam_want, v_want) in zip(got.seeded, want.seeded):
                assert abs(lam - lam_want) <= rtol * lam_want
                # the 2 x 2 eigenvectors take the occupations' round-off
                # over their gap (1.6e-14 of the largest sample on the OPA)
                assert np.abs(v.amplitudes - v_want.amplitudes).max() <= (
                    10 * rtol * np.abs(v_want.amplitudes).max())
            assert got.vacuum_total == want.vacuum_total


class TestVacuumLadder:
    """The ladder's subset solve against the dense oracle: every eigenpair of
    the n x n vacuum kernel, filtered at the cut."""

    @pytest.fixture(scope="class")
    def cases(self, grid, u_mode, opo_kernels, freq_grid):
        from pulse_squeeze.devices import (
            GaussianPump, OpaParams, OpoParams, TwpaParams, build_opa, build_opo, build_twpa)
        from pulse_squeeze.grids import TemporalGrid, gaussian_mode

        twpa_grid = TemporalGrid(-10.0, 30.0, 256)
        twpa = build_twpa(
            TwpaParams(OpoParams(0.0, 1.0, GaussianPump(1.0, 0.0, 0.2)), 20, 0.05), twpa_grid)
        # fig2a at full size, a vacuum-seeded OPO: its ladder keeps 67 pairs
        # at pump width 1.0, and 231 at 4.0, too many for the block solve.
        fig2a_grid = TemporalGrid(-30.0, 50.0, 1024)
        fig2a = {
            f"fig2a-{width}": (build_opo(OpoParams(0.0, 1.0, GaussianPump(1.0, 0.0, width)),
                                         fig2a_grid),
                               gaussian_mode(fig2a_grid, 0.0, 1.0), InputMoments(0.0, 0.0))
            for width in (1.0, 4.0)
        }
        return {
            "opo": (opo_kernels, u_mode, input_moments(fock_state(1, 30))),
            "opo-vacuum": (opo_kernels, u_mode, InputMoments(0.0, 0.0)),
            "opa": (build_opa(OpaParams(0.4, 0.0, 2.0), freq_grid),
                    gaussian_mode(freq_grid, 0.0, 1.0), input_moments(coherent_state(1.5, 40))),
            "twpa-20": (twpa, gaussian_mode(twpa_grid, 0.0, 1.0),
                        input_moments(even_cat_state(2.5, 60))),
            **fig2a,
        }

    @staticmethod
    def spy(monkeypatch, name):
        """Record each call of the coherence module's function ``name``."""
        import pulse_squeeze.coherence as coherence

        calls = []
        real = getattr(coherence, name)

        def spying(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(coherence, name, spying)
        return calls

    def assert_matches_dense(self, sp, monkeypatch):
        cut = OCCUPATION_CUT * sp.total
        dense = eigendecompose(vacuum_kernel(sp.kernels))
        kept = [(lam, mode) for lam, mode in dense if lam > cut]
        assert 0 < len(kept) < len(dense)
        built = []

        def counting_mode(*args):
            built.append(args)
            return ModeFunction(*args)

        monkeypatch.setattr("pulse_squeeze.coherence.ModeFunction", counting_mode)
        ladder = sp.vacuum
        assert len(ladder) == len(kept) == len(built)
        top = dense[0][0]
        for (lam, v), (lam_dense, w) in zip(ladder, kept):
            assert abs(lam - lam_dense) <= 1e-13 * top
            assert abs(inner_product(w, v)) >= 1 - 1e-9
        # Read once: the ladder is solved on first access only.
        assert sp.vacuum is ladder

    @pytest.mark.parametrize(
        "name", ["opo", "opo-vacuum", "opa", "twpa-20", "fig2a-1.0", "fig2a-4.0"])
    def test_matches_dense_oracle(self, cases, name, monkeypatch):
        k, u, moments = cases[name]
        sp = seeded_vacuum_split(k, *apply_to_mode(k, u), moments)
        dense_calls = self.spy(monkeypatch, "_dense_ladder")
        self.assert_matches_dense(sp, monkeypatch)
        # Only the widest ladder takes the dense solve: its blocks would pass
        # n / 4 columns.  Every other case is certified from blocks.
        assert len(dense_calls) == (name == "fig2a-4.0")

    @pytest.mark.parametrize("width", [4, 24])
    def test_small_block_fails_certificate(self, cases, width, monkeypatch):
        # One block, too narrow for the 21 pairs of the ladder, and no budget
        # to grow it: the dense solve gives the answer.  At 4 columns the
        # remainder fails; at 24 it passes, but the kept residuals do not
        # (1e-10 of the top value; one vector's overlap is 1 - 3e-6).
        import pulse_squeeze.coherence as coherence

        k, u, moments = cases["opo"]
        monkeypatch.setattr(coherence, "LADDER_START", width)
        monkeypatch.setattr(coherence, "LADDER_SHARE", k.grid.n_points // width)
        blocks = self.spy(monkeypatch, "_ritz_block")
        dense_calls = self.spy(monkeypatch, "_dense_ladder")
        split = seeded_vacuum_split(k, *apply_to_mode(k, u), moments)
        self.assert_matches_dense(split, monkeypatch)
        assert [certified for _, _, certified in blocks] == [False]
        assert len(dense_calls) == 1

    def test_near_degenerate_pair_goes_dense(self, monkeypatch):
        # A rank-8 ladder with two values 1e-12 apart.  The block spans it
        # exactly, and any rotation of that pair's vectors has a residual at
        # round-off: only the residual over the gap shows that the block
        # cannot pin them down, so the dense solve gives them.
        from pulse_squeeze.coherence import ModeSpectrum
        from pulse_squeeze.grids import TemporalGrid
        from pulse_squeeze.kernels import BogoliubovKernels

        n = 256
        grid = TemporalGrid(0.0, 1.0, n)
        rng = np.random.default_rng(5)
        u, v = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
                for _ in range(2))
        lam = np.array([1.0, 0.5, 0.5 - 1e-12, 0.1, 1e-2, 1e-3, 1e-4, 1e-5])
        # H = dt conj(G) = U sqrt(lam) V^dag
        g = np.conj(u[:, :8] * np.sqrt(lam)) @ v[:, :8].T / grid.dt
        k = BogoliubovKernels(grid, np.eye(n) / grid.dt, g)
        blocks = self.spy(monkeypatch, "_ritz_block")
        dense_calls = self.spy(monkeypatch, "_dense_ladder")
        ladder = ModeSpectrum([], 0.0, k.vacuum_total, kernels=k).vacuum
        assert np.abs([value for value, _ in ladder] - lam).max() < 1e-13
        assert blocks and not any(certified for _, _, certified in blocks)
        assert len(dense_calls) == 1

    @staticmethod
    def real_gram(lam, seed=3):
        """Real kernels on n = 512 points whose ladder values are ``lam``:
        F the identity, and ``H = dt G = U sqrt(lam) V^T`` with random
        orthogonal U and V."""
        from pulse_squeeze.grids import TemporalGrid
        from pulse_squeeze.kernels import BogoliubovKernels

        grid = TemporalGrid(0.0, 1.0, 512)
        rng = np.random.default_rng(seed)
        u, v = (np.linalg.qr(rng.normal(size=(512, 512)))[0] for _ in range(2))
        g = (u * np.sqrt(lam)) @ v.T / grid.dt
        return BogoliubovKernels(grid, np.eye(512) / grid.dt, g), grid.dt

    @staticmethod
    def pinned(vecs):
        from pulse_squeeze.grids import _pin_phase

        return np.column_stack([_pin_phase(v) for v in vecs.T])

    @pytest.mark.parametrize("pairs, blocks", [(40, [(64, True)]), (70, [(64, False), (192, True)])])
    def test_real_block_ladder_matches_dense(self, pairs, blocks, monkeypatch):
        # A geometric ladder falling 4 decades over ``pairs`` values, then a
        # decade to the first value not kept and halving after it; the cut
        # lies in that decade.  (Down to 1e-8 of the top, the last modes'
        # gaps would pin them to about 1e-8 in any solver.)
        # A real G takes real blocks of 64 columns, the storage of
        # LADDER_START complex ones.  40 pairs certify in the first block,
        # whose bound counts the first value not kept although
        # 40 >= LADDER_START; 70 pairs fill it and grow it to 192 columns.
        import pulse_squeeze.coherence as coherence
        from pulse_squeeze.coherence import _block_ladder, _dense_ladder

        i = np.arange(512)
        lam = 10.0 ** (-4.0 * np.minimum(i, pairs - 1) / pairs) * np.where(
            i < pairs, 1.0, 0.1 * 0.5 ** (i - pairs))
        k, dt = self.real_gram(lam)
        g = k.G
        cut = np.sqrt(lam[pairs - 1] * lam[pairs])
        seen = []
        ritz = coherence._ritz_block

        def spying(*args):
            seen.append((args[-1], ritz(*args)[2]))
            return ritz(*args)

        monkeypatch.setattr(coherence, "_ritz_block", spying)
        vals, vecs = _block_ladder(k, dt, float(lam.sum()), cut)
        assert seen == blocks
        dense_vals, dense_vecs = _dense_ladder(g, dt, cut)
        assert len(vals) == len(dense_vals) == pairs
        assert np.abs(vals - dense_vals).max() <= 1e-12 * dense_vals[0]
        assert np.abs(vals - lam[:pairs]).max() <= 1e-12 * lam[0]
        assert np.abs(self.pinned(vecs) - self.pinned(dense_vecs)).max() <= 1e-10
        # The dense solve picks syrk for a real G; herk on the same G as
        # complex gives the same pairs.
        complex_vals, complex_vecs = _dense_ladder(g.astype(complex), dt, cut)
        assert dense_vecs.dtype == np.float64 and complex_vecs.dtype == np.complex128
        assert np.abs(dense_vals - complex_vals).max() <= 1e-12 * dense_vals[0]
        assert np.abs(self.pinned(dense_vecs) - self.pinned(complex_vecs)).max() <= 1e-10

    def test_real_block_bound_counts_first_value_not_kept(self):
        # 40 values above the cut, the 41st at 0.9 of it, and a flat tail
        # worth half the cut spread below the block.  The tail alone passes
        # the bound; with the first value not kept it fails.  A bound that
        # skipped that value whenever the kept count reached the complex
        # width (32) would certify this block.
        from pulse_squeeze.coherence import _ritz_block

        cut = 1e-5
        lam = np.concatenate([10.0 ** (-2.0 * np.arange(40) / 39), [0.9 * cut],
                              np.full(471, 0.5 * cut / 471)])
        k, dt = self.real_gram(lam)
        vals, _, certified = _ritz_block(k, dt, float(lam.sum()), cut, 64)
        assert len(vals) == 40
        assert not certified

    def test_empty_ladder(self, grid, u_mode, monkeypatch):
        # G = 0: the ladder's total is 0, and so is the cut on a vacuum input.
        # The ladder is empty without a block or the dense solve.
        from pulse_squeeze.devices import GaussianPump, OpoParams, build_opo

        def never(*args):
            raise AssertionError("an empty ladder needs no solve")

        monkeypatch.setattr("pulse_squeeze.coherence._ritz_block", never)
        monkeypatch.setattr("pulse_squeeze.coherence._dense_ladder", never)
        unpumped = build_opo(OpoParams(0.0, 1.0, GaussianPump(0.0, 0.0, 0.3)), grid)
        assert not unpumped.G.any()
        for k in (identity_kernels(grid), unpumped):
            for moments in (InputMoments(0.0, 0.0), input_moments(fock_state(1, 30))):
                sp = seeded_vacuum_split(k, *apply_to_mode(k, u_mode), moments)
                assert sp.vacuum_total == 0.0
                assert sp.vacuum == []


class TestLadderHead:
    """``ModeSpectrum.head`` against the full ladder's first pairs."""

    @pytest.fixture(scope="class")
    def devices(self, grid, freq_grid):
        from pulse_squeeze.devices import (
            GaussianPump, OpaParams, OpoParams, TwpaParams, build_opa, build_opo, build_twpa)
        from pulse_squeeze.grids import TemporalGrid

        # Short pumps, so a head's narrow block spans the top pairs.
        return {
            "opo-detuned": build_opo(OpoParams(0.2, 1.0, GaussianPump(1.5, 0.0, 0.1)), grid),
            "opo-resonant": build_opo(OpoParams(0.0, 1.0, GaussianPump(1.5, 0.0, 0.1)), grid),
            "opa": build_opa(OpaParams(0.2, 0.0, 4.0), freq_grid),
            "twpa": build_twpa(TwpaParams(OpoParams(0.0, 1.0, GaussianPump(1.0, 0.0, 0.02)),
                                          10, 0.1), TemporalGrid(-10.0, 30.0, 256)),
        }

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("name", ["opo-detuned", "opo-resonant", "opa", "twpa"])
    def test_head_matches_full_ladder(self, devices, name, count, monkeypatch):
        from pulse_squeeze.coherence import ModeSpectrum

        k = devices[name]
        sp = ModeSpectrum([], 0.0, k.vacuum_total, kernels=k)
        full_solves = (TestVacuumLadder.spy(monkeypatch, "_block_ladder")
                       + TestVacuumLadder.spy(monkeypatch, "_dense_ladder"))
        head = sp.head(count)
        assert full_solves == [] and "vacuum" not in sp.__dict__
        assert sp.head(count) is head
        monkeypatch.undo()
        ladder = ModeSpectrum([], 0.0, k.vacuum_total, kernels=k).vacuum
        assert len(head) == count < len(ladder)
        dt = k.grid.dt
        for (lam, mode), (lam_full, mode_full) in zip(head, ladder):
            assert abs(lam - lam_full) <= 1e-14 * lam_full
            # Both are phase-pinned, but an odd mode's largest entries tie
            # in magnitude, so the pin may pick either sign.
            overlap = inner_product(mode_full, mode)
            turned = mode_full.amplitudes * (overlap / abs(overlap))
            assert np.abs(mode.amplitudes - turned).max() * np.sqrt(dt) <= 1e-10
        # Once the full ladder is solved, the head is read from it.
        sp.vacuum
        assert sp.head(count)[0][1] is sp.vacuum[0][1]

    def test_near_degenerate_head_pair_falls_back(self, monkeypatch):
        # The top two values 1e-12 apart: the head block spans them with
        # round-off residuals, but its gap to the bound on the rest cannot
        # pin the top vector, so the full ladder (here the dense solve, as the
        # pair defeats its blocks too) gives the head.
        from pulse_squeeze.coherence import ModeSpectrum
        from pulse_squeeze.grids import TemporalGrid
        from pulse_squeeze.kernels import BogoliubovKernels

        n = 256
        grid = TemporalGrid(0.0, 1.0, n)
        rng = np.random.default_rng(5)
        u, v = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
                for _ in range(2))
        lam = np.array([1.0, 1.0 - 1e-12, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        g = np.conj(u[:, :8] * np.sqrt(lam)) @ v[:, :8].T / grid.dt
        k = BogoliubovKernels(grid, np.eye(n) / grid.dt, g)
        blocks = TestVacuumLadder.spy(monkeypatch, "_ritz_block")
        dense_calls = TestVacuumLadder.spy(monkeypatch, "_dense_ladder")
        sp = ModeSpectrum([], 0.0, k.vacuum_total, kernels=k)
        head = sp.head(1)
        assert [certified for _, _, certified in blocks] and not blocks[0][2]
        assert len(dense_calls) == 1
        assert head == sp.vacuum[:1]
        assert abs(head[0][0] - 1.0) < 1e-13

    def test_start_block_is_standard_normal_without_numpy_random(self):
        # splitmix64 and Box-Muller in array arithmetic: no integer or
        # floating-point error is raised, and the draws are reproducible.
        from pulse_squeeze.coherence import _gaussian_block

        with np.errstate(all="raise"):
            block = _gaussian_block(1024, 63)
        assert block.shape == (1024, 63)
        assert np.array_equal(block, _gaussian_block(1024, 63))
        size = block.size
        assert abs(block.mean()) < 5.0 / np.sqrt(size)
        assert abs(block.var() - 1.0) < 5.0 * np.sqrt(2.0 / size)
        assert abs(np.mean(np.abs(block) < 1.0) - 0.6826895) < 5.0 * 0.47 / np.sqrt(size)


class TestSingleModeCondition:
    def test_coherent_holds(self):
        holds, dev = single_mode_condition(input_moments(coherent_state(1.7, 40)))
        assert holds
        assert dev < 1e-9

    def test_fock_fails(self):
        holds, dev = single_mode_condition(input_moments(fock_state(1, 30)))
        assert not holds
        assert dev == pytest.approx(1.0)

    def test_cat_nearly_holds(self):
        holds, dev = single_mode_condition(input_moments(even_cat_state(2.5, 60)))
        assert not holds  # strictly above the 1e-6 threshold
        assert dev == pytest.approx(1.0 - np.tanh(6.25), rel=1e-3)


class TestOccupationRatio:
    def test_coherent_ratio_unity(self, grid, u_mode, opo_kernels):
        sp = seeded_vacuum_split(opo_kernels, *apply_to_mode(opo_kernels, u_mode),
                                 input_moments(coherent_state(1.0, 40)))
        assert occupation_ratio(sp) == pytest.approx(1.0)

    def test_fock_identity_device(self, grid, u_mode):
        k = identity_kernels(grid)
        sp = seeded_vacuum_split(k, *apply_to_mode(k, u_mode), input_moments(fock_state(1, 30)))
        assert occupation_ratio(sp) == pytest.approx(1.0)

    def test_short_pump_ratio_near_one(self, grid):
        from pulse_squeeze.devices import GaussianPump, OpoParams, build_opo
        from pulse_squeeze.grids import gaussian_mode

        u = gaussian_mode(grid, -1.0, 1.0)
        ratios = []
        for width in (0.05, 1.5):
            k = build_opo(OpoParams(0.0, 1.0, GaussianPump(1.5, 0.0, width)), grid)
            sp = seeded_vacuum_split(k, *apply_to_mode(k, u), input_moments(fock_state(1, 30)))
            ratios.append(occupation_ratio(sp))
        assert ratios[0] > 0.9
        assert ratios[0] > ratios[1]

    def test_no_seeded_modes_raises(self, grid, u_mode, opo_kernels):
        sp = seeded_vacuum_split(opo_kernels, *apply_to_mode(opo_kernels, u_mode),
                                 InputMoments(0.0, 0.0))
        with pytest.raises(ValueError):
            occupation_ratio(sp)
