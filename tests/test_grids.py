import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulse_squeeze.grids import (
    DegenerateModeError,
    GridMismatchError,
    HermitianKernel,
    ModeFunction,
    TemporalGrid,
    gaussian_mode,
    inner_product,
    normalize,
    orthogonal_complement,
)

from conftest import eigendecompose, random_mode


def test_grid_basic_properties():
    g = TemporalGrid(-1.0, 3.0, 5)
    assert g.dt == pytest.approx(1.0)
    assert np.allclose(g.points, [-1, 0, 1, 2, 3])
    assert np.all(np.diff(g.points) > 0)


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        TemporalGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        TemporalGrid(1.0, 1.0, 8)


def test_equal_grids_hash_alike():
    # The ends differ by less than the 1e-12 equality tolerance but round
    # apart at 12 digits.
    a, b = TemporalGrid(1.4e-12, 1.0, 8), TemporalGrid(0.5e-12, 1.0, 8)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


class TestInnerProduct:
    def test_normalized_self_overlap(self, grid):
        f = gaussian_mode(grid, 0.0, 1.3)
        assert inner_product(f, f) == pytest.approx(1.0, abs=1e-10)

    def test_disjoint_supports_orthogonal(self, grid):
        a = np.zeros(grid.n_points, complex)
        b = np.zeros(grid.n_points, complex)
        a[:100] = 1.0
        b[200:300] = 1.0
        fa, _ = normalize(ModeFunction(grid, a))
        fb, _ = normalize(ModeFunction(grid, b))
        assert inner_product(fa, fb) == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_overlap_analytic(self, grid):
        # unit-width Gaussians centered 0 and 2 overlap by exp(-1)
        f = gaussian_mode(grid, 0.0, 1.0)
        g = gaussian_mode(grid, 2.0, 1.0)
        assert inner_product(f, g) == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_conjugate_symmetry(self, grid):
        rng = np.random.default_rng(0)
        a = random_mode(grid, rng)
        b = random_mode(grid, rng)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_grid_mismatch_raises(self, grid):
        other = TemporalGrid(grid.t_start, grid.t_end, grid.n_points + 1)
        f = gaussian_mode(grid, 0.0, 1.0)
        g = gaussian_mode(other, 0.0, 1.0)
        with pytest.raises(GridMismatchError):
            inner_product(f, g)

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 2**16),
    )
    def test_sesquilinear(self, alpha, seed):
        grid = TemporalGrid(-5.0, 5.0, 64)
        rng = np.random.default_rng(seed)
        a = random_mode(grid, rng, envelope_width=3.0)
        b = random_mode(grid, rng, envelope_width=3.0)
        c = random_mode(grid, rng, envelope_width=3.0)
        combo = ModeFunction(grid, alpha * b.amplitudes + c.amplitudes)
        lhs = inner_product(a, combo)
        rhs = alpha * inner_product(a, b) + inner_product(a, c)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestNormalize:
    def test_constant_amplitudes(self):
        grid = TemporalGrid(0.0, 1.0, 1001)
        f = ModeFunction(grid, np.full(grid.n_points, 2.0 + 0.0j))
        normed, nrm = normalize(f)
        # rectangle weights cover the interval up to one spacing
        assert nrm == pytest.approx(2.0, rel=1e-3)
        assert np.allclose(normed.amplitudes, f.amplitudes / nrm)

    def test_already_normalized_unchanged(self, grid):
        f = gaussian_mode(grid, 0.0, 1.0)
        normed, nrm = normalize(f)
        assert nrm == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(normed.amplitudes, f.amplitudes)

    def test_zero_norm_raises(self, grid):
        with pytest.raises(DegenerateModeError):
            normalize(ModeFunction(grid, np.zeros(grid.n_points, complex)))


class TestOrthogonalComplement:
    def test_contained_in_span(self, grid):
        u = gaussian_mode(grid, 0.0, 1.0)
        mode, nrm = orthogonal_complement(u, [u])
        assert mode is None
        assert nrm == 0.0

    def test_orthogonal_passthrough(self, grid):
        rng = np.random.default_rng(1)
        u = gaussian_mode(grid, 0.0, 1.0)
        w = random_mode(grid, rng)
        w_perp, _ = orthogonal_complement(w, [u])
        mode, nrm = orthogonal_complement(w_perp, [u])
        assert nrm == pytest.approx(1.0, abs=1e-9)
        assert abs(inner_product(mode, w_perp)) == pytest.approx(1.0, abs=1e-9)

    def test_equal_mixture(self, grid):
        rng = np.random.default_rng(2)
        u = gaussian_mode(grid, 0.0, 1.0)
        w, _ = orthogonal_complement(random_mode(grid, rng), [u])
        f = ModeFunction(grid, (u.amplitudes + w.amplitudes) / np.sqrt(2.0))
        mode, nrm = orthogonal_complement(f, [u])
        assert nrm == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)
        assert abs(inner_product(mode, w)) == pytest.approx(1.0, abs=1e-9)

    def test_output_orthogonal_to_basis(self, grid):
        rng = np.random.default_rng(3)
        basis = []
        for _ in range(3):
            cand, _ = orthogonal_complement(random_mode(grid, rng), basis)
            basis.append(cand)
        mode, _ = orthogonal_complement(random_mode(grid, rng), basis)
        for b in basis:
            assert abs(inner_product(b, mode)) < 1e-9


class TestEigendecompose:
    def test_rank_one(self, grid):
        u = gaussian_mode(grid, 0.0, 1.0)
        n = 3.7
        kern = HermitianKernel(grid, n * np.outer(u.amplitudes.conj(), u.amplitudes))
        pairs = eigendecompose(kern)
        assert pairs[0][0] == pytest.approx(n, rel=1e-10)
        assert abs(inner_product(pairs[0][1], u)) == pytest.approx(1.0, abs=1e-9)
        assert pairs[1][0] == pytest.approx(0.0, abs=1e-10)

    def test_zero_kernel(self, grid):
        kern = HermitianKernel(grid, np.zeros((grid.n_points, grid.n_points)))
        pairs = eigendecompose(kern)
        assert all(lam == 0.0 for lam, _ in pairs)

    def test_rank_two(self, grid):
        rng = np.random.default_rng(4)
        a = random_mode(grid, rng)
        b_perp, _ = orthogonal_complement(random_mode(grid, rng), [a])
        entries = 2.0 * np.outer(a.amplitudes.conj(), a.amplitudes) + 1.0 * np.outer(
            b_perp.amplitudes.conj(), b_perp.amplitudes
        )
        pairs = eigendecompose(HermitianKernel(grid, entries))
        assert pairs[0][0] == pytest.approx(2.0, rel=1e-9)
        assert pairs[1][0] == pytest.approx(1.0, rel=1e-9)
        assert abs(inner_product(pairs[0][1], a)) == pytest.approx(1.0, abs=1e-8)
        assert abs(inner_product(pairs[1][1], b_perp)) == pytest.approx(1.0, abs=1e-8)

    def test_modes_orthonormal_and_reconstruction(self, grid):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(grid.n_points, grid.n_points))
        entries = m @ m.T / grid.n_points  # positive semidefinite
        kern = HermitianKernel(grid, entries)
        pairs = eigendecompose(kern)
        for i in range(4):
            for j in range(4):
                expected = 1.0 if i == j else 0.0
                assert abs(inner_product(pairs[i][1], pairs[j][1]) - expected) < 1e-9
        recon = sum(
            lam * np.outer(mode.amplitudes.conj(), mode.amplitudes)
            for lam, mode in pairs
        )
        rel = np.linalg.norm(recon - entries) / np.linalg.norm(entries)
        assert rel < 1e-8

    def test_eigenvalue_sum_matches_trace(self, grid):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(grid.n_points, grid.n_points))
        kern = HermitianKernel(grid, m @ m.T / grid.n_points)
        pairs = eigendecompose(kern)
        total = sum(lam for lam, _ in pairs)
        assert total == pytest.approx(kern.trace(), rel=1e-9)

    def test_significant_negative_raises(self, grid):
        u = gaussian_mode(grid, 0.0, 1.0)
        entries = -1.0 * np.outer(u.amplitudes.conj(), u.amplitudes)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            eigendecompose(HermitianKernel(grid, entries))

    def test_non_hermitian_rejected(self, grid):
        m = np.zeros((grid.n_points, grid.n_points), complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianKernel(grid, m)
