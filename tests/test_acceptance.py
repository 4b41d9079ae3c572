"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report; every tolerance is pinned here, none are calibrated at runtime.
"""

import time

import numpy as np

from pulse_squeeze.charfun import char_of_state, fock_from_char, propagate_char
from pulse_squeeze.coherence import (
    input_moments,
    seeded_vacuum_split,
    vacuum_kernel,
)
from pulse_squeeze.config import load_recipe, set_by_path
from pulse_squeeze.decomposition import bloch_messiah_params, decompose_output_mode
from pulse_squeeze.devices import (
    GaussianPump,
    OpaParams,
    OpoParams,
    TwpaParams,
    build_opa,
    build_opo,
    build_twpa,
    default_opo_grid,
)
from pulse_squeeze.grids import (
    ModeFunction,
    TemporalGrid,
    gaussian_mode,
    inner_product,
    normalize,
)
from pulse_squeeze.kernels import (
    apply_to_mode,
    ideal_squeezer_kernels,
    verify_symplectic,
)
from pulse_squeeze.metrics import quadrature_variance
from pulse_squeeze.pipeline import run_state_analysis
from pulse_squeeze.states import (
    QuantumState,
    coherent_state,
    even_cat_state,
    vacuum_state,
)

from conftest import eigendecompose
from fockspace import three_mode_output_state


def _report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_symplectic_property_suite():
    start = time.time()
    rng = np.random.default_rng(42)
    grid = default_opo_grid(1.0, 1024)

    worst_opo = 0.0
    for _ in range(10):
        params = OpoParams(
            detuning=rng.uniform(-2.0, 2.0),
            decay=1.0,
            pump=GaussianPump(rng.uniform(0.2, 2.0), rng.uniform(-2, 2), rng.uniform(0.05, 1.5)),
        )
        worst_opo = max(worst_opo, verify_symplectic(build_opo(params, grid)).max_residual)

    worst_opa = 0.0
    for _ in range(5):
        params = OpaParams(
            gain=rng.uniform(0.1, 0.6),
            pump_center_detuning=rng.uniform(-1.5, 1.5),
            pump_spectral_width=rng.uniform(0.3, 4.0),
        )
        worst_opa = max(worst_opa, verify_symplectic(build_opa(params, grid)).max_residual)

    twpa = build_twpa(
        TwpaParams(OpoParams(0.1, 1.0, GaussianPump(1.0, 0.0, 0.2)), 100, 0.02), grid
    )
    twpa_res = verify_symplectic(twpa).max_residual
    elapsed = time.time() - start
    ok = worst_opo < 1e-5 and worst_opa < 1e-5 and twpa_res < 1e-4 and elapsed < 60.0
    _report(
        1, ok,
        f"opo<{worst_opo:.1e} opa<{worst_opa:.1e} twpa(100)<{twpa_res:.1e} "
        f"tolerances 1e-5/1e-5/1e-4, {elapsed:.0f}s < 60s",
    )


def test_criterion_02_ideal_squeezer_eq1_recovery():
    start = time.time()
    grid = default_opo_grid(1.0, 512)
    u = gaussian_mode(grid, 0.0, 1.0)
    k = ideal_squeezer_kernels(grid, u, 1.0)
    d = decompose_output_mode(k, u, u)
    chi = propagate_char(d, vacuum_state(30))
    v_hi = quadrature_variance(chi, 0.0)
    v_lo = quadrature_variance(chi, np.pi / 2.0)
    var_err = max(abs(v_hi - np.exp(2.0) / 2.0), abs(v_lo - np.exp(-2.0) / 2.0))

    rec = fock_from_char(chi, 40)
    pops = np.diag(rec.rho).real
    n = np.arange(20)
    from scipy.special import gammaln

    analytic = (
        np.exp(gammaln(2 * n + 1) - 2 * n * np.log(2.0) - 2 * gammaln(n + 1))
        * np.tanh(1.0) ** (2 * n)
        / np.cosh(1.0)
    )
    pop_err = max(np.abs(pops[::2][:20] - analytic).max(), np.abs(pops[1::2]).max())
    elapsed = time.time() - start
    ok = var_err < 1e-4 and pop_err < 1e-4 and elapsed < 10.0
    _report(
        2, ok,
        f"variance err {var_err:.1e} < 1e-4, population err {pop_err:.1e} < 1e-4, "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_03_rank_two_theorem():
    start = time.time()
    grid = default_opo_grid(1.0, 512)
    u = gaussian_mode(grid, 0.0, 1.0)
    k = build_opo(OpoParams(0.3, 1.0, GaussianPump(1.3, 0.0, 0.4)), grid)
    vac = vacuum_kernel(k).entries
    rng = np.random.default_rng(3)
    dt = grid.dt

    worst_third = 0.0
    for _ in range(10):
        dim = 12
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        rho = np.zeros((dim, dim), complex)
        rho[:6, :6] = np.outer(psi, psi.conj())
        moments = input_moments(QuantumState(rho))
        from pulse_squeeze.coherence import g1_total

        seeded = g1_total(k, u, moments).entries - vac
        vals = np.sort(np.abs(np.linalg.eigvalsh(dt * seeded)))[::-1]
        worst_third = max(worst_third, vals[2] / vals[0])

    worst_second = 0.0
    for alpha in (0.7, 1.5 + 0.5j, 2.2):
        moments = input_moments(coherent_state(alpha, 50))
        from pulse_squeeze.coherence import g1_total

        seeded = g1_total(k, u, moments).entries - vac
        vals = np.sort(np.abs(np.linalg.eigvalsh(dt * seeded)))[::-1]
        worst_second = max(worst_second, vals[1] / vals[0])
    elapsed = time.time() - start
    ok = worst_third < 1e-8 and worst_second < 1e-8 and elapsed < 60.0
    _report(
        3, ok,
        f"third/first {worst_third:.1e} < 1e-8 (10 random states), "
        f"second/first {worst_second:.1e} < 1e-8 (coherent), {elapsed:.0f}s < 60s",
    )


def test_criterion_04_fock_two_mode_structure():
    cfg = load_recipe("fig2b")
    from pulse_squeeze.pipeline import (
        device_from_config,
        grid_from_config,
        input_mode_from_config,
        input_state_from_config,
    )

    grid = grid_from_config(cfg["grid"])
    u = input_mode_from_config(cfg["input"], grid)
    state = input_state_from_config(cfg["input"])
    fractions = []
    for width in (0.1, 0.316, 1.0):
        point = set_by_path(cfg, "device.pump.width", width)
        k = device_from_config(point["device"], grid)
        sp = seeded_vacuum_split(k, u, input_moments(state))
        assert len(sp.seeded) == 2
        n1, n2 = sp.seeded[0][0], sp.seeded[1][0]
        fractions.append(min(n1, n2) / (n1 + n2))
    ok = all(f > 0.01 for f in fractions)
    _report(
        4, ok,
        "both seeded occupations > 1% of seeded total at widths 0.1/0.32/1.0: "
        + ", ".join(f"{f:.3f}" for f in fractions),
    )


def test_criterion_05_short_pump_single_mode_vacuum():
    start = time.time()
    grid = default_opo_grid(1.0, 1024)
    k = build_opo(OpoParams(0.0, 1.0, GaussianPump(1.0, 0.0, 0.01)), grid)
    pairs = eigendecompose(vacuum_kernel(k))
    occ = np.array([lam for lam, _ in pairs])
    fraction = occ[0] / occ.sum()
    t = grid.points
    ring = np.where(t >= 0.0, np.exp(-0.5 * t), 0.0).astype(complex)
    ring_mode, _ = normalize(ModeFunction(grid, ring))
    overlap_sq = abs(inner_product(ring_mode, pairs[0][1])) ** 2
    elapsed = time.time() - start
    ok = fraction > 0.95 and overlap_sq > 0.99 and elapsed < 30.0
    _report(
        5, ok,
        f"m1 fraction {fraction:.4f} > 0.95, ring-down overlap^2 {overlap_sq:.4f} > 0.99, "
        f"{elapsed:.0f}s < 30s",
    )


def test_criterion_06_dispersive_identity():
    start = time.time()
    grid = default_opo_grid(1.0, 512)
    u = gaussian_mode(grid, 0.0, 1.0)
    k = build_opo(OpoParams(0.5, 1.0, GaussianPump(0.0, 0.0, 0.5)), grid)
    cat = even_cat_state(2.5, 60)

    fu, _ = apply_to_mode(k, u)
    v, _ = normalize(ModeFunction(grid, fu))  # the transported input mode
    d = decompose_output_mode(k, u, v)
    chi_u = char_of_state(cat)
    out = chi_u.grid.sample(propagate_char(d, cat).evaluator)
    # fidelity Tr[rho_out |cat><cat|] by overlap quadrature on the input's grid
    fid = float(np.real(np.sum(out * np.conj(chi_u.values))) * chi_u.grid.weight / np.pi)
    elapsed = time.time() - start
    ok = fid > 1.0 - 1e-4 and elapsed < 30.0
    _report(6, ok, f"dispersive transport fidelity {fid:.8f} > 1-1e-4, {elapsed:.0f}s < 30s")


def test_criterion_07_small_instance_oracle():
    start = time.time()
    grid = default_opo_grid(1.0, 512)
    u = gaussian_mode(grid, 0.0, 1.0)
    rng = np.random.default_rng(5)
    dim = 10
    worst = 0.0
    for trial in range(5):
        params = OpoParams(
            detuning=rng.uniform(-0.3, 0.3),
            decay=1.0,
            pump=GaussianPump(0.25 + 0.1 * rng.random(), 0.0, rng.uniform(0.2, 0.6)),
        )
        k = build_opo(params, grid)
        fu, gu = apply_to_mode(k, u)
        seeded = np.outer(fu.conj(), fu) + np.outer(gu, gu.conj())
        from pulse_squeeze.grids import HermitianKernel

        v1 = eigendecompose(HermitianKernel(grid, seeded, atol=1e-8))[0][1]
        d = decompose_output_mode(k, u, v1)
        p = bloch_messiah_params(d)
        assert p["residual"] < 1e-8

        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        rho_u = np.zeros((dim, dim), complex)
        rho_u[:3, :3] = np.outer(psi, psi.conj())

        oracle = three_mode_output_state(p, np.pad(rho_u, ((0, 10), (0, 10))), 20)
        chi_out = propagate_char(d, QuantumState(rho_u))
        rec = fock_from_char(chi_out, dim)
        block = oracle.rho[:dim, :dim]
        block = block / np.real(np.trace(block))
        dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rec.rho - block)))
        worst = max(worst, dist)
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 120.0
    _report(
        7, ok,
        f"5 random decompositions at dim 10: worst trace distance {worst:.2e} < 1e-4, "
        f"{elapsed:.0f}s < 120s",
    )


def test_criterion_08_headline_fidelity_and_gain():
    start = time.time()
    grid = default_opo_grid(1.0, 512)
    cat = even_cat_state(2.5, 60)
    u = gaussian_mode(grid, -1.0, 1.5)  # seed peaks one lifetime before the pump
    best = (0.0, 0.0)
    found = False
    results = []
    for width in (0.05, 0.1, 0.2):
        for area in (1.2, 1.5, 1.8):
            k = build_opo(OpoParams(0.0, 1.0, GaussianPump(area, 0.0, width)), grid)
            res = run_state_analysis(k, u, cat)
            f, g = res.metrics["best_fidelity"], res.metrics["p_gain"]
            results.append((width, area, f, g))
            if f >= 0.85 and g >= 3.0:
                found = True
                if f > best[0]:
                    best = (f, g)
    elapsed = time.time() - start
    detail = " ".join(f"(w={w},a={a}:F={f:.3f},G={g:.2f})" for w, a, f, g in results)
    ok = found and elapsed < 900.0
    _report(
        8, ok,
        f"exists point with fidelity >= 0.85 and p-gain >= 3.0: best {best[0]:.3f}@{best[1]:.2f}x; "
        f"{elapsed:.0f}s < 900s | {detail}",
    )


def test_criterion_09_grid_convergence():
    start = time.time()
    cat = even_cat_state(2.5, 60)
    values = {}
    for n in (512, 1024):
        grid = TemporalGrid(-10.0, 30.0, n)
        k = build_opo(OpoParams(0.0, 1.0, GaussianPump(1.5, 0.0, 0.1)), grid)
        u = gaussian_mode(grid, -1.0, 1.5)
        res = run_state_analysis(k, u, cat)
        values[n] = res.metrics
    changes = {
        key: abs(values[1024][key] - values[512][key]) / abs(values[1024][key])
        for key in ("n1", "purity", "best_fidelity")
    }
    elapsed = time.time() - start
    ok = all(c < 0.01 for c in changes.values()) and elapsed < 600.0
    _report(
        9, ok,
        "512 -> 1024 changes: "
        + ", ".join(f"{k} {c:.3%}" for k, c in changes.items())
        + f" (all < 1%), {elapsed:.0f}s < 600s",
    )


def test_criterion_10_sweep_determinism(tmp_path):
    from pulse_squeeze import cli

    outs = []
    for run in ("first", "second"):
        out = tmp_path / run
        code = cli.main(["sweep", "--recipe", "fig3ab", "--out", str(out)])
        assert code == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("heatmap_n1.csv", "heatmap_ratio.csv", "config_used.yaml")
    )
    import json

    manifests = [json.loads((o / "manifest.json").read_text()) for o in outs]
    checks_match = manifests[0]["files"] == manifests[1]["files"]
    _report(
        10, identical and checks_match,
        "two fig3ab 16x16 runs: data files byte-identical, manifest checksums equal",
    )
