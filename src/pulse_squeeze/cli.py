"""Config-driven experiment runner.

    pulse-squeeze <modes|state|sweep|verify> [--config FILE | --recipe NAME]
                  [--out DIR]

Commands emit CSV/JSON artifacts only (plotting is external) plus a
manifest listing every file with its checksum.  Identical configs produce
byte-identical data files; the manifest carries wall-clock timestamps and
is the one file excluded from that guarantee.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    FLOAT_FORMAT,
    ConfigError,
    RunManifest,
    config_hash,
    dump_config,
    load_config,
    load_recipe,
    parse_config,
    set_by_path,
    sweep_axes,
    validate_config,
)
from .coherence import single_mode_condition
from .grids import TemporalGrid
from .kernels import BogoliubovKernels, verify_symplectic
from .pipeline import (
    device_from_config,
    grid_from_config,
    input_mode_from_config,
    input_state_from_config,
    run_modes,
    run_state_analysis,
    wigner_for_display,
)

__all__ = ["main"]


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def _write_csv(path: Path, header_meta: dict, columns: list[str], rows) -> None:
    """Floats as ``FLOAT_FORMAT``, anything else as ``str``: each row is one
    %-format of its values, the format built once per sequence of value types."""
    lines = [f"# {k}: {v}" for k, v in header_meta.items()]
    lines.append(",".join(columns))
    formats = {}
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        if types not in formats:
            formats[types] = ",".join(FLOAT_FORMAT if issubclass(t, (float, np.floating))
                                      else "%s" for t in types)
        lines.append(formats[types] % row)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sweep_worker(args, kernels: BogoliubovKernels):
    """Occupation metrics of one sweep point on its device's kernels."""
    index, cfg = args
    try:
        u = input_mode_from_config(cfg["input"], kernels.grid)
        state = input_state_from_config(cfg["input"])
        return index, run_modes(kernels, u, state).metrics, None
    except Exception as exc:  # recorded per point, run continues
        return index, None, _error_text(exc)


def _device_worker(points):
    """One pool task: build the device the ``(index, cfg)`` points share
    once, then run each point on its kernels.  A failed build is recorded
    for every point of the group."""
    cfg = points[0][1]
    try:
        kernels = device_from_config(cfg["device"], grid_from_config(cfg["grid"]))
    except Exception as exc:  # recorded per point, run continues
        return [(index, None, _error_text(exc)) for index, _ in points]
    return [_sweep_worker(point, kernels) for point in points]


def _env_int(*names: str) -> int | None:
    """Integer value of the first of ``names`` set in the environment."""
    for name in names:
        value = os.environ.get(name)
        if value:
            try:
                return int(value)
            except ValueError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    return None


def _workers() -> int:
    """Sweep pool size: ``PULSE_SQUEEZE_WORKERS``, else as many workers as
    fit on the cores next to each one's BLAS threads.

    With no BLAS thread count set, BLAS already uses every core, so the
    sweep runs in one process; extra workers would only oversubscribe.
    """
    workers = _env_int("PULSE_SQUEEZE_WORKERS")
    if workers is not None:
        return max(1, workers)
    threads = _env_int("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    if threads is None:
        return 1
    return max(1, (os.cpu_count() or 1) // max(1, threads))


def _modes_point(point_cfg: dict, grid: TemporalGrid, n_vac: int):
    """One ``modes`` point: its occupations row (n1, n2, ratio and the top
    ``n_vac`` ladder occupations), its spectrum record and its dominant mode.

    Only these leave the function, so the point's n x n kernels are freed
    before the next point builds its own."""
    kern = device_from_config(point_cfg["device"], grid)
    u = input_mode_from_config(point_cfg["input"], grid)
    state = input_state_from_config(point_cfg["input"])
    res = run_modes(kern, u, state)
    sp = res.spectrum
    vac = [lam for lam, _ in sp.vacuum[:n_vac]]
    vac += [0.0] * (n_vac - len(vac))
    row = [res.metrics["n1"], res.metrics["n2"], res.metrics.get("ratio", float("nan"))] + vac
    holds, deviation = single_mode_condition(res.moments)
    record = {
        "seeded": [lam for lam, _ in sp.seeded],
        "vacuum": [lam for lam, _ in sp.vacuum],
        "seeded_total": sp.seeded_total,
        "vacuum_total": sp.vacuum_total,
        "single_mode_condition": {"holds": holds, "deviation": deviation},
    }
    pool = sp.seeded if sp.seeded else sp.vacuum
    return row, record, (pool[0][1].amplitudes if pool else None)


def cmd_modes(cfg: dict, out: Path) -> RunManifest:
    """Occupation spectra, optionally along one sweep axis."""
    axes = sweep_axes(cfg)
    if len(axes) > 1:
        raise ConfigError("modes supports at most one sweep axis")
    if axes and axes[0][0].startswith("grid."):
        raise ConfigError(f"sweep.axes[0]: modes writes one t column, cannot sweep {axes[0][0]}")
    manifest = RunManifest(config_hash=config_hash(cfg), tool_version=__version__)

    points = [(None, cfg)]
    if axes:
        name, values = axes[0]
        points = [(float(v), set_by_path(cfg, name, float(v))) for v in values]

    occ_rows = []
    spectra = []
    mode_columns = {}
    grid = grid_from_config(cfg["grid"])
    n_vac = 8
    for i, (axis_value, point_cfg) in enumerate(points):
        row, record, dominant = _modes_point(point_cfg, grid, n_vac)
        occ_rows.append([axis_value if axis_value is not None else 0.0] + row)
        spectra.append({"axis_value": axis_value, **record})
        if (i == 0 or i == len(points) - 1) and dominant is not None:
            mode_columns[f"dominant_{'first' if i == 0 else 'last'}"] = dominant

    axis_name = axes[0][0] if axes else "point"
    meta = {
        "config": config_hash(cfg),
        "axis": axis_name,
        "grid": f"[{grid.t_start}, {grid.t_end}] x {grid.n_points}",
        "units": "occupations in photons",
    }
    _write_csv(
        out / "occupations.csv",
        meta,
        [axis_name, "n1", "n2", "ratio"] + [f"m{i+1}" for i in range(n_vac)],
        occ_rows,
    )
    mode_cols = ["t"] + [f"{k}_{p}" for k in sorted(mode_columns) for p in ("re", "im")]
    mode_rows = []
    t = grid.points
    for j in range(grid.n_points):
        row = [t[j]]
        for k in sorted(mode_columns):
            row += [mode_columns[k][j].real, mode_columns[k][j].imag]
        mode_rows.append(row)
    _write_csv(out / "modes.csv", meta, mode_cols, mode_rows)
    _write_json(out / "spectrum.json", {"points": spectra})
    for name in ("occupations.csv", "modes.csv", "spectrum.json"):
        manifest.add_file(out / name)
    return manifest


def cmd_state(cfg: dict, out: Path) -> RunManifest:
    """Full state pipeline at a single parameter point."""
    manifest = RunManifest(config_hash=config_hash(cfg), tool_version=__version__)
    run = parse_config(cfg)
    if run.sweep:
        raise ConfigError(f"sweep.axes[0]: state runs one point, cannot sweep {run.sweep[0][0]}")
    kern = device_from_config(cfg["device"], run.grid)
    u = input_mode_from_config(cfg["input"], run.grid)
    state = input_state_from_config(cfg["input"])
    res = run_state_analysis(kern, u, state, run.output_mode, run.fock_dim)
    rho = res.rho_out.rho
    meta = {"config": config_hash(cfg), "dim": run.fock_dim}
    columns = [f"c{j}" for j in range(run.fock_dim)]
    _write_csv(out / "rho_re.csv", meta, columns, [list(row) for row in rho.real])
    _write_csv(out / "rho_im.csv", meta, columns, [list(row) for row in rho.imag])
    wig = wigner_for_display(res.chi_out)
    wig_meta = dict(meta)
    wig_meta["x_axis"] = f"[{wig.x_axis[0]}, {wig.x_axis[-1]}] x {len(wig.x_axis)}"
    wig_meta["convention"] = "a=(x+ip)/sqrt2, int W dx dp = 1"
    _write_csv(out / "wigner.csv", wig_meta, [f"p{j}" for j in range(len(wig.p_axis))],
               [list(row) for row in wig.values])
    metrics = {k: float(v) for k, v in res.metrics.items()}
    _write_json(out / "metrics.json", metrics)
    for name in ("rho_re.csv", "rho_im.csv", "wigner.csv", "metrics.json"):
        manifest.add_file(out / name)
    return manifest


def cmd_sweep(cfg: dict, out: Path) -> RunManifest:
    """Two-axis occupation sweep producing n1 / ratio heatmaps."""
    axes = sweep_axes(cfg)
    if len(axes) != 2:
        raise ConfigError("sweep requires exactly two axes")
    manifest = RunManifest(config_hash=config_hash(cfg), tool_version=__version__)
    (name1, vals1), (name2, vals2) = axes

    # Points that share a device and grid share one build: one group per
    # distinct device, in order of first appearance.
    groups: dict[str, list] = {}
    for i, v1 in enumerate(vals1):
        for j, v2 in enumerate(vals2):
            point = set_by_path(set_by_path(cfg, name1, float(v1)), name2, float(v2))
            key = config_hash({"device": point["device"], "grid": point["grid"]})
            groups.setdefault(key, []).append(((i, j), point))

    n1_map = np.full((len(vals1), len(vals2)), np.nan)
    ratio_map = np.full((len(vals1), len(vals2)), np.nan)
    workers = _workers()
    if workers == 1:
        done = list(map(_device_worker, groups.values()))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_device_worker, groups.values()))
    results = sorted((point for group in done for point in group), key=lambda r: r[0])
    for (i, j), metrics, error in results:
        if error is not None:
            manifest.failures.append({"point": [int(i), int(j)], "error": error})
            continue
        n1_map[i, j] = metrics["n1"]
        ratio_map[i, j] = metrics.get("ratio", np.nan)

    meta = {
        "config": config_hash(cfg),
        "rows": f"{name1}: " + " ".join(_fmt(v) for v in vals1),
        "cols": f"{name2}: " + " ".join(_fmt(v) for v in vals2),
    }
    _write_csv(out / "heatmap_n1.csv", meta, [name2] + [_fmt(v) for v in vals2],
               [[vals1[i]] + list(n1_map[i]) for i in range(len(vals1))])
    _write_csv(out / "heatmap_ratio.csv", meta, [name2] + [_fmt(v) for v in vals2],
               [[vals1[i]] + list(ratio_map[i]) for i in range(len(vals1))])
    for name in ("heatmap_n1.csv", "heatmap_ratio.csv"):
        manifest.add_file(out / name)
    return manifest


def _verify_checks(corrupt: bool):
    """Invariant suite: (name, residual, tolerance) triples."""
    from .coherence import g1_total, input_moments, seeded_vacuum_split
    from .decomposition import decompose_output_mode
    from .devices import GaussianPump, OpaParams, OpoParams, TwpaParams
    from .devices import build_opa, build_opo, build_twpa, default_opo_grid
    from .grids import ModeFunction, gaussian_mode, normalize
    from .kernels import compose, identity_kernels, ideal_squeezer_kernels, pullback_output_mode
    from .metrics import quadrature_variance
    from .states import coherent_state, fock_state, vacuum_state
    from .charfun import char_of_state, fock_from_char

    checks = []
    grid = default_opo_grid(1.0, 512)
    u = gaussian_mode(grid, 0.0, 1.0)
    rng = np.random.default_rng(11)

    ident = identity_kernels(grid)
    checks.append(("identity symplectic", verify_symplectic(ident).max_residual, 1e-12))

    sq = ideal_squeezer_kernels(grid, u, 2.0)
    checks.append(("ideal squeezer symplectic", verify_symplectic(sq).max_residual, 1e-10))

    opo = build_opo(OpoParams(0.3, 1.0, GaussianPump(1.2, 0.0, 0.3)), grid)
    if corrupt:
        F = opo.F.copy()
        F[0, 1] += 0.1
        opo = BogoliubovKernels(opo.grid, F, opo.G)
    checks.append(("opo symplectic", verify_symplectic(opo).max_residual, 1e-5))

    fgrid = TemporalGrid(-8.0, 8.0, 256)
    opa = build_opa(OpaParams(0.4, 0.0, 2.0), fgrid)
    checks.append(("opa symplectic", verify_symplectic(opa).max_residual, 1e-10))

    # A resonant stage has real kernels, so its chain takes the two n x n block
    # powers; a detuned stage mixes x with p and takes the 2n x 2n power.
    for name, detuning in (("twpa symplectic", 0.0), ("detuned twpa symplectic", 0.3)):
        twpa = build_twpa(
            TwpaParams(OpoParams(detuning, 1.0, GaussianPump(1.0, 0.0, 0.2)), 100, 0.01),
            TemporalGrid(-10.0, 30.0, 256),
        )
        checks.append((name, verify_symplectic(twpa).max_residual, 1e-10))

    worst = 0.0
    for _ in range(5):
        raw = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
        v, _n = normalize(ModeFunction(grid, raw * np.exp(-grid.points**2 / 50.0)))
        pb = pullback_output_mode(opo, v)
        worst = max(worst, abs(pb.zeta**2 - pb.xi**2 - 1.0))
    checks.append(("pullback commutator", worst, 1e-12))

    d = decompose_output_mode(opo, u, u)
    checks.append(("decomposition commutator", abs(d.commutator() - 1.0), 1e-11))

    a, b, c = opo, sq, ident
    lhs = compose(a, compose(b, c))
    rhs = compose(compose(a, b), c)
    scale = max(np.abs(lhs.F).max(), 1.0)
    assoc = max(np.abs(lhs.F - rhs.F).max(), np.abs(lhs.G - rhs.G).max()) / scale
    checks.append(("compose associativity", assoc, 1e-8))

    passive = build_opo(OpoParams(0.0, 1.0, GaussianPump(0.0, 0.0, 0.5)), grid)
    from .kernels import apply_to_mode
    fu, _gu = apply_to_mode(passive, u)
    energy = abs(np.sum(np.abs(fu) ** 2) * grid.dt - 1.0)
    checks.append(("passive energy conservation", energy, 1e-11))

    mom = input_moments(fock_state(1, 30))
    g1 = g1_total(opo if not corrupt else sq, u, mom)
    sp = seeded_vacuum_split(opo if not corrupt else sq, u, mom)
    trace_err = abs(g1.trace() - (sp.seeded_total + sp.vacuum_total)) / max(g1.trace(), 1e-12)
    checks.append(("g1 trace consistency", trace_err, 1e-12))

    # A state without rotational symmetry, so the angular phases of the
    # Fock reconstruction are exercised.
    coh = coherent_state(1.0 + 0.5j, 20)
    rec = fock_from_char(char_of_state(coh), 20)
    checks.append(("char round trip (coherent)", float(np.abs(rec.rho - coh.rho).max()), 1e-6))

    dsq = decompose_output_mode(sq, u, u)
    from .charfun import propagate_char
    chi_out = propagate_char(dsq, char_of_state(vacuum_state(20)))
    vx = quadrature_variance(chi_out, 0.0)
    vp = quadrature_variance(chi_out, np.pi / 2.0)
    var_err = max(abs(vx - np.exp(4.0) / 2.0), abs(vp - np.exp(-4.0) / 2.0))
    checks.append(("squeezer output variances", var_err, 1e-3))
    return checks


def cmd_verify(corrupt: bool = False) -> int:
    checks = _verify_checks(corrupt)
    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, residual, tol in checks:
        ok = residual < tol
        failed += 0 if ok else 1
        print(f"{name:<{width}}  residual {residual:10.3e}  tol {tol:7.1e}  "
              f"{'PASS' if ok else 'FAIL'}")
    print(f"{len(checks) - failed}/{len(checks)} invariants hold")
    return 0 if failed == 0 else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pulse-squeeze",
        description="Quantum pulse transformations by parametric amplifiers",
    )
    parser.add_argument("command", choices=["modes", "state", "sweep", "verify"])
    parser.add_argument("--config", type=Path, help="YAML experiment config")
    parser.add_argument("--recipe", type=str, help="bundled recipe name (e.g. fig2a)")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument(
        "--corrupt-injection", action="store_true",
        help="verify only: corrupt a kernel to demonstrate failure reporting",
    )
    args = parser.parse_args(argv)

    if args.command == "verify":
        return cmd_verify(corrupt=args.corrupt_injection)

    try:
        if args.config is not None:
            cfg = load_config(args.config)
        elif args.recipe is not None:
            cfg = load_recipe(args.recipe)
        else:
            raise ConfigError("either --config or --recipe is required")
        validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    args.out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "modes":
            manifest = cmd_modes(cfg, args.out)
        elif args.command == "state":
            manifest = cmd_state(cfg, args.out)
        else:
            manifest = cmd_sweep(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    (args.out / "config_used.yaml").write_text(dump_config(cfg))
    manifest.add_file(args.out / "config_used.yaml")
    manifest.write(args.out / "manifest.json")
    print(f"wrote {len(manifest.files)} files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
