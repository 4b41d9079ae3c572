"""Config-driven experiment runner.

    pulse-squeeze <modes|state|sweep|verify> [--config FILE | --recipe NAME]
                  [--out DIR]

Commands emit CSV/JSON artifacts only (plotting is external) plus a
manifest listing every file with its checksum.  Identical configs produce
byte-identical data files at any worker and BLAS thread count; the manifest
carries wall-clock timestamps and is the one file excluded from that
guarantee.

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

from . import __version__, blas
from .config import (
    FLOAT_FORMAT,
    ConfigError,
    RunManifest,
    dump_config,
    dump_hash,
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

# Ladder occupations written per point in ``modes``' occupations.csv.
LADDER_COLUMNS = 8


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


def _modes_point(args, kernels: BogoliubovKernels):
    """One ``modes`` point on its device's kernels: its index, occupations
    row (n1, n2, ratio and the top ``LADDER_COLUMNS`` ladder occupations),
    spectrum record and dominant mode.  A failure raises."""
    index, cfg = args
    u = input_mode_from_config(cfg["input"], kernels.grid)
    state = input_state_from_config(cfg["input"])
    res = run_modes(kernels, u, state)
    sp = res.spectrum
    vac = [lam for lam, _ in sp.vacuum[:LADDER_COLUMNS]]
    vac += [0.0] * (LADDER_COLUMNS - len(vac))
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
    return index, row, record, (pool[0][1].amplitudes if pool else None)


def _device_worker(points):
    """One sweep pool task: build the device the ``(index, cfg)`` points
    share once, then run each point on its kernels.  A failed build is
    recorded for every point of the group."""
    cfg = points[0][1]
    try:
        kernels = device_from_config(cfg["device"], grid_from_config(cfg["grid"]))
    except Exception as exc:  # recorded per point, run continues
        return [(index, None, _error_text(exc)) for index, _ in points]
    return [_sweep_worker(point, kernels) for point in points]


def _modes_device(points):
    """One ``modes`` pool task: ``_device_worker`` without the recording; a
    failed build or point raises."""
    cfg = points[0][1]
    kernels = device_from_config(cfg["device"], grid_from_config(cfg["grid"]))
    return [_modes_point(point, kernels) for point in points]


def _workers() -> int:
    """Pool size: ``PULSE_SQUEEZE_WORKERS``, a positive integer, else the
    CPU count."""
    value = os.environ.get("PULSE_SQUEEZE_WORKERS")
    if not value:
        return os.cpu_count() or 1
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"PULSE_SQUEEZE_WORKERS must be a positive integer, got {value!r}")
    return workers


def _run_by_device(points: list, task, manifest: RunManifest) -> list:
    """Results of the ``(index, cfg)`` points, in index order.

    Points that share a device and grid share one build: one group per
    distinct device, in order of first appearance, and one ``task`` call per
    group, spread over at most ``_workers()`` processes, or run in-process
    when that comes to one.  A group's key is the canonical JSON of its
    device and grid blocks.  The pool size used goes to the manifest."""
    groups: dict[str, list] = {}
    for index, point in points:
        key = json.dumps({"device": point["device"], "grid": point["grid"]}, sort_keys=True)
        groups.setdefault(key, []).append((index, point))
    workers = min(_workers(), len(groups))
    manifest.environment["workers"] = workers
    if workers == 1:
        done = list(map(task, groups.values()))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(task, groups.values()))
    return sorted((point for group in done for point in group), key=lambda r: r[0])


def cmd_modes(cfg: dict, out: Path, digest: str) -> RunManifest:
    """Occupation spectra, optionally along one sweep axis."""
    axes = sweep_axes(cfg)
    if len(axes) > 1:
        raise ConfigError("modes supports at most one sweep axis")
    if axes and axes[0][0].startswith("grid."):
        raise ConfigError(f"sweep.axes[0]: modes writes one t column, cannot sweep {axes[0][0]}")
    manifest = RunManifest(config_hash=digest, tool_version=__version__)

    points = [(0, cfg)]
    axis_values = [None]
    if axes:
        name, values = axes[0]
        axis_values = [float(v) for v in values]
        points = [(i, set_by_path(cfg, name, v)) for i, v in enumerate(axis_values)]

    occ_rows = []
    spectra = []
    mode_columns = {}
    grid = grid_from_config(cfg["grid"])
    last = len(points) - 1
    for i, row, record, dominant in _run_by_device(points, _modes_device, manifest):
        axis_value = axis_values[i]
        occ_rows.append([axis_value if axis_value is not None else 0.0] + row)
        spectra.append({"axis_value": axis_value, **record})
        if (i == 0 or i == last) and dominant is not None:
            mode_columns[f"dominant_{'first' if i == 0 else 'last'}"] = dominant

    axis_name = axes[0][0] if axes else "point"
    meta = {
        "config": digest,
        "axis": axis_name,
        "grid": f"[{grid.t_start}, {grid.t_end}] x {grid.n_points}",
        "units": "occupations in photons",
    }
    _write_csv(
        out / "occupations.csv",
        meta,
        [axis_name, "n1", "n2", "ratio"] + [f"m{i+1}" for i in range(LADDER_COLUMNS)],
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


def cmd_state(cfg: dict, out: Path, digest: str) -> RunManifest:
    """Full state pipeline at a single parameter point."""
    manifest = RunManifest(config_hash=digest, tool_version=__version__)
    run = parse_config(cfg)
    if run.sweep:
        raise ConfigError(f"sweep.axes[0]: state runs one point, cannot sweep {run.sweep[0][0]}")
    kern = device_from_config(cfg["device"], run.grid)
    u = input_mode_from_config(cfg["input"], run.grid)
    state = input_state_from_config(cfg["input"])
    res = run_state_analysis(kern, u, state, run.output_mode, run.fock_dim)
    rho = res.rho_out.rho
    meta = {"config": digest, "dim": run.fock_dim}
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


def cmd_sweep(cfg: dict, out: Path, digest: str) -> RunManifest:
    """Two-axis occupation sweep producing n1 / ratio heatmaps."""
    axes = sweep_axes(cfg)
    if len(axes) != 2:
        raise ConfigError("sweep requires exactly two axes")
    manifest = RunManifest(config_hash=digest, tool_version=__version__)
    (name1, vals1), (name2, vals2) = axes

    points = [((i, j), set_by_path(set_by_path(cfg, name1, float(v1)), name2, float(v2)))
              for i, v1 in enumerate(vals1) for j, v2 in enumerate(vals2)]
    n1_map = np.full((len(vals1), len(vals2)), np.nan)
    ratio_map = np.full((len(vals1), len(vals2)), np.nan)
    for (i, j), metrics, error in _run_by_device(points, _device_worker, manifest):
        if error is not None:
            manifest.failures.append({"point": [int(i), int(j)], "error": error})
            continue
        n1_map[i, j] = metrics["n1"]
        ratio_map[i, j] = metrics.get("ratio", np.nan)

    meta = {
        "config": digest,
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


def _verify_checks():
    """Invariant suite: (name, residual, tolerance) triples."""
    from .coherence import g1_total, input_moments, seeded_vacuum_split
    from .decomposition import decompose_output_mode
    from .devices import GaussianPump, OpaParams, OpoParams, TwpaParams
    from .devices import build_opa, build_opo, build_twpa, default_opo_grid
    from .grids import ModeFunction, gaussian_mode, normalize
    from .kernels import compose, identity_kernels, ideal_squeezer_kernels, pullback_output_mode
    from .metrics import quadrature_variance
    from .states import coherent_state, fock_state, vacuum_state
    from .charfun import char_of_state, fock_from_char, propagate_char

    checks = []
    grid = default_opo_grid(1.0, 512)
    u = gaussian_mode(grid, 0.0, 1.0)
    rng = np.random.default_rng(11)

    ident = identity_kernels(grid)
    checks.append(("identity symplectic", verify_symplectic(ident).max_residual, 1e-12))

    sq = ideal_squeezer_kernels(grid, u, 2.0)
    checks.append(("ideal squeezer symplectic", verify_symplectic(sq).max_residual, 1e-10))

    opo = build_opo(OpoParams(0.3, 1.0, GaussianPump(1.2, 0.0, 0.3)), grid)
    checks.append(("opo symplectic", verify_symplectic(opo).max_residual, 1e-12))
    # At detuning 0 the OPO is a one-stage resonant chain: float64 kernels
    # held as f-circulant first columns, filled here for the check.
    resonant = build_opo(OpoParams(0.0, 1.0, GaussianPump(1.2, 0.0, 0.3)), grid)
    checks.append(("resonant opo symplectic", verify_symplectic(resonant).max_residual, 1e-12))

    fgrid = TemporalGrid(-8.0, 8.0, 256)
    opa = build_opa(OpaParams(0.4, 0.0, 2.0), fgrid)
    checks.append(("opa symplectic", verify_symplectic(opa).max_residual, 1e-10))

    # A resonant chain raises its stage's f-circulant symbol; a detuned stage
    # mixes x with p, so its chain takes the 2n x 2n quadrature power.
    twpa_grid = TemporalGrid(-10.0, 30.0, 256)
    chains = {}
    for name, detuning in (("twpa symplectic", 0.0), ("detuned twpa symplectic", 0.3)):
        chains[detuning] = build_twpa(
            TwpaParams(OpoParams(detuning, 1.0, GaussianPump(1.0, 0.0, 0.2)), 100, 0.01),
            twpa_grid)
        checks.append((name, verify_symplectic(chains[detuning]).max_residual, 1e-10))

    # A resonant cavity's FFT products against its filled kernels: F, G, F^T
    # and G^T on a complex vector and a 16-column block, each relative to the
    # largest entry of the product.
    worst = 0.0
    draws = np.random.default_rng(12)
    for k in (build_opo(OpoParams(0.0, 1.0, GaussianPump(1.2, 0.0, 0.3)), grid), chains[0.0]):
        n = k.grid.n_points
        vector = draws.normal(size=n) + 1j * draws.normal(size=n)
        for y in (vector, draws.normal(size=(n, 16))):
            for name in ("F", "G"):
                for transpose in (False, True):
                    dense = getattr(k, name)
                    want = (dense.T if transpose else dense) @ y
                    got = k.times(name, y, transpose)
                    worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
    checks.append(("resonant operator", worst, 1e-13))

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
    g1 = g1_total(opo, u, mom)
    sp = seeded_vacuum_split(opo, u, mom)
    trace_err = abs(g1.trace() - (sp.seeded_total + sp.vacuum_total)) / max(g1.trace(), 1e-12)
    checks.append(("g1 trace consistency", trace_err, 1e-12))

    # The coherent state's density matrix from its Gaussian terms, by the
    # closed-form Hermite recurrence; a state without rotational symmetry,
    # so the angular phases are exercised.
    coh = coherent_state(1.0 + 0.5j, 20)
    rec = fock_from_char(char_of_state(coh), 20)
    checks.append(("coherent rho closed form", float(np.abs(rec.rho - coh.rho).max()), 1e-6))
    # A Fock state has no Gaussian terms: its chi is sampled on a grid and
    # folded back to rho.  What it reads is the tail past the grid's edges.
    one = fock_state(1, 20)
    rec = fock_from_char(char_of_state(one), 20)
    checks.append(("fock-1 fold round trip", float(np.abs(rec.rho - one.rho).max()), 1e-6))

    dsq = decompose_output_mode(sq, u, u)
    chi_out = propagate_char(dsq, vacuum_state(20))
    vx = quadrature_variance(chi_out, 0.0)
    vp = quadrature_variance(chi_out, np.pi / 2.0)
    var_err = max(abs(vx - np.exp(4.0) / 2.0), abs(vp - np.exp(-4.0) / 2.0))
    checks.append(("squeezer output variances", var_err, 1e-3))
    return checks


def cmd_verify() -> int:
    checks = _verify_checks()
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
    args = parser.parse_args(argv)

    if args.command == "verify":
        try:
            return cmd_verify()
        except Exception as exc:
            print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2

    try:
        if args.config is not None and args.recipe is not None:
            raise ConfigError("--config and --recipe: give one of the two, not both")
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

    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 1
    # One BLAS thread per process: the data files' bits then do not depend
    # on the thread count, and each pool worker keeps to its own core.
    # One dump gives the config's hash and the text of config_used.yaml.
    command = {"modes": cmd_modes, "state": cmd_state, "sweep": cmd_sweep}[args.command]
    try:
        with blas.one_blas_thread():
            text = dump_config(cfg)
            manifest = command(cfg, args.out, dump_hash(text))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    (args.out / "config_used.yaml").write_text(text)
    manifest.add_file(args.out / "config_used.yaml")
    manifest.write(args.out / "manifest.json")
    print(f"wrote {len(manifest.files)} files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
