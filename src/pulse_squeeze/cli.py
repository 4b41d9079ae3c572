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
import pickle
import signal
import sys
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
from .coherence import input_moments, single_mode_condition
from .grids import TemporalGrid, gaussian_mode
from .kernels import BogoliubovKernels, apply_to_block, verify_symplectic
from .pipeline import (
    device_from_config,
    grid_from_config,
    input_mode_from_config,
    input_state_from_config,
    modes_from_images,
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
    %-format of its values, the format built once per sequence of value types,
    and written as it is formatted.  An ndarray's rows are formatted from
    their ``tolist()``, one row at a time: Python floats format faster than
    numpy scalars, to the same bytes."""
    if isinstance(rows, np.ndarray):
        rows = map(np.ndarray.tolist, rows)
    formats = {}
    with open(path, "w") as out:
        for k, v in header_meta.items():
            out.write(f"# {k}: {v}\n")
        out.write(",".join(columns) + "\n")
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            if types not in formats:
                formats[types] = ",".join(FLOAT_FORMAT if issubclass(t, (float, np.floating))
                                          else "%s" for t in types) + "\n"
            out.write(formats[types] % row)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _state_moments(block: dict):
    """Moments of the state an ``input`` block sets, or the exception that
    stopped them."""
    try:
        return input_moments(input_state_from_config(block))
    except Exception as exc:  # recorded for every point of this state
        return exc


def _group_inputs(points: list, kernels: BogoliubovKernels) -> list:
    """Per ``(index, cfg)`` point on ``kernels``, in order: its pulse's images
    and its input's moments ``(fu, gu, moments)``, or the exception that
    stopped it.

    One block of work for the group: each point's ``input`` block is parsed
    once, the state and moments of each distinct ``input.state`` block are
    built once (through ``input_state_from_config``, the name perfbench
    traces as the state build), and the points' pulses, stacked as the
    columns of one block, take one F and one G product (``apply_to_block``).
    A point whose input fails to parse or whose state fails to build keeps
    its own exception; one raised by the block product is that of every
    other point."""
    grid = kernels.grid
    states, columns, inputs = {}, [], []
    for _, cfg in points:
        try:
            pulse = parse_config(cfg["input"], "input").pulse
            key = json.dumps(cfg["input"]["state"], sort_keys=True)
            if key not in states:
                states[key] = _state_moments(cfg["input"])
            moments = states[key]
            if isinstance(moments, Exception):
                given = moments
            else:
                columns.append(gaussian_mode(grid, pulse.center, pulse.width).amplitudes)
                given = (len(columns) - 1, moments)
        except Exception as exc:  # recorded per point
            given = exc
        inputs.append(given)
    if not columns:
        return inputs
    try:
        fu, gu = apply_to_block(kernels, np.column_stack(columns))
    except Exception as exc:  # recorded for every point of the block
        return [given if isinstance(given, Exception) else exc for given in inputs]
    return [given if isinstance(given, Exception) else (fu[:, given[0]], gu[:, given[0]], given[1])
            for given in inputs]


def _device_group(points: list) -> tuple:
    """The kernels of the device the ``(index, cfg)`` points share, built
    once, and each point's ``_group_inputs``; a failed build is every
    point's exception, with no kernels."""
    cfg = points[0][1]
    try:
        kernels = device_from_config(cfg["device"], grid_from_config(cfg["grid"]))
    except Exception as exc:  # recorded for every point of the group
        return None, [exc] * len(points)
    return kernels, _group_inputs(points, kernels)


def _sweep_worker(args, kernels: BogoliubovKernels | None, inputs):
    """Occupation metrics of one sweep point from its ``_group_inputs`` on
    its device's kernels, as ``(index, metrics, None)``, or ``(index, None,
    error)`` when its device, input or split failed.  It runs once per
    point, looked up by name: perfbench's traced runs wrap it for their
    per-point spans."""
    index, _cfg = args
    if isinstance(inputs, Exception):
        return index, None, _error_text(inputs)
    try:
        return index, modes_from_images(kernels, *inputs).metrics, None
    except Exception as exc:  # recorded per point, run continues
        return index, None, _error_text(exc)


def _modes_point(args, kernels: BogoliubovKernels | None, inputs):
    """One ``modes`` point from its ``_group_inputs`` on its device's
    kernels: its index, occupations row (n1, n2, ratio and the top
    ``LADDER_COLUMNS`` ladder occupations), spectrum record and dominant
    mode.  A failure, its own or its device's, raises."""
    index, _cfg = args
    if isinstance(inputs, Exception):
        raise inputs
    res = modes_from_images(kernels, *inputs)
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
    """One sweep pool task: one device group as one block of work
    (``_device_group``), then ``_sweep_worker`` once per point, which
    records a failure for its point alone; a failed build or block product
    is recorded for every point it stopped."""
    kernels, inputs = _device_group(points)
    return [_sweep_worker(point, kernels, given) for point, given in zip(points, inputs)]


def _modes_device(points):
    """One ``modes`` pool task: ``_device_worker`` with ``_modes_point``,
    which raises the first failed point's error, in point order."""
    kernels, inputs = _device_group(points)
    return [_modes_point(point, kernels, given) for point, given in zip(points, inputs)]


def _workers() -> int:
    """The most helpers a run forks: ``PULSE_SQUEEZE_WORKERS``, a positive
    integer, else the CPU count.  ``_run_by_device`` forks no more than the
    run has device groups, and none for a few light ones."""
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


# A ticket is one item's index in this many little-endian bytes.  The parent
# writes them in chunks of at most POSIX's smallest PIPE_BUF, a multiple of
# the ticket width, and a pipe writes such a chunk whole, so every read of one
# ticket's width returns one whole ticket to exactly one helper.
_TICKET_BYTES = 4
_TICKET_CHUNK = 512


def _helper(task, items: list, tickets: int, results: int) -> None:
    """A forked helper: run ``task`` on the item of each ticket it reads, one
    at a time, and once the tickets run out send its ``(index, ok, result or
    exception)`` list, pickled, through the ``results`` pipe."""
    done = []
    while ticket := os.read(tickets, _TICKET_BYTES):
        index = int.from_bytes(ticket, "little")
        try:
            done.append((index, True, task(items[index])))
        except Exception as exc:  # re-raised by the parent
            done.append((index, False, exc))
    with open(results, "wb") as pipe:
        pickle.dump(done, pipe)


def _fork_map(task, items: list, workers: int) -> list:
    """``list(map(task, items))`` over ``workers`` forked helpers.

    The helpers share one ticket pipe, so each item runs in exactly one of
    them and an uneven workload keeps every helper busy; each sends its
    results through its own pipe.  The tickets are written after forking,
    so the pipe's capacity does not bound the number of items.  The first
    item whose task raised, in item order, re-raises its exception here; a
    helper that ends without sending its results raises a ``RuntimeError``
    with its exit status (negative: the signal that ended it).  Every helper
    is reaped, and killed first if the parent fails, so none outlives the
    call."""
    tickets_read, tickets_write = os.pipe()
    helpers = {}  # pid -> read end of the helper's result pipe
    try:
        for _ in range(workers):
            results_read, results_write = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(tickets_write)
                    os.close(results_read)
                    _helper(task, items, tickets_read, results_write)
                    code = 0
                finally:
                    os._exit(code)
            os.close(results_write)
            helpers[pid] = results_read
        tickets = b"".join(i.to_bytes(_TICKET_BYTES, "little") for i in range(len(items)))
        try:
            for start in range(0, len(tickets), _TICKET_CHUNK):
                os.write(tickets_write, tickets[start:start + _TICKET_CHUNK])
        except BrokenPipeError:
            pass  # every helper has ended; their exit statuses say why
        os.close(tickets_write)
        tickets_write = None
        outcomes = [None] * len(items)
        for pid in list(helpers):
            with open(helpers[pid], "rb") as pipe:
                helpers[pid] = None  # closed with the file
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del helpers[pid]
            if status or not payload:
                raise RuntimeError(
                    f"a worker process ended without its results (exit status {status})")
            for index, ok, value in pickle.loads(payload):
                outcomes[index] = (ok, value)
    finally:
        os.close(tickets_read)
        if tickets_write is not None:
            os.close(tickets_write)
        for pid, fd in helpers.items():
            if fd is not None:
                os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _resonant(device: dict) -> bool:
    """Whether a ``device`` block is a resonant OPO, or a TWPA of resonant
    stages: kernels built in closed form by ``devices._resonant_chain``."""
    stage = (device.get("stage") or {}) if device.get("kind") == "twpa" else device
    return device.get("kind") in ("opo", "twpa") and not stage.get("detuning")


def _run_by_device(points: list, task, manifest: RunManifest, light: bool = False) -> list:
    """Results of the ``(index, cfg)`` points, in index order.

    Points that share a device and grid share one build: one group per
    distinct device, in order of first appearance, and one ``task`` call per
    group, spread over at most ``_workers()`` forked helpers by
    ``_fork_map``, or run in-process when that comes to one or the platform
    cannot fork.  Fewer than four ``light`` groups run in-process too: a
    sweep group on a resonant device takes about 5 ms (fig3ab, n = 512),
    less than a helper adds (about 4 ms to fork two and 3 ms more for a
    fresh helper's first group, on 2 cores).  Heavier groups, such as
    fig2a's ladders or an OPA build (30-460 ms), still gain from two
    helpers.  A group's key is the canonical JSON of its device and grid
    blocks.  The number of helpers, 1 for in-process, goes to the manifest."""
    groups: dict[str, list] = {}
    for index, point in points:
        key = json.dumps({"device": point["device"], "grid": point["grid"]}, sort_keys=True)
        groups.setdefault(key, []).append((index, point))
    workers = min(_workers(), len(groups))
    if (light and len(groups) < 4) or not hasattr(os, "fork"):
        workers = 1
    manifest.environment["workers"] = workers
    tasks = list(groups.values())
    done = list(map(task, tasks)) if workers == 1 else _fork_map(task, tasks, workers)
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
    parts = [part for k in sorted(mode_columns)
             for part in (mode_columns[k].real, mode_columns[k].imag)]
    _write_csv(out / "modes.csv", meta, mode_cols, np.column_stack([grid.points] + parts))
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
    _write_csv(out / "rho_re.csv", meta, columns, rho.real)
    _write_csv(out / "rho_im.csv", meta, columns, rho.imag)
    wig = wigner_for_display(res.chi_out)
    wig_meta = dict(meta)
    wig_meta["x_axis"] = f"[{wig.x_axis[0]}, {wig.x_axis[-1]}] x {len(wig.x_axis)}"
    wig_meta["convention"] = "a=(x+ip)/sqrt2, int W dx dp = 1"
    _write_csv(out / "wigner.csv", wig_meta, [f"p{j}" for j in range(len(wig.p_axis))],
               wig.values)
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
    light = all(_resonant(point["device"]) for _, point in points)
    for (i, j), metrics, error in _run_by_device(points, _device_worker, manifest, light):
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
               [[vals1[i]] + n1_map[i].tolist() for i in range(len(vals1))])
    _write_csv(out / "heatmap_ratio.csv", meta, [name2] + [_fmt(v) for v in vals2],
               [[vals1[i]] + ratio_map[i].tolist() for i in range(len(vals1))])
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
    from .kernels import (apply_to_mode, compose, identity_kernels, ideal_squeezer_kernels,
                          pullback_output_mode)
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
    fu, _gu = apply_to_mode(passive, u)
    energy = abs(np.sum(np.abs(fu) ** 2) * grid.dt - 1.0)
    checks.append(("passive energy conservation", energy, 1e-11))

    mom = input_moments(fock_state(1, 30))
    g1 = g1_total(opo, u, mom)
    sp = seeded_vacuum_split(opo, *apply_to_mode(opo, u), mom)
    trace_err = abs(g1.trace() - (sp.seeded_total + sp.vacuum_total)) / max(g1.trace(), 1e-12)
    checks.append(("g1 trace consistency", trace_err, 1e-12))

    # The coherent state's density matrix from its Gaussian terms, by the
    # closed-form Hermite recurrence; a state without rotational symmetry,
    # so the angular phases are exercised.
    coh = coherent_state(1.0 + 0.5j, 20)
    rec = fock_from_char(char_of_state(coh), 20)
    checks.append(("coherent rho closed form", float(np.abs(rec.rho - coh.rho).max()), 1e-6))
    # A Fock state has no Gaussian terms: its rho comes back through the
    # identity channel from the four-index Hermite recurrence on its own rho.
    one = fock_state(1, 20)
    rec = fock_from_char(char_of_state(one), 20)
    checks.append(("fock-1 rho closed form", float(np.abs(rec.rho - one.rho).max()), 1e-12))

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
