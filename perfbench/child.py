"""One benchmark repetition: a single `pulse_squeeze.cli.main` call in a fresh interpreter.

    python3 child.py RESULT_JSON MODE -- CLI_ARGS...

MODE is `plain` (time the command), `setup` (stop once the config is
validated, to sample set-up time alone) or `trace` (also record a span
around every call into the layers listed in LAYER_CALLS).  The result file
holds monotonic timestamps, so the parent, which noted the clock before
starting this process, can compute the set-up time including interpreter
start and imports.  Spans are kept in memory and written once, at the end.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
import warnings
from pathlib import Path

from pulse_squeeze import cli, config, pipeline

# (module, attribute, span name).  Each attribute is the name the caller
# looks up at call time, so wrapping it here sees every call on the CLI path.
LAYER_CALLS = [
    (cli, "load_recipe", "config.load"),
    (cli, "load_config", "config.load"),
    (cli, "device_from_config", "devices.build"),
    (cli, "input_state_from_config", "states.build"),
    (pipeline, "seeded_vacuum_split", "coherence.split"),
    (pipeline, "decompose_output_mode", "decomposition.decompose"),
    (pipeline, "char_of_state", "charfun.char_of_state"),
    (pipeline, "propagate_char", "charfun.propagate"),
    (pipeline, "fock_from_char", "charfun.fock"),
    (pipeline, "wigner_from_char", "charfun.wigner"),
    (pipeline, "align_amplified_axis", "pipeline.align"),
    (pipeline, "optimize_squeeze_fidelity", "metrics.squeeze_fit"),
    (pipeline, "purity", "metrics.moments"),
    (pipeline, "mean_photon_number", "metrics.moments"),
    (cli, "_write_csv", "cli.write"),
    (cli, "_write_json", "cli.write"),
]


def _device_key(args, _out):
    device, grid = args
    return {"key": config.config_hash(
        {"device": device, "grid": [grid.t_start, grid.t_end, grid.n_points]})}


# Counts recorded on a span, from the call's arguments and return value.
SPAN_COUNTS = {
    "devices.build": _device_key,
    "charfun.propagate": lambda _a, out: {"grid_points": out.grid.n_side ** 2},
    "metrics.squeeze_fit": lambda _a, out: {"evals": len(out.fidelity_curve)},
    "cli.write": lambda a, _out: {"bytes": Path(a[0]).stat().st_size},
}


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS this process loaded, by library file."""
    threads = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[Path(path).name] = getter()
                break
    return threads


class SetupDone(BaseException):
    """Raised in `setup` mode once the command is ready for its first point.

    A BaseException, so the CLI's own `except` clauses let it through."""


class Tracer:
    """In-memory spans: name, start, end, parent index and point id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.point = None

    def wrap(self, name, fn, starts_point=None):
        counts = SPAN_COUNTS.get(name)

        def traced(*args, **kwargs):
            if starts_point is not None:
                self.point = starts_point(args)
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "point": self.point, "start": time.perf_counter()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, out))
            return out

        return traced

    def install(self, command: str) -> None:
        for module, attr, name in LAYER_CALLS:
            starts_point = None
            if attr == "device_from_config" and command != "sweep":
                # modes and state build one device per point, first thing.
                starts_point = lambda _a: 0 if self.point is None else self.point + 1
            setattr(module, attr, self.wrap(name, getattr(module, attr), starts_point))
        if command == "sweep":
            cli._sweep_worker = self.wrap(
                "cli.point", cli._sweep_worker, lambda a: list(a[0][0]))


def main(argv: list[str]) -> int:
    result_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "setup", "trace"):
        raise SystemExit("usage: child.py RESULT_JSON plain|setup|trace -- CLI_ARGS...")
    result = {"mode": mode}

    validate = cli.validate_config

    def validate_and_mark(cfg):
        validate(cfg)
        result["ready"] = time.monotonic()
        if mode == "setup":
            raise SetupDone

    cli.validate_config = validate_and_mark
    tracer = Tracer()
    main_call = cli.main
    if mode == "trace":
        tracer.install(cli_args[0])
        main_call = tracer.wrap("cli.main", cli.main)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result["exit_code"] = main_call(cli_args)
        except SetupDone:
            result["exit_code"] = 0
        result["wall_s"] = time.perf_counter() - start
    result["warnings"] = [str(w.message) for w in caught]
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers joined pool workers.
    result["peak_rss_kib"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["blas_threads"] = _blas_threads()
    if mode == "trace":
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
