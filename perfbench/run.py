"""Benchmark of the pulse-squeeze command line, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/`.  Every repetition is a fresh interpreter (`child.py`) that calls
`pulse_squeeze.cli.main` once, so each pays the import a user pays and no
in-memory state carries over.  Repetitions are back to back (a closed loop
of one batch caller) until `--seconds` have passed.  Every point's output
goes through the correctness gate (`gate.py`).

With `--trace 0` the last stdout line carries the end-to-end metrics
(`wall_s`, `setup_s`, `peak_rss_mb`); with `--trace 1` the per-layer
metrics from traced repetitions.  Full results, environment and spans are
written under `.perfbench_out/`.  `LAYERS.md` maps each layer metric to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import yaml

import gate

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RECIPES = SRC / "pulse_squeeze" / "recipes"
OUT = ROOT / ".perfbench_out"
# A run must end within 180 s: children still running at this point are killed.
RUN_LIMIT_S = 170.0
SETUP_PROBES = 3

# Every workload uses at most 2 compute threads in total (2-core machine).
# sweep-opo pins one BLAS thread per pool worker: with default threads,
# 2 workers x 2 spinning OpenBLAS threads made 16 points take 11.9-83.1 s.
WORKLOADS = {
    "sweep-opo": {
        "command": "sweep",
        "env": {"PULSE_SQUEEZE_WORKERS": "2", "OPENBLAS_NUM_THREADS": "1"},
        # Traced with one worker, so every span lands in the traced process.
        "trace_env": {"PULSE_SQUEEZE_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1"},
    },
    "state-cat": {"command": "state", "env": {}, "trace_env": {}},
    "modes-twpa": {"command": "modes", "env": {}, "trace_env": {}},
}
LAYOUT_VARS = ("PULSE_SQUEEZE_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
LAYERS = ("cli", "config", "devices", "states", "coherence", "decomposition",
          "charfun", "pipeline", "metrics")


def _recipe(name: str) -> dict:
    return yaml.safe_load((RECIPES / f"{name}.yaml").read_text())


def workload_config(name: str, axes: dict, pick) -> dict | None:
    """The config a workload runs (None: the fig4 recipe as shipped).

    `pick(values, k)` chooses k values of an axis: 2 of fig3ab's 16 pump
    widths for sweep-opo, 4 of fig3ef's 16 total gains for modes-twpa.
    """
    if name == "sweep-opo":
        cfg = _recipe("fig3ab")
        cfg["sweep"]["axes"] = [
            {"name": "input.pulse.center", "values": axes["fig3ab.centers"]},
            {"name": "device.pump.width", "values": pick(axes["fig3ab.widths"], 2)},
        ]
        return cfg
    if name == "modes-twpa":
        cfg = _recipe("fig3ef")
        cfg["grid"]["n_points"] = 512  # n_stages = 100 keeps the re-projection path
        cfg["sweep"]["axes"] = [
            {"name": "device.total_gain", "values": pick(axes["fig3ef.gains"], 4)}]
        return cfg
    return None


def seeded_pick(seed: int):
    rng = random.Random(seed)
    return lambda values, k: sorted(rng.sample(values, k))


def cli_args(command: str, config_path: Path | None, out: Path) -> list[str]:
    source = ["--recipe", "fig4"] if config_path is None else ["--config", str(config_path)]
    return [command, *source, "--out", str(out)]


def write_config(cfg: dict | None, directory: Path) -> Path | None:
    if cfg is None:
        return None
    path = directory / "config.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path


def _points(cfg: dict | None) -> int:
    if cfg is None:
        return 1
    count = 1
    for axis in cfg["sweep"]["axes"]:
        count *= len(axis["values"])
    return count


def child_env(layout: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in LAYOUT_VARS}
    env.update(layout)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(mode: str, cli_args: list[str], env: dict, rep_dir: Path,
              timeout: float = RUN_LIMIT_S) -> dict:
    """One fresh interpreter calling cli.main; returns its result record."""
    result_path = rep_dir / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode, "--", *cli_args]
    with open(rep_dir / "child.log", "w") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        return {"exit_code": proc.returncode or -1, "child_failed": True}
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - launched if "ready" in result else None
    return result


class Repetitions:
    """Runs and gates the repetitions of one workload, keeping every record."""

    def __init__(self, name: str, seed: int, reference: dict):
        self.spec = WORKLOADS[name]
        self.command = self.spec["command"]
        self.cfg = workload_config(name, reference["axes"], seeded_pick(seed))
        self.points = _points(self.cfg)
        self.reference = reference[name]
        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = write_config(self.cfg, self.dir)
        self.records = []
        self.problems = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, mode: str, layout: dict) -> dict:
        rep_dir = self.dir / f"rep{len(self.records):02d}-{mode}"
        rep_dir.mkdir()
        out = rep_dir / "out"
        rec = run_child(mode, cli_args(self.command, self.config_path, out), child_env(layout),
                        rep_dir, timeout=max(1.0, self.deadline - time.monotonic()))
        rec["layout"] = layout
        if mode != "setup":
            rec["failed_points"] = self._gate(rec, out)
        self.records.append(rec)
        return rec

    def _gate(self, rec: dict, out: Path) -> int:
        if rec.get("exit_code") != 0:
            self.problems.append(f"exit code {rec.get('exit_code')}")
            return self.points
        try:
            values, problems = gate.check(self.command, out, self.reference)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
            return self.points
        _, caught = gate.check(self.command, out, gate.perturbed(self.reference, values))
        if not caught:
            self.problems.append("gate accepted a perturbed reference value")
        failed = {gate.point_of(key) for key, _ in problems}
        manifest = json.loads((out / "manifest.json").read_text())
        for failure in manifest["failures"]:
            i, j = failure["point"]
            axes = self.cfg["sweep"]["axes"]
            failed.add(f"{axes[0]['values'][i]!r},{axes[1]['values'][j]!r}")
            problems.append((str(failure["point"]), failure["error"]))
        self.problems += [f"{key}: {message}" for key, message in problems]
        rec["values_checked"] = len(values)
        return len(failed)

    def gated(self) -> list[dict]:
        """Every repetition that ran points (all but the set-up probes)."""
        return [r for r in self.records if "failed_points" in r]


def measure(reps: Repetitions, seconds: float) -> dict:
    """Untraced repetitions for `seconds`, plus set-up-only probes."""
    env = reps.spec["env"]
    for _ in range(SETUP_PROBES):
        reps.run("setup", env)
    start = time.monotonic()
    while True:
        reps.run("plain", env)
        if time.monotonic() - start >= seconds:
            break
    plain = [r for r in reps.gated() if "wall_s" in r]
    setups = [r["setup_s"] for r in reps.records if r.get("setup_s") is not None]
    if not plain:
        return {}
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_kib"] for r in plain) / 1024.0,
    }


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], rec: dict, workers: int, wall: float) -> dict:
    def busy(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def total(name, field):
        return sum(s[field] for s in spans if s["name"] == name)

    root = next(s for s in spans if s["name"] == "cli.main")
    traced_wall = root["end"] - root["start"]
    # Work done inside points: the outermost span of each point (sweep:
    # cli.point; modes/state: the layer calls the command makes per point).
    point_work = sum(s["end"] - s["start"] for s in spans
                     if s["point"] is not None and s["name"] not in ("cli.write", "config.load")
                     and (s["parent"] is None or spans[s["parent"]]["point"] is None))
    m = {
        "devices.build.calls": calls("devices.build"),
        "devices.build.distinct": len({s["key"] for s in spans if s["name"] == "devices.build"}),
        "devices.build.busy_s": busy("devices.build"),
        "coherence.split.calls": calls("coherence.split"),
        "coherence.split.busy_s": busy("coherence.split"),
        "decomposition.decompose.calls": calls("decomposition.decompose"),
        "decomposition.decompose.busy_s": busy("decomposition.decompose"),
        "charfun.char_of_state.busy_s": busy("charfun.char_of_state"),
        "charfun.propagate.busy_s": busy("charfun.propagate"),
        "charfun.propagate.grid_points": total("charfun.propagate", "grid_points"),
        "charfun.fock.busy_s": busy("charfun.fock"),
        "charfun.wigner.busy_s": busy("charfun.wigner"),
        "pipeline.align.busy_s": busy("pipeline.align"),
        "metrics.squeeze_fit.busy_s": busy("metrics.squeeze_fit"),
        "metrics.squeeze_fit.evals": total("metrics.squeeze_fit", "evals"),
        "metrics.moments.busy_s": busy("metrics.moments"),
        "cli.write.busy_s": busy("cli.write"),
        "cli.write.bytes": total("cli.write", "bytes"),
        "cli.sweep.efficiency": point_work / (workers * wall),
        "config.load.busy_s": busy("config.load"),
        "states.build.busy_s": busy("states.build"),
        "run.warnings": len(rec["warnings"]),
        "run.failed_points": rec["failed_points"],
        "trace.wall_s": traced_wall,
        "trace.spans": len(spans),
    }
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own)
                                   if s["name"].split(".")[0] == layer)
    return m


def measure_traced(reps: Repetitions, seconds: float) -> dict:
    """Traced repetitions for `seconds`, after the untraced ones they are compared with.

    `trace.overhead` compares traced and untraced runs in the same layout.
    `cli.sweep.efficiency` divides the traced point work by the workers
    times the wall time in the workload's own layout: the untraced one where
    the traced layout differs (sweep-opo), else the traced repetition's own.
    """
    env, trace_env = reps.spec["env"], reps.spec["trace_env"]
    start = time.monotonic()
    untraced_wall = reps.run("plain", env).get("wall_s")
    same_layout_wall = (untraced_wall if trace_env == env
                        else reps.run("plain", trace_env).get("wall_s"))
    if untraced_wall is None or same_layout_wall is None:
        return {}
    workers = int(env.get("PULSE_SQUEEZE_WORKERS", "1")) if reps.command == "sweep" else 1
    per_rep = []
    while True:
        rec = reps.run("trace", trace_env)
        if "spans" in rec:
            own_layout_wall = untraced_wall if trace_env != env else rec["wall_s"]
            m = layer_metrics(rec["spans"], rec, workers, own_layout_wall)
            m["trace.overhead"] = rec["wall_s"] / same_layout_wall - 1.0
            accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS)
            if abs(accounted - m["trace.wall_s"]) > 1e-6 * m["trace.wall_s"]:
                reps.problems.append(f"self times sum to {accounted}, traced wall "
                                     f"{m['trace.wall_s']}")
            per_rep.append(m)
            (reps.dir / f"spans{len(per_rep)}.json").write_text(json.dumps(rec["spans"]))
        if time.monotonic() - start >= seconds:
            break
    return {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]} if per_rep else {}


def environment(reps: Repetitions) -> dict:
    blas = {}
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (ImportError, KeyError, TypeError):
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": {mode: next((r["blas_threads"] for r in reps.records
                                     if r.get("layout") == reps.spec[mode] and "blas_threads" in r),
                                    None) for mode in ("env", "trace_env")},
        "layouts": {mode: reps.spec[mode] for mode in ("env", "trace_env")},
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """Identifies the measured code where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


UNITS = {"_s": "s", "_mb": "MB", ".bytes": "bytes", ".efficiency": "ratio",
         ".overhead": "ratio", ".grid_points": "count"}


def unit_of(metric: str) -> str:
    return next((u for suffix, u in UNITS.items() if metric.endswith(suffix)), "count")


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    reps = Repetitions(name, seed, reference)
    metrics = (measure_traced if trace else measure)(reps, seconds)
    gated = reps.gated()
    attempted = reps.points * len(gated) or reps.points
    failed = sum(r["failed_points"] for r in gated) if gated else attempted
    report = {
        "workload": name, "seed": seed, "trace": trace, "points_per_rep": reps.points,
        "attempted": attempted, "failed": failed, "problems": reps.problems[:50],
        "metrics": metrics, "environment": environment(reps), "records": reps.records,
    }
    (reps.dir / "result.json").write_text(json.dumps(report, indent=1, default=str))
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{len(gated)} repetitions of {reps.points} points)")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    for problem in reps.problems[:20]:
        print(f"  FAIL {problem}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:14.6g} {unit_of(key)}")
    print(f"  points failed / attempted: {failed} / {attempted}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pulse_squeeze" / "cli.py").is_file():
        print(f"error: no pulse_squeeze sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    reference = gate.load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), reference)
               for n in names]
    if any(not r["metrics"] for r in reports):
        print("error: no repetition completed; see .perfbench_out/", file=sys.stderr)
        return 1
    prefix = len(reports) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + k: {"value": v, "unit": unit_of(k)}
               for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["problems"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
