"""Record `reference.json`: the gate's reference values for every point the
workloads can draw.

    python3 perfbench/record_reference.py

Runs, through the same child process as the benchmark, the full 16 x 16
fig3ab sweep, all 16 fig3ef total gains on the modes-twpa config, and the
fig4 state recipe.  Run it only on a commit whose outputs are trusted: the
gate compares every later run against what it writes.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run

sys.path.insert(0, str(run.SRC))
from pulse_squeeze.config import sweep_axes  # noqa: E402


def main() -> int:
    (_, centers), (_, widths) = sweep_axes(run._recipe("fig3ab"))
    _, (_, gains) = sweep_axes(run._recipe("fig3ef"))
    axes = {
        "fig3ab.centers": [float(v) for v in centers],
        "fig3ab.widths": [float(v) for v in widths],
        "fig3ef.gains": [float(v) for v in gains],
    }
    reference = {"axes": axes, "commit": run._commit(), "source_sha256": run._source_digest()}
    for name, spec in run.WORKLOADS.items():
        out_dir = run.OUT / "reference" / name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        cfg = run.workload_config(name, axes, lambda values, _k: values)
        args = run.cli_args(spec["command"], run.write_config(cfg, out_dir), out_dir / "out")
        rec = run.run_child("plain", args, run.child_env(spec["env"]), out_dir)
        if rec.get("exit_code") != 0:
            print(f"{name}: command failed ({rec.get('exit_code')}); see {out_dir}",
                  file=sys.stderr)
            return 1
        values = gate.read_outputs(spec["command"], out_dir / "out")
        problems = gate.invariant_problems(values)
        if problems:
            print(f"{name}: invariants violated: {problems[:5]}", file=sys.stderr)
            return 1
        values.pop("rho.hermiticity", None)
        reference[name] = values
        print(f"{name}: {len(values)} reference values in {rec['wall_s']:.1f} s")
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
