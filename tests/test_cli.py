import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from pulse_squeeze import cli
from pulse_squeeze.config import (
    ConfigError,
    config_hash,
    dump_config,
    load_recipe,
    set_by_path,
    sweep_axes,
    validate_config,
)


def _base_config(**overrides):
    cfg = {
        "device": {"kind": "squeezer", "r": 0.8, "center": 0.0, "width": 1.0},
        "grid": {"t_start": -10.0, "t_end": 30.0, "n_points": 128},
        "input": {
            "state": {"kind": "coherent", "alpha": 1.5, "dim": 40},
            "pulse": {"center": 0.0, "width": 1.0},
        },
        "output_mode": "auto_v1",
    }
    cfg.update(overrides)
    return cfg


class TestConfig:
    def test_round_trip_identity(self):
        cfg = load_recipe("fig2b")
        assert yaml.safe_load(dump_config(cfg)) == cfg
        assert config_hash(cfg) == config_hash(yaml.safe_load(dump_config(cfg)))

    def test_all_recipes_validate(self):
        for name in ("fig2a", "fig2b", "fig3ab", "fig3cd", "fig3ef", "fig4"):
            validate_config(load_recipe(name))

    def test_unknown_recipe_lists_available(self):
        with pytest.raises(ConfigError, match="fig2a"):
            load_recipe("fig9")

    def test_unknown_device_parameter_rejected(self):
        cfg = _base_config()
        cfg["device"]["detuning"] = 1.0  # not a squeezer parameter
        with pytest.raises(ConfigError, match="device.detuning"):
            validate_config(cfg)

    def test_sweep_name_must_resolve(self):
        cfg = _base_config(sweep={"axes": [{"name": "device.pump.width",
                                            "start": 0.1, "stop": 1.0, "points": 3}]})
        with pytest.raises(ConfigError, match="does not exist"):
            validate_config(cfg)

    def test_at_most_two_axes(self):
        ax = {"name": "device.r", "start": 0.1, "stop": 1.0, "points": 2}
        cfg = _base_config(sweep={"axes": [ax, ax, ax]})
        with pytest.raises(ConfigError, match="two sweep axes"):
            validate_config(cfg)

    def test_axis_values_log_and_linear(self):
        cfg = _base_config(sweep={"axes": [
            {"name": "device.r", "start": 0.1, "stop": 10.0, "points": 3, "log": True}
        ]})
        (_, vals), = sweep_axes(cfg)
        assert np.allclose(vals, [0.1, 1.0, 10.0])

    def test_set_by_path_is_pure(self):
        cfg = _base_config()
        out = set_by_path(cfg, "device.r", 2.0)
        assert out["device"]["r"] == 2.0
        assert cfg["device"]["r"] == 0.8


class TestCliCommands:
    def test_missing_config_is_validation_error(self, capsys):
        assert cli.main(["modes"]) == 1
        assert "config" in capsys.readouterr().err

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("device: {kind: flux_capacitor}\n")
        assert cli.main(["modes", "--config", str(path)]) == 1
        short_mode = tmp_path / "short.csv"
        short_mode.write_text("\n".join(f"{t},1.0,0.0" for t in range(10)))

        def axis(**spec):
            return {"sweep": {"axes": [{"name": "device.r", **spec}]}}

        # malformed settings are config errors, caught before any compute
        cases = [
            ("state", "fock_dim", {"fock_dim": 0}),
            ("state", "fock_dim", {"fock_dim": 80}),
            ("state", "input.state", {"input": {"state": {"kind": "thermal", "dim": 20}}}),
            ("state", "input.state", {"input": {"state": {"kind": "fock", "dim": 20}}}),
            ("state", "output_mode", {"output_mode": f"file:{tmp_path / 'missing.csv'}"}),
            ("state", "output_mode", {"output_mode": f"file:{short_mode}"}),
            ("modes", "sweep.axes[0]", axis(values=[0.5, "abc"])),
            ("modes", "sweep.axes[0]", axis(start=0.1, stop=1.0, points="abc")),
            ("modes", "sweep.axes[0]", axis(values=[])),
            ("modes", "sweep.axes[0]", axis(start=0.0, stop=1.0, points=3, log=True)),
        ]
        for command, key, override in cases:
            cfg = _base_config(**override)
            path.write_text(dump_config(cfg))
            out = tmp_path / "run"
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1, override
            assert key in capsys.readouterr().err, override

    def test_cli_never_imports_scipy_optimize(self, tmp_path):
        # Only the circuit fit of decomposition.bloch_messiah_params needs
        # scipy.optimize, and no command runs it.
        cfg = _base_config(fock_dim=8)
        cfg["grid"]["n_points"] = 64
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        runs = [
            ["state", "--config", str(path), "--out", str(tmp_path / "state")],
            ["modes", "--config", str(path), "--out", str(tmp_path / "modes")],
            ["verify"],
        ]
        script = (
            "import sys\n"
            "from pulse_squeeze import cli\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "assert 'scipy.optimize' not in sys.modules\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=300,
                       stdout=subprocess.DEVNULL)

    def test_modes_identity_device(self, tmp_path):
        cfg = _base_config()
        cfg["device"] = {"kind": "identity"}
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        out = tmp_path / "run"
        assert cli.main(["modes", "--config", str(path), "--out", str(out)]) == 0
        rows = [r for r in (out / "occupations.csv").read_text().splitlines()
                if r and not r.startswith("#")]
        header = rows[0].split(",")
        values = dict(zip(header, map(float, rows[1].split(","))))
        # coherent |1.5> through a transparent device: one mode with <n>
        assert values["n1"] == pytest.approx(2.25, abs=1e-8)
        assert values["n2"] == pytest.approx(0.0, abs=1e-10)
        assert values["ratio"] == pytest.approx(1.0)
        spectrum = json.loads((out / "spectrum.json").read_text())
        assert spectrum["points"][0]["single_mode_condition"]["holds"]

    def test_state_command_artifacts(self, tmp_path):
        cfg = _base_config()
        cfg["fock_dim"] = 24
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        out = tmp_path / "state"
        assert cli.main(["state", "--config", str(path), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        # squeezer on its own mode: pure output, fidelity 1 at the set gain
        assert metrics["purity"] == pytest.approx(1.0, abs=1e-3)
        assert metrics["best_fidelity"] == pytest.approx(1.0, abs=1e-3)
        assert metrics["p_gain"] == pytest.approx(np.exp(0.8), rel=1e-2)
        for name in ("rho_re.csv", "rho_im.csv", "wigner.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) >= {"rho_re.csv", "wigner.csv", "metrics.json"}

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PULSE_SQUEEZE_WORKERS", "3")
        cfg = _base_config()
        cfg["device"] = {"kind": "identity"}
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        out = tmp_path / "run"
        assert cli.main(["modes", "--config", str(path), "--out", str(out)]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert set(env) == {"cores", "blas_threads", "PULSE_SQUEEZE_WORKERS",
                            "python", "numpy", "scipy"}
        assert env["cores"] == os.cpu_count()
        assert env["PULSE_SQUEEZE_WORKERS"] == "3"
        assert env["numpy"] == np.__version__
        assert all(isinstance(n, int) and n >= 1 for n in env["blas_threads"].values())

    def test_sweep_requires_two_axes(self, tmp_path):
        cfg = _base_config()
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 1

    def test_single_point_sweep_matches_modes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PULSE_SQUEEZE_WORKERS", "1")
        cfg = _base_config(sweep={"axes": [
            {"name": "device.r", "values": [0.8]},
            {"name": "input.pulse.width", "values": [1.0]},
        ]})
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        rows = [r for r in (out / "heatmap_n1.csv").read_text().splitlines()
                if r and not r.startswith("#")]
        n1 = float(rows[1].split(",")[1])
        cfg_modes = _base_config()
        path2 = tmp_path / "cfg2.yaml"
        path2.write_text(dump_config(cfg_modes))
        out2 = tmp_path / "modes"
        assert cli.main(["modes", "--config", str(path2), "--out", str(out2)]) == 0
        rows2 = [r for r in (out2 / "occupations.csv").read_text().splitlines()
                 if r and not r.startswith("#")]
        n1_modes = float(rows2[1].split(",")[1])
        assert n1 == pytest.approx(n1_modes, rel=1e-12)

    def test_sweep_records_per_point_failures(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PULSE_SQUEEZE_WORKERS", "1")
        cfg = _base_config()
        cfg["device"] = {"kind": "opo", "detuning": 0.0, "decay": 1.0,
                         "pump": {"area": 1.0, "center": 0.0, "width": 0.3}}
        cfg["grid"] = {"t_start": -10.0, "t_end": 30.0, "n_points": 128}
        cfg["sweep"] = {"axes": [
            {"name": "device.pump.center", "values": [0.0, 29.5]},  # 2nd truncates
            {"name": "device.pump.width", "values": [0.3]},
        ]}
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["point"] == [1, 0]

    def test_small_sweep_determinism(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PULSE_SQUEEZE_WORKERS", "2")
        cfg = _base_config()
        cfg["device"] = {"kind": "opo", "detuning": 0.0, "decay": 1.0,
                         "pump": {"area": 1.0, "center": 0.0, "width": 0.3}}
        cfg["grid"] = {"t_start": -10.0, "t_end": 30.0, "n_points": 128}
        cfg["sweep"] = {"axes": [
            {"name": "input.pulse.center", "values": [-1.0, 0.0]},
            {"name": "device.pump.width", "values": [0.2, 0.5]},
        ]}
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
            outs.append(out)
        for name in ("heatmap_n1.csv", "heatmap_ratio.csv", "config_used.yaml"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        m0 = json.loads((outs[0] / "manifest.json").read_text())
        m1 = json.loads((outs[1] / "manifest.json").read_text())
        assert m0["files"] == m1["files"]
        assert m0["config_hash"] == m1["config_hash"]

    def test_workers_default_leaves_cores_to_blas(self, monkeypatch, tmp_path):
        for name in ("PULSE_SQUEEZE_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        # BLAS threads unpinned: they already use every core
        assert cli._workers() == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert cli._workers() == os.cpu_count()
        monkeypatch.setenv("PULSE_SQUEEZE_WORKERS", "3")
        assert cli._workers() == 3
        # a malformed count is a configuration error that names its variable
        monkeypatch.setenv("PULSE_SQUEEZE_WORKERS", "two")
        with pytest.raises(ConfigError, match="PULSE_SQUEEZE_WORKERS"):
            cli._workers()
        cfg = _base_config(sweep={"axes": [
            {"name": "device.r", "values": [0.8]},
            {"name": "input.pulse.width", "values": [1.0]},
        ]})
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
        monkeypatch.delenv("PULSE_SQUEEZE_WORKERS")
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            monkeypatch.setenv(name, "two")
            with pytest.raises(ConfigError, match=name):
                cli._workers()

    @staticmethod
    def _run_layouts(tmp_path, command: str, cfg: dict, layouts: dict) -> None:
        """Run ``command`` on ``cfg`` in a fresh interpreter per layout, with
        no BLAS thread setting inherited, into ``tmp_path / layout``."""
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for run, extra in layouts.items():
            subprocess.run(
                [sys.executable, "-m", "pulse_squeeze.cli", command, "--config", str(path),
                 "--out", str(tmp_path / run)],
                env={**env, **extra}, check=True, timeout=300,
            )

    def test_sweep_identical_across_workers_and_blas_threads(self, tmp_path):
        cfg = load_recipe("fig3ab")
        cfg["sweep"] = {"axes": [
            {"name": "input.pulse.center", "start": -3.0, "stop": 1.0, "points": 4},
            {"name": "device.pump.width", "start": 0.02, "stop": 2.0, "points": 4,
             "log": True},
        ]}
        self._run_layouts(tmp_path, "sweep", cfg, {
            "serial": {"PULSE_SQUEEZE_WORKERS": "1"},
            "pool": {"PULSE_SQUEEZE_WORKERS": "2", "OPENBLAS_NUM_THREADS": "1"},
        })
        for name in ("heatmap_n1.csv", "heatmap_ratio.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()

    @pytest.mark.parametrize("case", ["modes", "modes-opa", "state"])
    def test_identical_across_blas_threads(self, tmp_path, case):
        # The n x n vacuum ladder (modes: occupations.csv, spectrum.json;
        # state: m1 in metrics.json), the OPA eigenbasis and the Wigner
        # products (wigner.csv) are the BLAS calls whose bits would follow
        # the thread count.
        modes_files = ("occupations.csv", "modes.csv", "spectrum.json")
        if case == "modes":
            cfg = load_recipe("fig2b")
            cfg["sweep"]["axes"] = [{"name": "device.pump.width", "values": [0.1, 0.5]}]
            files = modes_files
        elif case == "modes-opa":
            cfg = load_recipe("fig3cd")
            cfg["sweep"]["axes"] = [
                {"name": "device.pump_center_detuning", "values": [0.0, 1.0]}]
            files = modes_files
        else:
            cfg = load_recipe("fig4")
            cfg["input"]["state"] = {"kind": "fock", "n": 1, "dim": 30}
            cfg["fock_dim"] = 20
            files = ("rho_re.csv", "rho_im.csv", "wigner.csv", "metrics.json")
        cfg["grid"]["n_points"] = 512
        self._run_layouts(tmp_path, case.split("-")[0], cfg, {
            "default": {}, "one": {"OPENBLAS_NUM_THREADS": "1"}})
        for name in files:
            assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name


class TestExplicitModeFile:
    def test_state_with_mode_file(self, tmp_path):
        import numpy as np
        from pulse_squeeze.grids import TemporalGrid, gaussian_mode

        cfg = _base_config()
        cfg["fock_dim"] = 16
        grid = TemporalGrid(-10.0, 30.0, 128)
        mode = gaussian_mode(grid, 0.0, 1.0)
        mode_file = tmp_path / "mode.csv"
        rows = ["# t, re, im"] + [
            f"{t},{a.real},{a.imag}" for t, a in zip(grid.points, mode.amplitudes)
        ]
        mode_file.write_text("\n".join(rows))
        cfg["output_mode"] = f"file:{mode_file}"
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        out = tmp_path / "run"
        assert cli.main(["state", "--config", str(path), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        # explicit mode equals the squeezer's own mode here
        assert metrics["best_fidelity"] == pytest.approx(1.0, abs=1e-3)


class TestVerifyCommand:
    def test_clean_verify_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_corrupt_injection_reports_specific_invariant(self, capsys):
        assert cli.main(["verify", "--corrupt-injection"]) == 2
        out = capsys.readouterr().out
        assert "opo symplectic" in out
        assert "FAIL" in out
        assert "residual" in out
