import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from pulse_squeeze import cli
from pulse_squeeze.devices import GridTooShortError
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


def test_write_csv_matches_per_element_formatter(tmp_path):
    """``_write_csv`` formats each row at once; its bytes equal those of a
    per-element ``"{:.16e}".format(float(v))`` / ``str(v)`` writer."""

    def per_element(path, header_meta, columns, rows):
        lines = [f"# {k}: {v}" for k, v in header_meta.items()]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join("{:.16e}".format(float(v))
                                  if isinstance(v, (float, np.floating)) else str(v)
                                  for v in row))
        path.write_text("\n".join(lines) + "\n")

    subnormal = np.nextafter(0.0, 1.0)
    rows = [
        ["device.r", -0.0, 0.0, 1e300, -1e300],
        ["x", subnormal, -subnormal, 2.2250738585072014e-308 / 3, np.float64(0.1)],
        ["y", np.float32(0.1), float("nan"), float("inf"), -np.inf],
        [3, 7, np.int64(-2), 1.0, "a%sb"],
        list(np.random.default_rng(0).normal(size=5) * 10.0 ** np.arange(-200, 300, 100)),
        [],
    ]
    meta = {"config": "abc", "dim": 4}
    columns = ["p", "c0", "c1", "c2", "c3"]
    cli._write_csv(tmp_path / "new.csv", meta, columns, rows)
    per_element(tmp_path / "old.csv", meta, columns, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestConfig:
    def test_round_trip_identity(self):
        cfg = load_recipe("fig2b")
        assert yaml.safe_load(dump_config(cfg)) == cfg
        assert config_hash(cfg) == config_hash(yaml.safe_load(dump_config(cfg)))

    def test_all_recipes_validate(self):
        for name in ("fig2a", "fig2b", "fig3ab", "fig3cd", "fig3ef", "fig4"):
            validate_config(load_recipe(name))

    def test_readme_lists_every_config_key(self):
        from pulse_squeeze import config, states

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme[readme.index("### Config keys"):]
        keys = {"kind", "dim"} | {key for _, params in states._KINDS.values() for key in params}
        blocks = [config.CONFIG, config._AXIS, *config._DEVICES.values()]
        while blocks:
            for key, (convert, _default) in blocks.pop().keys.items():
                keys.add(key)
                if isinstance(convert, config.Block):
                    blocks.append(convert)
        assert [key for key in sorted(keys) if f"`{key}`" not in table] == []

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

        def axis(name="device.r", **spec):
            return {"sweep": {"axes": [{"name": name, **spec}]}}

        stage = {"detuning": 0.0, "decay": 1.0, "pump": {"area": 0.01, "center": 0.0, "width": 0.2}}
        twpa = {"kind": "twpa", "n_stages": 10, "total_gain": 1.0, "stage": stage}
        no_gain = {k: v for k, v in twpa.items() if k != "total_gain"}
        both_gains = {**twpa, "per_stage_gain": 0.01}
        no_stage = {k: v for k, v in twpa.items() if k != "stage"}
        opo = {"kind": "opo", "detuning": 0.0, "decay": 1.0}
        both = "device.total_gain and device.per_stage_gain"
        pump = {"area": 1.0, "width": 0.3}
        opa_no_gain = {"kind": "opa", "pump_spectral_width": 2.0}
        grid = _base_config()["grid"]
        inp = _base_config()["input"]
        small_fock = {"kind": "fock", "n": 1, "dim": 10}

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
            ("modes", "device.n_stages", {"device": {**twpa, "n_stages": 0}}),
            ("modes", "device.n_stages", {"device": {**twpa, "n_stages": 2.5}}),
            ("modes", "device.n_stages", {"device": {**twpa, "n_stages": "ten"}}),
            ("modes", "device.total_gain", {"device": no_gain}),
            ("modes", both, {"device": both_gains}),
            ("sweep", both, {"device": both_gains, "sweep": {"axes": [
                {"name": "device.total_gain", "values": [1.0, 8.0]},
                {"name": "input.pulse.center", "values": [0.0]}]}}),
            ("modes", "device.stage", {"device": no_stage}),
            ("modes", "device.stage.pump", {"device": {**twpa, "stage": {"decay": 1.0}}}),
            ("modes", "device.stage.pump.area",
             {"device": {**twpa, "stage": {**stage, "pump": {"width": 0.2}}}}),
            ("modes", "device.stage.gain", {"device": {**twpa, "stage": {**stage, "gain": 1.0}}}),
            ("modes", "device.pump", {"device": opo}),
            ("modes", "device.pump", {"device": {**opo, "pump": 1.5}}),
            ("modes", "device.pump.width", {"device": {**opo, "pump": {"area": 1.5}}}),
            ("modes", "device.pump.area", {"device": {**opo, "pump": {"width": 0.3}}}),
            ("modes", "sweep.axes[0]",
             {"device": twpa, **axis("device.n_stages", values=[10, 2.5])}),
            ("modes", "sweep.axes[0]",
             {"device": twpa, **axis("device.n_stages", start=0.0, stop=4.0, points=3)}),
            ("modes", "device.gain", {"device": opa_no_gain}),
            ("modes", "device.gain", {"device": {**opa_no_gain, "gain": "abc"}}),
            ("modes", "device.r", {"device": {"kind": "squeezer"}}),
            ("modes", "grid.t_end", {"grid": {**grid, "t_end": grid["t_start"]}}),
            ("modes", "grid.t_end", {"grid": {**grid, "t_end": grid["t_start"] - 1.0}}),
            ("modes", "grid.n_points", {"grid": {**grid, "n_points": 1}}),
            ("modes", "grid.n_points", {"grid": {**grid, "n_points": 64.5}}),
            ("modes", "device.pump.width", {"device": {**opo, "pump": {**pump, "width": 0}}}),
            ("modes", "device.decay", {"device": {**opo, "pump": pump, "decay": 0}}),
            ("modes", "device.pump.centre",
             {"device": {**opo, "pump": {**pump, "centre": 1.0}}}),
            ("modes", "input.pulse.widht", {"input": {**inp, "pulse": {"widht": 2}}}),
            ("modes", "input.puls", {"input": {"state": inp["state"], "puls": {"width": 2}}}),
            ("state", "input.state.alpah",
             {"input": {**inp, "state": {"kind": "coherent", "alpah": 1.0}}}),
            ("state", "fockdim", {"fockdim": 8}),
            ("state", "input.state.n",
             {"input": {**inp, "state": {"kind": "fock", "n": 1.5, "dim": 20}}}),
            ("state", "input.state", {"input": {**inp, "state": {"kind": "vacuum", "dim": 0}}}),
            ("modes", "sweep.axes[0]", {"device": {**opo, "pump": pump},
                                        **axis("device.pump.width", values=[0.0, 0.3])}),
            ("modes", "input.pulse.width", {"input": {**inp, "pulse": {"width": 0}}}),
            ("modes", "input.pulse.width", {"input": {**inp, "pulse": {"width": -1.0}}}),
            ("modes", "device.width", {"device": {"kind": "squeezer", "r": 0.8, "width": 0}}),
            ("modes", "sweep.axes[0]", axis("input.pulse.width", values=[1.0, 0.0])),
            # a Fock index that parses, but that a dim-10 truncation cannot hold
            ("modes", "sweep.axes[0]", {"input": {"state": small_fock},
                                        **axis("input.state.n", values=[1, 12])}),
            ("sweep", "sweep.axes[0]", {"input": {"state": small_fock}, "sweep": {"axes": [
                {"name": "input.state.n", "values": [1, 12]},
                {"name": "device.r", "values": [0.8]}]}}),
            # modes.csv holds one t column for every point
            ("modes", "sweep.axes[0]", axis("grid.n_points", values=[128, 256])),
            # state runs one point: a sweep axis is an error, not ignored
            ("state", "sweep.axes[0]", axis(values=[0.2, 1.5])),
        ]
        for command, key, override in cases:
            cfg = _base_config(**override)
            path.write_text(dump_config(cfg))
            out = tmp_path / "run"
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1, override
            assert key in capsys.readouterr().err, override

        # a config file that cannot be read or parsed: one line naming the file
        path.write_text("device: {kind: [\n")
        for bad in (tmp_path / "missing.yaml", path):
            assert cli.main(["modes", "--config", str(bad), "--out", str(tmp_path / "run")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and str(bad) in err, err
            assert err.count("\n") == 1, err

    def test_manifest_lists_blas_pools_loaded_during_the_run(self, tmp_path):
        # Forcing the dense ladder solve loads scipy's OpenBLAS mid-run.
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(_base_config()))
        out = tmp_path / "run"
        script = (
            "import json, sys\n"
            "from pulse_squeeze import blas, cli, coherence\n"
            "coherence._block_ladder = lambda *args: None\n"
            f"assert cli.main(['modes', '--config', {str(path)!r}, '--out', {str(out)!r}]) == 0\n"
            "assert 'scipy.linalg' in sys.modules  # the dense solve ran\n"
            "pools = blas.blas_threads()\n"
            f"manifest = json.loads(open({str(out / 'manifest.json')!r}).read())\n"
            "listed = manifest['environment']['blas_threads']\n"
            "assert listed == pools and pools, (listed, pools)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=300,
                       stdout=subprocess.DEVNULL)

    def test_cli_never_imports_scipy_optimize(self, tmp_path):
        # Only the circuit fit of decomposition.bloch_messiah_params needs
        # scipy.optimize, and no command runs it.  scipy.linalg and
        # scipy.special, with the array-API shim, numpy.f2py and scipy's
        # OpenBLAS they pull in, load only for the dense vacuum-ladder
        # solve: the shipped fig4 and fig3ab recipes never take it, while a
        # config with n < 128 does (its block budget n / 4 is under
        # LADDER_START), so the small config runs last.
        cfg = _base_config(fock_dim=8)
        cfg["grid"]["n_points"] = 64
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        recipes = [
            ["state", "--recipe", "fig4", "--out", str(tmp_path / "fig4")],
            ["sweep", "--recipe", "fig3ab", "--out", str(tmp_path / "fig3ab")],
        ]
        runs = [
            ["state", "--config", str(path), "--out", str(tmp_path / "state")],
            ["modes", "--config", str(path), "--out", str(tmp_path / "modes")],
            ["verify"],
        ]
        lazy = ["scipy.linalg", "scipy.special", "scipy._lib._array_api", "numpy.f2py"]
        script = (
            "import sys\n"
            "from pulse_squeeze import cli\n"
            f"for argv in {recipes!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            f"loaded = [m for m in {lazy!r} if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "assert 'scipy.optimize' not in sys.modules\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["PULSE_SQUEEZE_WORKERS"] = "1"
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
        # Devices 0 and 2 truncate the pump; the groups of the pool run
        # column by column, the failures must come back row by row.
        centers = [29.5, 0.0, 29.8]
        cfg["sweep"] = {"axes": [
            {"name": "input.pulse.center", "values": [-1.0, 0.0]},
            {"name": "device.pump.center", "values": centers},
        ]}
        grid = cli.grid_from_config(cfg["grid"])
        errors = {}
        for j in (0, 2):
            with pytest.raises(GridTooShortError) as build:
                cli.device_from_config(
                    set_by_path(cfg, "device.pump.center", centers[j])["device"], grid)
            errors[j] = f"{build.type.__name__}: {build.value}"
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # every point of a failed device, in (i, j) order, with its build's error
        assert manifest["failures"] == [
            {"point": [i, j], "error": errors[j]} for i in range(2) for j in (0, 2)]
        for name in ("heatmap_n1.csv", "heatmap_ratio.csv"):
            rows = [r.split(",") for r in (out / name).read_text().splitlines()
                    if r and not r.startswith("#")][1:]
            for row in rows:
                assert [v == "nan" for v in row[1:]] == [True, False, True]
                assert np.isfinite(float(row[2]))

    def test_sweep_builds_each_device_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PULSE_SQUEEZE_WORKERS", "1")
        cfg = load_recipe("fig3ab")
        cfg["grid"]["n_points"] = 128
        cfg["sweep"] = {"axes": [
            {"name": "input.pulse.center", "start": -3.0, "stop": 1.0, "points": 4},
            {"name": "device.pump.width", "values": [0.1, 0.5]},
        ]}
        builds = []
        build = cli.device_from_config
        monkeypatch.setattr(cli, "device_from_config",
                            lambda *args: builds.append(args) or build(*args))
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert len(builds) == 2

        # reference: a device built for every point, run through run_modes
        (name1, vals1), (name2, vals2) = sweep_axes(cfg)
        n1 = np.full((len(vals1), len(vals2)), np.nan)
        ratio = np.full_like(n1, np.nan)
        for i, v1 in enumerate(vals1):
            for j, v2 in enumerate(vals2):
                point = set_by_path(set_by_path(cfg, name1, float(v1)), name2, float(v2))
                grid = cli.grid_from_config(point["grid"])
                metrics = cli.run_modes(build(point["device"], grid),
                                        cli.input_mode_from_config(point["input"], grid),
                                        cli.input_state_from_config(point["input"])).metrics
                n1[i, j], ratio[i, j] = metrics["n1"], metrics["ratio"]
        ref = tmp_path / "ref"
        ref.mkdir()
        meta = {
            "config": config_hash(cfg),
            "rows": f"{name1}: " + " ".join(cli._fmt(v) for v in vals1),
            "cols": f"{name2}: " + " ".join(cli._fmt(v) for v in vals2),
        }
        for name, values in (("heatmap_n1.csv", n1), ("heatmap_ratio.csv", ratio)):
            cli._write_csv(ref / name, meta, [name2] + [cli._fmt(v) for v in vals2],
                           [[vals1[i]] + list(values[i]) for i in range(len(vals1))])
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

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

    @pytest.mark.parametrize(
        "case", ["modes", "modes-opa", "modes-twpa", "modes-twpa-detuned", "state"])
    def test_identical_across_blas_threads(self, tmp_path, case):
        # The n x n vacuum ladder (modes: occupations.csv, spectrum.json;
        # state: m1 in metrics.json), the OPA eigenbasis, the TWPA's real
        # quadrature powers (dgemm: the two n x n block powers of a resonant
        # chain, the 2n x 2n power of a detuned one) and the Wigner products
        # (wigner.csv) are the BLAS calls whose bits would follow the thread
        # count.
        modes_files = ("occupations.csv", "modes.csv", "spectrum.json")
        n_points = 512
        if case == "modes":
            cfg = load_recipe("fig2b")
            cfg["sweep"]["axes"] = [{"name": "device.pump.width", "values": [0.1, 0.5]}]
            files = modes_files
        elif case == "modes-opa":
            cfg = load_recipe("fig3cd")
            cfg["sweep"]["axes"] = [
                {"name": "device.pump_center_detuning", "values": [0.0, 1.0]}]
            files = modes_files
        elif case.startswith("modes-twpa"):
            cfg = load_recipe("fig3ef")
            if case == "modes-twpa-detuned":
                cfg["device"]["stage"]["detuning"] = 0.6
            cfg["sweep"]["axes"] = [{"name": "device.total_gain", "values": [1.0, 4.0]}]
            files = modes_files
            n_points = 256
        else:
            cfg = load_recipe("fig4")
            cfg["input"]["state"] = {"kind": "fock", "n": 1, "dim": 30}
            cfg["fock_dim"] = 20
            files = ("rho_re.csv", "rho_im.csv", "wigner.csv", "metrics.json")
        cfg["grid"]["n_points"] = n_points
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
        # both TWPA folds: the resonant block powers and the detuned full power
        names = {line.split("  residual")[0].strip() for line in out.splitlines()}
        assert {"twpa symplectic", "detuned twpa symplectic"} <= names

    def test_corrupt_injection_reports_specific_invariant(self, capsys):
        assert cli.main(["verify", "--corrupt-injection"]) == 2
        out = capsys.readouterr().out
        assert "opo symplectic" in out
        assert "FAIL" in out
        assert "residual" in out
