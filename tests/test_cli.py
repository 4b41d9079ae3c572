import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from pulse_squeeze import blas, cli
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
from pulse_squeeze.kernels import BogoliubovKernels


RECIPES = ("fig2a", "fig2b", "fig3ab", "fig3cd", "fig3ef", "fig4")


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

    @staticmethod
    def ci_configs():
        """Every bundled recipe and every config the CI workflow derives
        from one, by name."""
        fig4 = load_recipe("fig4")
        state = lambda **value: set_by_path(fig4, "input.state", value)
        fig3ef = load_recipe("fig3ef")
        gain = {"name": "device.total_gain",
                "values": [float(v) for v in sweep_axes(fig3ef)[1][1]]}
        long_window = {"t_start": -10.0, "t_end": 2000.0, "n_points": 1024}
        return {
            **{name: load_recipe(name) for name in RECIPES},
            "fig4-detuned": set_by_path(fig4, "device.detuning", 0.7),
            "fig4-coherent": state(kind="coherent", alpha=2.5, dim=60),
            "fig4-squeezed": set_by_path(state(kind="squeezed", r=0.5, dim=60),
                                         "device.pump.area", 0.0),
            "fig4-cat-complex": state(kind="even_cat", alpha="2+1j", dim=60),
            "fig4-coherent-far": state(kind="coherent", alpha=4.5, dim=60),
            "fig4-vacuum-v1": state(kind="vacuum", dim=60),
            "fig4-vacuum-v2": set_by_path(state(kind="vacuum", dim=60), "output_mode", "auto_v2"),
            "fig4-fock1": state(kind="fock", n=1, dim=60),
            "twpa": set_by_path(set_by_path(fig3ef, "grid.n_points", 512), "sweep",
                                {"axes": [gain]}),
            "fig2b-long": set_by_path(set_by_path(load_recipe("fig2b"), "grid", long_window),
                                      "device.pump.area", 1.5),
        }

    def test_libyaml_matches_pure_python(self):
        # libyaml's dumper writes the pure-Python dumper's bytes, so every
        # config_hash is unchanged, and its loader reads them back to the
        # same dict.
        import hashlib

        from pulse_squeeze import config

        assert config._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        assert config._DUMPER is getattr(yaml, "CSafeDumper", yaml.SafeDumper)
        for name, cfg in self.ci_configs().items():
            text = yaml.dump(cfg, Dumper=yaml.SafeDumper, sort_keys=True, default_flow_style=False)
            assert dump_config(cfg) == text, name
            assert config_hash(cfg) == hashlib.sha256(text.encode()).hexdigest(), name
            assert yaml.load(text, Loader=config._LOADER) == yaml.safe_load(text) == cfg, name

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_invalid_yaml_is_one_line_naming_the_path(self, loader, tmp_path, monkeypatch):
        from pulse_squeeze import config

        if not hasattr(yaml, loader):
            pytest.skip(f"PyYAML built without {loader}")
        monkeypatch.setattr(config, "_LOADER", getattr(yaml, loader))
        path = tmp_path / "bad.yaml"
        for text in ("device: {kind: [\n", "device: {kind: opo\ngrid: [1, 2\n", "a: b: c\n"):
            path.write_text(text)
            with pytest.raises(ConfigError) as caught:
                config.load_config(path)
            message = str(caught.value)
            assert message.startswith(f"{path}: invalid YAML: ") and "\n" not in message

    def test_all_recipes_validate(self):
        for name in RECIPES:
            validate_config(load_recipe(name))

    def test_readme_lists_every_config_key(self):
        from pulse_squeeze import config

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme[readme.index("### Config keys"):]
        keys = {"kind"}
        blocks = [config.CONFIG, config._AXIS, *config._DEVICES.values(),
                  *config._STATES.values()]
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
            # a null value counts as missing, in the state block as in any other
            ("state", "input.state.n: missing",
             {"input": {**inp, "state": {"kind": "fock", "n": None}}}),
            ("state", "input.state.alpha: missing",
             {"input": {**inp, "state": {"kind": "coherent", "alpha": None}}}),
            ("state", "input.state.kind: missing", {"input": {**inp, "state": {"alpha": 1.0}}}),
            ("state", "input.state.n: unknown key",
             {"input": {**inp, "state": {"kind": "vacuum", "n": 1}}}),
            ("state", "input.state: need a mapping", {"input": {**inp, "state": "vacuum"}}),
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

        # --config with --recipe: one line naming both options
        path.write_text(dump_config(_base_config()))
        assert cli.main(["modes", "--config", str(path), "--recipe", "fig4",
                         "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "--config" in err and "--recipe" in err and err.count("\n") == 1, err

        # an --out that names an existing file: one line naming the option
        axes = {"sweep": {"axes": [{"name": "device.r", "values": [0.8]},
                                   {"name": "input.pulse.center", "values": [0.0]}]}}
        for command, override in (("state", {}), ("modes", {}), ("sweep", axes)):
            path.write_text(dump_config(_base_config(**override)))
            assert cli.main([command, "--config", str(path), "--out", str(short_mode)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"config error: --out {short_mode}"), err
            assert err.count("\n") == 1, err

    def test_one_level_input_state(self, tmp_path, monkeypatch):
        # vacuum truncated to one level: its only level is the top one, so
        # the moments run and warn about truncation
        monkeypatch.setenv("PULSE_SQUEEZE_WORKERS", "1")
        inp = {"state": {"kind": "vacuum", "dim": 1}, "pulse": {"center": 0.0, "width": 1.0}}
        axes = {"sweep": {"axes": [{"name": "device.r", "values": [0.5, 0.8]},
                                   {"name": "input.pulse.center", "values": [0.0]}]}}
        path = tmp_path / "cfg.yaml"
        for command, override in (("modes", {}), ("state", {}), ("sweep", axes)):
            path.write_text(dump_config(_base_config(input=inp, **override)))
            out = tmp_path / command
            with pytest.warns(UserWarning, match="top two Fock levels"):
                assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((tmp_path / "sweep" / "manifest.json").read_text())["failures"] == []

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

    def test_ladder_runs_never_import_numpy_random(self, tmp_path):
        # The ladder's start block is drawn in numpy arithmetic, so neither a
        # state run (its ladder head) nor a modes run (its full ladders)
        # imports numpy.random.
        runs = [
            ["state", "--recipe", "fig4", "--out", str(tmp_path / "fig4")],
            ["modes", "--recipe", "fig2b", "--out", str(tmp_path / "fig2b")],
        ]
        script = (
            "import sys\n"
            "from pulse_squeeze import cli\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    assert 'numpy.random' not in sys.modules, argv\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["PULSE_SQUEEZE_WORKERS"] = "1"
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=300,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def test_squeezed_input_through_pumped_fig4_names_its_moments(self, tmp_path, capsys):
        # A squeezed vacuum has |m| > n, which makes the seeded part of g1
        # indefinite: one line that names both moments, and exit 2.
        cfg = set_by_path(load_recipe("fig4"), "input.state",
                          {"kind": "squeezed", "r": 0.5, "dim": 60})
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        assert cli.main(["state", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        n, m = np.sinh(0.5) ** 2, np.sinh(0.5) * np.cosh(0.5)
        assert len(err) == 1
        assert err[0].startswith(
            f"numerical failure: ValueError: the input's |m| = {m:.6g} exceeds n = {n:.6g}, "
            "so the seeded part of g1 is indefinite (negative eigenvalue -")

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
        assert set(env) == {"cores", "blas_threads", "PULSE_SQUEEZE_WORKERS", "workers",
                            "python", "numpy", "scipy"}
        assert env["cores"] == os.cpu_count()
        assert env["PULSE_SQUEEZE_WORKERS"] == "3"
        assert env["workers"] == 1  # one point: one group, run in-process
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

    def test_modes_builds_each_device_once_and_raises_first_failure(self, tmp_path,
                                                                     monkeypatch):
        monkeypatch.setenv("PULSE_SQUEEZE_WORKERS", "1")
        cfg = _base_config()
        cfg["device"] = {"kind": "opo", "detuning": 0.0, "decay": 1.0,
                         "pump": {"area": 1.0, "center": 0.0, "width": 0.3}}
        builds = []
        build = cli.device_from_config
        monkeypatch.setattr(cli, "device_from_config",
                            lambda *args: builds.append(args) or build(*args))
        # an input axis: every point runs on one device
        cfg["sweep"] = {"axes": [{"name": "input.pulse.center", "values": [-1.0, 0.0, 1.0]}]}
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(cfg))
        assert cli.main(["modes", "--config", str(path), "--out", str(tmp_path / "one")]) == 0
        assert len(builds) == 1
        # devices 1 and 2 truncate the pump: in-process or pooled, the run
        # exits 2 with the error of the first failed point
        centers = [0.0, 29.5, 29.8]
        with pytest.raises(GridTooShortError) as first:
            build(set_by_path(cfg, "device.pump.center", centers[1])["device"],
                  cli.grid_from_config(cfg["grid"]))
        cfg["sweep"] = {"axes": [{"name": "device.pump.center", "values": centers}]}
        path.write_text(dump_config(cfg))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
            "PYTHONPATH")])))
        for workers in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-m", "pulse_squeeze.cli", "modes", "--config", str(path),
                 "--out", str(tmp_path / workers)],
                env={**env, "PULSE_SQUEEZE_WORKERS": workers}, capture_output=True, text=True,
                timeout=300)
            assert run.returncode == 2, run.stderr
            assert run.stderr.strip().splitlines()[-1] == (
                f"numerical failure: GridTooShortError: {first.value}")

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

    def test_workers_default_is_cpu_count(self, monkeypatch, tmp_path):
        # Every process runs on one BLAS thread, so the default pool takes
        # one worker per core whatever the BLAS thread settings say.
        for name in ("PULSE_SQUEEZE_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        assert cli._workers() == os.cpu_count()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.setenv("OMP_NUM_THREADS", "two")
        assert cli._workers() == os.cpu_count()
        monkeypatch.setenv("PULSE_SQUEEZE_WORKERS", "3")
        assert cli._workers() == 3
        # a malformed or non-positive count is a configuration error that
        # names its variable, in every command that runs a pool
        r_axis = {"name": "device.r", "values": [0.5, 0.8]}
        width_axis = {"name": "input.pulse.width", "values": [1.0]}
        for command, axes in (("sweep", [r_axis, width_axis]), ("modes", [r_axis])):
            path = tmp_path / f"{command}.yaml"
            path.write_text(dump_config(_base_config(sweep={"axes": axes})))
            for value in ("two", "0", "-1"):
                monkeypatch.setenv("PULSE_SQUEEZE_WORKERS", value)
                with pytest.raises(ConfigError, match="PULSE_SQUEEZE_WORKERS"):
                    cli._workers()
                out = tmp_path / f"{command}{value}"
                assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1

    def test_in_process_run_leaves_threads_and_environment(self, tmp_path, monkeypatch):
        # The commands run on one BLAS thread; the caller's pools and
        # environment are as they were once main returns, whether the
        # thread variable was unset or set.
        path = tmp_path / "cfg.yaml"
        path.write_text(dump_config(_base_config()))
        for setting in (None, "2"):
            if setting is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", setting)
            threads, environ = blas.blas_threads(), dict(os.environ)
            for command in ("modes", "state"):
                out = tmp_path / f"{command}-{setting}"
                assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
                assert {k: n for k, n in blas.blas_threads().items() if k in threads} == threads
                assert dict(os.environ) == environ

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

    def test_modes_identical_across_workers_and_blas_threads(self, tmp_path):
        # fig2b's nine pump widths are nine devices: one in-process run, one
        # spread over two workers, and one with the BLAS variable set.
        cfg = load_recipe("fig2b")
        cfg["grid"]["n_points"] = 256
        self._run_layouts(tmp_path, "modes", cfg, {
            "serial": {"PULSE_SQUEEZE_WORKERS": "1"},
            "pool": {"PULSE_SQUEEZE_WORKERS": "2"},
            "one": {"OPENBLAS_NUM_THREADS": "1"},
        })
        for name in ("occupations.csv", "modes.csv", "spectrum.json"):
            serial = (tmp_path / "serial" / name).read_bytes()
            assert serial == (tmp_path / "pool" / name).read_bytes(), name
            assert serial == (tmp_path / "one" / name).read_bytes(), name
        workers = [json.loads((tmp_path / run / "manifest.json").read_text())["environment"]
                   ["workers"] for run in ("serial", "pool")]
        assert workers == [1, 2]

    @pytest.mark.parametrize(
        "case", ["modes", "modes-opa", "modes-twpa", "modes-twpa-detuned", "state"])
    def test_identical_across_blas_threads(self, tmp_path, case):
        # The n x n vacuum ladder (modes: occupations.csv, spectrum.json;
        # state: m1 in metrics.json), the OPA eigenbasis, a detuned TWPA's
        # 2n x 2n quadrature power (dgemm; a resonant chain multiplies no
        # matrices) and the Wigner products (wigner.csv) are the BLAS calls
        # whose bits would follow the thread count.
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
        # both TWPA folds: the resonant symbol power and the detuned full
        # power; the resonant FFT products; and both paths to rho, the
        # closed form of a Gaussian-sum input and the fold of a Fock input
        names = {line.split("  residual")[0].strip() for line in out.splitlines()}
        assert {"twpa symplectic", "detuned twpa symplectic", "resonant operator",
                "coherent rho closed form", "fock-1 fold round trip"} <= names


    def test_corrupt_injection_reports_specific_invariant(self, capsys, monkeypatch):
        from pulse_squeeze import devices

        build = devices.build_opo

        def corrupt_opo(params, grid):
            k = build(params, grid)
            F = k.F.copy()
            F[0, 1] += 0.1
            return BogoliubovKernels(k.grid, F, k.G)

        monkeypatch.setattr(devices, "build_opo", corrupt_opo)
        assert cli.main(["verify"]) == 2
        out = capsys.readouterr().out
        failed = [line for line in out.splitlines() if line.endswith("FAIL")]
        assert any(line.startswith("opo symplectic") for line in failed), out
        assert "residual" in out

    def test_numerical_failure_exits_2_with_one_line(self, capsys, monkeypatch):
        from pulse_squeeze import devices

        def failing_opo(params, grid):
            raise FloatingPointError("overflow encountered in exp")

        monkeypatch.setattr(devices, "build_opo", failing_opo)
        assert cli.main(["verify"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "numerical failure: FloatingPointError: overflow encountered in exp"]
        assert "Traceback" not in err


class TestKernelFills:
    """Which runs fill a resonant cavity's n x n kernels: a state run and a
    sweep read images, pullbacks and the ladder head through the product
    protocol; a modes run writes the full ladder, which reads G."""

    @pytest.mark.parametrize("command, recipe, fills", [
        ("state", "fig4", []),
        ("sweep", "fig3ab", []),
        ("modes", "fig2b", ["G"] * 9),
    ])
    def test_fills(self, command, recipe, fills, tmp_path, monkeypatch):
        from pulse_squeeze.kernels import CirculantKernels

        filled = []
        fill = CirculantKernels._fill

        def spying(self, combine):
            filled.append({np.add: "F", np.subtract: "G"}[combine])
            return fill(self, combine)

        monkeypatch.setattr(CirculantKernels, "_fill", spying)
        monkeypatch.setenv("PULSE_SQUEEZE_WORKERS", "1")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert cli.main([command, "--recipe", recipe, "--out", str(tmp_path)]) == 0
        assert filled == fills
