"""End-to-end tests for the command-line interface.

Commands are exercised by calling main() with argv lists; every step reads
and writes real files in a shared temporary workspace, mirroring how the
stateless subcommands hand artifacts to each other.
"""

import copy
import json
import os
import re
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest

import lmpcast.cli
from lmpcast.arima import ModelSpec
from lmpcast.backtest import BacktestReport
from lmpcast.cli import main
from lmpcast.estimation import BicTable

BASE_CONFIG = {
    "pipeline": "arma_delta",
    "clip": {"ub": 22.0, "lb": -4.0},
    "log_offset": 1000.0,
    "order": {"p": 1, "d": 0, "q": 2},
    "test_start": "2001-01-19T00:00Z",
    "horizon": 2,
    "seed": 123,
    "fit": {"restarts": 1},
    "synth": {"length": 480},
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a config file and a generated dataset."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    data = root / "data.csv"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    return SimpleNamespace(root=root, config=str(config), data=str(data))


def write_config(root, name, **overrides):
    merged = dict(BASE_CONFIG)
    merged.update(overrides)
    path = root / name
    path.write_text(json.dumps(merged), encoding="utf-8")
    return str(path)


class TestUsageErrors:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])
        assert exc.value.code == 2

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pipelin": "arma_delta"}), encoding="utf-8")
        rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_malformed_config_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err


class TestRuntimeErrors:
    def test_missing_data_file_exits_one(self, ws, tmp_path, capsys):
        rc = main(
            ["acf", "--config", ws.config, "--data", str(tmp_path / "absent.csv"),
             "--out", str(tmp_path / "acf.csv")]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_price_exits_one_with_line(self, ws, tmp_path, capsys):
        lines = Path(ws.data).read_text(encoding="utf-8").splitlines()
        stamp = lines[5].split(",")[0]
        lines[5] = f"{stamp},25.0,nan"
        data = tmp_path / "nan.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(
            ["backtest", "--config", ws.config, "--data", str(data),
             "--out", str(tmp_path / "report.json")]
        )
        assert rc == 1
        assert "line 6" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [b"9" * 200_000, b"2\xff.0", b"cheap"], ids=["wide_field", "latin_byte", "word"])
    def test_unreadable_csv_row_exits_one_naming_path_and_line(self, ws, tmp_path, capsys, bad):
        lines = Path(ws.data).read_bytes().splitlines()
        lines[5] = lines[5].split(b",")[0] + b",25.0," + bad
        data = tmp_path / "bad.csv"
        data.write_bytes(b"\n".join(lines) + b"\n")
        rc = main(["acf", "--config", ws.config, "--data", str(data), "--out", str(tmp_path / "acf.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {data}: line 6: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "acf.csv").exists()

    def test_wrong_csv_header_exits_one_naming_path_and_line(self, ws, tmp_path, capsys):
        lines = Path(ws.data).read_text(encoding="utf-8").splitlines()
        data = tmp_path / "header.csv"
        data.write_text("\n".join(["time,da,rt", *lines[1:]]) + "\n", encoding="utf-8")
        rc = main(["acf", "--config", ws.config, "--data", str(data), "--out", str(tmp_path / "acf.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {data}: line 1: expected header 'timestamp,dalmp,rtlmp', got ['time', 'da', 'rt']" in err
        assert "Traceback" not in err

    def test_missing_hour_exits_one_naming_path(self, ws, tmp_path, capsys):
        lines = Path(ws.data).read_text(encoding="utf-8").splitlines()
        stamp = lines[3].split(",")[0]
        data = tmp_path / "gap.csv"
        data.write_text("\n".join(lines[:3] + lines[4:]) + "\n", encoding="utf-8")
        rc = main(["acf", "--config", ws.config, "--data", str(data), "--out", str(tmp_path / "acf.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {data}: missing hour {stamp}" in err
        assert not (tmp_path / "acf.csv").exists()

    def test_fitting_baseline_pipeline_exits_one(self, ws, tmp_path, capsys):
        config = write_config(tmp_path, "base.json", pipeline="baseline")
        rc = main(
            ["fit", "--config", config, "--data", ws.data,
             "--out", str(tmp_path / "m.json")]
        )
        assert rc == 1
        assert "nothing to fit" in capsys.readouterr().err

    def test_compare_requires_name_equals_path(self, ws, tmp_path, capsys):
        rc = main(["compare", "--config", ws.config, "report.json"])
        assert rc == 1
        assert "NAME=REPORT.json" in capsys.readouterr().err


@pytest.fixture(scope="module")
def garch_artifact(ws):
    """A fitted ARMA(1,2)+GARCH(1,1) model artifact, parsed."""
    config = write_config(ws.root, "garch.json", garch={"p": 1, "q": 1})
    model = ws.root / "garch_model.json"
    assert main(["fit", "--config", config, "--data", ws.data, "--out", str(model)]) == 0
    return json.loads(model.read_text(encoding="utf-8"))


class TestMismatchedArtifacts:
    def forecast(self, ws, tmp_path, artifact):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(artifact), encoding="utf-8")
        return main(
            ["forecast", "--config", ws.config, "--model", str(model),
             "--data", ws.data, "--out", str(tmp_path / "forecast.csv")]
        )

    def test_garch_orders_disagreeing_with_coefficients_exit_one(self, ws, tmp_path, capsys, garch_artifact):
        artifact = copy.deepcopy(garch_artifact)
        garch = artifact["model"]["garch"]
        assert (garch["p"], len(garch["alpha"])) == (1, 1)
        garch["alpha"] = [garch["alpha"][0] / 2] * 2  # a GARCH(2,1) under a GARCH(1,1) header
        assert self.forecast(ws, tmp_path, artifact) == 1
        err = capsys.readouterr().err
        assert "error: params have orders (2, 1), spec requires (1, 1)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "forecast.csv").exists()

    def test_missing_parameter_key_exits_one(self, ws, tmp_path, capsys, garch_artifact):
        artifact = copy.deepcopy(garch_artifact)
        del artifact["model"]["params"]["Theta"]
        assert self.forecast(ws, tmp_path, artifact) == 1
        err = capsys.readouterr().err
        assert "error: model artifact lacks key 'Theta'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("params", "phi", 0.5),
            ("params", "sigma2", [1.0]),
            ("garch", "alpha", 0.1),
            ("garch", "beta", "x"),
            ("diagnostics", "boundary_flags", 5),
            ("diagnostics", "converged", "no"),
        ],
    )
    def test_wrongly_typed_field_exits_one_naming_it(self, ws, tmp_path, capsys, garch_artifact, block, key, value):
        artifact = copy.deepcopy(garch_artifact)
        artifact["model"][block][key] = value
        assert self.forecast(ws, tmp_path, artifact) == 1
        err = capsys.readouterr().err
        assert f"error: model.{block}.{key} = {value!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "forecast.csv").exists()


    def test_artifact_that_is_not_an_object_exits_one(self, ws, tmp_path, capsys):
        assert self.forecast(ws, tmp_path, [1]) == 1
        err = capsys.readouterr().err
        assert "error: JSON document must be an object, got [1]" in err
        assert "Traceback" not in err


class TestMalformedRunConfig:
    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("fit", "clip", {"ub": 10.0}, "clip.lb is missing"),
            ("fit", "garch", {"p": 1}, "garch.q is missing"),
            ("fit", "clip", 5, "clip must be an object, got 5"),
            ("fit", "test_start", 5, "test_start = 5: "),
            ("select", "grid", {"p": [1], "q": [1, 2]}, "grid.p = [1]: expected [low, high]"),
            ("select", "grid", {"p": [3, 1], "q": [1, 2]}, "grid.p = [3, 1]: expected low <= high"),
            ("select", "grid", {"p": [1, 2], "q": [-1, 1]}, "grid.q = [-1, 1]: expected a non-negative low"),
            ("fit", "order", {"p": "x"}, "order.p = 'x': expected an integer"),
            ("fit", "order", {"p": 1.7}, "order.p = 1.7: expected an integer"),
            ("fit", "order", {"p": True}, "order.p = True: expected an integer"),
            ("fit", "constant", "false", "constant = 'false': expected true or false"),
            ("fit", "test_start", "2002-12-02T00:00Z", "2002-12-02T00:00Z is not an hour of this series"),
            ("backtest", "epsilon", 0.0, "epsilon must be positive"),
        ],
        ids=["clip-without-lb", "garch-without-q", "clip-number", "test_start-number", "grid-one-bound",
             "grid-reversed", "grid-negative-low",
             "order-string", "order-fraction", "order-boolean", "constant-string", "test_start-outside-data",
             "epsilon-zero"],
    )
    def test_malformed_value_exits_one_naming_its_key(self, ws, tmp_path, capsys, command, key, value, message):
        config = write_config(tmp_path, "bad.json", **{key: value})
        out = tmp_path / "out"
        assert main([command, "--config", config, "--data", ws.data, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "fit"])
    @pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
    def test_negative_seed_exits_one_naming_it(self, ws, tmp_path, capsys, command, in_config):
        # a constant-only spec never draws from the seed, and is rejected all the same
        overrides = {"order": {"p": 0, "q": 0}, **({"seed": -1} if in_config else {})}
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, "seed.json", **overrides), "--out", str(out)]
        argv += ["--data", ws.data] if command == "fit" else []
        argv += [] if in_config else ["--seed", "-1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: seed = -1: expected a non-negative integer" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_integral_number_reads_as_an_order(self, ws, tmp_path):
        config = write_config(tmp_path, "order.json", order={"p": 1.0, "q": 2})
        assert main(["fit", "--config", config, "--data", ws.data, "--out", str(tmp_path / "m.json")]) == 0


class TestMalformedReports:
    @pytest.fixture
    def report(self):
        return json.loads(BacktestReport(
            horizon=2, n_origins=4, improvement=(5.0, 3.0), mae=(1.0, 2.0), excluded=(0, 0),
            test_start=datetime(2001, 1, 19, tzinfo=timezone.utc), test_length=4,
        ).to_json())

    def compare(self, tmp_path, payload):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return main(["compare", f"model={path}", "--out", str(tmp_path / "table.csv")])

    def test_report_reads_back(self, tmp_path, report):
        assert self.compare(tmp_path, report) == 0

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.pop("mae"), "mae is missing"),
            (lambda r: r.update(improvement_pct=1.0), "improvement_pct = 1.0: expected a list"),
            (lambda r: r.update(excluded=[0, 0.5]), "excluded = [0, 0.5]: expected an integer"),
        ],
        ids=["without-mae", "improvement-number", "excluded-fraction"],
    )
    def test_malformed_report_exits_one_naming_its_key(self, tmp_path, capsys, report, edit, message):
        edit(report)
        assert self.compare(tmp_path, report) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "table.csv").exists()

    def test_report_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        assert self.compare(tmp_path, [1, 2]) == 1
        err = capsys.readouterr().err
        assert "error: JSON document must be an object, got [1, 2]" in err
        assert "Traceback" not in err


class TestSynth:
    def test_byte_identical_across_runs(self, ws, tmp_path):
        again = tmp_path / "again.csv"
        assert main(["synth", "--config", ws.config, "--out", str(again)]) == 0
        assert again.read_bytes() == (ws.root / "data.csv").read_bytes()

    def test_wrongly_typed_recipe_parameter_exits_one_naming_it(self, tmp_path, capsys):
        synth = {"length": 480, "delta": {"params": {"phi": 0.5}}}
        config = write_config(tmp_path, "bad.json", synth=synth)
        assert main(["synth", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "error: synth.delta.params.phi = 0.5" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_seed_flag_changes_output(self, ws, tmp_path):
        other = tmp_path / "other.csv"
        assert main(
            ["synth", "--config", ws.config, "--seed", "7", "--out", str(other)]
        ) == 0
        assert other.read_bytes() != (ws.root / "data.csv").read_bytes()

    def test_start_up_and_synth_leave_signal_optimize_and_linalg_unimported(self, ws, tmp_path):
        # a fresh interpreter: this one has imported them for other tests;
        # the commands that fit, a rolling backtest's refits included, leave
        # them out too, and only a grid past the pool's crossover imports
        # the process pool
        rolling = write_config(tmp_path, "rolling.json", refit="rolling")
        commands = [
            ["synth", "--config", ws.config, "--out", str(tmp_path / "x.csv")],
            ["fit", "--config", ws.config, "--data", ws.data, "--out", str(tmp_path / "model.json")],
            ["backtest", "--config", rolling, "--data", ws.data, "--out", str(tmp_path / "report.json")],
        ]
        script = (
            "import json, sys\n"
            "HEAVY = ('scipy.signal', 'scipy.optimize', 'scipy.linalg', 'multiprocessing', 'concurrent.futures')\n"
            "import lmpcast.cli\n"
            "after_import = [m for m in HEAVY if m in sys.modules]\n"
            f"codes = [lmpcast.cli.main(argv) for argv in {commands!r}]\n"
            "print(json.dumps([codes, after_import, [m for m in HEAVY if m in sys.modules]]))\n"
        )
        src = str(Path(lmpcast.cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1]) == [[0, 0, 0], [], []]
        assert (tmp_path / "x.csv").read_bytes() == (ws.root / "data.csv").read_bytes()
        report = BacktestReport.from_json((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report.fits == report.n_origins > 1

    def test_effective_config_logged(self, ws, tmp_path, caplog):
        out = tmp_path / "log.csv"
        with caplog.at_level("INFO", logger="lmpcast"):
            main(["synth", "--config", ws.config, "--out", str(out)])
        assert "effective config" in caplog.text
        assert '"seed": 123' in caplog.text

    @staticmethod
    def _stderr_lines(argv, prefix):
        # a fresh interpreter: pytest's own log handlers keep basicConfig from reaching stderr here
        src = str(Path(lmpcast.cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "lmpcast.cli", *argv], env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        return [line for line in run.stderr.splitlines() if line.startswith(prefix)]

    @pytest.mark.parametrize("verbose", [True, False])
    def test_verbose_logs_one_load_line_on_stderr(self, ws, tmp_path, verbose):
        argv = ["--verbose"] * verbose + ["acf", "--config", ws.config, "--data", ws.data, "--out", str(tmp_path / "acf.csv")]
        loads = self._stderr_lines(argv, "DEBUG lmpcast.dataio")
        if verbose:
            assert len(loads) == 1
            assert re.fullmatch(rf"DEBUG lmpcast.dataio: {re.escape(ws.data)}: read 480 rows with the array reader "
                                r"in [0-9]+\.[0-9] ms", loads[0])
        else:
            assert loads == []

    @pytest.mark.parametrize("verbose", [True, False])
    def test_verbose_logs_one_fit_line_on_stderr(self, ws, tmp_path, verbose):
        model = tmp_path / "model.json"
        argv = ["--verbose"] * verbose + ["fit", "--config", ws.config, "--data", ws.data, "--out", str(model)]
        fits = self._stderr_lines(argv, "DEBUG lmpcast.estimation")
        # the artifact carries no wall time: the same bytes with and without the flag
        plain = tmp_path / "plain.json"
        assert main(["fit", "--config", ws.config, "--data", ws.data, "--out", str(plain)]) == 0
        assert model.read_bytes() == plain.read_bytes()
        if verbose:
            assert len(fits) == 1
            line = re.fullmatch(r"DEBUG lmpcast.estimation: fit ARIMA\(1,0,2\)\(0,0,0\)_24 with 0 regressors and a "
                                r"constant: ([0-9]+) innovation and ([0-9]+) Jacobian evaluations, converged, "
                                r"in [0-9]+\.[0-9] ms", fits[0])
            assert line
            diagnostics = json.loads(model.read_text(encoding="utf-8"))["model"]["diagnostics"]
            assert [int(n) for n in line.groups()] == [diagnostics["evaluations"], diagnostics["iterations"]]
        else:
            assert fits == []

    @pytest.mark.parametrize("verbose", [True, False])
    def test_verbose_logs_one_garch_fit_line_on_stderr(self, ws, tmp_path, verbose):
        config = write_config(ws.root, "garch_verbose.json", garch={"p": 1, "q": 1})
        model = tmp_path / "model.json"
        argv = ["--verbose"] * verbose + ["fit", "--config", config, "--data", ws.data, "--out", str(model)]
        fits = self._stderr_lines(argv, "DEBUG lmpcast.estimation: fit GARCH")
        # the artifact carries no wall time: the same bytes with and without the flag
        plain = tmp_path / "plain.json"
        assert main(["fit", "--config", config, "--data", ws.data, "--out", str(plain)]) == 0
        assert model.read_bytes() == plain.read_bytes()
        if verbose:
            assert len(fits) == 1
            assert re.fullmatch(r"DEBUG lmpcast.estimation: fit GARCH\(1,1\): [1-9][0-9]* scoring iterations and "
                                r"[1-9][0-9]* QML evaluations, converged, in [0-9]+\.[0-9] ms", fits[0])
        else:
            assert fits == []


class TestAcf:
    def test_export_layout(self, ws, tmp_path):
        out = tmp_path / "acf.csv"
        rc = main(
            ["acf", "--config", ws.config, "--data", ws.data, "--raw",
             "--series", "delta", "--max-lag", "12", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "lag,acf,pacf,band"
        assert len(lines) == 1 + 13


class TestSelect:
    def test_clean_differential_grid_recovers_generating_order(self, tmp_path, capsys):
        # full default 5x5 grid on an untransformed differential whose
        # generator is ARMA(1,2): the chosen cell must name that order
        config = {
            "pipeline": "arma_delta",
            "order": {"p": 1, "d": 0, "q": 2},
            "seed": 123,
            "fit": {"restarts": 1},
            "synth": {"length": 4000, "weekend_effect": 0.0, "spike_rate": 0.0},
        }
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        data = tmp_path / "clean.csv"
        assert main(["synth", "--config", str(path), "--out", str(data)]) == 0
        assert main(["select", "--config", str(path), "--data", str(data)]) == 0
        out = capsys.readouterr().out
        assert "p\\q" in out
        assert "selected: p=1, q=2" in out

    def test_prints_table_and_choice(self, ws, tmp_path, capsys):
        config = write_config(tmp_path, "grid.json", grid={"p": [1, 2], "q": [1, 2]})
        out = tmp_path / "grid.csv"
        rc = main(
            ["select", "--config", config, "--data", ws.data, "--out", str(out)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "selected: p=" in stdout
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p,q,bic,status"
        assert len(lines) == 1 + 4

    def test_out_exact_bytes_with_a_failed_cell(self, ws, tmp_path, monkeypatch):
        table = BicTable((1, 2), (1, 3), {(1, 1): 1234.5, (1, 3): -7.0, (2, 3): 1e-7}, {(2, 1): "EstimationFailed: x"})
        monkeypatch.setattr(lmpcast.cli, "grid_select", lambda *args: (ModelSpec(p=1, q=3), table))
        out = tmp_path / "grid.csv"
        assert main(["select", "--config", ws.config, "--data", ws.data, "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"p,q,bic,status\n"
            b"1,1,1234.500000,ok\n"
            b"1,3,-7.000000,ok\n"
            b"2,1,,failed\n"
            b"2,3,0.000000,ok\n"
        )

    @pytest.mark.parametrize("max_iterations, warned", [(100, [(2, 2), (2, 3), (3, 2), (3, 3)]), (2000, [])],
                             ids=["capped", "default-cap"])
    def test_one_warning_per_unconverged_cell(self, tmp_path, caplog, max_iterations, warned):
        config = write_config(tmp_path, "grid.json", seed=2, clip=None, log_offset=None, test_start=None,
                              grid={"p": [1, 3], "q": [1, 3]},
                              fit={"restarts": 1, "max_iterations": max_iterations},
                              synth={"length": 1500, "weekend_effect": 0.0, "spike_rate": 0.0})
        data, out = tmp_path / "data.csv", tmp_path / "grid.csv"
        assert main(["synth", "--config", config, "--out", str(data)]) == 0
        with caplog.at_level("WARNING", logger="lmpcast"):
            assert main(["select", "--config", config, "--data", str(data), "--out", str(out)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"cell p={p}, q={q} stopped at the iteration cap without converging; its BIC may be too "
                            f"high" for p, q in warned]
        # the grid file marks a capped cell ok, as it always has
        assert out.read_text(encoding="utf-8").count(",ok\n") == 9

    def test_every_cell_failed_exits_one_naming_the_first_failure(self, tmp_path, capsys):
        config = write_config(tmp_path, "grid.json", test_start=None, synth={"length": 5},
                              grid={"p": [4, 5], "q": [4, 5]})
        data, out = tmp_path / "data.csv", tmp_path / "grid.csv"
        assert main(["synth", "--config", config, "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["select", "--config", config, "--data", str(data), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert re.search(r"^error: every grid cell failed; first failure, \(p, q\) = \(4, 4\): SeriesTooShort: ",
                         captured.err, re.MULTILINE)
        assert "selected" not in captured.out and not out.exists()

    @pytest.mark.parametrize("kind", ["baseline", "oracle"])
    def test_model_free_pipeline_exits_one_naming_it(self, ws, tmp_path, capsys, kind):
        config = write_config(tmp_path, "grid.json", pipeline=kind, grid={"p": [1, 2], "q": [1, 1]})
        out = tmp_path / "grid.csv"
        assert main(["select", "--config", config, "--data", ws.data, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"error: {kind}" in captured.err
        assert "p\\q" not in captured.out and "selected" not in captured.out
        assert not out.exists()


class TestFitForecastBacktestCompare:
    def test_full_workflow(self, ws, capsys):
        model = ws.root / "model.json"
        rc = main(["fit", "--config", ws.config, "--data", ws.data, "--out", str(model)])
        assert rc == 0
        artifact = json.loads(model.read_text(encoding="utf-8"))
        diagnostics = artifact["model"]["diagnostics"]
        summary = capsys.readouterr().out
        assert "loglik=" in summary
        assert (
            f"converged={diagnostics['converged']} evaluations={diagnostics['evaluations']}\n" in summary
        )
        assert artifact["config"]["pipeline"] == "arma_delta"
        assert "phi" in artifact["model"]["params"]

        forecast = ws.root / "forecast.csv"
        rc = main(
            ["forecast", "--config", ws.config, "--model", str(model),
             "--data", ws.data, "--out", str(forecast)]
        )
        assert rc == 0
        lines = forecast.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "timestamp,forecast,variance"
        assert len(lines) == 1 + BASE_CONFIG["horizon"]
        assert lines[1].startswith("2001-01-19T00:00Z,")

        report = ws.root / "model_report.json"
        rc = main(
            ["backtest", "--config", ws.config, "--data", ws.data, "--out", str(report)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "I_1 = " in stdout
        parsed = BacktestReport.from_json(report.read_text(encoding="utf-8"))
        assert parsed.horizon == BASE_CONFIG["horizon"]
        assert parsed.improvement[0] > 0.0

        base_config = write_config(ws.root, "baseline.json", pipeline="baseline")
        base_report = ws.root / "baseline_report.json"
        rc = main(
            ["backtest", "--config", base_config, "--data", ws.data,
             "--out", str(base_report)]
        )
        assert rc == 0
        assert "I_1 = 0.00%" in capsys.readouterr().out

        table = ws.root / "table.csv"
        rc = main(
            ["compare", "--config", ws.config, f"arma={report}",
             f"baseline={base_report}", "--out", str(table)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        rows = [line for line in stdout.splitlines() if line]
        # fitted differential model must rank above day-ahead parity
        assert rows[1].startswith("arma")
        assert rows[2].startswith("baseline")
        csv_lines = table.read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "model,horizon,improvement_pct,mae,excluded"
        assert len(csv_lines) == 1 + 2 * BASE_CONFIG["horizon"]

    def test_forecast_out_exact_bytes(self, tmp_path):
        # an AR(1) differential with intercept 1 and phi 0.5 on a 4-hour
        # history whose last differential is 4: forecasts 3 and 2.5 below dalmp
        data = tmp_path / "data.csv"
        data.write_text(
            "timestamp,dalmp,rtlmp\n"
            "2001-01-01T00:00Z,10.0,9.0\n2001-01-01T01:00Z,11.0,10.0\n"
            "2001-01-01T02:00Z,12.0,10.5\n2001-01-01T03:00Z,13.0,9.0\n"
            "2001-01-01T04:00Z,20.0,15.0\n2001-01-01T05:00Z,30.0,25.0\n",
            encoding="utf-8",
        )
        params = {"phi": [0.5], "Phi": [], "theta": [], "Theta": [], "mu": 1.0, "gamma": [], "sigma2": 1.0}
        artifact = {
            "config": {"pipeline": "arma_delta", "order": {"p": 1}},
            "model": {"params": params, "garch": None,
                      "diagnostics": {"converged": True, "iterations": 0, "boundary_flags": []}},
        }
        model = tmp_path / "model.json"
        model.write_text(json.dumps(artifact), encoding="utf-8")
        out = tmp_path / "forecast.csv"
        rc = main(["forecast", "--model", str(model), "--data", str(data),
                   "--origin", "2001-01-01T04:00Z", "--horizon", "2", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (
            b"timestamp,forecast,variance\n"
            b"2001-01-01T04:00Z,17.000000,1.000000\n"
            b"2001-01-01T05:00Z,27.500000,1.250000\n"
        )

    def test_compare_out_exact_bytes(self, tmp_path):
        start = datetime(2001, 1, 19, tzinfo=timezone.utc)
        reports = []
        for name, improvement, mae, excluded in (
            ("low", (-2.5, 1.0), (3.0, 4.25), (0, 1)),
            ("high", (12.125, 0.0), (1e-7, 2.0), (3, 0)),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(BacktestReport(
                horizon=2, n_origins=4, improvement=improvement, mae=mae, excluded=excluded,
                test_start=start, test_length=4,
            ).to_json(), encoding="utf-8")
            reports.append(f"{name}={path}")
        out = tmp_path / "table.csv"
        assert main(["compare", *reports, "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"model,horizon,improvement_pct,mae,excluded\n"
            b"high,1,12.125000,0.000000,3\n"
            b"high,2,0.000000,2.000000,0\n"
            b"low,1,-2.500000,3.000000,0\n"
            b"low,2,1.000000,4.250000,1\n"
        )

    def test_test_end_at_the_end_of_the_data_scores_the_rest(self, ws, tmp_path):
        whole, ended = tmp_path / "whole.json", tmp_path / "ended.json"
        assert main(["backtest", "--config", ws.config, "--data", ws.data, "--out", str(whole)]) == 0
        config = write_config(tmp_path, "end.json", test_end="2001-01-21T00:00Z")
        assert main(["backtest", "--config", config, "--data", ws.data, "--out", str(ended)]) == 0
        assert ended.read_bytes() == whole.read_bytes()

    def test_oracle_backtest_scores_hundred(self, ws, tmp_path, capsys):
        config = write_config(tmp_path, "oracle.json", pipeline="oracle")
        out = tmp_path / "oracle.json.report"
        rc = main(["backtest", "--config", config, "--data", ws.data, "--out", str(out)])
        assert rc == 0
        assert "I_1 = 100.00%" in capsys.readouterr().out

    def test_preset_fit_runs(self, ws, tmp_path):
        # the shipped differential preset carries its own transforms; only
        # the data window comes from the local config
        window = tmp_path / "window.json"
        window.write_text(
            json.dumps({"test_start": "2001-01-19T00:00Z", "fit": {"restarts": 1}}),
            encoding="utf-8",
        )
        rc = main(
            ["fit", "--preset", "arma-paper", "--config", str(window),
             "--data", ws.data, "--out", str(tmp_path / "m.json")]
        )
        assert rc == 0
        artifact = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        assert artifact["config"]["pipeline"] == "arma_delta"
