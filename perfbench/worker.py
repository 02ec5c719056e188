"""Workload process of the benchmark: set up one workload, run timed passes.

Started by ``run.py`` as ``python3 perfbench/worker.py <request JSON>``. It
pins BLAS to one thread before numpy is imported, imports ``lmpcast`` from
the checkout's ``src/``, writes the configs and the synthetic market through
the CLI, prints ``ready`` (the parent times set-up up to that line), then runs
passes of the workload through ``lmpcast.cli.main`` in this process until the
time budget is spent, and prints one ``result <JSON>`` line.

A pass is the whole workload once. Every pass is checked, and its written
outputs must be byte-identical to the first pass's (same seed, same bytes).
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALLER_BLAS_ENV = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from datetime import datetime, timedelta, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SYNTH_START = datetime(2001, 1, 1, tzinfo=timezone.utc)  # the config's default synth start


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads; ``FULL`` is what the benchmark runs."""

    fit_once_hours: int = 17520
    fit_once_test: int = 720
    fit_once_horizon: int = 12
    grid_n: int = 5000
    grid_max_order: int = 5
    rolling_history: int = 3600
    rolling_origins: int = 24
    rolling_horizon: int = 3


FULL = Sizes()


@dataclass
class PassResult:
    attempted: int
    failed: int
    outputs: dict[str, bytes]
    quality: dict[str, float]
    problems: list[str] = field(default_factory=list)


def _hour(offset: int) -> str:
    return (SYNTH_START + timedelta(hours=offset)).strftime("%Y-%m-%dT%H:%MZ")


def import_lmpcast() -> float:
    """Import the package from the checkout's ``src/``; returns the import time."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import lmpcast.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    where = Path(sys.modules["lmpcast"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported lmpcast from {where}, not from {SRC}")
    return import_s


REFERENCE_ROUNDS = 2500


def _reference_kernel(rounds: int) -> None:
    import numpy as np
    from scipy.signal import lfilter

    x = np.random.default_rng(0).normal(size=17520)
    for i in range(rounds):
        y = lfilter([1.0], [1.0, -0.5, 0.1], x[: 5000 if i % 2 else 17520])
        np.roots([1.0, -0.5, 0.1 * (i % 3)])
        float(np.dot(y, y))
        tuple(sorted({"phi": (0.5, i), "theta": (0.3,)}.items()))


def reference_s() -> float:
    """Seconds a fixed numpy/scipy/interpreter kernel takes right now.

    It runs no lmpcast code, so a change to the package cannot move it; it
    moves only with the machine's speed, which on a shared box drifts by
    tens of percent over minutes. Scaled metrics divide that drift out.
    """
    _reference_kernel(10)  # first calls load lazily imported code
    t0 = time.perf_counter()
    _reference_kernel(REFERENCE_ROUNDS)
    return time.perf_counter() - t0


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stdout)."""
    import lmpcast.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = lmpcast.cli.main(argv)  # looked up per call so tracing sees it
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op, not a failed benchmark
            traceback.print_exc()
            code = -1
    return code, buf.getvalue()


class Workload:
    """One workload: its configs, its set-up and one checked pass."""

    name = ""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        self.sizes, self.seed, self.dir = sizes, seed, workdir
        self.data = workdir / "data.csv"

    def configs(self) -> dict[str, dict]:
        raise NotImplementedError

    def setup(self) -> None:
        """Write the configs and the market CSV (the part of set-up after import)."""
        configs = self.configs()
        for name, config in configs.items():
            (self.dir / f"{name}.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
        # every config of a workload carries the same synth recipe and seed
        first = next(iter(configs))
        code, _ = call_cli(["synth", "--config", str(self.dir / f"{first}.json"), "--out", str(self.data)])
        if code != 0:
            raise RuntimeError(f"synth exited with {code}")

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def _backtest(self, name: str, n_origins: int, horizon: int, result: PassResult) -> dict | None:
        """Run ``backtest`` for one config; None (with a problem noted) if it failed."""
        out = self.dir / f"{name}.report.json"
        code, _ = call_cli(["backtest", "--config", str(self.dir / f"{name}.json"),
                            "--data", str(self.data), "--out", str(out)])
        result.attempted += n_origins
        if code != 0:
            result.problems.append(f"{name}: backtest exited with {code}")
            return None
        text = out.read_bytes()
        result.outputs[out.name] = text
        report = json.loads(text)
        if report["n_origins"] != n_origins or report["horizon"] != horizon:
            result.problems.append(f"{name}: report covers {report['n_origins']} origins, "
                                   f"horizon {report['horizon']}")
            return None
        return report


def _fail(result: PassResult, n: int, problem: str) -> None:
    result.failed = min(result.attempted, result.failed + n)
    result.problems.append(problem)


class BacktestFitOnce(Workload):
    """Criterion 8's three pipelines on a two-year market, fit once, then compare."""

    name = "backtest_fit_once"
    PIPELINES = ("arma_delta", "armax_delta", "sarima_rtlmp")

    def configs(self) -> dict[str, dict]:
        s = self.sizes
        base = {
            "clip": {"ub": 22.0, "lb": -4.0},
            "log_offset": 1000.0,
            "horizon": s.fit_once_horizon,
            "seed": self.seed,
            "fit": {"restarts": 1},
            "synth": {"length": s.fit_once_hours},
            "test_start": _hour(s.fit_once_hours - s.fit_once_test),
        }
        return {
            "arma_delta": {**base, "pipeline": "arma_delta", "order": {"p": 1, "q": 2}},
            "armax_delta": {**base, "pipeline": "armax_delta", "order": {"p": 1, "q": 2},
                            "garch": {"p": 1, "q": 1}},
            "sarima_rtlmp": {**base, "pipeline": "sarima_rtlmp", "clip": None,
                             "order": {"p": 2, "d": 0, "q": 1, "P": 1, "D": 1, "Q": 1, "S": 24}},
        }

    def run_pass(self) -> PassResult:
        s = self.sizes
        result = PassResult(0, 0, {}, {})
        reports = {name: self._backtest(name, s.fit_once_test, s.fit_once_horizon, result)
                   for name in self.PIPELINES}
        got = {name: r["improvement_pct"] for name, r in reports.items() if r is not None}
        bad = set(self.PIPELINES) - set(got)
        table = self.dir / "compare.csv"
        code, _ = call_cli(["compare", *(f"{n}={self.dir / f'{n}.report.json'}" for n in self.PIPELINES),
                            "--out", str(table)])
        if code != 0:
            bad.update(self.PIPELINES)
            result.problems.append(f"compare exited with {code}")
        else:
            text = table.read_bytes()
            result.outputs[table.name] = text
            rows = text.decode().strip().splitlines()[1:]
            if len(rows) != len(self.PIPELINES) * s.fit_once_horizon:
                bad.update(self.PIPELINES)
                result.problems.append(f"compare table has {len(rows)} rows")
        # criterion 8 (a) and (b): differential pipelines beat the day-ahead
        # price, and their skill decays from the first to the last step
        for name in ("arma_delta", "armax_delta"):
            if name in got and not got[name][0] > 0.0:
                bad.add(name)
                result.problems.append(f"{name}: I_1 = {got[name][0]:.4f} <= 0")
            if name in got and not got[name][0] > got[name][-1]:
                bad.add(name)
                result.problems.append(f"{name}: I_1 <= I_{s.fit_once_horizon}")
        # (c): modeling the real-time price directly scores below the differential
        if "sarima_rtlmp" in got and "arma_delta" in got and not got["sarima_rtlmp"][0] < got["arma_delta"][0]:
            bad.add("sarima_rtlmp")
            result.problems.append("sarima_rtlmp: I_1 not below arma_delta's")
        result.failed = len(bad) * s.fit_once_test
        if got:
            result.quality["improvement_pct"] = statistics.fmean(v for r in got.values() for v in r)
        return result


class SelectGrid(Workload):
    """``select`` over the (p, q) grid on a planted ARMA(1,2) differential."""

    name = "select_grid"

    def configs(self) -> dict[str, dict]:
        s = self.sizes
        # no spikes and no weekend effect: the differential is exactly the
        # generator's ARMA(1,2), as in criterion 5
        return {"select": {
            "pipeline": "arma_delta",
            "seed": self.seed,
            "fit": {"restarts": 1},
            "grid": {"p": [1, s.grid_max_order], "q": [1, s.grid_max_order]},
            "synth": {"length": s.grid_n, "weekend_effect": 0.0, "spike_rate": 0.0},
        }}

    def run_pass(self) -> PassResult:
        cells = self.sizes.grid_max_order ** 2
        result = PassResult(cells, 0, {}, {})
        out = self.dir / "grid.csv"
        code, _ = call_cli(["select", "--config", str(self.dir / "select.json"),
                            "--data", str(self.data), "--out", str(out)])
        if code != 0:
            _fail(result, cells, f"select exited with {code}")
            return result
        text = out.read_bytes()
        result.outputs[out.name] = text
        bics = []
        for row in text.decode().strip().splitlines()[1:]:
            p, q, value, status = row.split(",")
            bic = float(value) if value else math.nan
            if status == "ok" and math.isfinite(bic):
                bics.append(bic)
        if len(bics) != cells:
            _fail(result, cells - len(bics), f"grid has {len(bics)} finite cells of {cells}")
        if bics:
            result.quality["grid_bic_best"] = min(bics)
        return result


class BacktestRolling(Workload):
    """ARMA(1,2) differential backtest refitting at every origin."""

    name = "backtest_rolling"

    def configs(self) -> dict[str, dict]:
        s = self.sizes
        return {"rolling": {
            "pipeline": "arma_delta",
            "clip": {"ub": 22.0, "lb": -4.0},
            "log_offset": 1000.0,
            "order": {"p": 1, "q": 2},
            "horizon": s.rolling_horizon,
            "refit": "rolling",
            "seed": self.seed,
            "fit": {"restarts": 1},
            "synth": {"length": s.rolling_history + s.rolling_origins},
            "test_start": _hour(s.rolling_history),
        }}

    def run_pass(self) -> PassResult:
        s = self.sizes
        result = PassResult(0, 0, {}, {})
        report = self._backtest("rolling", s.rolling_origins, s.rolling_horizon, result)
        if report is None:
            result.failed = result.attempted
            return result
        improvement = report["improvement_pct"]
        if not improvement[0] > 0.0:
            _fail(result, s.rolling_origins, f"rolling: I_1 = {improvement[0]:.4f} <= 0")
        result.quality["improvement_pct"] = statistics.fmean(improvement)
        return result


WORKLOADS = {w.name: w for w in (BacktestFitOnce, SelectGrid, BacktestRolling)}


def _arg_len(index: int, name: str):
    def size(args: tuple, kwargs: dict) -> int:
        value = args[index] if len(args) > index else kwargs.get(name)
        return len(value) if value is not None else 0
    return size


def _unconverged(result) -> dict[str, int]:
    diagnostics = getattr(result, "diagnostics", None)
    return {"unconverged": int(getattr(diagnostics, "converged", True) is False)}


TARGETS = (
    tracing.Target("cli", "main"),
    tracing.Target("dataio", "synth_market"),
    tracing.Target("dataio", "write_lmp_csv"),
    tracing.Target("dataio", "load_lmp_csv", on_result=lambda r: {"rows_loaded": len(r)}),
    tracing.Target("backtest", "rolling_backtest"),
    tracing.Target("backtest", "fit_pipeline"),
    tracing.Target("backtest", "pipeline_forecast"),
    tracing.Target("backtest", "transform_target"),
    tracing.Target("backtest", "improvement_index"),
    tracing.Target("backtest", "mae"),
    tracing.Target("backtest", "compare_models"),
    tracing.Target("estimation", "grid_select"),
    tracing.Target("estimation", "fit", on_result=_unconverged),
    tracing.Target("estimation", "fit_garch"),
    tracing.Target("estimation", "model_forecast"),
    tracing.Target("arima", "profiled_log_likelihood", size=_arg_len(2, "w")),
    tracing.Target("arima", "log_likelihood", size=_arg_len(2, "series")),
    tracing.Target("arima", "residuals", size=_arg_len(2, "series")),
    tracing.Target("arima", "forecast", size=_arg_len(2, "history")),
    tracing.Target("arima", "check_conforms"),
    tracing.Target("lagpoly", "is_stable"),
    tracing.Target("lagpoly", "multiply"),
    tracing.Target("garch", "forecast_variance"),
)

# Functions whose call count and total time are reported as <name>_calls / <name>_s.
COUNTED = (
    "backtest.pipeline_forecast", "backtest.fit_pipeline", "arima.forecast", "arima.residuals",
    "arima.check_conforms", "lagpoly.is_stable", "lagpoly.multiply", "garch.forecast_variance",
    "estimation.fit", "estimation.fit_garch",
)
FILTER_ENTRY_POINTS = ("arima.profiled_log_likelihood", "arima.log_likelihood", "arima.residuals",
                       "arima.forecast")


def layer_metrics(tracer: tracing.Tracer, run: str) -> dict[str, float]:
    """Per-layer values of one traced pass (counts exact, times in seconds)."""
    st = tracing.run_stats(tracer, run)
    calls = lambda n: st.calls.get(n, 0)  # noqa: E731
    total = lambda n: st.total_s.get(n, 0.0)  # noqa: E731
    m: dict[str, float] = {}
    for name in COUNTED:
        m[f"{name}_calls"] = calls(name)
        m[f"{name}_s"] = total(name)
    origins = sorted(st.durations.get("backtest.pipeline_forecast", []))
    tail = tracing.tail_percentile(len(origins))
    m["backtest.pipeline_forecast_self_s"] = st.self_s.get("backtest.pipeline_forecast", 0.0)
    m["backtest.origin_p50_us"] = tracing.nearest_rank(origins, 50.0) * 1e6 if origins else 0.0
    m["backtest.origin_tail_us"] = tracing.nearest_rank(origins, tail) * 1e6 if tail else 0.0
    m["backtest.score_s"] = total("backtest.improvement_index") + total("backtest.mae")
    m["series.transform_s"] = total("backtest.transform_target")
    m["cli.self_s"] = st.self_s.get("cli.main", 0.0)
    load_s = total("dataio.load_lmp_csv")
    m["dataio.load_lmp_csv_s"] = load_s
    rows = tracer.counts.get((run, "rows_loaded"), 0)
    m["dataio.load_rows_per_s"] = rows / load_s if load_s > 0 else 0.0
    m["arima.filtered_samples"] = sum(tracer.sizes.get((run, n), 0) for n in FILTER_ENTRY_POINTS)
    m["arima.profiled_log_likelihood_calls"] = calls("arima.profiled_log_likelihood")
    m["arima.eval_us"] = (total("arima.profiled_log_likelihood") / calls("arima.profiled_log_likelihood")
                          * 1e6 if calls("arima.profiled_log_likelihood") else 0.0)
    evals = st.inner_calls.get(("estimation.fit", "arima.profiled_log_likelihood"), 0)
    fits = calls("estimation.fit")
    m["estimation.objective_evals"] = evals
    m["estimation.evals_per_fit"] = evals / fits if fits else 0.0
    m["estimation.fit_self_s"] = st.self_s.get("estimation.fit", 0.0)
    m["estimation.unconverged_share"] = tracer.counts.get((run, "unconverged"), 0) / fits if fits else 0.0
    m["estimation.grid_select_s"] = total("estimation.grid_select")
    m["estimation.model_forecast_s"] = total("estimation.model_forecast")
    m["trace.spans"] = sum(st.calls.values())
    return m


COUNT_METRICS = {"arima.filtered_samples", "arima.profiled_log_likelihood_calls",
                 "estimation.objective_evals", "estimation.evals_per_fit", "estimation.unconverged_share",
                 "trace.spans", *(f"{n}_calls" for n in COUNTED)}


def environment() -> dict:
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # older numpy has no dict mode; the versions still identify the build
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "caller_blas_thread_env": CALLER_BLAS_ENV,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 sizes: Sizes = FULL, emit=print, trace_path: Path | None = None) -> dict:
    """Set up and run one workload; returns the worker's result record.

    ``emit("ready")`` is called once set-up is done, then ``emit("ref <s>")``
    with a :func:`reference_s` sample. Passes run until ``seconds`` would be
    exceeded by one more pass, and at least two run. Each pass records the
    mean of the reference samples taken just before and just after it.
    With ``trace`` every second pass is traced, so untraced and traced
    passes alternate.
    """
    import_s = import_lmpcast()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](sizes, seed, workdir)
    tracer = tracing.Tracer(TARGETS) if trace else None
    if tracer:
        tracer.install("setup")
    try:
        workload.setup()
    finally:
        if tracer:
            tracer.uninstall()
    emit("ready")
    ref = reference_s()
    emit(f"ref {ref!r}")

    passes: list[dict] = []
    first_outputs: dict[str, bytes] | None = None
    quality: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        run = f"pass{len(passes)}"
        if traced:
            tracer.install(run)
        t = time.perf_counter()
        try:
            result = workload.run_pass()
        finally:
            wall = time.perf_counter() - t
            if traced:
                tracer.uninstall()
        if first_outputs is None:
            first_outputs = result.outputs
        for out_name, text in first_outputs.items():
            if result.outputs.get(out_name, text) != text:
                _fail(result, result.attempted, f"{out_name} differs from the first pass")
        quality = result.quality or quality
        ref_after = reference_s()
        passes.append({"run": run, "traced": traced, "wall_s": wall, "ref_s": (ref + ref_after) / 2,
                       "attempted": result.attempted, "failed": result.failed, "problems": result.problems})
        ref = ref_after
        elapsed = time.perf_counter() - start
        mean_wall = statistics.fmean(p["wall_s"] for p in passes)
        if len(passes) >= 2 and elapsed + mean_wall > seconds:
            break

    record = {
        "import_s": import_s,
        "passes": passes,
        "quality": quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        record["layers"], record["trace_problems"] = _trace_summary(tracer, passes, import_s)
        record["unmeasured"] = tracer.unmeasured
        if trace_path is not None:
            tracer.export(trace_path)
            record["trace_file"] = str(trace_path)
    return record


def _trace_summary(tracer: tracing.Tracer, passes: list[dict], import_s: float) -> tuple[dict, list[str]]:
    """Median of the traced passes' layer values; counts must repeat exactly."""
    traced = [p for p in passes if p["traced"]]
    per_pass = [layer_metrics(tracer, p["run"]) for p in traced]
    problems = []
    layers = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key in COUNT_METRICS:
            if len(set(values)) > 1:
                problems.append(f"{key} differs between traced passes: {values}")
            layers[key] = values[0]
        else:
            layers[key] = statistics.median(values)
    setup = tracing.run_stats(tracer, "setup")
    layers["init.import_s"] = import_s
    layers["dataio.synth_market_s"] = setup.total_s.get("dataio.synth_market", 0.0)
    layers["dataio.write_lmp_csv_s"] = setup.total_s.get("dataio.write_lmp_csv", 0.0)
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(untraced)
    return layers, problems


def main() -> int:
    request = json.loads(sys.argv[1])
    workdir = Path(request["workdir"])
    emit = lambda line: print(line, flush=True)  # noqa: E731
    if request.get("setup_only"):
        import_lmpcast()
        workdir.mkdir(parents=True, exist_ok=True)
        WORKLOADS[request["workload"]](FULL, request["seed"], workdir).setup()
        emit("ready")
        emit(f"ref {reference_s()!r}")
        return 0
    trace_path = Path(request["trace_path"]) if request.get("trace_path") else None
    record = run_workload(request["workload"], request["seed"], request["seconds"], request["trace"],
                          workdir, emit=emit, trace_path=trace_path)
    emit("result " + json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
