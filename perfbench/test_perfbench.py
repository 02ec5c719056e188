"""Tests of the benchmark itself: percentile rule, self time, metric names, tiny runs.

Run with ``python3 -m pytest perfbench``. The tiny runs use the real CLI on
small inputs, in this process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = worker.Sizes(fit_once_hours=1500, fit_once_test=48, fit_once_horizon=3, grid_n=400,
                    grid_max_order=2, rolling_history=600, rolling_origins=3, rolling_horizon=2)


@pytest.mark.parametrize("n, pct", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (2160, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    assert tracing.tail_percentile(n) == pct


def test_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert tracing.nearest_rank(values, 50.0) == 50.0
    assert tracing.nearest_rank(values, 90.0) == 90.0
    assert tracing.nearest_rank(values, 99.9) == 100.0
    assert tracing.nearest_rank([7.0], 50.0) == 7.0


def span(name, start, end, parent=None, run_id="r"):
    return tracing.Span(name, start, end, parent, run_id)


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 4.0, 0),  # overlaps a: [1, 4] is covered once
        span("c", 8.0, 12.0, 0),  # clipped to the parent: [8, 10]
        span("leaf", 1.5, 2.0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.5, 2.0, 4.0, 0.5])


def test_run_stats_counts_nested_same_name_once():
    tracer = tracing.Tracer(())
    tracer.spans = [
        span("f", 0.0, 4.0),
        span("g", 1.0, 3.0, 0),
        span("f", 1.5, 2.5, 1),
        span("f", 5.0, 6.0, None, "other"),
    ]
    stats = tracing.run_stats(tracer, "r")
    assert stats.calls == {"f": 2, "g": 1}
    assert stats.total_s["f"] == pytest.approx(4.0)
    assert stats.self_s["f"] == pytest.approx(2.0 + 1.0)
    assert stats.self_s["g"] == pytest.approx(1.0)
    assert stats.inner_calls[("f", "f")] == 1
    assert stats.inner_calls[("g", "f")] == 1


def test_missing_target_is_unmeasured_not_fatal():
    worker.import_lmpcast()
    tracer = tracing.Tracer((tracing.Target("arima", "no_such_function"),
                             tracing.Target("no_such_module", "f"),
                             tracing.Target("lagpoly", "multiply")))
    tracer.install("r")
    try:
        import lmpcast.lagpoly as lagpoly

        poly = lagpoly.LagPolynomial.from_factor_coefficients((0.5,))
        lagpoly.multiply(poly, poly)
    finally:
        tracer.uninstall()
    assert tracer.unmeasured == ["arima.no_such_function", "no_such_module.f"]
    assert [s.name for s in tracer.spans] == ["lagpoly.multiply"]
    assert not hasattr(lagpoly.multiply, "__wrapped__")


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS) == list(worker.WORKLOADS)


# (pipeline_forecast calls, estimation.fit calls, fit_garch calls) per pass at TINY sizes
TINY_COUNTS = {
    "backtest_fit_once": (3 * 48, 3, 1),
    "select_grid": (0, 4, 0),
    "backtest_rolling": (3, 3, 0),
}


@pytest.mark.parametrize("name", list(worker.WORKLOADS))
def test_tiny_run_prints_every_benchmark_metric(name, tmp_path):
    signals = []
    record = worker.run_workload(name, seed=3, seconds=0.0, trace=True, workdir=tmp_path / "w",
                                 sizes=TINY, emit=signals.append, trace_path=tmp_path / "trace.json")
    assert signals[0] == "ready" and float(signals[1].removeprefix("ref ")) > 0.0
    assert len(signals) == 2
    assert [p["traced"] for p in record["passes"]] == [False, True]
    assert record["unmeasured"] == []
    assert record["trace_problems"] == []
    traced, _ = run.result_line(record, [], trace=True)
    untraced, _ = run.result_line(record, [(1.0, 0.25), (4.0, 0.5), (3.0, 0.25)], trace=False)
    assert list(traced["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert list(untraced["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for line in (traced, untraced):
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert untraced["metrics"]["setup_s"]["value"] == 2.0
    layers = traced["metrics"]
    forecasts, fits, garch_fits = TINY_COUNTS[name]
    assert layers["backtest.pipeline_forecast_calls"]["value"] == forecasts
    assert layers["estimation.fit_calls"]["value"] == fits
    assert layers["estimation.fit_garch_calls"]["value"] == garch_fits
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert {s[4] for s in spans} == {"setup", "pass1"}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "select_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
