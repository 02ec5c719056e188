"""Command-line entry point.

Each subcommand is a stateless batch step: inputs are CSV files, config
JSON, or artifacts written by an earlier step; outputs are files plus a
human-readable summary on stdout. Logs (including the effective merged
config for every run) go to stderr. Exit codes: 0 on success, 1 for data
or estimation errors and for a JSON input (config, model artifact or
report) with a missing key, a wrongly typed value or a non-integral order,
2 for usage errors including an unknown config key.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from typing import Any

from . import config as cfg
from .backtest import (
    BacktestReport,
    compare_models,
    fit_pipeline,
    pipeline_forecast,
    restore_pipeline_fit,
    rolling_backtest,
)
from .backtest import exog_window, transform_target
from .dataio import csv_table, export_plot_data, load_lmp_csv, synth_market, write_lmp_csv, write_text
from .errors import LmpcastError, SchemaError
from .estimation import grid_select
from .series import clip_and_log, delta_lmp, format_hour, parse_hour

log = logging.getLogger("lmpcast")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lmpcast",
        description="Short-term real-time electricity price forecasting toolkit.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON run config (merged over preset and defaults)")
        p.add_argument("--preset", choices=sorted(cfg.PRESETS), help="named base config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument(
            "--garch",
            action="store_true",
            help="attach a GARCH(1,1) variance layer if the config has none",
        )

    p = sub.add_parser("synth", help="generate a synthetic market CSV")
    common(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("acf", help="export correlogram data for a price series")
    common(p)
    p.add_argument("--data", required=True, help="input CSV (timestamp,dalmp,rtlmp)")
    p.add_argument("--series", choices=("delta", "rtlmp", "dalmp"), default="delta")
    p.add_argument("--max-lag", type=int, default=48)
    p.add_argument("--raw", action="store_true", help="skip the config's clip/log transform")
    p.add_argument("--out", required=True, help="output CSV path (lag,acf,pacf,band)")
    p.set_defaults(func=cmd_acf)

    p = sub.add_parser("select", help="order selection by BIC over a (p, q) grid")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="optional CSV of the grid (p,q,bic,status)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("fit", help="fit the configured pipeline, write a model artifact")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output model artifact (JSON)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="forecast from a model artifact")
    common(p)
    p.add_argument("--model", required=True, help="model artifact written by fit")
    p.add_argument("--data", required=True, help="CSV providing history (and future day-ahead prices)")
    p.add_argument("--origin", help="forecast origin timestamp, e.g. 2001-05-30T00:00Z")
    p.add_argument("--horizon", type=int, help="hours ahead (default from config)")
    p.add_argument("--out", required=True, help="output CSV (timestamp,forecast,variance)")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("backtest", help="rolling-origin evaluation, write a report")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--horizon", type=int, help="override the config horizon")
    p.add_argument("--out", required=True, help="output report (JSON)")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("compare", help="side-by-side table from backtest reports")
    common(p)
    p.add_argument("reports", nargs="+", metavar="NAME=REPORT.json")
    p.add_argument("--out", help="optional CSV (model,horizon,improvement_pct,mae,excluded)")
    p.set_defaults(func=cmd_compare)
    return parser


def _load_effective_config(args: argparse.Namespace) -> dict[str, Any]:
    layers: list[dict[str, Any]] = []
    if args.preset:
        layers.append(cfg.PRESETS[args.preset])
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            layers.append(json.load(fh))
    merged = cfg.merge_config(*layers)
    if args.seed is not None:
        merged["seed"] = args.seed
    if args.garch and merged["garch"] is None:
        merged["garch"] = {"p": 1, "q": 1}
    if getattr(args, "horizon", None) is not None:
        merged["horizon"] = args.horizon
    return merged


def _load_data(args: argparse.Namespace, config: dict[str, Any]):
    return load_lmp_csv(args.data, gap_policy=cfg.read(config, "gap_policy"))


def _train_window(config: dict[str, Any], dataset):
    """Training portion: everything before test_start, or the whole file."""
    if config["test_start"] is None:
        return dataset
    train, _ = cfg.split_dataset(config, dataset)
    return train


def cmd_synth(args: argparse.Namespace, config: dict[str, Any]) -> int:
    dataset = synth_market(cfg.build_synth_config(config))
    write_lmp_csv(dataset, args.out)
    print(f"wrote {len(dataset)} hours to {args.out}")
    return 0


def cmd_acf(args: argparse.Namespace, config: dict[str, Any]) -> int:
    dataset = _load_data(args, config)
    if args.series == "delta":
        series = delta_lmp(dataset.dalmp, dataset.rtlmp)
    else:
        series = getattr(dataset, args.series)
    if not args.raw:
        series = clip_and_log(series, *cfg.build_transforms(config))
    export_plot_data("acf_pacf", args.out, series=series, max_lag=args.max_lag)
    print(f"wrote lags 0..{args.max_lag} to {args.out}")
    return 0


def cmd_select(args: argparse.Namespace, config: dict[str, Any]) -> int:
    grid = cfg.read(config, "grid")
    dataset = _load_data(args, config)
    train = _train_window(config, dataset)
    pipeline = cfg.build_pipeline(config)
    if pipeline.spec is None:
        raise SchemaError(f"{pipeline.kind} pipelines have no model orders to select")
    series, exog = transform_target(pipeline, train), exog_window(pipeline, train.dalmp)
    chosen, table = grid_select(series, exog, grid["p"], grid["q"], pipeline.spec, cfg.build_fit_options(config))
    for p, q in sorted(table.unconverged):
        log.warning("cell p=%d, q=%d stopped at the iteration cap without converging; its BIC may be too high",
                    p, q)
    print(table.render())
    print(f"selected: p={chosen.p}, q={chosen.q}")
    if args.out:
        rows = [(p, q, table.cells.get((p, q)), "ok" if (p, q) in table.cells else "failed")
                for p in table.p_values for q in table.q_values]
        write_text(args.out, csv_table(dict(zip(("p", "q", "bic", "status"), zip(*rows))), floats=("bic",)))
    return 0


def cmd_fit(args: argparse.Namespace, config: dict[str, Any]) -> int:
    dataset = _load_data(args, config)
    train = _train_window(config, dataset)
    pipeline = cfg.build_pipeline(config)
    fitted = fit_pipeline(pipeline, train, cfg.build_fit_options(config))
    write_text(args.out, cfg.fitted_to_artifact(config, fitted))
    print(
        f"fit {config['pipeline']} on {len(train)} hours: "
        f"loglik={fitted.loglik:.4f} bic={fitted.bic:.4f} "
        f"converged={fitted.diagnostics.converged} evaluations={fitted.diagnostics.evaluations}"
    )
    if fitted.diagnostics.boundary_flags:
        print("flags: " + ", ".join(fitted.diagnostics.boundary_flags))
    print(f"wrote model artifact to {args.out}")
    return 0


def cmd_forecast(args: argparse.Namespace, config: dict[str, Any]) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        stored_config, params, garch, diagnostics = cfg.artifact_to_parts(fh.read())
    # the artifact's config defines the pipeline; CLI config supplies data handling
    pipeline = cfg.build_pipeline(stored_config)
    dataset = _load_data(args, config)
    origin = parse_hour(args.origin) if args.origin else cfg.read(config, "test_start")
    if origin is None:
        raise SchemaError("forecast needs --origin or a config test_start")
    horizon = cfg.read(config, "horizon")
    # origin == end of file means "forecast past the data"; models that need
    # future day-ahead prices will reject it downstream
    split = len(dataset) if origin == dataset.end else dataset.dalmp.index_of(origin)
    if split < 1:
        raise SchemaError("origin leaves no history")
    history = dataset.window(0, split)
    future_len = min(horizon, len(dataset) - split)
    dalmp_future = dataset.dalmp.window(split, future_len) if future_len > 0 else None
    fitted = restore_pipeline_fit(pipeline, history, params, garch, diagnostics)
    forecasts, variance = pipeline_forecast(pipeline, fitted, history, dalmp_future, horizon)
    columns = {"timestamp": forecasts, "forecast": forecasts.values, "variance": variance}
    write_text(args.out, csv_table(columns, floats=("forecast", "variance")))
    print(f"wrote {len(forecasts)}-hour forecast from {format_hour(origin)} to {args.out}")
    return 0


def cmd_backtest(args: argparse.Namespace, config: dict[str, Any]) -> int:
    dataset = _load_data(args, config)
    train, test = cfg.split_dataset(config, dataset)
    pipeline = cfg.build_pipeline(config)
    report = rolling_backtest(
        pipeline,
        train,
        test,
        horizon=cfg.read(config, "horizon"),
        refit=cfg.read(config, "refit"),
        options=cfg.build_fit_options(config),
        epsilon=cfg.read(config, "epsilon"),
    )
    write_text(args.out, report.to_json())
    for i, value in enumerate(report.improvement, start=1):
        print(f"I_{i} = {value:.2f}%  (MAE {report.mae[i - 1]:.4f}, excluded {report.excluded[i - 1]})")
    print(f"wrote report to {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace, config: dict[str, Any]) -> int:
    entries = []
    for item in args.reports:
        if "=" not in item:
            raise SchemaError(f"expected NAME=REPORT.json, got {item!r}")
        name, path = item.split("=", 1)
        with open(path, "r", encoding="utf-8") as fh:
            entries.append((name, BacktestReport.from_json(fh.read())))
    table = compare_models(entries)
    print(table.render())
    if args.out:
        write_text(args.out, table.to_csv())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _load_effective_config(args)
    except (SchemaError, json.JSONDecodeError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    log.info("effective config:\n%s", cfg.effective_config_json(config).rstrip())
    try:
        return args.func(args, config)
    except (LmpcastError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
