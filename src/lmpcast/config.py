"""Declarative run configuration: JSON schema, presets, and artifact formats.

A run config is a flat JSON object with nested blocks for the model order,
GARCH orders, grid ranges, fit options, and the synthetic-market recipe.
Unknown keys anywhere are rejected so typos fail loudly, and every command
echoes the effective (merged, defaulted) config so a run can be reproduced
from its output alone.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .arima import ModelSpec, ParameterVector
from .backtest import DEGENERATE_KINDS, MODEL_KINDS, PipelineConfig, exog_count
from .dataio import MarketDataset, SynthConfig
from .errors import SchemaError
from .estimation import Diagnostics, FitOptions, FittedModel
from .garch import GarchParams, GarchSpec
from .lagpoly import DifferenceSpec
from .series import ClipBounds, HourlySeries, LogOffset, parse_hour

__all__ = [
    "DEFAULTS",
    "PRESETS",
    "merge_config",
    "validate_config",
    "effective_config_json",
    "build_model_spec",
    "build_pipeline",
    "build_fit_options",
    "build_synth_config",
    "split_dataset",
    "fitted_to_artifact",
    "artifact_to_parts",
]

DEFAULTS: dict[str, Any] = {
    "pipeline": None,
    "clip": None,
    "log_offset": None,
    "order": {"p": 1, "d": 0, "q": 0, "P": 0, "D": 0, "Q": 0, "S": 24},
    "constant": True,
    "garch": None,
    "lognormal_correction": False,
    "grid": {"p": [1, 5], "q": [1, 5]},
    "test_start": None,
    "test_end": None,
    "horizon": 12,
    "seed": 0,
    "gap_policy": "reject",
    "epsilon": 1e-6,
    "refit": "fit-once",
    "fit": {"max_iterations": 2000, "tolerance": 1e-8, "restarts": 3},
    "synth": {
        "length": 4320,
        "start": "2001-01-01T00:00Z",
        "node": "SYNTH",
        "weekend_effect": 6.0,
        "spike_rate": 0.008,
        "spike_minimum": 150.0,
        "spike_scale": 50.0,
        "delta": {
            "order": {"p": 1, "d": 0, "q": 2, "P": 0, "D": 0, "Q": 0, "S": 24},
            "constant": True,
            "params": {"phi": [0.9], "theta": [0.25, 0.1], "mu": 0.6, "sigma2": 1.0},
        },
        "dalmp": {
            "order": {"p": 1, "d": 0, "q": 0, "P": 1, "D": 0, "Q": 0, "S": 24},
            "constant": True,
            "params": {"phi": [0.6], "Phi": [0.5], "mu": 7.0, "sigma2": 9.0},
        },
    },
}

# named configs pinning the published model structures; coefficients are
# always re-estimated on whatever data is supplied
PRESETS: dict[str, dict[str, Any]] = {
    "sarima-paper": {
        "pipeline": "sarima_rtlmp",
        "log_offset": 30.0,
        "order": {"p": 2, "d": 0, "q": 1, "P": 1, "D": 1, "Q": 1, "S": 24},
    },
    "sarimax-paper": {
        "pipeline": "sarimax_rtlmp",
        "log_offset": 30.0,
        "order": {"p": 2, "d": 0, "q": 1, "P": 1, "D": 1, "Q": 1, "S": 24},
    },
    "arma-paper": {
        "pipeline": "arma_delta",
        "clip": {"ub": 100.0, "lb": -100.0},
        "log_offset": 1000.0,
        "order": {"p": 1, "d": 0, "q": 2, "P": 0, "D": 0, "Q": 0, "S": 24},
    },
    "armax-paper": {
        "pipeline": "armax_delta",
        "clip": {"ub": 100.0, "lb": -100.0},
        "log_offset": 1000.0,
        "order": {"p": 1, "d": 0, "q": 1, "P": 0, "D": 0, "Q": 0, "S": 24},
    },
}

_PARAM_KEYS = ("phi", "Phi", "theta", "Theta", "mu", "gamma", "sigma2")

_SCHEMA: dict[str, Any] = {
    "pipeline": None,
    "clip": {"ub": None, "lb": None},
    "log_offset": None,
    "order": {"p": None, "d": None, "q": None, "P": None, "D": None, "Q": None, "S": None},
    "constant": None,
    "garch": {"p": None, "q": None},
    "lognormal_correction": None,
    "grid": {"p": None, "q": None},
    "test_start": None,
    "test_end": None,
    "horizon": None,
    "seed": None,
    "gap_policy": None,
    "epsilon": None,
    "refit": None,
    "fit": {"max_iterations": None, "tolerance": None, "restarts": None},
    "synth": {
        "length": None,
        "start": None,
        "node": None,
        "weekend_effect": None,
        "spike_rate": None,
        "spike_minimum": None,
        "spike_scale": None,
        "delta": {"order": "order", "constant": None, "params": dict.fromkeys(_PARAM_KEYS)},
        "dalmp": {"order": "order", "constant": None, "params": dict.fromkeys(_PARAM_KEYS)},
    },
}


def _check_keys(value: Mapping[str, Any], schema: Mapping[str, Any], path: str) -> None:
    for key, sub in value.items():
        if key not in schema:
            raise SchemaError(f"unknown config key {path}{key!r}")
        subschema = schema[key]
        if subschema == "order":
            subschema = _SCHEMA["order"]
        if isinstance(subschema, Mapping) and isinstance(sub, Mapping):
            _check_keys(sub, subschema, f"{path}{key}.")


def validate_config(config: Mapping[str, Any]) -> None:
    """Reject unknown keys at any nesting level."""
    _check_keys(config, _SCHEMA, "")


def merge_config(*layers: Mapping[str, Any] | None) -> dict[str, Any]:
    """Overlay config layers left to right on the defaults, nested dicts deep."""

    def deep(base: dict[str, Any], over: Mapping[str, Any]) -> dict[str, Any]:
        out = dict(base)
        for key, value in over.items():
            if isinstance(value, Mapping) and isinstance(out.get(key), Mapping):
                out[key] = deep(out[key], value)
            else:
                out[key] = value
        return out

    merged = json.loads(json.dumps(DEFAULTS))  # deep copy via round trip
    for layer in layers:
        if layer:
            validate_config(layer)
            merged = deep(merged, layer)
    return merged


def effective_config_json(config: Mapping[str, Any]) -> str:
    """Canonical rendering of the merged config; stable across runs."""
    return json.dumps(config, sort_keys=True, indent=2) + "\n"


def _build_order(order: Mapping[str, Any], constant: bool, exog_count: int) -> ModelSpec:
    return ModelSpec(
        p=int(order["p"]),
        q=int(order["q"]),
        P=int(order["P"]),
        Q=int(order["Q"]),
        diff=DifferenceSpec(d=int(order["d"]), D=int(order["D"]), S=int(order["S"])),
        exog_count=exog_count,
        constant=bool(constant),
    )


def build_model_spec(config: Mapping[str, Any]) -> ModelSpec:
    kind = config["pipeline"]
    if kind is None:
        raise SchemaError("config key 'pipeline' is required")
    return _build_order(config["order"], config["constant"], exog_count(kind))


def build_pipeline(config: Mapping[str, Any]) -> PipelineConfig:
    kind = config["pipeline"]
    if kind is None:
        raise SchemaError("config key 'pipeline' is required")
    if kind not in MODEL_KINDS + DEGENERATE_KINDS:
        raise SchemaError(f"unknown pipeline kind {kind!r}")
    clip = None
    if config["clip"] is not None:
        clip = ClipBounds(ub=float(config["clip"]["ub"]), lb=float(config["clip"]["lb"]))
    offset = None if config["log_offset"] is None else LogOffset(float(config["log_offset"]))
    garch = None
    if config["garch"] is not None:
        garch = GarchSpec(p=int(config["garch"]["p"]), q=int(config["garch"]["q"]))
    if kind in DEGENERATE_KINDS:
        return PipelineConfig(kind=kind)
    return PipelineConfig(
        kind=kind,
        spec=build_model_spec(config),
        clip=clip,
        log_offset=offset,
        garch=garch,
        lognormal_correction=bool(config["lognormal_correction"]),
    )


def build_fit_options(config: Mapping[str, Any]) -> FitOptions:
    fit_block = config["fit"]
    return FitOptions(
        max_iterations=int(fit_block["max_iterations"]),
        tolerance=float(fit_block["tolerance"]),
        restarts=int(fit_block["restarts"]),
        seed=int(config["seed"]),
    )


def _build_params(block: Mapping[str, Any]) -> ParameterVector:
    params = block["params"]
    return ParameterVector(
        phi=tuple(params.get("phi", ())),
        Phi=tuple(params.get("Phi", ())),
        theta=tuple(params.get("theta", ())),
        Theta=tuple(params.get("Theta", ())),
        mu=float(params.get("mu", 0.0)),
        gamma=tuple(params.get("gamma", ())),
        sigma2=float(params.get("sigma2", 1.0)),
    )


def build_synth_config(config: Mapping[str, Any]) -> SynthConfig:
    synth = config["synth"]
    delta = synth["delta"]
    dalmp = synth["dalmp"]
    return SynthConfig(
        delta_spec=_build_order(delta["order"], delta["constant"], 0),
        delta_params=_build_params(delta),
        dalmp_spec=_build_order(dalmp["order"], dalmp["constant"], 0),
        dalmp_params=_build_params(dalmp),
        length=int(synth["length"]),
        weekend_effect=float(synth["weekend_effect"]),
        spike_rate=float(synth["spike_rate"]),
        spike_minimum=float(synth["spike_minimum"]),
        spike_scale=float(synth["spike_scale"]),
        start=parse_hour(synth["start"]),
        seed=int(config["seed"]),
        node=str(synth["node"]),
    )


def split_dataset(config: Mapping[str, Any], dataset: MarketDataset) -> tuple[MarketDataset, MarketDataset]:
    """Cut the dataset into train/test at the configured boundary timestamps."""
    if config["test_start"] is None:
        raise SchemaError("config key 'test_start' is required to split train/test")
    test_start = parse_hour(config["test_start"])
    split = dataset.dalmp.index_of(test_start)
    if split == 0:
        raise SchemaError("test_start leaves an empty training window")
    if config["test_end"] is None:
        test_len = len(dataset) - split
    else:
        test_len = dataset.dalmp.index_of(parse_hour(config["test_end"])) - split
    if test_len < 1:
        raise SchemaError("test window is empty")
    return dataset.window(0, split), dataset.window(split, test_len)


# ---------------------------------------------------------------------------
# fitted-model artifact

def fitted_to_artifact(config: Mapping[str, Any], fitted: FittedModel) -> str:
    """Serialize a fitted pipeline to JSON: effective config plus estimates."""
    model: dict[str, Any] = {
        "params": {
            "phi": list(fitted.params.phi),
            "Phi": list(fitted.params.Phi),
            "theta": list(fitted.params.theta),
            "Theta": list(fitted.params.Theta),
            "mu": fitted.params.mu,
            "gamma": list(fitted.params.gamma),
            "sigma2": fitted.params.sigma2,
        },
        "loglik": fitted.loglik,
        "bic": fitted.bic,
        "n_effective": fitted.n_effective,
        "diagnostics": {
            "converged": fitted.diagnostics.converged,
            "iterations": fitted.diagnostics.iterations,
            "evaluations": fitted.diagnostics.evaluations,
            "boundary_flags": list(fitted.diagnostics.boundary_flags),
        },
    }
    if fitted.garch is not None:
        gspec, gparams = fitted.garch
        model["garch"] = {
            "p": gspec.p,
            "q": gspec.q,
            "alpha0": gparams.alpha0,
            "alpha": list(gparams.alpha),
            "beta": list(gparams.beta),
        }
    else:
        model["garch"] = None
    payload = {"config": dict(config), "model": model}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def artifact_to_parts(
    text: str,
) -> tuple[dict[str, Any], ParameterVector, tuple[GarchSpec, GarchParams] | None, Diagnostics]:
    """Parse a fitted-model artifact back into its config and estimates."""
    payload = json.loads(text)
    config = merge_config(payload["config"])
    model = payload["model"]
    raw = model["params"]
    params = ParameterVector(
        phi=tuple(raw["phi"]),
        Phi=tuple(raw["Phi"]),
        theta=tuple(raw["theta"]),
        Theta=tuple(raw["Theta"]),
        mu=float(raw["mu"]),
        gamma=tuple(raw["gamma"]),
        sigma2=float(raw["sigma2"]),
    )
    garch = None
    if model["garch"] is not None:
        g = model["garch"]
        garch = (
            GarchSpec(p=int(g["p"]), q=int(g["q"])),
            GarchParams(alpha0=float(g["alpha0"]), alpha=tuple(g["alpha"]), beta=tuple(g["beta"])),
        )
    diag = model["diagnostics"]
    diagnostics = Diagnostics(
        converged=bool(diag["converged"]),
        iterations=int(diag["iterations"]),
        boundary_flags=tuple(diag["boundary_flags"]),
        # artifacts written before the count existed read back as 0
        evaluations=int(diag.get("evaluations", 0)),
    )
    return config, params, garch, diagnostics
