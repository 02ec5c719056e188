"""Declarative run configuration: JSON schema, presets, and artifact formats.

A run config is a flat JSON object with nested blocks for the model order,
GARCH orders, grid ranges, fit options, and the synthetic-market recipe.
Unknown keys anywhere are rejected so typos fail loudly, and every command
echoes the effective (merged, defaulted) config so a run can be reproduced
from its output alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Mapping

from .arima import ModelSpec, ParameterVector
from .backtest import DEGENERATE_KINDS, MODEL_KINDS, PipelineConfig, exog_count
from .dataio import MarketDataset, SynthConfig
from .errors import (
    Field, MissingKey, SchemaError, boolean, integer, list_of, non_negative_integer, number, numbers, read_fields,
    text,
)
from .estimation import Diagnostics, FitOptions, FittedModel
from .garch import GarchParams, GarchSpec
from .lagpoly import DifferenceSpec
from .series import ClipBounds, LogOffset, parse_hour

__all__ = [
    "DEFAULTS",
    "PRESETS",
    "merge_config",
    "read",
    "validate_config",
    "effective_config_json",
    "build_model_spec",
    "build_pipeline",
    "build_transforms",
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


def _span(value: Any) -> range:
    """A grid's inclusive ``[low, high]`` integer bounds, as the range they span."""
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError("expected [low, high]")
    return range(integer(value[0]), integer(value[1]) + 1)


# the field tables: each key of a JSON block mapped to the reader of its value
_ORDER_FIELDS = dict.fromkeys(("p", "d", "q", "P", "D", "Q", "S"), integer)
_PARAM_FIELDS = {**dict.fromkeys(("phi", "Phi", "theta", "Theta"), numbers), "mu": number, "gamma": numbers,
                 "sigma2": number}
# artifacts written before the evaluation count existed read it back as 0
_DIAGNOSTIC_FIELDS = {"converged": boolean, "iterations": integer, "boundary_flags": list_of(text),
                      "evaluations": Field(integer, optional=True)}
# a synth recipe's parameters default to ParameterVector's
_SERIES_FIELDS = {"order": _ORDER_FIELDS, "constant": boolean,
                  "params": {key: Field(read, optional=True) for key, read in _PARAM_FIELDS.items()}}

_SCHEMA: dict[str, Any] = {
    "pipeline": Field(text, nullable=True),
    "clip": Field({"ub": number, "lb": number}, nullable=True),
    "log_offset": Field(number, nullable=True),
    "order": _ORDER_FIELDS,
    "constant": boolean,
    "garch": Field({"p": integer, "q": integer}, nullable=True),
    "lognormal_correction": boolean,
    "grid": {"p": _span, "q": _span},
    "test_start": Field(parse_hour, nullable=True),
    "test_end": Field(parse_hour, nullable=True),
    "horizon": integer,
    "seed": non_negative_integer,
    "gap_policy": text,
    "epsilon": number,
    "refit": text,
    "fit": {"max_iterations": integer, "tolerance": number, "restarts": integer},
    "synth": {
        "length": integer,
        "start": parse_hour,
        "node": text,
        "weekend_effect": number,
        "spike_rate": number,
        "spike_minimum": number,
        "spike_scale": number,
        "delta": _SERIES_FIELDS,
        "dalmp": _SERIES_FIELDS,
    },
}
_GARCH_FIELDS = {**_SCHEMA["garch"].read, "alpha0": number, "alpha": numbers, "beta": numbers}
_MODEL_FIELDS = {"params": _PARAM_FIELDS, "garch": Field(_GARCH_FIELDS, nullable=True),
                 "diagnostics": _DIAGNOSTIC_FIELDS}


def _check_keys(value: Mapping[str, Any], fields: Mapping[str, Any], path: str) -> None:
    for key, sub in value.items():
        if key not in fields:
            raise SchemaError(f"unknown config key {path}{key!r}")
        table = fields[key].read if isinstance(fields[key], Field) else fields[key]
        if isinstance(table, Mapping) and isinstance(sub, Mapping):
            _check_keys(sub, table, f"{path}{key}.")


def validate_config(config: Mapping[str, Any]) -> None:
    """Reject a config that is not an object or has an unknown key at any nesting level."""
    if not isinstance(config, Mapping):
        raise SchemaError(f"a config must be a JSON object, got {config!r}")
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
        if layer is not None:
            validate_config(layer)
            merged = deep(merged, layer)
    return merged


def effective_config_json(config: Mapping[str, Any]) -> str:
    """Canonical rendering of the merged config; stable across runs."""
    return json.dumps(config, sort_keys=True, indent=2) + "\n"


def read(config: Mapping[str, Any], key: str) -> Any:
    """The value of a run-config key, read by its reader in the schema."""
    return read_fields(config, "", {key: _SCHEMA[key]})[key]


def _build_order(order: dict[str, int], constant: bool, exog_count: int) -> ModelSpec:
    """A model spec from a read ``order`` block (which it consumes)."""
    diff = DifferenceSpec(order.pop("d"), order.pop("D"), order.pop("S"))
    return ModelSpec(**order, diff=diff, exog_count=exog_count, constant=constant)


def build_model_spec(config: Mapping[str, Any]) -> ModelSpec:
    kind = read(config, "pipeline")
    if kind is None:
        raise SchemaError("config key 'pipeline' is required")
    return _build_order(read(config, "order"), read(config, "constant"), exog_count(kind))


def build_pipeline(config: Mapping[str, Any]) -> PipelineConfig:
    kind = read(config, "pipeline")
    if kind not in MODEL_KINDS + DEGENERATE_KINDS:
        raise SchemaError(f"unknown pipeline kind {kind!r}" if kind else "config key 'pipeline' is required")
    clip, offset = build_transforms(config)
    garch = read(config, "garch")
    if kind in DEGENERATE_KINDS:
        return PipelineConfig(kind=kind)
    return PipelineConfig(
        kind=kind,
        spec=build_model_spec(config),
        clip=clip,
        log_offset=offset,
        garch=None if garch is None else GarchSpec(**garch),
        lognormal_correction=read(config, "lognormal_correction"),
    )


def build_transforms(config: Mapping[str, Any]) -> tuple[ClipBounds | None, LogOffset | None]:
    """The configured spike clip and log offset, each None when not set."""
    clip, offset = read(config, "clip"), read(config, "log_offset")
    return None if clip is None else ClipBounds(**clip), None if offset is None else LogOffset(offset)


def build_fit_options(config: Mapping[str, Any]) -> FitOptions:
    return FitOptions(**read(config, "fit"), seed=read(config, "seed"))


def build_synth_config(config: Mapping[str, Any]) -> SynthConfig:
    synth = read(config, "synth")
    for name in ("delta", "dalmp"):
        block = synth.pop(name)
        synth[f"{name}_spec"] = _build_order(block["order"], block["constant"], 0)
        synth[f"{name}_params"] = ParameterVector(**block["params"])
    return SynthConfig(**synth, seed=read(config, "seed"))


def split_dataset(config: Mapping[str, Any], dataset: MarketDataset) -> tuple[MarketDataset, MarketDataset]:
    """Cut the dataset into train/test at the configured boundaries; ``test_end`` may be the data's end."""
    test_start, test_end = read(config, "test_start"), read(config, "test_end")
    if test_start is None:
        raise SchemaError("config key 'test_start' is required to split train/test")
    split = dataset.dalmp.index_of(test_start)
    if split == 0:
        raise SchemaError("test_start leaves an empty training window")
    test_len = (len(dataset) if test_end in (None, dataset.end) else dataset.dalmp.index_of(test_end)) - split
    if test_len < 1:
        raise SchemaError("test window is empty")
    return dataset.window(0, split), dataset.window(split, test_len)


# ---------------------------------------------------------------------------
# fitted-model artifact

def fitted_to_artifact(config: Mapping[str, Any], fitted: FittedModel) -> str:
    """Serialize a fitted pipeline to JSON: effective config plus estimates."""
    garch = None if fitted.garch is None else {**asdict(fitted.garch[0]), **asdict(fitted.garch[1])}
    model = {
        "params": asdict(fitted.params),
        "loglik": fitted.loglik,
        "bic": fitted.bic,
        "n_effective": fitted.n_effective,
        "diagnostics": asdict(fitted.diagnostics),
        "garch": garch,
    }
    return json.dumps({"config": dict(config), "model": model}, sort_keys=True, indent=2) + "\n"


def artifact_to_parts(
    text: str,
) -> tuple[dict[str, Any], ParameterVector, tuple[GarchSpec, GarchParams] | None, Diagnostics]:
    """Parse a fitted-model artifact back into its config and estimates.

    A missing key, or a value of the wrong type, raises :class:`SchemaError`
    naming it.
    """
    try:
        parts = read_fields(json.loads(text), "", {"config": merge_config, "model": _MODEL_FIELDS})
    except MissingKey as exc:
        raise SchemaError(f"model artifact lacks key {exc.key!r}") from None
    model = parts["model"]
    garch = model["garch"]
    if garch is not None:
        garch = GarchSpec(garch.pop("p"), garch.pop("q")), GarchParams(**garch)
    return parts["config"], ParameterVector(**model["params"]), garch, Diagnostics(**model["diagnostics"])
