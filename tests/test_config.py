"""Tests for config merging, validation, builders, and the model artifact."""

import copy
import math
from datetime import datetime, timezone

import numpy as np
import pytest

from lmpcast import config as cfg
from lmpcast.arima import ModelSpec, ParameterVector
from lmpcast.backtest import PipelineConfig, fit_pipeline
from lmpcast.dataio import MarketDataset, synth_market
from lmpcast.errors import (
    AlignmentError, MissingKey, SchemaError, boolean, integer, non_negative_integer, number, read_fields,
)
from lmpcast.estimation import FitOptions
from lmpcast.garch import GarchSpec
from lmpcast.series import UNITS_PRICE, HourlySeries

MONDAY = datetime(2015, 1, 5, tzinfo=timezone.utc)


class TestMergeAndValidate:
    def test_defaults_round_trip(self):
        merged = cfg.merge_config()
        assert merged == cfg.DEFAULTS
        assert merged is not cfg.DEFAULTS

    def test_later_layers_win_and_nest(self):
        merged = cfg.merge_config(
            cfg.PRESETS["arma-paper"],
            {"order": {"q": 1}, "seed": 9},
        )
        assert merged["pipeline"] == "arma_delta"
        assert merged["order"]["p"] == 1
        assert merged["order"]["q"] == 1
        assert merged["order"]["S"] == 24
        assert merged["seed"] == 9
        assert merged["clip"] == {"ub": 100.0, "lb": -100.0}

    def test_unknown_keys_rejected_at_any_depth(self):
        with pytest.raises(SchemaError, match="'pipelin'"):
            cfg.merge_config({"pipelin": "arma_delta"})
        with pytest.raises(SchemaError, match="garch\\.'r'"):
            cfg.merge_config({"garch": {"p": 1, "r": 2}})
        with pytest.raises(SchemaError, match="synth.delta.params"):
            cfg.merge_config({"synth": {"delta": {"params": {"rho": [0.5]}}}})

    def test_defaults_and_schema_share_one_key_tree(self):
        # no default outside the schema, and every required schema key has a
        # default its reader accepts (null only where the key is nullable)
        for config in [cfg.DEFAULTS, *map(cfg.merge_config, cfg.PRESETS.values())]:
            cfg.validate_config(config)
            read_fields(config, "", cfg._SCHEMA)
        extra = copy.deepcopy(cfg.DEFAULTS)
        extra["synth"]["delta"]["rho"] = 1.0
        with pytest.raises(SchemaError, match="synth.delta.'rho'"):
            cfg.validate_config(extra)
        lacking = copy.deepcopy(cfg.DEFAULTS)
        del lacking["synth"]["dalmp"]["order"]["S"]
        with pytest.raises(MissingKey, match="synth.dalmp.order.S is missing"):
            read_fields(lacking, "", cfg._SCHEMA)

    def test_config_that_is_not_an_object_rejected(self):
        with pytest.raises(SchemaError, match="must be a JSON object"):
            cfg.merge_config([1])

    def test_effective_json_is_canonical(self):
        a = cfg.effective_config_json(cfg.merge_config({"seed": 3}))
        b = cfg.effective_config_json(cfg.merge_config({"seed": 3}))
        assert a == b
        assert a.endswith("\n")
        # keys are sorted, so ordering in the input cannot leak through
        assert a.index('"clip"') < a.index('"pipeline"')


class TestLeafReaders:
    @pytest.mark.parametrize("value, expected", [(3, 3), (2.0, 2), (-1, -1)])
    def test_integer_accepts_integral_numbers(self, value, expected):
        assert integer(value) == expected and type(integer(value)) is int

    @pytest.mark.parametrize("read, value", [
        (integer, True), (integer, 1.7), (integer, "2"), (integer, math.inf), (integer, math.nan), (integer, None),
        (number, False), (number, "1.5"), (number, [1.0]), (boolean, "false"), (boolean, 0), (boolean, None),
        (non_negative_integer, True), (non_negative_integer, 0.5),
    ])
    def test_wrong_type_raises_type_error(self, read, value):
        with pytest.raises(TypeError):
            read(value)

    @pytest.mark.parametrize("value", [-1, -1.0])
    def test_negative_seed_is_a_schema_error_naming_it(self, value):
        with pytest.raises(SchemaError, match=r"^seed = -1(\.0)?: expected a non-negative integer$"):
            cfg.build_fit_options(cfg.merge_config({"seed": value}))

    def test_overflowing_number_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="epsilon = 1000"):
            cfg.read(cfg.merge_config({"epsilon": 10**400}), "epsilon")


class TestBuilders:
    def test_pipeline_requires_kind(self):
        with pytest.raises(SchemaError, match="pipeline"):
            cfg.build_pipeline(cfg.merge_config())

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            cfg.build_pipeline(cfg.merge_config({"pipeline": "prophet"}))

    def test_degenerate_kind_builds_bare_pipeline(self):
        merged = cfg.merge_config({"pipeline": "baseline", "garch": {"p": 1, "q": 1}})
        pipeline = cfg.build_pipeline(merged)
        assert pipeline == PipelineConfig(kind="baseline")

    def test_model_kind_builds_full_pipeline(self):
        merged = cfg.merge_config(
            cfg.PRESETS["armax-paper"], {"garch": {"p": 1, "q": 1}}
        )
        pipeline = cfg.build_pipeline(merged)
        assert pipeline.kind == "armax_delta"
        assert pipeline.spec == ModelSpec(p=1, q=1, exog_count=1)
        assert pipeline.clip.ub == 100.0
        assert pipeline.log_offset.c == 1000.0
        assert pipeline.garch == GarchSpec(p=1, q=1)

    @pytest.mark.parametrize(
        "kind, regressors",
        [("arma_delta", 0), ("armax_delta", 1), ("sarima_rtlmp", 0), ("sarimax_rtlmp", 1)],
    )
    def test_one_exog_count_rule_for_every_kind(self, kind, regressors):
        from lmpcast.backtest import exog_count

        assert exog_count(kind) == regressors
        merged = cfg.merge_config({"pipeline": kind})
        assert cfg.build_model_spec(merged).exog_count == regressors
        assert cfg.build_pipeline(merged).spec.exog_count == regressors
        wrong = ModelSpec(p=1, exog_count=1 - regressors)
        with pytest.raises(ValueError, match=f"requires exog_count={regressors}"):
            PipelineConfig(kind=kind, spec=wrong)

    def test_seasonal_preset_order(self):
        spec = cfg.build_model_spec(cfg.merge_config(cfg.PRESETS["sarima-paper"]))
        assert (spec.p, spec.q, spec.P, spec.Q) == (2, 1, 1, 1)
        assert (spec.diff.d, spec.diff.D, spec.diff.S) == (0, 1, 24)
        assert spec.exog_count == 0

    def test_fit_options_take_config_seed(self):
        merged = cfg.merge_config({"seed": 77, "fit": {"restarts": 1}})
        assert cfg.build_fit_options(merged) == FitOptions(
            max_iterations=2000, tolerance=1e-8, restarts=1, seed=77
        )

    def test_synth_config_from_defaults(self):
        synth = cfg.build_synth_config(cfg.merge_config({"seed": 5}))
        assert synth.length == 4320
        assert synth.seed == 5
        assert synth.delta_spec == ModelSpec(p=1, q=2)
        assert synth.delta_params.phi == (0.9,)
        assert synth.dalmp_params.Phi == (0.5,)


class TestSplitDataset:
    def setup_method(self):
        values = np.arange(48.0)
        self.data = MarketDataset(
            HourlySeries(MONDAY, values, UNITS_PRICE),
            HourlySeries(MONDAY, values + 1.0, UNITS_PRICE),
        )

    def test_split_at_boundary(self):
        merged = cfg.merge_config({"test_start": "2015-01-06T00:00Z"})
        train, test = cfg.split_dataset(merged, self.data)
        assert len(train) == 24
        assert len(test) == 24
        assert test.start == train.end

    def test_test_end_trims_the_window(self):
        merged = cfg.merge_config(
            {"test_start": "2015-01-06T00:00Z", "test_end": "2015-01-06T06:00Z"}
        )
        _, test = cfg.split_dataset(merged, self.data)
        assert len(test) == 6

    def test_test_end_may_be_the_end_of_the_data(self):
        merged = cfg.merge_config({"test_start": "2015-01-06T00:00Z", "test_end": "2015-01-07T00:00Z"})
        _, test = cfg.split_dataset(merged, self.data)
        assert len(test) == 24
        assert test.end == self.data.end

    def test_boundary_errors(self):
        with pytest.raises(SchemaError, match="test_start"):
            cfg.split_dataset(cfg.merge_config(), self.data)
        with pytest.raises(SchemaError, match="training"):
            cfg.split_dataset(
                cfg.merge_config({"test_start": "2015-01-05T00:00Z"}), self.data
            )
        with pytest.raises(SchemaError, match="empty"):
            cfg.split_dataset(
                cfg.merge_config(
                    {"test_start": "2015-01-06T00:00Z", "test_end": "2015-01-06T00:00Z"}
                ),
                self.data,
            )
        with pytest.raises(SchemaError, match="empty"):
            cfg.split_dataset(
                cfg.merge_config({"test_start": "2015-01-06T00:00Z", "test_end": "2015-01-05T12:00Z"}), self.data
            )
        with pytest.raises(AlignmentError, match="2015-01-07T01:00"):
            cfg.split_dataset(
                cfg.merge_config({"test_start": "2015-01-06T00:00Z", "test_end": "2015-01-07T01:00Z"}), self.data
            )


class TestModelArtifact:
    def test_round_trip_preserves_everything(self):
        merged = cfg.merge_config(
            {
                "pipeline": "arma_delta",
                "clip": {"ub": 22.0, "lb": -4.0},
                "log_offset": 1000.0,
                "order": {"p": 1, "q": 2},
                "garch": {"p": 1, "q": 1},
                "seed": 11,
                "fit": {"restarts": 1},
                "synth": {"length": 900},
            }
        )
        data = synth_market(cfg.build_synth_config(merged))
        pipeline = cfg.build_pipeline(merged)
        fitted = fit_pipeline(pipeline, data, cfg.build_fit_options(merged))

        text = cfg.fitted_to_artifact(merged, fitted)
        config_back, params, garch, diagnostics = cfg.artifact_to_parts(text)
        assert config_back == merged
        assert params == fitted.params
        gspec, gparams = garch
        assert (gspec, gparams) == fitted.garch
        assert diagnostics == fitted.diagnostics
        assert diagnostics.evaluations == fitted.diagnostics.evaluations
        assert diagnostics.evaluations >= diagnostics.iterations > 0
        assert '"evaluations": %d' % diagnostics.evaluations in text

    def test_artifact_without_evaluation_count_reads_zero(self):
        merged = cfg.merge_config({"pipeline": "arma_delta", "order": {"p": 1}, "synth": {"length": 300}})
        data = synth_market(cfg.build_synth_config(merged))
        fitted = fit_pipeline(cfg.build_pipeline(merged), data, cfg.build_fit_options(merged))
        text = cfg.fitted_to_artifact(merged, fitted)
        older = text.replace('"evaluations": %d,' % fitted.diagnostics.evaluations, "")
        assert older != text
        *_, diagnostics = cfg.artifact_to_parts(older)
        assert diagnostics.evaluations == 0
        assert diagnostics.iterations == fitted.diagnostics.iterations

    def test_artifact_without_garch(self):
        merged = cfg.merge_config(
            {
                "pipeline": "arma_delta",
                "order": {"p": 1, "q": 0},
                "seed": 12,
                "fit": {"restarts": 1},
                "synth": {"length": 400},
            }
        )
        data = synth_market(cfg.build_synth_config(merged))
        fitted = fit_pipeline(
            cfg.build_pipeline(merged), data, cfg.build_fit_options(merged)
        )
        _, params, garch, _ = cfg.artifact_to_parts(cfg.fitted_to_artifact(merged, fitted))
        assert garch is None
        assert params == fitted.params

    def test_artifact_is_deterministic_text(self):
        params = ParameterVector(phi=(0.5,), mu=0.1, sigma2=1.2)
        from lmpcast.backtest import restore_pipeline_fit

        merged = cfg.merge_config(
            {"pipeline": "arma_delta", "order": {"p": 1}, "synth": {"length": 300}}
        )
        data = synth_market(cfg.build_synth_config(merged))
        fitted = restore_pipeline_fit(cfg.build_pipeline(merged), data, params)
        assert fitted.diagnostics.evaluations == 0
        assert cfg.fitted_to_artifact(merged, fitted) == cfg.fitted_to_artifact(
            merged, fitted
        )
