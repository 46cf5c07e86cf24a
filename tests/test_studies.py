import math
from dataclasses import replace

import numpy as np
import pytest

from conet.data import loo_split, reduce_training
from conet.errors import ConfigError
from conet.evaluation import MetricsReport
from conet.models import ModelConfig
from conet.numerics import derive_rng
from conet.studies import (
    _train_and_evaluate,
    compare_architectures,
    lambda_sweep,
    model_config_for,
    reduce_study,
    sparsity_table,
)
from conet.training import TrainConfig

from oracles import make_cross_domain


@pytest.fixture(scope="module")
def split():
    data = make_cross_domain(num_users=16, per_user_target=6, per_user_source=5)
    return loo_split(data, derive_rng(0, "split"))


BASE = ModelConfig(architecture="conet", embedding_dim=4, hidden_widths=(8, 4, 2),
                   lasso_lambda=0.1)
FAST = TrainConfig(epochs=2, batch_size=16, seed=0)
COMPARE_KEYS = ["architecture", "lambda", "epochs_trained"]
REDUCE_KEYS = ["architecture", "removed", "removed_percent", "train_size", "epochs_trained"]


class TestModelConfigFor:
    def test_conet_forces_dense(self):
        cfg = model_config_for("conet", BASE)
        assert cfg.architecture == "conet" and cfg.lasso_lambda == 0.0

    def test_sconet_keeps_penalty(self):
        assert model_config_for("sconet", BASE).lasso_lambda == 0.1

    def test_sconet_defaults_penalty_when_zero(self):
        base = ModelConfig(architecture="conet", lasso_lambda=0.0)
        assert model_config_for("sconet", base).lasso_lambda == 0.1

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5])
    def test_sconet_keeps_a_bad_penalty_for_validate(self, lam):
        with pytest.raises(ConfigError):
            model_config_for("sconet", replace(BASE, lasso_lambda=lam))

    def test_unknown_arch(self):
        with pytest.raises(ConfigError):
            model_config_for("gru4rec", BASE)


class TestCompare:
    def test_model_against_itself_is_identical(self, split):
        report = compare_architectures(split, ["mlp", "mlp"], BASE, FAST)
        a, b = report.rows
        assert a.metrics.hr == b.metrics.hr
        assert a.metrics.ndcg == b.metrics.ndcg
        assert b.p_value == 1.0

    def test_one_row_per_architecture(self, split):
        report = compare_architectures(split, ["mlp", "mlp++", "conet"], BASE, FAST)
        assert [r.condition for r in report.rows] == ["mlp", "mlp++", "conet"]
        assert report.baseline == "mlp"

    def test_explicit_baseline(self, split):
        report = compare_architectures(split, ["conet", "mlp++"], BASE, FAST,
                                       baseline="mlp++")
        assert report.baseline == "mlp++"
        assert report.rows[1].p_value == 1.0

    def test_repeated_arch_keeps_each_arm_result(self, split, monkeypatch):
        # Rows follow arm positions: a repeated architecture is two arms,
        # each row its own arm's report, the baseline the first of them.
        reports = iter([
            MetricsReport(hr, hr, hr, [0, 1, 2], positions, 10)
            for hr, positions in ((0.25, [1, 50, 50]), (0.75, [1, 1, 50]))
        ])
        monkeypatch.setattr("conet.studies._train_and_evaluate",
                            lambda config, split, train_config: (next(reports), 1, []))
        first, second = compare_architectures(split, ["mlp", "mlp"], BASE, FAST).rows
        assert (first.metrics.hr, second.metrics.hr) == (0.25, 0.75)
        assert first.p_value == 1.0 and second.p_value < 1.0

    def test_arm_result_holds_no_model(self, split):
        report, epochs, ratios = _train_and_evaluate(BASE, split, FAST)
        assert isinstance(report, MetricsReport)
        assert epochs == FAST.epochs and len(ratios) == BASE.num_transfer_matrices

    def test_csn_width_refusal_happens_before_training(self, split):
        bad = ModelConfig(architecture="conet", embedding_dim=4, hidden_widths=(8, 4, 2))
        with pytest.raises(ConfigError):
            compare_architectures(split, ["csn"], bad, FAST)

    def test_workers_do_not_change_results(self, split):
        serial = compare_architectures(split, ["mlp", "conet"], BASE, FAST, workers=1)
        threaded = compare_architectures(split, ["mlp", "conet"], BASE, FAST, workers=2)
        for a, b in zip(serial.rows, threaded.rows):
            assert a.metrics.ndcg == b.metrics.ndcg
            assert a.p_value == b.p_value

    @pytest.mark.parametrize("driver, arms, kind, detail_keys", [
        (compare_architectures, ["mlp", "mlp++", "conet"], "compare",
         [COMPARE_KEYS, COMPARE_KEYS, [*COMPARE_KEYS, "h_zero_ratios"]]),
        (lambda_sweep, [0.0, 0.1], "lambda-sweep",
         [["lambda", "h_zero_ratios", "mean_zero_ratio", "epochs_trained"]] * 2),
        (reduce_study, [0, 1, 2], "reduce",
         [REDUCE_KEYS, *[["architecture", "lambda", "per_user_removal", *REDUCE_KEYS[1:]]] * 3]),
    ], ids=["compare", "lambda-sweep", "reduce-study"])
    def test_jsonable_shape(self, split, driver, arms, kind, detail_keys):
        # study.json's layout: every key in order, the baseline arm first.
        record = driver(split, arms, BASE, FAST).to_jsonable()
        assert list(record) == ["kind", "baseline", "seed", "rows", "summary"]
        rows = record["rows"]
        assert record["kind"] == kind and record["baseline"] == rows[0]["condition"]
        for row, keys in zip(rows, detail_keys, strict=True):
            assert list(row) == ["condition", "hr", "ndcg", "mrr", "num_users", "p_value",
                                 "details"]
            assert list(row["details"]) == keys
        if kind != "reduce":
            assert rows[0]["p_value"] == 1.0 and record["summary"] == {}
            return
        assert rows[0]["p_value"] is None
        assert all(0.0 <= row["p_value"] <= 1.0 for row in rows[1:])
        below = [level for level, row in zip(arms, rows[1:]) if row["ndcg"] < rows[0]["ndcg"]]
        assert record["summary"] == {"crossover_level": below[0] if below else None}


class TestLambdaSweep:
    def test_rows_and_sparsity_details(self, split):
        report = lambda_sweep(split, [0.0, 10.0], BASE, FAST)
        assert [r.condition for r in report.rows] == ["lambda=0", "lambda=10"]
        dense = report.rows[0].details
        sparse = report.rows[1].details
        assert dense["mean_zero_ratio"] == 0.0
        assert sparse["mean_zero_ratio"] > 0.5

    def test_negative_lambda_rejected(self, split):
        with pytest.raises(ConfigError):
            lambda_sweep(split, [-1.0], BASE, FAST)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, split, lam):
        with pytest.raises(ConfigError, match="finite"):
            lambda_sweep(split, [0.0, lam], BASE, FAST)


class TestReduceStudy:
    def test_monotone_sizes_and_columns(self, split):
        report = reduce_study(split, [0, 1, 2], BASE, FAST)
        assert report.rows[0].condition == "mlp"
        sizes = [r.details["train_size"] for r in report.rows[1:]]
        assert sizes[0] > sizes[1] > sizes[2]
        for row in report.rows[1:]:
            assert "removed" in row.details
            assert "removed_percent" in row.details
        assert report.rows[1].details["removed"] == 0
        assert report.rows[1].details["removed_percent"] == 0.0
        assert "crossover_level" in report.summary

    def test_reduction_counts_match_recount(self, split):
        before = split.train.target.num_interactions
        reduced = reduce_training(split, 2, derive_rng(0, "reduce", 2))
        report = reduce_study(split, [2], BASE, FAST)
        row = report.rows[1]
        assert row.details["train_size"] == before - row.details["removed"]
        assert row.details["removed"] == before - reduced.train.target.num_interactions


class TestSparsityTable:
    def test_rows_per_transfer_matrix(self, split):
        from conet.models import DomainSizes, build_model

        sizes = DomainSizes(split.train.num_users, split.train.target.num_items,
                            split.train.source.num_items)
        model = build_model(BASE, sizes, 0)
        table = sparsity_table(model)
        assert [row["matrix"] for row in table] == ["H_0", "H_1"]
        assert table[0]["rows"] == 4 and table[0]["cols"] == 8

    def test_architecture_without_transfer_matrices(self, split):
        from conet.models import DomainSizes, build_model

        sizes = DomainSizes(split.train.num_users, split.train.target.num_items,
                            split.train.source.num_items)
        model = build_model(model_config_for("mlp", BASE), sizes, 0)
        with pytest.raises(ConfigError):
            sparsity_table(model)
