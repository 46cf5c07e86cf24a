import dataclasses
import json
import os
import resource
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import conet
from conet.checkpoint import load_checkpoint, save_checkpoint
from conet.cli import RunConfig, load_run_config, main
from conet.data import SyntheticConfig
from conet.errors import ConfigError
from conet.models import DomainSizes, Model, ModelConfig
from conet.training import TrainConfig, Trainer


GEN_FLAGS = [
    "--users", "24", "--items-target", "120", "--items-source", "120",
    "--latent-dim", "4", "--target-density", "0.05", "--source-density", "0.05",
]
NET_FLAGS = ["--embedding-dim", "4", "--hidden-widths", "8,4,2"]
FAST_FLAGS = ["--epochs", "2", "--batch-size", "32"]


def generate(tmp_path, seed=0, extra=()):
    out = tmp_path / f"data{seed}"
    code = main(["generate", *GEN_FLAGS, "--seed", str(seed), "--out", str(out), *extra])
    assert code == 0
    return out


def train(tmp_path, data_dir, arch="sconet", seed=0, extra=()):
    out = tmp_path / f"run-{arch}-{seed}"
    code = main([
        "train", "--architecture", arch, *NET_FLAGS, *FAST_FLAGS,
        "--target", str(data_dir / "target.tsv"), "--source", str(data_dir / "source.tsv"),
        "--seed", str(seed), "--out", str(out), *extra,
    ])
    return code, out


def run_limited(argv, timeout=120):
    """``conet`` in a child that may address 3 GiB, so a runaway request kills it, not pytest."""
    src = str(Path(conet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "conet.cli", *argv], env=env, capture_output=True, text=True,
        timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)))


def data_inputs(data):
    return ["--target", str(data / "target.tsv"), "--source", str(data / "source.tsv")]


class TestRunConfig:
    def test_file_plus_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nseed = 7\nhidden_widths = 8,4,2\npatience = none\n")
        cfg = load_run_config(cfg_file, {"seed": "9", "mrr_uncut": "true"})
        assert cfg.seed == 9
        assert cfg.hidden_widths == (8, 4, 2)
        assert cfg.patience is None
        assert cfg.mrr_uncut is True

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("learning_rat = 0.1\n")
        with pytest.raises(ConfigError):
            load_run_config(cfg_file)

    def test_malformed_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_run_config(cfg_file)

    def test_defaults_are_the_library_configs_defaults(self):
        assert RunConfig().train_config() == TrainConfig()
        assert RunConfig().synthetic_config() == SyntheticConfig()
        assert RunConfig().base_model_config() == ModelConfig()

    def test_synthetic_sizes_keep_their_run_names(self):
        syn = load_run_config(overrides={"users": "30", "items_target": "200",
                                         "items_source": "400", "seed": "4"}).synthetic_config()
        assert (syn.num_users, syn.num_items_target, syn.num_items_source, syn.seed) == (
            30, 200, 400, 4)

    def test_flat_text_keeps_the_field_order(self):
        # config.txt lists every key in this order; a moved or renamed
        # field changes every echoed config.
        assert RunConfig().to_flat_text() == (
            "architecture = sconet\nembedding_dim = 32\nhidden_widths = 64,32,16,8\n"
            "lasso_lambda = 0.1\nlearning_rate = 0.001\nbatch_size = 128\nnegative_ratio = 1\n"
            "epochs = 30\npatience = 5\nseed = 0\nworkers = 1\ntarget = \nsource = \nsplit = \n"
            "min_user_interactions = 3\nusers = 1000\nitems_target = 1600\nitems_source = 1000\n"
            "latent_dim = 8\nrelatedness = 0.9\ntarget_density = 0.005\nsource_density = 0.015\n"
            "top_n = 10\nmrr_uncut = False\nout = \n")

    @pytest.mark.parametrize("key, raw, value", [
        ("hidden_widths", "8, 4,2", (8, 4, 2)), ("mrr_uncut", "no", False),
        ("patience", "off", None), ("patience", "3", 3), ("lasso_lambda", "1", 1.0),
        ("epochs", "7", 7), ("target", "t.tsv", "t.tsv"),
    ])
    def test_value_takes_the_type_of_its_default(self, key, raw, value):
        got = getattr(load_run_config(overrides={key: raw}), key)
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("key", ["workers", "min_user_interactions", "top_n"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_run_setting_below_one_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})


class TestGenerate:
    def test_rerun_is_byte_identical(self, tmp_path):
        a = generate(tmp_path / "a", seed=3)
        b = generate(tmp_path / "b", seed=3)
        for name in ("target.tsv", "source.tsv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_densities_within_contract(self, tmp_path):
        out = generate(tmp_path, seed=1)
        manifest = json.loads((out / "manifest.json").read_text())
        for side in ("target", "source"):
            requested = manifest[side]["requested_density"]
            actual = manifest[side]["actual_density"]
            assert abs(actual - requested) / requested < 0.05
        # recount interactions from the written file
        lines = (out / "target.tsv").read_text().strip().splitlines()
        assert len(lines) == manifest["target"]["num_interactions"]

    def test_relatedness_changes_source_only(self, tmp_path):
        a = generate(tmp_path / "rho0", seed=2, extra=["--relatedness", "0"])
        b = generate(tmp_path / "rho1", seed=2, extra=["--relatedness", "1"])
        assert (a / "target.tsv").read_bytes() == (b / "target.tsv").read_bytes()
        assert (a / "source.tsv").read_bytes() != (b / "source.tsv").read_bytes()


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path):
        data = generate(tmp_path)
        code, out = train(tmp_path, data)
        assert code == 0
        for name in ("model.ckpt", "history.jsonl", "split.json", "summary.json",
                     "config.txt"):
            assert (out / name).exists(), name
        history = (out / "history.jsonl").read_text().strip().splitlines()
        assert len(history) == 2
        record = json.loads(history[0])
        assert set(record) == {"epoch", "loss_target", "loss_source", "penalty",
                               "val_hr", "val_ndcg", "val_mrr", "h_zero_ratios"}

    def test_rerun_reproduces_bit_identical_outputs(self, tmp_path):
        data = generate(tmp_path)
        _, out1 = train(tmp_path / "r1", data, seed=5)
        _, out2 = train(tmp_path / "r2", data, seed=5)
        assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()
        assert (out1 / "history.jsonl").read_bytes() == (out2 / "history.jsonl").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_checkpoint_does_not_depend_on_blas_threads(self, tmp_path):
        # Default-sized data, so that OpenBLAS splits the larger products
        # over its threads; each run pins its thread count before numpy loads.
        # The other artifacts of the run and of an evaluation of it must match too.
        data = tmp_path / "data"
        assert main(["generate", "--seed", "1", "--out", str(data)]) == 0
        src = str(Path(conet.__file__).resolve().parents[1])
        inputs = ["--target", str(data / "target.tsv"), "--source", str(data / "source.tsv")]
        names = ("model.ckpt", "history.jsonl", "split.json", "summary.json", "eval/metrics.json")
        artifacts = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            out = tmp_path / f"threads-{threads}"
            for argv in (["train", "--architecture", "sconet", "--epochs", "1", *inputs,
                          "--out", str(out)],
                         ["evaluate", "--checkpoint", str(out / "model.ckpt"),
                          "--split", str(out / "split.json"), *inputs, "--out", str(out / "eval")]):
                subprocess.run([sys.executable, "-m", "conet.cli", *argv],
                               env=env, capture_output=True, timeout=600, check=True)
            artifacts.append({name: (out / name).read_bytes() for name in names})
        for name in names:
            assert artifacts[0][name] == artifacts[1][name], name

    def test_mlp_warns_source_ignored(self, tmp_path, capsys):
        data = generate(tmp_path)
        code, _ = train(tmp_path, data, arch="mlp")
        assert code == 0
        assert "ignores the source domain" in capsys.readouterr().err

    def test_csn_width_refusal_before_artifacts(self, tmp_path):
        data = generate(tmp_path)
        out = tmp_path / "csn-run"
        code = main([
            "train", "--architecture", "csn", *NET_FLAGS, *FAST_FLAGS,
            "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
            "--out", str(out),
        ])
        assert code == 2
        assert not (out / "model.ckpt").exists()

    def test_missing_data_file_is_data_error(self, tmp_path):
        code = main(["train", "--target", str(tmp_path / "nope.tsv"),
                     "--source", str(tmp_path / "nope2.tsv"), "--out", str(tmp_path / "o")])
        assert code == 3


class TestEvaluate:
    def test_reproduces_best_validation_metrics(self, tmp_path):
        data = generate(tmp_path)
        _, run = train(tmp_path, data, seed=2)
        summary = json.loads((run / "summary.json").read_text())
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--checkpoint", str(run / "model.ckpt"),
            "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
            "--split", str(run / "split.json"), "--partition", "validation",
            "--out", str(out),
        ])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["ndcg"] == summary["val_ndcg"]
        assert metrics["hr"] == summary["val_hr"]
        assert metrics["mrr"] == summary["val_mrr"]

    def test_twice_is_identical(self, tmp_path):
        data = generate(tmp_path)
        _, run = train(tmp_path, data)
        args = [
            "evaluate", "--checkpoint", str(run / "model.ckpt"),
            "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
            "--split", str(run / "split.json"),
        ]
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()

    def test_metrics_json_key_order(self, tmp_path):
        data = generate(tmp_path)
        _, run = train(tmp_path, data)
        out = tmp_path / "e"
        main(["evaluate", "--checkpoint", str(run / "model.ckpt"),
              "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
              "--split", str(run / "split.json"), "--out", str(out)])
        record = json.loads((out / "metrics.json").read_text())
        assert list(record) == ["model", "dataset", "topN", "hr", "ndcg", "mrr",
                                "num_users", "per_user"]

    def test_oracle_checkpoint_scores_perfectly(self, tmp_path):
        data = generate(tmp_path)
        _, run = train(tmp_path, data, arch="mlp")
        split = json.loads((run / "split.json").read_text())
        n_items = split["num_items_target"]
        n_users = split["num_users"]
        # Plant a model that fires exactly on each user's held-out test item:
        # the first hidden layer ANDs the user one-hot with the item one-hot.
        d = n_items
        width0 = 2 * d
        p = np.zeros((n_users, d))
        for u, item in split["test"].items():
            p[int(u), int(item)] = 1.0
        params = {
            "P": p,
            "Q": np.eye(n_items, d),
            "W_0": np.hstack([np.eye(width0 // 2), np.eye(width0 // 2)])
                     .repeat(2, axis=0)[:width0],
            "b_0": np.full(width0, -1.0),
            "W_1": np.ones((1, width0)),
            "b_1": np.zeros(1),
            "h": np.ones(1) * 4.0,
        }
        cfg = ModelConfig(architecture="mlp", embedding_dim=d,
                          hidden_widths=(width0, 1), lasso_lambda=0.0)
        model = Model(cfg, DomainSizes(n_users, n_items), params)
        ckpt_path = tmp_path / "oracle.ckpt"
        save_checkpoint(model, ckpt_path)
        out = tmp_path / "eval-oracle"
        code = main([
            "evaluate", "--checkpoint", str(ckpt_path),
            "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
            "--split", str(run / "split.json"), "--out", str(out),
        ])
        assert code == 0
        record = json.loads((out / "metrics.json").read_text())
        assert record["hr"] == record["ndcg"] == record["mrr"] == 1.0

    def test_shape_mismatch_is_config_error(self, tmp_path, capsys):
        data = generate(tmp_path)
        _, run = train(tmp_path, data)
        other = generate(tmp_path / "other", seed=9,
                         extra=["--items-target", "140", "--users", "30"])
        _, other_run = train(tmp_path / "other-run", other, seed=9)
        code = main([
            "evaluate", "--checkpoint", str(other_run / "model.ckpt"),
            "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
            "--split", str(run / "split.json"), "--out", str(tmp_path / "bad"),
        ])
        assert code == 2

        # Only the source item count differs: one more source item, and the
        # same split with its source size raised to match.
        wider = tmp_path / "wider"
        wider.mkdir()
        (wider / "source.tsv").write_text((data / "source.tsv").read_text() + "u0\tnew\n")
        manifest = json.loads((run / "split.json").read_text())
        manifest["num_items_source"] += 1
        (wider / "split.json").write_text(json.dumps(manifest))
        num_items_source = manifest["num_items_source"]
        for arch, expected in (("conet", 2), ("mlp", 0)):
            _, arch_run = train(tmp_path, data, arch=arch)
            capsys.readouterr()
            code = main([
                "evaluate", "--checkpoint", str(arch_run / "model.ckpt"),
                "--target", str(data / "target.tsv"), "--source", str(wider / "source.tsv"),
                "--split", str(wider / "split.json"), "--out", str(tmp_path / f"eval-{arch}"),
            ])
            assert code == expected, arch
            err = capsys.readouterr().err.strip().splitlines()
            if expected:
                assert err == [f"error: checkpoint/split mismatch: Q_s must have shape "
                               f"({num_items_source}, 4), got ({num_items_source - 1}, 4)"]
            else:
                assert err == []


class TestStudies:
    def test_compare_self_pair(self, tmp_path):
        data = generate(tmp_path)
        out = tmp_path / "cmp"
        code = main([
            "compare", "--archs", "mlp,mlp", *NET_FLAGS, *FAST_FLAGS,
            "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
            "--out", str(out),
        ])
        assert code == 0
        study = json.loads((out / "study.json").read_text())
        assert len(study["rows"]) == 2
        assert study["rows"][1]["p_value"] == 1.0
        assert study["rows"][0]["ndcg"] == study["rows"][1]["ndcg"]

    def test_compare_arm_is_train_then_evaluate(self, tmp_path):
        data = generate(tmp_path)
        flags = [*NET_FLAGS, *FAST_FLAGS, *data_inputs(data), "--seed", "4"]
        assert main(["compare", "--archs", "conet", *flags, "--out", str(tmp_path / "cmp")]) == 0
        assert main(["train", "--architecture", "conet", *flags,
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["evaluate", "--checkpoint", str(tmp_path / "run" / "model.ckpt"),
                     "--split", str(tmp_path / "run" / "split.json"), *data_inputs(data),
                     "--out", str(tmp_path / "eval")]) == 0
        row, = json.loads((tmp_path / "cmp" / "study.json").read_text())["rows"]
        metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert {k: row[k] for k in ("hr", "ndcg", "mrr")} == {
            k: metrics[k] for k in ("hr", "ndcg", "mrr")}
        assert row["details"]["epochs_trained"] == summary["epochs_trained"]

    def test_reduce_study_shape(self, tmp_path):
        data = generate(tmp_path)
        out = tmp_path / "red"
        code = main([
            "reduce-study", "--levels", "0,1", *NET_FLAGS, *FAST_FLAGS,
            "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
            "--out", str(out),
        ])
        assert code == 0
        study = json.loads((out / "study.json").read_text())
        rows = study["rows"]
        assert rows[0]["condition"] == "mlp"
        assert rows[1]["details"]["train_size"] > rows[2]["details"]["train_size"]
        assert "crossover_level" in study["summary"]

    def test_lambda_sweep_rows(self, tmp_path):
        data = generate(tmp_path)
        out = tmp_path / "sweep"
        code = main([
            "lambda-sweep", "--lambdas", "0,10", *NET_FLAGS, *FAST_FLAGS,
            "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
            "--out", str(out),
        ])
        assert code == 0
        study = json.loads((out / "study.json").read_text())
        ratios = [row["details"]["mean_zero_ratio"] for row in study["rows"]]
        assert ratios[0] < 0.01 and ratios[1] > 0.5

    @pytest.mark.parametrize("arms", [["compare", "--archs", "mlp,mlp++,csn,conet,sconet"],
                                      ["lambda-sweep", "--lambdas", "0,0.1,1"],
                                      ["reduce-study", "--levels", "0,1,2"]],
                             ids=["compare", "lambda-sweep", "reduce-study"])
    def test_workers_do_not_change_study_json(self, tmp_path, arms):
        # The data and training settings of acceptance criterion 9.
        data = generate(tmp_path, seed=3)
        studies = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers-{workers}"
            assert main([*arms, "--workers", workers, "--embedding-dim", "4",
                         "--hidden-widths", "8,8,8", "--epochs", "3", "--batch-size", "32",
                         "--seed", "11",
                         "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
                         "--out", str(out)]) == 0
            studies.append((out / "study.json").read_bytes())
        assert studies[0] == studies[1]


class TestSparsityReport:
    def test_table_from_checkpoint_and_history(self, tmp_path):
        data = generate(tmp_path)
        _, run = train(tmp_path, data)
        out = tmp_path / "sp"
        # A blank line in the history is skipped.
        history = tmp_path / "history.jsonl"
        first, *rest = (run / "history.jsonl").read_text().splitlines(keepends=True)
        history.write_text(first + "\n" + "".join(rest))
        code = main([
            "sparsity-report", "--checkpoint", str(run / "model.ckpt"),
            "--history", str(history), "--out", str(out),
        ])
        assert code == 0
        record = json.loads((out / "sparsity.json").read_text())
        assert [r["matrix"] for r in record["per_matrix"]] == ["H_0", "H_1"]
        assert len(record["per_epoch"]) == 2

    def test_architecture_without_h_errors(self, tmp_path, capsys):
        data = generate(tmp_path)
        _, run = train(tmp_path, data, arch="mlp")
        code = main(["sparsity-report", "--checkpoint", str(run / "model.ckpt"),
                     "--out", str(tmp_path / "sp2")])
        assert code == 2
        capsys.readouterr()
        code = main(["sparsity-report", "--history", str(run / "history.jsonl"),
                     "--out", str(tmp_path / "sp2")])
        assert code == 2
        assert capsys.readouterr().err == ("error: history has no transfer-matrix sparsity "
                                           "series (architecture without cross connections)\n")

    def test_needs_an_input(self, tmp_path):
        assert main(["sparsity-report", "--out", str(tmp_path / "sp3")]) == 2


class TestMalformedInput:
    """Bad input exits with its documented code and a one-line message."""

    def assert_one_line_error(self, capsys, code, expected):
        assert code == expected
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("flag,value", [("--epochs", "abc"), ("--hidden-widths", "8,x"),
                                            ("--lasso-lambda", "lots"), ("--mrr-uncut", "maybe")])
    def test_bad_flag_value_is_config_error(self, tmp_path, capsys, flag, value):
        code = main(["train", flag, value, "--out", str(tmp_path / "o")])
        self.assert_one_line_error(capsys, code, 2)

    @pytest.mark.parametrize("arch,flag,value", [
        ("sconet", "--lasso-lambda", "nan"), ("sconet", "--lasso-lambda", "inf"),
        ("conet", "--lasso-lambda", "nan"), ("sconet", "--learning-rate", "nan"),
        ("sconet", "--learning-rate", "inf"), ("mlp", "--learning-rate", "-inf")])
    def test_non_finite_hyperparameter_is_config_error(self, tmp_path, capsys, arch, flag,
                                                       value):
        data = generate(tmp_path, seed=3)
        capsys.readouterr()
        code, out = train(tmp_path, data, arch=arch, extra=(f"{flag}={value}",))
        self.assert_one_line_error(capsys, code, 2)
        assert not (out / "history.jsonl").exists()

    @pytest.mark.parametrize("verb,flag,value", [("compare", "--archs", "mlp,nope"),
                                                 ("lambda-sweep", "--lambdas", "0,x"),
                                                 ("lambda-sweep", "--lambdas", "0,nan"),
                                                 ("lambda-sweep", "--lambdas", "0,inf"),
                                                 ("lambda-sweep", "--lambdas", "0,-1"),
                                                 ("reduce-study", "--levels", "0,1.5"),
                                                 ("reduce-study", "--levels", "0,-1"),
                                                 ("compare", "--archs", ","),
                                                 ("reduce-study", "--levels", " ")])
    def test_bad_list_flag_value_is_config_error(self, tmp_path, capsys, verb, flag, value):
        data = generate(tmp_path)
        capsys.readouterr()
        code = main([verb, flag, value, *NET_FLAGS, *FAST_FLAGS,
                     "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
                     "--out", str(tmp_path / "o")])
        self.assert_one_line_error(capsys, code, 2)

    @pytest.mark.parametrize("argv,inputs,message", [
        (["train"], False, "this command needs --target and --source"),
        (["evaluate", "--checkpoint", "model.ckpt"], False, "evaluate needs --split"),
        (["compare", "--archs", "mlp,conet", "--baseline", "csn", *NET_FLAGS], True,
         "baseline 'csn' is not among the compared architectures"),
    ], ids=["train-without-inputs", "evaluate-without-split", "baseline-not-compared"])
    def test_missing_input_or_stray_baseline_is_config_error(self, tmp_path, capsys, frozen_run,
                                                              argv, inputs, message):
        data, _ = frozen_run
        capsys.readouterr()
        out = tmp_path / "o"
        code = main([*argv, *(data_inputs(data) if inputs else []), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not (out / "study.json").exists()

    @pytest.mark.parametrize("verb,flag,value", [("train", "--workers", "-3"),
                                                 ("compare", "--workers", "0"),
                                                 ("train", "--min-user-interactions", "-4")])
    def test_run_setting_below_one_is_config_error(self, tmp_path, capsys, frozen_run, verb,
                                                   flag, value):
        data, _ = frozen_run
        capsys.readouterr()
        out = tmp_path / "o"
        arms = ["--archs", "mlp,conet"] if verb == "compare" else []
        code = main([verb, f"{flag}={value}", *arms, *NET_FLAGS, *FAST_FLAGS,
                     "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
                     "--out", str(out)])
        self.assert_one_line_error(capsys, code, 2)
        assert not (out / "history.jsonl").exists() and not (out / "study.json").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--embedding-dim", "200000000", "--hidden-widths", "400000000"],
        ["train", "--negative-ratio", "1000000000"],
        ["generate", "--users", "100000000"],
        # Sizes whose byte count numpy cannot describe, or a C long cannot hold.
        ["train", "--embedding-dim", "4", "--hidden-widths", f"8,{10 ** 18}"],
        ["generate", "--users", str(10 ** 18)],
        ["generate", "--users", str(10 ** 10), "--latent-dim", str(10 ** 10)],
        ["generate", "--users", str(10 ** 30)],
    ], ids=["embedding-tables", "negatives", "generated-users", "width-too-big",
            "generated-users-too-big", "latent-factors-too-big", "generated-users-too-many-dims"])
    def test_out_of_memory_is_one_line_and_exit_2(self, tmp_path, frozen_run, argv):
        # Each run asks for 6 to 715 GiB. The child may address 3 GiB, so
        # the allocation fails at once; the limit binds the child alone.
        data, _ = frozen_run
        done = run_limited([*argv, *(data_inputs(data) if argv[0] == "train" else []),
                            "--out", str(tmp_path / "o")])
        assert done.returncode == 2
        err = done.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory: ")

    @pytest.mark.parametrize("ratio", [2 ** 62, 10 ** 17, 2 ** 63 - 1, 10 ** 18, 10 ** 30],
                             ids=["wraps-to-a-small-buffer", "wraps-negative", "int64-max",
                                  "negatives-too-big", "negatives-overflow"])
    def test_huge_negative_ratio_is_one_line_and_exit_2(self, tmp_path, frozen_run, ratio):
        # A batch's example count past int64 wraps inside numpy's repeat: a
        # small wrapped count let it write past its buffer (a segfault).
        data, _ = frozen_run
        done = run_limited(["train", "--negative-ratio", str(ratio), *data_inputs(data),
                            "--out", str(tmp_path / "o")])
        assert done.returncode == 2
        err = done.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: negative_ratio {ratio} ")

    @pytest.mark.parametrize("rate", ["1e300", "1e30"])
    def test_divergence_is_one_line_and_exit_4(self, tmp_path, capfd, rate):
        # Default model sizes: at 1e30 a small network trains on without
        # overflowing, while the default one overflows inside Adam.
        data = generate(tmp_path, seed=3)
        capfd.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--epochs", "3", "--seed", "11", "--learning-rate", rate,
                         "--target", str(data / "target.tsv"),
                         "--source", str(data / "source.tsv"), "--out", str(tmp_path / "o")])
        assert code == 4
        assert [str(w.message) for w in caught] == []
        err = capfd.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: numeric divergence at epoch 1, step 0 (source batch): overflow encountered")

    def test_diverging_rerun_leaves_the_finished_run_whole(self, tmp_path, capfd):
        # A finished run, then one that diverges into the same directory: the
        # directory's split and checkpoint still score as the finished run.
        data = generate(tmp_path, seed=3)
        out = tmp_path / "o"
        inputs = [*data_inputs(data), "--epochs", "3", "--out", str(out)]

        def evaluate(name):
            assert main(["evaluate", "--checkpoint", str(out / "model.ckpt"),
                         "--split", str(out / "split.json"), *data_inputs(data),
                         "--out", str(tmp_path / name)]) == 0
            return (tmp_path / name / "metrics.json").read_bytes()

        assert main(["train", "--seed", "1", *inputs]) == 0
        split, metrics = (out / "split.json").read_bytes(), evaluate("before")
        assert main(["train", "--seed", "2", "--learning-rate", "1e30", *inputs]) == 4
        capfd.readouterr()
        assert (out / "split.json").read_bytes() == split
        assert evaluate("after") == metrics

    # The 60-user set on which an overflow first appears while ranking.
    OVERFLOW_DATA = ["--users", "60", "--items-target", "200", "--items-source", "200",
                     "--latent-dim", "4", "--target-density", "0.05", "--source-density", "0.05"]

    def run_warning_free(self, capfd, argv):
        """``main(argv)``'s exit code and stderr lines; fails on any warning it gives."""
        capfd.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert [str(w.message) for w in caught] == []
        return code, capfd.readouterr().err.strip().splitlines()

    def test_overflow_first_in_validation_is_one_line_and_exit_4(self, tmp_path, capfd):
        # The one full-batch step stays finite; ranking the validation users overflows.
        data = tmp_path / "data"
        assert main(["generate", *self.OVERFLOW_DATA, "--out", str(data)]) == 0
        code, err = self.run_warning_free(capfd, [
            "train", "--architecture", "mlp", "--batch-size", "100000", "--learning-rate",
            "1e200", "--epochs", "2", "--embedding-dim", "4", "--hidden-widths", "8",
            *data_inputs(data), "--out", str(tmp_path / "o")])
        assert code == 4
        # The architecture note prints before training starts.
        assert err[0] == "note: architecture mlp ignores the source domain during training"
        assert len(err[1:]) == 1 and err[1].startswith(
            "error: scorer failed for the 60 validation users: scoring diverged: overflow")

    def test_saturating_overflow_in_evaluate_is_one_line_and_exit_4(self, tmp_path, capfd):
        # The logits overflow to +-inf, which the sigmoid saturates to 0 and 1.
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["generate", *self.OVERFLOW_DATA, "--out", str(data)]) == 0
        assert main(["train", "--epochs", "1", *NET_FLAGS, *data_inputs(data),
                     "--out", str(run)]) == 0
        model = load_checkpoint(run / "model.ckpt")
        for name, value in model.params.items():
            if name.startswith("W_t_"):
                value *= 1e120
        save_checkpoint(model, tmp_path / "big.ckpt")
        code, err = self.run_warning_free(capfd, [
            "evaluate", "--checkpoint", str(tmp_path / "big.ckpt"), *data_inputs(data),
            "--split", str(run / "split.json"), "--out", str(tmp_path / "eval")])
        assert code == 4
        assert len(err) == 1 and err[0].startswith(
            "error: scorer failed for the 60 test users: scoring diverged: overflow")
        assert not (tmp_path / "eval" / "metrics.json").exists()

    def test_source_user_holding_every_item_is_data_error(self, tmp_path, capsys):
        # No negative exists for such a user; training must stop, not spin.
        data = generate(tmp_path)
        users = {line.split("\t")[0] for line in (data / "target.tsv").read_text().splitlines()}
        source = tmp_path / "only.tsv"
        source.write_text("".join(f"{u}\tonly\n" for u in sorted(users)))
        capsys.readouterr()
        code = main(["train", *NET_FLAGS, *FAST_FLAGS, "--target", str(data / "target.tsv"),
                     "--source", str(source), "--out", str(tmp_path / "o")])
        self.assert_one_line_error(capsys, code, 3)

    def evaluate(self, tmp_path, data, run, checkpoint=None):
        return main([
            "evaluate", "--checkpoint", str(checkpoint or run / "model.ckpt"),
            "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
            "--split", str(run / "split.json"), "--out", str(tmp_path / "eval"),
        ])

    def test_sentinel_negative_in_manifest_is_data_error(self, tmp_path, capsys):
        data = generate(tmp_path)
        _, run = train(tmp_path, data)
        manifest = json.loads((run / "split.json").read_text())
        first = sorted(manifest["eval_negatives"])[0]
        manifest["eval_negatives"][first][0] = -1
        (run / "split.json").write_text(json.dumps(manifest))
        self.assert_one_line_error(capsys, self.evaluate(tmp_path, data, run), 3)

    def test_non_finite_checkpoint_is_data_error(self, tmp_path, capsys):
        data = generate(tmp_path)
        _, run = train(tmp_path, data)
        model = load_checkpoint(run / "model.ckpt")
        model.params["h_t"][0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(model, bad)
        self.assert_one_line_error(capsys, self.evaluate(tmp_path, data, run, bad), 3)

    def test_non_utf8_config_file_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"seed = 1\nusers = 24\xff\n")
        code = main(["generate", "--config", str(config), "--out", str(tmp_path / "o")])
        self.assert_one_line_error(capsys, code, 3)

    def test_repeated_config_key_is_config_error(self, tmp_path, capsys, frozen_run):
        data, _ = frozen_run
        config = tmp_path / "dup.txt"
        config.write_text("seed = 1\nepochs = 1\nseed = 2\n")
        capsys.readouterr()
        out = tmp_path / "o"
        code = main(["train", "--config", str(config), *NET_FLAGS, *data_inputs(data),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {config}:3: key 'seed' is given twice\n"
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["train", "compare", "lambda-sweep", "reduce-study"])
    def test_no_user_to_rank_is_data_error_at_set_up(self, tmp_path, capsys, monkeypatch,
                                                     unrankable, verb):
        fits = []
        fit = Trainer.fit
        monkeypatch.setattr(Trainer, "fit", lambda trainer: fits.append(1) or fit(trainer))
        lists = {"compare": ["--archs", "mlp"], "lambda-sweep": ["--lambdas", "0"],
                 "reduce-study": ["--levels", "0"]}
        out = tmp_path / "o"
        code = main([verb, *lists.get(verb, []), *NET_FLAGS, *FAST_FLAGS, *unrankable,
                     "--out", str(out)])
        self.assert_one_line_error(capsys, code, 3)
        assert fits == [] and not (out / "history.jsonl").exists()

    def test_manifest_without_users_is_data_error(self, tmp_path, capsys, frozen_run):
        data, run = frozen_run
        manifest = json.loads((run / "split.json").read_text())
        manifest.update(test={}, validation={}, eval_negatives={})
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(manifest))
        capsys.readouterr()
        code, out = train(tmp_path, data, extra=["--split", str(empty)])
        self.assert_one_line_error(capsys, code, 3)
        assert not (out / "history.jsonl").exists()

    @pytest.mark.parametrize("key", ["test", "validation", "eval_negatives"])
    def test_repeated_manifest_user_is_data_error(self, tmp_path, capsys, frozen_run, key):
        data, run = frozen_run
        text = (run / "split.json").read_text()
        user, value = next(iter(json.loads(text)[key].items()))
        # The same entry twice, which json.dumps cannot write.
        entry = f'"{key}": {{\n  "{user}": {json.dumps(value)},'
        (tmp_path / "split.json").write_text(text.replace(f'"{key}": {{', entry, 1))
        capsys.readouterr()
        code = self.evaluate(tmp_path, data, tmp_path, checkpoint=run / "model.ckpt")
        self.assert_one_line_error(capsys, code, 3)

    @pytest.mark.parametrize("top_n", ["0", "-5"])
    def test_non_positive_top_n_is_config_error(self, tmp_path, capsys, frozen_run, top_n):
        data, run = frozen_run
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(run / "model.ckpt"),
                     "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
                     "--split", str(run / "split.json"), "--top-n", top_n,
                     "--out", str(tmp_path / "eval")])
        self.assert_one_line_error(capsys, code, 2)
        assert not (tmp_path / "eval").exists()  # refused before any input is read

    @pytest.mark.parametrize("argv", [["generate"], ["train"], ["compare", "--archs", "mlp"],
                                      ["lambda-sweep", "--lambdas", "0"],
                                      ["reduce-study", "--levels", "0"],
                                      ["sparsity-report", "--history", "history.jsonl"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flag,value", [("--top-n", "3"), ("--mrr-uncut", "true")])
    def test_ranking_flag_outside_evaluate_is_config_error(self, tmp_path, capsys, frozen_run,
                                                           argv, flag, value):
        data, _ = frozen_run
        capsys.readouterr()
        out = tmp_path / "o"
        code = main([*argv, *NET_FLAGS, *FAST_FLAGS, *data_inputs(data), flag, value,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {argv[0]} does not take {flag}; only evaluate does\n")
        assert not out.exists()

    def test_echoed_config_with_default_ranking_keys_reruns(self, tmp_path, frozen_run):
        # config.txt lists top_n and mrr_uncut at their defaults for every verb.
        _, run = frozen_run
        assert main(["train", "--config", str(run / "config.txt"), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "model.ckpt").read_bytes() == (run / "model.ckpt").read_bytes()

    def test_malformed_history_is_data_error(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        history.write_text('{"epoch": 1, "h_zero_ratios": [0.5]}\n{not json\n')
        code = main(["sparsity-report", "--history", str(history), "--out", str(tmp_path / "sp")])
        self.assert_one_line_error(capsys, code, 3)

    HISTORY_RECORD = {"epoch": 1, "loss_target": 0.6, "loss_source": 0.7, "penalty": 0.0,
                      "val_hr": 0.5, "val_ndcg": 0.3, "val_mrr": 0.2, "h_zero_ratios": [0.5]}

    @pytest.mark.parametrize("fields", [{"h_zero_ratios": "abc"},
                                        {"epoch": "one", "h_zero_ratios": [0.5, {"a": 1}]},
                                        {"h_zero_ratios": 5}, {"h_zero_ratios": [1.5]},
                                        {"epoch": 0}, {"epoch": True}, {"val_ndcg": "0.3"},
                                        {"penalty": None}],
                             ids=["ratios-text", "epoch-text", "ratios-number", "ratio-above-1",
                                  "epoch-0", "epoch-bool", "metric-text", "penalty-null"])
    def test_mistyped_history_is_data_error(self, tmp_path, capsys, fields):
        history = tmp_path / "history.jsonl"
        history.write_text(json.dumps(self.HISTORY_RECORD | fields) + "\n")
        code = main(["sparsity-report", "--history", str(history), "--out", str(tmp_path / "sp")])
        self.assert_one_line_error(capsys, code, 3)
        assert not (tmp_path / "sp" / "sparsity.json").exists()

    def test_history_without_evaluated_users_is_read(self, tmp_path):
        nan = {"val_hr": float("nan"), "val_ndcg": float("nan"), "val_mrr": float("nan")}
        history = tmp_path / "history.jsonl"
        history.write_text(json.dumps(self.HISTORY_RECORD | nan) + "\n")
        assert main(["sparsity-report", "--history", str(history),
                     "--out", str(tmp_path / "sp")]) == 0
        record = json.loads((tmp_path / "sp" / "sparsity.json").read_text())
        assert record["per_epoch"] == [{"epoch": 1, "h_zero_ratios": [0.5]}]

    @pytest.mark.parametrize("verb,flag", [("evaluate", "--checkpoint"), ("evaluate", "--split"),
                                           ("train", "--target")])
    def test_directory_input_is_data_error(self, tmp_path, capsys, frozen_run, verb, flag):
        data, run = frozen_run
        paths = {"--target": data / "target.tsv", "--source": data / "source.tsv"}
        if verb == "evaluate":
            paths.update({"--checkpoint": run / "model.ckpt", "--split": run / "split.json"})
        paths[flag] = tmp_path
        capsys.readouterr()
        code = main([verb, *NET_FLAGS, "--epochs", "0", "--out", str(tmp_path / "o"),
                     *(str(v) for item in paths.items() for v in item)])
        self.assert_one_line_error(capsys, code, 3)

    def test_output_path_that_is_a_file_is_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        self.assert_one_line_error(capsys, main(["train", "--out", str(taken)]), 2)

    def test_unwritable_artifact_in_existing_out_dir_is_config_error(self, tmp_path, capsys,
                                                                     frozen_run):
        data, run = frozen_run
        (tmp_path / "ev" / "metrics.json").mkdir(parents=True)
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(run / "model.ckpt"),
                     "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
                     "--split", str(run / "split.json"), "--out", str(tmp_path / "ev")])
        self.assert_one_line_error(capsys, code, 2)

    def test_interrupted_rerun_keeps_the_old_artifacts(self, tmp_path, capsys, monkeypatch):
        out = generate(tmp_path)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr("conet.data.os.replace", interrupted)
        capsys.readouterr()
        code = main(["generate", *GEN_FLAGS, "--seed", "1", "--out", str(out)])
        self.assert_one_line_error(capsys, code, 130)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_interrupt_is_one_line_and_exit_130(self, tmp_path, capsys, monkeypatch):
        def interrupted(config, args, out_dir):
            raise KeyboardInterrupt

        monkeypatch.setattr("conet.cli.cmd_generate", interrupted)
        self.assert_one_line_error(capsys, main(["generate", "--out", str(tmp_path / "o")]), 130)

    def test_missing_required_flag_is_one_line_usage_error(self, capsys):
        self.assert_one_line_error(capsys, main(["evaluate"]), 2)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--help"])
        assert exc.value.code == 0 and "--checkpoint" in capsys.readouterr().out


@pytest.fixture(scope="module")
def unrankable(tmp_path_factory):
    """Input flags for 30 users that all stay, none with the 3 target interactions a split ranks."""
    root = tmp_path_factory.mktemp("unrankable")
    for name, items in (("target", 40), ("source", 20)):
        (root / f"{name}.tsv").write_text("".join(f"u{u}\t{name[0]}{(3 * u + k) % items}\n"
                                                  for u in range(30) for k in (0, 1)))
    return ["--target", str(root / "target.tsv"), "--source", str(root / "source.tsv"),
            "--min-user-interactions", "1"]


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as Windows editors write, is not part of the text."""

    def test_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(BOM + b"epochs = 7\r\nseed = 2\r\n")
        assert load_run_config(config) == load_run_config(overrides={"epochs": "7", "seed": "2"})

    def test_split_manifest(self, tmp_path, frozen_run):
        data, run = frozen_run
        (tmp_path / "split.json").write_bytes(BOM + (run / "split.json").read_bytes())
        metrics = []
        for split in (run / "split.json", tmp_path / "split.json"):
            out = tmp_path / f"eval-{len(metrics)}"
            assert main(["evaluate", "--checkpoint", str(run / "model.ckpt"),
                         "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
                         "--split", str(split), "--out", str(out)]) == 0
            metrics.append((out / "metrics.json").read_bytes())
        assert metrics[0] == metrics[1]

    def test_history(self, tmp_path):
        history = tmp_path / "history.jsonl"
        history.write_bytes(BOM + json.dumps(TestMalformedInput.HISTORY_RECORD).encode() + b"\n")
        assert main(["sparsity-report", "--history", str(history),
                     "--out", str(tmp_path / "sp")]) == 0
        record = json.loads((tmp_path / "sp" / "sparsity.json").read_text())
        assert record["per_epoch"] == [{"epoch": 1, "h_zero_ratios": [0.5]}]


@pytest.fixture(scope="module")
def frozen_run(tmp_path_factory):
    """Generated data, an untrained checkpoint and its valid split manifest."""
    tmp_path = tmp_path_factory.mktemp("frozen")
    data = generate(tmp_path)
    code, run = train(tmp_path, data, extra=["--epochs", "0"])
    assert code == 0
    return data, run


# Every numeric flag, each sent through a verb that reads it; --workers
# goes through train, where only its range check reads it. A huge epoch or
# patience count is a legitimately long run, and a seed sizes nothing.
NUMERIC_FLAGS = {
    "train": ("embedding-dim", "hidden-widths", "lasso-lambda", "learning-rate", "batch-size",
              "negative-ratio", "epochs", "patience", "seed", "workers", "min-user-interactions"),
    "generate": ("users", "items-target", "items-source", "latent-dim", "relatedness",
                 "target-density", "source-density"),
    "evaluate": ("top-n",),
}
HUGE = (str(10 ** 9), str(2 ** 62), str(10 ** 18))
FLAG_CASES = [(verb, flag, value) for verb, flags in NUMERIC_FLAGS.items() for flag in flags
              for value in ("0", "-1", *HUGE, "nan", "1e3")
              if not (flag in ("epochs", "patience", "seed") and value in HUGE)]


@pytest.mark.parametrize("verb,flag,value", FLAG_CASES,
                         ids=[f"{flag}={value}" for _, flag, value in FLAG_CASES])
def test_numeric_flag_exits_0_or_one_line_error(tmp_path, frozen_run, verb, flag, value):
    """One child per flag and value: exit 0, or 2, 3 or 4 with one stderr line, never a crash."""
    data, run = frozen_run
    base = {"train": [*NET_FLAGS, "--epochs", "1", *data_inputs(data)],
            "generate": GEN_FLAGS,
            "evaluate": ["--checkpoint", str(run / "model.ckpt"),
                         "--split", str(run / "split.json"), *data_inputs(data)]}[verb]
    done = run_limited([verb, *base, f"--{flag}={value}", "--out", str(tmp_path / "o")],
                       timeout=60)
    assert done.returncode in (0, 2, 3, 4), done.stderr
    assert done.returncode == 0 or len(done.stderr.strip().splitlines()) == 1, done.stderr


PATH_FLAGS = {
    "train": ("--config", "--target", "--source", "--split", "--out"),
    "evaluate": ("--config", "--checkpoint", "--target", "--source", "--split", "--out"),
    "compare": ("--config", "--target", "--source", "--split", "--out"),
    "sparsity-report": ("--config", "--checkpoint", "--history", "--out"),
}
PATH_CONTENTS = {"file": b"hello world\n", "empty": b"", "non_utf8": b"\xff\xfe\x80\n"}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(verb=st.sampled_from(sorted(PATH_FLAGS)), data=st.data())
def test_unusable_path_flags_exit_2_or_3(tmp_path_factory, verb, data):
    """Every path flag missing, a directory or a bad file: an error exit, never a traceback."""
    root = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    argv = [verb, "--archs", "mlp"] if verb == "compare" else [verb]
    for flag in PATH_FLAGS[verb]:
        kind = data.draw(st.sampled_from(["missing", "directory", *PATH_CONTENTS]), label=flag)
        path = root / f"{flag[2:]}-{kind}"
        if kind == "directory":
            path.mkdir()
        elif kind in PATH_CONTENTS:
            path.write_bytes(PATH_CONTENTS[kind])
        argv += [flag, str(path)]
    assert main(argv) in (2, 3)


MANIFEST_KEYS = ("num_users", "num_items_target", "num_items_source",
                 "test", "validation", "eval_negatives")
NON_INTEGERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3), st.none(),
    st.lists(st.integers(0, 5), max_size=2), st.booleans())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["drop_key", "sentinel", "repeat", "interacted", "out_of_range",
                             "non_integer", "never_held", "aliased_user"]),
       pick=st.integers(0, 10 ** 6), junk=NON_INTEGERS)
def test_mutated_manifest_exits_3(frozen_run, kind, pick, junk):
    """Any one corruption of a valid split.json is a data error, never a traceback."""
    data, run = frozen_run
    manifest = json.loads((run / "split.json").read_text())
    user = sorted(manifest["test"], key=int)[pick % len(manifest["test"])]
    negatives = manifest["eval_negatives"][user]
    slot = pick % len(negatives)
    if kind == "drop_key":
        del manifest[MANIFEST_KEYS[pick % len(MANIFEST_KEYS)]]
    elif kind == "sentinel":
        negatives[slot] = -1
    elif kind == "repeat":
        negatives[slot] = negatives[(slot + 1 + pick % 98) % len(negatives)]
    elif kind == "interacted":
        negatives[slot] = manifest[("test", "validation")[pick % 2]][user]
    elif kind == "out_of_range":
        n = manifest["num_items_target"]
        negatives[slot] = n + pick % 7 if pick % 2 else -2 - pick % 7
    elif kind == "non_integer":
        target = (negatives, manifest["test"], manifest["validation"])[pick % 3]
        target[slot if target is negatives else user] = junk
    elif kind == "aliased_user":  # a key int() reads as the user, but not as written
        partition = manifest[MANIFEST_KEYS[3 + pick % 3]]
        partition[("0{}", " {}", "{} ", "+{}", "{}\n")[pick // 3 % 5].format(user)] = (
            partition.pop(user))
    else:  # a held-out item the user never had: one of its negatives
        manifest[("test", "validation")[pick % 2]][user] = negatives[slot]
    mutated = run / "mutated.json"
    mutated.write_text(json.dumps(manifest))
    code = main([
        "evaluate", "--checkpoint", str(run / "model.ckpt"),
        "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
        "--split", str(mutated), "--out", str(run / "fuzz-eval"),
    ])
    assert code == 3


def structural_offsets(raw):
    """Checkpoint bytes whose every change the loader must detect.

    That is the whole header except the lasso lambda (any finite value of
    which is a valid model), and each tensor's name and shape; tensor data
    is left out, since a changed finite weight is still a model.
    """
    offsets = []
    pos = 0

    def field(size, keep=True):
        nonlocal pos
        if keep:
            offsets.extend(range(pos, pos + size))
        pos += size
        return raw[pos - size:pos]

    field(9 + 4)  # magic, version
    field(struct.unpack("<H", field(2))[0])  # architecture
    field(4 + 4)  # flags, embedding dim
    field(4 * struct.unpack("<I", field(4))[0])  # widths
    field(8, keep=False)  # lasso lambda
    for _ in range(struct.unpack("<I", field(4))[0]):
        field(struct.unpack("<H", field(2))[0])  # name
        rows, cols = struct.unpack("<QQ", field(16))
        field(rows * cols * 8, keep=False)
    assert pos == len(raw)
    return offsets


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["truncate", "flip", "drop", "reshape", "non_finite"]),
       pick=st.integers(0, 10 ** 6), mask=st.integers(1, 255),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_mutated_checkpoint_exits_2_or_3(frozen_run, kind, pick, mask, bad):
    """Any one corruption of a valid checkpoint is an error exit, never a traceback."""
    data, run = frozen_run
    raw = (run / "model.ckpt").read_bytes()
    model = load_checkpoint(run / "model.ckpt")
    params = dict(model.params)
    names = sorted(params)
    name = names[pick % len(names)]
    mutated = run / "mutated.ckpt"
    if kind == "truncate":
        mutated.write_bytes(raw[: pick % len(raw)])
    elif kind == "flip":
        offsets = structural_offsets(raw)
        at = offsets[pick % len(offsets)]
        mutated.write_bytes(raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:])
    else:
        if kind == "drop":
            del params[name]
        elif kind == "reshape":
            # A matrix transposed (flattened when square), or a vector stored as a column.
            shape = params[name].shape
            params[name] = params[name].reshape(
                (-1, 1) if len(shape) == 1 else shape[::-1] if shape[0] != shape[1] else (1, -1))
        else:
            params[name] = params[name].copy()
            params[name].flat[pick % params[name].size] = bad
        save_checkpoint(SimpleNamespace(config=model.config, params=params), mutated)
    code = main([
        "evaluate", "--checkpoint", str(mutated),
        "--target", str(data / "target.tsv"), "--source", str(data / "source.tsv"),
        "--split", str(run / "split.json"), "--out", str(run / "fuzz-eval"),
    ])
    assert code in (2, 3)


VALID_CONFIG = "".join(f"{flag[2:].replace('-', '_')} = {value}\n"
                       for flag, value in zip(GEN_FLAGS[::2], GEN_FLAGS[1::2]))
TYPED_KEYS = sorted(f.name for f in dataclasses.fields(RunConfig)
                    if isinstance(f.default, (bool, int, float, tuple)))
# No digits, commas or letters of "nan"/"inf": nothing a number parses from.
JUNK = st.text(alphabet="xyzqw!?@$%^&*()[]{}<>~|", min_size=1, max_size=6)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["bad_bytes", "unknown_key", "junk_value", "no_equals"]),
       pick=st.integers(0, 10 ** 6),
       bad_bytes=st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xfe\xfe"]),
       key=st.from_regex(r"[a-z_]{1,12}", fullmatch=True), junk=JUNK,
       words=st.from_regex(r"[A-Za-z0-9_. -]*[A-Za-z0-9_.-][A-Za-z0-9_. -]*", fullmatch=True))
def test_mutated_config_file_exits_2_or_3(tmp_path_factory, kind, pick, bad_bytes, key, junk,
                                          words):
    """Any one corruption of a valid config file is an error exit, never a traceback."""
    lines = VALID_CONFIG.encode("utf-8").splitlines(keepends=True)
    at = pick % (len(lines) + 1)
    if kind == "bad_bytes":
        raw = b"".join(lines)
        at = pick % (len(raw) + 1)
        text = raw[:at] + bad_bytes + raw[at:]
    else:
        if kind == "unknown_key":
            if key in {f.name for f in dataclasses.fields(RunConfig)}:
                key += "_x"
            line = f"{key} = 1"
        elif kind == "junk_value":
            line = f"{TYPED_KEYS[pick % len(TYPED_KEYS)]} = {junk}"
        else:
            line = words
        text = b"".join(lines[:at] + [line.encode("utf-8") + b"\n"] + lines[at:])
    root = tmp_path_factory.getbasetemp()
    config = root / "mutated.cfg"
    config.write_bytes(text)
    assert main(["generate", "--config", str(config), "--out", str(root / "fuzz-gen")]) in (2, 3)
