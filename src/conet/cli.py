"""Command-line surface: reproducible runs bound to configs and seeds.

Verbs: generate, train, evaluate, compare, reduce-study, sparsity-report,
lambda-sweep. Every command reads an optional flat ``key = value`` config
file, applies flag overrides, resolves its output directory (relative to
``CONET_OUTPUT_ROOT`` when set) and echoes the fully resolved config next
to its outputs. Exit codes: 0 success, 2 configuration error or an
output that cannot be written, 3 data error, 4 numeric divergence, 130
interrupted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import checkpoint as ckpt
from . import data as dataio
from . import studies
from .errors import ConetError, ConfigError, DataError
from .evaluation import evaluate
from .models import DomainSizes, ModelConfig, build_model
from .numerics import derive_rng
from .training import EpochStats, TrainConfig, Trainer, make_scorer

ENV_OUTPUT_ROOT = "CONET_OUTPUT_ROOT"


@dataclass
class RunConfig:
    """Union of model, training, data and output settings for one run."""

    architecture: str = "sconet"
    embedding_dim: int = 32
    hidden_widths: tuple = (64, 32, 16, 8)
    lasso_lambda: float = 0.1
    learning_rate: float = 0.001
    batch_size: int = 128
    negative_ratio: int = 1
    epochs: int = 30
    patience: object = 5
    seed: int = 0
    workers: int = 1
    target: str = ""
    source: str = ""
    split: str = ""
    min_user_interactions: int = 3
    users: int = 1000
    items_target: int = 1600
    items_source: int = 1000
    latent_dim: int = 8
    relatedness: float = 0.9
    target_density: float = 0.005
    source_density: float = 0.015
    top_n: int = 10
    mrr_uncut: bool = False
    out: str = ""

    def base_model_config(self) -> ModelConfig:
        """Model settings shared by every arm, before an architecture is resolved.

        Checked here, before any arm resolves its own lambda from it.
        """
        config = ModelConfig(
            embedding_dim=self.embedding_dim,
            hidden_widths=tuple(self.hidden_widths),
            lasso_lambda=self.lasso_lambda,
        )
        config.validate()
        return config

    def model_config(self) -> ModelConfig:
        config = studies.model_config_for(self.architecture, self.base_model_config())
        config.validate()
        return config

    def train_config(self) -> TrainConfig:
        cfg = TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            negative_ratio=self.negative_ratio,
            epochs=self.epochs,
            patience=self.patience,
            seed=self.seed,
        )
        cfg.validate()
        return cfg

    def synthetic_config(self) -> dataio.SyntheticConfig:
        return dataio.SyntheticConfig(
            num_users=self.users,
            num_items_target=self.items_target,
            num_items_source=self.items_source,
            latent_dim=self.latent_dim,
            relatedness=self.relatedness,
            target_density=self.target_density,
            source_density=self.source_density,
            seed=self.seed,
        )

    def to_flat_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (tuple, list)):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


_INT_TUPLE_FIELDS = {"hidden_widths"}
_BOOL_FIELDS = {"mrr_uncut"}


def _coerce(name: str, raw: str):
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    if name not in fields:
        raise ConfigError(f"unknown config key {name!r}")
    if name in _BOOL_FIELDS:
        if isinstance(raw, bool):
            return raw
        if str(raw).lower() in ("1", "true", "yes"):
            return True
        if str(raw).lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"{name} must be a boolean, got {raw!r}")
    if name == "patience" and (raw is None or str(raw).lower() in ("none", "off")):
        return None
    default = fields[name].default
    try:
        if name in _INT_TUPLE_FIELDS:
            return tuple(int(v) for v in str(raw).replace(" ", "").split(",") if v)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot read {raw!r} ({exc})") from exc
    return str(raw)


def load_run_config(path=None, overrides=None) -> RunConfig:
    """Build a RunConfig from a flat key = value file plus overrides."""
    values = {}
    if path:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = _coerce(key.strip(), value.strip())
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        values[key] = _coerce(key, value)
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# Output plumbing


def resolve_out_dir(config: RunConfig, command: str) -> Path:
    root = Path(os.environ.get(ENV_OUTPUT_ROOT, "."))
    out = Path(config.out) if config.out else Path("runs") / command
    path = out if out.is_absolute() else root / out
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _echo_config(config: RunConfig, out_dir: Path) -> None:
    (out_dir / "config.txt").write_text(config.to_flat_text(), encoding="utf-8")


def _dataset_name(config: RunConfig) -> str:
    return f"{Path(config.target).name}+{Path(config.source).name}"


def _load_split(config: RunConfig) -> dataio.LooSplit:
    """Align the two interaction files and split them, or load the frozen split."""
    if not config.target or not config.source:
        raise ConfigError("this command needs --target and --source interaction files")
    target = dataio.load_interactions(config.target, config.min_user_interactions)
    source = dataio.load_interactions(config.source, min_user_interactions=1)
    data = dataio.align_domains(target, source)
    if config.split:
        return dataio.load_split_manifest(data, config.split)
    return dataio.loo_split(data, derive_rng(config.seed, "split"))


# ---------------------------------------------------------------------------
# Commands


def cmd_generate(config: RunConfig) -> int:
    out_dir = resolve_out_dir(config, "generate")
    syn = config.synthetic_config()
    data = dataio.generate_synthetic(syn)
    dataio.write_interactions(data.target, out_dir / "target.tsv")
    dataio.write_interactions(data.source, out_dir / "source.tsv")
    manifest = {
        "seed": syn.seed,
        "relatedness": syn.relatedness,
        "latent_dim": syn.latent_dim,
        "num_users": data.num_users,
        "target": {
            "requested_density": syn.target_density,
            "actual_density": data.target.density,
            "num_items": data.target.num_items,
            "num_interactions": data.target.num_interactions,
        },
        "source": {
            "requested_density": syn.source_density,
            "actual_density": data.source.density,
            "num_items": data.source.num_items,
            "num_interactions": data.source.num_interactions,
        },
    }
    write_json(out_dir / "manifest.json", manifest)
    _echo_config(config, out_dir)
    print(f"wrote {out_dir / 'target.tsv'}, {out_dir / 'source.tsv'}")
    return 0


def cmd_train(config: RunConfig) -> int:
    out_dir = resolve_out_dir(config, "train")
    model_config = config.model_config()
    train_config = config.train_config()
    split = _load_split(config)
    if model_config.architecture == "mlp":
        print("note: architecture mlp ignores the source domain during training",
              file=sys.stderr)
    dataio.save_split_manifest(split, out_dir / "split.json")

    model = build_model(model_config, DomainSizes.from_split(split), train_config.seed)
    trainer = Trainer(model, split, train_config)
    stats = trainer.fit()
    ckpt.save_checkpoint(model, out_dir / "model.ckpt")
    with open(out_dir / "history.jsonl", "w", encoding="utf-8") as fh:
        for st in stats:
            fh.write(st.to_json_line() + "\n")

    summary = {"architecture": config.architecture, "dataset": _dataset_name(config),
               "epochs_trained": len(stats)}
    if stats and split.users.size:
        best = max(stats, key=lambda st: st.val_ndcg)
        summary.update({
            "best_epoch": best.epoch,
            "val_hr": best.val_hr,
            "val_ndcg": best.val_ndcg,
            "val_mrr": best.val_mrr,
        })
    write_json(out_dir / "summary.json", summary)
    _echo_config(config, out_dir)
    if stats:
        last = stats[-1]
        print(f"trained {len(stats)} epochs; "
              f"best val NDCG {summary.get('val_ndcg', float('nan')):.4f}; "
              f"final losses target={last.loss_target:.4f} source={last.loss_source:.4f}")
    else:
        print("trained 0 epochs (initialized model saved)")
    return 0


def _check_compat(model, split) -> None:
    sizes = model.sizes
    ok = (sizes.num_users == split.train.num_users
          and sizes.num_items_target == split.train.target.num_items
          and (not model.dual or sizes.num_items_source == split.train.source.num_items))
    if not ok:
        raise ConfigError(
            "checkpoint/split mismatch: the checkpoint was trained on different "
            f"data shapes (users={sizes.num_users}, items_t={sizes.num_items_target}, "
            f"items_s={sizes.num_items_source})"
        )


def cmd_evaluate(config: RunConfig, checkpoint_path: str, partition: str) -> int:
    if not checkpoint_path:
        raise ConfigError("evaluate needs --checkpoint")
    if not config.split:
        raise ConfigError("evaluate needs --split (the frozen split manifest)")
    out_dir = resolve_out_dir(config, "evaluate")
    split = _load_split(config)
    model = ckpt.load_checkpoint(checkpoint_path)
    _check_compat(model, split)
    report = evaluate(make_scorer(model, split), split, partition=partition,
                      top_n=config.top_n, mrr_uncut=config.mrr_uncut)
    record = report.to_jsonable(model=model.config.architecture,
                                dataset=_dataset_name(config))
    write_json(out_dir / "metrics.json", record)
    _echo_config(config, out_dir)
    print(f"{partition}: HR={report.hr:.4f} NDCG={report.ndcg:.4f} MRR={report.mrr:.4f} "
          f"({report.num_evaluated_users} users)")
    return 0


def _run_study(config: RunConfig, command: str, study, arms, **kwargs) -> int:
    """Run one study driver over the run's split and write ``study.json``."""
    out_dir = resolve_out_dir(config, command)
    report = study(_load_split(config), arms, config.base_model_config(),
                   config.train_config(), workers=config.workers, **kwargs)
    write_json(out_dir / "study.json", report.to_jsonable())
    _echo_config(config, out_dir)
    print(report.format_table())
    if report.summary:
        print(json.dumps(report.summary))
    return 0


def cmd_compare(config: RunConfig, archs, baseline) -> int:
    if not archs:
        raise ConfigError("compare needs --archs, e.g. --archs mlp,conet")
    return _run_study(config, "compare", studies.compare_architectures, archs,
                      baseline=baseline)


def cmd_lambda_sweep(config: RunConfig, lambdas) -> int:
    if not lambdas:
        raise ConfigError("lambda-sweep needs --lambdas, e.g. --lambdas 0,0.1,1,10")
    return _run_study(config, "lambda-sweep", studies.lambda_sweep, lambdas)


def cmd_reduce_study(config: RunConfig, levels) -> int:
    if not levels:
        raise ConfigError("reduce-study needs --levels, e.g. --levels 0,1,2")
    return _run_study(config, "reduce-study", studies.reduce_study, levels)


def cmd_sparsity_report(config: RunConfig, checkpoint_path, history_path) -> int:
    if not checkpoint_path and not history_path:
        raise ConfigError("sparsity-report needs --checkpoint and/or --history")
    out_dir = resolve_out_dir(config, "sparsity-report")
    record = {}
    if checkpoint_path:
        model = ckpt.load_checkpoint(checkpoint_path)
        record["per_matrix"] = studies.sparsity_table(model)
    if history_path:
        series = []
        try:
            lines = Path(history_path).read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read history {history_path}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entry = EpochStats.from_json_line(line)
            except DataError as exc:
                raise DataError(f"{history_path}:{lineno}: {exc}") from exc
            series.append({"epoch": entry.epoch, "h_zero_ratios": entry.h_zero_ratios})
        if series and not any(s["h_zero_ratios"] for s in series):
            raise ConfigError("history has no transfer-matrix sparsity series "
                              "(architecture without cross connections)")
        record["per_epoch"] = series
    write_json(out_dir / "sparsity.json", record)
    _echo_config(config, out_dir)
    if "per_matrix" in record:
        print(f"{'matrix':<8} {'shape':>12} {'zero ratio':>12}")
        for row in record["per_matrix"]:
            shape = f"{row['rows']}x{row['cols']}"
            print(f"{row['matrix']:<8} {shape:>12} {row['zero_ratio']:>12.4f}")
    if "per_epoch" in record:
        print(f"{len(record['per_epoch'])} epochs of sparsity history written")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f"cfg_{f.name}", default=None, metavar="V")


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f"cfg_{f.name}", None)
        if value is not None:
            overrides[f.name] = value
    return load_run_config(args.config, overrides)


def _csv(text: str, convert, flag: str) -> list:
    """The comma-separated values of a list-valued flag."""
    try:
        return [convert(v) for v in text.replace(" ", "").split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"{flag}: cannot read {text!r} ({exc})") from exc


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are config errors: one line, exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conet",
        description="Cross-domain collaborative filtering toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic cross-domain dataset")
    _add_config_flags(p)

    p = sub.add_parser("train", help="train one model and save the best checkpoint")
    _add_config_flags(p)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a frozen split")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--partition", choices=("test", "validation"), default="test")

    p = sub.add_parser("compare", help="train several architectures on one split")
    _add_config_flags(p)
    p.add_argument("--archs", required=True,
                   help="comma list from: " + ",".join(studies.ARCH_CHOICES))
    p.add_argument("--baseline", default=None)

    p = sub.add_parser("lambda-sweep", help="sweep the sparsity penalty")
    _add_config_flags(p)
    p.add_argument("--lambdas", required=True)

    p = sub.add_parser("reduce-study", help="reduce target training data per user")
    _add_config_flags(p)
    p.add_argument("--levels", required=True)

    p = sub.add_parser("sparsity-report", help="zero-entry ratios of transfer matrices")
    _add_config_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--history", default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _config_from_args(args)
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.checkpoint, args.partition)
        if args.command == "compare":
            return cmd_compare(config, _csv(args.archs, str, "--archs"), args.baseline)
        if args.command == "lambda-sweep":
            return cmd_lambda_sweep(config, _csv(args.lambdas, float, "--lambdas"))
        if args.command == "reduce-study":
            return cmd_reduce_study(config, _csv(args.levels, int, "--levels"))
        if args.command == "sparsity-report":
            return cmd_sparsity_report(config, args.checkpoint, args.history)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # Inputs are read behind DataError, so what is left is a failed write.
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
