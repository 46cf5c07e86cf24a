"""Command-line surface: reproducible runs bound to configs and seeds.

Verbs: generate, train, evaluate, compare, reduce-study, sparsity-report,
lambda-sweep. One runner serves them all: it reads an optional flat
``key = value`` config file, applies flag overrides, resolves the output
directory (relative to ``CONET_OUTPUT_ROOT`` when set), runs the verb and
echoes the fully resolved config next to its outputs. Exit codes: 0
success, 2 configuration error, out of memory or an output that cannot be
written, 3 data error, 4 numeric divergence, 130 interrupted.
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
from .evaluation import DEFAULT_TOP_N, evaluate
from .models import DomainSizes, Model, ModelConfig
from .numerics import derive_rng
from .training import EpochStats, TrainConfig, Trainer, make_scorer

ENV_OUTPUT_ROOT = "CONET_OUTPUT_ROOT"
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded")


@dataclass
class RunConfig:
    """Union of model, training, data and output settings for one run.

    A setting that a library config also holds takes its default from
    that config's class, and :meth:`base_model_config`, :meth:`train_config`
    and :meth:`synthetic_config` build the library configs from the fields
    of the same names; the synthetic sizes drop the generator's ``num_``
    prefix. Each config, this one included, checks its values when built.
    """

    architecture: str = "sconet"
    embedding_dim: int = ModelConfig.embedding_dim
    hidden_widths: tuple = ModelConfig.hidden_widths
    lasso_lambda: float = ModelConfig.lasso_lambda
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    negative_ratio: int = TrainConfig.negative_ratio
    epochs: int = TrainConfig.epochs
    patience: object = TrainConfig.patience
    seed: int = TrainConfig.seed
    workers: int = 1
    target: str = ""
    source: str = ""
    split: str = ""
    min_user_interactions: int = 3
    users: int = dataio.SyntheticConfig.num_users
    items_target: int = dataio.SyntheticConfig.num_items_target
    items_source: int = dataio.SyntheticConfig.num_items_source
    latent_dim: int = dataio.SyntheticConfig.latent_dim
    relatedness: float = dataio.SyntheticConfig.relatedness
    target_density: float = dataio.SyntheticConfig.target_density
    source_density: float = dataio.SyntheticConfig.source_density
    top_n: int = DEFAULT_TOP_N
    mrr_uncut: bool = False
    out: str = ""

    def __post_init__(self):
        for name in ("workers", "min_user_interactions", "top_n"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    def _build(self, cls, **values):
        """A ``cls`` config from this run's fields of the same names, then ``values``."""
        shared = {f.name: getattr(self, f.name) for f in dataclasses.fields(cls)
                  if f.name in vars(self)}
        return cls(**shared | values)

    def base_model_config(self) -> ModelConfig:
        """Model settings shared by every arm, before an architecture is resolved."""
        return self._build(ModelConfig, architecture=ModelConfig.architecture)

    def model_config(self) -> ModelConfig:
        return studies.model_config_for(self.architecture, self.base_model_config())

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig)

    def synthetic_config(self) -> dataio.SyntheticConfig:
        return self._build(dataio.SyntheticConfig, num_users=self.users,
                           num_items_target=self.items_target,
                           num_items_source=self.items_source)

    def to_flat_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (tuple, list)):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


def _csv(text: str, convert, flag: str) -> list:
    """The comma-separated values of a list-valued flag or key, at least one."""
    try:
        values = [convert(v) for v in text.replace(" ", "").split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"{flag}: cannot read {text!r} ({exc})") from exc
    if not values:
        raise ConfigError(f"{flag} needs at least one value")
    return values


def _coerce(name: str, raw):
    """``raw`` read as the type of the default of field ``name``."""
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    if name not in defaults:
        raise ConfigError(f"unknown config key {name!r}")
    default, text = defaults[name], str(raw)
    if name == "patience" and text.lower() in ("none", "off"):
        return None
    if isinstance(default, bool):
        if text.lower() in ("1", "true", "yes"):
            return True
        if text.lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"{name} must be a boolean, got {raw!r}")
    if isinstance(default, tuple):
        return tuple(_csv(text, int, name))
    try:
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot read {raw!r} ({exc})") from exc


def load_run_config(path=None, overrides=None) -> RunConfig:
    """Build a RunConfig from a flat key = value file plus overrides."""
    values = {}
    if path:
        for lineno, raw in enumerate(dataio.read_text(path, "config file").splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in values:
                raise ConfigError(f"{path}:{lineno}: key {key!r} is given twice")
            values[key] = _coerce(key, value)
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


def cmd_generate(config: RunConfig, args, out_dir: Path) -> None:
    syn = config.synthetic_config()
    data = dataio.generate_synthetic(syn)
    dataio.write_interactions(data.target, out_dir / "target.tsv")
    dataio.write_interactions(data.source, out_dir / "source.tsv")

    def domain(dataset, requested_density):
        return {"requested_density": requested_density, "actual_density": dataset.density,
                "num_items": dataset.num_items, "num_interactions": dataset.num_interactions}

    manifest = {
        "seed": syn.seed,
        "relatedness": syn.relatedness,
        "latent_dim": syn.latent_dim,
        "num_users": data.num_users,
        "target": domain(data.target, syn.target_density),
        "source": domain(data.source, syn.source_density),
    }
    dataio.write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {out_dir / 'target.tsv'}, {out_dir / 'source.tsv'}")


def cmd_train(config: RunConfig, args, out_dir: Path) -> None:
    model_config = config.model_config()
    train_config = config.train_config()
    split = _load_split(config)
    if model_config.architecture == "mlp":
        print("note: architecture mlp ignores the source domain during training",
              file=sys.stderr)
    trainer = Trainer.for_split(model_config, split, train_config)
    stats = trainer.fit()
    # Every file is written after training, so a run that fails leaves an earlier one's whole.
    dataio.save_split_manifest(split, out_dir / "split.json")
    ckpt.save_checkpoint(trainer.model, out_dir / "model.ckpt")
    dataio.write_atomic(out_dir / "history.jsonl",
                        "".join(st.to_json_line() + "\n" for st in stats))

    summary = {"architecture": config.architecture, "dataset": _dataset_name(config),
               "epochs_trained": len(stats)}
    best = trainer.best
    if best:
        summary.update({
            "best_epoch": best.epoch,
            "val_hr": best.val_hr,
            "val_ndcg": best.val_ndcg,
            "val_mrr": best.val_mrr,
        })
    dataio.write_json(out_dir / "summary.json", summary)
    if stats:
        last = stats[-1]
        print(f"trained {len(stats)} epochs; "
              f"best val NDCG {summary['val_ndcg']:.4f}; "
              f"final losses target={last.loss_target:.4f} source={last.loss_source:.4f}")
    else:
        print("trained 0 epochs (initialized model saved)")


def _check_compat(model, split) -> None:
    """Refuse a checkpoint whose tables do not fit the split's users and items."""
    try:
        Model(model.config, DomainSizes.from_split(split), model.params)
    except ConfigError as exc:
        raise ConfigError(f"checkpoint/split mismatch: {exc}") from exc


def cmd_evaluate(config: RunConfig, args, out_dir: Path) -> None:
    if not config.split:
        raise ConfigError("evaluate needs --split (the frozen split manifest)")
    split = _load_split(config)
    model = ckpt.load_checkpoint(args.checkpoint)
    _check_compat(model, split)
    report = evaluate(make_scorer(model, split), split, partition=args.partition,
                      top_n=config.top_n, mrr_uncut=config.mrr_uncut)
    record = report.to_jsonable(model=model.config.architecture,
                                dataset=_dataset_name(config))
    dataio.write_json(out_dir / "metrics.json", record)
    print(f"{args.partition}: HR={report.hr:.4f} NDCG={report.ndcg:.4f} MRR={report.mrr:.4f} "
          f"({report.num_evaluated_users} users)")


def cmd_study(config: RunConfig, args, out_dir: Path) -> None:
    """Run the verb's study driver over its arms and write ``study.json``."""
    extra = {"baseline": args.baseline} if "baseline" in args else {}
    report = args.study(_load_split(config), args.arms, config.base_model_config(),
                        config.train_config(), workers=config.workers, **extra)
    dataio.write_json(out_dir / "study.json", report.to_jsonable())
    print(report.format_table())
    if report.summary:
        print(json.dumps(report.summary))


def cmd_sparsity_report(config: RunConfig, args, out_dir: Path) -> None:
    checkpoint_path, history_path = args.checkpoint, args.history
    if not checkpoint_path and not history_path:
        raise ConfigError("sparsity-report needs --checkpoint and/or --history")
    record = {}
    if checkpoint_path:
        model = ckpt.load_checkpoint(checkpoint_path)
        record["per_matrix"] = studies.sparsity_table(model)
    if history_path:
        series = []
        lines = dataio.read_text(history_path, "history").splitlines()
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
    dataio.write_json(out_dir / "sparsity.json", record)
    if "per_matrix" in record:
        print(f"{'matrix':<8} {'shape':>12} {'zero ratio':>12}")
        for row in record["per_matrix"]:
            shape = f"{row['rows']}x{row['cols']}"
            print(f"{row['matrix']:<8} {shape:>12} {row['zero_ratio']:>12.4f}")
    if "per_epoch" in record:
        print(f"{len(record['per_epoch'])} epochs of sparsity history written")


# ---------------------------------------------------------------------------
# Argument parsing


def _config_from_args(args) -> RunConfig:
    """The verb's config; only ``evaluate`` may change a ranking setting from its default."""
    overrides = {f.name: getattr(args, f"cfg_{f.name}") for f in dataclasses.fields(RunConfig)}
    config = load_run_config(args.config, overrides)
    for name in ("top_n", "mrr_uncut"):
        if args.command != "evaluate" and getattr(config, name) != getattr(RunConfig, name):
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{args.command} does not take {flag}; only evaluate does")
    return config


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are config errors: one line, exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# ``--config`` and one flag per RunConfig field, declared once; every verb takes them.
_RUN_FLAGS = argparse.ArgumentParser(add_help=False)
_RUN_FLAGS.add_argument("--config", help="flat key = value config file")
for _f in dataclasses.fields(RunConfig):
    _RUN_FLAGS.add_argument("--" + _f.name.replace("_", "-"), dest=f"cfg_{_f.name}", metavar="V")


def build_parser() -> argparse.ArgumentParser:
    """The verbs' parser; each verb's ``run(config, args, out_dir)`` is its default."""
    parser = _Parser(
        prog="conet",
        description="Cross-domain collaborative filtering toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, run, help_text, **defaults):
        p = sub.add_parser(name, help=help_text, parents=[_RUN_FLAGS])
        p.set_defaults(run=run, **defaults)
        return p

    def study(name, help_text, driver, flag, convert, **options):
        p = verb(name, cmd_study, help_text, study=driver)
        p.add_argument(flag, dest="arms", metavar=flag[2:].upper(), required=True,
                       type=lambda text: _csv(text, convert, flag), **options)
        return p

    verb("generate", cmd_generate, "write a synthetic cross-domain dataset")
    verb("train", cmd_train, "train one model and save the best checkpoint")
    p = verb("evaluate", cmd_evaluate, "evaluate a checkpoint on a frozen split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--partition", choices=("test", "validation"), default="test")
    p = study("compare", "train several architectures on one split",
              studies.compare_architectures, "--archs", str,
              help="comma list from: " + ",".join(studies.ARCH_CHOICES))
    p.add_argument("--baseline", default=None)
    study("lambda-sweep", "sweep the sparsity penalty", studies.lambda_sweep, "--lambdas", float)
    study("reduce-study", "reduce target training data per user", studies.reduce_study,
          "--levels", int)
    p = verb("sparsity-report", cmd_sparsity_report, "zero-entry ratios of transfer matrices")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--history", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _config_from_args(args)
        out_dir = resolve_out_dir(config, args.command)
        args.run(config, args, out_dir)
        dataio.write_atomic(out_dir / "config.txt", config.to_flat_text())
        return 0
    except ConetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # Inputs are read behind DataError, so what is left is a failed write.
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except (MemoryError, OverflowError, ValueError) as exc:
        # numpy refuses a size whose byte count overflows with the last two.
        if isinstance(exc, ValueError) and not str(exc).startswith(_TOO_BIG):
            raise
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
