"""Study drivers: model comparison, lambda sweeps, reduction, sparsity.

Every study freezes one leave-one-out split and trains all arms against
it with the same seed, so per-user paired t-tests compare models under
identical conditions. A driver only lists its arms, each config checked
as it is built, so a bad arm fails before any arm trains. One runner
trains the arms (in worker threads if asked), dropping each model when
its arm ends, t-tests each against the baseline arm and builds the rows
in arm order, so the report does not depend on scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .data import LooSplit, reduce_training
from .errors import ConfigError
from .evaluation import MetricsReport, evaluate, ndcg_contributions, paired_t_test
from .models import ARCHITECTURES, ModelConfig
from .numerics import derive_rng
from .training import TrainConfig, Trainer, make_scorer, sparsity_ratio

__all__ = [
    "StudyRow",
    "StudyReport",
    "ARCH_CHOICES",
    "model_config_for",
    "compare_architectures",
    "lambda_sweep",
    "reduce_study",
    "sparsity_table",
]

# "conet" is the dense cross-connection model, "sconet" the same
# architecture trained with the L1 penalty on its transfer matrices.
ARCH_CHOICES = (*ARCHITECTURES, "sconet")


@dataclass
class StudyRow:
    condition: str
    metrics: MetricsReport
    p_value: float
    details: dict


@dataclass
class StudyReport:
    kind: str
    baseline: str
    seed: int
    rows: list
    summary: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "baseline": self.baseline,
            "seed": self.seed,
            "rows": [
                {
                    "condition": r.condition,
                    "hr": r.metrics.hr,
                    "ndcg": r.metrics.ndcg,
                    "mrr": r.metrics.mrr,
                    "num_users": r.metrics.num_evaluated_users,
                    "p_value": r.p_value,
                    "details": r.details,
                }
                for r in self.rows
            ],
            "summary": self.summary,
        }

    def format_table(self) -> str:
        lines = [f"{'condition':<18} {'HR':>8} {'NDCG':>8} {'MRR':>8} {'p-value':>10}"]
        for r in self.rows:
            p = "-" if r.p_value is None else f"{r.p_value:.4f}"
            lines.append(
                f"{r.condition:<18} {r.metrics.hr:>8.4f} {r.metrics.ndcg:>8.4f} "
                f"{r.metrics.mrr:>8.4f} {p:>10}"
            )
        return "\n".join(lines)


def model_config_for(arch: str, base: ModelConfig) -> ModelConfig:
    """Resolve a study arch name into a concrete model config.

    ``sconet`` keeps the configured lambda, or ModelConfig's default when it
    is zero; every other arch, ``conet`` among them, runs without the penalty.
    """
    if arch not in ARCH_CHOICES:
        raise ConfigError(f"unknown architecture {arch!r}; pick one of {ARCH_CHOICES}")
    if arch == "sconet":
        lam = base.lasso_lambda or ModelConfig.lasso_lambda
        return replace(base, architecture="conet", lasso_lambda=lam)
    return replace(base, architecture=arch, lasso_lambda=0.0)


def _train_and_evaluate(config: ModelConfig, split: LooSplit, train_config: TrainConfig):
    """Train one arm; return ``(test report, epochs trained, H zero ratios)``."""
    trainer = Trainer.for_split(config, split, train_config)
    stats = trainer.fit()
    report = evaluate(make_scorer(trainer.model, split), split, partition="test")
    return report, len(stats), [sparsity_ratio(h) for h in trainer.model.transfer_matrices()]


def _run_arms(kind: str, arms, baseline: int, train_config: TrainConfig,
              workers: int) -> StudyReport:
    """Train ``(condition, config, split, details)`` arms into one report.

    A worker thread gets an arm's config and split, never its ``details``.
    Each row's p-value is a paired t-test of per-user NDCG contributions
    against arm ``baseline``; ``details(epochs_trained, h_zero_ratios)``
    gives its details.
    """
    _, configs, splits, _ = zip(*arms)
    jobs = (_train_and_evaluate, configs, splits, [train_config] * len(arms))
    if workers <= 1:
        results = list(map(*jobs))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(*jobs))
    base_vector = ndcg_contributions(results[baseline][0].positions)
    rows = [StudyRow(condition, report,
                     paired_t_test(ndcg_contributions(report.positions), base_vector),
                     details(epochs, ratios))
            for (condition, _, _, details), (report, epochs, ratios) in zip(arms, results)]
    return StudyReport(kind, arms[baseline][0], train_config.seed, rows)


def compare_architectures(split: LooSplit, archs, base_config: ModelConfig,
                          train_config: TrainConfig, baseline: str = None,
                          workers: int = 1) -> StudyReport:
    """Train each arch on one split, against ``mlp`` if listed, else the first arch."""
    configs = [model_config_for(arch, base_config) for arch in archs]
    if baseline is None:
        baseline = "mlp" if "mlp" in archs else archs[0]
    if baseline not in archs:
        raise ConfigError(f"baseline {baseline!r} is not among the compared architectures")

    def details(cfg):
        return lambda epochs, ratios: {
            "architecture": cfg.architecture,
            "lambda": cfg.lasso_lambda,
            "epochs_trained": epochs,
            **({"h_zero_ratios": ratios} if cfg.architecture == "conet" else {}),
        }

    arms = [(arch, cfg, split, details(cfg)) for arch, cfg in zip(archs, configs)]
    return _run_arms("compare", arms, archs.index(baseline), train_config, workers)


def lambda_sweep(split: LooSplit, lambdas, base_config: ModelConfig,
                 train_config: TrainConfig, workers: int = 1) -> StudyReport:
    """Train the cross-connection model once per penalty weight; the first is the baseline."""
    def details(lam):
        return lambda epochs, ratios: {
            "lambda": lam,
            "h_zero_ratios": ratios,
            "mean_zero_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
            "epochs_trained": epochs,
        }

    arms = [(f"lambda={lam:g}", replace(base_config, architecture="conet",
                                        lasso_lambda=float(lam)), split, details(float(lam)))
            for lam in lambdas]
    return _run_arms("lambda-sweep", arms, 0, train_config, workers)


def reduce_study(split: LooSplit, levels, base_config: ModelConfig,
                 train_config: TrainConfig, workers: int = 1) -> StudyReport:
    """Shrink the target train set per user and race SCoNet against MLP.

    The MLP reference trains once on the full split and has no p-value;
    each level trains the sparse cross-connection model on a reduced copy.
    The summary records the first level below the MLP reference on NDCG.
    """
    levels = sorted(set(int(k) for k in levels))
    sconet_config = model_config_for("sconet", base_config)
    reduced = [reduce_training(split, level, derive_rng(train_config.seed, "reduce", level))
               for level in levels]
    total = split.train.target.num_interactions

    def details(level, removed):
        return lambda epochs, ratios: {
            "architecture": "conet",
            "lambda": sconet_config.lasso_lambda,
            "per_user_removal": level,
            "removed": removed,
            "removed_percent": 100.0 * (removed / total if total else 0.0),
            "train_size": total - removed,
            "epochs_trained": epochs,
        }

    arms = [("mlp", model_config_for("mlp", base_config), split, lambda epochs, ratios: {
        "architecture": "mlp", "removed": 0, "removed_percent": 0.0, "train_size": total,
        "epochs_trained": epochs})]
    arms += [(f"sconet-remove-{level}", sconet_config, red,
              details(level, total - red.train.target.num_interactions))
             for level, red in zip(levels, reduced)]
    report = _run_arms("reduce", arms, 0, train_config, workers)
    mlp, *rows = report.rows
    mlp.p_value = None
    below = [level for level, row in zip(levels, rows) if row.metrics.ndcg < mlp.metrics.ndcg]
    report.summary = {"crossover_level": below[0] if below else None}
    return report


def sparsity_table(model) -> list:
    """Per-transfer-matrix zero ratios of a trained cross-connection model."""
    matrices = model.transfer_matrices()
    if not matrices:
        raise ConfigError(
            f"architecture {model.config.architecture!r} has no transfer matrices"
        )
    return [
        {"matrix": name, "rows": h.shape[0], "cols": h.shape[1], "zero_ratio": sparsity_ratio(h)}
        for name, h in zip(model.coupling_names, matrices)
    ]
