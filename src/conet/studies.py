"""Study drivers: model comparison, lambda sweeps, reduction, sparsity.

Every study freezes one leave-one-out split and trains all arms against
it with the same seed, so per-user paired t-tests compare models under
identical conditions. Each driver builds a list of ``(config, split)``
arms, each config checked as it is built, so a bad arm fails before any
arm trains. One runner trains the arms (in parallel worker threads if
asked) and t-tests each against the baseline arm. An arm returns only what the report reads:
its test metrics, its epoch count and the zero ratio of each transfer
matrix; its model is dropped when the arm ends. Results are collected in
arm order, so the report does not depend on scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .data import LooSplit, reduce_training
from .errors import ConfigError
from .evaluation import MetricsReport, evaluate, ndcg_contributions, paired_t_test
from .models import DomainSizes, ModelConfig, build_model
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
ARCH_CHOICES = ("mlp", "mlp++", "csn", "conet", "sconet")


@dataclass
class StudyRow:
    condition: str
    metrics: MetricsReport
    p_value: float = None
    details: dict = field(default_factory=dict)


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

    ``conet`` forces the penalty off; ``sconet`` keeps the configured
    lambda, or the 0.1 default when it is zero.
    """
    if arch not in ARCH_CHOICES:
        raise ConfigError(f"unknown architecture {arch!r}; pick one of {ARCH_CHOICES}")
    if arch == "sconet":
        lam = base.lasso_lambda or 0.1
        return replace(base, architecture="conet", lasso_lambda=lam)
    if arch == "conet":
        return replace(base, architecture="conet", lasso_lambda=0.0)
    return replace(base, architecture=arch, lasso_lambda=0.0)


def _train_and_evaluate(config: ModelConfig, split: LooSplit, train_config: TrainConfig):
    """Train one arm; return ``(test report, epochs trained, H zero ratios)``."""
    model = build_model(config, DomainSizes.from_split(split), train_config.seed)
    stats = Trainer(model, split, train_config).fit()
    report = evaluate(make_scorer(model, split), split, partition="test")
    return report, len(stats), [sparsity_ratio(h) for h in model.transfer_matrices()]


def _run_arms(arms, baseline: int, train_config: TrainConfig, workers: int) -> list:
    """Train ``(config, split)`` arms and t-test each one against arm ``baseline``.

    Returns one ``(report, epochs_trained, h_zero_ratios, p_value)`` per
    arm, in arm order, whatever the number of worker threads.
    """
    def run(arm):
        return _train_and_evaluate(*arm, train_config)

    if workers <= 1:
        results = [run(arm) for arm in arms]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, arms))
    base_vector = ndcg_contributions(results[baseline][0].positions)
    return [(*result, paired_t_test(ndcg_contributions(result[0].positions), base_vector))
            for result in results]


def compare_architectures(split: LooSplit, archs, base_config: ModelConfig,
                          train_config: TrainConfig, baseline: str = None,
                          workers: int = 1) -> StudyReport:
    """Train each architecture on one frozen split and tabulate the metrics.

    Every arm shares the split and the seed. The p-value of each row is a
    paired t-test of per-user NDCG contributions against the baseline arm
    (``mlp`` when present, else the first arch).
    """
    configs = [model_config_for(arch, base_config) for arch in archs]
    if baseline is None:
        baseline = "mlp" if "mlp" in archs else archs[0]
    if baseline not in archs:
        raise ConfigError(f"baseline {baseline!r} is not among the compared architectures")

    results = _run_arms([(cfg, split) for cfg in configs], archs.index(baseline),
                        train_config, workers)
    rows = []
    for arch, cfg, (report, epochs, ratios, p_value) in zip(archs, configs, results):
        details = {
            "architecture": cfg.architecture,
            "lambda": cfg.lasso_lambda,
            "epochs_trained": epochs,
        }
        if cfg.architecture == "conet":
            details["h_zero_ratios"] = ratios
        rows.append(StudyRow(condition=arch, metrics=report, p_value=p_value, details=details))
    return StudyReport(kind="compare", baseline=baseline, seed=train_config.seed, rows=rows)


def lambda_sweep(split: LooSplit, lambdas, base_config: ModelConfig,
                 train_config: TrainConfig, workers: int = 1) -> StudyReport:
    """Train the cross-connection model once per penalty weight."""
    arms = [(replace(base_config, architecture="conet", lasso_lambda=float(lam)), split)
            for lam in lambdas]
    rows = [
        StudyRow(
            condition=f"lambda={lam:g}",
            metrics=report,
            p_value=p_value,
            details={
                "lambda": float(lam),
                "h_zero_ratios": ratios,
                "mean_zero_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
                "epochs_trained": epochs,
            },
        )
        for lam, (report, epochs, ratios, p_value)
        in zip(lambdas, _run_arms(arms, 0, train_config, workers))
    ]
    return StudyReport(kind="lambda-sweep", baseline=rows[0].condition,
                       seed=train_config.seed, rows=rows)


def reduce_study(split: LooSplit, levels, base_config: ModelConfig,
                 train_config: TrainConfig, workers: int = 1) -> StudyReport:
    """Shrink the target train set per user and race SCoNet against MLP.

    The MLP reference trains once on the full split; each level trains the
    sparse cross-connection model on a reduced copy. The summary records
    the first level where it falls below the MLP reference on NDCG.
    """
    levels = sorted(set(int(k) for k in levels))
    sconet_config = model_config_for("sconet", base_config)
    reduced = [reduce_training(split, level, derive_rng(train_config.seed, "reduce", level))
               for level in levels]
    arms = [(model_config_for("mlp", base_config), split)]
    arms += [(sconet_config, red) for red in reduced]
    (mlp_report, mlp_epochs, _, _), *results = _run_arms(arms, 0, train_config, workers)

    total = split.train.target.num_interactions
    rows = [StudyRow(
        condition="mlp",
        metrics=mlp_report,
        p_value=None,
        details={
            "architecture": "mlp",
            "removed": 0,
            "removed_percent": 0.0,
            "train_size": total,
            "epochs_trained": mlp_epochs,
        },
    )]
    crossover = None
    for level, red, (report, epochs, _, p_value) in zip(levels, reduced, results):
        removed = total - red.train.target.num_interactions
        rows.append(StudyRow(
            condition=f"sconet-remove-{level}",
            metrics=report,
            p_value=p_value,
            details={
                "architecture": "conet",
                "lambda": sconet_config.lasso_lambda,
                "per_user_removal": level,
                "removed": removed,
                "removed_percent": 100.0 * (removed / total if total else 0.0),
                "train_size": total - removed,
                "epochs_trained": epochs,
            },
        ))
        if crossover is None and report.ndcg < mlp_report.ndcg:
            crossover = level
    return StudyReport(
        kind="reduce",
        baseline="mlp",
        seed=train_config.seed,
        rows=rows,
        summary={"crossover_level": crossover},
    )


def sparsity_table(model) -> list:
    """Per-transfer-matrix zero ratios of a trained cross-connection model."""
    matrices = model.transfer_matrices()
    if not matrices:
        raise ConfigError(
            f"architecture {model.config.architecture!r} has no transfer matrices"
        )
    return [
        {"matrix": f"H_{k}", "rows": h.shape[0], "cols": h.shape[1],
         "zero_ratio": sparsity_ratio(h)}
        for k, h in enumerate(matrices)
    ]
