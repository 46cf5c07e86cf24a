"""Cross-domain collaborative filtering with collaborative cross networks.

Implements a family of two-tower neural recommenders over a shared user
set (base MLP, MLP++ with a shared user embedding, cross-stitch coupling,
and cross-connection transfer matrices with optional L1 sparsity),
together with leave-one-out ranking evaluation, a synthetic cross-domain
generator, and study drivers for comparisons, penalty sweeps and
training-data reduction.
"""

from .data import (
    CrossDomainDataset,
    InteractionDataset,
    LooSplit,
    SyntheticConfig,
    align_domains,
    generate_synthetic,
    load_interactions,
    loo_split,
    reduce_training,
)
from .errors import ConetError, ConfigError, DataError, NumericError
from .evaluation import MetricsReport, evaluate, paired_t_test
from .models import DomainSizes, ModelConfig, build_model
from .training import TrainConfig, Trainer, make_scorer

__all__ = [
    "CrossDomainDataset",
    "InteractionDataset",
    "LooSplit",
    "SyntheticConfig",
    "align_domains",
    "generate_synthetic",
    "load_interactions",
    "loo_split",
    "reduce_training",
    "ConetError",
    "ConfigError",
    "DataError",
    "NumericError",
    "MetricsReport",
    "evaluate",
    "paired_t_test",
    "DomainSizes",
    "ModelConfig",
    "build_model",
    "TrainConfig",
    "Trainer",
    "make_scorer",
]

__version__ = "0.1.0"
