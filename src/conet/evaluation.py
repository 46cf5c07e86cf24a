"""Leave-one-out ranking evaluation and paired significance testing.

For every evaluated user the held-out item is scored against that user's
99 frozen negatives; the hit position is its 1-based rank among the 100
candidates, with ties counted against the held-out item (pessimistic and
deterministic). HR, NDCG and MRR are averaged per-user contributions with
the ranked list cut off at ``top_n`` (10 by default). Per-user arithmetic
uses plain Python floats in user-index order so the aggregates are
bit-reproducible and exactly recomputable from the hit positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .data import LooSplit
from .errors import ConfigError, DataError, NumericError

__all__ = [
    "MetricsReport",
    "Scorer",
    "hit_ratio",
    "ndcg",
    "mrr",
    "evaluate",
    "paired_t_test",
    "ndcg_contributions",
]

DEFAULT_TOP_N = 10


class Scorer(Protocol):
    def score_items(self, users, candidates) -> np.ndarray:
        """Scores ``(U, C)`` of each user's row of ``(U, C)`` candidate items."""


@dataclass
class MetricsReport:
    """Ranking metrics of one partition with every evaluated user's hit position.

    ``users`` lists the evaluated users ascending and ``positions`` their
    1-based hit positions among the 100 candidates, aligned, both as
    Python ints; the aggregates are recomputable from ``positions``.
    """

    hr: float
    ndcg: float
    mrr: float
    users: list
    positions: list
    top_n: int

    @property
    def num_evaluated_users(self) -> int:
        return len(self.positions)

    def to_jsonable(self, model: str = "", dataset: str = "") -> dict:
        return {
            "model": model,
            "dataset": dataset,
            "topN": self.top_n,
            "hr": self.hr,
            "ndcg": self.ndcg,
            "mrr": self.mrr,
            "num_users": self.num_evaluated_users,
            "per_user": [[u, p] for u, p in zip(self.users, self.positions)],
        }


def _mean(contributions: list) -> float:
    # Added one by one in user order: ``sum()`` of floats changed its
    # algorithm in Python 3.12, and the aggregates must keep their bits.
    if not contributions:
        raise DataError("ranking metrics need at least one evaluated user")
    total = 0.0
    for c in contributions:
        total += c
    return total / len(contributions)


def _ndcg_terms(positions, top_n: int) -> list:
    return [math.log(2.0) / math.log(p + 1.0) if p <= top_n else 0.0 for p in positions]


def hit_ratio(positions, top_n: int = DEFAULT_TOP_N) -> float:
    """Fraction of users whose hit position is within the cutoff."""
    return _mean([1.0 if p <= top_n else 0.0 for p in positions])


def ndcg(positions, top_n: int = DEFAULT_TOP_N) -> float:
    """Mean of log 2 / log(position + 1) over users inside the cutoff."""
    return _mean(_ndcg_terms(positions, top_n))


def mrr(positions, top_n: int = DEFAULT_TOP_N, apply_cutoff: bool = True) -> float:
    """Mean reciprocal hit position.

    By default the top-N cutoff zeroes contributions beyond ``top_n``,
    matching the other two metrics; ``apply_cutoff=False`` gives the
    uncut reading.
    """
    return _mean([1.0 / p if not apply_cutoff or p <= top_n else 0.0 for p in positions])


def ndcg_contributions(positions, top_n: int = DEFAULT_TOP_N) -> np.ndarray:
    """Per-user NDCG contributions in the order given (for paired tests)."""
    return np.asarray(_ndcg_terms(positions, top_n), dtype=np.float64)


def evaluate(scorer: Scorer, split: LooSplit, partition: str = "test",
             top_n: int = DEFAULT_TOP_N, mrr_uncut: bool = False) -> MetricsReport:
    """Rank every evaluated user's held-out item against its 99 negatives.

    Deterministic: every user's held-out item and frozen negatives go to
    the scorer in one ``(U, 100)`` candidate matrix, held-out item first
    and users in index order, so two models are always compared on
    identical candidate sets.
    """
    if top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")
    if partition not in ("test", "validation"):
        raise ConfigError(f"unknown partition {partition!r}")
    users = split.users
    candidates = np.column_stack([getattr(split, partition), split.eval_negatives])
    try:
        scores = np.asarray(scorer.score_items(users, candidates), dtype=np.float64)
    except Exception as exc:
        try:
            wrapped = type(exc)(f"scorer failed for the {users.size} {partition} users: {exc}")
        except Exception:
            wrapped = None  # a type that takes more than a message goes on as raised
        if wrapped is None:
            raise
        raise wrapped from exc
    if scores.shape != candidates.shape:
        raise DataError(f"scorer returned scores of shape {scores.shape} "
                        f"for candidates of shape {candidates.shape}")
    if not np.all(np.isfinite(scores)):
        bad = users[~np.isfinite(scores).all(axis=1)]
        raise NumericError(f"scores must be finite; user {int(bad[0])} has a non-finite score")
    # Ties count against the held-out item, so a constant scorer ranks it last.
    positions = (1 + np.count_nonzero(scores[:, 1:] >= scores[:, :1], axis=1)).tolist()
    return MetricsReport(hr=hit_ratio(positions, top_n), ndcg=ndcg(positions, top_n),
                         mrr=mrr(positions, top_n, apply_cutoff=not mrr_uncut),
                         users=users.tolist(), positions=positions, top_n=top_n)


def paired_t_test(per_user_a, per_user_b) -> float:
    """Two-sided paired t-test p-value on per-user metric differences.

    Degenerate cases are pinned: all-zero differences give p = 1.0, and a
    nonzero constant difference (zero variance) gives p = 0.0.
    """
    a = np.asarray(per_user_a, dtype=np.float64)
    b = np.asarray(per_user_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("paired_t_test needs two equal-length vectors")
    if a.size < 2:
        raise DataError("paired_t_test needs at least two pairs")
    diff = a - b
    if np.all(diff == 0.0):
        return 1.0
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        return 0.0
    t_stat = float(diff.mean()) / (sd / math.sqrt(diff.size))
    # Student's t CDF: the same value as ``scipy.stats.t.sf(|t|, df)``
    # without loading ``scipy.stats``; only the studies get here.
    from scipy.special import stdtr

    return float(2.0 * stdtr(diff.size - 1, -abs(t_stat)))
